//! The tree-based overlay network (TBON).
//!
//! Flux brokers form a k-ary tree rooted at rank 0; all communication
//! follows tree edges. The topology object answers parent/children/route
//! questions and converts a route length into a message latency.
//!
//! Since the self-healing overlay work the topology is **mutable and
//! versioned**: [`Tbon::detach`] removes a failed rank and re-parents its
//! orphaned children onto the nearest live ancestor, [`Tbon::attach`]
//! re-admits a recovered rank as a leaf, and [`Tbon::promote_root`]
//! migrates the root role to a successor when rank 0 dies. Every mutation
//! bumps the topology [`Tbon::epoch`] and empties the route memo, so
//! routes computed after a failure reflect the healed tree while
//! in-flight messages keep the route they were launched on.
//!
//! **A route is an index** (DESIGN.md §15.2). Most routes have the root
//! at one end, so a route up to the root and a route down from it each
//! sit in a per-rank slot, read without hashing; every other pair sits
//! in a map. A miss walks the parent array into one reused buffer and
//! allocates only the route itself. A mutation empties the map and the
//! slots filled since the last mutation, and nothing else.

use fluxpm_sim::SimDuration;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Multiply-rotate hasher for the overlay's integer-keyed maps (rank
/// pairs, matchtags). The keys are the program's own counters, never
/// outside input, so SipHash's flood resistance buys nothing here and
/// costs most of a route lookup. Deterministic — and nothing may
/// iterate these maps in hash order.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // The multiply mixes upward; the table indexes by the low bits.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over integer keys hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A broker rank (one per node; rank 0 is the initial root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);

impl Rank {
    /// The initial TBON root. After a root failover the live root may
    /// differ — consult [`crate::World::root`] / [`Tbon::root`].
    pub const ROOT: Rank = Rank(0);

    /// Index into per-rank vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// The k-ary broker tree (mutable, epoch-versioned).
///
/// ```
/// use fluxpm_flux::{Rank, Tbon};
///
/// let mut t = Tbon::binary(7);
/// assert_eq!(t.children(Rank(0)), vec![Rank(1), Rank(2)]);
/// assert_eq!(t.parent(Rank(5)), Some(Rank(2)));
/// // Leaf-to-leaf routing crosses the common ancestor.
/// assert_eq!(t.hops(Rank(3), Rank(6)), 4);
///
/// // An interior failure heals instead of partitioning: rank 1's
/// // children re-attach to rank 0 and routes recompute.
/// let epoch = t.epoch();
/// assert_eq!(t.detach(Rank(1)), vec![Rank(3), Rank(4)]);
/// assert_eq!(t.parent(Rank(3)), Some(Rank(0)));
/// assert_eq!(t.hops(Rank(3), Rank(6)), 3);
/// assert!(t.epoch() > epoch);
/// ```
#[derive(Debug, Clone)]
pub struct Tbon {
    size: u32,
    fanout: u32,
    /// Parent per rank; `None` for the root and for detached ranks.
    parents: Vec<Option<Rank>>,
    /// Children per rank, kept in rank order for determinism.
    children: Vec<Vec<Rank>>,
    /// Whether each rank is currently part of the overlay.
    attached: Vec<bool>,
    /// The current root (rank 0 until a failover promotes a successor).
    root: Rank,
    /// Topology version; bumped by every mutation, which empties the
    /// route memo.
    epoch: u64,
    /// One-hop message latency (default 20 µs, a typical intra-cluster
    /// RPC hop).
    pub hop_latency: SimDuration,
    /// Memoized routes for the *current* epoch; emptied on mutation.
    memo: RefCell<RouteMemo>,
}

/// The routes taken in the current epoch. A route with the root at one
/// end sits in a per-rank slot, every other pair in `pairs`.
#[derive(Debug, Clone, Default)]
struct RouteMemo {
    /// `up[r]`: the route from `r` up to the root. Sized on first use.
    up: Vec<Option<Rc<[Rank]>>>,
    /// `down[r]`: the route from the root down to `r`. Sized on first use.
    down: Vec<Option<Rc<[Rank]>>>,
    /// The ranks whose `up` or `down` slot was filled this epoch: what
    /// the next mutation empties.
    filled: Vec<u32>,
    /// Routes with the root at neither end.
    pairs: IntMap<(u32, u32), Rc<[Rank]>>,
    /// The buffer a miss walks into.
    scratch: Vec<Rank>,
}

impl RouteMemo {
    /// The memoized route `from -> to`, walked and memoized on a miss.
    /// Both ends are attached.
    fn get(
        &mut self,
        parents: &[Option<Rank>],
        root: Rank,
        from: Rank,
        to: Rank,
    ) -> Option<Rc<[Rank]>> {
        let (slots, at) = if to == root {
            (&mut self.up, from)
        } else if from == root {
            (&mut self.down, to)
        } else {
            if let Some(hit) = self.pairs.get(&(from.0, to.0)) {
                return Some(Rc::clone(hit));
            }
            let route = walk(parents, from, to, &mut self.scratch)?;
            self.pairs.insert((from.0, to.0), Rc::clone(&route));
            return Some(route);
        };
        if slots.is_empty() {
            slots.resize(parents.len(), None);
        }
        if let Some(hit) = &slots[at.index()] {
            return Some(Rc::clone(hit));
        }
        let route = walk(parents, from, to, &mut self.scratch)?;
        slots[at.index()] = Some(Rc::clone(&route));
        self.filled.push(at.0);
        Some(route)
    }

    /// Forget every route: the map, and the slots filled since the last
    /// call.
    fn clear(&mut self) {
        for r in self.filled.drain(..) {
            for slots in [&mut self.up, &mut self.down] {
                if let Some(slot) = slots.get_mut(r as usize) {
                    *slot = None;
                }
            }
        }
        self.pairs.clear();
    }
}

/// The route from `from` up to the lowest common ancestor and down to
/// `to`, walked over `parents` into `buf`, or `None` when the two ends
/// lie in different components. The one allocation is the route itself.
fn walk(parents: &[Option<Rank>], from: Rank, to: Rank, buf: &mut Vec<Rank>) -> Option<Rc<[Rank]>> {
    let up = |r: Rank| parents[r.index()];
    let climb = |mut r: Rank| {
        let mut depth = 0u32;
        while let Some(p) = up(r) {
            r = p;
            depth += 1;
        }
        (depth, r)
    };
    let (from_depth, from_top) = climb(from);
    let (to_depth, to_top) = climb(to);
    if from_top != to_top {
        return None;
    }
    // Bring the deeper end up to the other's depth; then both climb in
    // step until they meet at the common ancestor.
    let (mut a, mut b) = (from, to);
    for _ in to_depth..from_depth {
        a = up(a)?;
    }
    for _ in from_depth..to_depth {
        b = up(b)?;
    }
    while a != b {
        a = up(a)?;
        b = up(b)?;
    }
    buf.clear();
    let mut r = from;
    buf.push(r);
    while r != a {
        r = up(r)?;
        buf.push(r);
    }
    // The way down, gathered bottom-up and turned around in place.
    let mid = buf.len();
    let mut r = to;
    while r != a {
        buf.push(r);
        r = up(r)?;
    }
    buf[mid..].reverse();
    Some(Rc::from(&buf[..]))
}

impl PartialEq for Tbon {
    fn eq(&self, other: &Tbon) -> bool {
        // The route memo is a pure memo of the rest of the state and is
        // deliberately excluded from equality.
        self.size == other.size
            && self.fanout == other.fanout
            && self.parents == other.parents
            && self.children == other.children
            && self.attached == other.attached
            && self.root == other.root
            && self.epoch == other.epoch
            && self.hop_latency == other.hop_latency
    }
}

impl Tbon {
    /// Default per-hop latency.
    pub const DEFAULT_HOP_LATENCY_US: u64 = 20;

    /// Build a TBON over `size` brokers with the given fanout (k >= 1).
    pub fn new(size: u32, fanout: u32) -> Tbon {
        assert!(size >= 1, "a Flux instance has at least one broker");
        assert!(fanout >= 1, "fanout must be at least 1");
        let parents: Vec<Option<Rank>> = (0..size)
            .map(|r| {
                if r == 0 {
                    None
                } else {
                    Some(Rank((r - 1) / fanout))
                }
            })
            .collect();
        let children: Vec<Vec<Rank>> = (0..size)
            .map(|r| {
                let first = r * fanout + 1;
                (first..first.saturating_add(fanout))
                    .take_while(|&c| c < size)
                    .map(Rank)
                    .collect()
            })
            .collect();
        Tbon {
            size,
            fanout,
            parents,
            children,
            attached: vec![true; size as usize],
            root: Rank::ROOT,
            epoch: 0,
            hop_latency: SimDuration::from_micros(Self::DEFAULT_HOP_LATENCY_US),
            memo: RefCell::default(),
        }
    }

    /// Flux's default fanout of 2.
    pub fn binary(size: u32) -> Tbon {
        Tbon::new(size, 2)
    }

    /// Number of brokers.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Tree fanout.
    pub fn fanout(&self) -> u32 {
        self.fanout
    }

    /// All ranks in the instance (attached or not).
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.size).map(Rank)
    }

    /// The current topology version. Bumped by [`Tbon::detach`],
    /// [`Tbon::attach`] and [`Tbon::promote_root`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current root rank.
    pub fn root(&self) -> Rank {
        self.root
    }

    /// Whether `rank` is currently part of the overlay.
    pub fn is_attached(&self, rank: Rank) -> bool {
        self.attached[rank.index()]
    }

    /// Ranks currently attached to the overlay, in rank order.
    pub fn attached(&self) -> impl Iterator<Item = Rank> + '_ {
        self.ranks().filter(|&r| self.is_attached(r))
    }

    /// The parent of `rank`, or `None` for the root (and for detached
    /// ranks, which have no place in the tree).
    pub fn parent(&self, rank: Rank) -> Option<Rank> {
        self.parents[rank.index()]
    }

    /// Children of `rank`, in rank order.
    pub fn children(&self, rank: Rank) -> Vec<Rank> {
        self.children[rank.index()].clone()
    }

    /// Depth of `rank` (root = 0).
    pub fn depth(&self, rank: Rank) -> u32 {
        let mut d = 0;
        let mut r = rank;
        while let Some(p) = self.parent(r) {
            r = p;
            d += 1;
        }
        d
    }

    /// Number of tree edges on the path between two ranks (0 if equal).
    /// Routing goes up to the common ancestor and back down, exactly as
    /// Flux routes overlay messages.
    ///
    /// # Panics
    /// If either endpoint is detached (no route exists); use
    /// [`Tbon::route`] for a fallible lookup.
    pub fn hops(&self, from: Rank, to: Rank) -> u32 {
        // invariant: the documented `# Panics` precondition above.
        self.route(from, to).expect("no overlay route").len() as u32 - 1
    }

    /// True iff `a` is `b` or an ancestor of `b` (i.e. `b` is in `a`'s
    /// subtree). Used by in-tree reductions to prune fan-out. Detached
    /// ranks have no ancestors but themselves.
    pub fn is_ancestor(&self, a: Rank, b: Rank) -> bool {
        let mut r = b;
        loop {
            if r == a {
                return true;
            }
            match self.parent(r) {
                Some(p) => r = p,
                None => return false,
            }
        }
    }

    /// The full route between two ranks under the current topology,
    /// inclusive of both endpoints, or `None` if either endpoint is
    /// detached. Routes are memoized per epoch; a debug build checks
    /// every answer, memoized or not, against the plain parent walk.
    pub fn route(&self, from: Rank, to: Rank) -> Option<Rc<[Rank]>> {
        if !self.is_attached(from) || !self.is_attached(to) {
            return None;
        }
        let route = self
            .memo
            .borrow_mut()
            .get(&self.parents, self.root, from, to);
        debug_assert!(
            match (&route, self.route_walk(from, to)) {
                (Some(route), Some(walk)) => route.iter().copied().eq(walk),
                (memo, walk) => memo.is_none() && walk.is_none(),
            },
            "route memo disagrees with the parent walk: {from} -> {to}"
        );
        route
    }

    /// [`Tbon::route`] without the memo: up the parents from `from` to
    /// the first rank that is also an ancestor of `to`, then down that
    /// rank's line to `to`. `None` where the ends are detached or share
    /// no ancestor. It allocates nothing, so a debug build holds every
    /// route to it without moving an allocation count.
    fn route_walk(&self, from: Rank, to: Rank) -> Option<impl Iterator<Item = Rank> + '_> {
        if !self.is_attached(from) || !self.is_attached(to) {
            return None;
        }
        let line = move |r: Rank| std::iter::successors(Some(r), move |&r| self.parent(r));
        let lca = line(from).find(|&a| self.is_ancestor(a, to))?;
        let up = line(from).take_while(move |&r| r != lca);
        let (lca_depth, to_depth) = (self.depth(lca), self.depth(to));
        let down =
            (lca_depth..=to_depth).filter_map(move |d| line(to).nth((to_depth - d) as usize));
        Some(up.chain(down))
    }

    /// The full route between two ranks, inclusive of both endpoints —
    /// exactly the brokers a message transits on the overlay. A
    /// self-route is the single rank.
    ///
    /// # Panics
    /// If either endpoint is detached; use [`Tbon::route`] to probe.
    pub fn path(&self, from: Rank, to: Rank) -> Vec<Rank> {
        // invariant: the documented `# Panics` precondition above.
        self.route(from, to).expect("no overlay route").to_vec()
    }

    /// Height of the subtree rooted at `rank`: 0 for a leaf, else
    /// 1 + the tallest child subtree. Used to scale per-child RPC
    /// deadlines so a parent never times out before its children can.
    pub fn subtree_height(&self, rank: Rank) -> u32 {
        self.children[rank.index()]
            .iter()
            .map(|&c| 1 + self.subtree_height(c))
            .max()
            .unwrap_or(0)
    }

    /// Message latency between two ranks.
    pub fn latency(&self, from: Rank, to: Rank) -> SimDuration {
        SimDuration::from_micros(self.hop_latency.as_micros() * self.hops(from, to) as u64)
    }

    /// Bump the topology version and drop every memoized route.
    fn invalidate(&mut self) {
        self.epoch += 1;
        self.memo.get_mut().clear();
    }

    /// Remove a failed rank from the overlay. Its orphaned children
    /// re-attach to the nearest live ancestor (the failed rank's parent),
    /// so the tree heals instead of partitioning. Returns the orphans
    /// that were re-parented. Idempotent: detaching a detached rank is a
    /// no-op returning no orphans.
    ///
    /// # Panics
    /// If `rank` is the current root — root death is a failover, handled
    /// by [`Tbon::promote_root`].
    pub fn detach(&mut self, rank: Rank) -> Vec<Rank> {
        assert!(
            rank != self.root,
            "detaching the root requires promote_root"
        );
        if !self.attached[rank.index()] {
            return Vec::new();
        }
        // invariant: `rank` is attached and not the root (both checked
        // above), and only the root has no parent.
        let parent = self.parents[rank.index()].expect("attached non-root has a parent");
        self.children[parent.index()].retain(|&c| c != rank);
        self.parents[rank.index()] = None;
        self.attached[rank.index()] = false;
        let orphans = std::mem::take(&mut self.children[rank.index()]);
        for &o in &orphans {
            self.parents[o.index()] = Some(parent);
            self.children[parent.index()].push(o);
        }
        self.children[parent.index()].sort_unstable();
        self.invalidate();
        orphans
    }

    /// Migrate the root role to `successor` after the current root died:
    /// the successor is unlinked from its old parent, the dead root is
    /// detached, and the dead root's remaining children re-attach under
    /// the successor. Works for any attached successor, direct child of
    /// the old root or not.
    pub fn promote_root(&mut self, successor: Rank) {
        let old = self.root;
        assert!(successor != old, "successor must differ from the old root");
        assert!(
            self.attached[successor.index()],
            "successor must be attached"
        );
        if let Some(sp) = self.parents[successor.index()] {
            self.children[sp.index()].retain(|&c| c != successor);
            self.parents[successor.index()] = None;
        }
        self.attached[old.index()] = false;
        self.parents[old.index()] = None;
        let orphans = std::mem::take(&mut self.children[old.index()]);
        for o in orphans {
            if o == successor {
                continue;
            }
            self.parents[o.index()] = Some(successor);
            self.children[successor.index()].push(o);
        }
        self.children[successor.index()].sort_unstable();
        self.root = successor;
        self.invalidate();
    }

    /// Re-admit a recovered rank as a leaf under `parent`.
    ///
    /// # Panics
    /// If `rank` is already attached or `parent` is not.
    pub fn attach(&mut self, rank: Rank, parent: Rank) {
        assert!(!self.attached[rank.index()], "rank is already attached");
        assert!(self.attached[parent.index()], "parent must be attached");
        self.attached[rank.index()] = true;
        self.parents[rank.index()] = Some(parent);
        self.children[parent.index()].push(rank);
        self.children[parent.index()].sort_unstable();
        self.invalidate();
    }

    /// Move the whole subtree rooted at `child` under `new_parent`,
    /// bumping the epoch — the routing response to a sustainedly
    /// congested (but alive) uplink, structurally the same heal as a
    /// death `detach`/`attach` except the subtree stays intact. Returns
    /// `false` (and changes nothing) when the move is impossible or
    /// pointless: `child` is the root or detached, `new_parent` is
    /// detached, equal to `child` or the current parent, or lies inside
    /// `child`'s own subtree (which would cut a cycle loose).
    pub fn reattach(&mut self, child: Rank, new_parent: Rank) -> bool {
        if child == self.root
            || child == new_parent
            || !self.attached[child.index()]
            || !self.attached[new_parent.index()]
            || self.parents[child.index()] == Some(new_parent)
            || self.is_ancestor(child, new_parent)
        {
            return false;
        }
        let Some(old) = self.parents[child.index()] else {
            return false;
        };
        self.children[old.index()].retain(|&c| c != child);
        self.parents[child.index()] = Some(new_parent);
        self.children[new_parent.index()].push(child);
        self.children[new_parent.index()].sort_unstable();
        self.invalidate();
        true
    }

    /// Depth of the deepest attached rank (root = 0).
    pub fn max_depth(&self) -> u32 {
        self.attached().map(|r| self.depth(r)).max().unwrap_or(0)
    }

    /// Depth of a *freshly built* k-ary tree over `live` ranks — the
    /// bound the post-churn [`Tbon::rebalance`] restores. (The deepest
    /// rank in `Tbon::new(live, fanout)` is the last one.)
    pub fn ideal_depth(live: u32, fanout: u32) -> u32 {
        assert!(fanout >= 1);
        let mut d = 0;
        let mut r = live.saturating_sub(1);
        while r > 0 {
            r = (r - 1) / fanout;
            d += 1;
        }
        d
    }

    /// Whether the current shape respects the fresh k-ary bounds: no
    /// attached rank deeper than the fresh tree over the same live-rank
    /// count, and no rank parenting more than `fanout` children. Long
    /// fail/recover churn violates one side or the other — recovered
    /// ranks rejoining as leaves stretch the depth, while orphans
    /// re-parented to the nearest live ancestor overload its fanout —
    /// and [`Tbon::rebalance`] restores both.
    pub fn is_balanced(&self) -> bool {
        let live = self.attached().count() as u32;
        self.max_depth() <= Self::ideal_depth(live, self.fanout)
            && self
                .attached()
                .all(|r| self.children[r.index()].len() <= self.fanout as usize)
    }

    /// Restore k-ary shape over the currently attached ranks after
    /// churn. Deterministic: the current root stays root and the
    /// remaining attached ranks are laid out in ascending rank order,
    /// `order[i]` parenting under `order[(i-1)/fanout]` — exactly the
    /// fresh-tree shape, so afterwards `max_depth() ==
    /// ideal_depth(live, fanout)`. Bumps the epoch (dropping the route
    /// memo) only if the shape actually changed; returns whether it
    /// did. In-flight messages keep their launch-time routes, which
    /// still transit only live ranks, so nothing already sent is lost.
    pub fn rebalance(&mut self) -> bool {
        let order: Vec<Rank> = std::iter::once(self.root)
            .chain(self.attached().filter(|&r| r != self.root))
            .collect();
        let fanout = self.fanout as usize;
        let parent_at = |i: usize| i.checked_sub(1).map(|i| order[i / fanout]);
        if order
            .iter()
            .enumerate()
            .all(|(i, &r)| self.parents[r.index()] == parent_at(i))
        {
            return false;
        }
        for (i, &r) in order.iter().enumerate() {
            self.parents[r.index()] = parent_at(i);
        }
        for c in &mut self.children {
            c.clear();
        }
        for &r in &order {
            if let Some(p) = self.parents[r.index()] {
                self.children[p.index()].push(r);
            }
        }
        for c in &mut self.children {
            c.sort_unstable();
        }
        self.invalidate();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binary_tree_structure() {
        let t = Tbon::binary(7);
        assert_eq!(t.parent(Rank(0)), None);
        assert_eq!(t.parent(Rank(1)), Some(Rank(0)));
        assert_eq!(t.parent(Rank(2)), Some(Rank(0)));
        assert_eq!(t.parent(Rank(5)), Some(Rank(2)));
        assert_eq!(t.children(Rank(0)), vec![Rank(1), Rank(2)]);
        assert_eq!(t.children(Rank(1)), vec![Rank(3), Rank(4)]);
        assert_eq!(t.children(Rank(3)), vec![]);
    }

    #[test]
    fn partial_last_level() {
        let t = Tbon::binary(6);
        assert_eq!(t.children(Rank(2)), vec![Rank(5)]);
    }

    #[test]
    fn depths() {
        let t = Tbon::binary(7);
        assert_eq!(t.depth(Rank(0)), 0);
        assert_eq!(t.depth(Rank(2)), 1);
        assert_eq!(t.depth(Rank(6)), 2);
    }

    #[test]
    fn hops_symmetric_and_consistent() {
        let t = Tbon::binary(15);
        for a in t.ranks() {
            for b in t.ranks() {
                assert_eq!(t.hops(a, b), t.hops(b, a));
                if a == b {
                    assert_eq!(t.hops(a, b), 0);
                }
            }
        }
        // Siblings route through their parent.
        assert_eq!(t.hops(Rank(1), Rank(2)), 2);
        // Leaf to leaf across the tree: 3->0 is 2 up, 0->6 is 2 down... 3
        // and 6 share only the root.
        assert_eq!(t.hops(Rank(3), Rank(6)), 4);
        assert_eq!(t.hops(Rank(0), Rank(3)), 2);
    }

    #[test]
    fn reattach_moves_the_subtree_and_bumps_the_epoch() {
        let mut t = Tbon::binary(7);
        let e0 = t.epoch();
        // Move rank 1's whole subtree (3, 4) under rank 2.
        assert!(t.reattach(Rank(1), Rank(2)));
        assert_eq!(t.parent(Rank(1)), Some(Rank(2)));
        assert_eq!(t.parent(Rank(3)), Some(Rank(1)), "subtree stays intact");
        assert_eq!(t.children(Rank(2)), vec![Rank(1), Rank(5), Rank(6)]);
        assert_eq!(t.children(Rank(0)), vec![Rank(2)]);
        assert!(t.epoch() > e0);
        // Routes reflect the new shape.
        assert_eq!(t.hops(Rank(3), Rank(0)), 3);
    }

    #[test]
    fn reattach_rejects_impossible_moves() {
        let mut t = Tbon::binary(7);
        let e0 = t.epoch();
        assert!(!t.reattach(Rank(0), Rank(1)), "root cannot re-parent");
        assert!(!t.reattach(Rank(1), Rank(1)), "self-parent");
        assert!(!t.reattach(Rank(1), Rank(0)), "already the parent");
        assert!(
            !t.reattach(Rank(1), Rank(3)),
            "cycle: 3 is inside 1's subtree"
        );
        t.detach(Rank(5));
        assert!(!t.reattach(Rank(5), Rank(1)), "detached child");
        assert!(!t.reattach(Rank(1), Rank(5)), "detached parent");
        assert!(!t.reattach(Rank(1), Rank(0)) && t.epoch() > e0); // only detach bumped
    }

    #[test]
    fn hops_triangle_inequality() {
        let t = Tbon::new(31, 3);
        let ranks: Vec<Rank> = t.ranks().collect();
        for &a in &ranks {
            for &b in &ranks {
                for &c in &ranks {
                    assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
                }
            }
        }
    }

    #[test]
    fn latency_scales_with_hops() {
        let t = Tbon::binary(7);
        let l = t.latency(Rank(0), Rank(3));
        assert_eq!(l.as_micros(), 2 * Tbon::DEFAULT_HOP_LATENCY_US);
        assert_eq!(t.latency(Rank(4), Rank(4)), SimDuration::ZERO);
    }

    #[test]
    fn wide_fanout() {
        let t = Tbon::new(10, 9);
        // Rank 0 has children 1..=9; all leaves.
        assert_eq!(t.children(Rank(0)).len(), 9);
        assert_eq!(t.depth(Rank(9)), 1);
        assert_eq!(t.hops(Rank(1), Rank(9)), 2);
    }

    #[test]
    fn ancestry() {
        let t = Tbon::binary(7);
        assert!(t.is_ancestor(Rank(0), Rank(6)), "root covers all");
        assert!(t.is_ancestor(Rank(2), Rank(5)));
        assert!(t.is_ancestor(Rank(2), Rank(6)));
        assert!(!t.is_ancestor(Rank(1), Rank(5)));
        assert!(t.is_ancestor(Rank(3), Rank(3)), "self-ancestor");
        assert!(!t.is_ancestor(Rank(5), Rank(2)), "not symmetric");
    }

    #[test]
    fn path_routes_through_common_ancestor() {
        let t = Tbon::binary(7);
        assert_eq!(t.path(Rank(3), Rank(3)), vec![Rank(3)], "self-route");
        assert_eq!(t.path(Rank(0), Rank(3)), vec![Rank(0), Rank(1), Rank(3)]);
        assert_eq!(t.path(Rank(3), Rank(0)), vec![Rank(3), Rank(1), Rank(0)]);
        // Leaf to leaf across the tree crosses the root.
        assert_eq!(
            t.path(Rank(3), Rank(6)),
            vec![Rank(3), Rank(1), Rank(0), Rank(2), Rank(6)]
        );
        // Siblings meet at their parent.
        assert_eq!(t.path(Rank(5), Rank(6)), vec![Rank(5), Rank(2), Rank(6)]);
    }

    #[test]
    fn path_length_matches_hops() {
        let t = Tbon::new(31, 3);
        for a in t.ranks() {
            for b in t.ranks() {
                let p = t.path(a, b);
                assert_eq!(p.len() as u32, t.hops(a, b) + 1, "{a} -> {b}: {p:?}");
                assert_eq!(p.first(), Some(&a));
                assert_eq!(p.last(), Some(&b));
            }
        }
    }

    #[test]
    fn subtree_heights() {
        let t = Tbon::binary(7);
        assert_eq!(t.subtree_height(Rank(0)), 2);
        assert_eq!(t.subtree_height(Rank(1)), 1);
        assert_eq!(t.subtree_height(Rank(3)), 0, "leaf");
        // Lopsided tree: 6 brokers, rank 2 has a single child.
        let t = Tbon::binary(6);
        assert_eq!(t.subtree_height(Rank(2)), 1);
        assert_eq!(t.subtree_height(Rank(0)), 2);
    }

    #[test]
    fn single_node_instance() {
        let t = Tbon::binary(1);
        assert_eq!(t.children(Rank(0)), vec![]);
        assert_eq!(t.hops(Rank(0), Rank(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one broker")]
    fn zero_size_rejected() {
        Tbon::binary(0);
    }

    #[test]
    fn detach_reparents_orphans_and_bumps_epoch() {
        let mut t = Tbon::binary(7);
        assert_eq!(t.epoch(), 0);
        let orphans = t.detach(Rank(1));
        assert_eq!(orphans, vec![Rank(3), Rank(4)]);
        assert_eq!(t.epoch(), 1);
        assert!(!t.is_attached(Rank(1)));
        assert_eq!(t.parent(Rank(1)), None);
        assert_eq!(t.children(Rank(0)), vec![Rank(2), Rank(3), Rank(4)]);
        assert_eq!(t.parent(Rank(3)), Some(Rank(0)));
        assert_eq!(t.parent(Rank(4)), Some(Rank(0)));
        // Routes heal: 3 -> 6 no longer crosses the dead rank 1.
        assert_eq!(
            t.path(Rank(3), Rank(6)),
            vec![Rank(3), Rank(0), Rank(2), Rank(6)]
        );
        // The dead rank is unroutable.
        assert!(t.route(Rank(0), Rank(1)).is_none());
        assert!(t.route(Rank(1), Rank(0)).is_none());
        // Idempotent.
        assert_eq!(t.detach(Rank(1)), vec![]);
        assert_eq!(t.epoch(), 1);
    }

    #[test]
    fn detach_leaf_has_no_orphans() {
        let mut t = Tbon::binary(7);
        assert_eq!(t.detach(Rank(6)), vec![]);
        assert_eq!(t.children(Rank(2)), vec![Rank(5)]);
        assert_eq!(t.subtree_height(Rank(2)), 1);
    }

    #[test]
    fn promote_root_migrates_children() {
        let mut t = Tbon::binary(7);
        t.promote_root(Rank(1));
        assert_eq!(t.root(), Rank(1));
        assert!(!t.is_attached(Rank(0)));
        assert_eq!(t.parent(Rank(1)), None);
        // Old root's other child re-attaches under the successor.
        assert_eq!(t.children(Rank(1)), vec![Rank(2), Rank(3), Rank(4)]);
        assert_eq!(t.parent(Rank(2)), Some(Rank(1)));
        // Everything still routes to the new root.
        for r in [2u32, 3, 4, 5, 6] {
            assert!(t.route(Rank(r), t.root()).is_some(), "rank{r}");
        }
        assert_eq!(t.depth(Rank(5)), 2);
    }

    #[test]
    fn promote_root_with_non_child_successor() {
        let mut t = Tbon::binary(7);
        // Kill ranks 1 and 2 first: 3,4,5,6 all become children of 0.
        t.detach(Rank(1));
        t.detach(Rank(2));
        assert_eq!(
            t.children(Rank(0)),
            vec![Rank(3), Rank(4), Rank(5), Rank(6)]
        );
        t.promote_root(Rank(3));
        assert_eq!(t.root(), Rank(3));
        assert_eq!(t.children(Rank(3)), vec![Rank(4), Rank(5), Rank(6)]);
        for r in [4u32, 5, 6] {
            assert!(t.route(Rank(r), Rank(3)).is_some(), "rank{r}");
        }
    }

    #[test]
    fn attach_rejoins_as_leaf() {
        let mut t = Tbon::binary(7);
        t.detach(Rank(1));
        let epoch = t.epoch();
        t.attach(Rank(1), Rank(0));
        assert!(t.is_attached(Rank(1)));
        assert_eq!(t.parent(Rank(1)), Some(Rank(0)));
        // Rejoins as a *leaf*: its former children stay where they healed.
        assert_eq!(t.children(Rank(1)), vec![]);
        assert_eq!(
            t.children(Rank(0)),
            vec![Rank(1), Rank(2), Rank(3), Rank(4)]
        );
        assert!(t.epoch() > epoch);
        assert_eq!(
            t.path(Rank(1), Rank(6)),
            vec![Rank(1), Rank(0), Rank(2), Rank(6)]
        );
    }

    #[test]
    fn route_cache_is_invalidated_by_mutation() {
        let mut t = Tbon::binary(7);
        assert_eq!(t.path(Rank(3), Rank(6)).len(), 5);
        t.detach(Rank(1));
        assert_eq!(t.path(Rank(3), Rank(6)).len(), 4, "stale route evicted");
    }

    #[test]
    fn equality_ignores_route_cache() {
        let a = Tbon::binary(7);
        let b = Tbon::binary(7);
        let _ = a.route(Rank(3), Rank(6)); // warm a's cache only
        assert_eq!(a, b);
    }

    #[test]
    fn ideal_depth_matches_fresh_tree() {
        for fanout in 1..=4u32 {
            for size in 1..=20u32 {
                let t = Tbon::new(size, fanout);
                assert_eq!(
                    Tbon::ideal_depth(size, fanout),
                    t.max_depth(),
                    "size {size} fanout {fanout}"
                );
            }
        }
    }

    #[test]
    fn rebalance_restores_fresh_shape_after_churn() {
        // 50 fail/recover cycles on interior ranks: every recovery
        // rejoins as a leaf, flattening the tree under the root.
        let mut t = Tbon::binary(15);
        for cycle in 0..50u32 {
            let victim = Rank(1 + (cycle % 7));
            if victim == t.root() || !t.is_attached(victim) {
                continue;
            }
            t.detach(victim);
            t.attach(victim, t.root());
        }
        assert!(!t.is_balanced(), "churn flattens the tree");
        let epoch = t.epoch();
        assert!(t.rebalance());
        assert!(t.epoch() > epoch, "re-balance is epoch-bumped");
        assert!(t.is_balanced());
        // Within 1 of (here: equal to) the fresh k-ary depth.
        assert_eq!(t.max_depth(), Tbon::ideal_depth(15, 2));
        // All 15 ranks still reachable and acyclic (depth terminates).
        for r in t.ranks() {
            assert!(t.route(r, t.root()).is_some(), "{r}");
            assert!(t.depth(r) <= t.max_depth());
        }
        // Idempotent: a balanced tree is untouched (no epoch churn).
        let epoch = t.epoch();
        assert!(!t.rebalance());
        assert_eq!(t.epoch(), epoch);
    }

    #[test]
    fn rebalance_over_partial_membership_keeps_root() {
        let mut t = Tbon::binary(9);
        t.detach(Rank(3));
        t.detach(Rank(5));
        t.promote_root(Rank(1));
        t.rebalance();
        assert_eq!(t.root(), Rank(1), "re-balance never moves the root");
        assert_eq!(t.attached().count(), 6);
        for r in t.attached() {
            assert!(t.route(r, t.root()).is_some());
        }
        assert!(!t.is_attached(Rank(3)));
        assert!(!t.is_attached(Rank(5)));
        assert!(t.is_balanced());
        // Detached ranks stay fully detached: no parent, no children.
        assert_eq!(t.parent(Rank(3)), None);
        assert_eq!(t.children(Rank(3)), vec![]);
    }

    /// One topology mutation, as a property draw picks it: `kind`
    /// chooses among detach, attach, root promotion, re-balance and a
    /// subtree re-parent, applied only where its preconditions hold.
    fn mutate(t: &mut Tbon, kind: u32, a: Rank, b: Rank) {
        match kind {
            0 if a != t.root() => {
                t.detach(a);
            }
            1 if !t.is_attached(a) && t.is_attached(b) => t.attach(a, b),
            2 if a != t.root() && t.is_attached(a) => t.promote_root(a),
            3 => {
                t.rebalance();
            }
            4 => {
                t.reattach(a, b);
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every route the memo answers — a miss that walks, a hit, the
        /// root at either end or at neither, `None` included — is the
        /// parent walk's route under the current topology, through any
        /// sequence of mutations; and a route taken before a mutation
        /// keeps its ranks after it.
        #[test]
        fn memo_matches_the_parent_walk(
            size in 1u32..65,
            fanout in 1u32..5,
            ops in prop::collection::vec((0u32..5, 0u32..64, 0u32..64), 0..24),
        ) {
            let mut t = Tbon::new(size, fanout);
            let mut taken: Vec<(Rc<[Rank]>, Vec<Rank>)> = Vec::new();
            for step in 0..=ops.len() {
                if let Some(&(kind, a, b)) = step.checked_sub(1).and_then(|i| ops.get(i)) {
                    mutate(&mut t, kind, Rank(a % size), Rank(b % size));
                }
                for (route, ranks) in &taken {
                    prop_assert_eq!(&route[..], &ranks[..], "a route in flight changed");
                }
                taken.clear();
                for from in t.ranks() {
                    for to in t.ranks() {
                        let walked: Option<Vec<Rank>> =
                            t.route_walk(from, to).map(Iterator::collect);
                        let first = t.route(from, to);
                        let again = t.route(from, to);
                        prop_assert_eq!(first.as_deref(), walked.as_deref(), "{} -> {} at step {}", from, to, step);
                        prop_assert_eq!(again.as_deref(), walked.as_deref(), "{} -> {} at step {}", from, to, step);
                        if let Some(route) = again {
                            let ranks = route.to_vec();
                            taken.push((route, ranks));
                        }
                    }
                }
            }
        }
    }
}
