//! Subtree-sharded execution of the overlay: the partitioner that cuts
//! the TBON into per-thread shards, and the canonical record stream the
//! shards emit and merge. The world that runs on the shards is
//! [`crate::world_shard`]; the window coordinator underneath is
//! [`fluxpm_sim::ShardedEngine`].
//!
//! # Partitioning
//!
//! A TBON of `size` ranks with fanout `f` is cut at the shallowest
//! depth `d` whose subtree roots number at least the requested shard
//! count. Every rank strictly above the cut (the root region) lands in
//! shard 0; each subtree rooted at depth `d` is assigned — whole — to a
//! shard in rank order, so shards own contiguous subtree blocks and
//! cross-shard traffic only flows across the cut edges. Because every
//! cut edge is a tree link, a boundary message always pays at least one
//! hop of latency ([`Tbon::DEFAULT_HOP_LATENCY_US`]) — which is exactly
//! the conservative lookahead the coordinator synchronizes on.
//!
//! # Records
//!
//! A [`ShardRecord`]'s sort key is its full content, with no per-shard
//! sequence number, so as long as the *multiset* of records a run emits
//! is invariant under partitioning (the sharded world's job — see
//! [`crate::world_shard`]), [`merge_records`] produces one canonical
//! trace whatever the shard count.

use crate::tbon::{Rank, Tbon};

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

/// The assignment of every TBON rank to a shard: the tree is cut at
/// `cut_depth` and each depth-`cut_depth` subtree goes wholly to one
/// shard (the root region above the cut belongs to shard 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    cut_depth: u32,
    fanout: u32,
    owner: Vec<u16>,
}

impl ShardPlan {
    /// Partition the canonical `size`-rank, fanout-`f` k-ary tree into
    /// `shards` shards. `shards` is clamped to the number of available
    /// subtrees (a 1-rank tree can only ever be one shard).
    pub fn partition(size: u32, fanout: u32, shards: usize) -> ShardPlan {
        assert!(size > 0, "empty tree");
        assert!(fanout > 0, "fanout must be positive");
        assert!(shards > 0, "at least one shard");
        assert!(shards <= u16::MAX as usize, "shard count fits in u16");
        let depth = |mut r: u32| {
            let mut d = 0;
            while r != 0 {
                r = (r - 1) / fanout;
                d += 1;
            }
            d
        };
        // Shallowest cut with enough subtrees for the requested shard
        // count (bounded by the deepest level of the tree).
        let max_depth = depth(size - 1);
        let mut cut_depth = 0;
        let mut cut_roots: Vec<u32> = vec![0];
        while cut_roots.len() < shards && cut_depth < max_depth {
            cut_depth += 1;
            cut_roots = (0..size).filter(|&r| depth(r) == cut_depth).collect();
        }
        let shards = shards.min(cut_roots.len().max(1));
        // Contiguous, balanced blocks of subtree roots per shard, in
        // rank order — every shard gets at least one subtree.
        let mut owner = vec![0u16; size as usize];
        for (i, &root) in cut_roots.iter().enumerate() {
            let shard = (i * shards / cut_roots.len()) as u16;
            owner[root as usize] = shard;
        }
        // Every rank inherits the owner of its ancestor at the cut;
        // ranks above the cut stay in shard 0. Parents precede children
        // in rank order, so one forward pass resolves the whole tree.
        for r in 1..size {
            let d = depth(r);
            if d > cut_depth {
                owner[r as usize] = owner[((r - 1) / fanout) as usize];
            } else if d < cut_depth {
                owner[r as usize] = 0;
            }
        }
        ShardPlan {
            shards,
            cut_depth,
            fanout,
            owner,
        }
    }

    /// Partition an existing overlay's canonical shape. (Sharding uses
    /// the original k-ary indexing; a storm-healed topology re-balances
    /// back to that shape.)
    pub fn for_tbon(tbon: &Tbon, shards: usize) -> ShardPlan {
        ShardPlan::partition(tbon.size(), tbon.fanout(), shards)
    }

    /// Number of shards actually produced (≤ requested).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Depth at which the tree was cut.
    pub fn cut_depth(&self) -> u32 {
        self.cut_depth
    }

    /// The shard owning `rank`'s state and events.
    pub fn owner(&self, rank: Rank) -> usize {
        self.owner[rank.index()] as usize
    }

    /// Number of ranks owned by `shard`.
    pub fn ranks_of(&self, shard: usize) -> usize {
        self.owner.iter().filter(|&&o| o as usize == shard).count()
    }

    /// Number of tree edges crossing shard boundaries (the boundary
    /// mailbox's fan-in).
    pub fn cut_edges(&self) -> usize {
        (1..self.owner.len() as u32)
            .filter(|&r| self.owner[r as usize] != self.owner[((r - 1) / self.fanout) as usize])
            .count()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Record codes for [`ShardRecord`]. The values are hashed into every
/// committed record fingerprint, so they are never renumbered.
pub mod rec {
    /// Full-fidelity world: a node agent's periodic power sample
    /// (a = buffered record count, b = node draw in milliwatts).
    pub const POWER_SAMPLE: u8 = 9;
    /// Full-fidelity world: a node-level manager applied a node power
    /// limit (a = limit in milliwatts, b = derived per-GPU cap in
    /// milliwatts).
    pub const NODE_LIMIT: u8 = 10;
    /// Full-fidelity world: the cluster manager set a job's limit
    /// (a = job id, b = limit in milliwatts).
    pub const JOB_LIMIT: u8 = 11;
    /// Full-fidelity world: the monitor root folded a subtree
    /// aggregation (a = reporting nodes, b = subtree power in
    /// milliwatts).
    pub const ROOT_AGG: u8 = 12;
    /// Full-fidelity world: job lifecycle on the root shard
    /// (a = job id, b = 0 submit / 1 start / 2 complete / 3 failed).
    pub const JOB_EVENT: u8 = 13;
    /// Full-fidelity world: a telemetry relay delivered one delta into
    /// a local subscriber queue (a = subscriber id, b = delta seq).
    pub const RELAY_DELIVER: u8 = 14;
}

/// One entry of a sharded run's event stream. The tuple of all
/// fields is the record's identity *and* its canonical sort key — no
/// per-shard sequence numbers, so the merged stream is independent of
/// how ranks were partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardRecord {
    /// Virtual emission time, microseconds.
    pub at_us: u64,
    /// Emitting rank.
    pub rank: u32,
    /// Record code (see [`rec`]).
    pub code: u8,
    /// Code-specific payload.
    pub a: u64,
    /// Code-specific payload.
    pub b: u64,
}

/// Merge per-shard record streams into the canonical global trace:
/// ordered by the full record key, so the result depends only on the
/// multiset of records — not on the shard count that produced them.
///
/// Each input run must already be sorted by the full [`ShardRecord`]
/// key (shards sort their own — mostly-ordered — runs in `finish()`,
/// in parallel); the merge is then a k-way heap merge over the run
/// heads, O(n log k) instead of re-sorting the concatenation. Run
/// sortedness is asserted in debug builds.
pub fn merge_records(streams: Vec<Vec<ShardRecord>>) -> Vec<ShardRecord> {
    for (shard, s) in streams.iter().enumerate() {
        debug_assert!(
            s.windows(2).all(|w| w[0] <= w[1]),
            "shard {shard}'s record run is not sorted by the full record key"
        );
    }
    let mut runs: Vec<std::vec::IntoIter<ShardRecord>> = streams
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(Vec::into_iter)
        .collect();
    // Trivial shapes skip the heap entirely (the shards=1 baseline
    // pays nothing for the merge machinery).
    if runs.len() <= 1 {
        return runs.pop().map_or_else(Vec::new, Iterator::collect);
    }
    let total: usize = runs.iter().map(ExactSizeIterator::len).sum();
    let mut out = Vec::with_capacity(total);
    // Seed one head per run; ties between runs break toward the lower
    // run index, which keeps the merge fully deterministic even for
    // identical records emitted by different shards.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(ShardRecord, usize)>> = runs
        .iter_mut()
        .enumerate()
        .filter_map(|(i, run)| Some(std::cmp::Reverse((run.next()?, i))))
        .collect();
    while let Some(std::cmp::Reverse((r, i))) = heap.pop() {
        out.push(r);
        if let Some(next) = runs[i].next() {
            heap.push(std::cmp::Reverse((next, i)));
        }
    }
    out
}

/// FNV-1a over a record stream — the compact fingerprint compared
/// across shard counts.
pub fn records_hash(records: &[ShardRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        fold(r.at_us);
        fold(r.rank as u64);
        fold(r.code as u64);
        fold(r.a);
        fold(r.b);
    }
    h
}

/// Where two streams part: the first index at which they differ, the
/// shared items just before it, and the item each stream holds there
/// (`None` where a stream has already ended). The items are records by
/// default; a golden check compares lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence<'a, T = ShardRecord> {
    /// The first differing index.
    pub index: usize,
    /// Up to three shared items before `index`, oldest first.
    pub context: &'a [T],
    /// The left stream's item at `index`.
    pub left: Option<&'a T>,
    /// The right stream's item at `index`.
    pub right: Option<&'a T>,
}

impl<T: std::fmt::Debug> std::fmt::Display for Divergence<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "streams diverge at index {}", self.index)?;
        for r in self.context {
            writeln!(f, "    {r:?}")?;
        }
        writeln!(f, "  - {:?}", self.left)?;
        write!(f, "  + {:?}", self.right)
    }
}

/// The first place `left` and `right` differ, or `None` when they are
/// equal. A stream that is a strict prefix of the other diverges where
/// it ends.
pub fn first_divergence<'a, T: PartialEq>(
    left: &'a [T],
    right: &'a [T],
) -> Option<Divergence<'a, T>> {
    let index = left
        .iter()
        .zip(right)
        .position(|(l, r)| l != r)
        .or_else(|| (left.len() != right.len()).then(|| left.len().min(right.len())))?;
    Some(Divergence {
        index,
        context: &left[index.saturating_sub(3)..index],
        left: left.get(index),
        right: right.get(index),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_divergence_names_the_index_its_context_and_both_records() {
        let mk = |at: u64, a: u64| ShardRecord {
            at_us: at,
            rank: 1,
            code: rec::POWER_SAMPLE,
            a,
            b: 0,
        };
        let left: Vec<ShardRecord> = (0..6).map(|i| mk(i, 0)).collect();
        assert_eq!(first_divergence(&left, &left), None);
        let mut right = left.clone();
        right[4].a = 9;
        let d = first_divergence(&left, &right).expect("streams differ");
        assert_eq!(d.index, 4);
        assert_eq!(d.context, &left[1..4]);
        assert_eq!((d.left, d.right), (Some(&left[4]), Some(&right[4])));
        assert!(d.to_string().contains("diverge at index 4"));
        // A shorter stream diverges where it ends, with what context it has.
        let d = first_divergence(&left[..1], &left).expect("lengths differ");
        assert_eq!((d.index, d.context), (1, &left[..1]));
        assert_eq!((d.left, d.right), (None, Some(&left[1])));
    }

    #[test]
    fn plan_covers_every_rank_exactly_once() {
        for &(size, fanout, shards) in &[
            (1u32, 2u32, 1usize),
            (7, 2, 2),
            (31, 2, 4),
            (100, 3, 8),
            (129, 16, 8),
        ] {
            let plan = ShardPlan::partition(size, fanout, shards);
            assert!(plan.shards() >= 1 && plan.shards() <= shards);
            let total: usize = (0..plan.shards()).map(|s| plan.ranks_of(s)).sum();
            assert_eq!(total, size as usize, "{size}/{fanout}/{shards}");
            // The root region is shard 0's.
            assert_eq!(plan.owner(Rank::ROOT), 0);
        }
    }

    #[test]
    fn subtrees_stay_whole() {
        let fanout = 3;
        let plan = ShardPlan::partition(200, fanout, 6);
        // Below the cut, every rank lives with its parent.
        for r in 1..200u32 {
            let depth = {
                let mut d = 0;
                let mut x = r;
                while x != 0 {
                    x = (x - 1) / fanout;
                    d += 1;
                }
                d
            };
            if depth > plan.cut_depth() {
                assert_eq!(
                    plan.owner(Rank(r)),
                    plan.owner(Rank((r - 1) / fanout)),
                    "rank {r} split from its subtree"
                );
            }
        }
        assert!(plan.cut_edges() > 0);
    }

    #[test]
    fn one_shard_has_no_cut() {
        let plan = ShardPlan::partition(64, 2, 1);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.cut_edges(), 0);
        assert_eq!(plan.cut_depth(), 0);
    }

    #[test]
    fn merge_records_matches_full_sort_and_keeps_duplicates() {
        let mk = |at: u64, rank: u32, a: u64| ShardRecord {
            at_us: at,
            rank,
            code: rec::POWER_SAMPLE,
            a,
            b: 0,
        };
        let runs = vec![
            vec![mk(1, 0, 1), mk(3, 2, 1), mk(3, 2, 1)],
            vec![],
            vec![mk(1, 1, 9), mk(2, 0, 4)],
            vec![mk(3, 2, 1)],
        ];
        let mut flat: Vec<ShardRecord> = runs.iter().flatten().copied().collect();
        flat.sort_unstable();
        let merged = merge_records(runs);
        assert_eq!(merged, flat);
        // Identical records from different shards all survive the merge.
        assert_eq!(merged.iter().filter(|r| r.at_us == 3).count(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not sorted")]
    fn merge_records_rejects_unsorted_runs_in_debug() {
        let mk = |at: u64| ShardRecord {
            at_us: at,
            rank: 0,
            code: rec::POWER_SAMPLE,
            a: 0,
            b: 0,
        };
        let _ = merge_records(vec![vec![mk(5), mk(1)], vec![mk(2)]]);
    }
}
