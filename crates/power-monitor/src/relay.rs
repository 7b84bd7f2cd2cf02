//! TBON-distributed telemetry fan-out: per-broker relays.
//!
//! A root-local hub pays O(subscribers) work *and egress* per published
//! delta — a scaling wall on the road to millions of clients. This
//! module distributes the subscription plane down the TBON, the same
//! way the paper distributes monitoring up it: no single broker touches
//! every consumer.
//!
//! Every broker hosts a [`TelemetryRelay`] that
//!
//! * **serves the subscription API locally** — a client subscribes,
//!   polls, and unsubscribes against the rank it attaches to; the
//!   subscriber queue (bounded, shed-oldest, slow-consumer eviction —
//!   the hub's exact semantics) lives on that broker;
//! * **aggregates filters upward** — the union of its local
//!   subscribers' filters and its children's aggregates is advertised
//!   up its TBON edge as one [`AggregateFilter`], so each tree edge
//!   carries only deltas some descendant actually wants;
//! * **coalesces deltas downward** — deltas destined for one edge are
//!   batched into a single wire message per flush ([`RelayPlane`]), and
//!   under backpressure a full batch collapses to latest-per-node
//!   (per kind), preserving the hub's shed-oldest, state-update
//!   semantics.
//!
//! The root therefore publishes each delta **once per interested child
//! edge** — O(TBON fanout) — instead of once per subscriber. The
//! authority (sequence assignment, latest-per-node snapshots, seed
//! source) is the [`RootAgent`]'s sequencer, which is a root service and
//! so survives root failover with its state; the relays are per-rank
//! modules that rebuild the filter lattice after every topology change
//! via [`Module::on_topology_change`].
//!
//! A batch is built once **for the tree**, not once per edge: a relay
//! whose edge staged exactly the batch it was just handed, under the
//! same cumulative `shed`, sends the payload that batch arrived in, and
//! sibling edges share the first batch built — so a delta published
//! through match-everything edges is one slice and one payload however
//! many edges it crosses ([`RelayPlane::flush_with`] has the rule and
//! what falls back to building).
//!
//! The root rank's relay is a relay like any other: the co-located
//! agent hands it each stamped delta through the same `ingest` that
//! takes a batch off the wire. It differs only where the tree ends — it
//! has no parent to climb to, so it asks the agent for the seed — and
//! in when it flushes.
//!
//! ## One flush per simulated instant
//!
//! A batch off the wire is forwarded before `ingest` returns. What the
//! root agent hands over goes into the local subscribers' queues at
//! once, but on the child edges it is only staged: the first hand-off
//! of an instant arms a wake ([`World::wake_module`]) queued behind
//! every event already pending for that instant, and the wake flushes
//! the plane. The deltas of every push that lands in one instant
//! therefore cross each edge as one batch, and a coalesced batch stays
//! one message per edge all the way down, since every later hop passes
//! on what it was handed. A batch still leaves in the instant its
//! deltas were published. Two rules keep this exact: the root flushes
//! before an edge batch would reach [`crate::DEFAULT_RELAY_BATCH_CAPACITY`]
//! (a large instant is split, never coalesced or shed), and before it
//! takes a seed from the agent (below). In a sharded replica the
//! instant's keyed deliveries run after its plain events, so a wake
//! armed by one of them runs before the rest and batches less; the
//! stream is the same at every shard count.
//!
//! [`World::wake_module`]: fluxpm_flux::World::wake_module
//!
//! ## Gap-free subscription hand-off
//!
//! A subscription registered at a non-root relay climbs to the root as
//! a [`RelaySubscribeRequest`]: every hop merges the filter into the
//! child edge's aggregate *before* forwarding, so by the time the root
//! snapshots its latest maps (at horizon `H` = its next sequence
//! number), every edge on the path already carries matching deltas.
//! The origin relay seeds the new subscriber from the returned snapshot
//! and floors its stream at `H`: a delta covered by the seed is never
//! also delivered from the stream (no duplicates), and every delta
//! published after the snapshot flows down the widened edges (no gaps).
//! The root flushes what it has staged before it takes the seed, and
//! every other relay forwards a batch before its `ingest` returns, so
//! everything below `H` leaves the root ahead of the seed and is passed
//! on as soon as it reaches a relay — which lets the origin's ingest
//! high-water mark jump to `H` without cutting into an earlier
//! subscriber's stream.

use crate::proto::{
    DeltaBatch, MonitorReply, MonitorRequest, PollRequest, RelayAdvert, RelayDeltaBatch,
    RelaySeedReply, RelaySubscribeRequest, SubscribeRequest, UnsubscribeRequest,
};
use crate::root_agent::{RootAgent, ROOT_AGENT};
use crate::subscription::{
    SubscriptionConfig, SubscriptionFilter, TelemetryDelta, TelemetryHub, TOPIC_POLL,
    TOPIC_SUBSCRIBE, TOPIC_UNSUBSCRIBE,
};
use fluxpm_flux::{Message, Module, ModuleCtx, MsgKind, Payload, Protocol, Rank, Topic};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Module name of the per-broker relay.
pub const RELAY: &str = "power-monitor-relay";

/// Overlay topic: relay → parent relay, a climbing subscription.
pub const TOPIC_RELAY_SUBSCRIBE: &str = "power-monitor.relay-subscribe";
/// Overlay topic: root relay → origin relay, the seed snapshot.
pub const TOPIC_RELAY_SEED: &str = "power-monitor.relay-seed";
/// Overlay topic: relay → parent relay, authoritative aggregate
/// replacement.
pub const TOPIC_RELAY_ADVERT: &str = "power-monitor.relay-advert";
/// Overlay topic: parent relay → child relay, a coalesced delta batch.
pub const TOPIC_RELAY_DELTAS: &str = "power-monitor.relay-deltas";

/// Aggregate terms beyond this collapse to match-everything: past a few
/// dozen distinct subtree interests, evaluating the union per delta
/// costs more than just forwarding the stream.
pub const MAX_AGGREGATE_TERMS: usize = 16;

// ---------------------------------------------------------------------------
// Aggregate filter lattice
// ---------------------------------------------------------------------------

/// The union of a subtree's subscription filters, advertised up one
/// TBON edge. Terms are cadence-free [`SubscriptionFilter`]s (cadence
/// floors are per-subscriber and applied at the serving relay; the
/// aggregate must stay conservative, i.e. only ever *widen* what a
/// member filter matches). The lattice is a join-semilattice under
/// [`union`](AggregateFilter::union), with the empty aggregate as
/// bottom and match-everything as top; exceeding
/// [`MAX_AGGREGATE_TERMS`] jumps to top.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggregateFilter {
    all: bool,
    terms: Vec<SubscriptionFilter>,
}

impl AggregateFilter {
    /// Bottom: matches nothing (an edge with no interested subtree).
    pub fn empty() -> AggregateFilter {
        AggregateFilter::default()
    }

    /// Top: matches everything.
    pub fn everything() -> AggregateFilter {
        AggregateFilter {
            all: true,
            terms: Vec::new(),
        }
    }

    /// Whether no delta can match (the edge carries nothing).
    pub fn is_empty(&self) -> bool {
        !self.all && self.terms.is_empty()
    }

    /// Whether every delta matches.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Number of distinct terms (0 when collapsed to top or bottom).
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Widen by one member filter. The cadence floor is dropped (it
    /// never narrows *which* deltas match, only how often one consumer
    /// sees them) and node sets are normalized so equal interests
    /// dedupe regardless of spelling order.
    pub fn insert(&mut self, filter: &SubscriptionFilter) {
        if self.all {
            return;
        }
        let mut term = filter.clone();
        term.min_interval_us = 0;
        if let Some(nodes) = &mut term.nodes {
            nodes.sort_unstable();
            nodes.dedup();
        }
        if term.job.is_none() && term.nodes.is_none() {
            *self = AggregateFilter::everything();
            return;
        }
        if !self.terms.contains(&term) {
            self.terms.push(term);
        }
        if self.terms.len() > MAX_AGGREGATE_TERMS {
            *self = AggregateFilter::everything();
        }
    }

    /// Widen by another aggregate (lattice join).
    pub fn union(&mut self, other: &AggregateFilter) {
        if other.all {
            *self = AggregateFilter::everything();
            return;
        }
        for term in &other.terms {
            self.insert(term);
        }
    }

    /// Whether some term matches the delta — i.e. some descendant
    /// subscriber may want it, so the edge must carry it.
    pub fn matches(&self, delta: &TelemetryDelta) -> bool {
        self.all || self.terms.iter().any(|t| t.matches(delta))
    }
}

// ---------------------------------------------------------------------------
// Per-edge batching and coalescing
// ---------------------------------------------------------------------------

/// What a full batch coalesces on: one survivor per (node, is-link).
type DeltaKey = (u32, bool);

fn delta_key(delta: &TelemetryDelta) -> DeltaKey {
    (delta.node, delta.link.is_some())
}

/// One edge's pending downstream batch.
#[derive(Debug, Default)]
struct EdgeBatch {
    deltas: VecDeque<Arc<TelemetryDelta>>,
    /// Deltas coalesced or shed on this edge so far (cumulative,
    /// reported in every [`RelayDeltaBatch`]).
    shed: u64,
    /// The keys of `deltas` while they are known to be pairwise
    /// distinct: set by a coalesce that found nothing to merge, kept
    /// current as the oldest is shed and new deltas are staged, dropped
    /// when a staged delta repeats a key or the batch is flushed. While
    /// it is `Some`, a full batch has nothing to coalesce, so sustained
    /// backpressure costs O(1) per delta instead of a pass over the
    /// batch.
    distinct: Option<HashSet<DeltaKey>>,
}

impl EdgeBatch {
    /// Stage one delta; at `cap` first coalesce, then shed the oldest.
    fn stage(&mut self, delta: &Arc<TelemetryDelta>, cap: usize) {
        if self.deltas.len() >= cap && self.distinct.is_none() {
            let (merged, keys) = coalesce(&mut self.deltas);
            self.shed += merged;
            if merged == 0 {
                self.distinct = Some(keys);
            }
        }
        if self.deltas.len() >= cap {
            // invariant: `RelayPlane::new` clamps `cap` to at least 1, so
            // a batch at `cap` is non-empty.
            let oldest = self.deltas.pop_front().expect("cap >= 1");
            if let Some(keys) = &mut self.distinct {
                keys.remove(&delta_key(&oldest));
            }
            self.shed += 1;
        }
        if let Some(keys) = &mut self.distinct {
            if !keys.insert(delta_key(delta)) {
                self.distinct = None;
            }
        }
        self.deltas.push_back(Arc::clone(delta));
    }

    /// Whether what is staged here *is* `sent`: the same deltas — the
    /// same allocations, one for one, not equal values — under the same
    /// cumulative `shed`, so that sending `sent` again says exactly what
    /// a batch built from this edge would.
    fn is(&self, sent: &RelayDeltaBatch) -> bool {
        self.shed == sent.shed
            && self.deltas.len() == sent.deltas.len()
            && self
                .deltas
                .iter()
                .zip(&sent.deltas)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

/// Collapse a full batch to the latest delta per (node, kind), keeping
/// sequence order among survivors. Returns how many were coalesced
/// away, and the survivors' keys. This is the edge-level analogue of
/// the hub's latest-per-node snapshot: under backpressure, consumers
/// get *state updates*, not a replayed firehose.
fn coalesce(deltas: &mut VecDeque<Arc<TelemetryDelta>>) -> (u64, HashSet<DeltaKey>) {
    let before = deltas.len();
    let mut seen = HashSet::with_capacity(before);
    let mut keep = vec![false; before];
    for (i, d) in deltas.iter().enumerate().rev() {
        if seen.insert(delta_key(d)) {
            keep[i] = true;
        }
    }
    let mut idx = 0;
    deltas.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    ((before - deltas.len()) as u64, seen)
}

/// One child edge: what its subtree wants, and what is staged for it.
#[derive(Debug, Default)]
struct Edge {
    aggregate: AggregateFilter,
    batch: EdgeBatch,
}

/// The downstream fan-out half of a relay: one aggregate filter and one
/// pending batch per child edge. Pure (no simulation types beyond rank
/// numbers), so the broker relays and stackbench's `RelayTree` rig
/// drive the same code.
#[derive(Debug, Default)]
pub struct RelayPlane {
    edges: BTreeMap<u32, Edge>,
    /// Where a flushed batch is lined up before its one allocation (a
    /// `Vec` drain knows its length, so the shared slice is built in
    /// place); kept so a flush allocates nothing else.
    lineup: Vec<Arc<TelemetryDelta>>,
    batch_capacity: usize,
    egress_msgs: u64,
    egress_deltas: u64,
    offered: u64,
}

impl RelayPlane {
    /// An empty plane; a full pending batch coalesces, then sheds
    /// oldest, at `batch_capacity`.
    pub fn new(batch_capacity: usize) -> RelayPlane {
        RelayPlane {
            batch_capacity: batch_capacity.max(1),
            ..RelayPlane::default()
        }
    }

    /// Authoritatively replace one child edge's aggregate (an empty
    /// aggregate removes the edge — and its pending batch — entirely).
    pub fn set_child(&mut self, child: u32, aggregate: AggregateFilter) {
        if aggregate.is_empty() {
            self.edges.remove(&child);
        } else {
            self.edges.entry(child).or_default().aggregate = aggregate;
        }
    }

    /// Widen one child edge by a climbing subscription's filter.
    pub fn merge_child(&mut self, child: u32, filter: &SubscriptionFilter) {
        self.edges
            .entry(child)
            .or_default()
            .aggregate
            .insert(filter);
    }

    /// Drop edges whose child rank no longer satisfies `keep` (after a
    /// topology change re-parented them elsewhere). Their pending
    /// batches are dropped too — the child's new parent serves it now.
    pub fn retain_children(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.edges.retain(|&c, _| keep(c));
    }

    /// The current child edges and their aggregates.
    pub fn children(&self) -> impl Iterator<Item = (u32, &AggregateFilter)> {
        self.edges.iter().map(|(&c, e)| (c, &e.aggregate))
    }

    /// The union of every child edge's aggregate — what this relay
    /// contributes upward on behalf of its subtree.
    pub fn aggregate(&self) -> AggregateFilter {
        let mut agg = AggregateFilter::empty();
        for e in self.edges.values() {
            agg.union(&e.aggregate);
        }
        agg
    }

    /// Stage one delta on every interested edge. A full edge batch
    /// first coalesces to latest-per-(node, kind); if every entry is
    /// for a distinct key the oldest is shed instead.
    pub fn offer(&mut self, delta: &Arc<TelemetryDelta>) {
        self.offered += 1;
        let cap = self.batch_capacity;
        for edge in self.edges.values_mut() {
            if edge.aggregate.matches(delta) {
                edge.batch.stage(delta, cap);
            }
        }
    }

    /// Drain every non-empty edge batch into `send`, in child order: one
    /// wire message per edge per flush, regardless of how many
    /// subscribers sit below it. `W` is the form a batch travels in (a
    /// relay's wire payload; the batch itself for a caller that inspects
    /// it) and `wrap` builds it.
    ///
    /// **A batch is built once for the tree.** The flush remembers the
    /// last batch it sent — to begin with `arrived`, the batch this
    /// relay was handed and the `W` it came in — and an edge that staged
    /// exactly that batch (the same deltas, [`Arc::ptr_eq`] one for one,
    /// and the same cumulative `shed`) is sent that `W` again: a
    /// reference-count bump. Any other edge — a narrower aggregate, a
    /// delta skipped or left over, a coalesce or a shed, a different
    /// `shed` — costs one allocation for its shared slice plus whatever
    /// `wrap` allocates, and becomes the remembered one, so sibling
    /// edges share with each other too. The edges keep their buffers.
    pub fn flush_with<W: Clone>(
        &mut self,
        arrived: Option<(&RelayDeltaBatch, &W)>,
        mut wrap: impl FnMut(RelayDeltaBatch) -> W,
        mut send: impl FnMut(u32, W),
    ) {
        let mut built: Option<(RelayDeltaBatch, W)> = None;
        for (&child, edge) in self.edges.iter_mut() {
            let staged = &mut edge.batch;
            if staged.deltas.is_empty() {
                continue;
            }
            staged.distinct = None;
            self.egress_msgs += 1;
            self.egress_deltas += staged.deltas.len() as u64;
            let last = built.as_ref().map(|(batch, wire)| (batch, wire));
            let wire = match last.or(arrived).filter(|(sent, _)| staged.is(sent)) {
                Some((_, wire)) => {
                    staged.deltas.clear();
                    wire.clone()
                }
                None => {
                    self.lineup.extend(staged.deltas.drain(..));
                    let batch = RelayDeltaBatch {
                        deltas: self.lineup.drain(..).collect(),
                        shed: staged.shed,
                    };
                    let wire = wrap(batch.clone());
                    built = Some((batch, wire.clone()));
                    wire
                }
            };
            send(child, wire);
        }
    }

    /// Whether some edge has a delta staged.
    pub(crate) fn is_staged(&self) -> bool {
        self.edges.values().any(|e| !e.batch.deltas.is_empty())
    }

    /// Whether some edge's batch is at the capacity, so that staging one
    /// more delta there would coalesce or shed.
    pub(crate) fn is_full(&self) -> bool {
        let cap = self.batch_capacity;
        self.edges.values().any(|e| e.batch.deltas.len() >= cap)
    }

    /// [`RelayPlane::flush_with`] collected into a vector, for callers
    /// that inspect the batches rather than send them.
    pub fn flush(&mut self) -> Vec<(u32, RelayDeltaBatch)> {
        let mut out = Vec::new();
        self.flush_with(None, |batch| batch, |child, batch| out.push((child, batch)));
        out
    }

    /// Wire messages sent downstream so far.
    pub fn egress_msgs(&self) -> u64 {
        self.egress_msgs
    }

    /// Deltas carried by those messages.
    pub fn egress_deltas(&self) -> u64 {
        self.egress_deltas
    }

    /// Deltas offered to this plane so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }
}

// ---------------------------------------------------------------------------
// The broker-resident relay module
// ---------------------------------------------------------------------------

/// The per-broker relay. See the module docs for the architecture; in
/// short: local subscriber queues in [`TelemetryHub`], downstream
/// fan-out in [`RelayPlane`], and an upward [`AggregateFilter`] advert
/// kept current across unsubscribes, evictions, and topology changes.
pub struct TelemetryRelay {
    topics: RelayTopics,
    hub: TelemetryHub,
    plane: RelayPlane,
    /// Client subscribes parked until the root's seed arrives, by
    /// climb token.
    pending_subs: BTreeMap<u64, (Message, SubscriptionFilter)>,
    next_token: u64,
    /// The aggregate last advertised upward (`None` forces the next
    /// advert, e.g. after a re-parent put a new relay above us).
    advertised: Option<AggregateFilter>,
    /// Monotonic ingest high-water mark: sequence numbers below this
    /// were already ingested here. Normal tree flow is strictly
    /// increasing per edge; the guard only fires when re-parenting
    /// races an in-flight batch from the *old* parent, where
    /// latest-state semantics make dropping the stale copy correct
    /// (and duplicate-free). A seed raises it to its horizon.
    next_ingest: u64,
    /// Whether the end-of-instant flush of staged hand-offs is armed.
    flush_armed: bool,
}

/// Module-timer tag of the end-of-instant flush.
const TIMER_FLUSH: u64 = 0;

/// The relay's topics, interned once when the relay is built: the seven
/// it serves, four of which it also sends on.
struct RelayTopics {
    subscribe: Topic,
    unsubscribe: Topic,
    poll: Topic,
    relay_subscribe: Topic,
    relay_seed: Topic,
    relay_advert: Topic,
    relay_deltas: Topic,
}

impl RelayTopics {
    fn intern() -> RelayTopics {
        RelayTopics {
            subscribe: Topic::intern(TOPIC_SUBSCRIBE),
            unsubscribe: Topic::intern(TOPIC_UNSUBSCRIBE),
            poll: Topic::intern(TOPIC_POLL),
            relay_subscribe: Topic::intern(TOPIC_RELAY_SUBSCRIBE),
            relay_seed: Topic::intern(TOPIC_RELAY_SEED),
            relay_advert: Topic::intern(TOPIC_RELAY_ADVERT),
            relay_deltas: Topic::intern(TOPIC_RELAY_DELTAS),
        }
    }
}

impl TelemetryRelay {
    /// A relay with the given subscriber bounds.
    pub fn new(subs: SubscriptionConfig) -> TelemetryRelay {
        TelemetryRelay {
            topics: RelayTopics::intern(),
            hub: TelemetryHub::new(subs),
            plane: RelayPlane::new(crate::DEFAULT_RELAY_BATCH_CAPACITY),
            pending_subs: BTreeMap::new(),
            next_token: 1,
            advertised: None,
            next_ingest: 0,
            flush_armed: false,
        }
    }

    /// The local subscriber hub (diagnostics and tests).
    pub fn hub(&self) -> &TelemetryHub {
        &self.hub
    }

    /// The downstream fan-out plane (diagnostics and tests).
    pub fn plane(&self) -> &RelayPlane {
        &self.plane
    }

    /// The one way deltas enter a relay, whether as a `RelayDeltas`
    /// batch off the wire or handed over by the co-located root agent:
    /// into the local subscribers' queues, onto every interested child
    /// edge, and out. `arrived` is the batch `deltas` came in and the
    /// payload that carried it: the edges are flushed now, one wire
    /// message each, and an edge that wants exactly that batch is sent
    /// that payload ([`RelayPlane::flush_with`]). A hand-off (`None`)
    /// stays staged until the end of the instant, unless an edge batch
    /// is full first (see the module docs).
    pub(crate) fn ingest(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        deltas: &[Arc<TelemetryDelta>],
        arrived: Option<(&RelayDeltaBatch, &Payload)>,
    ) {
        let evicted_before = self.hub.evicted();
        for delta in deltas {
            if delta.seq < self.next_ingest {
                continue;
            }
            self.next_ingest = delta.seq + 1;
            self.hub.dispatch(delta);
            if self.plane.is_full() {
                self.flush(ctx, None);
            }
            self.plane.offer(delta);
        }
        if arrived.is_some() {
            self.flush(ctx, arrived);
        } else if !self.flush_armed && self.plane.is_staged() {
            self.flush_armed = true;
            ctx.world.wake_module(ctx.eng, ctx.rank, RELAY, TIMER_FLUSH);
        }
        if self.hub.evicted() != evicted_before {
            // Evictions may have narrowed what this subtree wants.
            self.maybe_advertise(ctx);
        }
    }

    /// Send every staged edge batch, one wire message per edge.
    fn flush(&mut self, ctx: &mut ModuleCtx<'_>, arrived: Option<(&RelayDeltaBatch, &Payload)>) {
        let topic = &self.topics.relay_deltas;
        self.plane.flush_with(
            arrived,
            |batch| MonitorRequest::RelayDeltas(batch).encode(),
            |child, payload| Self::send_event(ctx, Rank(child), topic, payload),
        );
    }

    fn is_root(ctx: &ModuleCtx<'_>) -> bool {
        ctx.rank == ctx.world.root()
    }

    /// The co-located root agent's seed for `filter` — the only call a
    /// relay makes into the agent. `None` when this rank does not host
    /// the root agent. What is staged is flushed first, so every delta
    /// below the seed's horizon leaves this rank before the seed does.
    fn seed_from_agent(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        filter: &SubscriptionFilter,
    ) -> Option<(Vec<Arc<TelemetryDelta>>, u64)> {
        self.flush(ctx, None);
        let module = ctx.world.brokers[ctx.rank.index()].module(ROOT_AGENT)?;
        let mut guard = module.borrow_mut();
        let agent = guard.as_any_mut()?.downcast_mut::<RootAgent>()?;
        Some(agent.seed_for(filter))
    }

    fn send_event(ctx: &mut ModuleCtx<'_>, to: Rank, topic: &Topic, payload: Payload) {
        let ev = Message::event(ctx.rank, to, topic, payload);
        ctx.world.send(ctx.eng, ev);
    }

    /// Union of everything this relay's subtree wants: local
    /// subscribers, parked subscribes, and child-edge aggregates.
    fn subtree_aggregate(&self) -> AggregateFilter {
        let mut agg = AggregateFilter::empty();
        for f in self.hub.filters() {
            agg.insert(f);
        }
        for (_, f) in self.pending_subs.values() {
            agg.insert(f);
        }
        agg.union(&self.plane.aggregate());
        agg
    }

    /// Advertise the subtree aggregate up the current parent edge when
    /// it changed (a topology change resets `advertised` to `None`
    /// first, forcing the comparison). The advert is an authoritative
    /// replacement, so narrowing converges without tombstones. An empty
    /// aggregate is only sent when *narrowing* from a previously
    /// advertised non-empty one — a parent with no edge state for us
    /// (fresh after a re-parent, or at load) needs no announcement, so
    /// subscription-free instances stay wire-silent.
    fn maybe_advertise(&mut self, ctx: &mut ModuleCtx<'_>) {
        // The root has no parent: the tree ends there.
        let Some(parent) = ctx.world.tbon.parent(ctx.rank) else {
            return;
        };
        let agg = self.subtree_aggregate();
        if self.advertised.as_ref() == Some(&agg) {
            return;
        }
        let narrowing = matches!(&self.advertised, Some(prev) if !prev.is_empty());
        self.advertised = Some(agg.clone());
        if agg.is_empty() && !narrowing {
            return;
        }
        let req = MonitorRequest::RelayAdvert(RelayAdvert { aggregate: agg });
        Self::send_event(ctx, parent, &self.topics.relay_advert, req.encode());
    }

    fn on_subscribe(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, req: SubscribeRequest) {
        if let Err(e) = req.filter.validate() {
            ctx.world
                .respond_error(ctx.eng, msg, format!("invalid filter: {e}"));
            return;
        }
        // First tree-shape state in this world: start receiving
        // topology-change notifications (free until now).
        ctx.world.engage_topology_watch();
        if Self::is_root(ctx) {
            // The tree ends here: the sequencer is co-located.
            let Some((seed, horizon)) = self.seed_from_agent(ctx, &req.filter) else {
                ctx.world
                    .respond_error(ctx.eng, msg, "monitor root agent not loaded");
                return;
            };
            self.next_ingest = self.next_ingest.max(horizon);
            let id = self.hub.subscribe(req.filter, &seed, horizon);
            ctx.world
                .respond(ctx.eng, msg, MonitorReply::Subscribed(id).encode());
            return;
        }
        let Some(parent) = ctx.world.tbon.parent(ctx.rank) else {
            ctx.world
                .respond_error(ctx.eng, msg, "relay is detached from the overlay");
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        self.pending_subs
            .insert(token, (msg.clone(), req.filter.clone()));
        let climb = MonitorRequest::RelaySubscribe(RelaySubscribeRequest {
            token,
            origin: ctx.rank.0,
            filter: req.filter,
        });
        Self::send_event(ctx, parent, &self.topics.relay_subscribe, climb.encode());
    }

    fn on_relay_subscribe(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        req: RelaySubscribeRequest,
    ) {
        ctx.world.engage_topology_watch();
        // Widen our edge to the child *before* forwarding (or, at the
        // root, before snapshotting), so deltas published after the
        // snapshot already flow through here on their way to the origin.
        self.plane.merge_child(msg.from.0, &req.filter);
        if Self::is_root(ctx) {
            let Some((deltas, horizon)) = self.seed_from_agent(ctx, &req.filter) else {
                return;
            };
            let seed = MonitorReply::RelaySeed(RelaySeedReply {
                token: req.token,
                deltas,
                horizon,
            });
            Self::send_event(
                ctx,
                Rank(req.origin),
                &self.topics.relay_seed,
                seed.encode(),
            );
        } else if let Some(parent) = ctx.world.tbon.parent(ctx.rank) {
            let climb = MonitorRequest::RelaySubscribe(req);
            Self::send_event(ctx, parent, &self.topics.relay_subscribe, climb.encode());
        }
    }

    fn on_relay_seed(&mut self, ctx: &mut ModuleCtx<'_>, reply: &RelaySeedReply) {
        let Some((request, filter)) = self.pending_subs.remove(&reply.token) else {
            // A duplicate seed (re-issued climb after a topology
            // change) — the first one registered the subscriber.
            return;
        };
        self.next_ingest = self.next_ingest.max(reply.horizon);
        let id = self.hub.subscribe(filter, &reply.deltas, reply.horizon);
        ctx.world
            .respond(ctx.eng, &request, MonitorReply::Subscribed(id).encode());
    }

    fn on_unsubscribe(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, req: UnsubscribeRequest) {
        let existed = self.hub.unsubscribe(req.sub);
        ctx.world
            .respond(ctx.eng, msg, MonitorReply::Unsubscribed(existed).encode());
        if existed {
            self.maybe_advertise(ctx);
        }
    }

    fn on_poll(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, req: PollRequest) {
        match self.hub.poll(req.sub, req.max) {
            Some((deltas, dropped)) => {
                let batch = DeltaBatch {
                    deltas: deltas.into_iter().collect(),
                    dropped,
                };
                ctx.world
                    .respond(ctx.eng, msg, MonitorReply::Deltas(batch).encode());
            }
            None => {
                ctx.world
                    .respond_error(ctx.eng, msg, format!("unknown subscriber {}", req.sub))
            }
        }
    }

    fn on_relay_advert(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, advert: RelayAdvert) {
        let child = msg.from.0;
        // Ignore adverts from ranks that are no longer our children —
        // a late message crossing a re-parent must not resurrect a
        // pruned edge.
        if !ctx.world.tbon.children(ctx.rank).contains(&msg.from) {
            return;
        }
        ctx.world.engage_topology_watch();
        self.plane.set_child(child, advert.aggregate);
        self.maybe_advertise(ctx);
    }
}

impl Module for TelemetryRelay {
    fn name(&self) -> &'static str {
        RELAY
    }

    fn topics(&self) -> Vec<Topic> {
        let t = &self.topics;
        vec![
            t.subscribe.clone(),
            t.unsubscribe.clone(),
            t.poll.clone(),
            t.relay_subscribe.clone(),
            t.relay_seed.clone(),
            t.relay_advert.clone(),
            t.relay_deltas.clone(),
        ]
    }

    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}

    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        if tag == TIMER_FLUSH {
            self.flush_armed = false;
            self.flush(ctx, None);
        }
    }

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match msg.kind {
            MsgKind::Request => match MonitorRequest::decode_ref(msg) {
                Ok(MonitorRequest::Subscribe(req)) => self.on_subscribe(ctx, msg, req.clone()),
                Ok(&MonitorRequest::Unsubscribe(req)) => self.on_unsubscribe(ctx, msg, req),
                Ok(&MonitorRequest::Poll(req)) => self.on_poll(ctx, msg, req),
                Ok(_) => {}
                Err(e) => ctx.world.respond_error(ctx.eng, msg, e.reason),
            },
            MsgKind::Event => {
                if msg.topic == self.topics.relay_seed {
                    if let Ok(MonitorReply::RelaySeed(seed)) = MonitorReply::decode_ref(msg) {
                        self.on_relay_seed(ctx, seed);
                    }
                    return;
                }
                match MonitorRequest::decode_ref(msg) {
                    Ok(MonitorRequest::RelaySubscribe(req)) => {
                        self.on_relay_subscribe(ctx, msg, req.clone())
                    }
                    Ok(MonitorRequest::RelayAdvert(advert)) => {
                        self.on_relay_advert(ctx, msg, advert.clone())
                    }
                    Ok(MonitorRequest::RelayDeltas(batch)) => {
                        self.ingest(ctx, &batch.deltas, Some((batch, &msg.payload)))
                    }
                    _ => {}
                }
            }
            MsgKind::Response => {}
        }
    }

    fn on_topology_change(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Idle fast path: with no local subscribers, no child edges, no
        // parked climbs, and nothing (non-empty) ever advertised, the
        // repair below is a semantic no-op — and every membership
        // change notifies every broker's relay, so subscription-free
        // worlds hit this on all ranks on every storm event.
        if self.pending_subs.is_empty()
            && self.hub.subscriber_count() == 0
            && self.plane.children().next().is_none()
            && self.advertised.as_ref().is_none_or(|a| a.is_empty())
        {
            return;
        }
        // Edges to ranks that re-parented elsewhere are dropped — their
        // new parent serves them once their (forced) advert lands.
        let children = ctx.world.tbon.children(ctx.rank);
        self.plane.retain_children(|c| children.contains(&Rank(c)));
        // The parent may be new: re-advertise unconditionally so it
        // learns this subtree's interests, and re-issue parked climbs
        // whose original may have died with the old path.
        self.advertised = None;
        self.maybe_advertise(ctx);
        if let Some(parent) = ctx.world.tbon.parent(ctx.rank) {
            let parked: Vec<(u64, SubscriptionFilter)> = self
                .pending_subs
                .iter()
                .map(|(&t, (_, f))| (t, f.clone()))
                .collect();
            for (token, filter) in parked {
                let climb = MonitorRequest::RelaySubscribe(RelaySubscribeRequest {
                    token,
                    origin: ctx.rank.0,
                    filter,
                });
                Self::send_event(ctx, parent, &self.topics.relay_subscribe, climb.encode());
            }
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_flux::JobId;

    fn delta(seq: u64, node: u32, ts: u64, job: Option<JobId>) -> Arc<TelemetryDelta> {
        Arc::new(TelemetryDelta {
            seq,
            node,
            timestamp_us: ts,
            node_w: 1.0,
            job,
            link: None,
        })
    }

    #[test]
    fn aggregate_unions_and_dedupes_terms() {
        let mut agg = AggregateFilter::empty();
        assert!(agg.is_empty());
        agg.insert(&SubscriptionFilter::all().with_nodes(vec![3, 1]));
        agg.insert(&SubscriptionFilter::all().with_nodes(vec![1, 3, 3]));
        assert_eq!(agg.term_count(), 1, "normalized node sets dedupe");
        agg.insert(&SubscriptionFilter::all().with_job(JobId(7)));
        assert_eq!(agg.term_count(), 2);

        assert!(agg.matches(&delta(0, 1, 0, None)));
        assert!(agg.matches(&delta(0, 9, 0, Some(JobId(7)))));
        assert!(!agg.matches(&delta(0, 9, 0, Some(JobId(8)))));

        // Cadence floors never narrow the aggregate.
        let mut slow = AggregateFilter::empty();
        slow.insert(&SubscriptionFilter::all().with_min_interval_us(1_000_000));
        assert!(slow.is_all(), "cadence-only filter widens to everything");
    }

    #[test]
    fn aggregate_collapses_to_everything_past_term_cap() {
        let mut agg = AggregateFilter::empty();
        for n in 0..(MAX_AGGREGATE_TERMS as u32 + 1) {
            agg.insert(&SubscriptionFilter::all().with_nodes(vec![n]));
        }
        assert!(agg.is_all());
        assert!(agg.matches(&delta(0, 10_000, 0, None)));
    }

    #[test]
    fn plane_routes_by_edge_aggregate_and_batches_per_flush() {
        let mut plane = RelayPlane::new(64);
        let mut left = AggregateFilter::empty();
        left.insert(&SubscriptionFilter::all().with_nodes(vec![1]));
        plane.set_child(1, left);
        plane.set_child(2, AggregateFilter::everything());

        plane.offer(&delta(0, 1, 0, None));
        plane.offer(&delta(1, 5, 0, None));
        let flushed = plane.flush();
        // Edge 1 wanted only node 1; edge 2 wanted both — yet each edge
        // got exactly one wire message.
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].0, 1);
        assert_eq!(flushed[0].1.deltas.len(), 1);
        assert_eq!(flushed[1].1.deltas.len(), 2);
        assert_eq!(plane.egress_msgs(), 2);
        assert_eq!(plane.egress_deltas(), 3);
        assert!(plane.flush().is_empty(), "drained");
    }

    #[test]
    fn full_edge_batch_coalesces_to_latest_per_node_then_sheds_oldest() {
        let mut plane = RelayPlane::new(4);
        plane.set_child(1, AggregateFilter::everything());
        // 8 deltas over 2 nodes: the batch fills at 4, coalesces to the
        // latest per node, and keeps absorbing.
        for i in 0..8u64 {
            plane.offer(&delta(i, (i % 2) as u32, i, None));
        }
        let flushed = plane.flush();
        let seqs: Vec<u64> = flushed[0].1.deltas.iter().map(|d| d.seq).collect();
        // Survivors stay in sequence order and end with the newest of
        // each node.
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "in order: {seqs:?}");
        assert!(seqs.contains(&6) && seqs.contains(&7), "{seqs:?}");
        assert!(flushed[0].1.shed > 0, "coalescing was reported");

        // All-distinct keys: coalescing cannot help, so the oldest is
        // shed instead (shed-oldest semantics preserved).
        let mut plane = RelayPlane::new(2);
        plane.set_child(1, AggregateFilter::everything());
        for i in 0..3u64 {
            plane.offer(&delta(i, i as u32, i, None));
        }
        let flushed = plane.flush();
        let seqs: Vec<u64> = flushed[0].1.deltas.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(flushed[0].1.shed, 1);
    }

    /// Sustained backpressure over distinct keys: nothing coalesces, so
    /// every delta past the capacity sheds exactly the oldest — the same
    /// counts and survivors as coalescing the batch before every shed.
    #[test]
    fn sustained_distinct_backpressure_sheds_one_oldest_per_delta() {
        const CAP: usize = 8;
        let mut plane = RelayPlane::new(CAP);
        plane.set_child(1, AggregateFilter::everything());
        for i in 0..(10 * CAP as u64) {
            plane.offer(&delta(i, i as u32, i, None));
        }
        // A repeated key ends the distinct stretch: the next full batch
        // coalesces again (node 75's older delta goes) instead of
        // shedding the oldest.
        plane.offer(&delta(80, 75, 80, None));
        plane.offer(&delta(81, 1_000, 81, None));
        let flushed = plane.flush();
        let seqs: Vec<u64> = flushed[0].1.deltas.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![73, 74, 76, 77, 78, 79, 80, 81]);
        assert_eq!(flushed[0].1.shed, 9 * CAP as u64 + 1 + 1);

        // The flush forgot the stretch: a refilled batch coalesces first.
        for i in 0..=CAP as u64 {
            plane.offer(&delta(100 + i, 7, i, None));
        }
        let flushed = plane.flush();
        assert_eq!(flushed[0].1.deltas.len(), 2, "7 merged, then one more");
        assert_eq!(flushed[0].1.shed, 9 * CAP as u64 + 2 + 7);
    }

    /// A batch off the wire, as the parent's edge built it.
    fn batch(shed: u64, deltas: &[&Arc<TelemetryDelta>]) -> RelayDeltaBatch {
        RelayDeltaBatch {
            deltas: deltas.iter().map(|d| Arc::clone(d)).collect(),
            shed,
        }
    }

    /// What `ingest` does with `arrived` once the first `skip` of its
    /// deltas fell below the high-water mark: offer the rest, flush with
    /// the batch as the remembered one. Returns what each edge was sent.
    fn relay(
        plane: &mut RelayPlane,
        arrived: &RelayDeltaBatch,
        skip: usize,
    ) -> Vec<(u32, RelayDeltaBatch)> {
        for d in arrived.deltas.iter().skip(skip) {
            plane.offer(d);
        }
        let mut out = Vec::new();
        plane.flush_with(Some((arrived, arrived)), |b| b, |c, b| out.push((c, b)));
        out
    }

    fn same_slice(a: &RelayDeltaBatch, b: &RelayDeltaBatch) -> bool {
        std::ptr::eq(a.deltas.as_ptr(), b.deltas.as_ptr())
    }

    fn seqs(b: &RelayDeltaBatch) -> Vec<u64> {
        b.deltas.iter().map(|d| d.seq).collect()
    }

    fn everything_plane(cap: usize, children: &[u32]) -> RelayPlane {
        let mut plane = RelayPlane::new(cap);
        for &c in children {
            plane.set_child(c, AggregateFilter::everything());
        }
        plane
    }

    #[test]
    fn an_edge_that_wants_the_arrived_batch_is_sent_the_arrived_batch() {
        let mut plane = everything_plane(8, &[1, 2, 3]);
        let (d0, d1) = (delta(0, 1, 0, None), delta(1, 5, 0, None));
        let arrived = batch(0, &[&d0, &d1]);
        let sent = relay(&mut plane, &arrived, 0);
        assert_eq!(sent.len(), 3);
        for (_, b) in &sent {
            assert!(same_slice(b, &arrived), "passed on, not rebuilt");
            assert_eq!(b, &arrived);
        }
        assert_eq!((plane.egress_msgs(), plane.egress_deltas()), (3, 6));
        assert!(plane.flush().is_empty(), "drained");
    }

    #[test]
    fn sibling_edges_share_the_first_batch_built() {
        // The root's case: a bare delta was handed over, nothing arrived.
        let mut plane = everything_plane(8, &[1, 2, 3]);
        plane.offer(&delta(0, 1, 0, None));
        let sent = plane.flush();
        assert_eq!(sent.len(), 3);
        assert!(same_slice(&sent[0].1, &sent[1].1) && same_slice(&sent[1].1, &sent[2].1));
    }

    #[test]
    fn a_narrower_edge_builds_its_own_batch() {
        let mut plane = RelayPlane::new(8);
        let mut narrow = AggregateFilter::empty();
        narrow.insert(&SubscriptionFilter::all().with_nodes(vec![1]));
        plane.set_child(1, AggregateFilter::everything());
        plane.set_child(2, narrow);
        let (d0, d1) = (delta(0, 1, 0, None), delta(1, 5, 0, None));
        let arrived = batch(0, &[&d0, &d1]);
        let sent = relay(&mut plane, &arrived, 0);
        assert!(same_slice(&sent[0].1, &arrived));
        assert!(!same_slice(&sent[1].1, &arrived));
        assert_eq!(seqs(&sent[1].1), vec![0]);
    }

    #[test]
    fn a_skipped_delta_or_a_leftover_means_a_new_batch() {
        let (d0, d1, d2) = (
            delta(0, 1, 0, None),
            delta(1, 5, 0, None),
            delta(2, 5, 0, None),
        );
        // d0 was already ingested here (a seed raised the mark past it).
        let mut plane = everything_plane(8, &[1]);
        let arrived = batch(0, &[&d0, &d1]);
        let sent = relay(&mut plane, &arrived, 1);
        assert!(!same_slice(&sent[0].1, &arrived));
        assert_eq!(seqs(&sent[0].1), vec![1]);

        // d0 was staged earlier and never flushed.
        let mut plane = everything_plane(8, &[1]);
        plane.offer(&d0);
        let arrived = batch(0, &[&d2]);
        let sent = relay(&mut plane, &arrived, 0);
        assert!(!same_slice(&sent[0].1, &arrived));
        assert_eq!(seqs(&sent[0].1), vec![0, 2]);
    }

    #[test]
    fn a_coalesced_or_shed_batch_is_a_new_batch_with_a_truthful_shed() {
        // Node 1 twice, then node 2, through a batch of two: the older
        // node-1 delta is coalesced away.
        let (a, b, c) = (
            delta(0, 1, 0, None),
            delta(1, 1, 1, None),
            delta(2, 2, 2, None),
        );
        let mut plane = everything_plane(2, &[1]);
        let arrived = batch(0, &[&a, &b, &c]);
        let sent = relay(&mut plane, &arrived, 0);
        assert!(!same_slice(&sent[0].1, &arrived));
        assert_eq!((seqs(&sent[0].1), sent[0].1.shed), (vec![1, 2], 1));

        // Three distinct nodes: the oldest is shed.
        let (a, b, c) = (
            delta(0, 1, 0, None),
            delta(1, 2, 1, None),
            delta(2, 3, 2, None),
        );
        let mut plane = everything_plane(2, &[1]);
        let arrived = batch(0, &[&a, &b, &c]);
        let sent = relay(&mut plane, &arrived, 0);
        assert!(!same_slice(&sent[0].1, &arrived));
        assert_eq!((seqs(&sent[0].1), sent[0].1.shed), (vec![1, 2], 1));
    }

    #[test]
    fn the_same_deltas_under_a_different_shed_are_a_different_batch() {
        // Edge 1 has shed one delta in its past; edge 2 never has.
        let mut plane = everything_plane(1, &[1]);
        plane.offer(&delta(0, 1, 0, None));
        plane.offer(&delta(1, 2, 1, None));
        assert_eq!(plane.flush()[0].1.shed, 1);
        plane.set_child(2, AggregateFilter::everything());

        let d = delta(2, 3, 2, None);
        let arrived = batch(0, &[&d]);
        let sent = relay(&mut plane, &arrived, 0);
        // Both staged exactly the arrived delta. Edge 1 must still say 1
        // (so it cannot pass on a batch that says 0), and edge 2 must
        // still say 0 (so it cannot share edge 1's).
        assert_eq!((sent[0].0, sent[0].1.shed), (1, 1));
        assert_eq!((sent[1].0, sent[1].1.shed), (2, 0));
        assert!(!same_slice(&sent[0].1, &arrived));
        assert!(!same_slice(&sent[1].1, &sent[0].1));
        assert!(Arc::ptr_eq(&sent[0].1.deltas[0], &sent[1].1.deltas[0]));

        // And an arrived batch that itself says 1 is edge 1's to pass on.
        let d = delta(3, 3, 3, None);
        let arrived = batch(1, &[&d]);
        let sent = relay(&mut plane, &arrived, 0);
        assert!(same_slice(&sent[0].1, &arrived));
        assert_eq!(sent[1].1.shed, 0);
    }

    #[test]
    fn equal_deltas_in_other_allocations_are_not_the_arrived_batch() {
        // Same values, different `Arc`s: the rule goes by identity, so
        // what it passes on is what it was handed and nothing else.
        let mut plane = everything_plane(8, &[1]);
        let arrived = batch(0, &[&delta(0, 1, 0, None)]);
        plane.offer(&delta(0, 1, 0, None));
        let mut sent = Vec::new();
        plane.flush_with(Some((&arrived, &arrived)), |b| b, |c, b| sent.push((c, b)));
        assert!(!same_slice(&sent[0].1, &arrived));
        assert_eq!(sent[0].1, arrived, "equal by value all the same");
    }

    #[test]
    fn an_edge_is_one_entry() {
        let mut plane = everything_plane(8, &[1, 2]);
        plane.offer(&delta(0, 1, 0, None));
        // Replacing an aggregate keeps what the edge had staged...
        let mut narrow = AggregateFilter::empty();
        narrow.insert(&SubscriptionFilter::all().with_nodes(vec![9]));
        plane.set_child(1, narrow.clone());
        assert_eq!(plane.children().collect::<Vec<_>>()[0], (1, &narrow));
        // ...widening an unknown child opens its edge...
        plane.merge_child(3, &SubscriptionFilter::all().with_nodes(vec![7]));
        assert_eq!(plane.children().count(), 3);
        // ...and an edge that goes takes its staged batch with it.
        plane.retain_children(|c| c != 2);
        let sent = plane.flush();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].0, seqs(&sent[0].1)), (1, vec![0]));
        assert!(!plane.aggregate().is_all());
    }

    #[test]
    fn empty_advert_removes_edge() {
        let mut plane = RelayPlane::new(8);
        plane.set_child(1, AggregateFilter::everything());
        plane.offer(&delta(0, 0, 0, None));
        plane.set_child(1, AggregateFilter::empty());
        assert!(plane.flush().is_empty(), "edge and pending batch gone");
        assert_eq!(plane.children().count(), 0);
    }

    #[test]
    fn a_plane_is_staged_until_flushed_and_full_at_its_capacity() {
        let mut plane = RelayPlane::new(2);
        plane.offer(&delta(0, 1, 0, None));
        assert!(!plane.is_staged(), "no edge to stage on");
        let mut narrow = AggregateFilter::empty();
        narrow.insert(&SubscriptionFilter::all().with_nodes(vec![1]));
        plane.set_child(1, narrow);
        plane.set_child(2, AggregateFilter::everything());
        plane.offer(&delta(1, 5, 0, None));
        assert!(plane.is_staged() && !plane.is_full());
        plane.offer(&delta(2, 6, 0, None));
        assert!(plane.is_full(), "edge 2 holds two");
        plane.flush();
        assert!(!plane.is_staged() && !plane.is_full());
    }

    /// Pushes that reach the root in one instant are in the root's local
    /// queues as each is handed over, and on its edges only at the end
    /// of the instant: one wake, one message per edge.
    #[test]
    fn the_root_relay_flushes_once_at_the_end_of_the_instant() {
        use crate::proto::SamplePush;
        use crate::subscription::TOPIC_SAMPLE_PUSH;
        use crate::{MonitorConfig, MonitorQuery};
        use fluxpm_flux::{FluxEngine, World};
        use fluxpm_hw::MachineKind;
        use fluxpm_sim::{Engine, SimDuration};

        fn root_relay<R>(w: &World, f: impl FnOnce(&TelemetryRelay) -> R) -> R {
            let module = w.brokers[0].module(RELAY).expect("relay loaded");
            let mut guard = module.borrow_mut();
            f(guard.as_any_mut().unwrap().downcast_mut().unwrap())
        }

        // Binary TBON: 0 → {1, 2}, 1 → {3}; subscribers at 0, 2 and 3.
        let mut w = World::new(MachineKind::Lassen, 4, 3);
        let mut eng: FluxEngine = Engine::new();
        let quiet = MonitorConfig::default().with_sample_interval(SimDuration::from_secs(100_000));
        assert!(crate::load(&mut w, &mut eng, quiet));
        for rank in [0, 2, 3] {
            MonitorQuery::subscribe(SubscriptionFilter::all())
                .at(Rank(rank))
                .send(&mut w, &mut eng);
        }
        let settled = eng.now() + SimDuration::from_millis(10);
        eng.run_until(&mut w, settled);

        const K: usize = 4;
        for node in 0..K as u32 {
            let push = SamplePush {
                node,
                timestamp_us: 1,
                node_w: 1.0,
            };
            w.rpc(
                Rank(0),
                TOPIC_SAMPLE_PUSH,
                MonitorRequest::PushSample(push).encode(),
            )
            .send(&mut eng, |_, _, _| {});
        }
        let instant = eng.now();
        for _ in 0..K {
            assert_eq!(eng.step(&mut w), Some(instant), "a push delivery");
        }
        root_relay(&w, |r| {
            assert_eq!(r.hub.stats(1).map(|s| s.queued), Some(K), "queued at once");
            assert_eq!(r.plane.egress_msgs(), 0, "nothing sent yet");
            assert!(r.plane.is_staged() && r.flush_armed);
        });
        // The wake, queued behind the pushes of its instant.
        assert_eq!(eng.step(&mut w), Some(instant));
        root_relay(&w, |r| {
            assert_eq!(
                (r.plane.egress_msgs(), r.plane.egress_deltas()),
                (2, 2 * K as u64)
            );
            assert!(!r.plane.is_staged() && !r.flush_armed);
        });
    }
}
