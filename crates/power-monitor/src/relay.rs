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
//! A batch is built once **for the tree**, not once per edge: a batch
//! off the wire is passed on whole — the payload it arrived in, a
//! reference-count bump — to every edge that wants all of it, and only
//! the other edges stage its deltas and build; sibling edges share the
//! first batch built. A delta published through match-everything edges
//! is therefore one slice and one payload however many edges it
//! crosses, and no relay below the root stages it at all
//! ([`RelayPlane::pass_on`] has the rule and what falls back to
//! building).
//!
//! The root rank's relay is a relay like any other: the co-located
//! agent hands it each stamped delta, and the relay puts it into its
//! local queues and onto its edges as it does a batch off the wire. It
//! differs only where the tree ends — it has no parent to climb to, so
//! it asks the agent for the seed — and in when it flushes.
//!
//! ## One flush per simulated instant
//!
//! A batch off the wire is passed on before `ingest` returns. What the
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
use fluxpm_sim::TraceLevel;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::rc::Rc;
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

    /// Whether what is staged here *is* `built`, the batch a sibling
    /// edge was just sent: the same deltas — the same allocations, one
    /// for one, not equal values — under the same cumulative `shed`, so
    /// that sending `built` again says exactly what a batch built from
    /// this edge would.
    fn is(&self, built: &RelayDeltaBatch) -> bool {
        self.shed == built.shed
            && self.deltas.len() == built.deltas.len()
            && self
                .deltas
                .iter()
                .zip(&built.deltas)
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
    egress: Egress,
    batch_capacity: usize,
    offered: u64,
}

/// What leaves a plane, and how a staged edge is turned into a batch.
#[derive(Debug, Default)]
struct Egress {
    /// Where a batch is lined up before its one allocation (a `Vec`
    /// drain knows its length, so the shared slice is built in place);
    /// kept so building allocates nothing else.
    lineup: Vec<Arc<TelemetryDelta>>,
    msgs: u64,
    deltas: u64,
}

impl Egress {
    /// Count one message of `deltas` deltas.
    fn count(&mut self, deltas: usize) {
        self.msgs += 1;
        self.deltas += deltas as u64;
    }

    /// Drain what `staged` holds into the form it travels in, or `None`
    /// when it holds nothing. An edge that *is* `last` — the batch last
    /// built in this flush ([`EdgeBatch::is`]) — is sent that batch's
    /// `W` again; any other costs one allocation for its shared slice
    /// plus whatever `wrap` allocates, and becomes `last`. The edge
    /// keeps its buffer.
    fn take<W: Clone>(
        &mut self,
        staged: &mut EdgeBatch,
        last: &mut Option<(RelayDeltaBatch, W)>,
        wrap: &mut impl FnMut(RelayDeltaBatch) -> W,
    ) -> Option<W> {
        if staged.deltas.is_empty() {
            return None;
        }
        staged.distinct = None;
        self.count(staged.deltas.len());
        if let Some((_, wire)) = last.as_ref().filter(|(built, _)| staged.is(built)) {
            staged.deltas.clear();
            return Some(wire.clone());
        }
        self.lineup.extend(staged.deltas.drain(..));
        let batch = RelayDeltaBatch {
            deltas: self.lineup.drain(..).collect(),
            shed: staged.shed,
        };
        let wire = wrap(batch.clone());
        *last = Some((batch, wire.clone()));
        Some(wire)
    }
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
    /// it) and `wrap` builds it. This serves what was staged by
    /// [`offer`](RelayPlane::offer) — the root's hand-offs; a batch off
    /// the wire goes through [`pass_on`](RelayPlane::pass_on).
    ///
    /// Sibling edges share the first batch built: an edge that staged
    /// exactly the batch last built in this flush (the same deltas,
    /// [`Arc::ptr_eq`] one for one, and the same cumulative `shed`) is
    /// sent that `W` again, a reference-count bump. Any other edge — a
    /// narrower aggregate, a coalesce or a shed, a different `shed` —
    /// costs one allocation for its shared slice plus whatever `wrap`
    /// allocates, and becomes the one its later siblings are compared
    /// with. The edges keep their buffers.
    pub fn flush_with<W: Clone>(
        &mut self,
        mut wrap: impl FnMut(RelayDeltaBatch) -> W,
        mut send: impl FnMut(u32, W),
    ) {
        let mut last = None;
        for (&child, edge) in self.edges.iter_mut() {
            if let Some(wire) = self.egress.take(&mut edge.batch, &mut last, &mut wrap) {
                send(child, wire);
            }
        }
    }

    /// Pass on `arrived`, a batch off the wire that came in `wire`, to
    /// every interested edge in child order, and send each edge what it
    /// has staged: one wire message per edge. The first `skip` deltas
    /// fell below the relay's ingest high-water mark and are not
    /// forwarded.
    ///
    /// **A batch off the wire is passed on whole to every edge that
    /// wants all of it.** An edge is sent `wire` itself — a
    /// reference-count bump, no delta touched — when nothing is staged
    /// on it, its cumulative `shed` is `arrived.shed`, no delta was
    /// skipped, the batch is non-empty and no longer than the plane's
    /// capacity, and its aggregate matches every delta (O(1) for a
    /// match-everything edge). Only the other edges stage the fresh
    /// deltas they match, coalescing or shedding at the capacity as
    /// [`offer`](RelayPlane::offer) does, and are built as in
    /// [`flush_with`](RelayPlane::flush_with), sharing the first batch
    /// built among them.
    pub fn pass_on<W: Clone>(
        &mut self,
        arrived: &RelayDeltaBatch,
        wire: &W,
        skip: usize,
        mut wrap: impl FnMut(RelayDeltaBatch) -> W,
        mut send: impl FnMut(u32, W),
    ) {
        let fresh = arrived.deltas.get(skip..).unwrap_or_default();
        self.offered += fresh.len() as u64;
        let cap = self.batch_capacity;
        let whole = skip == 0 && !fresh.is_empty() && fresh.len() <= cap;
        let mut last = None;
        for (&child, edge) in self.edges.iter_mut() {
            let staged = &mut edge.batch;
            if whole
                && staged.deltas.is_empty()
                && staged.shed == arrived.shed
                && (edge.aggregate.is_all() || fresh.iter().all(|d| edge.aggregate.matches(d)))
            {
                self.egress.count(fresh.len());
                send(child, wire.clone());
                continue;
            }
            for delta in fresh {
                if edge.aggregate.matches(delta) {
                    staged.stage(delta, cap);
                }
            }
            if let Some(wire) = self.egress.take(staged, &mut last, &mut wrap) {
                send(child, wire);
            }
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
        self.flush_with(|batch| batch, |child, batch| out.push((child, batch)));
        out
    }

    /// Wire messages sent downstream so far.
    pub fn egress_msgs(&self) -> u64 {
        self.egress.msgs
    }

    /// Deltas carried by those messages.
    pub fn egress_deltas(&self) -> u64 {
        self.egress.deltas
    }

    /// Deltas offered to this plane so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }
}

// ---------------------------------------------------------------------------
// The broker-resident relay module
// ---------------------------------------------------------------------------

/// Why a relay refused what reached it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RelayError {
    /// A relay batch whose deltas are not in strictly increasing `seq`
    /// order: the delta at `at` does not follow the one before it. No
    /// relay builds one; the batch is dropped whole, since both the
    /// stale-prefix cut and the subscriber hubs' logs rest on the order.
    UnorderedBatch {
        /// Index of the first delta out of order.
        at: usize,
    },
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::UnorderedBatch { at } => {
                write!(f, "relay batch out of seq order at delta {at}")
            }
        }
    }
}

/// Check that `batch` is in strictly increasing `seq` order.
fn ordered(batch: &RelayDeltaBatch) -> Result<(), RelayError> {
    match batch.deltas.windows(2).position(|w| w[0].seq >= w[1].seq) {
        Some(i) => Err(RelayError::UnorderedBatch { at: i + 1 }),
        None => Ok(()),
    }
}

/// The per-broker relay. See the module docs for the architecture; in
/// short: local subscriber queues in [`TelemetryHub`], downstream
/// fan-out in [`RelayPlane`], and an upward [`AggregateFilter`] advert
/// kept current across unsubscribes, evictions, and topology changes.
pub struct TelemetryRelay {
    topics: Rc<RelayTopics>,
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

/// Where deltas entering a relay come from ([`TelemetryRelay::ingest`]).
pub(crate) enum Ingest<'a> {
    /// One delta, handed over by the co-located root agent.
    HandOff(&'a Arc<TelemetryDelta>),
    /// A `RelayDeltas` batch off the wire, and the payload it came in.
    Arrived(&'a RelayDeltaBatch, &'a Payload),
}

/// The relay's topics, interned once per thread and shared by every
/// relay on it: the seven it serves, four of which it also sends on.
struct RelayTopics {
    served: Rc<[Topic]>,
    relay_subscribe: Topic,
    relay_seed: Topic,
    relay_advert: Topic,
    relay_deltas: Topic,
}

thread_local! {
    static TOPICS: Rc<RelayTopics> = Rc::new(RelayTopics {
        served: [
            TOPIC_SUBSCRIBE,
            TOPIC_UNSUBSCRIBE,
            TOPIC_POLL,
            TOPIC_RELAY_SUBSCRIBE,
            TOPIC_RELAY_SEED,
            TOPIC_RELAY_ADVERT,
            TOPIC_RELAY_DELTAS,
        ]
        .map(Topic::intern)
        .into(),
        relay_subscribe: Topic::intern(TOPIC_RELAY_SUBSCRIBE),
        relay_seed: Topic::intern(TOPIC_RELAY_SEED),
        relay_advert: Topic::intern(TOPIC_RELAY_ADVERT),
        relay_deltas: Topic::intern(TOPIC_RELAY_DELTAS),
    });
}

impl TelemetryRelay {
    /// A relay with the given subscriber bounds.
    pub fn new(subs: SubscriptionConfig) -> TelemetryRelay {
        TelemetryRelay {
            topics: TOPICS.with(Rc::clone),
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

    /// How deltas enter a relay, by source. Either way every fresh
    /// delta — one at or above the ingest high-water mark — goes into
    /// the local subscribers' queues first.
    ///
    /// * A hand-off from the co-located root agent is staged on every
    ///   interested child edge and stays there until the end of the
    ///   instant, unless an edge batch is full first (see the module
    ///   docs).
    /// * A `RelayDeltas` batch off the wire, with the payload that
    ///   carried it, is passed on now ([`RelayPlane::pass_on`]): whole
    ///   to every edge that wants all of it, built for the rest. The
    ///   local hub takes its fresh part as one page
    ///   ([`TelemetryHub::dispatch_batch`]). Its deltas must be in
    ///   strictly increasing `seq` order, so the stale ones form a
    ///   prefix; a batch that is not is dropped whole, with one `Warn`
    ///   trace line ([`RelayError::UnorderedBatch`]). A relay that still has
    ///   hand-offs staged — only a promoted root hit by a batch its old
    ///   parent sent — sends them first, so no edge mixes the two
    ///   sources and each edge's deltas stay in `seq` order (the mark
    ///   puts every fresh arrival above every staged hand-off).
    pub(crate) fn ingest(&mut self, ctx: &mut ModuleCtx<'_>, source: Ingest<'_>) {
        let evicted_before = self.hub.evicted();
        match source {
            Ingest::HandOff(delta) => {
                if self.admit(delta) {
                    if self.plane.is_full() {
                        self.flush(ctx);
                    }
                    self.plane.offer(delta);
                    if !self.flush_armed && self.plane.is_staged() {
                        self.flush_armed = true;
                        ctx.world.wake_module(ctx.eng, ctx.rank, RELAY, TIMER_FLUSH);
                    }
                }
            }
            Ingest::Arrived(arrived, wire) => {
                if let Err(e) = ordered(arrived) {
                    ctx.world.trace.emit(
                        ctx.eng.now(),
                        TraceLevel::Warn,
                        "monitor",
                        format_args!("relay at {} dropped a batch: {e}", ctx.rank),
                    );
                    return;
                }
                let skip = arrived.deltas.partition_point(|d| d.seq < self.next_ingest);
                if let Some(newest) = arrived
                    .deltas
                    .last()
                    .filter(|_| skip < arrived.deltas.len())
                {
                    self.next_ingest = newest.seq + 1;
                    self.hub.dispatch_batch(&arrived.deltas, skip);
                }
                if self.plane.is_staged() {
                    self.flush(ctx);
                }
                let topic = &self.topics.relay_deltas;
                self.plane.pass_on(
                    arrived,
                    wire,
                    skip,
                    |batch| MonitorRequest::RelayDeltas(batch).encode(),
                    |child, payload| Self::send_event(ctx, Rank(child), topic, payload),
                );
            }
        }
        if self.hub.evicted() != evicted_before {
            // Evictions may have narrowed what this subtree wants.
            self.maybe_advertise(ctx);
        }
    }

    /// Raise the ingest high-water mark past a hand-off and put it into
    /// the local subscribers' queues, unless it is below the mark
    /// already.
    fn admit(&mut self, delta: &Arc<TelemetryDelta>) -> bool {
        if delta.seq < self.next_ingest {
            return false;
        }
        self.next_ingest = delta.seq + 1;
        self.hub.dispatch(delta);
        true
    }

    /// Send every staged edge batch, one wire message per edge.
    fn flush(&mut self, ctx: &mut ModuleCtx<'_>) {
        let topic = &self.topics.relay_deltas;
        self.plane.flush_with(
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
        self.flush(ctx);
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
                let batch = DeltaBatch { deltas, dropped };
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

    fn topics(&self) -> Rc<[Topic]> {
        Rc::clone(&self.topics.served)
    }

    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}

    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        if tag == TIMER_FLUSH {
            self.flush_armed = false;
            self.flush(ctx);
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
                        self.ingest(ctx, Ingest::Arrived(batch, &msg.payload))
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
impl AggregateFilter {
    /// Number of distinct terms (0 when collapsed to top or bottom).
    pub(crate) fn term_count(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests;
