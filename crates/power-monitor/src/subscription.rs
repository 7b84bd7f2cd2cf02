//! The subscription telemetry service: many consumers, bounded memory.
//!
//! The paper's monitor serves one CSV-polling client. Production wants
//! "job-specific monitoring for the masses": thousands of concurrent
//! consumers each watching a filtered slice of the telemetry stream.
//! This module holds the two halves of that service, split along the
//! line their owners draw:
//!
//! * [`TelemetrySequencer`], owned by the root agent, stamps each
//!   incoming sample as an [`Arc`]-shared [`TelemetryDelta`] (one
//!   allocation per event, regardless of the subscriber count) with its
//!   global sequence number, and keeps the latest sample per node — the
//!   one snapshot a (re-)subscriber resumes from instead of an empty
//!   stream: the state-engine discipline of consumers receiving *state
//!   updates*, not a replayed raw firehose.
//! * [`TelemetryHub`], owned by every broker's relay, registers
//!   subscribers with a [`SubscriptionFilter`] (job, node set,
//!   per-subscriber sample cadence) and bounds each to a fixed-capacity
//!   queue — a slow consumer loses its *oldest* deltas first
//!   (backpressure by shedding), and one that falls too far behind is
//!   **evicted** outright so it cannot pin memory.
//!
//! Both are pure (no simulation types beyond ids), which is what lets
//! tests and stackbench's `RelayTree` rig drive them at thousands of
//! subscribers without an event engine.
//!
//! A hub stores a delta once, not once per subscriber. It keeps one log
//! of what it admitted, as runs of shared pages: a relay batch off the
//! wire is kept as the page it arrived in, and the root's hand-offs fill
//! an open tail. A match-everything subscriber with no cadence floor is
//! a position in that log plus what is left of its seed; its queue
//! length, its drops and the dispatch that evicts it are arithmetic, and
//! a poll hands out runs of the log's pages. The log is trimmed to the
//! oldest such position, and never holds more than a queue's capacity
//! behind the newest delta. A filtered or cadence-floored subscriber
//! keeps a queue of its own, filled delta by delta. Both kinds answer
//! every call exactly as a queue per subscriber would (the proptest in
//! `subscription/tests.rs` holds them to one).

use crate::log::{Run, Runs};
use crate::proto::SharedDeltas;
use fluxpm_flux::JobId;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Overlay topic: register a subscription with the serving rank's relay.
pub const TOPIC_SUBSCRIBE: &str = "power-monitor.subscribe";
/// Overlay topic: drop a subscription.
pub const TOPIC_UNSUBSCRIBE: &str = "power-monitor.unsubscribe";
/// Overlay topic: drain a subscriber's pending deltas.
pub const TOPIC_POLL: &str = "power-monitor.poll";
/// Overlay topic: node agent → root agent periodic sample push.
pub const TOPIC_SAMPLE_PUSH: &str = "power-monitor.sample-push";

/// Opaque subscriber handle. Ids are unique per serving hub (every
/// relay runs its own hub), so a client polls the rank it subscribed
/// at.
pub type SubscriberId = u64;

/// Typed rejection for a [`SubscriptionFilter`] that could never match
/// anything — callers get an error instead of a silently dead stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterError {
    /// `nodes` was an empty rank set: no delta can ever match.
    EmptyNodeSet,
    /// A cadence floor must be a positive interval (`0` means "no
    /// floor" and is spelled by *omitting* the floor, not passing it).
    NonPositiveCadence,
}

impl std::fmt::Display for FilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterError::EmptyNodeSet => write!(f, "empty node set matches nothing"),
            FilterError::NonPositiveCadence => {
                write!(f, "cadence floor must be a positive interval")
            }
        }
    }
}

impl std::error::Error for FilterError {}

/// What a subscriber wants to see.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubscriptionFilter {
    /// Only samples attributed to this job.
    pub job: Option<JobId>,
    /// Only samples from these ranks.
    pub nodes: Option<Vec<u32>>,
    /// Per-node cadence floor in microseconds: deltas for a node are
    /// delivered at most once per interval (downsampling for cheap
    /// dashboards). `0` delivers every sample.
    pub min_interval_us: u64,
}

impl SubscriptionFilter {
    /// Everything, at full rate.
    pub fn all() -> SubscriptionFilter {
        SubscriptionFilter::default()
    }

    /// Restrict to one job's nodes.
    pub fn with_job(mut self, job: JobId) -> Self {
        self.job = Some(job);
        self
    }

    /// Restrict to an explicit rank set.
    pub fn with_nodes(mut self, nodes: Vec<u32>) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Restrict to an explicit rank set, rejecting an empty one —
    /// the validated form of [`with_nodes`](Self::with_nodes).
    pub fn try_with_nodes(self, nodes: Vec<u32>) -> Result<Self, FilterError> {
        if nodes.is_empty() {
            return Err(FilterError::EmptyNodeSet);
        }
        Ok(self.with_nodes(nodes))
    }

    /// Set the per-node cadence floor.
    pub fn with_min_interval_us(mut self, us: u64) -> Self {
        self.min_interval_us = us;
        self
    }

    /// Set the per-node cadence floor, rejecting zero or negative
    /// intervals — the validated form of
    /// [`with_min_interval_us`](Self::with_min_interval_us). Full-rate
    /// delivery is spelled by omitting the floor entirely.
    pub fn try_with_min_interval_us(self, us: i64) -> Result<Self, FilterError> {
        if us <= 0 {
            return Err(FilterError::NonPositiveCadence);
        }
        Ok(self.with_min_interval_us(us as u64))
    }

    /// Check that this filter can match at least some delta. The
    /// subscription service boundary rejects invalid filters with a
    /// typed error instead of registering a stream that stays silent
    /// forever.
    pub fn validate(&self) -> Result<(), FilterError> {
        if matches!(&self.nodes, Some(nodes) if nodes.is_empty()) {
            return Err(FilterError::EmptyNodeSet);
        }
        Ok(())
    }

    pub(crate) fn matches(&self, delta: &TelemetryDelta) -> bool {
        if let Some(job) = self.job {
            if delta.job != Some(job) {
                return false;
            }
        }
        if let Some(nodes) = &self.nodes {
            if !nodes.contains(&delta.node) {
                return false;
            }
        }
        true
    }
}

/// One state update fanned out to subscribers: the latest power sample
/// of one node, with job attribution resolved at the root — or, when
/// [`link`](TelemetryDelta::link) is set, the latest queueing health of
/// the overlay link whose child endpoint is `node`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDelta {
    /// Instance-global publication sequence number.
    pub seq: u64,
    /// Originating rank (the child endpoint for a link delta).
    pub node: u32,
    /// Sample timestamp, microseconds.
    pub timestamp_us: u64,
    /// Node power estimate, watts (`0.0` for a link delta).
    pub node_w: f64,
    /// The job running on the node at publish time, if any. Always
    /// `None` for a link delta, so job-filtered subscribers never see
    /// network telemetry they did not ask for.
    pub job: Option<JobId>,
    /// Set when this delta carries link health instead of node power.
    pub link: Option<LinkSample>,
}

/// Per-link queueing telemetry carried by a link [`TelemetryDelta`]:
/// one TBON edge's health under the bandwidth/bounded-FIFO link model,
/// keyed by the child endpoint (the delta's `node`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSample {
    /// Parent endpoint of the edge under the current topology.
    pub parent: u32,
    /// EWMA of per-crossing queueing + serialization delay (µs).
    pub ewma_delay_us: f64,
    /// EWMA of queue depth observed at arrival.
    pub ewma_depth: f64,
    /// Messages the link has delivered.
    pub delivered: u64,
    /// Messages tail-dropped by the link's bounded FIFO.
    pub congestion_drops: u64,
    /// Congestion-triggered re-parents this child's subtree has taken.
    pub reparents: u64,
}

/// Hub tuning: every subscriber is bounded by these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionConfig {
    /// Per-subscriber queue capacity. A full queue sheds its oldest
    /// delta per new arrival.
    pub queue_capacity: usize,
    /// Cumulative shed deltas after which a subscriber is evicted.
    pub evict_after_drops: u64,
}

impl Default for SubscriptionConfig {
    fn default() -> Self {
        SubscriptionConfig {
            queue_capacity: 64,
            evict_after_drops: 256,
        }
    }
}

/// A subscriber with a job or node filter, or a cadence floor: its own
/// bounded queue, filled delta by delta as each one is dispatched.
struct Queued {
    filter: SubscriptionFilter,
    queue: VecDeque<Arc<TelemetryDelta>>,
    /// Last delivered timestamp per node (cadence floor); allocated only
    /// when the filter has one. Link deltas have their own budget so a
    /// link report never starves the same rank's power stream.
    last_us: HashMap<u32, u64>,
    /// Cadence floor for link deltas, per child rank.
    last_link_us: HashMap<u32, u64>,
    /// Deltas shed because the queue was full.
    dropped: u64,
    /// Deltas handed out via poll.
    delivered: u64,
    /// Dispatch ignores deltas below this sequence number: a relay
    /// subscriber seeded from the root snapshot at horizon `H` must not
    /// see a stream copy of a delta its seed already covers (a delta in
    /// flight on the tree edge when the subscription widened it).
    floor_seq: u64,
}

/// A match-everything subscriber with no cadence floor: what is left of
/// its seed, and a position in the hub's log. Its queue is the seed
/// followed by the log from `from` to the head, cut to the newest
/// `queue_capacity` — exactly what a [`Queued`] subscriber with the
/// same filter would hold — so what it has shed is arithmetic.
struct Cursor {
    seed: VecDeque<Arc<TelemetryDelta>>,
    /// Log position of its oldest undelivered stream delta; `None` while
    /// the stream is still below `floor_seq`.
    from: Option<u64>,
    floor_seq: u64,
    /// Deltas shed as of the last [`Cursor::settle`].
    dropped: u64,
    delivered: u64,
    /// Log position of the delta whose arrival evicts it, as of the last
    /// settle.
    evict_at: u64,
}

impl Cursor {
    /// Queue length and cumulative drops with the log's head at `head`:
    /// each delta past the capacity shed the oldest one held.
    fn backlog(&self, head: u64, cap: usize) -> (u64, u64) {
        let stream = self.from.map_or(0, |from| head - from);
        let held = self.seed.len() as u64 + stream;
        let over = held.saturating_sub(cap as u64);
        (held - over, self.dropped + over)
    }

    /// Shed what [`Cursor::backlog`] counts: the seed's front first,
    /// then the stream's.
    fn settle(&mut self, head: u64, cap: usize) {
        let Some(from) = self.from else { return };
        let (_, dropped) = self.backlog(head, cap);
        let over = dropped - self.dropped;
        let from_seed = over.min(self.seed.len() as u64);
        self.seed.drain(..from_seed as usize);
        self.from = Some(from + over - from_seed);
        self.dropped = dropped;
    }

    /// The log position of the delta whose arrival takes the drops past
    /// `evict_after_drops`, counted from `head`: the room left in the
    /// queue, then the drops left before the threshold.
    fn eviction(&self, head: u64, config: &SubscriptionConfig) -> u64 {
        let (queued, dropped) = self.backlog(head, config.queue_capacity);
        head.saturating_add(config.queue_capacity as u64 - queued)
            .saturating_add(config.evict_after_drops.saturating_sub(dropped))
    }
}

/// Per-subscriber counters returned by [`TelemetryHub::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Deltas currently queued.
    pub queued: usize,
    /// Deltas shed to the bounded queue so far.
    pub dropped: u64,
    /// Deltas delivered via poll so far.
    pub delivered: u64,
}

/// The root agent's half of the plane: assigns every delta its global
/// sequence number and keeps the latest delta per node (and per link) —
/// the one authoritative snapshot a (re-)subscriber anywhere in the
/// tree is seeded from. Holds no subscribers; the stamped delta is
/// handed to a [`TelemetryHub`] for delivery.
#[derive(Default)]
pub struct TelemetrySequencer {
    /// Latest delta per node, indexed by node — the snapshot a
    /// (re-)subscriber resumes from. Nodes are ranks, so the table is
    /// dense.
    latest: Vec<Option<Arc<TelemetryDelta>>>,
    /// Latest link delta per child rank, indexed by rank and kept apart
    /// from `latest` so a link report never clobbers the same rank's
    /// power snapshot.
    latest_links: Vec<Option<Arc<TelemetryDelta>>>,
    next_seq: u64,
}

/// Record `delta` as the latest in `slots` at `at`, growing the table to
/// reach it.
fn keep_latest(slots: &mut Vec<Option<Arc<TelemetryDelta>>>, at: u32, delta: &Arc<TelemetryDelta>) {
    let at = at as usize;
    if at >= slots.len() {
        slots.resize(at + 1, None);
    }
    slots[at] = Some(Arc::clone(delta));
}

impl TelemetrySequencer {
    /// Stamp one power sample and record it as its node's latest.
    pub fn publish(
        &mut self,
        node: u32,
        timestamp_us: u64,
        node_w: f64,
        job: Option<JobId>,
    ) -> Arc<TelemetryDelta> {
        let delta = Arc::new(TelemetryDelta {
            seq: self.next_seq,
            node,
            timestamp_us,
            node_w,
            job,
            link: None,
        });
        self.next_seq += 1;
        keep_latest(&mut self.latest, node, &delta);
        delta
    }

    /// Stamp one link-health report for the TBON edge whose child
    /// endpoint is `child`. The delta carries `job = None`, so
    /// job-filtered subscribers never receive it, and its snapshot lives
    /// apart from the power snapshots so either kind of (re-)seed
    /// survives the other.
    pub fn publish_link(
        &mut self,
        child: u32,
        timestamp_us: u64,
        sample: LinkSample,
    ) -> Arc<TelemetryDelta> {
        let delta = Arc::new(TelemetryDelta {
            seq: self.next_seq,
            node: child,
            timestamp_us,
            node_w: 0.0,
            job: None,
            link: Some(sample),
        });
        self.next_seq += 1;
        keep_latest(&mut self.latest_links, child, &delta);
        delta
    }

    /// What a subscriber with `filter` starts from: the latest power
    /// sample per node, then the latest link sample per edge (both in
    /// node order), and the horizon — the next sequence number, which
    /// every delta in the seed is strictly below and every later one at
    /// or above. Flooring the subscriber's stream at the horizon is what
    /// makes the hand-off gap-free and duplicate-free.
    pub fn seed_for(&self, filter: &SubscriptionFilter) -> (Vec<Arc<TelemetryDelta>>, u64) {
        let seed = self
            .latest
            .iter()
            .chain(&self.latest_links)
            .flatten()
            .filter(|d| filter.matches(d))
            .cloned()
            .collect();
        (seed, self.next_seq)
    }

    /// The latest known sample for a node, if any.
    pub fn latest(&self, node: u32) -> Option<&Arc<TelemetryDelta>> {
        self.latest.get(node as usize)?.as_ref()
    }

    /// The latest link-health delta for the edge under `child`, if any.
    pub fn latest_link(&self, child: u32) -> Option<&Arc<TelemetryDelta>> {
        self.latest_links.get(child as usize)?.as_ref()
    }
}

/// A relay's half of the plane: the bounded queues of the subscribers
/// attached at one broker. See the module docs.
///
/// Deltas reach a hub in strictly increasing `seq` order (the relay's
/// ingest mark sees to it); that is what lets a subscriber's
/// `floor_seq` cut its stream at one log position.
pub struct TelemetryHub {
    config: SubscriptionConfig,
    queued: BTreeMap<SubscriberId, Queued>,
    /// The log and its cursor subscribers, built by the first cursor
    /// subscribe: most relays never serve one, and a fleet has one relay
    /// per rank.
    cursors: Option<Box<Cursors>>,
    /// One past the newest dispatched delta's `seq` (0 before the first).
    next_seq: u64,
    next_id: SubscriberId,
    fanned_out: u64,
    evicted: u64,
}

/// The filter of every cursor subscriber.
static ALL: SubscriptionFilter = SubscriptionFilter {
    job: None,
    nodes: None,
    min_interval_us: 0,
};

impl TelemetryHub {
    /// An empty hub.
    pub fn new(config: SubscriptionConfig) -> TelemetryHub {
        TelemetryHub {
            config,
            queued: BTreeMap::new(),
            cursors: None,
            next_seq: 0,
            next_id: 1,
            fanned_out: 0,
            evicted: 0,
        }
    }

    /// Register a subscriber. Its queue is seeded from `seed` (the
    /// root's [`TelemetrySequencer::seed_for`]), so the consumer starts
    /// from current state — and a consumer evicted for slowness loses
    /// nothing permanent by re-subscribing. Dispatch is floored at
    /// `floor_seq`: stream deltas below it are skipped because the seed
    /// already covers them.
    ///
    /// A match-everything subscriber with no cadence floor is a position
    /// in the hub's log; any other keeps a queue of its own.
    pub fn subscribe(
        &mut self,
        filter: SubscriptionFilter,
        seed: &[Arc<TelemetryDelta>],
        floor_seq: u64,
    ) -> SubscriberId {
        let id = self.next_id;
        self.next_id += 1;
        let cap = self.config.queue_capacity;
        // Seed sheds do not count toward eviction: a consumer whose
        // queue is smaller than the snapshot would otherwise start life
        // with a drop balance and be evicted on its first slow stretch —
        // or instantly, for small queues — making re-subscribe useless.
        let mut queue = VecDeque::new();
        for delta in seed.iter().filter(|d| filter.matches(d)) {
            if queue.len() >= cap {
                queue.pop_front();
            }
            queue.push_back(Arc::clone(delta));
        }
        // A zero-capacity queue still holds the newest delta, which no
        // cut of the log describes.
        if filter != ALL || cap == 0 {
            let sub = Queued {
                filter,
                queue,
                last_us: HashMap::new(),
                last_link_us: HashMap::new(),
                dropped: 0,
                delivered: 0,
                floor_seq,
            };
            self.queued.insert(id, sub);
            return id;
        }
        let cursors = self.cursors.get_or_insert_default();
        let cursor = Cursor {
            seed: queue,
            from: None,
            floor_seq,
            dropped: 0,
            delivered: 0,
            evict_at: 0,
        };
        cursors.subs.insert(id, cursor);
        // Every later delta is at or above the next seq.
        if floor_seq <= self.next_seq {
            cursors.reach(id, cursors.log.head, &self.config);
        } else {
            cursors.waiting.push(id);
        }
        id
    }

    /// Remove a subscriber. Returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> bool {
        if self.queued.remove(&id).is_some() {
            return true;
        }
        self.cursors
            .as_mut()
            .is_some_and(|c| c.unsubscribe(id, &self.config))
    }

    /// Fan one stamped delta out to every matching subscriber, applying
    /// the per-kind cadence floor. Returns the fan-out count (deliveries
    /// enqueued). Subscribers whose cumulative shed count crosses the
    /// eviction threshold are removed.
    pub fn dispatch(&mut self, delta: &Arc<TelemetryDelta>) -> usize {
        self.admit(std::slice::from_ref(delta), |log, keep| {
            log.push(delta, keep)
        })
    }

    /// [`dispatch`](TelemetryHub::dispatch) each delta of
    /// `batch[skip..]`, a relay batch off the wire, in order, and return
    /// the summed fan-out. The log keeps the batch's page whole — one
    /// reference-count bump, however many deltas and cursor subscribers
    /// — and only the filtered and cadence-floored subscribers are
    /// walked delta by delta.
    pub fn dispatch_batch(&mut self, batch: &SharedDeltas, skip: usize) -> usize {
        let fresh = batch.get(skip..).unwrap_or_default();
        if fresh.is_empty() {
            return 0;
        }
        self.admit(fresh, |log, keep| log.adopt(batch.page(), skip, keep))
    }

    /// Fan `fresh` out: to the cursor subscribers through the log, which
    /// `append` puts it into, and to each queued subscriber delta by
    /// delta.
    fn admit(
        &mut self,
        fresh: &[Arc<TelemetryDelta>],
        append: impl FnOnce(&mut DeltaLog, bool),
    ) -> usize {
        let mut fanout = 0;
        if let Some(cursors) = &mut self.cursors {
            let (taken, evicted) = cursors.admit(fresh, append, &self.config);
            fanout += taken;
            self.evicted += evicted;
        }
        if let Some(newest) = fresh.last() {
            self.next_seq = newest.seq + 1;
        }
        if !self.queued.is_empty() {
            for delta in fresh {
                fanout += self.dispatch_queued(delta);
            }
        }
        self.fanned_out += fanout;
        fanout as usize
    }

    /// The queued subscribers' half of a dispatch.
    fn dispatch_queued(&mut self, delta: &Arc<TelemetryDelta>) -> u64 {
        let mut fanout = 0;
        let mut evict: Vec<SubscriberId> = Vec::new();
        for (&id, sub) in self.queued.iter_mut() {
            if delta.seq < sub.floor_seq || !sub.filter.matches(delta) {
                continue;
            }
            if sub.filter.min_interval_us > 0 {
                let budget = if delta.link.is_some() {
                    &mut sub.last_link_us
                } else {
                    &mut sub.last_us
                };
                if let Some(last) = budget.get(&delta.node).copied() {
                    if delta.timestamp_us < last.saturating_add(sub.filter.min_interval_us) {
                        continue;
                    }
                }
                budget.insert(delta.node, delta.timestamp_us);
            }
            if sub.queue.len() >= self.config.queue_capacity {
                sub.queue.pop_front();
                sub.dropped += 1;
            }
            sub.queue.push_back(Arc::clone(delta));
            fanout += 1;
            if sub.dropped > self.config.evict_after_drops {
                evict.push(id);
            }
        }
        for id in evict {
            self.queued.remove(&id);
            self.evicted += 1;
        }
        fanout
    }

    /// Drain up to `max` pending deltas for a subscriber, oldest first,
    /// with its cumulative shed count. `None` when the subscriber is
    /// unknown — never registered, already unsubscribed, or evicted for
    /// slowness (the caller re-subscribes and resumes from the latest
    /// snapshot). A cursor subscriber's deltas are runs of the log's
    /// pages.
    pub fn poll(
        &mut self,
        id: SubscriberId,
        max: usize,
    ) -> Option<(Runs<Arc<TelemetryDelta>>, u64)> {
        let Some(sub) = self.queued.get_mut(&id) else {
            return self.cursors.as_mut()?.poll(id, max, &self.config);
        };
        let n = max.min(sub.queue.len());
        sub.delivered += n as u64;
        let page: Arc<[_]> = sub.queue.drain(..n).collect();
        Some((Runs::from(page), sub.dropped))
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.queued.len() + self.cursors.as_ref().map_or(0, |c| c.subs.len())
    }

    /// The live subscribers' filters, in subscription order — what a
    /// relay unions (with child aggregates) into the filter it
    /// advertises up its TBON edge.
    pub fn filters(&self) -> impl Iterator<Item = &SubscriptionFilter> {
        let mut queued = self.queued.iter().peekable();
        let mut cursors = self.cursors.iter().flat_map(|c| c.subs.keys()).peekable();
        std::iter::from_fn(move || match (queued.peek(), cursors.peek()) {
            (Some(&(q, _)), Some(&c)) if c < q => cursors.next().map(|_| &ALL),
            (None, Some(_)) => cursors.next().map(|_| &ALL),
            _ => queued.next().map(|(_, sub)| &sub.filter),
        })
    }

    /// Counters for one subscriber.
    pub fn stats(&self, id: SubscriberId) -> Option<SubscriberStats> {
        let Some(sub) = self.queued.get(&id) else {
            return self.cursors.as_ref()?.stats(id, &self.config);
        };
        Some(SubscriberStats {
            queued: sub.queue.len(),
            dropped: sub.dropped,
            delivered: sub.delivered,
        })
    }

    /// Total deliveries enqueued across all subscribers.
    pub fn fanned_out(&self) -> u64 {
        self.fanned_out
    }

    /// Subscribers evicted for falling too far behind.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub::new(SubscriptionConfig::default())
    }
}

/// A hub's cursor subscribers and the log they read.
#[derive(Default)]
struct Cursors {
    subs: BTreeMap<SubscriberId, Cursor>,
    log: DeltaLog,
    /// `(evict_at, id)` of every subscriber the stream has reached,
    /// soonest first.
    evictions: BTreeSet<(u64, SubscriberId)>,
    /// `(from, id)` of the same subscribers: the oldest position one of
    /// them may still read.
    positions: BTreeSet<(u64, SubscriberId)>,
    /// Subscribers whose `floor_seq` the stream has not reached.
    waiting: Vec<SubscriberId>,
    /// Where a poll reply's runs are lined up before their one
    /// allocation.
    lineup: Vec<Run<Arc<TelemetryDelta>>>,
}

impl Cursors {
    /// Start subscriber `id`'s stream at log position `at`.
    fn reach(&mut self, id: SubscriberId, at: u64, config: &SubscriptionConfig) {
        let Some(cursor) = self.subs.get_mut(&id) else {
            return;
        };
        cursor.from = Some(at);
        cursor.evict_at = cursor.eviction(at, config);
        self.positions.insert((at, id));
        self.evictions.insert((cursor.evict_at, id));
    }

    fn unsubscribe(&mut self, id: SubscriberId, config: &SubscriptionConfig) -> bool {
        let Some(cursor) = self.subs.remove(&id) else {
            return false;
        };
        match cursor.from {
            Some(from) => {
                self.positions.remove(&(from, id));
                self.evictions.remove(&(cursor.evict_at, id));
                self.trim(config);
            }
            None => self.waiting.retain(|&w| w != id),
        }
        true
    }

    /// Append `fresh` to the log with `append` and count what the
    /// subscribers take of it: all of it for one the stream had reached,
    /// the part from its floor on for one it reaches now, each up to the
    /// delta that evicts it. Returns the fan-out and the evictions.
    fn admit(
        &mut self,
        fresh: &[Arc<TelemetryDelta>],
        append: impl FnOnce(&mut DeltaLog, bool),
        config: &SubscriptionConfig,
    ) -> (u64, u64) {
        let mut fanout = self.positions.len() as u64 * fresh.len() as u64;
        if !self.waiting.is_empty() {
            fanout += self.reach_waiting(fresh, config);
        }
        append(&mut self.log, !self.subs.is_empty());
        let head = self.log.head;
        let mut evicted = 0;
        while let Some(&(at, id)) = self.evictions.first().filter(|(at, _)| *at < head) {
            self.evictions.pop_first();
            if let Some(from) = self.subs.remove(&id).and_then(|c| c.from) {
                self.positions.remove(&(from, id));
            }
            evicted += 1;
            // It took every delta up to the one that evicted it.
            fanout -= head - 1 - at;
        }
        self.trim(config);
        (fanout, evicted)
    }

    /// Start the waiting subscribers whose floor `fresh` reaches, at the
    /// position it does; returns the deltas of `fresh` they take.
    fn reach_waiting(&mut self, fresh: &[Arc<TelemetryDelta>], config: &SubscriptionConfig) -> u64 {
        let mut taken = 0;
        let head = self.log.head;
        let mut waiting = std::mem::take(&mut self.waiting);
        waiting.retain(|&id| {
            let floor = self.subs.get(&id).map_or(0, |c| c.floor_seq);
            let skip = fresh.partition_point(|d| d.seq < floor);
            if skip == fresh.len() {
                return true;
            }
            taken += (fresh.len() - skip) as u64;
            self.reach(id, head + skip as u64, config);
            false
        });
        self.waiting = waiting;
        taken
    }

    /// Drop what no subscriber can read any more: everything before the
    /// oldest position, and everything more than a queue's capacity
    /// behind the head.
    fn trim(&mut self, config: &SubscriptionConfig) {
        let head = self.log.head;
        let to = self.positions.first().map_or(head, |&(from, _)| {
            from.max(head.saturating_sub(config.queue_capacity as u64))
        });
        self.log.trim(to);
    }

    fn poll(
        &mut self,
        id: SubscriberId,
        max: usize,
        config: &SubscriptionConfig,
    ) -> Option<(Runs<Arc<TelemetryDelta>>, u64)> {
        let head = self.log.head;
        let cursor = self.subs.get_mut(&id)?;
        if let Some(from) = cursor.from {
            self.positions.remove(&(from, id));
            self.evictions.remove(&(cursor.evict_at, id));
            cursor.settle(head, config.queue_capacity);
        }
        let from_seed = max.min(cursor.seed.len());
        if from_seed > 0 {
            let page = cursor.seed.drain(..from_seed).collect();
            self.lineup.push(Run::Page {
                page,
                start: 0,
                end: from_seed,
            });
            if cursor.seed.is_empty() {
                // A seed is read once: its storage need not outlive it.
                cursor.seed = VecDeque::new();
            }
        }
        let mut taken = from_seed as u64;
        if let Some(from) = cursor.from {
            let n = ((max - from_seed) as u64).min(head - from);
            self.log.read(from, n, &mut self.lineup);
            cursor.from = Some(from + n);
            cursor.evict_at = cursor.eviction(head, config);
            self.positions.insert((from + n, id));
            self.evictions.insert((cursor.evict_at, id));
            taken += n;
        }
        cursor.delivered += taken;
        let dropped = cursor.dropped;
        self.trim(config);
        Some((Runs::from_lineup(&mut self.lineup), dropped))
    }

    fn stats(&self, id: SubscriberId, config: &SubscriptionConfig) -> Option<SubscriberStats> {
        let cursor = self.subs.get(&id)?;
        let (queued, dropped) = cursor.backlog(self.log.head, config.queue_capacity);
        Some(SubscriberStats {
            queued: queued as usize,
            dropped,
            delivered: cursor.delivered,
        })
    }
}

/// A hub's log: the deltas it admitted while it had a cursor subscriber,
/// oldest first, as ranges of shared pages. A relay batch off the wire
/// is kept as the page it arrived in; the root's hand-offs collect in an
/// open tail that becomes a page of its own when a poll reads into it.
/// Positions count every delta the hub admitted, kept or not.
#[derive(Default)]
struct DeltaLog {
    pages: VecDeque<LogPage>,
    /// Hand-offs not yet in a page, newest last.
    open: VecDeque<Arc<TelemetryDelta>>,
    /// One past the newest delta's position.
    head: u64,
}

/// `page[start..end]`, the deltas at positions `at..`.
struct LogPage {
    at: u64,
    page: Arc<[Arc<TelemetryDelta>]>,
    start: usize,
    end: usize,
}

impl LogPage {
    fn end_at(&self) -> u64 {
        self.at + (self.end - self.start) as u64
    }
}

impl DeltaLog {
    /// Append one hand-off; `keep` is false when no subscriber reads the
    /// log, and only the positions move.
    fn push(&mut self, delta: &Arc<TelemetryDelta>, keep: bool) {
        if keep {
            self.open.push_back(Arc::clone(delta));
        }
        self.head += 1;
    }

    /// Append `page[skip..]`, a relay batch, non-empty, as a page.
    fn adopt(&mut self, page: &Arc<[Arc<TelemetryDelta>]>, skip: usize, keep: bool) {
        if keep {
            self.seal();
            self.pages.push_back(LogPage {
                at: self.head,
                page: Arc::clone(page),
                start: skip,
                end: page.len(),
            });
        }
        self.head += (page.len() - skip) as u64;
    }

    /// Turn the open tail into a page (its storage is kept).
    fn seal(&mut self) {
        let n = self.open.len();
        if n == 0 {
            return;
        }
        let page = self.open.drain(..).collect();
        self.pages.push_back(LogPage {
            at: self.head - n as u64,
            page,
            start: 0,
            end: n,
        });
    }

    /// Drop every delta before position `to`.
    fn trim(&mut self, to: u64) {
        while let Some(page) = self.pages.front_mut() {
            if page.end_at() <= to {
                self.pages.pop_front();
                continue;
            }
            if page.at < to {
                page.start += (to - page.at) as usize;
                page.at = to;
            }
            break;
        }
        let open_at = self.head - self.open.len() as u64;
        if to > open_at {
            let n = (to - open_at).min(self.open.len() as u64);
            self.open.drain(..n as usize);
        }
    }

    /// Line up the `n` deltas from position `from` as runs of pages,
    /// sealing the open tail first if they reach into it.
    fn read(&mut self, from: u64, n: u64, lineup: &mut Vec<Run<Arc<TelemetryDelta>>>) {
        let end = from + n;
        if end > self.head - self.open.len() as u64 {
            self.seal();
        }
        let mut i = self.pages.partition_point(|p| p.end_at() <= from);
        let mut at = from;
        while at < end {
            let page = &self.pages[i];
            let start = page.start + (at - page.at) as usize;
            let stop = page.end.min(start + (end - at) as usize);
            lineup.push(Run::Page {
                page: Arc::clone(&page.page),
                start,
                end: stop,
            });
            at += (stop - start) as u64;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests;
