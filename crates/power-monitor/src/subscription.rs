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

use fluxpm_flux::JobId;
use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// Per-subscriber state: the filter, the bounded queue, and loss
/// accounting.
struct Subscriber {
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
pub struct TelemetryHub {
    config: SubscriptionConfig,
    subs: BTreeMap<SubscriberId, Subscriber>,
    next_id: SubscriberId,
    fanned_out: u64,
    evicted: u64,
}

impl TelemetryHub {
    /// An empty hub.
    pub fn new(config: SubscriptionConfig) -> TelemetryHub {
        TelemetryHub {
            config,
            subs: BTreeMap::new(),
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
    pub fn subscribe(
        &mut self,
        filter: SubscriptionFilter,
        seed: &[Arc<TelemetryDelta>],
        floor_seq: u64,
    ) -> SubscriberId {
        let id = self.next_id;
        self.next_id += 1;
        let mut sub = Subscriber {
            filter,
            queue: VecDeque::new(),
            last_us: HashMap::new(),
            last_link_us: HashMap::new(),
            dropped: 0,
            delivered: 0,
            floor_seq,
        };
        for delta in seed {
            if sub.filter.matches(delta) {
                // Seed sheds do not count toward eviction: a consumer
                // whose queue is smaller than the snapshot would
                // otherwise start life with a drop balance and be
                // evicted on its first slow stretch — or instantly,
                // for small queues — making re-subscribe useless.
                if sub.queue.len() >= self.config.queue_capacity {
                    sub.queue.pop_front();
                }
                sub.queue.push_back(Arc::clone(delta));
            }
        }
        self.subs.insert(id, sub);
        id
    }

    /// Remove a subscriber. Returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> bool {
        self.subs.remove(&id).is_some()
    }

    /// Fan one stamped delta out to every matching subscriber, applying
    /// the per-kind cadence floor. Returns the fan-out count (deliveries
    /// enqueued). Subscribers whose cumulative shed count crosses the
    /// eviction threshold are removed.
    pub fn dispatch(&mut self, delta: &Arc<TelemetryDelta>) -> usize {
        let mut fanout = 0usize;
        let mut evict: Vec<SubscriberId> = Vec::new();
        for (&id, sub) in self.subs.iter_mut() {
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
            Self::enqueue(&self.config, sub, delta);
            fanout += 1;
            if sub.dropped > self.config.evict_after_drops {
                evict.push(id);
            }
        }
        for id in evict {
            self.subs.remove(&id);
            self.evicted += 1;
        }
        self.fanned_out += fanout as u64;
        fanout
    }

    fn enqueue(config: &SubscriptionConfig, sub: &mut Subscriber, delta: &Arc<TelemetryDelta>) {
        if sub.queue.len() >= config.queue_capacity {
            sub.queue.pop_front();
            sub.dropped += 1;
        }
        sub.queue.push_back(Arc::clone(delta));
    }

    /// Drain up to `max` pending deltas for a subscriber, oldest first.
    /// `None` when the subscriber is unknown — never registered, already
    /// unsubscribed, or evicted for slowness (the caller re-subscribes
    /// and resumes from the latest snapshot).
    pub fn poll(
        &mut self,
        id: SubscriberId,
        max: usize,
    ) -> Option<(Vec<Arc<TelemetryDelta>>, u64)> {
        let sub = self.subs.get_mut(&id)?;
        let n = max.min(sub.queue.len());
        let deltas: Vec<Arc<TelemetryDelta>> = sub.queue.drain(..n).collect();
        sub.delivered += deltas.len() as u64;
        Some((deltas, sub.dropped))
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.subs.len()
    }

    /// The live subscribers' filters — what a relay unions (with child
    /// aggregates) into the filter it advertises up its TBON edge.
    pub fn filters(&self) -> impl Iterator<Item = &SubscriptionFilter> {
        self.subs.values().map(|s| &s.filter)
    }

    /// Counters for one subscriber.
    pub fn stats(&self, id: SubscriberId) -> Option<SubscriberStats> {
        self.subs.get(&id).map(|s| SubscriberStats {
            queued: s.queue.len(),
            dropped: s.dropped,
            delivered: s.delivered,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The root's sequencer feeding one hub, the way the root agent
    /// feeds its co-located relay: stamp, then dispatch; a subscriber is
    /// seeded from the sequencer and floored at its horizon.
    #[derive(Default)]
    struct Fed {
        seq: TelemetrySequencer,
        hub: TelemetryHub,
    }

    impl Fed {
        fn subscribe(&mut self, filter: SubscriptionFilter) -> SubscriberId {
            let (seed, horizon) = self.seq.seed_for(&filter);
            self.hub.subscribe(filter, &seed, horizon)
        }

        fn publish(&mut self, node: u32, ts: u64, node_w: f64, job: Option<JobId>) -> usize {
            let delta = self.seq.publish(node, ts, node_w, job);
            self.hub.dispatch(&delta)
        }

        fn publish_link(&mut self, child: u32, ts: u64, sample: LinkSample) -> usize {
            let delta = self.seq.publish_link(child, ts, sample);
            self.hub.dispatch(&delta)
        }
    }

    fn hub(cap: usize, evict: u64) -> Fed {
        Fed {
            seq: TelemetrySequencer::default(),
            hub: TelemetryHub::new(SubscriptionConfig {
                queue_capacity: cap,
                evict_after_drops: evict,
            }),
        }
    }

    #[test]
    fn filters_route_deltas() {
        let mut h = Fed::default();
        let all = h.subscribe(SubscriptionFilter::all());
        let job1 = h.subscribe(SubscriptionFilter::all().with_job(JobId(1)));
        let node2 = h.subscribe(SubscriptionFilter::all().with_nodes(vec![2]));

        assert_eq!(h.publish(0, 1_000, 100.0, None), 1); // all only
        assert_eq!(h.publish(2, 2_000, 200.0, Some(JobId(1))), 3); // everyone
        assert_eq!(h.publish(3, 3_000, 300.0, Some(JobId(9))), 1); // all only

        assert_eq!(h.hub.poll(all, usize::MAX).unwrap().0.len(), 3);
        assert_eq!(h.hub.poll(job1, usize::MAX).unwrap().0.len(), 1);
        let (d, dropped) = h.hub.poll(node2, usize::MAX).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 2);
        assert_eq!(d[0].job, Some(JobId(1)));
    }

    #[test]
    fn cadence_floor_downsamples_per_node() {
        let mut h = Fed::default();
        let slow = h.subscribe(SubscriptionFilter::all().with_min_interval_us(10_000));
        // Node 0 samples every 2 ms: only every 5th delivered.
        for i in 0..10u64 {
            h.publish(0, i * 2_000, 1.0, None);
        }
        // Cadence is per node: node 1 gets its own budget.
        h.publish(1, 1_000, 2.0, None);
        let (d, _) = h.hub.poll(slow, usize::MAX).unwrap();
        let node0: Vec<u64> = d
            .iter()
            .filter(|x| x.node == 0)
            .map(|x| x.timestamp_us)
            .collect();
        assert_eq!(node0, vec![0, 10_000], "next slot would be 20 ms");
        assert_eq!(d.iter().filter(|x| x.node == 1).count(), 1);
    }

    #[test]
    fn bounded_queue_sheds_oldest_then_evicts() {
        let mut h = hub(4, 6);
        let lazy = h.subscribe(SubscriptionFilter::all());
        // Never polled: 4 queued, then every publish sheds the oldest.
        for i in 0..10u64 {
            h.publish(0, i, 1.0, None);
        }
        let s = h.hub.stats(lazy).unwrap();
        assert_eq!(s.queued, 4);
        assert_eq!(s.dropped, 6, "10 published, 4 retained");
        // Crossing the eviction threshold removes the subscriber.
        h.publish(0, 10, 1.0, None);
        assert_eq!(h.hub.subscriber_count(), 0);
        assert_eq!(h.hub.evicted(), 1);
        assert!(
            h.hub.poll(lazy, 1).is_none(),
            "evicted subscriber is unknown"
        );
    }

    #[test]
    fn resubscribe_resumes_from_latest_snapshot() {
        let mut h = hub(2, 1);
        let lazy = h.subscribe(SubscriptionFilter::all());
        for node in 0..3u32 {
            for t in 0..4u64 {
                h.publish(node, 100 * node as u64 + t, node as f64, None);
            }
        }
        assert!(h.hub.poll(lazy, 1).is_none(), "evicted");
        // A fresh subscription starts from the latest sample per node,
        // not an empty stream and not the full history.
        let again = h.subscribe(SubscriptionFilter::all().with_nodes(vec![0, 2]));
        let (d, _) = h.hub.poll(again, usize::MAX).unwrap();
        let seen: Vec<(u32, u64)> = d.iter().map(|x| (x.node, x.timestamp_us)).collect();
        assert_eq!(seen, vec![(0, 3), (2, 203)]);
    }

    #[test]
    fn poll_drains_in_order_with_max() {
        let mut h = Fed::default();
        let s = h.subscribe(SubscriptionFilter::all());
        for i in 0..5u64 {
            h.publish(0, i, i as f64, None);
        }
        let (first, _) = h.hub.poll(s, 2).unwrap();
        assert_eq!(
            first.iter().map(|d| d.timestamp_us).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let (rest, _) = h.hub.poll(s, usize::MAX).unwrap();
        assert_eq!(rest.len(), 3);
        assert_eq!(h.hub.stats(s).unwrap().delivered, 5);
        assert_eq!(h.hub.fanned_out(), 5);
    }

    fn link(parent: u32, delay: f64) -> LinkSample {
        LinkSample {
            parent,
            ewma_delay_us: delay,
            ewma_depth: 0.5,
            delivered: 10,
            congestion_drops: 2,
            reparents: 0,
        }
    }

    #[test]
    fn link_deltas_fan_out_but_skip_job_filtered_subscribers() {
        let mut h = Fed::default();
        let all = h.subscribe(SubscriptionFilter::all());
        let job1 = h.subscribe(SubscriptionFilter::all().with_job(JobId(1)));
        let node2 = h.subscribe(SubscriptionFilter::all().with_nodes(vec![2]));

        // A job-scoped dashboard asked for job power, not network
        // internals — only the unfiltered and node-scoped consumers see
        // link health.
        assert_eq!(h.publish_link(2, 1_000, link(0, 140.0)), 2);
        let (d, _) = h.hub.poll(all, usize::MAX).unwrap();
        assert_eq!(d[0].link.unwrap().parent, 0);
        assert_eq!((d[0].node, d[0].job), (2, None));
        assert_eq!(h.hub.poll(job1, usize::MAX).unwrap().0.len(), 0);
        assert_eq!(h.hub.poll(node2, usize::MAX).unwrap().0.len(), 1);
    }

    #[test]
    fn link_snapshot_lives_apart_from_power_snapshot() {
        let mut h = Fed::default();
        h.publish(1, 1_000, 950.0, Some(JobId(7)));
        h.publish_link(1, 2_000, link(0, 80.0));

        // Rank 1 now has both a power and a link snapshot; neither
        // clobbered the other.
        assert_eq!(h.seq.latest(1).unwrap().node_w, 950.0);
        assert_eq!(h.seq.latest_link(1).unwrap().link.unwrap().parent, 0);

        // A fresh subscriber is seeded with both kinds.
        let s = h.subscribe(SubscriptionFilter::all());
        let (d, _) = h.hub.poll(s, usize::MAX).unwrap();
        let kinds: Vec<bool> = d.iter().map(|x| x.link.is_some()).collect();
        assert_eq!(kinds, vec![false, true]);
    }

    #[test]
    fn cadence_floor_budgets_power_and_link_streams_separately() {
        let mut h = Fed::default();
        let slow = h.subscribe(SubscriptionFilter::all().with_min_interval_us(10_000));
        // Interleaved power and link reports for the same rank within
        // one cadence window: one of each is delivered, because a link
        // report must not consume the power stream's budget.
        h.publish(3, 0, 1.0, None);
        h.publish_link(3, 1_000, link(0, 5.0));
        h.publish(3, 2_000, 1.0, None);
        h.publish_link(3, 3_000, link(0, 5.0));
        let (d, _) = h.hub.poll(slow, usize::MAX).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d[0].link.is_none());
        assert!(d[1].link.is_some());
    }

    #[test]
    fn unsubscribe_stops_fanout() {
        let mut h = Fed::default();
        let s = h.subscribe(SubscriptionFilter::all());
        assert!(h.hub.unsubscribe(s));
        assert!(!h.hub.unsubscribe(s));
        assert_eq!(h.publish(0, 1, 1.0, None), 0);
    }

    #[test]
    fn empty_node_set_is_rejected_with_typed_error() {
        assert_eq!(
            SubscriptionFilter::all().try_with_nodes(vec![]),
            Err(FilterError::EmptyNodeSet)
        );
        assert_eq!(
            SubscriptionFilter::all().with_nodes(vec![]).validate(),
            Err(FilterError::EmptyNodeSet)
        );
        assert!(SubscriptionFilter::all()
            .try_with_nodes(vec![3])
            .unwrap()
            .validate()
            .is_ok());
    }

    #[test]
    fn non_positive_cadence_is_rejected_with_typed_error() {
        assert_eq!(
            SubscriptionFilter::all().try_with_min_interval_us(0),
            Err(FilterError::NonPositiveCadence)
        );
        assert_eq!(
            SubscriptionFilter::all().try_with_min_interval_us(-5),
            Err(FilterError::NonPositiveCadence)
        );
        let f = SubscriptionFilter::all()
            .try_with_min_interval_us(10)
            .unwrap();
        assert_eq!(f.min_interval_us, 10);
    }

    #[test]
    fn seeding_sheds_do_not_count_toward_eviction() {
        // Queue capacity 1, eviction after 2 cumulative drops, and 4
        // nodes of snapshot state: seeding sheds 3 entries. Those sheds
        // must not pre-charge the drop balance, or the re-subscriber
        // would be evicted after its first two slow publishes.
        let mut h = hub(1, 2);
        for node in 0..4u32 {
            h.publish(node, 1_000 + node as u64, 1.0, None);
        }
        let s = h.subscribe(SubscriptionFilter::all());
        assert_eq!(h.hub.stats(s).unwrap().dropped, 0, "seed sheds are free");
        // Two unpolled publishes shed two queued deltas — at the
        // threshold but not over it; the subscriber survives.
        h.publish(0, 2_000, 1.0, None);
        h.publish(1, 2_001, 1.0, None);
        assert_eq!(h.hub.stats(s).unwrap().dropped, 2);
        assert_eq!(h.hub.subscriber_count(), 1);
        // The next shed crosses the threshold for real slowness.
        h.publish(2, 2_002, 1.0, None);
        assert_eq!(h.hub.subscriber_count(), 0);
    }

    #[test]
    fn ingest_updates_snapshots_and_respects_floor_seq() {
        let mut root = TelemetrySequencer::default();
        let mut relay = hub(8, 64).hub;
        // Root publishes two deltas; a relay subscriber seeded at the
        // horizon skips stream copies below it but sees later ones.
        let d0 = root.publish(0, 1_000, 10.0, None);
        let d1 = root.publish(1, 1_001, 11.0, None);
        let (seed, horizon) = root.seed_for(&SubscriptionFilter::all());
        assert_eq!(seed.len(), 2);
        let s = relay.subscribe(SubscriptionFilter::all(), &seed, horizon);
        // In-flight duplicates of the seeded deltas arrive late.
        relay.dispatch(&d0);
        relay.dispatch(&d1);
        let d2 = root.publish(0, 2_000, 12.0, None);
        relay.dispatch(&d2);
        let (got, _) = relay.poll(s, usize::MAX).unwrap();
        let seqs: Vec<u64> = got.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "seed, then only post-horizon stream");
    }
}
