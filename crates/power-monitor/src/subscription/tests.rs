#![cfg(test)]
//! Unit tests of the sequencer and the hub, and a proptest holding the
//! hub's log and cursor subscribers to [`QueueHub`], the hub as it was
//! before them: one queue per subscriber, filled delta by delta.

use super::*;
use proptest::prelude::*;

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

// ---------------------------------------------------------------------------
// The cursor hub against the queue hub
// ---------------------------------------------------------------------------

/// One queue per subscriber, every delta pushed into every matching
/// queue: the hub before its log. Test-only, it is the oracle the
/// cursor subscribers are held to.
struct QueueHub {
    config: SubscriptionConfig,
    subs: BTreeMap<SubscriberId, Queued>,
    next_id: SubscriberId,
    fanned_out: u64,
    evicted: u64,
}

impl QueueHub {
    fn new(config: SubscriptionConfig) -> QueueHub {
        QueueHub {
            config,
            subs: BTreeMap::new(),
            next_id: 1,
            fanned_out: 0,
            evicted: 0,
        }
    }

    fn subscribe(
        &mut self,
        filter: SubscriptionFilter,
        seed: &[Arc<TelemetryDelta>],
        floor_seq: u64,
    ) -> SubscriberId {
        let id = self.next_id;
        self.next_id += 1;
        let mut queue = VecDeque::new();
        for delta in seed.iter().filter(|d| filter.matches(d)) {
            if queue.len() >= self.config.queue_capacity {
                queue.pop_front();
            }
            queue.push_back(Arc::clone(delta));
        }
        let sub = Queued {
            filter,
            queue,
            last_us: HashMap::new(),
            last_link_us: HashMap::new(),
            dropped: 0,
            delivered: 0,
            floor_seq,
        };
        self.subs.insert(id, sub);
        id
    }

    fn unsubscribe(&mut self, id: SubscriberId) -> bool {
        self.subs.remove(&id).is_some()
    }

    fn dispatch(&mut self, delta: &Arc<TelemetryDelta>) -> usize {
        let mut fanout = 0;
        let mut evict = Vec::new();
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
            self.subs.remove(&id);
            self.evicted += 1;
        }
        self.fanned_out += fanout as u64;
        fanout
    }

    fn poll(&mut self, id: SubscriberId, max: usize) -> Option<(Vec<Arc<TelemetryDelta>>, u64)> {
        let sub = self.subs.get_mut(&id)?;
        let n = max.min(sub.queue.len());
        let deltas: Vec<_> = sub.queue.drain(..n).collect();
        sub.delivered += n as u64;
        Some((deltas, sub.dropped))
    }

    fn stats(&self, id: SubscriberId) -> Option<SubscriberStats> {
        self.subs.get(&id).map(|s| SubscriberStats {
            queued: s.queue.len(),
            dropped: s.dropped,
            delivered: s.delivered,
        })
    }
}

/// What a hub is asked to do, as a relay's life drives it.
#[derive(Debug, Clone)]
enum HubOp {
    /// `kind`: 0–2 match everything (the cursor path), 3 a job, 4 a node
    /// set, 5 a cadence floor. The seed is the newest `seed` deltas made
    /// so far; the floor sits `floor` below (negative) or above the next
    /// seq.
    Subscribe {
        kind: u8,
        seed: usize,
        floor: i64,
    },
    /// A relay batch: `stale` deltas already made (below the ingest
    /// mark, skipped), then `fresh` new ones, each `gap` seqs apart.
    Arrive {
        stale: usize,
        fresh: usize,
        gap: u64,
    },
    /// One root hand-off, `gap` seqs past the last.
    HandOff {
        gap: u64,
    },
    Poll {
        sub: usize,
        max: usize,
    },
    Unsubscribe {
        sub: usize,
    },
}

fn hub_op() -> impl Strategy<Value = HubOp> {
    prop_oneof![
        2 => (0u8..6, 0usize..6, -3i64..4)
            .prop_map(|(kind, seed, floor)| HubOp::Subscribe { kind, seed, floor }),
        4 => (0usize..3, 0usize..7, 1u64..3)
            .prop_map(|(stale, fresh, gap)| HubOp::Arrive { stale, fresh, gap }),
        3 => (1u64..3).prop_map(|gap| HubOp::HandOff { gap }),
        3 => (0usize..8, 0usize..9).prop_map(|(sub, max)| HubOp::Poll { sub, max }),
        1 => (0usize..8).prop_map(|sub| HubOp::Unsubscribe { sub }),
    ]
}

fn filter_of(kind: u8) -> SubscriptionFilter {
    match kind {
        3 => SubscriptionFilter::all().with_job(JobId(1)),
        4 => SubscriptionFilter::all().with_nodes(vec![0, 2]),
        5 => SubscriptionFilter::all().with_min_interval_us(3),
        _ => SubscriptionFilter::all(),
    }
}

fn same_deltas(got: &Runs<Arc<TelemetryDelta>>, want: &[Arc<TelemetryDelta>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| Arc::ptr_eq(a, b))
}

proptest! {
    /// A hub with cursor subscribers answers every call exactly as the
    /// queue hub does — poll contents (the very deltas), `dropped`,
    /// every subscriber's counters, the fan-out of each dispatch,
    /// evictions, `fanned_out` and the filters' order — over random
    /// interleavings of subscribes (floored below and above the stream),
    /// relay batches with stale prefixes, hand-offs, polls and
    /// unsubscribes, at small capacities and eviction thresholds.
    #[test]
    fn cursor_hub_matches_the_queue_hub(
        cap in 0usize..5,
        evict in 0u64..7,
        ops in prop::collection::vec(hub_op(), 0..80),
    ) {
        let config = SubscriptionConfig { queue_capacity: cap, evict_after_drops: evict };
        let mut hub = TelemetryHub::new(config);
        let mut oracle = QueueHub::new(config);
        let mut made: Vec<Arc<TelemetryDelta>> = Vec::new();
        let mut ids: Vec<SubscriberId> = Vec::new();
        let mut next_seq = 0u64;
        let mut ts = 0u64;
        let mut make = |gap: u64, made: &mut Vec<Arc<TelemetryDelta>>| {
            next_seq += gap - 1;
            ts += 1 + next_seq % 2;
            let d = Arc::new(TelemetryDelta {
                seq: next_seq,
                node: (next_seq % 4) as u32,
                timestamp_us: ts,
                node_w: 1.0,
                job: (!next_seq.is_multiple_of(3)).then_some(JobId(next_seq % 2)),
                link: None,
            });
            next_seq += 1;
            made.push(Arc::clone(&d));
            d
        };
        for op in &ops {
            match *op {
                HubOp::Subscribe { kind, seed, floor } => {
                    let seed = &made[made.len().saturating_sub(seed)..];
                    let next = made.last().map_or(0, |d| d.seq + 1);
                    let floor = next.saturating_add_signed(floor);
                    let a = hub.subscribe(filter_of(kind), seed, floor);
                    let b = oracle.subscribe(filter_of(kind), seed, floor);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
                HubOp::Arrive { stale, fresh, gap } => {
                    let mut batch = made[made.len().saturating_sub(stale)..].to_vec();
                    let skip = batch.len();
                    for _ in 0..fresh {
                        batch.push(make(gap, &mut made));
                    }
                    let want: usize = batch[skip..].iter().map(|d| oracle.dispatch(d)).sum();
                    let batch: SharedDeltas = batch.into_iter().collect();
                    prop_assert_eq!(hub.dispatch_batch(&batch, skip), want);
                }
                HubOp::HandOff { gap } => {
                    let d = make(gap, &mut made);
                    prop_assert_eq!(hub.dispatch(&d), oracle.dispatch(&d));
                }
                HubOp::Poll { sub, max } => {
                    let Some(&id) = ids.get(sub) else { continue };
                    let got = hub.poll(id, max);
                    let want = oracle.poll(id, max);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some((got, a)), Some((want, b))) = (got, want) {
                        prop_assert!(same_deltas(&got, &want), "{:?} != {:?}", got, want);
                        prop_assert_eq!(a, b);
                    }
                }
                HubOp::Unsubscribe { sub } => {
                    let Some(&id) = ids.get(sub) else { continue };
                    prop_assert_eq!(hub.unsubscribe(id), oracle.unsubscribe(id));
                }
            }
            for &id in &ids {
                prop_assert_eq!(hub.stats(id), oracle.stats(id), "subscriber {}", id);
            }
            prop_assert_eq!(hub.subscriber_count(), oracle.subs.len());
            prop_assert_eq!(hub.fanned_out(), oracle.fanned_out);
            prop_assert_eq!(hub.evicted(), oracle.evicted);
            let filters: Vec<_> = hub.filters().collect();
            let want: Vec<_> = oracle.subs.values().map(|s| &s.filter).collect();
            prop_assert_eq!(filters, want);
        }
    }
}

/// The log keeps nothing a cursor subscriber cannot read: with no cursor
/// subscriber it holds nothing, and behind one that never polls it holds
/// at most a queue's capacity past one page.
#[test]
fn the_log_is_trimmed_to_the_oldest_cursor() {
    let config = SubscriptionConfig {
        queue_capacity: 8,
        evict_after_drops: u64::MAX,
    };
    let mut hub = TelemetryHub::new(config);
    let batch = |from: u64| -> SharedDeltas {
        (from..from + 4)
            .map(|seq| {
                Arc::new(TelemetryDelta {
                    seq,
                    node: seq as u32,
                    timestamp_us: seq,
                    node_w: 1.0,
                    job: None,
                    link: None,
                })
            })
            .collect()
    };
    hub.dispatch_batch(&batch(0), 0);
    assert!(hub.cursors.is_none(), "no reader, nothing kept");
    let lazy = hub.subscribe(SubscriptionFilter::all(), &[], 0);
    let eager = hub.subscribe(SubscriptionFilter::all(), &[], 0);
    for i in 1..10 {
        hub.dispatch_batch(&batch(4 * i), 0);
        let (got, _) = hub.poll(eager, usize::MAX).expect("live");
        assert_eq!(got.len(), 4);
        let log = &hub.cursors.as_ref().expect("cursor subscribers").log;
        let held: usize = log.pages.iter().map(|p| p.end - p.start).sum();
        assert!(held <= 8 + 4, "batch {i}: {held} held");
    }
    let (got, dropped) = hub.poll(lazy, usize::MAX).expect("live");
    assert_eq!(got.len(), 8);
    assert_eq!(dropped, 28);
    assert_eq!(got.first().map(|d| d.seq), Some(32));
    hub.unsubscribe(lazy);
    hub.unsubscribe(eager);
    let log = &hub.cursors.as_ref().expect("built").log;
    assert!(log.pages.is_empty() && log.open.is_empty());
}

/// A poll reads a relay batch out of the page it arrived in: one run per
/// page, the very slice the relay was sent, and a hand-off tail becomes
/// a page of its own when a poll reads into it.
#[test]
fn a_poll_reply_shares_the_pages_it_reads() {
    let mut hub = TelemetryHub::default();
    let delta = |seq: u64| {
        Arc::new(TelemetryDelta {
            seq,
            node: 0,
            timestamp_us: seq,
            node_w: 1.0,
            job: None,
            link: None,
        })
    };
    let seed = [delta(0)];
    let sub = hub.subscribe(SubscriptionFilter::all(), &seed, 1);
    let first: SharedDeltas = (0..3).map(delta).collect();
    let second: SharedDeltas = (3..6).map(delta).collect();
    assert_eq!(
        hub.dispatch_batch(&first, 1),
        2,
        "the stale prefix is skipped"
    );
    assert_eq!(hub.dispatch_batch(&second, 0), 3);
    hub.dispatch(&delta(6));
    hub.dispatch(&delta(7));
    let (got, dropped) = hub.poll(sub, 7).expect("live");
    assert_eq!(dropped, 0);
    let seqs: Vec<u64> = got.iter().map(|d| d.seq).collect();
    assert_eq!(seqs, [0, 1, 2, 3, 4, 5, 6]);
    let (pages, cloned) = got.sharing();
    assert_eq!(cloned, 0);
    let sizes: Vec<usize> = pages.iter().map(|(_, n)| *n).collect();
    assert_eq!(sizes, [1, 2, 3, 1], "seed, two batches, the sealed tail");
    assert!(Arc::ptr_eq(pages[1].0, first.page()));
    assert!(Arc::ptr_eq(pages[2].0, second.page()));
    let (rest, _) = hub.poll(sub, 7).expect("live");
    assert_eq!(rest.iter().map(|d| d.seq).collect::<Vec<_>>(), [7]);
    assert!(
        Arc::ptr_eq(rest.sharing().0[0].0, pages[3].0),
        "the same tail page"
    );
}
