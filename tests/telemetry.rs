//! Subscription/push telemetry, end to end — the fan-out tentpole.
//!
//! Node agents push their newest sample to the root on a configurable
//! cadence; the root agent's `TelemetrySequencer` stamps each one and
//! the serving relay's `TelemetryHub` fans the deltas out to bounded
//! per-subscriber queues. These tests drive the full in-sim lifecycle
//! over the RPC surface (`MonitorQuery::subscribe/poll/unsubscribe`):
//! register → receive ordered deltas → fall behind and get evicted →
//! re-subscribe and resume from the latest-per-node snapshot.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use fluxpm::experiments::Scenario;
use fluxpm::flux::{FluxEngine, JobSpec, World};
use fluxpm::hw::MachineKind;
use fluxpm::monitor::{
    DeltaBatch, MonitorConfig, MonitorQuery, QueryHandle, SubscriberId, SubscriptionConfig,
    SubscriptionFilter, TelemetryHub, TelemetrySequencer,
};
use fluxpm::sim::{SimDuration, SimTime};
use fluxpm::workloads::{laghos, App, JitterModel};

/// A 4-node world with sample pushes every 2 s and one long job, so
/// telemetry flows for the whole observation window.
fn pushing_world(config: MonitorConfig) -> (World, FluxEngine) {
    let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(37)
        .with_monitor(config)
        .build();
    w.submit(
        &mut eng,
        JobSpec::new("Laghos", 4),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 4, 9, JitterModel::none())
                .with_work_seconds(500.0),
        ),
    );
    (w, eng)
}

type Slot<T> = Rc<RefCell<Option<T>>>;

fn slot<T>() -> Slot<T> {
    Rc::new(RefCell::new(None))
}

#[test]
fn subscription_lifecycle_over_rpc() {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));

    // t=5: register a subscriber over the wire.
    let sub_q: Slot<QueryHandle> = slot();
    {
        let s = Rc::clone(&sub_q);
        eng.schedule(SimTime::from_secs(5), move |w: &mut World, eng| {
            let filter = SubscriptionFilter::all();
            *s.borrow_mut() = Some(MonitorQuery::subscribe(filter).send(w, eng));
        });
    }

    // t=15: drain the queue; ~5 push rounds x 4 nodes have landed.
    let first_poll: Slot<DeltaBatch> = slot();
    let sub_id: Slot<SubscriberId> = slot();
    {
        let (s, id, out) = (
            Rc::clone(&sub_q),
            Rc::clone(&sub_id),
            Rc::clone(&first_poll),
        );
        eng.schedule(SimTime::from_secs(15), move |w: &mut World, eng| {
            let sub = s
                .borrow()
                .as_ref()
                .expect("subscribe sent")
                .subscription()
                .expect("subscribe answered")
                .expect("subscribe succeeded");
            *id.borrow_mut() = Some(sub);
            let q = MonitorQuery::poll(sub, 1024).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(15_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = Some(q.deltas().expect("poll answered").expect("poll ok"));
                },
            );
        });
    }

    // t=20: unsubscribe; t=21: a poll for the dead id must error.
    let dead_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let id = Rc::clone(&sub_id);
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            let sub = id.borrow().expect("id resolved");
            MonitorQuery::unsubscribe(sub).send(w, eng);
        });
        let (id, out) = (Rc::clone(&sub_id), Rc::clone(&dead_poll));
        eng.schedule(SimTime::from_secs(21), move |w: &mut World, eng| {
            let sub = id.borrow().expect("id resolved");
            let q = MonitorQuery::poll(sub, 16).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(21_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
    }

    // t=25: re-subscribe. The new queue is seeded from the hub's
    // latest-per-node snapshot, so a poll *before the next push round*
    // already holds one delta per node.
    let reseed_poll: Slot<DeltaBatch> = slot();
    {
        let out = Rc::clone(&reseed_poll);
        eng.schedule(
            SimTime::from_micros(25_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all()).send(w, eng);
                let out = Rc::clone(&out);
                eng.schedule(
                    SimTime::from_micros(25_500_000),
                    move |w: &mut World, eng| {
                        let sub = q
                            .subscription()
                            .expect("re-subscribe answered")
                            .expect("re-subscribe ok");
                        let q = MonitorQuery::poll(sub, 16).send(w, eng);
                        let out = Rc::clone(&out);
                        eng.schedule(
                            SimTime::from_micros(25_900_000),
                            move |_w: &mut World, _| {
                                *out.borrow_mut() =
                                    Some(q.deltas().expect("poll answered").expect("poll ok"));
                            },
                        );
                    },
                );
            },
        );
    }

    eng.run_until(&mut w, SimTime::from_secs(30));

    // First drain: non-empty, lossless, strictly ordered, all 4 nodes.
    let batch = first_poll.borrow().clone().expect("first poll resolved");
    assert!(!batch.deltas.is_empty(), "deltas flowed by t=15");
    assert_eq!(batch.dropped, 0, "no loss at this cadence");
    assert!(
        batch
            .deltas
            .iter()
            .zip(batch.deltas.iter().skip(1))
            .all(|(a, b)| a.seq < b.seq),
        "deltas arrive in publication order"
    );
    let nodes: BTreeSet<u32> = batch.deltas.iter().map(|d| d.node).collect();
    assert_eq!(nodes.len(), 4, "every node's pushes reached the hub");
    assert!(
        batch.deltas.iter().all(|d| d.job.is_some()),
        "deltas carry job attribution while the job runs"
    );

    // Dead-id poll: a typed error, not a hang or empty batch.
    let err = dead_poll
        .borrow()
        .clone()
        .expect("dead poll resolved")
        .expect_err("polling an unsubscribed id errors");
    assert!(err.contains("unknown subscriber"), "got: {err}");

    // Re-subscribe resumed from the snapshot: one delta per node,
    // without waiting for a fresh push round.
    let batch = reseed_poll.borrow().clone().expect("re-seed poll resolved");
    let nodes: Vec<u32> = batch.deltas.iter().map(|d| d.node).collect();
    let unique: BTreeSet<u32> = nodes.iter().copied().collect();
    assert_eq!(
        (nodes.len(), unique.len()),
        (4, 4),
        "snapshot seeds exactly one latest delta per node: {nodes:?}"
    );
}

/// A subscriber that never polls overruns its bounded queue and is
/// evicted once its cumulative drops pass the configured threshold —
/// the hub protects itself, the consumer finds out at the next poll.
#[test]
fn slow_subscriber_is_evicted_and_can_resubscribe() {
    let (mut w, mut eng) = pushing_world(
        MonitorConfig::default()
            .with_push_interval(SimDuration::from_secs(2))
            .with_subscriber_queue_capacity(2)
            .with_subscriber_evict_after_drops(3),
    );

    let sub_id: Slot<SubscriberId> = slot();
    {
        let id = Rc::clone(&sub_id);
        eng.schedule(SimTime::from_secs(2), move |w: &mut World, eng| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all()).send(w, eng);
            let id = Rc::clone(&id);
            eng.schedule(SimTime::from_secs(3), move |_w: &mut World, _| {
                *id.borrow_mut() = Some(q.subscription().unwrap().unwrap());
            });
        });
    }

    // By t=20, ~9 push rounds x 4 nodes >> capacity 2 + threshold 3:
    // the subscriber is long gone. Its poll errors; a fresh subscribe
    // still works and polls cleanly.
    let evicted_poll: Slot<Result<DeltaBatch, String>> = slot();
    let fresh_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let (id, out) = (Rc::clone(&sub_id), Rc::clone(&evicted_poll));
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            let sub = id.borrow().expect("id resolved");
            let q = MonitorQuery::poll(sub, 16).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(20_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
        let out = Rc::clone(&fresh_poll);
        eng.schedule(SimTime::from_secs(21), move |w: &mut World, eng| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all()).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(21_500_000),
                move |w: &mut World, eng| {
                    let sub = q.subscription().unwrap().unwrap();
                    let q = MonitorQuery::poll(sub, 16).send(w, eng);
                    let out = Rc::clone(&out);
                    eng.schedule(
                        SimTime::from_micros(21_900_000),
                        move |_w: &mut World, _| {
                            *out.borrow_mut() = q.deltas();
                        },
                    );
                },
            );
        });
    }

    eng.run_until(&mut w, SimTime::from_secs(25));

    let err = evicted_poll
        .borrow()
        .clone()
        .expect("evicted poll resolved")
        .expect_err("evicted subscriber's poll errors");
    assert!(err.contains("unknown subscriber"), "got: {err}");
    let batch = fresh_poll
        .borrow()
        .clone()
        .expect("fresh poll resolved")
        .expect("fresh subscriber polls cleanly");
    assert!(
        !batch.deltas.is_empty(),
        "eviction of one subscriber never poisons the hub"
    );
}

/// Link-health telemetry rides the same push path as power: with
/// `link_export_interval` set, the root agent publishes every active
/// TBON edge's queueing state into the hub. Under a congested link the
/// exported EWMA delay is visibly nonzero, a consumer too slow to keep
/// up with the combined power+link stream is still evicted (the hub's
/// bounded-memory contract is load-independent), and a re-subscriber is
/// seeded from *both* snapshots — latest power per node and latest
/// health per link.
#[test]
fn congested_link_health_reaches_subscribers_and_sheds_slow_consumers() {
    use fluxpm::flux::{FaultPlan, Rank};

    let (mut w, mut eng) = pushing_world(
        MonitorConfig::default()
            .with_push_interval(SimDuration::from_secs(2))
            .with_link_export_interval(SimDuration::from_secs(2))
            .with_subscriber_queue_capacity(8)
            .with_subscriber_evict_after_drops(8),
    );
    // Rank 1's uplink is severely congested for the whole run: slow but
    // alive, so pushes still land and the EWMA delay shows the queueing.
    w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO).with_congestion(
        Rank(0),
        Rank(1),
        SimTime::ZERO..SimTime::from_secs(60),
        0.999,
    ));

    // A subscriber registered at t=1 and never polled: by t=20 the
    // combined power+link stream has shed far past the threshold.
    let lazy_id: Slot<SubscriberId> = slot();
    {
        let id = Rc::clone(&lazy_id);
        eng.schedule(SimTime::from_secs(1), move |w: &mut World, eng| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all()).send(w, eng);
            let id = Rc::clone(&id);
            eng.schedule(SimTime::from_secs(2), move |_w: &mut World, _| {
                *id.borrow_mut() = Some(q.subscription().unwrap().unwrap());
            });
        });
    }

    let evicted_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let (id, out) = (Rc::clone(&lazy_id), Rc::clone(&evicted_poll));
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            let sub = id.borrow().expect("id resolved");
            let q = MonitorQuery::poll(sub, 16).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(20_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
    }

    // A fresh subscriber at t=21 re-seeds from both snapshot kinds
    // before any new publish round lands.
    let reseed_poll: Slot<DeltaBatch> = slot();
    {
        let out = Rc::clone(&reseed_poll);
        eng.schedule(
            SimTime::from_micros(21_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all()).send(w, eng);
                let out = Rc::clone(&out);
                eng.schedule(
                    SimTime::from_micros(21_400_000),
                    move |w: &mut World, eng| {
                        let sub = q.subscription().unwrap().unwrap();
                        let q = MonitorQuery::poll(sub, 64).send(w, eng);
                        let out = Rc::clone(&out);
                        eng.schedule(
                            SimTime::from_micros(21_800_000),
                            move |_w: &mut World, _| {
                                *out.borrow_mut() =
                                    Some(q.deltas().expect("poll answered").expect("poll ok"));
                            },
                        );
                    },
                );
            },
        );
    }

    eng.run_until(&mut w, SimTime::from_secs(25));

    let err = evicted_poll
        .borrow()
        .clone()
        .expect("evicted poll resolved")
        .expect_err("slow consumer of the combined stream is evicted");
    assert!(err.contains("unknown subscriber"), "got: {err}");

    let batch = reseed_poll.borrow().clone().expect("re-seed resolved");
    let power: Vec<u32> = batch
        .deltas
        .iter()
        .filter(|d| d.link.is_none())
        .map(|d| d.node)
        .collect();
    let links: Vec<(u32, u32)> = batch
        .deltas
        .iter()
        .filter_map(|d| d.link.as_ref().map(|l| (d.node, l.parent)))
        .collect();
    assert_eq!(power.len(), 4, "one power snapshot per node: {power:?}");
    assert_eq!(
        links,
        vec![(1, 0), (2, 0), (3, 1)],
        "one health snapshot per active edge"
    );
    let congested = batch
        .deltas
        .iter()
        .find_map(|d| (d.node == 1).then_some(d.link.as_ref()).flatten())
        .expect("link 1-0 exported");
    assert!(
        congested.ewma_delay_us > 10.0,
        "severity 0.999 must show up in the EWMA: {congested:?}"
    );
    assert!(congested.delivered > 0, "slow but alive, not lossy");
    assert!(
        batch
            .deltas
            .iter()
            .filter(|d| d.link.is_some())
            .all(|d| d.job.is_none()),
        "link deltas carry no job attribution"
    );
}

/// Cadence floor: a `min_interval_us` filter thins per-node updates to
/// the requested rate while a firehose subscriber sees everything.
#[test]
fn cadence_filter_thins_updates() {
    let mut seq = TelemetrySequencer::default();
    let mut hub = TelemetryHub::new(SubscriptionConfig::default());
    let firehose = hub.subscribe(SubscriptionFilter::all(), &[], 0);
    let slow = hub.subscribe(
        SubscriptionFilter::all().with_min_interval_us(5_000_000),
        &[],
        0,
    );
    for tick in 0u64..10 {
        hub.dispatch(&seq.publish(0, tick * 2_000_000, 900.0, None));
    }
    let (all, _) = hub.poll(firehose, 64).expect("firehose alive");
    let (thinned, _) = hub.poll(slow, 64).expect("slow alive");
    assert_eq!(all.len(), 10);
    // 2 s pushes against a 5 s floor: t=0,6,12,18 pass (gap >= 5 s).
    let times: Vec<u64> = thinned.iter().map(|d| d.timestamp_us).collect();
    assert_eq!(times, vec![0, 6_000_000, 12_000_000, 18_000_000]);
}

/// The fan-out core holds a thousand concurrent subscribers: every
/// matching delta lands once in every queue, bounded memory throughout.
#[test]
fn hub_fans_out_to_a_thousand_subscribers() {
    let mut seq = TelemetrySequencer::default();
    let mut hub = TelemetryHub::new(SubscriptionConfig::default());
    let subs: Vec<SubscriberId> = (0..1000)
        .map(|_| hub.subscribe(SubscriptionFilter::all(), &[], 0))
        .collect();
    assert_eq!(hub.subscriber_count(), 1000);
    for node in 0u32..4 {
        let n = hub.dispatch(&seq.publish(node, 2_000_000, 850.0, None));
        assert_eq!(n, 1000, "every subscriber matched");
    }
    assert_eq!(hub.fanned_out(), 4000);
    for &s in &subs {
        let stats = hub.stats(s).expect("subscriber alive");
        assert_eq!((stats.queued, stats.dropped), (4, 0));
    }
    let (deltas, dropped) = hub.poll(subs[500], 64).expect("alive");
    assert_eq!((deltas.len(), dropped), (4, 0));
}
