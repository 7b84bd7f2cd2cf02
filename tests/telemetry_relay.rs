//! TBON-distributed telemetry fan-out, end to end — the relay tentpole.
//!
//! Every broker hosts a `TelemetryRelay`: clients subscribe, poll, and
//! unsubscribe against the rank they attach to (`MonitorQuery::at`),
//! filters aggregate up each tree edge, and the root publishes each
//! delta once per *interested child edge* — O(fanout), not
//! O(subscribers). These tests drive the full in-sim lifecycle at leaf
//! ranks, check the leaf stream is identical to the root-attached
//! stream (the PR 7 hub semantics, preserved through the tree), watch
//! filter aggregation narrow the root's egress, join a relay mid-stream,
//! and exercise the two failure modes the design calls out: root
//! failover (subscriptions at surviving relays resume, gap-checked,
//! duplicate-free) and subscriber broker death (fresh relay,
//! re-subscribe re-seeds from the latest snapshot).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use fluxpm::experiments::Scenario;
use fluxpm::flux::{FluxEngine, JobSpec, Rank, World};
use fluxpm::hw::{MachineKind, NodeId};
use fluxpm::monitor::{
    DeltaBatch, MonitorConfig, MonitorQuery, QueryHandle, SubscriptionFilter, TelemetryDelta,
    TelemetryRelay, RELAY,
};
use fluxpm::sim::{SimDuration, SimTime};
use fluxpm::workloads::{laghos, App, JitterModel};

/// A 4-node world (TBON: 0 -> {1, 2}, 1 -> {3}) with sample pushes
/// every 2 s and one long job, so telemetry flows the whole window.
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

/// Key a delta by everything a consumer can observe, so two streams can
/// be compared for byte-level equality.
fn delta_key(d: &TelemetryDelta) -> (u64, u32, u64, u64, Option<u64>) {
    (
        d.seq,
        d.node,
        d.timestamp_us,
        d.node_w.to_bits(),
        d.job.map(|j| j.0),
    )
}

/// Subscribe at `rank` at `at` seconds, stashing the query handle.
fn subscribe_at(eng: &mut FluxEngine, rank: Rank, at: u64, out: &Slot<QueryHandle>) {
    let out = Rc::clone(out);
    eng.schedule(SimTime::from_secs(at), move |w: &mut World, eng| {
        let q = MonitorQuery::subscribe(SubscriptionFilter::all())
            .at(rank)
            .send(w, eng);
        *out.borrow_mut() = Some(q);
    });
}

/// Poll `sub` at `rank` at `at` seconds and append the drained deltas
/// to `into` half a second later.
fn poll_into(
    eng: &mut FluxEngine,
    rank: Rank,
    sub: &Slot<QueryHandle>,
    at_us: u64,
    into: &Rc<RefCell<Vec<TelemetryDelta>>>,
) {
    let (sub, into) = (Rc::clone(sub), Rc::clone(into));
    eng.schedule(SimTime::from_micros(at_us), move |w: &mut World, eng| {
        let id = sub
            .borrow()
            .as_ref()
            .expect("subscribe sent")
            .subscription()
            .expect("subscribe answered")
            .expect("subscribe ok");
        let q = MonitorQuery::poll(id, 4096).at(rank).send(w, eng);
        let into = Rc::clone(&into);
        eng.schedule(
            SimTime::from_micros(at_us + 500_000),
            move |_w: &mut World, _| {
                let batch = q.deltas().expect("poll answered").expect("poll ok");
                into.borrow_mut()
                    .extend(batch.deltas.iter().map(|d| (**d).clone()));
            },
        );
    });
}

/// Borrow the relay on `rank` and run `f` against it.
fn with_relay<R>(w: &mut World, rank: Rank, f: impl FnOnce(&TelemetryRelay) -> R) -> R {
    let module = w.brokers[rank.0 as usize]
        .module(RELAY)
        .expect("relay loaded");
    let mut guard = module.borrow_mut();
    let relay = guard
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<TelemetryRelay>())
        .expect("concrete relay");
    f(relay)
}

/// The full lifecycle served entirely by a *leaf* relay: subscribe,
/// ordered delivery, unsubscribe, dead-id poll, snapshot re-seed — the
/// same observable contract the root-attached path has always had.
#[test]
fn leaf_subscriber_lifecycle_through_relay() {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));
    let leaf = Rank(3);

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);

    // An invalid filter is rejected with a typed error at the serving
    // relay, before anything climbs the tree.
    let bad_sub: Slot<QueryHandle> = slot();
    {
        let out = Rc::clone(&bad_sub);
        eng.schedule(SimTime::from_secs(5), move |w: &mut World, eng| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all().with_nodes(vec![]))
                .at(leaf)
                .send(w, eng);
            *out.borrow_mut() = Some(q);
        });
    }

    let streamed = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &streamed);

    // t=20: unsubscribe at the leaf; t=21: the dead id errors there.
    let unsub: Slot<QueryHandle> = slot();
    let dead_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let (sub, out) = (Rc::clone(&sub_q), Rc::clone(&unsub));
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            let id = sub
                .borrow()
                .as_ref()
                .unwrap()
                .subscription()
                .unwrap()
                .unwrap();
            *out.borrow_mut() = Some(MonitorQuery::unsubscribe(id).at(leaf).send(w, eng));
        });
        let (sub, out) = (Rc::clone(&sub_q), Rc::clone(&dead_poll));
        eng.schedule(SimTime::from_secs(21), move |w: &mut World, eng| {
            let id = sub
                .borrow()
                .as_ref()
                .unwrap()
                .subscription()
                .unwrap()
                .unwrap();
            let q = MonitorQuery::poll(id, 16).at(leaf).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(21_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
    }

    // t=25.1: re-subscribe at the leaf. The seed arrives from the
    // root's latest-per-node snapshot, so a poll before the next push
    // round already holds one delta per node.
    let reseed_poll: Slot<DeltaBatch> = slot();
    {
        let out = Rc::clone(&reseed_poll);
        eng.schedule(
            SimTime::from_micros(25_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all())
                    .at(leaf)
                    .send(w, eng);
                let out = Rc::clone(&out);
                eng.schedule(
                    SimTime::from_micros(25_500_000),
                    move |w: &mut World, eng| {
                        let sub = q.subscription().unwrap().unwrap();
                        let q = MonitorQuery::poll(sub, 16).at(leaf).send(w, eng);
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

    let err = bad_sub
        .borrow()
        .as_ref()
        .unwrap()
        .subscription()
        .expect("bad subscribe answered")
        .expect_err("empty node set rejected");
    assert!(err.contains("invalid filter"), "got: {err}");

    let deltas = streamed.borrow().clone();
    assert!(!deltas.is_empty(), "deltas reached the leaf by t=15");
    assert!(
        deltas.windows(2).all(|p| p[0].seq < p[1].seq),
        "publication order survives the tree"
    );
    let nodes: BTreeSet<u32> = deltas.iter().map(|d| d.node).collect();
    assert_eq!(nodes.len(), 4, "every node's pushes reached the leaf");
    assert!(
        deltas.iter().all(|d| d.job.is_some()),
        "job attribution (assigned at the root) survives the tree"
    );

    assert_eq!(
        unsub.borrow().as_ref().unwrap().unsubscribed(),
        Some(Ok(true)),
        "unsubscribe found its subscription at the leaf"
    );
    let err = dead_poll
        .borrow()
        .clone()
        .expect("dead poll resolved")
        .expect_err("polling an unsubscribed id errors");
    assert!(err.contains("unknown subscriber"), "got: {err}");

    let batch = reseed_poll.borrow().clone().expect("re-seed resolved");
    let nodes: Vec<u32> = batch.deltas.iter().map(|d| d.node).collect();
    let unique: BTreeSet<u32> = nodes.iter().copied().collect();
    assert_eq!(
        (nodes.len(), unique.len()),
        (4, 4),
        "snapshot seeds exactly one latest delta per node: {nodes:?}"
    );
}

/// The equivalence acceptance: for the same filter over the same
/// window, a subscriber at a leaf relay sees *exactly* the stream a
/// root-attached subscriber sees — same deltas, same order, same
/// sequence numbers, same payload bits. The tree only changes who does
/// the fan-out work, never what a consumer observes.
#[test]
fn leaf_stream_is_byte_identical_to_root_stream() {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));

    let at_root: Slot<QueryHandle> = slot();
    let at_leaf: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, Rank(0), 5, &at_root);
    subscribe_at(&mut eng, Rank(3), 5, &at_leaf);

    let root_stream = Rc::new(RefCell::new(Vec::new()));
    let leaf_stream = Rc::new(RefCell::new(Vec::new()));
    // Repeated interleaved drains: equivalence must hold poll by poll,
    // not just in the final accumulation.
    for at_s in [9u64, 13, 17, 21, 25] {
        poll_into(&mut eng, Rank(0), &at_root, at_s * 1_000_000, &root_stream);
        poll_into(&mut eng, Rank(3), &at_leaf, at_s * 1_000_000, &leaf_stream);
    }

    eng.run_until(&mut w, SimTime::from_secs(28));

    let root: Vec<_> = root_stream.borrow().iter().map(delta_key).collect();
    let leaf: Vec<_> = leaf_stream.borrow().iter().map(delta_key).collect();
    assert!(root.len() >= 30, "a real stream flowed: {}", root.len());
    assert_eq!(root, leaf, "leaf stream diverged from root stream");
}

/// Filter aggregation narrows what each edge carries: a single-node
/// subscription at a leaf widens only its own path to the root, the
/// sibling subtree's edge stays silent, and the root's egress is
/// per-edge — O(fanout) — not per-subscriber.
#[test]
fn filter_aggregation_narrows_root_egress() {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));
    let leaf = Rank(3);

    // Two leaf subscribers with the same node-3-only filter: fan-out
    // cost at the root must not grow with the second subscriber.
    for _ in 0..2 {
        eng.schedule(SimTime::from_secs(5), move |w: &mut World, eng| {
            let _ = MonitorQuery::subscribe(SubscriptionFilter::all().with_nodes(vec![3]))
                .at(leaf)
                .send(w, eng);
        });
    }
    let streamed = Rc::new(RefCell::new(Vec::new()));
    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);
    // This third subscriber is the firehose control at the same leaf.
    poll_into(&mut eng, leaf, &sub_q, 20_000_000, &streamed);

    eng.run_until(&mut w, SimTime::from_secs(24));

    with_relay(&mut w, Rank(0), |root| {
        let children: Vec<(u32, bool)> = root
            .plane()
            .children()
            .map(|(c, a)| (c, a.is_all()))
            .collect();
        // Only the subtree containing rank 3 asked for anything; the
        // firehose widened that one edge to match-all. Rank 2's edge
        // never materialized.
        assert_eq!(children, vec![(1, true)], "{children:?}");
        // Egress is per-edge: one wire message per push round on one
        // edge, regardless of three subscribers sitting below it.
        let msgs = root.plane().egress_msgs();
        let offered = root.plane().offered();
        assert!(msgs > 0 && offered > 0);
        assert!(
            msgs <= offered,
            "one edge interested: at most one egress message per offered delta \
             (msgs={msgs}, offered={offered})"
        );
    });
    let deltas = streamed.borrow().clone();
    let nodes: BTreeSet<u32> = deltas.iter().map(|d| d.node).collect();
    assert_eq!(nodes.len(), 4, "the firehose still sees every node");
}

/// A second subscribe at a relay that is already streaming leaves the
/// first stream whole. The newcomer's seed raises the relay's ingest
/// high-water mark to the seed's horizon, which is only safe because
/// everything below the horizon has already passed through the relay —
/// every hop flushes what it ingests before it returns. B joins between
/// the t=6 push round reaching the root and the t=8 one.
#[test]
fn a_second_subscribe_mid_stream_leaves_the_first_stream_gap_free() {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));
    let leaf = Rank(3);

    let a: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 3, &a);
    let b: Slot<QueryHandle> = slot();
    {
        let out = Rc::clone(&b);
        eng.schedule(
            SimTime::from_micros(6_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all())
                    .at(leaf)
                    .send(w, eng);
                *out.borrow_mut() = Some(q);
            },
        );
    }
    let a_stream = Rc::new(RefCell::new(Vec::new()));
    let b_stream = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &a, 11_000_000, &a_stream);
    poll_into(&mut eng, leaf, &b, 11_000_000, &b_stream);

    eng.run_until(&mut w, SimTime::from_secs(12));

    // Five push rounds of four nodes (t = 2, 4, 6, 8, 10): the first is
    // A's seed, the rest its stream.
    let seqs: Vec<u64> = a_stream.borrow().iter().map(|d| d.seq).collect();
    assert_eq!(seqs, (0..20).collect::<Vec<u64>>(), "A's stream has a hole");
    // B's seed is the t=6 round; its stream picks up at the horizon.
    let seqs: Vec<u64> = b_stream.borrow().iter().map(|d| d.seq).collect();
    assert_eq!(seqs, (8..20).collect::<Vec<u64>>(), "B: seed, then stream");
}

/// Root failover: the sequencer (sequence counter, latest snapshots)
/// migrates to the promoted successor, the surviving leaf relay
/// re-advertises its aggregate to the new root, and the leaf
/// subscriber's stream resumes — strictly ordered, duplicate-free —
/// without re-subscribing.
#[test]
fn leaf_subscription_survives_root_failover() {
    subscription_survives_root_failover(Rank(3));
}

/// The same, for a subscriber on the successor itself: the one relay
/// whose feed switches from wire batches off the old root to the
/// hand-off of the agent that just landed beside it.
#[test]
fn successor_subscription_survives_root_failover() {
    subscription_survives_root_failover(Rank(1));
}

fn subscription_survives_root_failover(leaf: Rank) {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);

    let before = Rc::new(RefCell::new(Vec::new()));
    let after = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &before);

    eng.schedule(SimTime::from_secs(20), |w: &mut World, eng| {
        w.fail_node(eng, NodeId(0));
    });

    // Well after the failover: pushes flow to the promoted root
    // (rank 1), which distributes down the re-advertised edge to the
    // leaf relay. Same subscription, no client-side recovery.
    poll_into(&mut eng, leaf, &sub_q, 32_000_000, &after);

    eng.run_until(&mut w, SimTime::from_secs(35));
    assert_eq!(w.root(), Rank(1), "deterministic successor election");

    let before = before.borrow().clone();
    let after = after.borrow().clone();
    assert!(!before.is_empty(), "stream flowed before the failover");
    assert!(
        after.iter().any(|d| d.timestamp_us > 21_000_000),
        "stream resumed with post-failover deltas: {} deltas",
        after.len()
    );
    let all: Vec<u64> = before.iter().chain(after.iter()).map(|d| d.seq).collect();
    let unique: BTreeSet<u64> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "no duplicates across the failover");
    assert!(
        all.windows(2).all(|p| p[0] < p[1]),
        "sequence stayed strictly increasing: the sequencer migrated"
    );
    // Node 0 died with the root; the survivors keep reporting.
    let nodes: BTreeSet<u32> = after.iter().map(|d| d.node).collect();
    assert!(
        nodes.contains(&1) && nodes.contains(&2) && nodes.contains(&3),
        "survivors keep flowing: {nodes:?}"
    );
}

/// Subscriber-broker death: the relay (and its queues) die with the
/// broker. After recovery the rank hosts a fresh relay — the old id is
/// unknown there — and a re-subscribe at the recovered rank re-seeds
/// from the root's latest snapshot, exactly like any slow-consumer
/// eviction.
#[test]
fn broker_death_drops_local_subscribers_and_resubscribe_reseeds() {
    let (mut w, mut eng) =
        pushing_world(MonitorConfig::default().with_push_interval(SimDuration::from_secs(2)));
    let leaf = Rank(3);

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);
    let streamed = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &streamed);

    eng.schedule(SimTime::from_secs(18), |w: &mut World, eng| {
        w.fail_node(eng, NodeId(3));
    });
    eng.schedule(SimTime::from_secs(22), |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(3)));
    });

    // t=26: the old id is unknown on the rebuilt relay.
    let dead_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let (sub, out) = (Rc::clone(&sub_q), Rc::clone(&dead_poll));
        eng.schedule(SimTime::from_secs(26), move |w: &mut World, eng| {
            let id = sub
                .borrow()
                .as_ref()
                .unwrap()
                .subscription()
                .unwrap()
                .unwrap();
            let q = MonitorQuery::poll(id, 16).at(leaf).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(26_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
    }

    // t=27.1: re-subscribe at the recovered rank; the seed holds the
    // latest delta for every live node before the next push round.
    let reseed_poll: Slot<DeltaBatch> = slot();
    {
        let out = Rc::clone(&reseed_poll);
        eng.schedule(
            SimTime::from_micros(27_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all())
                    .at(leaf)
                    .send(w, eng);
                let out = Rc::clone(&out);
                eng.schedule(
                    SimTime::from_micros(27_500_000),
                    move |w: &mut World, eng| {
                        let sub = q.subscription().unwrap().unwrap();
                        let q = MonitorQuery::poll(sub, 16).at(leaf).send(w, eng);
                        let out = Rc::clone(&out);
                        eng.schedule(
                            SimTime::from_micros(27_900_000),
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

    assert!(!streamed.borrow().is_empty(), "stream flowed before death");
    let err = dead_poll
        .borrow()
        .clone()
        .expect("dead poll resolved")
        .expect_err("old id unknown on the rebuilt relay");
    assert!(err.contains("unknown subscriber"), "got: {err}");

    let batch = reseed_poll.borrow().clone().expect("re-seed resolved");
    let nodes: BTreeSet<u32> = batch.deltas.iter().map(|d| d.node).collect();
    assert_eq!(
        nodes.len(),
        4,
        "snapshot survived at the root and re-seeded the fresh relay: {nodes:?}"
    );
    // The relay module itself was rebuilt by the registered factory.
    assert!(
        w.brokers[leaf.0 as usize].module(RELAY).is_some(),
        "recovered broker hosts a fresh relay"
    );
}
