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
//! re-subscribe re-seeds from the latest snapshot). The last group lands
//! many pushes in one simulated instant, which the root relay sends down
//! each edge as one batch at the end of the instant: the split at the
//! batch capacity, a subscribe racing the staged batch, and a root that
//! dies before its flush.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use fluxpm::experiments::Scenario;
use fluxpm::flux::{FluxEngine, JobSpec, Protocol, Rank, Tbon, Topic, World};
use fluxpm::hw::{MachineKind, NodeId};
use fluxpm::monitor::relay::TOPIC_RELAY_DELTAS;
use fluxpm::monitor::subscription::TOPIC_SAMPLE_PUSH;
use fluxpm::monitor::{
    DeltaBatch, MonitorConfig, MonitorQuery, MonitorRequest, QueryHandle, SamplePush, SubscriberId,
    SubscriptionFilter, TelemetryDelta, TelemetryRelay, DEFAULT_RELAY_BATCH_CAPACITY, RELAY,
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

// ---------------------------------------------------------------------
// Many pushes in one instant
// ---------------------------------------------------------------------

/// A 16-rank world on a fanout-4 TBON — three levels, 0 → 1..=4 →
/// 5..=15 — whose node agents never push: every delta is one a test
/// injects, so the test decides which land at the root in one instant.
fn quiet_tree() -> (World, FluxEngine) {
    let config = MonitorConfig::default()
        .with_sample_interval(SimDuration::from_secs(100_000))
        .with_subscriber_queue_capacity(8192);
    let (mut w, eng, _) = Scenario::new(MachineKind::Lassen, 16)
        .with_seed(41)
        .with_monitor(config)
        .build();
    w.tbon = Tbon::new(16, 4);
    (w, eng)
}

/// Send one sample push per entry of `nodes` to the root, from `from`.
/// Sent from the root itself, they all reach it in the current instant.
fn push_from(w: &mut World, eng: &mut FluxEngine, from: Rank, nodes: impl Iterator<Item = u32>) {
    let root = w.root();
    for node in nodes {
        let req = MonitorRequest::PushSample(SamplePush {
            node,
            timestamp_us: eng.now().as_micros(),
            node_w: 900.0,
        });
        w.rpc(root, TOPIC_SAMPLE_PUSH, req.encode())
            .from(from)
            .send(eng, |_, _, _| {});
    }
}

/// Run everything in flight out (10 simulated ms cover any route of this
/// tree many times over).
fn settle(w: &mut World, eng: &mut FluxEngine) {
    let until = eng.now() + SimDuration::from_millis(10);
    eng.run_until(w, until);
}

/// Subscribe to everything at each of `ranks` and run the seeds home.
fn subscribe_everywhere(
    w: &mut World,
    eng: &mut FluxEngine,
    ranks: &[u32],
) -> Vec<(Rank, SubscriberId)> {
    let handles: Vec<(Rank, QueryHandle)> = ranks
        .iter()
        .map(|&r| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all()).at(Rank(r));
            (Rank(r), q.send(w, eng))
        })
        .collect();
    settle(w, eng);
    handles
        .into_iter()
        .map(|(r, h)| (r, h.subscription().expect("answered").expect("subscribed")))
        .collect()
}

/// Poll `sub` at `rank` dry.
fn drain(w: &mut World, eng: &mut FluxEngine, (rank, sub): (Rank, SubscriberId)) -> DeltaBatch {
    let q = MonitorQuery::poll(sub, 8192).at(rank).send(w, eng);
    settle(w, eng);
    q.deltas().expect("poll answered").expect("poll ok")
}

fn seqs(batch: &DeltaBatch) -> Vec<u64> {
    batch.deltas.iter().map(|d| d.seq).collect()
}

/// Edge messages and the deltas they carried, over every relay.
fn egress(w: &mut World) -> (u64, u64) {
    let mut total = (0, 0);
    for r in 0..w.size() {
        if w.brokers[r as usize].module(RELAY).is_some() {
            let (msgs, deltas) = with_relay(w, Rank(r), |relay| {
                (relay.plane().egress_msgs(), relay.plane().egress_deltas())
            });
            total = (total.0 + msgs, total.1 + deltas);
        }
    }
    total
}

/// k pushes landing in one instant cross each interested edge as one
/// `RelayDeltas` message, and every subscriber — at the root and on
/// every leaf, at depth 1 and 2 — gets all k in sequence order with
/// nothing shed.
#[test]
fn pushes_in_one_instant_cross_each_edge_as_one_batch() {
    const K: u64 = 40;
    let (mut w, mut eng) = quiet_tree();
    let ranks: Vec<u32> = std::iter::once(0).chain(4..16).collect();
    let subs = subscribe_everywhere(&mut w, &mut eng, &ranks);
    let before = egress(&mut w);

    let root = w.root();
    push_from(&mut w, &mut eng, root, (0..K as u32).map(|i| i % 16));
    settle(&mut w, &mut eng);

    let after = egress(&mut w);
    // Subscribers on every leaf: all 15 edges want every delta.
    assert_eq!(after.0 - before.0, 15, "one message per edge");
    assert_eq!(after.1 - before.1, 15 * K, "nothing coalesced or shed");
    for sub in subs {
        let batch = drain(&mut w, &mut eng, sub);
        assert_eq!(seqs(&batch), (0..K).collect::<Vec<_>>(), "at {}", sub.0);
        assert_eq!(batch.dropped, 0);
    }
}

/// An instant with more deltas than an edge batch holds is split across
/// batches before the capacity is reached: nothing is coalesced or shed.
#[test]
fn an_instant_past_the_batch_capacity_is_split_not_coalesced() {
    let k = DEFAULT_RELAY_BATCH_CAPACITY as u64 + 1;
    let (mut w, mut eng) = quiet_tree();
    // One subscriber at depth 2: the edges 0 → 1 and 1 → 5.
    let subs = subscribe_everywhere(&mut w, &mut eng, &[5]);
    let before = egress(&mut w);

    let root = w.root();
    // Sixteen nodes round and round: a full batch would have plenty to
    // coalesce.
    push_from(&mut w, &mut eng, root, (0..k as u32).map(|i| i % 16));
    settle(&mut w, &mut eng);

    let after = egress(&mut w);
    assert_eq!(after.0 - before.0, 2 * 2, "two batches per edge");
    assert_eq!(after.1 - before.1, 2 * k);
    let batch = drain(&mut w, &mut eng, subs[0]);
    assert_eq!(seqs(&batch), (0..k).collect::<Vec<_>>());
    assert_eq!(batch.dropped, 0);
}

/// A subscribe served at the root in the instant deltas are staged
/// there. Local queues take a delta at once, so a poll in that instant
/// already holds it; the newcomer's seed covers the instant and its
/// stream picks up at the horizon; a leaf's stream is whole.
#[test]
fn a_root_subscribe_in_the_instant_of_staged_deltas_is_gap_free() {
    const K: u64 = 8;
    let (mut w, mut eng) = quiet_tree();
    let subs = subscribe_everywhere(&mut w, &mut eng, &[0, 5]);
    let (a, leaf) = (subs[0], subs[1]);

    // One instant at the root: K pushes, then B's subscribe and A's
    // poll, all ahead of the relay's end-of-instant flush.
    let root = w.root();
    push_from(&mut w, &mut eng, root, 0..K as u32);
    let b = MonitorQuery::subscribe(SubscriptionFilter::all())
        .at(root)
        .send(&mut w, &mut eng);
    let a_first = MonitorQuery::poll(a.1, 8192)
        .at(root)
        .send(&mut w, &mut eng);
    settle(&mut w, &mut eng);
    let a_first = a_first.deltas().expect("answered").expect("ok");
    assert_eq!(seqs(&a_first), (0..K).collect::<Vec<_>>(), "queued at once");
    let b = (
        root,
        b.subscription().expect("answered").expect("subscribed"),
    );

    push_from(&mut w, &mut eng, root, K as u32..2 * K as u32);
    settle(&mut w, &mut eng);

    let a_rest = drain(&mut w, &mut eng, a);
    assert_eq!(seqs(&a_rest), (K..2 * K).collect::<Vec<_>>());
    // B's seed is the latest per node of the first instant; its stream
    // starts at the horizon: every delta once.
    let b_all = drain(&mut w, &mut eng, b);
    assert_eq!(seqs(&b_all), (0..2 * K).collect::<Vec<_>>());
    let leaf_all = drain(&mut w, &mut eng, leaf);
    assert_eq!(seqs(&leaf_all), (0..2 * K).collect::<Vec<_>>());
}

/// A climbing subscribe that reaches the root in the instant deltas are
/// staged there. The root flushes before it takes the seed, so the
/// staged batch leaves ahead of the seed: the origin relay passes it to
/// its earlier subscriber before the seed raises its high-water mark.
#[test]
fn a_climbing_subscribe_in_the_instant_of_staged_deltas_is_gap_free() {
    const K: u64 = 8;
    let (mut w, mut eng) = quiet_tree();
    let subs = subscribe_everywhere(&mut w, &mut eng, &[1]);
    let a = subs[0];

    // B's subscribe reaches rank 1 one hop from now and climbs to the
    // root one hop later; the pushes, sent now from rank 5 two hops
    // below the root, reach it in that same instant and ahead of it.
    let b = MonitorQuery::subscribe(SubscriptionFilter::all())
        .at(Rank(1))
        .send(&mut w, &mut eng);
    push_from(&mut w, &mut eng, Rank(5), 0..K as u32);
    settle(&mut w, &mut eng);
    let b = (
        Rank(1),
        b.subscription().expect("answered").expect("subscribed"),
    );

    let root = w.root();
    push_from(&mut w, &mut eng, root, K as u32..2 * K as u32);
    settle(&mut w, &mut eng);

    let a_all = drain(&mut w, &mut eng, a);
    assert_eq!(seqs(&a_all), (0..2 * K).collect::<Vec<_>>(), "A has a hole");
    let b_all = drain(&mut w, &mut eng, b);
    assert_eq!(
        seqs(&b_all),
        (0..2 * K).collect::<Vec<_>>(),
        "B: seed, then stream"
    );
}

/// A root that dies between a hand-off and its end-of-instant flush
/// sends nothing from the dead rank: its staged deltas die with it, as
/// a batch in flight through it would. The successor's streams resume
/// with the next deltas, in order and without duplicates.
#[test]
fn a_root_that_dies_before_its_flush_sends_nothing_and_the_successor_resumes() {
    const K: u64 = 6;
    let (mut w, mut eng) = quiet_tree();
    // The successor itself, a leaf below it, and a leaf whose parent
    // re-parents under it.
    let subs = subscribe_everywhere(&mut w, &mut eng, &[1, 5, 9]);
    let root = w.root();
    push_from(&mut w, &mut eng, root, 1..=K as u32);
    settle(&mut w, &mut eng);

    // Stamped and staged, then the root dies in the same instant.
    let dead = w.brokers[0].module(RELAY).expect("root relay");
    let sent_before = with_relay(&mut w, root, |r| r.plane().egress_msgs());
    push_from(&mut w, &mut eng, root, 1..=K as u32);
    eng.schedule(eng.now(), |w: &mut World, eng| w.fail_node(eng, NodeId(0)));
    settle(&mut w, &mut eng);
    let sent_after = {
        let mut guard = dead.borrow_mut();
        let relay = guard
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<TelemetryRelay>());
        relay.expect("concrete relay").plane().egress_msgs()
    };
    assert_eq!(sent_after, sent_before, "the dead relay flushed");
    let relay_topic = Topic::intern(TOPIC_RELAY_DELTAS);
    let drops = w.rpc_stats().get(&relay_topic).map_or(0, |s| s.drops);
    assert_eq!(drops, 0, "a batch was sent from the dead rank");

    let successor = w.root();
    assert_eq!(successor, Rank(1));
    push_from(&mut w, &mut eng, successor, 1..=K as u32);
    settle(&mut w, &mut eng);

    // Sequence numbers K..2K died staged with the old root.
    let want: Vec<u64> = (0..K).chain(2 * K..3 * K).collect();
    for sub in subs {
        let batch = drain(&mut w, &mut eng, sub);
        assert_eq!(seqs(&batch), want, "at {}", sub.0);
    }
}

/// The sequencer's latest-per-node table is indexed by node, so a push
/// naming a node outside the instance is refused before it is stamped.
#[test]
fn a_push_for_a_node_outside_the_instance_is_refused() {
    let (mut w, mut eng) = quiet_tree();
    let subs = subscribe_everywhere(&mut w, &mut eng, &[0]);
    let root = w.root();
    let req = MonitorRequest::PushSample(SamplePush {
        node: 1_000,
        timestamp_us: 0,
        node_w: 1.0,
    });
    let accepted = Rc::new(RefCell::new(None));
    let out = Rc::clone(&accepted);
    w.rpc(root, TOPIC_SAMPLE_PUSH, req.encode())
        .send(&mut eng, move |_, _, resp| {
            *out.borrow_mut() = Some(resp.is_ok())
        });
    settle(&mut w, &mut eng);
    assert_eq!(*accepted.borrow(), Some(false));

    push_from(&mut w, &mut eng, root, std::iter::once(3));
    settle(&mut w, &mut eng);
    assert_eq!(
        seqs(&drain(&mut w, &mut eng, subs[0])),
        vec![0],
        "nothing stamped"
    );
}
