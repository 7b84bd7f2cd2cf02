#![cfg(test)]
//! Unit tests of the relay: the aggregate lattice, edge batching and
//! coalescing, how a batch off the wire is passed on, and the root
//! relay's end-of-instant flush.

use super::*;
use crate::proto::SamplePush;
use crate::subscription::{SubscriberId, TOPIC_SAMPLE_PUSH};
use crate::{MonitorConfig, MonitorQuery, QueryHandle};
use fluxpm_flux::{FluxEngine, JobId, World};
use fluxpm_hw::MachineKind;
use fluxpm_sim::{Engine, SimDuration, Trace, TraceLevel};

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

/// What `TelemetryRelay::ingest` does with `arrived` once the first
/// `skip` of its deltas fell below the high-water mark: pass it on, the
/// batch standing in for the payload it came in. Returns what each edge
/// was sent.
fn relay(
    plane: &mut RelayPlane,
    arrived: &RelayDeltaBatch,
    skip: usize,
) -> Vec<(u32, RelayDeltaBatch)> {
    let mut out = Vec::new();
    plane.pass_on(arrived, arrived, skip, |b| b, |c, b| out.push((c, b)));
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

fn nodes(nodes: Vec<u32>) -> AggregateFilter {
    let mut agg = AggregateFilter::empty();
    agg.insert(&SubscriptionFilter::all().with_nodes(nodes));
    agg
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

/// Through match-everything edges with nothing staged, an arrived batch
/// is passed on without one delta being staged: no edge buffer is ever
/// allocated, however many batches pass.
#[test]
fn match_everything_edges_pass_an_arrived_batch_on_without_staging_it() {
    let mut plane = everything_plane(8, &[1, 2, 3]);
    for round in 0..3u64 {
        let (d0, d1) = (
            delta(2 * round, 1, 0, None),
            delta(2 * round + 1, 5, 0, None),
        );
        let arrived = batch(0, &[&d0, &d1]);
        let sent = relay(&mut plane, &arrived, 0);
        assert_eq!(sent.iter().map(|(c, _)| *c).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(sent.iter().all(|(_, b)| same_slice(b, &arrived)));
    }
    assert!(
        plane.edges.values().all(|e| e.batch.deltas.capacity() == 0),
        "no edge buffer touched"
    );
    assert_eq!(
        (plane.egress_msgs(), plane.egress_deltas(), plane.offered()),
        (9, 18, 6)
    );
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
    plane.set_child(1, AggregateFilter::everything());
    plane.set_child(2, nodes(vec![1]));
    let (d0, d1) = (delta(0, 1, 0, None), delta(1, 5, 0, None));
    let arrived = batch(0, &[&d0, &d1]);
    let sent = relay(&mut plane, &arrived, 0);
    assert!(same_slice(&sent[0].1, &arrived));
    assert!(!same_slice(&sent[1].1, &arrived));
    assert_eq!(seqs(&sent[1].1), vec![0]);
}

/// A narrow aggregate that matches every delta of the batch is as good
/// as match-everything for that batch: the edge is sent the arrived
/// payload, even after a sibling before it built a batch of its own.
#[test]
fn a_narrow_edge_that_matches_every_delta_is_passed_the_arrived_batch() {
    let mut plane = RelayPlane::new(8);
    plane.set_child(1, nodes(vec![1]));
    plane.set_child(2, nodes(vec![5, 1]));
    let (d0, d1) = (delta(0, 1, 0, None), delta(1, 5, 0, None));
    let arrived = batch(0, &[&d0, &d1]);
    let sent = relay(&mut plane, &arrived, 0);
    assert_eq!(seqs(&sent[0].1), vec![0], "the sibling built its own");
    assert!(!same_slice(&sent[0].1, &arrived));
    assert!(same_slice(&sent[1].1, &arrived), "passed on, not rebuilt");
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

/// Each condition of the rule, broken on its own, sends the edge a batch
/// built from what it staged, under the edge's own cumulative `shed`.
#[test]
fn an_arrived_batch_outside_the_rule_is_built_with_a_truthful_shed() {
    let (a, b, c) = (
        delta(0, 1, 0, None),
        delta(1, 2, 1, None),
        delta(2, 3, 2, None),
    );
    // A stale prefix: `a` was already ingested here.
    let mut plane = everything_plane(8, &[1]);
    let arrived = batch(0, &[&a, &b]);
    let sent = relay(&mut plane, &arrived, 1);
    assert!(!same_slice(&sent[0].1, &arrived));
    assert_eq!((seqs(&sent[0].1), sent[0].1.shed), (vec![1], 0));

    // A `shed` mismatch: the parent's edge has shed one, this one none.
    let arrived = batch(1, &[&c]);
    let sent = relay(&mut plane, &arrived, 0);
    assert!(!same_slice(&sent[0].1, &arrived));
    assert_eq!((seqs(&sent[0].1), sent[0].1.shed), (vec![2], 0));

    // An empty batch: there is nothing to pass on, so nothing is sent.
    let before = (plane.egress_msgs(), plane.offered());
    assert!(relay(&mut plane, &batch(0, &[]), 0).is_empty());
    assert_eq!((plane.egress_msgs(), plane.offered()), before);

    // Longer than the capacity: the edge sheds the oldest and says so.
    let mut plane = everything_plane(2, &[1]);
    let arrived = batch(0, &[&a, &b, &c]);
    let sent = relay(&mut plane, &arrived, 0);
    assert!(!same_slice(&sent[0].1, &arrived));
    assert_eq!((seqs(&sent[0].1), sent[0].1.shed), (vec![1, 2], 1));
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
    // Both want exactly the arrived delta. Edge 1 must still say 1 (so
    // it cannot be passed a batch that says 0), and edge 2 must still
    // say 0 (so it cannot share edge 1's).
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
    // Same values, different `Arc`s: an edge is the batch a sibling was
    // just sent only by identity, so what it is sent is what it staged
    // and nothing else.
    let mut staged = EdgeBatch::default();
    staged.stage(&delta(0, 1, 0, None), 8);
    let equal = batch(0, &[&delta(0, 1, 0, None)]);
    assert!(!staged.is(&equal));
    let same = batch(0, &[&staged.deltas[0]]);
    assert!(staged.is(&same));
    assert_eq!(same, equal, "equal by value all the same");
}

#[test]
fn an_edge_is_one_entry() {
    let mut plane = everything_plane(8, &[1, 2]);
    plane.offer(&delta(0, 1, 0, None));
    // Replacing an aggregate keeps what the edge had staged...
    let narrow = nodes(vec![9]);
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
    plane.set_child(1, nodes(vec![1]));
    plane.set_child(2, AggregateFilter::everything());
    plane.offer(&delta(1, 5, 0, None));
    assert!(plane.is_staged() && !plane.is_full());
    plane.offer(&delta(2, 6, 0, None));
    assert!(plane.is_full(), "edge 2 holds two");
    plane.flush();
    assert!(!plane.is_staged() && !plane.is_full());
}

fn with_relay<R>(w: &World, rank: u32, f: impl FnOnce(&mut TelemetryRelay) -> R) -> R {
    let module = w.brokers[rank as usize]
        .module(RELAY)
        .expect("relay loaded");
    let mut guard = module.borrow_mut();
    f(guard.as_any_mut().unwrap().downcast_mut().unwrap())
}

/// A binary TBON, 0 → {1, 2}, 1 → {3}, whose node agents never push,
/// with a match-everything subscriber at ranks 0, 2 and 3, settled.
fn subscribed_world() -> (World, FluxEngine, Vec<(u32, QueryHandle)>) {
    let mut w = World::new(MachineKind::Lassen, 4, 3);
    let mut eng: FluxEngine = Engine::new();
    let quiet = MonitorConfig::default().with_sample_interval(SimDuration::from_secs(100_000));
    assert!(crate::load(&mut w, &mut eng, quiet));
    let subs = [0, 2, 3]
        .into_iter()
        .map(|rank| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all()).at(Rank(rank));
            (rank, q.send(&mut w, &mut eng))
        })
        .collect();
    settle(&mut w, &mut eng);
    (w, eng, subs)
}

fn settle(w: &mut World, eng: &mut FluxEngine) {
    let until = eng.now() + SimDuration::from_millis(10);
    eng.run_until(w, until);
}

/// Send `k` sample pushes to the root and deliver them, and nothing
/// else: the root relay has them staged and its flush armed.
fn hand_over(w: &mut World, eng: &mut FluxEngine, k: u32) {
    for node in 0..k {
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
        .send(eng, |_, _, _| {});
    }
    let instant = eng.now();
    for _ in 0..k {
        assert_eq!(eng.step(w), Some(instant), "a push delivery");
    }
}

fn id(handle: &QueryHandle) -> SubscriberId {
    handle
        .subscription()
        .expect("answered")
        .expect("subscribed")
}

/// Pushes that reach the root in one instant are in the root's local
/// queues as each is handed over, and on its edges only at the end
/// of the instant: one wake, one message per edge.
#[test]
fn the_root_relay_flushes_once_at_the_end_of_the_instant() {
    const K: u32 = 4;
    let (mut w, mut eng, subs) = subscribed_world();
    hand_over(&mut w, &mut eng, K);
    let instant = eng.now();
    let root_sub = id(&subs[0].1);
    with_relay(&w, 0, |r| {
        let queued = r.hub.stats(root_sub).map(|s| s.queued);
        assert_eq!(queued, Some(K as usize), "queued at once");
        assert_eq!(r.plane.egress_msgs(), 0, "nothing sent yet");
        assert!(r.plane.is_staged() && r.flush_armed);
    });
    // The wake, queued behind the pushes of its instant.
    assert_eq!(eng.step(&mut w), Some(instant));
    with_relay(&w, 0, |r| {
        assert_eq!(
            (r.plane.egress_msgs(), r.plane.egress_deltas()),
            (2, 2 * K as u64)
        );
        assert!(!r.plane.is_staged() && !r.flush_armed);
    });
}

/// A relay that still has hand-offs staged when a batch arrives — a
/// promoted root hit by what its old parent sent — sends them first,
/// as a batch of their own, and then passes the arrival on: no edge
/// mixes the two, and every subscriber sees one stream in `seq`
/// order.
#[test]
fn staged_hand_offs_leave_before_an_arrived_batch_is_passed_on() {
    const K: u32 = 3;
    let (mut w, mut eng, subs) = subscribed_world();
    hand_over(&mut w, &mut eng, K);
    let next = with_relay(&w, 0, |r| r.next_ingest);
    let arrived = RelayDeltaBatch {
        deltas: [delta(next, 0, 2, None), delta(next + 1, 1, 2, None)]
            .into_iter()
            .collect(),
        shed: 0,
    };
    let wire = MonitorRequest::RelayDeltas(arrived.clone()).encode();
    let module = w.brokers[0].module(RELAY).expect("relay loaded");
    {
        let mut guard = module.borrow_mut();
        let relay: &mut TelemetryRelay = guard.as_any_mut().unwrap().downcast_mut().unwrap();
        let mut ctx = ModuleCtx {
            world: &mut w,
            eng: &mut eng,
            rank: Rank(0),
        };
        relay.ingest(&mut ctx, Ingest::Arrived(&arrived, &wire));
        // Two edges (to 1 and 2), each sent the hand-offs and then
        // the arrival.
        assert_eq!(relay.plane.egress_msgs(), 4);
        assert_eq!(relay.plane.egress_deltas(), 2 * (K as u64 + 2));
        assert!(!relay.plane.is_staged());
    }
    settle(&mut w, &mut eng);
    for (rank, handle) in &subs {
        let sub = id(handle);
        let (deltas, dropped) = with_relay(&w, *rank, |r| r.hub.poll(sub, 64)).expect("polled");
        let seqs: Vec<u64> = deltas.iter().map(|d| d.seq).collect();
        assert_eq!(dropped, 0);
        assert_eq!(seqs.len(), K as usize + 2, "at {rank}: {seqs:?}");
        assert!(seqs.windows(2).all(|p| p[0] < p[1]), "at {rank}: {seqs:?}");
        assert_eq!(seqs[K as usize..], [next, next + 1], "at {rank}");
    }
}

/// A batch whose `seq` repeats or falls is refused whole, in release
/// builds too: no delta reaches the local subscribers or an edge, the
/// ingest mark stays, and the relay says why in one `Warn` line.
#[test]
fn a_batch_out_of_seq_order_is_dropped_with_one_warning() {
    let (mut w, mut eng, subs) = subscribed_world();
    w.trace = Trace::enabled(TraceLevel::Warn);
    let next = with_relay(&w, 0, |r| r.next_ingest);
    let repeated = [delta(next, 0, 2, None), delta(next, 1, 2, None)];
    let falling = [
        delta(next + 2, 0, 2, None),
        delta(next + 3, 1, 2, None),
        delta(next + 1, 2, 2, None),
    ];
    for (deltas, at) in [(&repeated[..], 1), (&falling[..], 2)] {
        let arrived = RelayDeltaBatch {
            deltas: deltas.iter().cloned().collect(),
            shed: 0,
        };
        assert_eq!(ordered(&arrived), Err(RelayError::UnorderedBatch { at }));
        let wire = MonitorRequest::RelayDeltas(arrived.clone()).encode();
        for rank in [1, 2] {
            let module = w.brokers[rank as usize]
                .module(RELAY)
                .expect("relay loaded");
            let mut guard = module.borrow_mut();
            let relay: &mut TelemetryRelay = guard.as_any_mut().unwrap().downcast_mut().unwrap();
            let before = (
                relay.next_ingest,
                relay.plane.egress_msgs(),
                relay.hub.fanned_out(),
            );
            let mut ctx = ModuleCtx {
                world: &mut w,
                eng: &mut eng,
                rank: Rank(rank),
            };
            relay.ingest(&mut ctx, Ingest::Arrived(&arrived, &wire));
            let after = (
                relay.next_ingest,
                relay.plane.egress_msgs(),
                relay.hub.fanned_out(),
            );
            assert_eq!(after, before, "rank {rank} took nothing of it");
        }
    }
    let warnings: Vec<&str> = w
        .trace
        .entries()
        .iter()
        .filter(|e| e.level == TraceLevel::Warn)
        .map(|e| e.message.as_str())
        .collect();
    assert_eq!(warnings.len(), 4, "{warnings:?}");
    assert!(
        warnings[0].contains("out of seq order at delta 1"),
        "{warnings:?}"
    );
    assert!(
        warnings[3].contains("out of seq order at delta 2"),
        "{warnings:?}"
    );
    settle(&mut w, &mut eng);
    for (rank, handle) in &subs {
        let sub = id(handle);
        let (deltas, _) = with_relay(&w, *rank, |r| r.hub.poll(sub, 64)).expect("polled");
        assert!(deltas.is_empty(), "rank {rank} got {deltas:?}");
    }
}

/// A hand-off below the ingest mark — a promoted root's own delta that
/// a batch from its old parent already carried — is dropped: nothing is
/// staged, the mark stays, and the root's subscriber sees each delta
/// once.
#[test]
fn a_hand_off_below_the_ingest_mark_is_dropped() {
    let (mut w, mut eng, subs) = subscribed_world();
    let next = with_relay(&w, 0, |r| r.next_ingest);
    let arrived = RelayDeltaBatch {
        deltas: [delta(next, 0, 2, None), delta(next + 1, 1, 2, None)]
            .into_iter()
            .collect(),
        shed: 0,
    };
    let wire = MonitorRequest::RelayDeltas(arrived.clone()).encode();
    let stale = delta(next + 1, 1, 2, None);
    let module = w.brokers[0].module(RELAY).expect("relay loaded");
    {
        let mut guard = module.borrow_mut();
        let relay: &mut TelemetryRelay = guard.as_any_mut().unwrap().downcast_mut().unwrap();
        let mut ctx = ModuleCtx {
            world: &mut w,
            eng: &mut eng,
            rank: Rank(0),
        };
        relay.ingest(&mut ctx, Ingest::Arrived(&arrived, &wire));
        relay.ingest(&mut ctx, Ingest::HandOff(&stale));
        assert!(!relay.plane.is_staged(), "the stale hand-off was staged");
        assert_eq!(relay.next_ingest, next + 2);
    }
    let root_sub = id(&subs[0].1);
    let (deltas, _) = with_relay(&w, 0, |r| r.hub.poll(root_sub, 64)).expect("polled");
    let seqs: Vec<u64> = deltas.iter().map(|d| d.seq).collect();
    assert_eq!(seqs, [next, next + 1]);
}
