//! What one message costs, pinned — the message-path rules of DESIGN.md
//! §15 as tests rather than as a benchmark reading:
//!
//! * a topic is a handle resolved once, a broker's tables are small
//!   vectors, and both keep the dispatch semantics the hash maps had;
//! * a batch of deltas is built once and shared, so what a relayed delta
//!   or a poll reply allocates does not depend on how many deltas ride
//!   in it or on who reads it;
//! * `World::nodes_mut` and `RingBuffer::new` cost what their arguments
//!   say, not what the cluster or the configured capacity says.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counters
//! are thread-local so the measurement is immune to other test threads
//! allocating concurrently (the `crates/fft/tests/alloc_free.rs` harness).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use fluxpm::flux::{
    payload, Broker, Engine, FluxEngine, Message, Module, ModuleCtx, Protocol, Rank, SharedModule,
    Tbon, Topic, World,
};
use fluxpm::hw::{MachineKind, NodeHardware, NodeId};
use fluxpm::monitor::subscription::TOPIC_SAMPLE_PUSH;
use fluxpm::monitor::{
    MonitorConfig, MonitorQuery, MonitorRequest, QueryHandle, RingBuffer, SamplePush, SubscriberId,
    SubscriptionFilter,
};
use fluxpm::sim::SimDuration;
use proptest::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let r = f();
    let after = ALLOCS.with(|c| c.get());
    (after - before, r)
}

// ---------------------------------------------------------------------
// (a) What a relayed delta and a poll reply allocate
// ---------------------------------------------------------------------

/// A quiet monitor world: the node agents neither sample nor push inside
/// a test's horizon, so the only traffic is what the test injects.
/// `fanout` shapes the TBON (16 ranks at fanout 4 is three levels:
/// 0 → 1..=4 → 5..=15).
struct Rig {
    w: World,
    eng: FluxEngine,
    /// One subscription per entry of the `at` given to [`Rig::new`].
    subs: Vec<(Rank, SubscriberId)>,
    pushed: u64,
}

impl Rig {
    fn new(ranks: u32, fanout: u32, at: &[u32]) -> Rig {
        let mut w = World::new(MachineKind::Lassen, ranks, 5);
        w.tbon = Tbon::new(ranks, fanout);
        let mut eng: FluxEngine = Engine::new();
        let config = MonitorConfig::default()
            .with_sample_interval(SimDuration::from_secs(100_000))
            .with_subscriber_queue_capacity(8192);
        assert!(fluxpm::monitor::load(&mut w, &mut eng, config));
        let mut rig = Rig {
            w,
            eng,
            subs: Vec::new(),
            pushed: 0,
        };
        let handles: Vec<(Rank, QueryHandle)> = at
            .iter()
            .map(|&r| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all()).at(Rank(r));
                (Rank(r), q.send(&mut rig.w, &mut rig.eng))
            })
            .collect();
        rig.settle();
        rig.subs = handles
            .into_iter()
            .map(|(r, h)| (r, h.subscription().expect("answered").expect("subscribed")))
            .collect();
        rig
    }

    /// Run everything in flight to completion (10 simulated ms cover
    /// any route of these small trees many times over).
    fn settle(&mut self) {
        let until = self.eng.now() + SimDuration::from_millis(10);
        self.eng.run_until(&mut self.w, until);
    }

    /// Inject one node-agent push for `node` at the root, as the node
    /// agent's push timer would, and run it (and its fan-out) out.
    fn push(&mut self, node: u32) {
        self.pushed += 1;
        let req = MonitorRequest::PushSample(SamplePush {
            node,
            timestamp_us: self.pushed * 1_000_000,
            node_w: 900.0,
        });
        let root = self.w.root();
        self.w
            .rpc(root, TOPIC_SAMPLE_PUSH, req.encode())
            .from(Rank(node))
            .send(&mut self.eng, |_, _, _| {});
        self.settle();
    }

    /// Inject `k` pushes, for nodes `0..k` round the tree, that all reach
    /// the root in one instant (the root sends them itself, so no hop
    /// separates them), and run them out.
    fn push_burst(&mut self, k: u32) {
        let (root, ranks) = (self.w.root(), self.w.size());
        for node in (0..k).map(|i| i % ranks) {
            self.pushed += 1;
            let req = MonitorRequest::PushSample(SamplePush {
                node,
                timestamp_us: self.pushed * 1_000_000,
                node_w: 900.0,
            });
            self.w
                .rpc(root, TOPIC_SAMPLE_PUSH, req.encode())
                .send(&mut self.eng, |_, _, _| {});
        }
        self.settle();
    }

    /// Poll every subscription dry.
    fn drain(&mut self) -> Vec<QueryHandle> {
        let polls: Vec<QueryHandle> = self
            .subs
            .iter()
            .map(|&(rank, id)| {
                MonitorQuery::poll(id, 8192)
                    .at(rank)
                    .send(&mut self.w, &mut self.eng)
            })
            .collect();
        self.settle();
        polls
    }

    /// Allocations of one injected push once every buffer on its way
    /// (subscriber queues, edge batches, the event heap) has reached
    /// its working size, and the edge messages it took.
    fn steady_push_allocs(&mut self) -> (u64, u64) {
        for _ in 0..3 {
            self.push(0);
            self.drain();
        }
        let egress_before = self.egress_msgs();
        let (allocs, ()) = allocs_during(|| self.push(0));
        let delivered = self.drain();
        for poll in &delivered {
            let batch = poll.deltas().expect("answered").expect("ok");
            assert_eq!(batch.deltas.len(), 1, "the measured delta arrived");
        }
        (allocs, self.egress_msgs() - egress_before)
    }

    /// [`Rig::steady_push_allocs`] for a burst of `k` pushes in one
    /// instant.
    fn steady_burst_allocs(&mut self, k: u32) -> (u64, u64) {
        for _ in 0..3 {
            self.push_burst(k);
            self.drain();
        }
        let egress_before = self.egress_msgs();
        let (allocs, ()) = allocs_during(|| self.push_burst(k));
        for poll in &self.drain() {
            let batch = poll.deltas().expect("answered").expect("ok");
            assert_eq!(batch.deltas.len(), k as usize, "the whole burst arrived");
            let seqs: Vec<u64> = batch.deltas.iter().map(|d| d.seq).collect();
            assert!(seqs.windows(2).all(|p| p[0] < p[1]));
        }
        (allocs, self.egress_msgs() - egress_before)
    }

    /// Edge messages sent so far: the relay planes' egress over every
    /// rank, read from the modules.
    fn egress_msgs(&self) -> u64 {
        use fluxpm::monitor::{TelemetryRelay, RELAY};
        let mut total = 0;
        for broker in &self.w.brokers {
            if let Some(m) = broker.module(RELAY) {
                let mut m = m.borrow_mut();
                let relay = m.as_any_mut().unwrap().downcast_mut::<TelemetryRelay>();
                total += relay.unwrap().plane().egress_msgs();
            }
        }
        total
    }
}

/// Heap allocations per relayed edge message: none. The delivery event,
/// which owns the message and its route, is a value in the engine's
/// slab. The batch's shared slice and the payload that wraps it are
/// built once per root flush and passed down the tree, not once per
/// edge; there is no `Rc` around the message, no per-flush vector, no
/// per-batch staging buffer, no topic.
const ALLOCS_PER_EDGE_MESSAGE: u64 = 0;

/// Heap allocations per root flush — one per instant in which deltas
/// were published — that has any edge to cross: the one shared slice
/// and the one payload around it.
const ALLOCS_PER_PUBLISHED_BATCH: u64 = 2;

#[test]
fn a_relayed_delta_costs_a_fixed_number_of_allocations_per_edge() {
    // Subscribers on every leaf of the 3-level tree: each delta crosses
    // all 15 edges. With one subscriber on rank 4 it crosses one.
    let leaves: Vec<u32> = (4..16).collect();
    let mut all_edges = Rig::new(16, 4, &leaves);
    let mut one_edge = Rig::new(16, 4, &[4]);
    let (a15, sent) = all_edges.steady_push_allocs();
    assert_eq!(sent, 15);
    let (a1, sent) = one_edge.steady_push_allocs();
    assert_eq!(sent, 1);
    assert_eq!(
        a15 - a1,
        14 * ALLOCS_PER_EDGE_MESSAGE,
        "15 edges cost {a15} allocations, 1 edge {a1}"
    );
    // And the part that is not edges — push RPC, ack, the delta itself —
    // does not depend on the tree below it.
    let mut no_edge = Rig::new(16, 4, &[0]);
    let (a0, sent) = no_edge.steady_push_allocs();
    assert_eq!(sent, 0);
    assert_eq!(
        a1 - a0,
        ALLOCS_PER_EDGE_MESSAGE + ALLOCS_PER_PUBLISHED_BATCH
    );
}

#[test]
fn a_publish_builds_one_slice_and_one_payload_for_the_tree() {
    // The same three rigs, in absolute numbers. A push that crosses no
    // edge costs 3 allocations (the push request's callback, the stamped
    // delta, the ack's payload); the first edge adds the batch — slice
    // and payload; the other 14 edges, at whatever depth, add nothing:
    // fifteen edges cost what one does. (5, 8 and 22 while each message
    // in flight was a boxed closure; 7, 11 and 67 while it also sat in
    // an `Rc` and every edge built its own batch.)
    let leaves: Vec<u32> = (4..16).collect();
    let (a0, _) = Rig::new(16, 4, &[0]).steady_push_allocs();
    let (a1, _) = Rig::new(16, 4, &[4]).steady_push_allocs();
    let (a15, _) = Rig::new(16, 4, &leaves).steady_push_allocs();
    assert_eq!((a0, a1, a15), (3, 5, 5));
}

#[test]
fn an_instant_of_pushes_builds_one_slice_and_one_payload_for_the_tree() {
    // The root relay stages what one instant hands it and flushes once:
    // k pushes cost their 3 blocks each, and the 15 edges below cost one
    // batch between them, however many deltas it carries.
    const K: u32 = 12;
    const ALLOCS_PER_PUSH: u64 = 3;
    let leaves: Vec<u32> = (4..16).collect();
    let (a0, sent) = Rig::new(16, 4, &[0]).steady_burst_allocs(K);
    assert_eq!(sent, 0);
    let (a15, sent) = Rig::new(16, 4, &leaves).steady_burst_allocs(K);
    assert_eq!(sent, 15, "one message per edge for the whole instant");
    let per_pushes = K as u64 * ALLOCS_PER_PUSH;
    assert_eq!(
        (a0, a15),
        (
            per_pushes,
            per_pushes + ALLOCS_PER_PUBLISHED_BATCH + 15 * ALLOCS_PER_EDGE_MESSAGE
        )
    );
}

/// A two-rank world with a service on rank 1 that echoes each request
/// back (`answers`) or does nothing.
fn service(answers: bool) -> (World, FluxEngine, Topic) {
    let mut w = World::new(MachineKind::Lassen, 2, 5);
    let mut eng: FluxEngine = Engine::new();
    let topic = Topic::intern("svc.op");
    let module = Rc::new(RefCell::new(Dummy {
        name: "svc",
        topics: vec![topic.clone()],
        answers,
    }));
    assert!(w.load_module(&mut eng, Rank(1), module));
    (w, eng, topic)
}

fn run_out(w: &mut World, eng: &mut FluxEngine) {
    let until = eng.now() + SimDuration::from_millis(10);
    eng.run_until(w, until);
}

#[test]
fn a_message_costs_no_allocation_to_send_and_deliver() {
    let (mut w, mut eng, topic) = service(false);
    let body = payload(7u64);
    let send_one = |w: &mut World, eng: &mut FluxEngine| {
        w.send(
            eng,
            Message::event(Rank(0), Rank(1), &topic, Rc::clone(&body)),
        );
        run_out(w, eng);
    };
    // The first caches the route and sizes the event slab, the second
    // earns its delay a lane in the event queue.
    for _ in 0..3 {
        send_one(&mut w, &mut eng);
    }
    let (allocs, ()) = allocs_during(|| send_one(&mut w, &mut eng));
    assert_eq!(
        allocs, 0,
        "the delivery event, which owns message and route, is a slab entry"
    );
    assert_eq!(Rc::strong_count(&body), 1, "delivered and dropped");
}

#[test]
fn a_deadline_rpc_allocates_only_its_callback() {
    let (mut w, mut eng, topic) = service(true);
    let body = payload(7u64);
    let answered = Rc::new(Cell::new(0u32));
    let call = |w: &mut World, eng: &mut FluxEngine| {
        let answered = Rc::clone(&answered);
        w.rpc(Rank(1), &topic, Rc::clone(&body))
            .from(Rank(0))
            .deadline(SimDuration::from_secs(1))
            .send(eng, move |_, _, resp| {
                assert!(resp.is_ok());
                answered.set(answered.get() + 1)
            });
        run_out(w, eng);
    };
    for _ in 0..3 {
        call(&mut w, &mut eng);
    }
    // A round trip under an armed deadline: the boxed callback and
    // nothing else — the deadline timer and the two deliveries are slab
    // entries. (4 while each of the three was a boxed closure, 6 while
    // each message also sat in an `Rc`.)
    let (allocs, ()) = allocs_during(|| call(&mut w, &mut eng));
    assert_eq!(allocs, 1);
    assert_eq!(answered.get(), 4);
    assert_eq!(Rc::strong_count(&body), 1);
}

#[test]
fn an_armed_deadline_does_not_hold_the_request_payload() {
    let (mut w, mut eng, topic) = service(false);
    let body = payload(vec![0u8; 4096]);
    let timed_out = Rc::new(Cell::new(false));
    let seen = Rc::clone(&timed_out);
    w.rpc(Rank(1), &topic, Rc::clone(&body))
        .from(Rank(0))
        .deadline(SimDuration::from_secs(1))
        .send(&mut eng, move |_, _, resp| seen.set(resp.is_timeout()));
    assert_eq!(Rc::strong_count(&body), 2, "in flight");
    run_out(&mut w, &mut eng);
    // Delivered; the deadline is still a second away.
    assert_eq!(w.pending_rpc_count(), 1);
    assert_eq!(Rc::strong_count(&body), 1, "nothing but this test holds it");
    // And the timer can still say everything it has to.
    let until = eng.now() + SimDuration::from_secs(2);
    eng.run_until(&mut w, until);
    assert!(timed_out.get());
    assert_eq!(w.rpc_stats()[&topic].timeouts, 1);
}

#[test]
fn a_poll_reply_costs_the_client_the_same_for_one_delta_as_for_4096() {
    let mut rig = Rig::new(4, 2, &[0]);
    // Reach working size first: 4,096 queued, drained once.
    for i in 0..4096 {
        rig.push(i % 4);
    }
    rig.drain();

    let poll_of = |rig: &mut Rig, n: u32| {
        for i in 0..n {
            rig.push(i % 4);
        }
        let (allocs, polls) = allocs_during(|| rig.drain());
        let poll = polls.into_iter().next().expect("one subscriber");
        let (reading, batch) = allocs_during(|| poll.deltas().expect("answered").expect("ok"));
        assert_eq!(batch.deltas.len(), n as usize);
        assert_eq!(reading, 0, "deltas() of {n} allocated");
        // Every reader holds the runs the relay built, not a copy.
        let again = poll.deltas().unwrap().unwrap();
        assert!(batch.deltas.ptr_eq(&again.deltas));
        let Some(Ok(fluxpm::monitor::MonitorReply::Deltas(raw))) = poll.reply() else {
            panic!("poll reply is a delta batch");
        };
        assert!(batch.deltas.ptr_eq(&raw.deltas));
        allocs
    };
    let one = poll_of(&mut rig, 1);
    let many = poll_of(&mut rig, 4096);
    assert_eq!(one, many, "a poll's allocations grew with its batch");
}

// ---------------------------------------------------------------------
// (b) Dispatch semantics of the broker's vector tables
// ---------------------------------------------------------------------

struct Dummy {
    name: &'static str,
    topics: Vec<Topic>,
    /// Answer every request with its own payload.
    answers: bool,
}

impl Module for Dummy {
    fn name(&self) -> &'static str {
        self.name
    }
    fn topics(&self) -> Vec<Topic> {
        self.topics.clone()
    }
    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if self.answers {
            ctx.world.respond(ctx.eng, msg, Rc::clone(&msg.payload));
        }
    }
}

fn dummy(name: &'static str, topics: &[&str]) -> SharedModule {
    Rc::new(RefCell::new(Dummy {
        name,
        topics: topics.iter().map(|s| Topic::intern(s)).collect(),
        answers: false,
    }))
}

fn served_by(broker: &Broker, topic: &str) -> Option<&'static str> {
    broker.route(topic).map(|m| m.borrow().name())
}

#[test]
fn vector_tables_dispatch_like_the_maps_did() {
    let mut b = Broker::new(Rank(0), "h".into());
    assert!(b.register(dummy("first", &["t.shared", "t.first"])));
    // A duplicate module name is rejected whole: none of its topics land.
    assert!(!b.register(dummy("first", &["t.intruder"])));
    assert_eq!(served_by(&b, "t.intruder"), None);

    // A topic registered by two modules goes to the later one.
    assert!(b.register(dummy("second", &["t.shared", "t.second"])));
    assert_eq!(served_by(&b, "t.shared"), Some("second"));
    assert_eq!(served_by(&b, "t.first"), Some("first"));
    assert_eq!(b.module_names(), vec!["first", "second"]);

    // Unregistering drops exactly that module's routes — including the
    // one it took over — and nothing of the other's.
    assert!(b.unregister("second"));
    assert_eq!(served_by(&b, "t.shared"), None);
    assert_eq!(served_by(&b, "t.second"), None);
    assert_eq!(served_by(&b, "t.first"), Some("first"));
    assert!(b.module("second").is_none());
    assert!(!b.unregister("second"));

    // A string built at run time finds its route by text...
    let built = format!("t.{}", "first");
    assert_eq!(served_by(&b, &built), Some("first"));
    // ...and one that was never interned misses without being interned
    // (interning it would allocate its text).
    let unknown = format!("t.{}", "never-seen");
    let (allocs, hit) = allocs_during(|| b.route(&unknown).is_some());
    assert!(!hit);
    assert_eq!(allocs, 0);
}

// ---------------------------------------------------------------------
// (c) A topic interned on another thread
// ---------------------------------------------------------------------

fn hash_of(t: &Topic) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[test]
fn a_topic_interned_on_another_thread_is_the_same_topic() {
    let local = Topic::intern("svc.cross-thread");
    let foreign = std::thread::spawn(|| Topic::intern("svc.cross-thread"))
        .join()
        .expect("interning thread");
    // Two allocations, one topic: equality falls back to the text, and
    // order and hash never looked at the address.
    assert!(!std::ptr::eq(local.as_str(), foreign.as_str()));
    assert_eq!(local, foreign);
    assert_eq!(local.cmp(&foreign), std::cmp::Ordering::Equal);
    assert_eq!(hash_of(&local), hash_of(&foreign));
    let later = Topic::intern("svc.cross-thread.z");
    assert!(foreign < later && local < later);

    // And it routes to the module registered under the local handle.
    let mut b = Broker::new(Rank(0), "h".into());
    assert!(b.register(dummy("svc", &["svc.other", "svc.cross-thread"])));
    assert_eq!(served_by(&b, &foreign), Some("svc"));
    assert_eq!(served_by(&b, &local), Some("svc"));
}

// ---------------------------------------------------------------------
// (d) nodes_mut and RingBuffer::new cost what they are asked for
// ---------------------------------------------------------------------

/// `World::nodes_mut` as it was: a map of the wanted ids, a walk over
/// every node, a sort back into the caller's order.
fn nodes_mut_by_full_walk<'w>(
    nodes: &'w mut [NodeHardware],
    ids: &[NodeId],
) -> Vec<&'w mut NodeHardware> {
    let want: HashMap<usize, usize> = ids
        .iter()
        .enumerate()
        .map(|(pos, n)| (n.index(), pos))
        .collect();
    let mut picked: Vec<(usize, &mut NodeHardware)> = nodes
        .iter_mut()
        .enumerate()
        .filter_map(|(i, n)| want.get(&i).map(|&pos| (pos, n)))
        .collect();
    picked.sort_by_key(|(pos, _)| *pos);
    picked.into_iter().map(|(_, n)| n).collect()
}

fn addresses(nodes: Vec<&mut NodeHardware>) -> Vec<usize> {
    nodes
        .into_iter()
        .map(|n| n as *mut NodeHardware as usize)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nodes_mut_returns_what_the_full_walk_returned(
        cluster in 1u32..48,
        draws in prop::collection::vec(0usize..1_000_000, 0..48),
    ) {
        // A shuffled set of distinct ids: Fisher–Yates over the cluster,
        // cut to as many as there are draws.
        let mut ids: Vec<NodeId> = (0..cluster).map(NodeId).collect();
        for (i, d) in draws.iter().enumerate().take(ids.len()) {
            let j = i + d % (ids.len() - i);
            ids.swap(i, j);
        }
        ids.truncate(draws.len());

        let mut w = World::new(MachineKind::Lassen, cluster, 3);
        let got = addresses(w.nodes_mut(&ids));
        let want = addresses(nodes_mut_by_full_walk(&mut w.nodes, &ids));
        prop_assert_eq!(&got, &want);
        let direct: Vec<usize> = ids
            .iter()
            .map(|id| &w.nodes[id.index()] as *const NodeHardware as usize)
            .collect();
        prop_assert_eq!(&got, &direct);
    }
}

#[test]
fn a_ring_allocates_when_it_is_pushed_to_not_when_it_is_built() {
    let (building, mut ring) = allocs_during(|| RingBuffer::<u64>::new(100_000));
    assert_eq!(building, 0);
    let (first_push, _) = allocs_during(|| ring.push(1));
    assert_eq!(first_push, 1);
    // Storage follows the contents, and stops at the capacity.
    let mut small = RingBuffer::<u64>::new(6);
    let (filling, ()) = allocs_during(|| {
        for i in 0..100 {
            small.push(i);
        }
    });
    assert_eq!(filling, 2, "4 slots, then 6, then the ring wraps in place");
    assert_eq!(
        small.iter().copied().collect::<Vec<_>>(),
        vec![94, 95, 96, 97, 98, 99]
    );
}
