//! Guard the read path's ownership rule, don't just benchmark it: a
//! retained sample is written once, at sample time, into bytes its node
//! agent keeps, and a `job_data` query hands out references to them — so
//! what a query allocates depends on how many nodes answer, not on how
//! much history they hold.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counters
//! are thread-local so the measurement is immune to other test threads
//! allocating concurrently (the `crates/fft/tests/alloc_free.rs` harness).

use fluxpm_flux::{FluxEngine, JobId, JobProgram, JobSpec, Rank, StepCtx, StepOutcome, World};
use fluxpm_hw::{Lanes, MachineKind, PowerDemand, Watts};
use fluxpm_monitor::{
    JobDataReply, MonitorConfig, MonitorQuery, NodeAgent, PowerRecord, RootAgent, RPC_DEADLINE,
};
use fluxpm_sim::{Engine, SimDuration, SimTime};
use fluxpm_variorum::NodePowerSample;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

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

/// Holds every node at a steady draw for `secs` simulated seconds.
struct Burn {
    secs: f64,
    done: f64,
}

impl JobProgram for Burn {
    fn app_name(&self) -> &str {
        "burn"
    }

    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        for n in &mut ctx.nodes {
            let arch = n.arch.clone();
            n.set_demand(PowerDemand {
                cpu: Lanes::filled(Watts(150.0), arch.sockets),
                memory: Watts(80.0),
                gpu: Lanes::filled(Watts(250.0), arch.gpus),
                other: arch.other,
            });
        }
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
        self.done += ctx.dt;
        if self.done >= self.secs {
            StepOutcome::Done {
                leftover_seconds: self.done - self.secs,
            }
        } else {
            StepOutcome::Running
        }
    }
}

const NODES: u32 = 16;

/// A 16-node world whose one job ran for `secs` seconds under 1 s
/// sampling, with the node agents' handles kept so a test can look into
/// the rings.
fn world_after_job(secs: f64) -> (World, JobId, Vec<Rc<RefCell<NodeAgent>>>) {
    let mut w = World::new(MachineKind::Lassen, NODES, 11);
    w.autostop_after = Some(1);
    let mut eng: FluxEngine = Engine::new();
    w.install_executor(&mut eng);
    let config = MonitorConfig::default().with_sample_interval(SimDuration::from_secs(1));
    let agents: Vec<_> = (0..NODES)
        .map(|rank| {
            let agent = NodeAgent::shared(config.clone());
            assert!(w.load_module(&mut eng, Rank(rank), agent.clone()));
            agent
        })
        .collect();
    let root = w.root();
    assert!(w.load_module(&mut eng, root, RootAgent::shared(RPC_DEADLINE)));
    let job = w.submit(
        &mut eng,
        JobSpec::new("burn", NODES),
        Box::new(Burn { secs, done: 0.0 }),
    );
    eng.run(&mut w);
    (w, job, agents)
}

/// One `job_data` query on an engine of its own (so nothing but the
/// query runs), and what it allocated from send to typed reply.
fn query(w: &mut World, job: JobId) -> (u64, JobDataReply) {
    allocs_during(|| {
        let mut eng: FluxEngine = Engine::new();
        let handle = MonitorQuery::job_data(job).send(w, &mut eng);
        eng.run(w);
        handle.job_data().expect("answered").expect("ok")
    })
}

#[test]
fn job_data_allocations_do_not_grow_with_history() {
    let (mut short, job_short, _) = world_after_job(50.0);
    let (mut long, job_long, _) = world_after_job(500.0);
    // A world's first query also fills its route and RPC tables: lazy
    // one-time set-up is not the claim.
    query(&mut short, job_short);
    query(&mut long, job_long);
    let (a_short, r_short) = query(&mut short, job_short);
    let (a_long, r_long) = query(&mut long, job_long);
    assert!(r_short.all_complete() && r_long.all_complete());
    assert!(
        r_short.sample_count() >= 45 * NODES as usize
            && r_long.sample_count() >= 495 * NODES as usize,
        "windows hold {} and {} samples",
        r_short.sample_count(),
        r_long.sample_count()
    );
    // Ten times the records; the same messages, one slice per node.
    assert!(
        a_long.abs_diff(a_short) <= NODES as u64,
        "{a_short} allocations for {} samples, {a_long} for {}",
        r_short.sample_count(),
        r_long.sample_count()
    );
}

#[test]
fn client_sees_the_ring_s_own_bytes() {
    let (mut w, job, agents) = world_after_job(20.0);
    let (_, reply) = query(&mut w, job);
    assert_eq!(reply.nodes.len(), NODES as usize);
    for (rank, (node, agent)) in reply.nodes.iter().zip(&agents).enumerate() {
        assert_eq!(&*node.hostname, w.hostname(Rank(rank as u32)));
        let mut agent = agent.borrow_mut();
        let (start, end) = (reply.start_us, reply.end_us);
        let retained: Vec<&PowerRecord> = agent
            .records()
            .filter(|r| (start..=end).contains(&r.timestamp_us()))
            .collect();
        assert_eq!(node.records.len(), retained.len());
        assert!(!retained.is_empty());
        for (seen, kept) in node.records.iter().zip(retained) {
            assert!(
                std::ptr::eq(seen.raw_json(), kept.raw_json()),
                "the reply holds the ring's block, not a copy of it"
            );
        }
    }
}

#[test]
fn a_sampling_tick_allocates_a_fixed_number_of_blocks() {
    // Encoding a record: its one block, nothing else (after the
    // thread's assembly buffer has grown once).
    let sample = NodePowerSample {
        hostname: "lassen0".into(),
        timestamp_us: 2_000_000,
        power_node_watts: Some(981.2),
        power_cpu_watts: [151.0, 149.7].into(),
        power_mem_watts: Some(81.3),
        power_gpu_watts: [248.9; 4].into(),
    };
    PowerRecord::encode(&sample);
    let (allocs, record) = allocs_during(|| PowerRecord::encode(&sample));
    assert_eq!(allocs, 1, "one block per retained record");
    assert_eq!(record.sample(), Some(sample));
    let (allocs, copy) = allocs_during(|| record.clone());
    assert_eq!(allocs, 0, "a copy is a reference-count bump");
    assert!(std::ptr::eq(copy.raw_json(), record.raw_json()));

    // A whole tick through the engine. The sensor scan is `hw-models`'
    // and its reading is inline; the monitor writes the record into the
    // log's pending bytes and allocates nothing, every fourth tick makes
    // the last four records' bytes one block, and every sixteenth tick
    // also seals the page it filled (DESIGN.md §14). The same count every
    // sixteen ticks once the log is past its second page (until then its
    // open page grows a quarter page at a time, and its pending bytes
    // keep no spare room) and at capacity.
    let mut w = World::new(MachineKind::Lassen, 1, 3);
    let (sensor_scan, _) = allocs_during(|| w.nodes[0].read_sensors());
    assert_eq!(sensor_scan, 0, "a sensor scan owns no heap");
    let mut eng: FluxEngine = Engine::new();
    let config = MonitorConfig::default()
        .with_sample_interval(SimDuration::from_secs(1))
        .with_buffer_capacity(4);
    let agent = NodeAgent::shared(config);
    w.load_module(&mut eng, Rank(0), agent.clone());
    // Warm-up: the thread's assembly buffer, and 48 ticks to seal three
    // pages.
    eng.run_until(&mut w, SimTime::from_millis(48_500));
    for (until_ms, ticks) in [(49_500, 1), (63_500, 14), (64_500, 1), (224_500, 160)] {
        let before = agent.borrow().samples_taken();
        let until = SimTime::from_millis(until_ms);
        let (allocs, _) = allocs_during(|| eng.run_until(&mut w, until));
        let after = agent.borrow().samples_taken();
        assert_eq!(after - before, ticks);
        let packs = after / 4 - before / 4;
        let pages = after / 16 - before / 16;
        assert_eq!(allocs, packs + pages, "over {ticks} tick(s)");
    }
}

#[test]
fn cloning_a_reply_allocates_nothing_per_record() {
    let (mut w, job, _) = world_after_job(100.0);
    let (_, reply) = query(&mut w, job);
    assert!(reply.sample_count() >= 95 * NODES as usize);
    let (allocs, copy) = allocs_during(|| reply.nodes[0].clone());
    assert_eq!(allocs, 0, "a node's reply shares its records");
    assert_eq!(copy, reply.nodes[0]);
    let (allocs, copy) = allocs_during(|| reply.clone());
    assert_eq!(
        allocs, 2,
        "a job's reply: its name and its node list, whatever they hold"
    );
    assert_eq!(copy, reply);
}
