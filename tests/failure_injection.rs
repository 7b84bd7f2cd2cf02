//! Failure-injection integration tests: the production anomalies the
//! paper reports in §V, reproduced end-to-end.

use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::flux::{Engine, FaultPlan, FluxEngine, JobSpec, JobState, Rank, World};
use fluxpm::hw::{MachineKind, NodeHardware, NodeId, Watts};
use fluxpm::monitor::{MonitorConfig, MonitorQuery};
use fluxpm::sim::{SimDuration, SimTime, TraceLevel};
use fluxpm::workloads::{laghos, App, JitterModel};
use std::cell::RefCell;
use std::rc::Rc;

/// §V: "on some nodes at a low node-level power cap (1200 W), NVIDIA GPU
/// power capping failed intermittently, either picking up the last set
/// power cap or defaulting to the maximum power cap."
#[test]
fn nvml_intermittent_failures_at_low_node_cap() {
    let arch = fluxpm::hw::lassen();
    let mut node = NodeHardware::new(NodeId(0), arch, 77).with_nvml_failure_injection(0.3);
    node.set_node_cap(Watts(1200.0)).unwrap();

    let mut applied = 0;
    let mut stale = 0;
    let mut reset = 0;
    for attempt in 0..200 {
        let target = if attempt % 2 == 0 { 150.0 } else { 120.0 };
        match node.set_gpu_cap(attempt % 4, Watts(target)).unwrap() {
            fluxpm::hw::CapOutcome::Applied(_) => applied += 1,
            fluxpm::hw::CapOutcome::StalePrevious(_) => stale += 1,
            fluxpm::hw::CapOutcome::ResetToDefault(w) => {
                assert_eq!(w, Watts(300.0));
                reset += 1;
            }
        }
    }
    assert!(applied > 100, "most sets succeed: {applied}");
    assert!(
        stale > 5 && reset > 5,
        "both failure modes occur: {stale}/{reset}"
    );
    assert_eq!(node.nvml.failure_count() as usize, stale + reset);

    // At a high node cap the same node never fails.
    node.set_node_cap(Watts(1950.0)).unwrap();
    for _ in 0..50 {
        assert!(node.set_gpu_cap(0, Watts(200.0)).unwrap().succeeded());
    }
}

/// Buffer wrap produces the "partial" completeness flag end-to-end: a job
/// longer than the buffer window loses its earliest samples.
#[test]
fn buffer_wrap_yields_partial_job_data() {
    // Tiny buffer: 20 records at 2 s sampling = a 40 s retention window.
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 2)
        .with_seed(21)
        .with_monitor(MonitorConfig::default().with_buffer_capacity(20))
        .build();
    world.autostop_after = Some(1);
    // A ~100 s job overflows the window.
    let app = App::with_jitter(laghos(), MachineKind::Lassen, 1, 1, JitterModel::none())
        .with_work_seconds(100.0);
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 1), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    assert!(
        !reply.all_complete(),
        "wrapped buffer must flag partial data"
    );
    assert_eq!(reply.nodes[0].records.len(), 20, "only the retained window");
    // The CSV carries the partial flag.
    let csv = fluxpm::monitor::job_data_to_csv(&reply);
    assert!(csv.contains("partial"));
}

/// Monitor sampling keeps running (and stays bounded) across many jobs —
/// the stateless design never accumulates per-job state.
#[test]
fn node_agent_state_is_bounded_across_jobs() {
    let mut world = World::new(MachineKind::Lassen, 2, 33);
    world.autostop_after = Some(6);
    let mut eng: FluxEngine = Engine::new();
    let agent = fluxpm::monitor::NodeAgent::shared(
        MonitorConfig::default()
            .with_sample_interval(SimDuration::from_secs(1))
            .with_buffer_capacity(50),
    );
    world.load_module(&mut eng, fluxpm::flux::Rank(0), agent.clone());
    world.install_executor(&mut eng);
    for i in 0..6u64 {
        let app = App::with_jitter(laghos(), MachineKind::Lassen, 2, i, JitterModel::none());
        world.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app));
    }
    eng.run(&mut world);
    let a = agent.borrow();
    assert!(a.retained() <= 50, "ring buffer bounded: {}", a.retained());
    assert!(a.samples_taken() > 50, "sampling continued across jobs");
    assert_eq!(a.samples_taken() - a.retained() as u64, a.overwritten());
}

/// Tioga gracefully refuses capping while telemetry keeps working — the
/// early-access posture from §II-A.
#[test]
fn tioga_cap_refusal_does_not_break_management() {
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Tioga, 4)
        .with_seed(55)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: fluxpm::manager::ManagerConfig::proportional(Watts(4000.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(1);
    let app = App::with_jitter(laghos(), MachineKind::Tioga, 2, 1, JitterModel::none());
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app));
    eng.run(&mut world);
    assert!(world.jobs.get(id).unwrap().runtime_seconds().is_some());

    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    assert!(
        reply.sample_count() > 0,
        "telemetry unaffected by cap refusal"
    );
    // No sample carries a direct node reading on Tioga.
    for node in &reply.nodes {
        for r in node.records.iter() {
            assert!(!r.node_power_measured());
            let decoded = r.sample().expect("stored JSON decodes");
            assert!(decoded.power_node_watts.is_none());
        }
    }
}

/// §V: "Kripke execution failed on the Tioga system" — the program
/// crashes, the job transitions to Failed, and the queue moves on.
#[test]
fn kripke_crashes_on_tioga_but_runs_on_lassen() {
    use fluxpm::flux::JobState;
    use fluxpm::workloads::kripke;

    // Lassen: runs fine.
    let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 4).with_seed(3).build();
    w.autostop_after = Some(1);
    let app = App::with_jitter(kripke(), MachineKind::Lassen, 4, 1, JitterModel::none());
    let id = w.submit(&mut eng, JobSpec::new("Kripke", 4), Box::new(app));
    eng.run(&mut w);
    assert_eq!(w.jobs.get(id).unwrap().state, JobState::Completed);
    let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
    assert!((rt - 45.0).abs() < 3.0, "{rt}");

    // Tioga: crashes at the first slice; a queued job still runs after.
    let (mut w, mut eng, _) = Scenario::new(MachineKind::Tioga, 4)
        .with_seed(3)
        .with_trace(TraceLevel::Warn)
        .build();
    w.autostop_after = Some(2);
    let doomed = App::with_jitter(kripke(), MachineKind::Tioga, 4, 1, JitterModel::none());
    let a = w.submit(&mut eng, JobSpec::new("Kripke", 4), Box::new(doomed));
    let follow = App::with_jitter(laghos(), MachineKind::Tioga, 4, 2, JitterModel::none());
    let b = w.submit(&mut eng, JobSpec::new("Laghos", 4), Box::new(follow));
    eng.run(&mut w);
    assert_eq!(w.jobs.get(a).unwrap().state, JobState::Failed);
    assert_eq!(w.jobs.get(b).unwrap().state, JobState::Completed);
    assert!(
        w.trace
            .for_subsystem("job")
            .any(|e| e.message.contains("crashed") && e.message.contains("Kripke does not run")),
        "crash reason traced"
    );
    assert_eq!(w.sched.free_count(), 4, "crashed job's nodes reclaimed");
}

/// The tentpole scenario: an *interior* TBON rank dies mid-reduction.
///
/// 7-node binary tree (rank 1 parents ranks 3 and 4). A tree-stats query
/// enters at t = 30 s; rank 1 is failed 50 µs later — after it has fanned
/// out to its children but before their responses arrive. The overlay is
/// severed (nothing from or through rank 1 is delivered again), rank 1's
/// pending RPCs are cancelled, and its orphans (ranks 3 and 4) re-parent
/// under the root. When the root's per-child deadline on rank 1 fires, the
/// reduction *re-fans* to the re-parented survivors: the reply carries
/// every live rank's data and only the dead rank is missing. Same-seed
/// runs must be byte-identical.
#[test]
fn interior_rank_failure_mid_reduction_completes_incomplete() {
    let fail_at = SimTime::from_micros(30_000_050);

    let run = || {
        let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 7)
            .with_seed(99)
            .with_trace(TraceLevel::Debug)
            .with_monitor(MonitorConfig::default())
            .build();
        w.autostop_after = Some(1);
        let app = App::with_jitter(laghos(), MachineKind::Lassen, 7, 1, JitterModel::none())
            .with_work_seconds(100.0);
        let id = w.submit(&mut eng, JobSpec::new("Laghos", 7), Box::new(app));

        // Query mid-run; the reduction is in flight when rank 1 dies.
        let slot = Rc::new(RefCell::new(None));
        let slot2 = Rc::clone(&slot);
        eng.schedule(SimTime::from_secs(30), move |w: &mut World, eng| {
            let inner = MonitorQuery::job_stats_tree(id).send(w, eng);
            *slot2.borrow_mut() = Some(inner);
        });
        eng.schedule(fail_at, move |w: &mut World, eng| {
            w.fail_node(eng, NodeId(1));
        });
        eng.run(&mut w);

        let outer = slot.borrow().clone().unwrap();
        let stats = outer.subtree_stats().unwrap().unwrap();
        let trace = w.trace.text().to_owned();
        (w, id, stats, trace)
    };

    let (w, id, stats, trace) = run();

    // The reduction finished despite the dead interior rank, flagged
    // incomplete — but only rank 1 itself is missing: its orphans were
    // re-parented under the root and the deadline handler re-fanned the
    // query out to them.
    assert!(!stats.all_complete, "dead rank must flag incomplete");
    assert_eq!(
        stats.nodes, 6,
        "every live rank contributes after the re-fan: {stats:?}"
    );
    assert!(stats.samples > 0, "surviving subtree carried data");
    assert!(
        trace.contains("re-parented 2 orphan(s) of rank1 under rank0"),
        "orphans re-attached to the nearest live ancestor"
    );

    // Exactly the root's deadline on rank 1 fired; no matchtag leaked.
    assert_eq!(w.rpc_timeout_count(), 1, "one per-child deadline fired");
    assert_eq!(w.pending_rpc_count(), 0, "no leaked matchtags");
    assert!(!w.broker_up(Rank(1)));
    assert_eq!(w.jobs.get(id).unwrap().state, JobState::Failed);

    // The overlay is severed: nothing originating at rank 1 is delivered
    // after the failure instant, and in-flight traffic was dropped.
    assert!(
        !w.trace
            .for_subsystem("tbon")
            .any(|e| e.at >= fail_at && e.message.starts_with("deliver rank1 ")),
        "no message delivered from the dead rank after failure"
    );
    assert!(
        w.trace
            .for_subsystem("tbon")
            .any(|e| e.at >= fail_at && e.message.starts_with("sever:")),
        "in-flight traffic to/through the dead rank was dropped"
    );

    // Determinism: a second identical run replays byte-for-byte.
    let (w2, _, stats2, trace2) = run();
    assert_eq!(trace, trace2, "same-seed runs must be byte-identical");
    assert_eq!(stats, stats2);
    assert_eq!(w.rpc_timeout_count(), w2.rpc_timeout_count());
}

/// Chaos test: random per-link message loss and latency jitter under the
/// monitor's fan-out aggregation. Retries mask the drops, every matchtag
/// is retired, and the whole run — drops included — replays bit-for-bit
/// from the seed.
#[test]
fn chaos_faults_are_deterministic_and_aggregation_completes() {
    let run = |seed: u64| {
        let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 8)
            .with_seed(seed)
            .with_trace(TraceLevel::Warn)
            .with_monitor(MonitorConfig::default())
            .build();
        w.autostop_after = Some(1);
        w.install_fault_plan(FaultPlan::uniform(0.25, SimDuration::from_micros(50)));
        let app = App::with_jitter(laghos(), MachineKind::Lassen, 8, seed, JitterModel::none())
            .with_work_seconds(60.0);
        let id = w.submit(&mut eng, JobSpec::new("Laghos", 8), Box::new(app));
        eng.run(&mut w);

        // Post-run stats aggregation across the lossy overlay.
        let mut eng2: FluxEngine = Engine::new();
        let query = MonitorQuery::job_stats(id).send(&mut w, &mut eng2);
        eng2.run(&mut w);
        let reply = query.job_stats();
        let trace = w.trace.text().to_owned();
        (
            trace,
            w.fault_drops(),
            w.rpc_timeout_count(),
            w.rpc_retry_count(),
            w.pending_rpc_count(),
            reply,
        )
    };

    let (trace_a, drops_a, timeouts_a, retries_a, pending_a, reply_a) = run(5);
    let (trace_b, drops_b, timeouts_b, retries_b, pending_b, _) = run(5);

    // The aggregation completed despite the chaos, and nothing leaked.
    let reply = reply_a.expect("aggregation must complete under faults");
    let reply = reply.expect("root agent replies (possibly partial)");
    assert_eq!(reply.nodes.len(), 8, "every target answered or timed out");
    assert_eq!(pending_a, 0, "all matchtags retired");
    assert_eq!(pending_b, 0);
    assert!(drops_a > 0, "the plan actually dropped traffic");

    // Byte-identical replay from the same seed.
    assert_eq!(trace_a, trace_b);
    assert_eq!(drops_a, drops_b);
    assert_eq!(timeouts_a, timeouts_b);
    assert_eq!(retries_a, retries_b);

    // A different seed shuffles the chaos.
    let (trace_c, ..) = run(6);
    assert_ne!(trace_a, trace_c, "different seed, different fault pattern");
}
