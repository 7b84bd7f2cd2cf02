//! Cross-crate integration: monitor + manager + scheduler + workloads
//! running together on one simulated instance.

use fluxpm::experiments::experiments::queue::queue_jobs;
use fluxpm::experiments::{JobRequest, PowerSetup, RunReport, Scenario};
use fluxpm::flux::{Engine, FluxEngine, JobSpec, World};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::manager::ManagerConfig;
use fluxpm::monitor::{MonitorConfig, MonitorQuery};
use fluxpm::workloads::{laghos, App, JitterModel};

/// A Lassen world of `nodes` nodes with the monitor loaded.
fn monitored(nodes: u32, seed: u64) -> (World, FluxEngine) {
    let (world, eng, _) = Scenario::new(MachineKind::Lassen, nodes)
        .with_seed(seed)
        .with_monitor(MonitorConfig::default())
        .build();
    (world, eng)
}

/// Monitor and manager coexist: telemetry reflects the caps the manager
/// sets, and both module stacks share the TBON without interfering.
#[test]
fn monitor_and_manager_together() {
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 8)
        .with_seed(5)
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config: ManagerConfig::proportional(Watts(9600.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(2);

    let gemm = App::with_jitter(
        fluxpm::workloads::gemm(),
        MachineKind::Lassen,
        6,
        1,
        JitterModel::none(),
    )
    .with_work_scale(2.0);
    let qs = App::with_jitter(
        fluxpm::workloads::quicksilver(),
        MachineKind::Lassen,
        2,
        2,
        JitterModel::none(),
    )
    .with_work_seconds(348.0);
    let gid = world.submit(&mut eng, JobSpec::new("GEMM", 6), Box::new(gemm));
    world.submit(&mut eng, JobSpec::new("Quicksilver", 2), Box::new(qs));
    eng.run(&mut world);

    // Fetch GEMM's telemetry through the monitor.
    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(gid).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    assert_eq!(reply.nodes.len(), 6);
    assert!(reply.all_complete());

    // While sharing, GEMM nodes sit near the 1200 W share (CPU 200 +
    // 4x200 GPU + mem 80 + other 40 = 1120); after reclaim they rise.
    let early: Vec<f64> = reply.nodes[0]
        .records
        .iter()
        .filter(|r| (60_000_000..300_000_000).contains(&r.timestamp_us()))
        .map(|r| r.node_power_estimate())
        .collect();
    let mean = early.iter().sum::<f64>() / early.len() as f64;
    assert!(
        (mean - 1120.0).abs() < 60.0,
        "managed GEMM node during sharing: {mean} W"
    );
}

/// The global bound is never violated across a randomized queue, under
/// both managed policies, as observed by sampled telemetry.
#[test]
fn power_bound_invariant_under_random_queue() {
    use fluxpm::sim::Xoshiro256pp;
    let apps = ["LAMMPS", "GEMM", "Quicksilver", "Laghos"];
    for policy_is_fpp in [false, true] {
        let mut rng = Xoshiro256pp::seed_from_u64(0xBEEF);
        let bound = 12.0 * 1200.0;
        let config = if policy_is_fpp {
            ManagerConfig::fpp(Watts(bound))
        } else {
            ManagerConfig::proportional(Watts(bound))
        };
        let mut scenario = Scenario::new(MachineKind::Lassen, 12)
            .with_label(if policy_is_fpp { "fpp" } else { "prop" })
            .with_power(PowerSetup::Managed {
                static_node_cap: Some(1950.0),
                config,
            });
        for i in 0..8 {
            let app = apps[rng.below(4) as usize];
            let nnodes = rng.range_inclusive(1, 6) as u32;
            scenario = scenario.with_job(
                JobRequest::new(app, nnodes)
                    .with_work_seconds(rng.uniform(60.0, 200.0))
                    .submit_at(i as f64 * 15.0),
            );
        }
        let report = scenario.run();
        assert_eq!(report.jobs.len(), 8);
        assert!(
            report.cluster_max_w <= bound * 1.02,
            "bound violated under {}: {:.0} W of {bound:.0}",
            report.label,
            report.cluster_max_w
        );
    }
}

/// Telemetry faithfully reflects injected demand end-to-end (sensor noise
/// aside): a Laghos node reads ~490 W through the whole stack.
#[test]
fn telemetry_matches_injected_demand() {
    let (mut world, mut eng) = monitored(2, 9);
    world.autostop_after = Some(1);
    let app = App::with_jitter(laghos(), MachineKind::Lassen, 1, 3, JitterModel::none())
        .with_work_scale(8.0);
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 1), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    // Laghos: 2*85 + 4*55 + 60 + 40 = 490 W nominal (CPU sine ±).
    let avg = reply.average_node_power();
    assert!((avg - 490.0).abs() < 25.0, "telemetry avg {avg} W");
    // The CPU sine phase must be visible in the samples.
    let cpu: Vec<f64> = reply.nodes[0]
        .records
        .iter()
        .map(|r| r.cpu_total())
        .collect();
    let min = cpu.iter().copied().fold(f64::INFINITY, f64::min);
    let max = cpu.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max - min > 20.0,
        "Laghos minor phases visible: {min}..{max}"
    );
}

/// FCFS scheduling holds while both power-module stacks are loaded.
#[test]
fn scheduling_unaffected_by_power_modules() {
    let run = |with_modules: bool| {
        let mut scenario = Scenario::new(MachineKind::Lassen, 4).with_seed(13);
        if with_modules {
            scenario = scenario
                .with_power(PowerSetup::Managed {
                    static_node_cap: None,
                    config: ManagerConfig::unconstrained(),
                })
                .with_monitor(MonitorConfig::default());
        }
        let (mut world, mut eng, _) = scenario.build();
        world.autostop_after = Some(3);
        for (i, n) in [3u32, 2, 2].into_iter().enumerate() {
            let app = App::with_jitter(
                laghos(),
                MachineKind::Lassen,
                n,
                i as u64,
                JitterModel::none(),
            );
            world.submit(&mut eng, JobSpec::new(format!("j{i}"), n), Box::new(app));
        }
        eng.run(&mut world);
        world
            .jobs
            .all()
            .iter()
            .map(|j| j.started_at.unwrap().as_secs_f64().round() as i64)
            .collect::<Vec<_>>()
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(
        without, with,
        "module load must not perturb scheduling order"
    );
}

/// The light-weight stats query agrees with the full-record query.
#[test]
fn stats_query_agrees_with_full_records() {
    let (mut world, mut eng) = monitored(4, 31);
    world.autostop_after = Some(1);
    let app = App::with_jitter(laghos(), MachineKind::Lassen, 2, 9, JitterModel::none())
        .with_work_scale(6.0);
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let data_query = MonitorQuery::job_data(id).send(&mut world, &mut eng2);
    let stats_query = MonitorQuery::job_stats(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let data = data_query.job_data().unwrap().unwrap();
    let stats = stats_query.job_stats().unwrap().unwrap();

    assert_eq!(stats.nodes.len(), 2);
    assert!((stats.mean_node_power() - data.average_node_power()).abs() < 1e-6);
    assert!((stats.max_node_power() - data.max_node_power()).abs() < 1e-6);
    assert_eq!(
        stats.nodes.iter().map(|n| n.samples).sum::<usize>(),
        data.sample_count()
    );
    assert!(stats.nodes.iter().all(|n| n.complete));
    assert!(stats.energy_per_node_kj() > 0.0);
}

/// A node failure mid-job: the job fails, the monitor's aggregation
/// degrades to partial data from the downed rank, and the cluster keeps
/// scheduling on the surviving nodes.
#[test]
fn node_failure_degrades_gracefully() {
    use fluxpm::hw::NodeId;
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(41)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(4800.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(2);
    let a = world.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 1, JitterModel::none())
                .with_work_seconds(500.0),
        ),
    );
    let b = world.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 2, JitterModel::none())
                .with_work_seconds(60.0),
        ),
    );
    // Fail node 1 (node 0 hosts the root agent; losing it would take the
    // whole telemetry service down — also realistic, but not this test).
    eng.schedule(fluxpm::sim::SimTime::from_secs(30), |w: &mut World, eng| {
        w.fail_node(eng, NodeId(1));
    });
    eng.run(&mut world);

    use fluxpm::flux::JobState;
    assert_eq!(world.jobs.get(a).unwrap().state, JobState::Failed);
    assert_eq!(world.jobs.get(b).unwrap().state, JobState::Completed);

    // Telemetry for the failed job: the downed rank contributes an empty
    // partial reply; the surviving rank still answers.
    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(a).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    assert_eq!(reply.nodes.len(), 2);
    assert!(!reply.all_complete(), "downed rank flagged partial");
    let live: usize = reply.nodes.iter().filter(|n| !n.records.is_empty()).count();
    assert_eq!(live, 1, "the surviving rank still reports");
}

/// The in-tree reduction returns the same aggregate as the direct
/// fan-out query, on a cluster large enough for a multi-level TBON.
#[test]
fn tree_reduction_agrees_with_direct_stats() {
    let (mut world, mut eng) = monitored(16, 61);
    world.autostop_after = Some(1);
    // A 10-node job spanning several subtrees of the binary TBON.
    let app = App::with_jitter(laghos(), MachineKind::Lassen, 10, 9, JitterModel::none())
        .with_work_scale(6.0);
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 10), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let direct_query = MonitorQuery::job_stats(id).send(&mut world, &mut eng2);
    let tree_query = MonitorQuery::job_stats_tree(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let direct = direct_query.job_stats().unwrap().unwrap();
    let tree = tree_query.subtree_stats().unwrap().unwrap();

    assert_eq!(tree.nodes, 10);
    assert_eq!(
        tree.samples,
        direct.nodes.iter().map(|n| n.samples).sum::<usize>()
    );
    assert!((tree.mean_w() - direct.mean_node_power()).abs() < 1e-6);
    assert!((tree.max_w - direct.max_node_power()).abs() < 1e-6);
    assert!(tree.all_complete);
}

/// The 4-job Tioga mix on 8 nodes, monitor only.
fn tioga_queue() -> Scenario {
    let mut scenario = Scenario::new(MachineKind::Tioga, 8)
        .with_label("tioga-queue")
        .with_monitor(MonitorConfig::default());
    for (i, (app, n)) in [
        ("LAMMPS", 4u32),
        ("Laghos", 2),
        ("Quicksilver", 2),
        ("LAMMPS", 8),
    ]
    .into_iter()
    .enumerate()
    {
        scenario = scenario.with_job(JobRequest::new(app, n).submit_at(i as f64 * 10.0));
    }
    scenario
}

/// FNV-1a over the run's timeline, node by node and oldest first: each
/// sample's `timestamp_us` and the bits of every value it holds (node,
/// sockets, memory, GPU groups), then the bits of `cluster_max_w` and
/// `cluster_avg_w`. Also returns the sample count, so an empty timeline
/// cannot pass.
fn timeline_fnv(report: &RunReport) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut samples = 0;
    for node in 0..report.timeline.node_count() {
        for s in report.timeline.node(node) {
            eat(s.timestamp_us);
            let values = s.power_node_watts.iter().chain(&s.power_cpu_watts[..]);
            let values = values
                .chain(&s.power_mem_watts)
                .chain(&s.power_gpu_watts[..]);
            for v in values {
                eat(v.to_bits());
            }
            samples += 1;
        }
    }
    eat(report.cluster_max_w.to_bits());
    eat(report.cluster_avg_w.to_bits());
    (hash, samples)
}

/// Every sampled value of two runs, and the cluster power read from
/// them, hashes to its committed value: the §IV-E queue on 16 Lassen
/// nodes under FPP (node, two sockets, memory, four GPUs per sample) and
/// the 4-job Tioga mix (one socket and four OAMs, no node or memory
/// value).
#[test]
fn timeline_matches_golden() {
    let mut lassen = Scenario::new(MachineKind::Lassen, 16).with_power(PowerSetup::Managed {
        static_node_cap: Some(1950.0),
        config: ManagerConfig::fpp(Watts(16.0 * 1200.0)),
    });
    for job in queue_jobs() {
        lassen = lassen.with_job(job);
    }
    let lassen = timeline_fnv(&lassen.run());
    let tioga = timeline_fnv(&tioga_queue().run());
    assert_eq!(
        lassen,
        (0xec5a_f70c_e1a4_a1e7, 12448),
        "Lassen §IV-E queue under FPP"
    );
    assert_eq!(tioga, (0x392a_f502_610e_4088, 608), "Tioga 4-job mix");
}

/// Telemetry-only operation on Tioga at queue scale: the monitor works
/// end-to-end while every capping dial stays refused — the early-access
/// posture the paper describes.
#[test]
fn tioga_queue_is_telemetry_only() {
    let report = tioga_queue().run();
    assert_eq!(report.jobs.len(), 4);
    // Every sample is the conservative CPU+OAM estimate (no node sensor),
    // and no software caps exist anywhere.
    for node in 0..report.timeline.node_count() {
        for s in report.timeline.node(node) {
            assert!(s.power_node_watts.is_none());
            assert!(s.power_mem_watts.is_none());
        }
    }
    // The HIP-anomalous Quicksilver runtime shows up even here.
    let q = report.job("Quicksilver").unwrap();
    assert!((95.0..115.0).contains(&q.runtime_s), "{}", q.runtime_s);
}

/// The trace plumbing captures manager decisions end-to-end.
#[test]
fn trace_records_manager_decisions() {
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(3)
        .with_trace(fluxpm::sim::TraceLevel::Info)
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config: ManagerConfig::proportional(Watts(4800.0)),
        })
        .build();
    world.autostop_after = Some(2);
    for i in 0..2u64 {
        let app = App::with_jitter(laghos(), MachineKind::Lassen, 2, i, JitterModel::none())
            .with_work_seconds(30.0);
        world.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app));
    }
    eng.run(&mut world);
    let admits = world
        .trace
        .for_subsystem("manager")
        .filter(|e| e.message.contains("admit"))
        .count();
    let reclaims = world
        .trace
        .for_subsystem("manager")
        .filter(|e| e.message.contains("reclaim"))
        .count();
    assert_eq!(admits, 2, "one admission per job");
    assert_eq!(reclaims, 2, "one reclaim per completion");
    let job_events = world.trace.for_subsystem("job").count();
    assert!(job_events >= 4, "submit/start/finish events traced");
}

/// A job cancelled before it started has no window to report: a query
/// for it is answered with an error, like a query for a pending job.
#[test]
fn query_for_a_job_cancelled_before_start_is_an_error() {
    let (mut world, mut eng) = monitored(2, 5);
    let app = || {
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 1, JitterModel::none())
                .with_work_seconds(10.0),
        )
    };
    world.submit(&mut eng, JobSpec::new("Laghos", 2), app());
    let queued = world.submit(&mut eng, JobSpec::new("Laghos", 2), app());
    assert!(world.cancel_job(&mut eng, queued));
    let query = MonitorQuery::job_data(queued).send(&mut world, &mut eng);
    eng.run_until(&mut world, fluxpm::sim::SimTime::from_secs(1));
    assert_eq!(
        query.job_data().map(|r| r.map(|_| ())),
        Some(Err("job has not started".to_string()))
    );
}
