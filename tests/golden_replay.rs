//! Golden-file replay: byte-identical artifacts across engine changes.
//!
//! These tests pin the *observable outputs* of a deterministic
//! monitor+manager run — the full debug event trace, the client's
//! telemetry CSV, and the per-topic RPC-health CSV — to committed
//! golden files. Any change to the event core (queue order, timer
//! semantics, message forwarding) that perturbs event ordering shows up
//! here as a byte diff, even if the run still "works".
//!
//! After an *intentional* behavior change, regenerate with
//! `GOLDEN_REGEN=1 cargo test --test golden_replay` and review the diff
//! like source code.

use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::flux::{Engine, FaultPlan, FluxEngine, JobSpec, JobState, World};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::manager::ManagerConfig;
use fluxpm::monitor::{job_data_to_csv, rpc_stats_to_csv, MonitorConfig, MonitorQuery};
use fluxpm::sim::{SimDuration, TraceLevel};
use fluxpm::workloads::{laghos, App, JitterModel};

mod common;

/// One deterministic 8-node run with lossy links: monitor sampling,
/// proportional manager, two Laghos jobs, 3 % uniform message loss so
/// the retry/timeout paths execute. Returns the world post-run plus the
/// id of the first job.
fn replay_world() -> (World, fluxpm::flux::JobId) {
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 8)
        .with_seed(1234)
        .with_trace(TraceLevel::Debug)
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config: ManagerConfig::proportional(Watts(9600.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(2);
    world.install_fault_plan(FaultPlan::uniform(0.03, SimDuration::from_micros(15)));

    let app_a = App::with_jitter(laghos(), MachineKind::Lassen, 4, 1, JitterModel::none())
        .with_work_seconds(40.0);
    let a = world.submit(&mut eng, JobSpec::new("Laghos", 4), Box::new(app_a));
    let app_b = App::with_jitter(laghos(), MachineKind::Lassen, 2, 2, JitterModel::none())
        .with_work_seconds(25.0);
    world.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app_b));
    eng.run(&mut world);

    assert!(world.jobs.all_complete());
    assert_eq!(world.jobs.get(a).unwrap().state, JobState::Completed);
    (world, a)
}

/// The full debug trace of the run — every message hop, sample, and
/// state transition, in delivery order — matches the committed golden.
#[test]
fn event_trace_matches_golden() {
    let (world, _) = replay_world();
    let trace: String = world
        .trace
        .entries()
        .iter()
        .map(|e| format!("{e}\n"))
        .collect();
    common::check_golden(
        &trace,
        "tests/golden/replay_8node.trace",
        include_str!("golden/replay_8node.trace"),
    );
}

/// The client-facing telemetry CSV for job A and the RPC-health CSV
/// match their goldens, byte for byte.
#[test]
fn monitor_csvs_match_golden() {
    let (mut world, a) = replay_world();
    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(a).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    assert_eq!(reply.nodes.len(), 4);

    common::check_golden(
        &job_data_to_csv(&reply),
        "tests/golden/replay_8node_job_data.csv",
        include_str!("golden/replay_8node_job_data.csv"),
    );
    common::check_golden(
        &rpc_stats_to_csv(&world),
        "tests/golden/replay_8node_rpc_stats.csv",
        include_str!("golden/replay_8node_rpc_stats.csv"),
    );
}
