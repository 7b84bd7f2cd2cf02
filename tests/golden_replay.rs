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
use fluxpm::flux::{Engine, FaultPlan, FluxEngine, JobSpec, JobState, Protocol, Rank, World};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::manager::ManagerConfig;
use fluxpm::monitor::{
    job_data_to_csv, rpc_stats_to_csv, MonitorConfig, MonitorQuery, MonitorReply, MonitorRequest,
    NodeDataRequest,
};
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
    common::check_golden(
        world.trace.text(),
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

/// FNV-1a over every record each node agent retains, rank by rank and
/// oldest first: the stored Variorum JSON itself, which no trace or CSV
/// above prints (the CSV rounds to one decimal). Also returns the record
/// count, so an empty world cannot pass.
fn stored_json_fnv(world: &mut World) -> (u64, usize) {
    // Lift the replay's message loss: every node must answer.
    world.install_fault_plan(FaultPlan::uniform(0.0, Default::default()));
    let ranks: Vec<Rank> = world.tbon.ranks().collect();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut records = 0;
    for rank in ranks {
        let mut eng: FluxEngine = Engine::new();
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let slot = std::rc::Rc::clone(&got);
        let req = MonitorRequest::NodeData(NodeDataRequest {
            start_us: 0,
            end_us: u64::MAX,
        });
        world
            .rpc(rank, req.topic(), req.encode())
            .send(&mut eng, move |_, _, resp| {
                let Ok(MonitorReply::NodeData(reply)) = MonitorReply::decode_ref(resp) else {
                    panic!("unexpected reply {resp:?}");
                };
                *slot.borrow_mut() = Some(reply.clone());
            });
        eng.run(world);
        let reply = got.borrow_mut().take().expect("the node agent answered");
        for record in reply.records.iter() {
            for &byte in record.raw_json() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
            records += 1;
        }
    }
    (hash, records)
}

/// The stored JSON of the 8-node Lassen replay and of a small Tioga
/// world (no node or memory keys) hashes to its committed value: the
/// writer's bytes, every key, separator and rounded digit, are pinned.
#[test]
fn stored_json_matches_golden() {
    let (mut lassen, _) = replay_world();
    let (hash, records) = stored_json_fnv(&mut lassen);
    assert_eq!(
        (hash, records),
        (0xdb0f_3f93_0663_f808, 160),
        "Lassen replay"
    );

    let (mut tioga, mut eng, _) = Scenario::new(MachineKind::Tioga, 4)
        .with_seed(55)
        .with_monitor(MonitorConfig::default())
        .build();
    tioga.autostop_after = Some(1);
    let app = App::with_jitter(laghos(), MachineKind::Tioga, 2, 1, JitterModel::none())
        .with_work_seconds(20.0);
    tioga.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app));
    eng.run(&mut tioga);
    let (hash, records) = stored_json_fnv(&mut tioga);
    assert_eq!((hash, records), (0xb05c_6156_8550_3c74, 44), "Tioga world");
}
