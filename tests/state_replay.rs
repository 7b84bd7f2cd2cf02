//! Event-log replay across full instance death — the durability
//! tentpole, end to end.
//!
//! Every root service (cluster budgets, job-manager limit mirrors, the
//! monitor's in-flight aggregations) derives its state from the
//! `World`-owned `StateLog`. These tests assert the contract at its
//! hardest point: the *entire* instance dies (root fails with no live
//! successor), the first `recover_node` resurrects it, and the replayed
//! root services match the pre-crash live state **byte for byte** —
//! including the snapshot+tail path, not just a cold fold of the full
//! log.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::flux::{Engine, FluxEngine, JobSpec, Module, Rank, World};
use fluxpm::hw::{MachineKind, NodeId, Watts};
use fluxpm::manager::cluster::CLUSTER_MANAGER;
use fluxpm::manager::job_mgr::JOB_MANAGER;
use fluxpm::manager::{ClusterLevelManager, JobLevelManager, ManagerConfig};
use fluxpm::monitor::root_agent::{RootAgent, ROOT_AGENT};
use fluxpm::monitor::{MonitorConfig, MonitorQuery, RPC_DEADLINE};
use fluxpm::sim::{SimDuration, SimTime, TraceLevel};
use fluxpm::workloads::{laghos, App, JitterModel};

/// Debug-format a live root service's snapshot, fetched from the
/// current root's broker.
fn live_fingerprint(w: &World, name: &str) -> String {
    let m = w.brokers[w.root().index()]
        .module(name)
        .unwrap_or_else(|| panic!("{name} registered on root"));
    let snap = m.borrow().snapshot();
    format!("{snap:?}")
}

/// Fold the world's state log into a freshly constructed module —
/// exactly what `recover_node` does on resurrection — and return the
/// Debug form of the resulting snapshot.
fn replay_fingerprint<M: Module>(w: &World, module: &mut M) -> String {
    let name = module.name();
    if let Some(v) = w.state.snapshot().and_then(|s| s.modules.get(name)) {
        module.restore(v);
    }
    for ev in w.state.tail_for(name) {
        module.apply_event(ev);
    }
    format!("{:?}", module.snapshot())
}

/// The tentpole scenario: budgets admitted and partially released, a
/// client aggregation stalled on a dead leaf, a periodic snapshot
/// already folded into the log — then every node dies at once. Replay
/// from the log must reproduce the pre-crash state byte-identically,
/// and `recover_node` must resurrect the instance from it.
#[test]
fn full_instance_death_replays_to_precrash_state() {
    let bound = Watts(4800.0);
    let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(23)
        .with_trace(TraceLevel::Info)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(bound),
        })
        .with_monitor(MonitorConfig::default())
        .build();

    // Periodic snapshots, so the crash-time replay exercises
    // restore(snapshot at t=20) + apply(tail), not a cold full-log fold.
    w.schedule_state_snapshots(
        &mut eng,
        SimTime::from_secs(20),
        SimDuration::from_secs(300),
    );

    // Two long jobs so both are mid-flight at every probe point. The
    // scheduler packs first-fit: job A on ranks {0,1}, job B on {2,3}.
    let a = w.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 5, JitterModel::none())
                .with_work_seconds(500.0),
        ),
    );
    let b = w.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 6, JitterModel::none())
                .with_work_seconds(500.0),
        ),
    );

    // t=30: a leaf dies. Job B fails; the cluster manager logs the
    // release and re-pushes job A's limit — post-snapshot tail events.
    eng.schedule(SimTime::from_secs(30), |w: &mut World, eng| {
        w.fail_node(eng, NodeId(3));
    });

    // t=31: query the failed job. Its record still lists dead rank 3,
    // so the fan-out stalls on the 1 s RPC deadline — a live in-flight
    // aggregation sitting in the root agent when the crash lands.
    let handle = Rc::new(RefCell::new(None));
    {
        let h = Rc::clone(&handle);
        eng.schedule(SimTime::from_secs(31), move |w: &mut World, eng| {
            *h.borrow_mut() = Some(MonitorQuery::job_data(b).send(w, eng));
        });
    }

    // t=31.1: capture the live pre-crash snapshots of every root service.
    let pre = Rc::new(RefCell::new(BTreeMap::new()));
    {
        let pre = Rc::clone(&pre);
        eng.schedule(
            SimTime::from_micros(31_100_000),
            move |w: &mut World, _eng| {
                for name in [CLUSTER_MANAGER, JOB_MANAGER, ROOT_AGENT] {
                    pre.borrow_mut().insert(name, live_fingerprint(w, name));
                }
            },
        );
    }

    // t=31.2: everything else dies inside the stall window — full
    // instance death, root included, no live successor to migrate to.
    eng.schedule(SimTime::from_micros(31_200_000), |w: &mut World, eng| {
        w.fail_nodes(eng, &[NodeId(0), NodeId(1), NodeId(2)]);
    });

    // Bounded run: the snapshot scheduler ticks forever, so drive the
    // sim explicitly past the crash instead of draining the queue.
    eng.run_until(&mut w, SimTime::from_secs(35));

    let pre = pre.borrow();
    assert_eq!(pre.len(), 3, "all three root services fingerprinted");
    // The stalled aggregation was captured while genuinely in flight.
    assert!(
        pre[ROOT_AGENT].contains("tag"),
        "root agent had an in-flight aggregation at crash time: {}",
        pre[ROOT_AGENT]
    );
    assert!(
        w.state.snapshots_taken() >= 1,
        "t=20 periodic snapshot landed before the crash"
    );
    let trace = w.trace.text();
    assert!(
        trace.contains("failed with no live successor"),
        "instance death traced:\n{trace}"
    );

    // --- The byte-identical claim -----------------------------------
    // Fold the log into fresh modules exactly as resurrection does and
    // compare against the live pre-crash snapshots.
    let mut cluster = ClusterLevelManager::new(ManagerConfig::proportional(bound));
    assert_eq!(
        replay_fingerprint(&w, &mut cluster),
        pre[CLUSTER_MANAGER],
        "cluster budgets replay byte-identically"
    );
    let mut jobs = JobLevelManager::new();
    assert_eq!(
        replay_fingerprint(&w, &mut jobs),
        pre[JOB_MANAGER],
        "job-manager limit mirrors replay byte-identically"
    );
    let mut agent = RootAgent::new(RPC_DEADLINE);
    assert_eq!(
        replay_fingerprint(&w, &mut agent),
        pre[ROOT_AGENT],
        "in-flight aggregations replay byte-identically"
    );

    // --- End-to-end resurrection ------------------------------------
    let mut eng2: FluxEngine = Engine::new();
    assert!(w.recover_node(&mut eng2, NodeId(1)));
    assert_eq!(w.root(), Rank(1), "first recovered rank becomes root");
    let trace = w.trace.text();
    assert!(trace.contains("instance resurrected with rank1 as root"));
    for name in [CLUSTER_MANAGER, JOB_MANAGER, ROOT_AGENT] {
        assert!(
            trace.contains(&format!("resurrected {name} on rank1 from state log")),
            "{name} rebuilt from the log:\n{trace}"
        );
    }
    // The root agent found the stalled aggregation in the log and
    // restarted its fan-out from the new root.
    assert!(
        trace.contains("re-issuing 1 in-flight aggregation(s)"),
        "stalled aggregation re-issued:\n{trace}"
    );
    // The cluster manager's migration hook only re-pushes limits, so
    // its resurrected snapshot is *immediately* byte-identical.
    assert_eq!(
        live_fingerprint(&w, CLUSTER_MANAGER),
        pre[CLUSTER_MANAGER],
        "resurrected cluster manager matches pre-crash state"
    );

    // Drain the re-issued fan-out: the dead ranks time out, the
    // aggregation finishes (inflight empties — satellite: no zombie
    // entries), and job A is still the one admitted job.
    eng2.run_until(&mut w, SimTime::from_secs(40));
    let agent_fp = live_fingerprint(&w, ROOT_AGENT);
    assert!(
        agent_fp.contains("\"inflight\": List([])"),
        "re-issued aggregation resolved and was removed from inflight: {agent_fp}"
    );
    assert!(
        live_fingerprint(&w, CLUSTER_MANAGER).contains(&format!("{}", a.0)),
        "job A still admitted after resurrection"
    );
}

/// Replay must be quiescent: folding the log into fresh modules twice
/// in a row yields the same bytes (apply_event never sends, schedules,
/// or appends — so replay cannot feed back into the log).
#[test]
fn replay_is_idempotent_and_silent() {
    let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(29)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(4800.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    w.autostop_after = Some(1);
    w.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 7, JitterModel::none())
                .with_work_seconds(30.0),
        ),
    );
    eng.run(&mut w);

    let appended = w.state.total_appended();
    assert!(appended > 0, "the run logged state events");

    let mut first = ClusterLevelManager::new(ManagerConfig::proportional(Watts(4800.0)));
    let fp1 = replay_fingerprint(&w, &mut first);
    let mut second = ClusterLevelManager::new(ManagerConfig::proportional(Watts(4800.0)));
    let fp2 = replay_fingerprint(&w, &mut second);
    assert_eq!(fp1, fp2, "replay is deterministic");
    assert_eq!(
        w.state.total_appended(),
        appended,
        "replay appended nothing to the log"
    );
}
