//! Recovery integration tests: the self-healing overlay end-to-end.
//!
//! Covers the full fail → aggregate(degraded) → recover →
//! aggregate(complete) cycle, byte-identical replay of that cycle, and
//! root-rank failover with the manager's budgets preserved across the
//! migration.

use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::flux::{Engine, FluxEngine, JobSpec, JobState, Rank, World};
use fluxpm::hw::{MachineKind, NodeId, Watts};
use fluxpm::manager::job_mgr::JOB_MANAGER;
use fluxpm::manager::{JobLevelManager, ManagerConfig};
use fluxpm::monitor::{rpc_stats_to_csv, MonitorConfig, MonitorQuery};
use fluxpm::sim::{SimTime, TraceLevel};
use fluxpm::workloads::{laghos, App, JitterModel};
use std::cell::RefCell;
use std::rc::Rc;

/// The tentpole cycle on a 7-node binary tree: interior rank 1 dies
/// mid-reduction (degraded aggregation: only its own samples missing),
/// a post-hoc query while it is down is flagged incomplete, the node
/// rejoins via `recover_node`, and a fresh job afterwards aggregates
/// *complete* again — the rejoined agent's buffer covers the new job's
/// whole window. The entire cycle replays byte-for-byte from the seed.
#[test]
fn fail_recover_cycle_restores_complete_aggregation() {
    let fail_at = SimTime::from_micros(30_000_050);

    let run = || {
        let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 7)
            .with_seed(11)
            .with_trace(TraceLevel::Debug)
            .with_monitor(MonitorConfig::default())
            .build();
        w.autostop_after = Some(2);
        let app = App::with_jitter(laghos(), MachineKind::Lassen, 7, 1, JitterModel::none())
            .with_work_seconds(100.0);
        let a = w.submit(&mut eng, JobSpec::new("Laghos", 7), Box::new(app));

        // Query mid-run; rank 1 dies 50 µs later with the reduction in
        // flight, so the root's deadline + re-fan path must heal it.
        let mid = Rc::new(RefCell::new(None));
        let mid2 = Rc::clone(&mid);
        eng.schedule(SimTime::from_secs(30), move |w: &mut World, eng| {
            let inner = MonitorQuery::job_stats_tree(a).send(w, eng);
            *mid2.borrow_mut() = Some(inner);
        });
        eng.schedule(fail_at, move |w: &mut World, eng| {
            w.fail_node(eng, NodeId(1));
        });

        // A second query while the rank is down and already detached:
        // no deadline needed, the dead target is simply unreachable.
        let down = Rc::new(RefCell::new(None));
        let down2 = Rc::clone(&down);
        eng.schedule(SimTime::from_secs(40), move |w: &mut World, eng| {
            let inner = MonitorQuery::job_stats_tree(a).send(w, eng);
            *down2.borrow_mut() = Some(inner);
        });

        // The node comes back at t = 60 s ...
        eng.schedule(SimTime::from_secs(60), move |w: &mut World, eng| {
            assert!(w.recover_node(eng, NodeId(1)), "node was down");
        });

        // ... and a fresh 7-node job at t = 70 s exercises the healed
        // overlay, rejoined leaf included.
        let b_slot = Rc::new(RefCell::new(None));
        let b2 = Rc::clone(&b_slot);
        eng.schedule(SimTime::from_secs(70), move |w: &mut World, eng| {
            let app = App::with_jitter(laghos(), MachineKind::Lassen, 7, 2, JitterModel::none())
                .with_work_seconds(20.0);
            let id = w.submit(eng, JobSpec::new("Laghos", 7), Box::new(app));
            *b2.borrow_mut() = Some(id);
        });
        eng.run(&mut w);

        let b = (*b_slot.borrow()).expect("job B was submitted");
        assert_eq!(w.jobs.get(b).unwrap().state, JobState::Completed);

        // Post-run: aggregate over job B's window.
        let mut eng2: FluxEngine = Engine::new();
        let query = MonitorQuery::job_stats_tree(b).send(&mut w, &mut eng2);
        eng2.run(&mut w);
        let complete = query.subtree_stats().unwrap().unwrap();

        let mid_inner = mid.borrow().clone().expect("mid query was issued");
        let mid_stats = mid_inner.subtree_stats().unwrap().unwrap();
        let down_inner = down.borrow().clone().expect("down query was issued");
        let down_stats = down_inner.subtree_stats().unwrap().unwrap();
        let trace = w.trace.text().to_owned();
        (w, mid_stats, down_stats, complete, trace)
    };

    let (w, mid_stats, down_stats, complete, trace) = run();

    // Degraded phase 1 (mid-reduction death): the deadline fired, the
    // orphans were re-fanned, every live rank contributed.
    assert!(!mid_stats.all_complete, "dead rank must flag incomplete");
    assert_eq!(mid_stats.nodes, 6, "re-fan reaches all live ranks");
    assert!(mid_stats.samples > 0);

    // Degraded phase 2 (query while down): the detached target is
    // unreachable and flagged, not silently dropped.
    assert!(!down_stats.all_complete, "down rank must flag incomplete");
    assert_eq!(down_stats.nodes, 6);

    // Recovered phase: the rejoined leaf covers job B's whole window,
    // so the reduction is complete across all 7 ranks again.
    assert!(
        complete.all_complete,
        "post-recovery reduction must be complete: {complete:?}"
    );
    assert_eq!(complete.nodes, 7, "rejoined rank contributes");
    assert!(complete.samples > 0);

    // The overlay healed in both directions.
    assert!(trace.contains("re-parented 2 orphan(s) of rank1 under rank0"));
    assert!(trace.contains("rank1 rejoined under rank0"));
    assert!(w.broker_up(Rank(1)));

    // The incident is visible in the per-topic RPC health CSV.
    let csv = rpc_stats_to_csv(&w);
    let row = csv
        .lines()
        .find(|l| l.starts_with("power-monitor.subtree-stats,"))
        .expect("subtree-stats incident row in rpc stats CSV");
    let timeouts: u64 = row.split(',').nth(1).unwrap().parse().unwrap();
    assert!(timeouts >= 1, "the mid-reduction deadline was counted");

    // Determinism: the whole fail → recover cycle replays byte-for-byte.
    let (_, mid_replay, down_replay, complete_replay, trace_replay) = run();
    assert_eq!(trace, trace_replay, "same-seed runs must be byte-identical");
    assert_eq!(mid_stats, mid_replay);
    assert_eq!(down_stats, down_replay);
    assert_eq!(complete, complete_replay);
}

/// Killing rank 0 promotes the lowest live rank to root, migrates the
/// monitor root agent and both root-side managers with their state, and
/// the surviving job keeps being capped and monitored: budgets are
/// preserved, limits are re-pushed past the job manager's dedup mirror,
/// and a post-failover stats fetch through the new root succeeds.
#[test]
fn root_failure_promotes_successor_and_preserves_budgets() {
    // The test holds the cluster manager's handle and watches its state
    // travel with the root.
    let (mut w, mut eng, cluster) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(7)
        .with_trace(TraceLevel::Info)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(6000.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    let cluster = cluster.expect("managed setup");
    w.autostop_after = Some(2);

    // First-fit allocation: job A pins node 0 (the root), job B runs on
    // nodes 1-2 and survives the failover.
    let app_a = App::with_jitter(laghos(), MachineKind::Lassen, 1, 1, JitterModel::none())
        .with_work_seconds(100.0);
    let a = w.submit(&mut eng, JobSpec::new("Laghos", 1), Box::new(app_a));
    let app_b = App::with_jitter(laghos(), MachineKind::Lassen, 2, 2, JitterModel::none())
        .with_work_seconds(80.0);
    let b = w.submit(&mut eng, JobSpec::new("Laghos", 2), Box::new(app_b));

    eng.schedule(SimTime::from_secs(30), move |w: &mut World, eng| {
        w.fail_node(eng, NodeId(0));
    });

    // Right after the failover: the allocator migrated with the cluster
    // manager, so job B's budget must still be there.
    let limits_after = Rc::new(RefCell::new(Vec::new()));
    let la = Rc::clone(&limits_after);
    let cl = Rc::clone(&cluster);
    eng.schedule(SimTime::from_secs(31), move |_w: &mut World, _eng| {
        *la.borrow_mut() = cl.borrow().job_limits();
    });
    eng.run(&mut w);

    // The root role moved to the lowest live rank.
    assert_eq!(w.root(), Rank(1), "deterministic successor election");
    assert_eq!(w.jobs.get(a).unwrap().state, JobState::Failed);
    assert_eq!(w.jobs.get(b).unwrap().state, JobState::Completed);

    // Budgets survived the migration: job B still allocated, job A
    // reclaimed by the exception event.
    let limits = limits_after.borrow().clone();
    assert_eq!(limits.len(), 1, "exactly job B budgeted: {limits:?}");
    assert_eq!(limits[0].0, b);
    assert!(limits[0].1.get() > 0.0);

    // Cap enforcement continued: the re-push crossed the job manager's
    // cleared mirror and fanned out to job B's node managers.
    {
        let module = w.brokers[w.root().index()]
            .module(JOB_MANAGER)
            .expect("job manager migrated to the new root");
        let mut guard = module.borrow_mut();
        let jobm = guard
            .as_any_mut()
            .and_then(|m| m.downcast_mut::<JobLevelManager>())
            .expect("concrete job manager");
        assert_eq!(jobm.job_limit(b), Some(limits[0].1));
        assert!(jobm.node_updates() >= 4, "initial + re-push fans");
    }

    // All three root services migrated, and the managers re-pushed.
    let trace = w.trace.text();
    assert!(trace.contains("migrated power-manager-cluster to rank1"));
    assert!(trace.contains("migrated power-manager-job to rank1"));
    assert!(trace.contains("migrated power-monitor-root-agent to rank1"));
    assert!(trace.contains("cluster manager migrated to rank1"));
    assert!(trace.contains("job manager migrated to rank1"));

    // Monitoring still works through the new root.
    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_stats(b).send(&mut w, &mut eng2);
    eng2.run(&mut w);
    let reply = query.job_stats().unwrap().unwrap();
    assert_eq!(reply.nodes.len(), 2, "both of job B's nodes answered");
}
