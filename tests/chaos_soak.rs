//! Chaos-soak: seeded fail/recover storms against the live power stack.
//!
//! Each soak drives a 16-node instance through a scripted storm prefix
//! (two interior ranks dying in one batch, a node re-failing 50 µs after
//! its recovery, the root dying mid-storm) followed by seeded random
//! fail/recover ticks — all while the monitor samples, the manager
//! enforces budgets, jobs churn through the queue, per-link burst faults
//! drop traffic, and a periodic re-balance pass restores k-ary shape.
//!
//! Invariants are asserted every simulated second (root attached and
//! alive, every attached rank reachable and acyclic, topology epoch
//! monotone), and the whole storm must replay byte-for-byte from its
//! seed. The fixed seeds below are the CI matrix; keep the storm length
//! capped so the suite stays fast.

use fluxpm::experiments::chaos::topology_invariants;
use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::flux::{
    FaultPlan, GilbertElliott, JobId, JobSpec, JobState, LinkProfile, Rank, Tbon, World,
};
use fluxpm::hw::{MachineKind, NodeId, Watts};
use fluxpm::manager::ManagerConfig;
use fluxpm::monitor::{MonitorConfig, MonitorQuery};
use fluxpm::sim::{SimDuration, SimTime, TraceLevel, Xoshiro256pp};
use fluxpm::workloads::{laghos, App, JitterModel};
use std::cell::RefCell;
use std::rc::Rc;

mod common;

const NODES: u32 = 16;
const GLOBAL_BOUND_W: f64 = 16.0 * 1500.0;
/// Random storm ticks run every 5 s in [40 s, 85 s]; the storm is over by
/// 95 s and the run self-halts once the last job completes (~135 s).
const RANDOM_TICKS: u64 = 10;
/// The random ticks never take the live-broker count below this.
const MIN_LIVE: usize = 6;

/// Everything a soak produces that a replay must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    trace: String,
    drops: u64,
    timeouts: u64,
    retries: u64,
    epoch: u64,
    /// `(all_complete, nodes, samples)` of the mid-storm degraded query.
    degraded: (bool, usize, usize),
    /// `(job, limit_w)` budget snapshot after the storm settles.
    limits: Vec<(JobId, f64)>,
    invariant_checks: u64,
}

fn two_node_app(seed: u64, work_seconds: f64) -> Box<App> {
    Box::new(
        App::with_jitter(laghos(), MachineKind::Lassen, 2, seed, JitterModel::none())
            .with_work_seconds(work_seconds),
    )
}

/// One full storm. Asserts invariants along the way and returns the
/// deterministic outcome for byte-identical replay comparison.
fn soak(seed: u64) -> Outcome {
    // The test keeps the cluster handle to watch budgets; root services
    // migrate as the same shared object.
    let (mut w, mut eng, cluster) = Scenario::new(MachineKind::Lassen, NODES)
        .with_seed(seed)
        .with_trace(TraceLevel::Debug)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(GLOBAL_BOUND_W)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    let cluster = cluster.expect("managed setup");
    // 10 jobs total: A, B, 7 queue fillers, and the post-storm probe F.
    w.autostop_after = Some(10);
    eng.set_horizon(SimTime::from_secs(400));

    // Per-link burst faults: a lightly lossy default with Gilbert–Elliott
    // bursts, plus a worse dedicated profile on the root's first link.
    // Burst channels *replace* the uniform base loss, so the good state
    // carries the light base loss itself; bursts then spike it to 50 %.
    let ge = GilbertElliott {
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
        good_drop_prob: 0.02,
        bad_drop_prob: 0.5,
    };
    let ge_root = GilbertElliott {
        good_drop_prob: 0.08,
        ..ge
    };
    w.install_fault_plan(
        FaultPlan::uniform(0.02, SimDuration::from_micros(20))
            .with_burst(ge)
            .with_link(
                Rank(0),
                Rank(1),
                LinkProfile::uniform(0.08, SimDuration::from_micros(40)).with_burst(ge_root),
            ),
    );
    w.schedule_rebalance(&mut eng, SimDuration::from_secs(7));

    // Long-running jobs: A pins ranks 0-7 and dies in the first batch
    // kill, B (ranks 8-11) completes if the random storm spares it.
    let app_a = App::with_jitter(laghos(), MachineKind::Lassen, 8, 1, JitterModel::none())
        .with_work_seconds(300.0);
    let a = w.submit(&mut eng, JobSpec::new("Laghos", 8), Box::new(app_a));
    let app_b = App::with_jitter(laghos(), MachineKind::Lassen, 4, 2, JitterModel::none())
        .with_work_seconds(60.0);
    let _b = w.submit(&mut eng, JobSpec::new("Laghos", 4), Box::new(app_b));
    // A trickle of short jobs keeps the scheduler and the budget
    // allocator churning through the whole storm.
    for k in 0..7u64 {
        eng.schedule(SimTime::from_secs(6 + 12 * k), move |w: &mut World, eng| {
            w.submit(eng, JobSpec::new("Laghos", 2), two_node_app(100 + k, 8.0));
        });
    }

    let checks = topology_invariants(&mut eng);

    // --- Scripted storm prefix -------------------------------------
    // t=15: two interior ranks die in ONE batch (overlapping failures).
    eng.schedule(SimTime::from_secs(15), move |w: &mut World, eng| {
        w.fail_nodes(eng, &[NodeId(1), NodeId(2)]);
    });
    // t=20: degraded query against job A while ranks 1-2 are down — the
    // reduction must finish and must NOT fabricate completeness.
    let degraded = Rc::new(RefCell::new(None));
    {
        let degraded = Rc::clone(&degraded);
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            *degraded.borrow_mut() = Some(MonitorQuery::job_stats_tree(a).send(w, eng));
        });
    }
    // t=25: recovery of rank 1 overlaps a fresh failure (rank 4) ...
    eng.schedule(SimTime::from_secs(25), move |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(1)));
        w.fail_nodes(eng, &[NodeId(4)]);
    });
    // ... and rank 1 is killed again 50 µs into its own recovery, while
    // its freshly reloaded modules are still arming timers.
    eng.schedule(
        SimTime::from_micros(25_000_050),
        move |w: &mut World, eng| {
            w.fail_nodes(eng, &[NodeId(1)]);
        },
    );
    eng.schedule(SimTime::from_secs(30), move |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(2)));
        assert!(w.recover_node(eng, NodeId(4)));
    });
    eng.schedule(SimTime::from_secs(32), move |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(1)));
    });
    // t=35: the root dies mid-storm; a successor must be elected and the
    // root services must migrate with it.
    eng.schedule(SimTime::from_secs(35), move |w: &mut World, eng| {
        let root = w.root();
        w.fail_nodes(eng, &[NodeId(root.0)]);
    });

    // --- Seeded random storm ticks ---------------------------------
    for k in 0..RANDOM_TICKS {
        let at = SimTime::from_secs(40 + 5 * k);
        eng.schedule(at, move |w: &mut World, eng| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC0FFEE ^ (k << 32));
            // Recover first so a just-recovered node can be re-killed in
            // the same tick.
            for i in 0..w.size() {
                if !w.broker_up(Rank(i)) && rng.chance(0.45) {
                    assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
                }
            }
            let mut up: Vec<u32> = (0..w.size()).filter(|&i| w.broker_up(Rank(i))).collect();
            let spare = up.len().saturating_sub(MIN_LIVE);
            let kill = spare.min(1 + rng.below(2) as usize);
            let mut victims = Vec::new();
            for _ in 0..kill {
                let idx = rng.below(up.len() as u64) as usize;
                victims.push(NodeId(up.remove(idx)));
            }
            if !victims.is_empty() {
                w.fail_nodes(eng, &victims);
            }
        });
    }

    // --- Storm over: recover everything and let the system settle ---
    eng.schedule(SimTime::from_secs(95), move |w: &mut World, eng| {
        for i in 0..w.size() {
            if !w.broker_up(Rank(i)) {
                assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
            }
        }
    });
    eng.schedule(SimTime::from_secs(98), move |w: &mut World, _eng| {
        w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO));
    });
    // Post-storm probe job F over the healed overlay.
    let f_slot = Rc::new(RefCell::new(None));
    {
        let f_slot = Rc::clone(&f_slot);
        eng.schedule(SimTime::from_secs(100), move |w: &mut World, eng| {
            let app = App::with_jitter(laghos(), MachineKind::Lassen, 6, 9, JitterModel::none())
                .with_work_seconds(30.0);
            let id = w.submit(eng, JobSpec::new("Laghos", 6), Box::new(app));
            *f_slot.borrow_mut() = Some(id);
        });
    }
    // Budgets re-converged: every surviving limit belongs to a running
    // job, the probe job is budgeted, and the global bound holds.
    let limits_slot = Rc::new(RefCell::new(Vec::new()));
    {
        let limits_slot = Rc::clone(&limits_slot);
        let f_slot = Rc::clone(&f_slot);
        let cluster = Rc::clone(&cluster);
        eng.schedule(SimTime::from_secs(110), move |w: &mut World, _eng| {
            let limits = cluster.borrow().job_limits();
            let f = f_slot.borrow().expect("probe job was submitted");
            assert!(
                limits.iter().any(|&(id, _)| id == f),
                "probe job must be budgeted after the storm: {limits:?}"
            );
            let mut sum = 0.0;
            for &(id, watts) in &limits {
                assert!(watts.get() > 0.0, "zero budget for {id:?}");
                // A job completing at this very instant may have its
                // reclaim one event-latency behind the snapshot; a
                // *failed* job's budget must already be gone.
                let state = w.jobs.get(id).unwrap().state;
                assert!(
                    matches!(state, JobState::Running | JobState::Completed),
                    "budget held by a {state:?} job {id:?}"
                );
                sum += watts.get();
            }
            assert!(sum <= GLOBAL_BOUND_W + 1e-6, "over the global bound: {sum}");
            *limits_slot.borrow_mut() = limits
                .iter()
                .map(|&(id, watts)| (id, watts.get()))
                .collect();
        });
    }

    eng.run(&mut w);

    // --- Post-run convergence --------------------------------------
    assert!(w.halted, "every job must reach a terminal state");
    assert_eq!(w.pending_rpc_count(), 0, "leaked matchtags after the storm");
    let f = f_slot.borrow().expect("probe job was submitted");
    assert_eq!(w.jobs.get(f).unwrap().state, JobState::Completed);
    assert_eq!(w.jobs.get(a).unwrap().state, JobState::Failed);

    // The overlay healed to fresh k-ary shape (re-balance pass + storm
    // end), and every rank is back.
    let live = w.tbon.attached_ranks().len() as u32;
    assert_eq!(live, NODES, "all ranks re-attached after the storm");
    let ideal = Tbon::ideal_depth(live, w.tbon.fanout());
    assert!(
        w.tbon.max_depth() <= ideal,
        "post-storm depth {} exceeds fresh k-ary depth {ideal}",
        w.tbon.max_depth()
    );
    assert!(w.tbon.is_balanced());

    let trace: String = w.trace.entries().iter().map(|e| format!("{e}\n")).collect();
    // The scripted prefix is deterministic regardless of seed: the batch
    // kill re-parents orphans, and the root death elects rank 1.
    assert!(trace.contains("re-parented 2 orphan(s) of rank1 under rank0"));
    assert!(trace.contains("re-parented 2 orphan(s) of rank2 under rank0"));
    assert!(trace.contains("root failover: rank0 -> rank1"));

    let inner = degraded.borrow().clone().expect("degraded query issued");
    let stats = inner
        .subtree_stats()
        .expect("mid-storm reduction completed")
        .expect("reduction replied");
    assert!(
        !stats.all_complete,
        "two dead ranks must not fabricate a complete window"
    );
    assert!(stats.nodes <= 6, "dead ranks cannot contribute: {stats:?}");
    assert!(stats.samples > 0, "surviving ranks carried data");

    assert!(
        w.fault_drops() > 0,
        "the burst plan actually dropped traffic"
    );
    assert!(
        checks.get() >= 90,
        "invariant checker ran through the storm"
    );
    let limits = limits_slot.borrow().clone();
    assert!(!limits.is_empty());

    Outcome {
        trace,
        drops: w.fault_drops(),
        timeouts: w.rpc_timeout_count(),
        retries: w.rpc_retry_count(),
        epoch: w.tbon.epoch(),
        degraded: (stats.all_complete, stats.nodes, stats.samples),
        limits,
        invariant_checks: checks.get(),
    }
}

// --- CI seed matrix (keep in sync with ci.yml) ---------------------

#[test]
fn storm_seed_11_converges() {
    soak(11);
}

#[test]
fn storm_seed_29_converges() {
    soak(29);
}

#[test]
fn storm_seed_47_converges() {
    soak(47);
}

/// The acceptance scenario: the full storm — overlapping interior
/// failures, a failure during an active recovery, the root dying
/// mid-storm, burst faults — converges, and the same seed replays
/// byte-identically, trace and all. The trace is also pinned to a
/// committed golden, so an engine or overlay change that shifts event
/// ordering fails here even though both runs of the *new* code agree
/// with each other.
#[test]
fn acceptance_storm_replays_byte_identical() {
    let first = soak(64);
    let second = soak(64);
    assert_eq!(
        first.trace, second.trace,
        "same-seed storms must be byte-identical"
    );
    assert_eq!(first, second);
    common::check_golden(
        &first.trace,
        "tests/golden/chaos_soak_seed64.trace",
        include_str!("golden/chaos_soak_seed64.trace"),
    );
}

// --- 128-rank storms (via the shared experiments::chaos harness) ----

/// The scaled storm: a 128-rank instance through the same script with
/// proportionally sized failure batches, replayed for equality.
#[test]
fn storm_128_ranks_converges_and_replays() {
    use fluxpm::experiments::chaos::{storm, StormConfig};
    let cfg = StormConfig::new(128, 7);
    let first = storm(&cfg);
    assert!(first.invariant_checks >= 90);
    assert_eq!(first, storm(&cfg), "same-seed 128-rank storms must agree");
    let pin = (first.trace_hash, first.trace_lines, first.halted_at_us);
    assert_eq!(pin, (0xb337_224f_9a8f_a369, 1005, 140_000_000));
}

/// Network-realism acceptance: the 128-rank storm with congestion
/// layered on — per-link bandwidth squeezes (one sustained, one
/// Gilbert–Elliott-style flapping window riding the death ticks, one
/// mid-tree), 1 s push telemetry feeding every interior link, and the
/// link monitor routing subtrees around sustained congestion. The
/// harness itself asserts the acceptance invariants (the mid-congestion
/// reduction completes, exactly one re-parent for the sustained
/// pre-storm event, per-link re-parents bounded against epoch thrash);
/// this test pins the replay-equality and re-route guarantees at scale.
#[test]
fn congestion_storm_128_ranks_converges_and_replays() {
    use fluxpm::experiments::chaos::{storm, StormConfig};
    let cfg = StormConfig::congested(128, 7);
    let first = storm(&cfg);
    assert!(first.invariant_checks >= 90);
    assert!(
        first.congestion_reparents >= 1,
        "congestion avoidance engaged: {first:?}"
    );
    assert_eq!(first, storm(&cfg), "same-seed congestion storms must agree");
    let pin = (first.trace_hash, first.trace_lines, first.halted_at_us);
    assert_eq!(pin, (0x4ecb_eae1_e12e_1a22, 5425, 140_000_000));
}

/// Long-horizon soak: ten minutes of simulated churn at 128 ranks.
/// Too slow for the CI fast matrix — run explicitly with
/// `cargo test -- --ignored` (nightly soak lane).
#[test]
#[ignore = "long-horizon soak; run with --ignored"]
fn storm_128_ranks_long_horizon_soak() {
    use fluxpm::experiments::chaos::{storm, StormConfig};
    let out = storm(&StormConfig::long(128, 21));
    assert!(out.invariant_checks >= 600, "checker ran through the soak");
    assert!(out.epoch > 0 && out.drops > 0);
}
