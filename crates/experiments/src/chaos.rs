//! Nodes-parameterized chaos storm harness.
//!
//! [`storm`] drives an `n`-node instance through the scripted failure
//! storm of the 16-node chaos-soak suite — an interior batch kill, a
//! node re-failing 50 µs into its own recovery, the root dying
//! mid-storm, Gilbert–Elliott burst loss on every link, seeded random
//! fail/recover ticks — with every knob (batch size, random-kill width,
//! live floor, global power bound) scaled from the node count. Its end
//! differs: the storm recovers every node 15 s after its last random
//! tick (`t = 100 s` at the standard ten ticks), where the soak
//! recovers at `t = 95 s`.
//! Both the 128-rank soak tests and stackbench's
//! `storm_congested_1024` workload drive this one code path, so what CI
//! soaks is exactly what the benchmark times.
//!
//! The returned [`StormOutcome`] folds the full trace into an FNV-1a
//! hash instead of keeping the text: at 128 ranks the debug trace runs
//! to millions of lines, and a hash comparison is just as strict for
//! the replay-equality gate.

use crate::scenario::{PowerSetup, Scenario};
use fluxpm_flux::{
    CongestionBurst, FaultPlan, FluxEngine, GilbertElliott, JobId, JobSpec, JobState,
    LinkHealthConfig, LinkProfile, Rank, World,
};
use fluxpm_hw::{MachineKind, NodeId, Watts};
use fluxpm_manager::ManagerConfig;
use fluxpm_monitor::{MonitorConfig, MonitorQuery, QueryHandle, SubtreeStats};
use fluxpm_sim::{SimDuration, SimTime, TraceLevel, Xoshiro256pp};
use fluxpm_workloads::{laghos, App, JitterModel};
use std::cell::{Cell, RefCell};
use std::ops::ControlFlow;
use std::rc::Rc;

/// Shape of one chaos storm. Every structural knob derives from
/// `nodes`, so the same script exercises a 16-rank and a 1024-rank
/// instance with proportionally sized failure batches.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Instance size in brokers/nodes. Must be at least 16: the
    /// scripted prefix assumes the interior ranks it kills exist.
    pub nodes: u32,
    /// Seed for the world RNG and the random storm ticks.
    pub seed: u64,
    /// Random fail/recover ticks, one every 5 s starting at t=40 s.
    /// The storm-end recovery runs 15 s after the last tick.
    pub random_ticks: u64,
    /// Trace verbosity. `Debug` records every hop (byte-identical
    /// replay at full strictness); `Info` keeps only state transitions
    /// and is the default at scale.
    pub trace_level: TraceLevel,
    /// Network-realism mode: sample pushes every second feed steady
    /// upward traffic, seeded congestion windows (one sustained
    /// pre-storm, one bursty Gilbert–Elliott-style window riding the
    /// random death ticks, one mid-tree) squeeze per-link bandwidth, and
    /// the link monitor routes subtrees around sustained congestion.
    pub congestion: bool,
}

impl StormConfig {
    /// Standard storm: 10 random ticks (the last at `t = 85 s`, every
    /// node recovered at `t = 100 s`; self-halts once the post-storm
    /// probe job completes, at `t = 140 s`).
    pub fn new(nodes: u32, seed: u64) -> Self {
        Self {
            nodes,
            seed,
            random_ticks: 10,
            trace_level: TraceLevel::Info,
            congestion: false,
        }
    }

    /// Long-horizon soak: an extended random storm (ten minutes of
    /// simulated churn) for the `#[ignore]`d nightly test.
    pub fn long(nodes: u32, seed: u64) -> Self {
        Self {
            random_ticks: 120,
            ..Self::new(nodes, seed)
        }
    }

    /// Network-realism storm: the standard death storm with congestion
    /// windows, push telemetry traffic, and the congestion-avoidance
    /// link monitor layered on top.
    pub fn congested(nodes: u32, seed: u64) -> Self {
        Self {
            congestion: true,
            ..Self::new(nodes, seed)
        }
    }
}

/// Everything a storm produces that a same-seed replay must reproduce
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormOutcome {
    /// FNV-1a hash over every formatted trace line.
    pub trace_hash: u64,
    /// Number of trace entries behind the hash.
    pub trace_lines: usize,
    /// Messages dropped by the fault plan (cumulative across the run).
    pub drops: u64,
    /// RPCs that hit their deadline.
    pub timeouts: u64,
    /// RPC retries issued.
    pub retries: u64,
    /// Final topology epoch.
    pub epoch: u64,
    /// Per-second invariant sweeps that ran.
    pub invariant_checks: u64,
    /// Messages tail-dropped by congested link queues.
    pub congestion_drops: u64,
    /// Subtrees re-parented away from sustained congestion.
    pub congestion_reparents: u64,
    /// Jobs that reached `Completed` / `Failed`.
    pub completed: usize,
    /// Jobs that reached `Failed`.
    pub failed: usize,
    /// Simulated instant the run halted at, in microseconds.
    pub halted_at_us: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The reply of the reduction sent into `slot`, once it has come back.
fn reduction(slot: &RefCell<Option<QueryHandle>>) -> Option<SubtreeStats> {
    slot.borrow().as_ref()?.subtree_stats()?.ok()
}

/// Schedule the per-second topology sweep, from `t = 1 s` until the
/// world halts, and return the number of sweeps that have run.
///
/// Each sweep panics, naming the rank and the instant, when the topology
/// epoch went backwards, the root is detached or down, or an attached
/// rank is down, unroutable, or on a parent chain that is detached or
/// cycles. Both storm harnesses — [`storm`] and the 16-node chaos-soak
/// suite — schedule it at the same point of their script.
pub fn topology_invariants(eng: &mut FluxEngine) -> Rc<Cell<u64>> {
    let checks = Rc::new(Cell::new(0u64));
    let count = Rc::clone(&checks);
    let mut last_epoch = 0u64;
    eng.schedule_every(
        SimTime::from_secs(1),
        SimDuration::from_secs(1),
        move |w: &mut World, eng| {
            if w.halted {
                return ControlFlow::Break(());
            }
            let now = eng.now();
            let e = w.tbon.epoch();
            assert!(
                e >= last_epoch,
                "epoch went backwards at {now}: {last_epoch} -> {e}"
            );
            last_epoch = e;
            let root = w.tbon.root();
            assert!(w.tbon.is_attached(root), "root detached at {now}");
            assert!(w.broker_up(root), "root down at {now}");
            let size = w.size();
            for r in w.tbon.attached_ranks() {
                assert!(w.broker_up(r), "{r} attached but down at {now}");
                assert!(w.tbon.route(r, root).is_some(), "{r} unroutable at {now}");
                let mut probe = r;
                let mut hops = 0;
                while probe != root {
                    probe = w
                        .tbon
                        .parent(probe)
                        .unwrap_or_else(|| panic!("{probe} has no parent at {now}"));
                    assert!(w.tbon.is_attached(probe), "parent chain of {r} detached");
                    hops += 1;
                    assert!(hops <= size, "cycle walking up from {r} at {now}");
                }
            }
            count.set(count.get() + 1);
            ControlFlow::Continue(())
        },
    );
    checks
}

/// Run one full storm and return its deterministic outcome.
///
/// Panics if any storm invariant breaks: the topology epoch going
/// backwards, an attached rank that is dead or unroutable, a cycle in
/// the parent chain, the post-storm probe job not completing, or the
/// overlay failing to heal back to fresh k-ary shape.
pub fn storm(cfg: &StormConfig) -> StormOutcome {
    assert!(cfg.nodes >= 16, "the storm script needs at least 16 ranks");
    let nodes = cfg.nodes;
    let seed = cfg.seed;
    let global_bound_w = f64::from(nodes) * 1500.0;
    // Scaled storm shape. At 16 nodes these reduce to the chaos-soak
    // constants: batch = 2, extra = 4 (the mid-storm overlap kill),
    // live floor = 6, random kills 1 + below(2).
    let batch = (nodes / 8).max(2);
    let extra = batch + 2;
    let min_live = (nodes as usize) * 3 / 8;
    let kill_width = 1 + u64::from(nodes / 16);
    let wide = nodes / 2;

    // In congestion mode, 1 s sample pushes give every interior link a
    // steady upward stream — the traffic the link monitor judges.
    let mon_cfg = if cfg.congestion {
        MonitorConfig::default().with_push_interval(SimDuration::from_secs(1))
    } else {
        MonitorConfig::default()
    };
    // The manager's `load` registers the module factory that brings
    // recovered brokers back with a live node-level manager.
    let (mut w, mut eng, cluster) = Scenario::new(MachineKind::Lassen, nodes)
        .with_seed(seed)
        .with_trace(cfg.trace_level)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(global_bound_w)),
        })
        .with_monitor(mon_cfg)
        .build();
    // invariant: a managed power setup loads, and returns, a cluster manager.
    let cluster = cluster.expect("managed setup loads a cluster manager");
    // 10 jobs total: A, B, 7 queue fillers, and the post-storm probe.
    w.autostop_after = Some(10);
    let last_tick_s = 40 + 5 * cfg.random_ticks.saturating_sub(1);
    eng.set_horizon(SimTime::from_secs(last_tick_s + 300));

    // Per-link burst faults: lightly lossy default links plus a worse
    // profile on the root's first link; bursts spike loss to 50 %.
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
    let mut plan = FaultPlan::uniform(0.02, SimDuration::from_micros(20))
        .with_burst(ge)
        .with_link(
            Rank(0),
            Rank(1),
            LinkProfile::uniform(0.08, SimDuration::from_micros(40)).with_burst(ge_root),
        );
    if cfg.congestion {
        // Three congestion regimes layered over the death storm:
        // a sustained pre-storm squeeze on a root link (deterministic
        // re-parent bait), a Gilbert–Elliott-style flapping window on
        // the already-lossy root link riding the random death ticks,
        // and a shorter mid-tree squeeze inside the storm proper.
        plan = plan
            .with_congestion(
                Rank(0),
                Rank(2),
                SimTime::from_secs(5)..SimTime::from_secs(13),
                0.999,
            )
            .with_bursty_congestion(
                Rank(0),
                Rank(1),
                SimTime::from_secs(40)..SimTime::from_secs(last_tick_s + 10),
                CongestionBurst {
                    p_calm_to_congested: 0.2,
                    p_congested_to_calm: 0.25,
                    calm_severity: 0.0,
                    congested_severity: 0.999,
                },
            )
            .with_congestion(
                Rank(1),
                Rank(3),
                SimTime::from_secs(50)..SimTime::from_secs(60),
                0.999,
            );
    }
    w.install_fault_plan(plan);
    if cfg.congestion {
        // Window matched to the 1 s push cadence so every judged window
        // carries a full push round; 50 µs hot threshold sees the
        // ~102 µs serialization a 0.999 squeeze puts on 1 KiB pushes.
        w.schedule_link_monitor(
            &mut eng,
            LinkHealthConfig {
                window: SimDuration::from_secs(1),
                hot_delay_us: 50,
                cooldown_windows: 8,
                ..LinkHealthConfig::default()
            },
        );
    }
    w.schedule_rebalance(&mut eng, SimDuration::from_secs(7));

    // Job A pins the bottom half of the machine and dies with the batch
    // kill; B rides out the storm on the top half if the random ticks
    // spare it.
    let app_a = App::with_jitter(laghos(), MachineKind::Lassen, wide, 1, JitterModel::none())
        .with_work_seconds(300.0);
    let a = w.submit(&mut eng, JobSpec::new("Laghos", wide), Box::new(app_a));
    let app_b = App::with_jitter(laghos(), MachineKind::Lassen, 4, 2, JitterModel::none())
        .with_work_seconds(60.0);
    let b = w.submit(&mut eng, JobSpec::new("Laghos", 4), Box::new(app_b));
    for k in 0..7u64 {
        eng.schedule(SimTime::from_secs(6 + 12 * k), move |w: &mut World, eng| {
            let app = App::with_jitter(
                laghos(),
                MachineKind::Lassen,
                2,
                100 + k,
                JitterModel::none(),
            )
            .with_work_seconds(8.0);
            w.submit(eng, JobSpec::new("Laghos", 2), Box::new(app));
        });
    }

    let checks = topology_invariants(&mut eng);

    // --- Scripted storm prefix -------------------------------------
    // t=15: a whole batch of interior ranks dies at once.
    eng.schedule(SimTime::from_secs(15), move |w: &mut World, eng| {
        let victims: Vec<NodeId> = (1..=batch).map(NodeId).collect();
        w.fail_nodes(eng, &victims);
    });
    // t=20: degraded query against job A while the batch is down — the
    // reduction must finish without fabricating completeness.
    let degraded = Rc::new(RefCell::new(None));
    {
        let degraded = Rc::clone(&degraded);
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            *degraded.borrow_mut() = Some(MonitorQuery::job_stats_tree(a).send(w, eng));
        });
    }
    // t=45 (congestion mode): a reduction launched while the flapping
    // root-link window and the random death ticks are both live — slow
    // links inflate hop latency, but height-scaled deadlines must still
    // let the reduction finish instead of silently dropping a congested
    // subtree.
    let congested_q = Rc::new(RefCell::new(None));
    if cfg.congestion {
        let congested_q = Rc::clone(&congested_q);
        eng.schedule(SimTime::from_secs(45), move |w: &mut World, eng| {
            *congested_q.borrow_mut() = Some(MonitorQuery::job_stats_tree(b).send(w, eng));
        });
    }
    // t=25: recovery of rank 1 overlaps a fresh failure, and rank 1 is
    // killed again 50 µs into its own recovery while its freshly
    // reloaded modules are still arming timers.
    eng.schedule(SimTime::from_secs(25), move |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(1)));
        w.fail_nodes(eng, &[NodeId(extra)]);
    });
    eng.schedule(
        SimTime::from_micros(25_000_050),
        move |w: &mut World, eng| {
            w.fail_nodes(eng, &[NodeId(1)]);
        },
    );
    eng.schedule(SimTime::from_secs(30), move |w: &mut World, eng| {
        for i in 2..=batch {
            assert!(w.recover_node(eng, NodeId(i)));
        }
        assert!(w.recover_node(eng, NodeId(extra)));
    });
    eng.schedule(SimTime::from_secs(32), move |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(1)));
    });
    // t=35: the root dies mid-storm; a successor must be elected and
    // the root services must migrate with it.
    eng.schedule(SimTime::from_secs(35), move |w: &mut World, eng| {
        let root = w.root();
        w.fail_nodes(eng, &[NodeId(root.0)]);
    });

    // --- Seeded random storm ticks ---------------------------------
    for k in 0..cfg.random_ticks {
        let at = SimTime::from_secs(40 + 5 * k);
        eng.schedule(at, move |w: &mut World, eng| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC0FFEE ^ (k << 32));
            // Recover first so a just-recovered node can be re-killed
            // in the same tick.
            for i in 0..w.size() {
                if !w.broker_up(Rank(i)) && rng.chance(0.45) {
                    assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
                }
            }
            let mut up: Vec<u32> = (0..w.size()).filter(|&i| w.broker_up(Rank(i))).collect();
            let spare = up.len().saturating_sub(min_live);
            let kill = spare.min(1 + rng.below(kill_width) as usize);
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
    let settle_s = 40 + 5 * cfg.random_ticks.saturating_sub(1) + 15;
    eng.schedule(SimTime::from_secs(settle_s), move |w: &mut World, eng| {
        for i in 0..w.size() {
            if !w.broker_up(Rank(i)) {
                assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
            }
        }
    });
    eng.schedule(
        SimTime::from_secs(settle_s + 3),
        move |w: &mut World, _eng| {
            w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO));
        },
    );
    // Post-storm probe job over the healed overlay.
    let f_slot = Rc::new(RefCell::new(None));
    {
        let f_slot = Rc::clone(&f_slot);
        eng.schedule(
            SimTime::from_secs(settle_s + 5),
            move |w: &mut World, eng| {
                let app =
                    App::with_jitter(laghos(), MachineKind::Lassen, 6, 9, JitterModel::none())
                        .with_work_seconds(30.0);
                let id = w.submit(eng, JobSpec::new("Laghos", 6), Box::new(app));
                *f_slot.borrow_mut() = Some(id);
            },
        );
    }
    // Budgets re-converged: every surviving limit belongs to a live
    // job and the global bound holds.
    {
        let f_slot = Rc::clone(&f_slot);
        let cluster = Rc::clone(&cluster);
        eng.schedule(
            SimTime::from_secs(settle_s + 15),
            move |w: &mut World, _eng| {
                let limits = cluster.borrow().job_limits();
                let probe = *f_slot.borrow();
                assert!(
                    limits.iter().any(|&(id, _)| Some(id) == probe),
                    "probe job must be budgeted after the storm: {limits:?}"
                );
                let mut sum = 0.0;
                for &(id, watts) in &limits {
                    assert!(watts.get() > 0.0, "zero budget for {id:?}");
                    let state = w.jobs.get(id).map(|j| j.state);
                    assert!(
                        matches!(state, Some(JobState::Running | JobState::Completed)),
                        "budget held by a {state:?} job {id:?}"
                    );
                    sum += watts.get();
                }
                assert!(sum <= global_bound_w + 1e-6, "over the global bound: {sum}");
            },
        );
    }

    eng.run(&mut w);

    // --- Post-run convergence --------------------------------------
    assert!(w.halted, "every job must reach a terminal state");
    assert_eq!(w.pending_rpc_count(), 0, "leaked matchtags after the storm");
    let state = |id: JobId| w.jobs.get(id).map(|j| j.state);
    assert_eq!(f_slot.borrow().and_then(state), Some(JobState::Completed));
    assert_eq!(state(a), Some(JobState::Failed));

    let live = w.tbon.attached_ranks().len() as u32;
    assert_eq!(live, nodes, "all ranks re-attached after the storm");
    assert!(w.tbon.is_balanced(), "overlay healed to fresh k-ary shape");

    // Dead ranks must not fabricate a complete window, and the
    // surviving ranks carried data.
    let stats = reduction(&degraded);
    assert!(
        matches!(stats, Some(s) if !s.all_complete && s.samples > 0),
        "mid-storm reduction: {stats:?}"
    );
    assert!(
        w.fault_drops() > 0,
        "the burst plan actually dropped traffic"
    );

    if cfg.congestion {
        assert!(
            w.congestion_reparent_count() >= 1,
            "sustained congestion must trigger at least one re-route"
        );
        // The pre-storm sustained window on link 0-2 is one event: the
        // cooldown must hold it to exactly one re-parent, even with the
        // periodic rebalance pulling the subtree back.
        let early = w
            .trace
            .entries()
            .iter()
            .filter(|e| {
                e.subsystem == "link"
                    && e.at < SimTime::from_secs(15)
                    && e.message.starts_with("congestion: re-parented rank2 ")
            })
            .count();
        assert_eq!(early, 1, "one sustained event, one re-parent");
        // A flapping link legitimately takes one re-parent per congested
        // bout; what must never happen is thrash within a bout.
        for ls in w.link_stats() {
            assert!(
                ls.reparents <= 4,
                "epoch thrash on link {}-{}: {} re-parents",
                ls.child,
                ls.parent,
                ls.reparents
            );
        }
        let stats = reduction(&congested_q);
        assert!(
            matches!(stats, Some(s) if s.samples > 0),
            "congested reduction carried data: {stats:?}"
        );
    }

    let mut trace_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut line = String::new();
    for e in w.trace.entries() {
        use std::fmt::Write as _;
        line.clear();
        let _ = write!(line, "{e}");
        fnv1a(&mut trace_hash, line.as_bytes());
        fnv1a(&mut trace_hash, b"\n");
    }
    let (completed, failed) = w.jobs.all().iter().fold((0, 0), |(c, f), j| match j.state {
        JobState::Completed => (c + 1, f),
        JobState::Failed => (c, f + 1),
        _ => (c, f),
    });

    StormOutcome {
        trace_hash,
        trace_lines: w.trace.entries().len(),
        drops: w.fault_drops(),
        timeouts: w.rpc_timeout_count(),
        retries: w.rpc_retry_count(),
        epoch: w.tbon.epoch(),
        invariant_checks: checks.get(),
        congestion_drops: w.congestion_drop_count(),
        congestion_reparents: w.congestion_reparent_count(),
        completed,
        failed,
        halted_at_us: eng.now().as_micros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 16-node storm converges and replays identically — the same
    /// guarantee the chaos-soak suite checks, through this harness.
    #[test]
    fn storm_16_replays_identically() {
        let cfg = StormConfig::new(16, 11);
        let first = storm(&cfg);
        assert!(first.invariant_checks >= 90);
        assert_eq!(first, storm(&cfg));
    }

    /// The congested 16-node storm re-routes around the sustained
    /// squeeze and still replays identically — congestion windows,
    /// bursty severity flaps, and the avoidance response all draw from
    /// seeded streams.
    /// The sweep is not vacuous: a dead rank put back into the tree
    /// without a recovery trips it at the next whole second.
    #[test]
    #[should_panic(expected = "rank3 attached but down at")]
    fn topology_sweep_catches_an_attached_dead_rank() {
        let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, 4).build();
        let checks = topology_invariants(&mut eng);
        eng.schedule(SimTime::from_millis(1500), |w: &mut World, eng| {
            w.fail_node(eng, NodeId(3));
            let root = w.root();
            w.tbon.attach(Rank(3), root);
        });
        eng.run_until(&mut w, SimTime::from_millis(1900));
        assert_eq!(checks.get(), 1, "one clean sweep before the fault");
        eng.run_until(&mut w, SimTime::from_secs(3));
    }

    #[test]
    fn congested_storm_16_replays_identically() {
        let cfg = StormConfig::congested(16, 11);
        let first = storm(&cfg);
        assert!(first.congestion_reparents >= 1);
        assert_eq!(first, storm(&cfg));
    }
}
