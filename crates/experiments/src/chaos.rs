//! Nodes-parameterized chaos storm harness.
//!
//! [`storm`] drives an `n`-node instance through a scripted failure
//! storm — an interior batch kill, a node re-failing 50 µs into its own
//! recovery, the root dying mid-storm, Gilbert–Elliott burst loss on
//! every link, seeded random fail/recover ticks, every node recovered
//! 15 s after the last tick — with every knob (batch size, random-kill
//! width, live floor, global power bound) scaled from the node count.
//! It is the repository's one plain-world storm, with three callers:
//! - `tests/chaos_soak.rs`: the 16-rank soaks (through [`storm_trace`],
//!   whose debug trace is pinned to a golden) and the 128-rank pins;
//! - `examples/chaos_soak.rs`, which prints one [`StormOutcome`];
//! - stackbench's `storm_congested_1024` workload.
//!
//! So what CI soaks is exactly what the benchmark times.
//!
//! The storm is data: [`StormConfig`] becomes a list of timed actions
//! and a fault profile, and the crate's one script runner schedules
//! them, the same runner every replica of the sharded storm
//! ([`crate::full_shard`]) uses. What is the plain mode's own is how
//! [`storm`] sets up its world: a fault plan drawing from the world's
//! RNG stream, the congestion-avoidance link monitor in congestion mode,
//! and the checks it makes once the world halts.
//!
//! The returned [`StormOutcome`] carries the trace's FNV-1a digest and
//! line count instead of its text: at 1024 ranks even the `Info` trace
//! runs to 6 MB, and a hash comparison is just as strict for the
//! replay-equality gate. [`storm`] records into a hashed trace
//! ([`Trace::hashed`]), which folds each line into the digest as it is
//! written and keeps no text; only [`storm_trace`] keeps the text, for
//! the seed-64 golden. Both read the outcome off the same digest, and no
//! check here parses a trace message.

use crate::script::{storm_congestion, ticks, Action, FaultProfile, Script};
use fluxpm_flux::{
    FluxEngine, GilbertElliott, JobId, JobSpec, JobState, LinkHealthConfig, LinkProfile, World,
};
use fluxpm_hw::MachineKind;
use fluxpm_monitor::MonitorConfig;
use fluxpm_sim::{SimDuration, SimTime, Trace, TraceLevel};
use fluxpm_workloads::{laghos, App, JitterModel};
use std::cell::Cell;
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
    /// simulated churn), run by `tests/chaos_soak.rs`.
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
    /// FNV-1a hash of the trace's text, every rendered line: the
    /// trace's [`Trace::digest`], equal whether or not the text was kept.
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
    /// Jobs that reached `Completed`.
    pub completed: usize,
    /// Jobs that reached `Failed`.
    pub failed: usize,
    /// Simulated instant the run halted at, in microseconds.
    pub halted_at_us: u64,
}

/// Schedule the per-second topology sweep, from `t = 1 s` until the
/// world halts, and return the number of sweeps that have run.
///
/// Each sweep panics, naming the rank and the instant, when the topology
/// epoch went backwards, the root is detached or down, or an attached
/// rank is down, unroutable, or on a parent chain that is detached or
/// cycles. Both storm runs — [`storm`] and every replica of the sharded
/// storm — arm it through the script's `Sweep` action.
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
            for r in w.tbon.attached() {
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

/// The plain storm's script. Every size derives from `nodes`; at 16
/// nodes the batch kill takes ranks 1–2, the overlap kill rank 4, and
/// the random ticks keep 6 ranks up and kill 1 + below(2).
fn script(cfg: &StormConfig) -> Script {
    use Action::*;
    let nodes = cfg.nodes;
    let batch = batch(nodes);
    let extra = batch + 2;
    let last_tick_s = last_tick_s(cfg);
    let settle_s = last_tick_s + 15;
    let s = SimTime::from_secs;
    let job = |nodes, seed, work_s| {
        let app = App::with_jitter(
            laghos(),
            MachineKind::Lassen,
            nodes,
            seed,
            JitterModel::none(),
        );
        Submit(
            JobSpec::new("Laghos", nodes),
            Box::new(app.with_work_seconds(work_s)),
        )
    };
    // Job A pins the bottom half of the machine and dies with the batch
    // kill; B rides out the storm on the top half if the random ticks
    // spare it; seven short fillers queue behind them.
    let mut actions = vec![
        (SimTime::ZERO, job(nodes / 2, 1, 300.0)),
        (SimTime::ZERO, job(4, 2, 60.0)),
    ];
    actions.extend((0..7).map(|k| (s(6 + 12 * k), job(2, 100 + k, 8.0))));
    actions.push((SimTime::ZERO, Sweep));
    // t=15: a whole batch of interior ranks dies at once. t=20: a
    // reduction over job A while the batch is down must finish without
    // fabricating completeness.
    actions.push((s(15), Fail((1..=batch).collect())));
    actions.push((s(20), Reduce(0)));
    if cfg.congestion {
        // t=45: a reduction while the flapping root link and the random
        // ticks are both live. Slow links inflate hop latency, but
        // height-scaled deadlines must still let it finish instead of
        // silently dropping a congested subtree.
        actions.push((s(45), Reduce(1)));
    }
    actions.extend([
        // t=25: recovery of rank 1 overlaps a fresh failure, and rank 1
        // is killed again 50 µs into its own recovery while its freshly
        // reloaded modules are still arming timers.
        (s(25), Recover(vec![1])),
        (s(25), Fail(vec![extra])),
        (SimTime::from_micros(25_000_050), Fail(vec![1])),
        (s(30), Recover((2..=batch).chain([extra]).collect())),
        (s(32), Recover(vec![1])),
        // t=35: the root dies mid-storm; a successor must be elected and
        // the root services must migrate with it.
        (s(35), KillRoot),
    ]);
    actions.extend(ticks(nodes, 40, cfg.random_ticks, 0xC0FFEE, 0));
    // Storm over: recover everything, let the system settle, run a
    // probe job over the healed overlay, and check the budgets.
    actions.extend([
        (s(settle_s), RecoverFrom(0)),
        (s(settle_s + 3), ClearFaults),
        (s(settle_s + 5), job(6, 9, 30.0)),
        (s(settle_s + 15), CheckBudgets),
    ]);
    // Per-link burst faults: lightly lossy links, a worse profile on the
    // root's first link, bursts that spike loss to 50 %.
    let burst = GilbertElliott {
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
        good_drop_prob: 0.02,
        bad_drop_prob: 0.5,
    };
    let root_burst = GilbertElliott {
        good_drop_prob: 0.08,
        ..burst
    };
    let link = |loss, jitter_us, burst| {
        LinkProfile::uniform(loss, SimDuration::from_micros(jitter_us)).with_burst(burst)
    };
    // In congestion mode, 1 s sample pushes give every interior link a
    // steady upward stream: the traffic the link monitor judges.
    let mut monitor = MonitorConfig::default();
    let mut congestion = Vec::new();
    if cfg.congestion {
        monitor = monitor.with_push_interval(SimDuration::from_secs(1));
        congestion = storm_congestion(40, last_tick_s);
    }
    Script {
        nodes,
        seed: cfg.seed,
        monitor,
        faults: FaultProfile {
            link: link(0.02, 20, burst),
            root_link: link(0.08, 40, root_burst),
            congestion,
        },
        actions,
    }
}

/// Ranks 1 to `batch` die together at `t = 15 s`.
fn batch(nodes: u32) -> u32 {
    (nodes / 8).max(2)
}

/// The last random tick: one every 5 s from `t = 40 s`.
fn last_tick_s(cfg: &StormConfig) -> u64 {
    40 + 5 * cfg.random_ticks.saturating_sub(1)
}

/// Run one full storm and return its deterministic outcome.
///
/// Panics if any storm invariant breaks: the topology epoch going
/// backwards, an attached rank that is dead or unroutable, a cycle in
/// the parent chain, the mid-storm reduction counting a dead rank, the
/// post-storm probe job not completing, or the overlay failing to heal
/// back to fresh k-ary shape.
pub fn storm(cfg: &StormConfig) -> StormOutcome {
    run_storm(cfg, Trace::hashed).0
}

/// [`storm`], also returning the finished trace's text, one rendered
/// entry per line.
pub fn storm_trace(cfg: &StormConfig) -> (StormOutcome, String) {
    let (outcome, trace) = run_storm(cfg, Trace::enabled);
    (outcome, trace.into_text())
}

/// The body of [`storm`], recording into `trace(cfg.trace_level)`; it
/// hands back the world's trace as well.
fn run_storm(cfg: &StormConfig, trace: fn(TraceLevel) -> Trace) -> (StormOutcome, Trace) {
    assert!(cfg.nodes >= 16, "the storm script needs at least 16 ranks");
    let script = script(cfg);
    let (mut w, mut eng, cluster) = script.scenario().build_with(trace(cfg.trace_level));
    eng.set_horizon(SimTime::from_secs(last_tick_s(cfg) + 300));
    w.install_fault_plan(script.faults.plan());
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
        // The pre-storm sustained window on link 0-2 (5–13 s) is one
        // event: it must cause exactly one re-parent of rank 2 before
        // the batch kill at 15 s. The monitor judges whole seconds, so
        // every re-parent before the kill has happened by 14.5 s.
        eng.schedule(SimTime::from_millis(14_500), |w: &mut World, _| {
            let early = w.link_stats().into_iter().find(|ls| ls.child == 2);
            let early = early.map_or(0, |ls| ls.reparents);
            assert_eq!(early, 1, "one sustained event, one re-parent");
        });
    }
    let run = script.start(&mut w, &mut eng, cluster);
    eng.run(&mut w);

    // --- Post-run convergence --------------------------------------
    assert!(w.halted, "every job must reach a terminal state");
    assert_eq!(w.pending_rpc_count(), 0, "leaked matchtags after the storm");
    let state = |id: JobId| w.jobs.get(id).map(|j| j.state);
    let jobs = run.jobs.borrow();
    assert_eq!(
        jobs.last().copied().and_then(state),
        Some(JobState::Completed)
    );
    assert_eq!(state(jobs[0]), Some(JobState::Failed));

    let live = w.tbon.attached().count() as u32;
    assert_eq!(live, cfg.nodes, "all ranks re-attached after the storm");
    assert!(w.tbon.is_balanced(), "overlay healed to fresh k-ary shape");

    // Dead ranks must not fabricate a complete window or contribute to
    // it, and the surviving ranks carried data. Job A holds the bottom
    // half of the machine, and the batch kill took `batch` of it.
    let reductions = run.reductions.borrow();
    let reduction = |i: usize| reductions.get(i)?.subtree_stats()?.ok();
    let stats = reduction(0);
    let reachable = (cfg.nodes / 2 - batch(cfg.nodes)) as usize;
    assert!(
        matches!(stats, Some(s) if !s.all_complete && s.samples > 0 && s.nodes <= reachable),
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
        let stats = reduction(1);
        assert!(
            matches!(stats, Some(s) if s.samples > 0),
            "congested reduction carried data: {stats:?}"
        );
    }

    let (completed, failed) = w.jobs.all().iter().fold((0, 0), |(c, f), j| match j.state {
        JobState::Completed => (c + 1, f),
        JobState::Failed => (c, f + 1),
        _ => (c, f),
    });

    let outcome = StormOutcome {
        trace_hash: w.trace.digest(),
        trace_lines: w.trace.len(),
        drops: w.fault_drops(),
        timeouts: w.rpc_timeout_count(),
        retries: w.rpc_retry_count(),
        epoch: w.tbon.epoch(),
        invariant_checks: run.sweeps.get().map_or(0, |c| c.get()),
        congestion_drops: w.congestion_drop_count(),
        congestion_reparents: w.congestion_reparent_count(),
        completed,
        failed,
        halted_at_us: eng.now().as_micros(),
    };
    (outcome, std::mem::take(&mut w.trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use fluxpm_flux::Rank;
    use fluxpm_hw::NodeId;

    /// The 16-node storm converges and replays identically — the same
    /// guarantee the chaos-soak suite checks, through this harness.
    #[test]
    fn storm_16_replays_identically() {
        let cfg = StormConfig::new(16, 11);
        let first = storm(&cfg);
        assert!(first.invariant_checks >= 90);
        assert_eq!(first, storm(&cfg));
        let pinned = StormOutcome {
            trace_hash: 0x30e2_c5e5_801d_e444,
            trace_lines: 262,
            drops: 23,
            timeouts: 35,
            retries: 25,
            epoch: 53,
            invariant_checks: 135,
            congestion_drops: 0,
            congestion_reparents: 0,
            completed: 6,
            failed: 4,
            halted_at_us: 140_000_000,
        };
        assert_eq!(first, pinned);
    }

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

    /// The congested 16-node storm re-routes around the sustained
    /// squeeze and still replays identically — congestion windows,
    /// bursty severity flaps, and the avoidance response all draw from
    /// seeded streams.
    #[test]
    fn congested_storm_16_replays_identically() {
        let cfg = StormConfig::congested(16, 11);
        let first = storm(&cfg);
        assert!(first.congestion_reparents >= 1);
        assert_eq!(first, storm(&cfg));
        let pinned = StormOutcome {
            trace_hash: 0xf944_04c1_fe55_626e,
            trace_lines: 466,
            drops: 124,
            timeouts: 137,
            retries: 13,
            epoch: 57,
            invariant_checks: 135,
            congestion_drops: 0,
            congestion_reparents: 3,
            completed: 6,
            failed: 4,
            halted_at_us: 140_000_000,
        };
        assert_eq!(first, pinned);
    }
}
