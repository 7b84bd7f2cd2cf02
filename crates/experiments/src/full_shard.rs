//! Full-fidelity sharded Worlds — the real monitor + manager stack,
//! partitioned across threads.
//!
//! Every shard builds the complete [`World`] replica (same seed, same
//! scripted scenario, same TBON) over [`fluxpm_flux::world_shard`],
//! loads the production node agents and power managers *only on the
//! ranks it owns*, and exchanges cross-shard RPC traffic as
//! conservative-window boundary messages.
//! The canonical record stream (power samples, node/job limits, root
//! aggregations, job lifecycle) merges byte-identically for any shard
//! count — see `DESIGN.md` §12 for the replica model and its
//! constraints.
//!
//! Scenario shape mirrors the single-threaded chaos storm: an interior
//! batch kill, deterministic random fail/recover ticks (never the
//! root — sharded worlds pin the root services to shard 0), bursty
//! per-link loss, optional congestion windows, staggered fixed-length
//! jobs under a proportional global power bound, and mid-storm monitor
//! reductions. Two deliberate deviations from the chaos harness, both
//! forced by the replica model: job programs are fixed-duration (their
//! progress must not read shard-local throttle state), and the
//! congestion-avoidance link monitor stays off (it acts on per-shard
//! delivery observations and would steer replicas apart).

use crate::scenario::{PowerSetup, Scenario};
use fluxpm_flux::{
    run_world_sharded, CongestionBurst, FaultPlan, GilbertElliott, JobProgram, JobSpec,
    LinkProfile, Rank, ShardRecord, StepCtx, StepOutcome, World, WorldRunStats, WorldShard,
};
use fluxpm_hw::{Lanes, MachineKind, NodeId, PowerDemand, Watts};
use fluxpm_manager::ManagerConfig;
use fluxpm_monitor::{MonitorConfig, MonitorQuery, QueryHandle, SubscriptionFilter};
use fluxpm_sim::{SimDuration, SimTime, Xoshiro256pp};
use std::cell::RefCell;
use std::rc::Rc;

/// Shape of one full-fidelity sharded run. Every knob is part of the
/// replicated scenario: two configs that compare traces must be
/// identical except for `shards`.
#[derive(Debug, Clone)]
pub struct FullShardConfig {
    /// Instance size in brokers/nodes (minimum 16: the scripted batch
    /// kill assumes the interior ranks it targets exist).
    pub nodes: u32,
    /// Worker shards. 1 is the single-threaded reference run.
    pub shards: usize,
    /// World seed; also salts the deterministic fault and retry hashes.
    pub seed: u64,
    /// TBON per-hop latency in microseconds. This is also the
    /// conservative lookahead: congestion and jitter only *add* delay
    /// on top of it, so fatter hops mean fewer coordinator barriers.
    pub hop_latency_us: u64,
    /// Layer seeded congestion windows over the death storm.
    pub congestion: bool,
    /// Deterministic fail/recover ticks, one every 5 s starting at
    /// `t = 30 s`. The root rank is never a victim.
    pub storm_ticks: u64,
    /// Short filler jobs submitted behind the two headline jobs.
    pub filler_jobs: u64,
    /// Node-agent sensor sampling cadence.
    pub sample_interval: SimDuration,
    /// Node-agent push-telemetry cadence (steady upward cross-shard
    /// traffic). `None` disables pushes.
    pub push_interval: Option<SimDuration>,
    /// Extra congestion windows layered onto the fault plan (link,
    /// active window, optional burst shape — `None` means a sustained
    /// 0.999 squeeze). The property sweep uses this to fuzz window
    /// geometry.
    pub extra_congestion: Vec<(
        Rank,
        Rank,
        std::ops::Range<SimTime>,
        Option<CongestionBurst>,
    )>,
    /// Ranks that attach a streaming telemetry subscriber to their
    /// local [`fluxpm_monitor::TelemetryRelay`] at `t = 6 s` and poll
    /// it every 5 s from `t = 10 s`. Every delivered delta becomes a
    /// canonical [`fluxpm_flux::shard::rec::RELAY_DELIVER`] record on
    /// the draining (root-owner) shard, so the per-subscriber stream
    /// through the TBON-distributed fan-out plane is part of the
    /// replica equivalence contract. Empty (the default) keeps the
    /// subscription plane idle and the wire silent.
    pub subscribe_ranks: Vec<u32>,
}

impl FullShardConfig {
    /// Standard 128-rank-class scenario: full storm script, 2 s
    /// sampling, 1 s pushes, congestion off.
    pub fn new(nodes: u32, shards: usize, seed: u64) -> FullShardConfig {
        FullShardConfig {
            nodes,
            shards,
            seed,
            hop_latency_us: 200,
            congestion: false,
            storm_ticks: 6,
            filler_jobs: 5,
            sample_interval: SimDuration::from_secs(2),
            push_interval: Some(SimDuration::from_secs(1)),
            extra_congestion: Vec::new(),
            subscribe_ranks: Vec::new(),
        }
    }

    /// Standard scenario with bursty congestion windows layered on.
    pub fn congested(nodes: u32, shards: usize, seed: u64) -> FullShardConfig {
        FullShardConfig {
            congestion: true,
            ..FullShardConfig::new(nodes, shards, seed)
        }
    }

    /// Fleet soak: a 100k-rank-class instance with the real stack at
    /// relaxed cadences — long sampling, no pushes, a short storm, and
    /// narrow jobs so the replicated executor stays cheap.
    pub fn fleet(nodes: u32, shards: usize, seed: u64) -> FullShardConfig {
        FullShardConfig {
            storm_ticks: 2,
            filler_jobs: 1,
            sample_interval: SimDuration::from_secs(10),
            push_interval: None,
            ..FullShardConfig::new(nodes, shards, seed)
        }
    }

    /// Simulated horizon: the storm script plus settle time.
    pub fn horizon(&self) -> SimTime {
        let last_tick_s = 30 + 5 * self.storm_ticks.saturating_sub(1);
        SimTime::from_secs(last_tick_s + 45)
    }
}

/// Everything a full-fidelity sharded run reports.
#[derive(Debug, Clone)]
pub struct FullShardOutcome {
    /// FNV-1a fingerprint of the canonical merged record stream —
    /// identical for every shard count of the same scenario.
    pub trace_hash: u64,
    /// Records in the merged stream.
    pub records: usize,
    /// Coordinator + per-shard runtime decomposition.
    pub stats: WorldRunStats,
}

/// A fixed-duration phase-demand job program.
///
/// Replica-safe by construction: its demand and its completion time
/// are pure functions of the phase clock, never of node state. The
/// workload-model [`fluxpm_workloads::App`] reads its nodes' throttle
/// factors and stolen CPU time to slow down — exactly the shard-local
/// state that diverges between replicas (limits are only *applied* on
/// the owner shard) — so it cannot run inside a sharded world.
pub struct PhaseApp {
    duration_s: f64,
    period_s: f64,
    started_at: Option<SimTime>,
}

impl PhaseApp {
    /// A program that runs exactly `duration_s`, alternating between a
    /// hot and a cool power phase every `period_s`.
    pub fn new(duration_s: f64, period_s: f64) -> PhaseApp {
        PhaseApp {
            duration_s,
            period_s,
            started_at: None,
        }
    }

    /// Demand at phase-clock `t`: a square wave between 90 % and 35 %
    /// of the dynamic range, identical on every node.
    fn demand_at(&self, t: f64, arch: &fluxpm_hw::NodeArch) -> PowerDemand {
        let hot = ((t / self.period_s) as u64).is_multiple_of(2);
        let frac = if hot { 0.9 } else { 0.35 };
        let lerp = |lo: Watts, hi: Watts| Watts(lo.get() + frac * (hi.get() - lo.get()));
        PowerDemand {
            cpu: Lanes::filled(lerp(arch.cpu_idle, arch.cpu_peak), arch.sockets),
            memory: lerp(arch.mem_idle, arch.mem_peak),
            gpu: Lanes::filled(lerp(arch.gpu_idle, arch.gpu_peak), arch.gpus),
            other: arch.other,
        }
        .clamp_to_envelope(arch)
    }
}

impl JobProgram for PhaseApp {
    fn app_name(&self) -> &str {
        "PhaseApp"
    }

    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        self.started_at = Some(ctx.now);
        for node in &mut ctx.nodes {
            let d = self.demand_at(0.0, &node.arch);
            node.set_demand(d);
        }
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
        // invariant: the executor calls `on_start` when the job starts
        // running, before it ever calls `step`.
        let start = self.started_at.expect("step before on_start");
        let t = (ctx.now - start).as_secs_f64();
        if t >= self.duration_s {
            return StepOutcome::Done {
                leftover_seconds: (t - self.duration_s).min(ctx.dt),
            };
        }
        for node in &mut ctx.nodes {
            let d = self.demand_at(t, &node.arch);
            node.set_demand(d);
        }
        StepOutcome::Running
    }
}

/// Build one shard's replica world: the complete scripted scenario,
/// with module loads and message sends confined to owned ranks by the
/// sharding layer.
fn build_shard(cfg: &FullShardConfig, shard: usize) -> WorldShard {
    let nodes = cfg.nodes;
    let seed = cfg.seed;
    assert!(nodes >= 16, "the storm script needs at least 16 ranks");
    let batch = (nodes / 16).max(2);
    let min_live = (nodes as usize) * 3 / 8;
    let kill_width = 1 + u64::from(nodes / 16);
    let wide = nodes / 2;
    let global_bound_w = f64::from(nodes) * 1500.0;

    // Monitor stack at the configured cadences. Sample pushes are the
    // steady node -> root cross-shard traffic.
    let mut mon_cfg = MonitorConfig::default().with_sample_interval(cfg.sample_interval);
    if let Some(push) = cfg.push_interval {
        mon_cfg = mon_cfg.with_push_interval(push);
    }
    // Node-level managers everywhere, job- and cluster-level on the root;
    // the load guard skips ranks this shard does not own.
    let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, nodes)
        .with_seed(seed)
        .with_shard(shard, cfg.shards)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(global_bound_w)),
        })
        .with_monitor(mon_cfg)
        .build();
    w.tbon.hop_latency = SimDuration::from_micros(cfg.hop_latency_us);
    w.autostop_after = Some(2 + cfg.filler_jobs);

    // Per-link burst faults, deterministic mode: loss, jitter, and
    // congestion state are pure hashes of (seed, link, message, hop),
    // so every replica sees the same network weather.
    let ge = GilbertElliott {
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
        good_drop_prob: 0.01,
        bad_drop_prob: 0.3,
    };
    let mut plan = FaultPlan::uniform(0.01, SimDuration::from_micros(20))
        .with_burst(ge)
        .with_link(
            Rank(0),
            Rank(1),
            LinkProfile::uniform(0.04, SimDuration::from_micros(40)).with_burst(ge),
        );
    if cfg.congestion {
        let last_tick_s = 30 + 5 * cfg.storm_ticks.saturating_sub(1);
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
                SimTime::from_secs(30)..SimTime::from_secs(last_tick_s + 10),
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
                SimTime::from_secs(40)..SimTime::from_secs(50),
                0.999,
            );
    }
    for (a, b, window, burst) in &cfg.extra_congestion {
        plan = match burst {
            Some(burst) => plan.with_bursty_congestion(*a, *b, window.clone(), *burst),
            None => plan.with_congestion(*a, *b, window.clone(), 0.999),
        };
    }
    w.install_fault_plan(plan.deterministic(seed));
    // Post-churn shape restoration is purely structural (attached +
    // alive state, which replicates), so it stays on. The link monitor
    // does NOT: it reparents on per-shard delivery observations.
    w.schedule_rebalance(&mut eng, SimDuration::from_secs(7));

    // Job A pins the bottom half of the machine; B rides out the storm
    // on a narrow allocation. Both are fixed-duration phase apps.
    let a = w.submit(
        &mut eng,
        JobSpec::new("PhaseApp", wide),
        Box::new(PhaseApp::new(60.0, 7.0)),
    );
    let b = w.submit(
        &mut eng,
        JobSpec::new("PhaseApp", 4),
        Box::new(PhaseApp::new(45.0, 5.0)),
    );
    for k in 0..cfg.filler_jobs {
        eng.schedule(SimTime::from_secs(4 + 8 * k), move |w: &mut World, eng| {
            w.submit(
                eng,
                JobSpec::new("PhaseApp", 2),
                Box::new(PhaseApp::new(12.0, 3.0)),
            );
        });
    }

    // Mid-storm monitor reductions from the root vantage. The handles
    // stay unread: the queries exist to drive tree-wide fan-out RPCs
    // and the root-aggregation records they produce on shard 0.
    eng.schedule(SimTime::from_secs(18), move |w: &mut World, eng| {
        let _ = MonitorQuery::job_stats_tree(a).send(w, eng);
    });
    eng.schedule(SimTime::from_secs(38), move |w: &mut World, eng| {
        let _ = MonitorQuery::job_stats_tree(b).send(w, eng);
    });

    // Streaming subscribers attached at their local relays: steady
    // root -> leaf fan-out traffic through the TBON-distributed
    // subscription plane, riding out the storm. Subscribe and poll
    // RPCs originate at the root (the client vantage), so the handles
    // only resolve on the root-owner shard — exactly where the
    // delivered-delta records must be emitted. A poll whose serving
    // broker is down (or whose relay was rebuilt, forgetting the id)
    // errors deterministically and records nothing.
    for &sub_rank in &cfg.subscribe_ranks {
        // The subscribe handshake rides fire-and-forget tree events
        // (climb + seed), so under the lossy fault plan an attempt can
        // vanish; like any production client, retry on timeout until
        // one attempt lands. All attempts and retries are driven by
        // client-visible state, so the traffic replays identically on
        // every shard count.
        let attempts: Rc<RefCell<Vec<QueryHandle>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let attempts = Rc::clone(&attempts);
            let at = SimTime::from_secs(6) + SimDuration::from_millis(1500 * i);
            eng.schedule(at, move |w: &mut World, eng| {
                let landed = attempts
                    .borrow()
                    .iter()
                    .any(|q| matches!(q.subscription(), Some(Ok(_))));
                if landed {
                    return;
                }
                let q = MonitorQuery::subscribe(SubscriptionFilter::all())
                    .at(Rank(sub_rank))
                    .send(w, eng);
                attempts.borrow_mut().push(q);
            });
        }
        for k in 0..8u64 {
            let attempts = Rc::clone(&attempts);
            let at = SimTime::from_secs(10 + 5 * k);
            eng.schedule(at, move |w: &mut World, eng| {
                let id = attempts
                    .borrow()
                    .iter()
                    .find_map(|q| match q.subscription() {
                        Some(Ok(id)) => Some(id),
                        _ => None,
                    });
                let Some(id) = id else { return };
                let q = MonitorQuery::poll(id, 4096).at(Rank(sub_rank)).send(w, eng);
                eng.schedule(
                    at + SimDuration::from_millis(900),
                    move |w: &mut World, _| {
                        if let Some(Ok(batch)) = q.deltas() {
                            for d in &batch.deltas {
                                w.record(
                                    at,
                                    sub_rank,
                                    fluxpm_flux::shard::rec::RELAY_DELIVER,
                                    d.seq,
                                    u64::from(d.node),
                                );
                            }
                        }
                    },
                );
            });
        }
    }

    // --- Scripted storm prefix -------------------------------------
    // t=12: a batch of interior ranks dies at once; t=22: recovery.
    eng.schedule(SimTime::from_secs(12), move |w: &mut World, eng| {
        let victims: Vec<NodeId> = (1..=batch).map(NodeId).collect();
        w.fail_nodes(eng, &victims);
    });
    eng.schedule(SimTime::from_secs(22), move |w: &mut World, eng| {
        for i in 1..=batch {
            assert!(w.recover_node(eng, NodeId(i)));
        }
    });

    // --- Deterministic storm ticks ---------------------------------
    // Same recover-then-kill shape as the chaos storm, but the tick
    // RNG is a pure function of (seed, k) — replicated, not shared —
    // and the root rank is never killed: sharded worlds pin the root
    // services to shard 0 and do not support root failover.
    for k in 0..cfg.storm_ticks {
        let at = SimTime::from_secs(30 + 5 * k);
        eng.schedule(at, move |w: &mut World, eng| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xF0_11D ^ (k << 32));
            for i in 0..w.size() {
                if !w.broker_up(Rank(i)) && rng.chance(0.45) {
                    assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
                }
            }
            let mut up: Vec<u32> = (1..w.size()).filter(|&i| w.broker_up(Rank(i))).collect();
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

    // --- Storm over: recover everything ----------------------------
    let settle_s = 30 + 5 * cfg.storm_ticks.saturating_sub(1) + 10;
    eng.schedule(SimTime::from_secs(settle_s), move |w: &mut World, eng| {
        for i in 1..w.size() {
            if !w.broker_up(Rank(i)) {
                assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
            }
        }
    });

    WorldShard::new(w, eng)
}

/// Run one full-fidelity sharded scenario and fingerprint its merged
/// canonical record stream.
pub fn full_shard_run(cfg: &FullShardConfig) -> (Vec<ShardRecord>, FullShardOutcome) {
    let lookahead = SimDuration::from_micros(cfg.hop_latency_us);
    let horizon = cfg.horizon();
    let (records, stats) = run_world_sharded(cfg.shards, lookahead, horizon, |shard| {
        build_shard(cfg, shard)
    });
    let out = FullShardOutcome {
        trace_hash: fluxpm_flux::records_hash(&records),
        records: records.len(),
        stats,
    };
    (records, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_produced_and_merged_sorted() {
        let cfg = FullShardConfig::new(16, 2, 11);
        let (records, out) = full_shard_run(&cfg);
        assert!(out.records > 0, "the stack must emit canonical records");
        assert!(records.windows(2).all(|w| w[0] <= w[1]));
        // Every record family shows up: samples, node limits, job
        // limits, root aggregations, job lifecycle.
        for code in [
            fluxpm_flux::shard::rec::POWER_SAMPLE,
            fluxpm_flux::shard::rec::NODE_LIMIT,
            fluxpm_flux::shard::rec::JOB_LIMIT,
            fluxpm_flux::shard::rec::JOB_EVENT,
        ] {
            assert!(
                records.iter().any(|r| r.code == code),
                "no record with code {code}"
            );
        }
    }

    #[test]
    fn relay_streams_agree_across_shard_counts() {
        // Subscribers at an interior rank and a deep leaf, chosen to
        // dodge the scripted t=12 batch kill (ranks 1..=2 at 16
        // nodes) so the streams stay live through the storm prefix.
        let mut base = FullShardConfig::new(16, 1, 13);
        base.subscribe_ranks = vec![5, 15];
        let (records, one) = full_shard_run(&base);
        let delivered = records
            .iter()
            .filter(|r| r.code == fluxpm_flux::shard::rec::RELAY_DELIVER)
            .count();
        assert!(
            delivered > 20,
            "relay subscribers must stream through the storm, got {delivered}"
        );
        // Both subscriber vantages must appear in the record stream.
        for rank in [5u32, 15] {
            assert!(
                records
                    .iter()
                    .any(|r| r.code == fluxpm_flux::shard::rec::RELAY_DELIVER && r.rank == rank),
                "no delivered deltas recorded at rank {rank}"
            );
        }
        for shards in [2usize, 4, 8] {
            let mut cfg = base.clone();
            cfg.shards = shards;
            let (_, n) = full_shard_run(&cfg);
            assert_eq!(
                one.trace_hash, n.trace_hash,
                "per-subscriber relay streams diverged: shards=1 vs {shards}"
            );
            assert_eq!(one.records, n.records);
        }
    }

    #[test]
    fn shard_counts_agree_at_16_ranks() {
        let base = FullShardConfig::new(16, 1, 7);
        let (_, one) = full_shard_run(&base);
        for shards in [2usize, 4] {
            let mut cfg = base.clone();
            cfg.shards = shards;
            let (_, n) = full_shard_run(&cfg);
            assert_eq!(one.trace_hash, n.trace_hash, "shards=1 vs {shards}");
            assert_eq!(one.records, n.records);
            let crossed: u64 = n.stats.shard_boundary_out.iter().sum();
            assert!(crossed > 0, "traffic must cross cuts");
        }
    }
}
