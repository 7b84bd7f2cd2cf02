//! Full-fidelity sharded Worlds — the real monitor + manager stack,
//! partitioned across threads.
//!
//! Every shard builds the complete `World` replica (same seed, same
//! scripted scenario, same TBON) over [`fluxpm_flux::world_shard`],
//! loads the production node agents and power managers *only on the
//! ranks it owns*, and exchanges cross-shard RPC traffic as
//! conservative-window boundary messages.
//! The canonical record stream (power samples, node/job limits, root
//! aggregations, job lifecycle) merges byte-identically for any shard
//! count — see `DESIGN.md` §12 for the replica model and its
//! constraints.
//!
//! The storm is a list of timed actions of the same kind as the plain
//! chaos storm's ([`crate::chaos`]), run by the same runner: an interior
//! batch kill, random fail/recover ticks, bursty per-link loss, optional
//! congestion windows, staggered jobs under a proportional global power
//! bound, mid-storm monitor reductions, and optional streaming
//! subscribers. [`FullShardConfig`] builds the list. The replica model forces four
//! of its differences from the plain storm:
//! - Jobs are [`PhaseApp`]s, fixed-duration: a job's progress must not
//!   read shard-local throttle state.
//! - The root is never killed: the ticks draw victims from rank 1 up,
//!   the storm-end recovery starts at rank 1, and there is no root
//!   failover, because sharded worlds pin the root services to shard 0.
//! - Faults are drawn from hashes (`FaultPlan::deterministic`), not from
//!   one RNG stream whose consumption order depends on which shard
//!   sends first.
//! - The congestion-avoidance link monitor stays off: it acts on
//!   per-shard delivery observations and would steer replicas apart.
//!
//! The rest is a different script, not a constraint: an earlier, shorter
//! storm (batch of `nodes / 16`, recovered at `t = 22 s`; ticks from
//! `t = 30 s`), and no topology sweep, probe job, budget check or fault
//! clearing at the end.

use crate::script::{storm_congestion, ticks, Action, FaultProfile, Script};
use fluxpm_flux::{
    run_world_sharded, CongestionBurst, GilbertElliott, JobProgram, JobSpec, LinkProfile, Rank,
    ShardRecord, StepCtx, StepOutcome, WorldRunStats, WorldShard,
};
use fluxpm_hw::{Lanes, PowerDemand, Watts};
use fluxpm_monitor::MonitorConfig;
use fluxpm_sim::{SimDuration, SimTime};

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

/// The sharded storm's script: an interior batch kill and its recovery,
/// random ticks that spare the root, staggered phase jobs, two
/// mid-storm reductions, and the streaming subscribers.
fn script(cfg: &FullShardConfig) -> Script {
    use Action::*;
    let nodes = cfg.nodes;
    let batch = (nodes / 16).max(2);
    let last_tick_s = 30 + 5 * cfg.storm_ticks.saturating_sub(1);
    let s = SimTime::from_secs;
    let phase = |nodes, duration_s, period_s| {
        let app = PhaseApp::new(duration_s, period_s);
        Submit(JobSpec::new("PhaseApp", nodes), Box::new(app))
    };
    // Job A pins the bottom half of the machine; B rides out the storm
    // on a narrow allocation; short fillers queue behind them.
    let mut actions = vec![
        (SimTime::ZERO, phase(nodes / 2, 60.0, 7.0)),
        (SimTime::ZERO, phase(4, 45.0, 5.0)),
    ];
    actions.extend((0..cfg.filler_jobs).map(|k| (s(4 + 8 * k), phase(2, 12.0, 3.0))));
    // Mid-storm reductions from the root vantage, left unread: they
    // drive tree-wide fan-out RPCs and the root-aggregation records
    // those produce on shard 0.
    actions.push((s(18), Reduce(0)));
    actions.push((s(38), Reduce(1)));
    // Streaming subscribers at their local relays: steady root -> leaf
    // fan-out through the subscription plane, riding out the storm. A
    // subscribe can vanish under the lossy plan, so it is tried four
    // times; every try and poll is driven by client-visible state and
    // replays identically on every shard count. Subscribe and poll RPCs
    // originate at the root, so their handles resolve only on the
    // root-owner shard, which is where the delivered-delta records must
    // be emitted.
    for &rank in &cfg.subscribe_ranks {
        let tries = (0..4).map(|i| s(6) + SimDuration::from_millis(1500 * i));
        actions.extend(tries.map(|at| (at, Subscribe(rank))));
        actions.extend((0..8).map(|k| (s(10 + 5 * k), Poll(rank))));
    }
    actions.push((s(12), Fail((1..=batch).collect())));
    actions.push((s(22), Recover((1..=batch).collect())));
    actions.extend(ticks(nodes, 30, cfg.storm_ticks, 0xF0_11D, 1));
    actions.push((s(last_tick_s + 10), RecoverFrom(1)));

    let burst = GilbertElliott {
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
        good_drop_prob: 0.01,
        bad_drop_prob: 0.3,
    };
    let link = |loss, jitter_us| {
        LinkProfile::uniform(loss, SimDuration::from_micros(jitter_us)).with_burst(burst)
    };
    let mut congestion = Vec::new();
    if cfg.congestion {
        congestion = storm_congestion(30, last_tick_s);
    }
    congestion.extend(cfg.extra_congestion.iter().cloned());
    // Sample pushes are the steady node -> root cross-shard traffic.
    let mut monitor = MonitorConfig::default().with_sample_interval(cfg.sample_interval);
    if let Some(push) = cfg.push_interval {
        monitor = monitor.with_push_interval(push);
    }
    Script {
        nodes,
        seed: cfg.seed,
        monitor,
        faults: FaultProfile {
            link: link(0.01, 20),
            root_link: link(0.04, 40),
            congestion,
        },
        actions,
    }
}

/// Build one shard's replica world: the whole script, with module loads
/// and message sends confined to the ranks the shard owns.
fn build_shard(cfg: &FullShardConfig, shard: usize) -> WorldShard {
    assert!(cfg.nodes >= 16, "the storm script needs at least 16 ranks");
    let script = script(cfg);
    let (mut w, mut eng, cluster) = script.scenario().with_shard(shard, cfg.shards).build();
    w.tbon.hop_latency = SimDuration::from_micros(cfg.hop_latency_us);
    // Loss, jitter and congestion state are pure hashes of (seed, link,
    // message, hop), so every replica sees the same network weather.
    w.install_fault_plan(script.faults.plan().deterministic(cfg.seed));
    script.start(&mut w, &mut eng, cluster);
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
    use fluxpm_flux::shard::first_divergence;

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
        assert_eq!((one.trace_hash, one.records), (0xdaa5_eac2_d171_beb0, 788));
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
            let (other, _) = full_shard_run(&cfg);
            if let Some(d) = first_divergence(&records, &other) {
                panic!("per-subscriber relay streams: shards=1 vs {shards}: {d}");
            }
        }
    }

    #[test]
    fn shard_counts_agree_at_16_ranks() {
        let base = FullShardConfig::new(16, 1, 7);
        let (records, one) = full_shard_run(&base);
        assert_eq!((one.trace_hash, one.records), (0x0b1b_0a5b_110b_881a, 498));
        for shards in [2usize, 4] {
            let mut cfg = base.clone();
            cfg.shards = shards;
            let (other, n) = full_shard_run(&cfg);
            if let Some(d) = first_divergence(&records, &other) {
                panic!("shards=1 vs {shards}: {d}");
            }
            let crossed: u64 = n.stats.shard_boundary_out.iter().sum();
            assert!(crossed > 0, "traffic must cross cuts");
        }
    }
}
