//! The traced pass: the per-layer numbers behind the end-to-end figure.
//! Never mixed into an end-to-end run — it has its own binary
//! (`stackbench-traced`, which counts allocations) and its own reps.
//!
//! Three kinds of number, all taken from this crate's own files:
//! *counts* read from public counters after a rep (they repeat exactly),
//! *unit costs* from [`crate::probes`], and *spans* around what the
//! harness can see. `attrib.X_frac` = count × unit cost ÷
//! `harness.run_s`.

use crate::alloc;
use crate::measure;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::run::{self, ChildReport, Timed};
use crate::spans::Spans;
use crate::workloads::{self, run_rep, Counts, Rep, Scale, Workload};
use fluxpm_experiments::report::Table;
use fluxpm_flux::World;
use fluxpm_hw::MachineKind;
use fluxpm_sim::TraceLevel;
use std::time::Instant;

const TRACED_REPS: u32 = 3;

/// Which layers a workload exercises and which it bypasses — the
/// README's "should move on" column as `(must be > 0, must be 0)`. A
/// later optimisation is judged on one workload that runs its mechanism
/// and one that does not, so the split itself is checked.
fn predictions(w: Workload) -> (&'static [&'static str], &'static [&'static str]) {
    match w {
        Workload::QueueFpp128 => (
            &["sim.makespan_s", "manager.cluster_peak_frac"],
            &["flux.jobs_failed", "monitor.hub_published"],
        ),
        Workload::StormCongested1024 => (
            &[
                "flux.fault_drops",
                "flux.rpc_retries",
                "flux.congestion_drops",
                "flux.msgs_delivered",
            ],
            &["sim.makespan_s", "monitor.hub_published"],
        ),
        Workload::FleetFull16k => (
            &["sim.events", "sharded.windows", "sharded.s2_boundary_msgs"],
            &["sim.makespan_s", "monitor.hub_published"],
        ),
        Workload::TelemetryPush256 => (
            &[
                "monitor.hub_published",
                "monitor.poll_deliveries",
                "monitor.pushes_received",
                "monitor.relay_egress_msgs",
            ],
            &[
                "flux.fault_drops",
                "flux.rpc_retries",
                "monitor.sub_dropped",
                "monitor.reply_samples",
            ],
        ),
        Workload::TelemetryPull256 => (
            &[
                "monitor.queries_served",
                "monitor.reply_samples",
                "variorum.json_decodes",
            ],
            &[
                "flux.fault_drops",
                "monitor.hub_published",
                "monitor.pushes_received",
                "monitor.relay_egress_msgs",
            ],
        ),
    }
}

/// The body of `stackbench-traced trace-child`: an untraced warm-up,
/// up to [`TRACED_REPS`] traced reps within `seconds`, the workload's
/// extra reps, the unit-cost probes. Writes the span file and returns
/// the per-layer metrics as the report's counts.
pub fn child_main(workload: Workload, seed: u64, seconds: f64, started: Instant) -> ChildReport {
    let steal0 = measure::cpu_jiffies();
    let mut spans = Spans::on();
    let mut off = Spans::off();

    let s = spans.enter("warmup", None, 0);
    let (warm, warmup_s, _) = measure::timed(|| run_rep(workload, seed, Scale::Full, &mut off));
    spans.exit(s);
    let mut report = ChildReport {
        warmup_s,
        setup_s: started.elapsed().as_secs_f64(),
        fingerprint: warm.fingerprint,
        attempted: warm.attempted,
        failed: warm.failed,
        problems: warm.problems.clone(),
        ..ChildReport::default()
    };

    // Traced reps; the fastest one is the one the table describes.
    let mut best: Option<(Rep, f64, (u64, u64))> = None;
    let timed_from = Instant::now();
    for i in 1..=TRACED_REPS {
        spans.rep = i;
        let a0 = alloc::allocated();
        let (rep, wall, cpu) = measure::timed(|| run_rep(workload, seed, Scale::Full, &mut spans));
        let a1 = alloc::allocated();
        report.reps.push(Timed {
            wall,
            cpu,
            ..Timed::default()
        });
        report.fold(&rep, "traced rep");
        if best.as_ref().is_none_or(|b| wall < b.1) {
            best = Some((rep, wall, (a1.0 - a0.0, a1.1 - a0.1)));
        }
        if timed_from.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    spans.rep = 0;
    let (rep, best_wall, allocs) = best.expect("at least one traced rep ran");

    let mut m = rep.counts.clone();
    // A count the untraced warm-up could already read stays as the
    // traced rep read it; both paths must agree on the outcome anyway.
    for (k, v) in &warm.counts {
        m.entry(k).or_insert(*v);
    }
    m.insert("harness.build_s", rep.build_s);
    m.insert("harness.run_s", rep.run_s);
    m.insert("harness.collect_s", rep.collect_s);
    m.insert("harness.warmup_s", warmup_s);
    m.insert("harness.alloc_count", allocs.0 as f64);
    m.insert("harness.alloc_mb", allocs.1 as f64 / (1024.0 * 1024.0));

    // The three phases are the whole rep: anything the harness did
    // outside them would be time the table cannot place.
    let phases = rep.build_s + rep.run_s + rep.collect_s;
    report.check((phases / best_wall - 1.0).abs() <= 0.02, || {
        format!("build + run + collect = {phases:.4} s, but the rep took {best_wall:.4} s")
    });

    extras(workload, seed, &mut spans, &warm, &mut report, &mut m);
    unit_costs(workload, seed, &mut spans, rep.run_s, &mut m);
    let (positive, zero) = predictions(workload);
    for name in positive {
        let v = m.get(name).copied().unwrap_or(0.0);
        report.check(v > 0.0, || format!("{name} = {v}, predicted > 0"));
    }
    for name in zero {
        let v = m.get(name).copied().unwrap_or(0.0);
        report.check(v == 0.0, || format!("{name} = {v}, predicted 0"));
    }
    m.insert(
        "harness.steal_frac",
        measure::steal_frac(steal0, measure::cpu_jiffies()),
    );

    let path = run::out_dir().join(format!("trace-{}.json", workload.name()));
    if let Err(e) = std::fs::write(&path, spans.to_json(workload.name())) {
        report.problems.push(format!("{}: {e}", path.display()));
    }
    report.counts = m;
    report.peak_rss_mb = measure::peak_rss_mb();
    report
}

/// The reps only one workload needs.
fn extras(
    workload: Workload,
    seed: u64,
    spans: &mut Spans,
    warm: &Rep,
    report: &mut ChildReport,
    m: &mut Counts,
) {
    let mut off = Spans::off();
    match workload {
        // `Scenario::run` shows none of its insides, so the queue's
        // layers are priced by taking them out: the same queue without
        // the monitor (Fig. 3 in host and in simulated terms) and under
        // the proportional policy (no FPP controllers, no `fft`),
        // untraced, twice each in turn; the fastest of each counts.
        Workload::QueueFpp128 => {
            use workloads::QueueStack::{Full, NoMonitor, Proportional};
            let s = spans.enter("extra.layers_out", None, 0);
            let mut best = [f64::INFINITY; 3];
            let mut makespan_without = 0.0;
            for _ in 0..2 {
                for (i, stack) in [Full, NoMonitor, Proportional].into_iter().enumerate() {
                    let rep = workloads::queue(seed, Scale::Full, &mut off, None, stack);
                    if stack == Full {
                        report.fold(&rep, "full-stack rep");
                    } else {
                        report.attempted += rep.attempted;
                        report.failed += rep.failed;
                        report.problems.extend(rep.problems.iter().cloned());
                    }
                    if stack == NoMonitor {
                        makespan_without = rep.counts["sim.makespan_s"];
                    }
                    best[i] = best[i].min(rep.run_s);
                }
            }
            spans.exit(s);
            m.insert("monitor.overhead_host_frac", best[0] / best[1] - 1.0);
            m.insert("manager.fpp_host_frac", best[0] / best[2] - 1.0);
            let makespan = warm.counts["sim.makespan_s"];
            m.insert(
                "monitor.overhead_sim_pct",
                (makespan / makespan_without - 1.0) * 100.0,
            );
        }
        // `storm` keeps its world to itself; at Debug its trace holds a
        // send line and a deliver line per message on top of the Info
        // lines, so half the difference counts the messages.
        Workload::StormCongested1024 => {
            let s = spans.enter("extra.debug_trace", None, 0);
            let debug = workloads::storm_rep(seed, Scale::Full, &mut off, None, TraceLevel::Debug);
            spans.exit(s);
            report.attempted += debug.attempted;
            report.failed += debug.failed;
            let lines = debug.counts["flux.trace_lines"] - warm.counts["flux.trace_lines"];
            m.insert("flux.msgs_delivered", (lines / 2.0).floor());
        }
        // The same fleet on two shards must produce the same records.
        Workload::FleetFull16k => {
            let s = spans.enter("extra.two_shards", None, 0);
            let two = workloads::fleet(seed, Scale::Full, 2, &mut off, None);
            spans.exit(s);
            report.fold(&two, "two-shard rep");
            m.insert("sharded.s2_wall_ratio", two.run_s / m["harness.run_s"]);
            m.insert(
                "sharded.s2_boundary_msgs",
                two.counts["sharded.boundary_msgs"],
            );
            m.insert(
                "sharded.s2_busy_max_frac",
                two.counts["sharded.busy_max_frac"],
            );
        }
        Workload::TelemetryPush256 | Workload::TelemetryPull256 => {}
    }
    // Worlds the harness owns count their messages in one more rep,
    // traced at Debug; too slow to be one of the timed traced reps.
    if matches!(
        workload,
        Workload::TelemetryPush256 | Workload::TelemetryPull256
    ) {
        let mut counting = Spans::on();
        counting.count_messages = true;
        let s = spans.enter("extra.count_messages", None, 0);
        let rep = run_rep(workload, seed, Scale::Full, &mut counting);
        spans.exit(s);
        report.fold(&rep, "message-counting rep");
        for name in [
            "flux.msgs_delivered",
            "monitor.pushes_received",
            "monitor.relay_egress_msgs",
        ] {
            m.insert(name, rep.counts[name]);
        }
        let published = rep.counts.get("monitor.hub_published").copied();
        if let Some(published) = published.filter(|&p| p > 0.0) {
            m.insert(
                "monitor.relay_egress_per_delta",
                m["monitor.relay_egress_msgs"] / published,
            );
        }
    }
}

/// Price each layer the workload exercised and attribute `run_s`.
fn unit_costs(workload: Workload, seed: u64, spans: &mut Spans, run_s: f64, m: &mut Counts) {
    let get = |m: &Counts, k: &str| m.get(k).copied().unwrap_or(0.0);
    let run_ns = run_s * 1e9;
    let n = workload.ranks();
    let mut attributed = 0.0;

    let events = get(m, "sim.events");
    if events > 0.0 {
        m.insert("sim.ns_per_event", run_ns / events);
    }
    // Workloads that hide their engine cannot report a peak; one
    // pending timer per rank is the floor every world here keeps.
    let pending = match get(m, "sim.pending_peak") {
        p if p > 0.0 => p as usize,
        _ => n as usize,
    };
    let op = probes::engine_op_ns(spans, pending);
    m.insert("sim.engine_op_ns", op);
    let frac = events * op / run_ns;
    m.insert("attrib.engine_frac", frac);
    attributed += frac;

    let (hop, hops) = probes::hop_ns(spans, n, false);
    m.insert("flux.hop_ns", hop);
    if get(m, "flux.congestion_drops") > 0.0 || workload == Workload::StormCongested1024 {
        m.insert("flux.hop_congested_ns", probes::hop_ns(spans, n, true).0);
    }
    m.insert(
        "flux.world_build_us_per_rank",
        probes::world_build_us_per_rank(spans, n, seed),
    );
    // A message costs one send and one delivery whatever its route
    // length; the rig's per-hop figure times its depth is that cost.
    let frac = get(m, "flux.msgs_delivered") * hop * f64::from(hops) / run_ns;
    m.insert("attrib.delivery_frac", frac);
    attributed += frac;

    if get(m, "state.appends") > 0.0 {
        let ns = probes::state_append_ns(spans);
        m.insert("state.append_ns", ns);
        let frac = get(m, "state.appends") * ns / run_ns;
        m.insert("attrib.statelog_frac", frac);
        attributed += frac;
    }

    // The node agent's sample path and the wire format: every workload
    // loads the monitor. How often they ran is inside the node agents,
    // so only the client's decodes are attributed.
    m.insert("monitor.sample_ns", probes::sample_ns(spans, seed));
    let (enc, dec) = probes::json_ns(spans, seed);
    m.insert("variorum.to_json_ns", enc);
    m.insert("variorum.from_json_ns", dec);
    m.insert(
        "attrib.json_frac",
        get(m, "variorum.json_decodes") * dec / run_ns,
    );

    if get(m, "monitor.poll_deliveries") > 0.0 {
        let ns = probes::fanout_ns_per_delivery(spans);
        m.insert("monitor.fanout_ns_per_delivery", ns);
        let frac = get(m, "monitor.poll_deliveries") * ns / run_ns;
        m.insert("attrib.fanout_frac", frac);
        attributed += frac;
    }

    if get(m, "monitor.queries_served") > 0.0 {
        m.insert(
            "monitor.query_host_us",
            run_s * 1e6 / get(m, "monitor.queries_served"),
        );
    }

    if workload == Workload::QueueFpp128 {
        m.insert("manager.fpp_epoch_ns", probes::fpp_epoch_ns(spans, seed));
        m.insert("fft.estimate_ns", probes::fft_estimate_ns(spans, seed));
        // Computed, not read: the executor ticks every node once per
        // slice for the whole makespan.
        let tick_s = World::new(MachineKind::Lassen, 1, seed)
            .exec_tick
            .as_secs_f64();
        let slices = (get(m, "sim.makespan_s") / tick_s).floor();
        m.insert("hw.ticks", slices * f64::from(n));
    }

    if let Some(&ticks) = m.get("hw.ticks") {
        let (tick, read) = probes::hw_ns(spans, seed);
        m.insert("hw.tick_ns", tick);
        m.insert("hw.read_sensors_ns", read);
        let frac = ticks * tick / run_ns;
        m.insert("attrib.hw_frac", frac);
        attributed += frac;
    }

    m.insert("attrib.unattributed_frac", 1.0 - attributed);
}

/// What the parent adds once it has both children: the traced pass's
/// cost over an untraced rep.
pub fn overhead_frac(traced: &ChildReport, untraced: &ChildReport) -> f64 {
    let best = |r: &ChildReport| r.reps.iter().map(|t| t.wall).fold(f64::INFINITY, f64::min);
    best(traced) / best(untraced) - 1.0
}

/// The per-layer table, every metric by name with its unit.
pub fn table(workload: Workload, seed: u64, m: &Counts) -> String {
    let mut t = Table::new(&["metric", "value", "unit"]);
    for l in &PER_LAYER {
        let v = m.get(l.name).copied().unwrap_or(0.0);
        t.row(vec![l.name.into(), format!("{v:.4}"), l.unit.into()]);
    }
    format!(
        "\n{}  world_seed {} — per-layer metrics (traced pass)\n{}",
        workload.name(),
        workload.world_seed(seed),
        t.render()
    )
}
