//! The end-to-end pass: fresh child processes run the reps, the parent
//! gathers their samples into the end-to-end metrics.
//!
//! Why children: the first rep in a process is 1.5–2.7× slower than the
//! rest (cold allocator, page faults, lazy statics), so each child runs
//! one untimed warm-up rep, and its start-to-first-timed-rep time *is*
//! `setup_s`. Why every time is divided by a yardstick lap: see
//! [`crate::yardstick`].

use crate::measure::{self, Host};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::spans::Spans;
pub use crate::workloads::DEFAULT_SEED;
use crate::workloads::{run_rep, Counts, Rep, Scale, Workload};
use crate::yardstick::{Yardstick, REFERENCE_LAP_S};
use fluxpm_experiments::report::Table;
use fluxpm_experiments::stats::{median, BoxSummary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fresh processes per workload per pass.
pub const CHILDREN: u32 = 2;
/// Timed reps a child runs even when its time share is already spent,
/// so a workload never rests on fewer than `CHILDREN` × 4 = 8 of them.
const MIN_TIMED_REPS: usize = 4;
/// Measuring seconds per workload when none is given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 12;

/// Where outputs go: `benchmark/out/`, beside the sources this binary
/// was built from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// One timed rep: its own seconds, and the mean of the yardstick laps
/// run right before and right after it (0 where no lap was run).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Timed {
    pub wall: f64,
    pub cpu: f64,
    pub lap_wall: f64,
    pub lap_cpu: f64,
}

/// What one child process measured.
#[derive(Debug, Default, Clone)]
pub struct ChildReport {
    pub setup_s: f64,
    pub warmup_s: f64,
    pub reps: Vec<Timed>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub problems: Vec<String>,
    pub counts: Counts,
}

/// The body of `stackbench child`: warm up, then time reps for
/// `seconds`, checking each against the warm-up's fingerprint. Prints
/// the report as `key value` lines for the parent.
pub fn child_main(workload: Workload, seed: u64, seconds: f64, started: Instant) -> ChildReport {
    measure::pin_to_current_cpu();
    let mut spans = Spans::off();
    let (warm, warmup_s, _) = measure::timed(|| run_rep(workload, seed, Scale::Full, &mut spans));
    let mut r = ChildReport {
        warmup_s,
        fingerprint: warm.fingerprint,
        attempted: warm.attempted,
        failed: warm.failed,
        problems: warm.problems,
        counts: warm.counts,
        ..ChildReport::default()
    };
    // Read before any timed rep: the footprint of one run in a fresh
    // process. Later reps only push the high-water mark up through heap
    // fragmentation, by an amount that depends on how many there were.
    r.peak_rss_mb = measure::peak_rss_mb();
    r.setup_s = started.elapsed().as_secs_f64();
    let mut yard = Yardstick::new();
    let mut lap = yard.lap();
    let timed_from = Instant::now();
    loop {
        let (rep, wall, cpu) = measure::timed(|| run_rep(workload, seed, Scale::Full, &mut spans));
        let before = std::mem::replace(&mut lap, yard.lap());
        r.reps.push(Timed {
            wall,
            cpu,
            lap_wall: (before.0 + lap.0) / 2.0,
            lap_cpu: (before.1 + lap.1) / 2.0,
        });
        r.fold(&rep, "timed rep");
        // Stop before a rep that would run past the share, judged by
        // the one just timed.
        let spent = timed_from.elapsed().as_secs_f64();
        if r.reps.len() >= MIN_TIMED_REPS && spent + wall > seconds {
            break;
        }
    }
    r
}

impl ChildReport {
    /// One more operation; `ok == false` fails it with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Count a rep's operations in, and hold the rep to the warm-up's
    /// fingerprint.
    pub fn fold(&mut self, rep: &Rep, what: &str) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.problems.extend(rep.problems.iter().cloned());
        let reference = self.fingerprint;
        self.check(rep.fingerprint == reference, || {
            format!(
                "{what} fingerprint {:016x} differs from the warm-up's {reference:016x}",
                rep.fingerprint
            )
        });
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        let _ = writeln!(out, "warmup_s {}", self.warmup_s);
        for t in &self.reps {
            let _ = writeln!(out, "rep {} {} {} {}", t.wall, t.cpu, t.lap_wall, t.lap_cpu);
        }
        let _ = writeln!(out, "peak_rss_mb {}", self.peak_rss_mb);
        let _ = writeln!(out, "ops {} {}", self.attempted, self.failed);
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        for p in &self.problems {
            let _ = writeln!(out, "problem {}", p.replace('\n', " "));
        }
        for (k, v) in &self.counts {
            let _ = writeln!(out, "count {k} {v}");
        }
        out
    }

    fn from_lines(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "setup_s" => r.setup_s = num(rest)?,
                "warmup_s" => r.warmup_s = num(rest)?,
                "peak_rss_mb" => r.peak_rss_mb = num(rest)?,
                "rep" => {
                    let v: Vec<f64> = rest.split(' ').map(num).collect::<Result<_, _>>()?;
                    let &[wall, cpu, lap_wall, lap_cpu] = v.as_slice() else {
                        return Err(format!("rep needs four numbers: {rest:?}"));
                    };
                    r.reps.push(Timed {
                        wall,
                        cpu,
                        lap_wall,
                        lap_cpu,
                    });
                }
                "ops" => {
                    let (a, f) = rest.split_once(' ').ok_or("ops needs two counts")?;
                    r.attempted = a.parse().map_err(|e| format!("{a:?}: {e}"))?;
                    r.failed = f.parse().map_err(|e| format!("{f:?}: {e}"))?;
                }
                "fingerprint" => {
                    r.fingerprint =
                        u64::from_str_radix(rest, 16).map_err(|e| format!("{rest:?}: {e}"))?
                }
                "problem" => r.problems.push(rest.to_string()),
                "count" => {
                    let (k, v) = rest.split_once(' ').ok_or("count needs name and value")?;
                    // `Counts` keys are the static metric names; a
                    // count that is not a metric stays in the child.
                    if let Some(l) = PER_LAYER.iter().find(|l| l.name == k) {
                        r.counts.insert(l.name, num(v)?);
                    }
                }
                _ => {}
            }
        }
        if r.reps.is_empty() {
            return Err("child reported no timed rep".into());
        }
        Ok(r)
    }
}

/// The command line of one child.
pub fn child_args(cmd: &str, workload: Workload, seed: u64, seconds: f64) -> [String; 7] {
    [
        cmd.to_string(),
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ]
}

/// Run one child of this program (or its traced sibling) and parse its
/// report. The child inherits stderr, so a panic message is not lost.
pub fn spawn(traced: bool, args: &[String]) -> Result<ChildReport, String> {
    let mut exe = std::env::current_exe().map_err(|e| e.to_string())?;
    if traced {
        exe.set_file_name("stackbench-traced");
    }
    let out = Command::new(&exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {}: {}",
            exe.display(),
            args.join(" "),
            out.status
        ));
    }
    ChildReport::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// One workload's samples across its children.
#[derive(Debug, Clone)]
pub struct Measured {
    pub workload: Workload,
    pub children: Vec<ChildReport>,
    /// A child that crashed, or children that disagree.
    pub errors: Vec<String>,
}

impl Measured {
    fn reps(&self) -> impl Iterator<Item = Timed> + '_ {
        self.children.iter().flat_map(|c| c.reps.iter().copied())
    }

    pub fn attempted(&self) -> u64 {
        // Each child, the cross-child agreement and the committed
        // fingerprint are operations too.
        self.children.iter().map(|c| c.attempted).sum::<u64>() + u64::from(CHILDREN) + 2
    }

    pub fn failed(&self) -> u64 {
        self.children.iter().map(|c| c.failed).sum::<u64>() + self.errors.len() as u64
    }

    pub fn fingerprint(&self) -> u64 {
        self.children.first().map_or(0, |c| c.fingerprint)
    }

    /// The first child's counters: what its warm-up rep read that has the
    /// unit `count`. Like the fingerprint, they repeat exactly.
    pub fn counts(&self) -> Counts {
        let is_count = |name: &str| {
            PER_LAYER
                .iter()
                .any(|l| l.name == name && l.unit == "count")
        };
        self.children
            .first()
            .map(|c| c.counts.iter().filter(|(k, _)| is_count(k)))
            .into_iter()
            .flatten()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    pub fn problems(&self) -> Vec<String> {
        let mut all = self.errors.clone();
        all.extend(
            self.children
                .iter()
                .flat_map(|c| c.problems.iter().cloned()),
        );
        all
    }

    /// Each end-to-end metric with its value and the samples behind it,
    /// in `END_TO_END` order. `wall_s` and `cpu_s` are the lower quartile
    /// over all timed reps of `rep ÷ laps around it × REFERENCE_LAP_S`:
    /// interference only adds time, to a rep and to its laps alike, so the
    /// median ratio leans towards reps that were hit and the smallest
    /// towards laps that were, and on the series measured here (README,
    /// "Measured noise") the lower quartile is the steadiest of the three.
    /// `setup_s` is the fastest child's set-up and `peak_rss_mb` the
    /// largest child's peak, both as read. Empty when no child reported.
    pub fn rows(&self) -> Vec<(&'static EndToEnd, f64, Vec<f64>)> {
        if self.reps().next().is_none() {
            return Vec::new();
        }
        let samples: [Vec<f64>; 4] = [
            self.reps()
                .map(|t| t.wall / t.lap_wall * REFERENCE_LAP_S)
                .collect(),
            self.reps()
                .map(|t| t.cpu / t.lap_cpu * REFERENCE_LAP_S)
                .collect(),
            self.children.iter().map(|c| c.setup_s).collect(),
            self.children.iter().map(|c| c.peak_rss_mb).collect(),
        ];
        let summary = samples.each_ref().map(|s| BoxSummary::of(s));
        let values = [summary[0].q1, summary[1].q1, summary[2].min, summary[3].max];
        END_TO_END
            .iter()
            .zip(values)
            .zip(samples)
            .map(|((e, v), s)| (e, v, s))
            .collect()
    }

    /// The stopwatch readings behind `wall_s` and `cpu_s`, for a human:
    /// the fastest rep as timed and the median yardstick lap.
    fn raw(&self) -> String {
        let Some(t) = self.reps().min_by(|a, b| a.wall.total_cmp(&b.wall)) else {
            return "nothing timed".to_string();
        };
        let laps: Vec<f64> = self.reps().map(|t| t.lap_wall).collect();
        format!(
            "as timed: fastest rep {:.4} s wall, {:.4} s cpu; median yardstick lap {:.4} s (reference {REFERENCE_LAP_S} s)",
            t.wall,
            t.cpu,
            median(&laps)
        )
    }
}

/// Measure `workloads`: `CHILDREN` rounds, each running one child per
/// workload in turn, so a workload's children sample separated stretches
/// of time. Each workload measures for `seconds` in total.
pub fn measure_all(workloads: &[Workload], seed: u64, seconds: f64) -> Vec<Measured> {
    let mut all: Vec<Measured> = workloads
        .iter()
        .map(|&workload| Measured {
            workload,
            children: Vec::new(),
            errors: Vec::new(),
        })
        .collect();
    let share = seconds / f64::from(CHILDREN);
    for _ in 0..CHILDREN {
        for m in &mut all {
            match spawn(false, &child_args("child", m.workload, seed, share)) {
                Ok(report) => m.children.push(report),
                Err(e) => m.errors.push(format!("child failed: {e}")),
            }
        }
    }
    for m in &mut all {
        let first = m.fingerprint();
        if m.children.iter().any(|c| c.fingerprint != first) {
            m.errors
                .push("children disagree on the fingerprint".to_string());
        }
        // The default seed is held to the committed value: a change that
        // is only faster simulates what its parent did.
        let committed = m.workload.committed_fingerprint();
        if seed == DEFAULT_SEED && !m.children.is_empty() && first != committed {
            m.errors.push(format!(
                "sim_fingerprint {first:016x} is not the committed {committed:016x}"
            ));
        }
    }
    all
}

/// The header every output carries.
pub struct Header {
    pub host: Host,
    pub seed: u64,
    pub seconds: f64,
    pub steal_frac: f64,
    /// How the samples were taken, in words.
    pub pass: String,
}

impl Header {
    pub fn to_text(&self) -> String {
        let h = &self.host;
        format!(
            "stackbench  commit {}  {}\nhost        {} x {}  load {}  steal {:.4}\nrun         seed {}  {}\n",
            h.commit, h.rustc, h.nproc, h.cpu_model, h.loadavg, self.steal_frac, self.seed, self.pass,
        )
    }

    fn to_json(&self) -> String {
        let h = &self.host;
        format!(
            "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"loadavg\": \"{}\", \"steal_frac\": {}, \"seed\": {}, \"seconds\": {}, \"pass\": \"{}\"}}",
            h.commit, h.rustc, h.nproc, h.cpu_model, h.loadavg, self.steal_frac, self.seed, self.seconds, self.pass
        )
    }
}

fn summary_json(samples: &[f64]) -> String {
    let b = BoxSummary::of(samples);
    format!(
        "{{\"n\": {}, \"min\": {}, \"median\": {}, \"iqr\": {}, \"max\": {}}}",
        samples.len(),
        b.min,
        b.median,
        b.q3 - b.q1,
        b.max
    )
}

/// The stdout table: per workload, each end-to-end metric with its
/// value and the order statistics of the samples behind it.
pub fn table(results: &[Measured], seed: u64) -> String {
    let mut out = String::new();
    for m in results {
        let _ = writeln!(
            out,
            "\n{}  world_seed {}  sim_fingerprint {:016x}  ops_attempted {}  ops_failed {}",
            m.workload.name(),
            m.workload.world_seed(seed),
            m.fingerprint(),
            m.attempted(),
            m.failed()
        );
        let mut t = Table::new(&[
            "metric", "value", "unit", "bound", "min", "median", "iqr", "max", "n",
        ]);
        for (e, v, samples) in m.rows() {
            let b = BoxSummary::of(&samples);
            let f = |x: f64| format!("{x:.4}");
            t.row(vec![
                e.name.into(),
                f(v),
                e.unit.into(),
                format!("{:.2}", e.bound),
                f(b.min),
                f(b.median),
                f(b.q3 - b.q1),
                f(b.max),
                samples.len().to_string(),
            ]);
        }
        out.push_str(&t.render());
        let _ = writeln!(out, "{}", m.raw());
        for p in m.problems().iter().take(8) {
            let _ = writeln!(out, "FAILED: {p}");
        }
    }
    out
}

/// `benchmark/out/result.json`: header, then per workload the metric
/// values, their order statistics, operations and fingerprint.
pub fn result_json(header: &Header, results: &[Measured]) -> String {
    let mut out = format!("{{\"header\": {},\n \"workloads\": [\n", header.to_json());
    for (i, m) in results.iter().enumerate() {
        let metrics: Vec<String> = m
            .rows()
            .iter()
            .map(|(e, v, samples)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"samples\": {}}}",
                    e.name,
                    e.unit,
                    summary_json(samples)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"world_seed\": {}, \"sim_fingerprint\": \"{:016x}\", \"ops_attempted\": {}, \"ops_failed\": {}, \"metrics\": {{{}}}}}{}",
            m.workload.name(),
            m.workload.world_seed(header.seed),
            m.fingerprint(),
            m.attempted(),
            m.failed(),
            metrics.join(", "),
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    out.push_str(" ]}\n");
    out
}

/// The contract's last line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a ratio over an empty base is 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips_through_its_lines() {
        let mut r = ChildReport {
            setup_s: 1.25,
            warmup_s: 1.0,
            reps: vec![
                Timed {
                    wall: 0.5,
                    cpu: 0.49,
                    lap_wall: 0.3,
                    lap_cpu: 0.29,
                },
                Timed {
                    wall: 0.625,
                    cpu: 0.6,
                    lap_wall: 0.31,
                    lap_cpu: 0.3,
                },
            ],
            peak_rss_mb: 100.5,
            attempted: 12,
            failed: 1,
            fingerprint: 0xdead_beef,
            problems: vec!["rep 2 went wrong".into()],
            ..ChildReport::default()
        };
        r.counts.insert("sim.events", 42.0);
        let back = ChildReport::from_lines(&r.to_lines()).expect("parses");
        assert_eq!(back.reps, r.reps);
        assert_eq!(
            (back.attempted, back.failed, back.fingerprint),
            (12, 1, 0xdead_beef)
        );
        assert_eq!(back.problems, r.problems);
        assert_eq!(back.counts["sim.events"], 42.0);
        assert!(ChildReport::from_lines("setup_s 1\n").is_err(), "no rep");
    }

    #[test]
    fn times_are_lower_quartiles_of_lap_normalised_reps() {
        // A rep twice as slow next to laps twice as slow reads the same.
        let rep = |wall: f64, lap: f64| Timed {
            wall,
            cpu: wall * 0.9,
            lap_wall: lap,
            lap_cpu: lap,
        };
        let child = |setup, rss, reps: &[Timed]| ChildReport {
            setup_s: setup,
            peak_rss_mb: rss,
            reps: reps.to_vec(),
            ..ChildReport::default()
        };
        let lap = REFERENCE_LAP_S;
        let m = Measured {
            workload: Workload::QueueFpp128,
            children: vec![
                child(
                    2.0,
                    90.0,
                    &[rep(1.0, lap), rep(2.0, 2.0 * lap), rep(1.4, lap)],
                ),
                child(3.0, 95.0, &[rep(1.2, lap), rep(3.0, 2.0 * lap)]),
            ],
            errors: vec![],
        };
        // Normalised walls: 1.0 1.0 1.4 1.2 1.5, whose lower quartile is 1.0.
        let values: Vec<f64> = m.rows().iter().map(|r| r.1).collect();
        let expected = [1.0, 0.9, 2.0, 95.0];
        for (v, e) in values.iter().zip(expected) {
            assert!((v - e).abs() < 1e-9, "{values:?}");
        }
        let line = contract_line(true, 3, 0, &[("wall_s", 0.8, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.8, \"unit\": \"s\"}}}"
        );
    }
}
