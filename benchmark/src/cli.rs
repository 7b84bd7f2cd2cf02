//! Command line. One entry point serves the pipeline and people:
//!
//! ```text
//! stackbench [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//! stackbench selftest [--sets N] [--seed S] [--seconds T]
//! stackbench check
//! ```
//!
//! The first form measures one workload (or all five, round-robin, when
//! none is named): end-to-end with `--trace 0`, the per-layer pass with
//! `--trace 1`. After the tables it prints one result line per workload —
//! a JSON object with `correct`, `attempted`, `failed` and `metrics` — so
//! the last line of a one-workload run is what the pipeline reads.
//! `child` and `trace-child` are what the passes run in fresh processes.

use crate::check;
use crate::measure::{self, Host};
use crate::metrics::PER_LAYER;
use crate::run::{self, Header, DEFAULT_SECONDS, DEFAULT_SEED};
use crate::selftest;
use crate::trace;
use crate::workloads::{Counts, Workload};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(DEFAULT_SECONDS),
        trace: false,
        sets: 3,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                a.workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("a number")?;
                a.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                a.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            "--sets" => {
                let v = value("a number")?;
                a.sets = v.parse().map_err(|e| format!("--sets {v}: {e}"))?;
                if a.sets == 0 || a.sets > 20 {
                    return Err(format!("--sets {v}: must be in 1..=20"));
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag}")),
            word if a.command.is_none() => a.command = Some(word.to_string()),
            word => return Err(format!("unexpected argument {word}")),
        }
    }
    Ok(a)
}

/// The whole program. `started` is taken at the top of `main`, so a
/// child's set-up time includes everything after process start-up.
pub fn main(started: Instant) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` is a run that finished but failed a check.
fn dispatch(argv: &[String], started: Instant) -> Result<bool, String> {
    let a = parse(argv)?;
    match a.command.as_deref() {
        None => {
            let list = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            Ok(if a.trace {
                traced(&list, &a)
            } else {
                end_to_end(&list, &a)
            })
        }
        Some("selftest") => Ok(selftest::run(a.sets, a.seed, a.seconds)),
        Some("check") => {
            let (ok, text) = check::run();
            print!("{text}");
            Ok(ok)
        }
        Some(cmd @ ("child" | "trace-child")) => {
            let w = a.workload.ok_or("child needs --workload")?;
            let report = if cmd == "child" {
                run::child_main(w, a.seed, a.seconds, started)
            } else {
                trace::child_main(w, a.seed, a.seconds, started)
            };
            print!("{}", report.to_lines());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn header(a: &Args, steal0: (u64, u64), pass: String) -> Header {
    Header {
        pass,
        host: Host::read(),
        seed: a.seed,
        seconds: a.seconds,
        steal_frac: measure::steal_frac(steal0, measure::cpu_jiffies()),
    }
}

/// The end-to-end pass over `list`.
fn end_to_end(list: &[Workload], a: &Args) -> bool {
    let steal0 = measure::cpu_jiffies();
    let results = run::measure_all(list, a.seed, a.seconds);
    let pass = format!(
        "{} children x {} s per workload, timed reps after 1 warm-up rep each",
        run::CHILDREN,
        a.seconds / f64::from(run::CHILDREN)
    );
    let head = header(a, steal0, pass);
    print!("{}{}", head.to_text(), run::table(&results, a.seed));
    let path = run::out_dir().join("result.json");
    if let Err(e) = std::fs::write(&path, run::result_json(&head, &results)) {
        eprintln!("stackbench: {}: {e}", path.display());
    }
    let mut ok = true;
    for m in &results {
        let correct = m.failed() == 0 && !m.rows().is_empty();
        ok &= correct;
        let metrics: Vec<(&str, f64, &str)> = m
            .rows()
            .iter()
            .map(|(e, v, _)| (e.name, *v, e.unit))
            .collect();
        println!(
            "{}",
            run::contract_line(correct, m.attempted(), m.failed(), &metrics)
        );
    }
    ok
}

/// The traced pass over `list`: per workload one short untraced child
/// (the reference the tracing overhead is measured against) and one
/// traced child.
fn traced(list: &[Workload], a: &Args) -> bool {
    let steal0 = measure::cpu_jiffies();
    let mut ok = true;
    let mut lines = Vec::new();
    let mut tables = String::new();
    for &w in list {
        let args = |cmd: &str, seconds: f64| run::child_args(cmd, w, a.seed, seconds);
        let untraced = run::spawn(false, &args("child", a.seconds / 4.0));
        let traced = run::spawn(true, &args("trace-child", a.seconds / 2.0));
        let (mut attempted, mut failed) = (2u64, 0u64);
        let mut m = Counts::new();
        let mut problems = Vec::new();
        match (untraced, traced) {
            (Ok(u), Ok(t)) => {
                attempted += u.attempted + t.attempted + 1;
                failed += u.failed + t.failed;
                problems.extend(u.problems.iter().chain(&t.problems).take(8).cloned());
                if u.fingerprint != t.fingerprint {
                    failed += 1;
                    problems
                        .push("traced and untraced children disagree on the fingerprint".into());
                }
                m = t.counts.clone();
                m.insert("harness.trace_overhead_frac", trace::overhead_frac(&t, &u));
            }
            (u, t) => {
                problems.extend([u.err(), t.err()].into_iter().flatten());
                failed += problems.len() as u64;
            }
        }
        tables.push_str(&trace::table(w, a.seed, &m));
        for p in &problems {
            tables.push_str(&format!("  FAILED: {p}\n"));
        }
        ok &= failed == 0;
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|l| (l.name, m.get(l.name).copied().unwrap_or(0.0), l.unit))
            .collect();
        lines.push(run::contract_line(failed == 0, attempted, failed, &metrics));
    }
    let pass = format!(
        "traced pass: 1 untraced child ({} s) + 1 traced child (<= 3 reps in {} s, extras, probes) per workload",
        a.seconds / 4.0,
        a.seconds / 2.0
    );
    print!("{}{tables}", header(a, steal0, pass).to_text());
    println!(
        "\nspans: {}/trace-<workload>.json",
        run::out_dir().display()
    );
    for line in lines {
        println!("{line}");
    }
    ok
}
