//! `stackbench selftest`: two interleaved series of full passes of this
//! same binary, A B A B …. Whatever gap opens between the two series'
//! medians is noise, since the code is the same; the benchmark's bounds
//! only mean something if that gap stays well inside them. What is
//! simulated must not move at all: every pass must reproduce the first
//! pass's fingerprint and counts exactly (and, as in any run at the
//! default seed, the committed fingerprint).

use crate::metrics::END_TO_END;
use crate::run::{self, out_dir, Measured};
use crate::workloads::Workload;
use fluxpm_experiments::report::Table;
use fluxpm_experiments::stats::median;
use std::fmt::Write as _;

/// Runs `2 × sets` passes; passes when every workload × metric gap is
/// within the metric's [`noise_limit`](crate::metrics::EndToEnd::noise_limit)
/// and no check failed. Writes
/// `out/selftest.json`.
pub fn run(sets: usize, seed: u64, seconds: f64) -> bool {
    // [series][workload][metric] -> one value per pass
    let mut series = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    let mut first: Vec<Measured> = Vec::new();
    let mut ok = true;
    for pass in 0..2 * sets {
        let results = run::measure_all(&Workload::ALL, seed, seconds);
        for (w, m) in results.iter().enumerate() {
            let name = m.workload.name();
            let rows = m.rows();
            if rows.is_empty() || m.failed() > 0 {
                ok = false;
                println!("pass {pass}: {name} failed: {:?}", m.problems());
                continue;
            }
            for (k, (_, v, _)) in rows.iter().enumerate() {
                series[pass % 2][w][k].push(*v);
            }
            if let Some(f) = first.get(w) {
                if m.fingerprint() != f.fingerprint() || m.counts() != f.counts() {
                    ok = false;
                    println!("pass {pass}: {name} simulated something else than pass 0 did");
                }
            }
        }
        if pass == 0 {
            first = results;
        }
        println!("pass {} of {} done", pass + 1, 2 * sets);
    }
    let mut table = Table::new(&[
        "workload", "metric", "median A", "median B", "gap", "limit", "bound", "",
    ]);
    let mut json = String::from("[\n");
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (k, e) in END_TO_END.iter().enumerate() {
            let (a, b) = (&series[0][w][k], &series[1][w][k]);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let gap = (ma - mb).abs() / ma.min(mb);
            let pass = gap <= e.noise_limit();
            ok &= pass;
            table.row(vec![
                workload.name().into(),
                e.name.into(),
                format!("{ma:.4}"),
                format!("{mb:.4}"),
                format!("{:.2}%", gap * 100.0),
                format!("{:.1}%", e.noise_limit() * 100.0),
                format!("{:.0}%", e.bound * 100.0),
                if pass { "" } else { "OVER ITS NOISE LIMIT" }.into(),
            ]);
            let _ = writeln!(
                json,
                "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"median_a\": {ma}, \"median_b\": {mb}, \"gap\": {gap}, \"bound\": {}}},",
                workload.name(),
                e.name,
                e.bound
            );
        }
    }
    if json.ends_with(",\n") {
        json.truncate(json.len() - 2);
        json.push('\n');
    }
    json.push_str("]\n");
    print!("\n{}", table.render());
    let path = out_dir().join("selftest.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("stackbench: {}: {e}", path.display());
    }
    println!(
        "{}",
        if ok {
            "selftest passed"
        } else {
            "selftest FAILED"
        }
    );
    ok
}
