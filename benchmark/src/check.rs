//! `stackbench check`: every workload at one eighth of its size, one
//! untraced and one traced rep each, every per-rep check on, no timing.
//! A public-API call the stack no longer honours fails here in seconds,
//! before anything is measured. Also the crate's `cargo test`.

use crate::spans::Spans;
use crate::workloads::{run_rep, Scale, Workload, DEFAULT_SEED as SEED};
use std::fmt::Write as _;

/// `(all checks passed, report)`.
pub fn run() -> (bool, String) {
    let mut out = String::new();
    let mut ok = true;
    for w in Workload::ALL {
        let first = run_rep(w, SEED, Scale::Check, &mut Spans::off());
        let traced = run_rep(w, SEED, Scale::Check, &mut Spans::on());
        let mut problems: Vec<String> = [&first, &traced]
            .iter()
            .flat_map(|r| r.problems.iter().cloned())
            .collect();
        if traced.fingerprint != first.fingerprint {
            problems.push("a second, traced rep did not reproduce the first's fingerprint".into());
        }
        let attempted = first.attempted + traced.attempted + 1;
        let _ = writeln!(
            out,
            "{:<22} world_seed {}  sim_fingerprint {:016x}  ops_attempted {attempted}  ops_failed {}",
            w.name(),
            w.world_seed(SEED),
            first.fingerprint,
            problems.len()
        );
        if let Some(peak) = first.counts.get("manager.cluster_peak_frac") {
            let _ = writeln!(
                out,
                "  cluster peak {peak:.4} x the bound at this size (held to <= 1 at full size only)"
            );
        }
        for p in &problems {
            let _ = writeln!(out, "  FAILED: {p}");
        }
        ok &= problems.is_empty();
    }
    (ok, out)
}
