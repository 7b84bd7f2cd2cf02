//! Fig. 4 — run-to-run variability of Laghos and Quicksilver at low node
//! counts on Lassen.
//!
//! Six repetitions per configuration, with and without the monitor. The
//! paper observes >20 % spread *even without the monitor loaded*,
//! attributing the apparent Fig. 3 overhead at 1–2 nodes to OS jitter
//! and congestion, not to telemetry.

use crate::report::Table;
use crate::scenario::{run_many, JobRequest, Scenario};
use crate::write_artifact;
use fluxpm_hw::MachineKind;
use fluxpm_monitor::MonitorConfig;
use fluxpm_workloads::JitterModel;
use std::fmt::Write as _;

const REPS: u64 = 6;

/// Raw runtimes for one configuration.
fn runtimes(app: &str, n: u32, monitor: bool, seed_base: u64) -> Vec<f64> {
    let scenarios: Vec<Scenario> = (0..REPS)
        .map(|rep| {
            let mut s = Scenario::new(MachineKind::Lassen, n)
                .with_seed(seed_base ^ (rep * 6151 + if monitor { 32749 } else { 0 }))
                .with_jitter(JitterModel::default())
                .with_job(JobRequest::new(app, n));
            if monitor {
                s = s.with_monitor(MonitorConfig::default());
            }
            s
        })
        .collect();
    run_many(scenarios)
        .iter()
        .map(|r| r.jobs[0].runtime_s)
        .collect()
}

/// Box-plot style summary: (min, median, max).
fn summarize(xs: &[f64]) -> (f64, f64, f64) {
    let b = crate::stats::BoxSummary::of(xs);
    (b.min, b.median, b.max)
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Fig. 4 — run-to-run variability (Lassen, 6 reps)\n\n");
    let mut csv = String::from("app,nnodes,monitor,rep,runtime_s\n");
    let mut table = Table::new(&[
        "app", "nodes", "monitor", "min", "median", "max", "spread %",
    ]);

    for app in ["Laghos", "Quicksilver"] {
        for n in [1u32, 2] {
            for monitor in [false, true] {
                let rts = runtimes(app, n, monitor, 7 * n as u64 + app.len() as u64);
                for (rep, rt) in rts.iter().enumerate() {
                    let _ = writeln!(csv, "{app},{n},{monitor},{rep},{rt:.3}");
                }
                let (min, med, max) = summarize(&rts);
                let spread = (max - min) / min * 100.0;
                table.row(vec![
                    app.into(),
                    n.to_string(),
                    if monitor { "loaded" } else { "unloaded" }.into(),
                    format!("{min:.2}"),
                    format!("{med:.2}"),
                    format!("{max:.2}"),
                    format!("{spread:.1}"),
                ]);
            }
        }
    }
    out.push_str(&table.render());
    let path = write_artifact("fig4_variability.csv", &csv)?;
    let _ = writeln!(
        out,
        "\npaper shape: spreads exceed 20 % at these node counts even with the\nmonitor unloaded — variability, not telemetry cost.\nCSV: {}",
        path.display()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variability_present_without_monitor() {
        let rts = runtimes("Laghos", 2, false, 99);
        let (min, _, max) = summarize(&rts);
        assert!(
            (max - min) / min > 0.08,
            "susceptible config should spread: {min}..{max}"
        );
    }

    #[test]
    fn larger_runs_are_stable() {
        let scenarios: Vec<Scenario> = (0..4u64)
            .map(|rep| {
                Scenario::new(MachineKind::Lassen, 8)
                    .with_seed(rep)
                    .with_jitter(JitterModel::default())
                    .with_job(JobRequest::new("Laghos", 8))
            })
            .collect();
        let rts: Vec<f64> = run_many(scenarios)
            .iter()
            .map(|r| r.jobs[0].runtime_s)
            .collect();
        let (min, _, max) = summarize(&rts);
        assert!((max - min) / min < 0.03, "8-node runs stable: {min}..{max}");
    }
}
