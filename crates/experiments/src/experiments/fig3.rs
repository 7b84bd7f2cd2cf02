//! Fig. 3 — overhead of `flux-power-monitor`.
//!
//! Three applications scaled across node counts on both machines, six
//! repetitions each, with and without the monitor loaded. The paper
//! measures 1.2 % average on Lassen (dominated by run-to-run variability
//! at 1–2 nodes) and 0.04 % on Tioga; the steady-state cost is the
//! in-band sensor read (OCC ≈ 6 ms vs MSR ≈ 0.8 ms per 2 s sample).

use crate::report::Table;
use crate::scenario::{run_many, JobRequest, Scenario};
use crate::write_artifact;
use fluxpm_hw::MachineKind;
use fluxpm_monitor::MonitorConfig;
use fluxpm_workloads::JitterModel;
use std::fmt::Write as _;

const APPS: [&str; 3] = ["LAMMPS", "Quicksilver", "Laghos"];
const REPS: u64 = 6;

fn counts(machine: MachineKind) -> &'static [u32] {
    match machine {
        MachineKind::Lassen => &[1, 2, 4, 8, 16, 32],
        MachineKind::Tioga => &[1, 2, 4, 8],
    }
}

/// Mean runtime over `REPS` repetitions of one configuration.
fn mean_runtime(machine: MachineKind, app: &str, n: u32, monitor: bool, seed_base: u64) -> f64 {
    let scenarios: Vec<Scenario> = (0..REPS)
        .map(|rep| {
            let mut s = Scenario::new(machine, n)
                .with_seed(seed_base ^ (rep * 7919 + if monitor { 104729 } else { 0 }))
                .with_jitter(JitterModel::default())
                .with_job(JobRequest::new(app, n));
            if monitor {
                s = s.with_monitor(MonitorConfig::default());
            }
            s
        })
        .collect();
    let reports = run_many(scenarios);
    reports.iter().map(|r| r.jobs[0].runtime_s).sum::<f64>() / REPS as f64
}

/// Overhead matrix for one machine: `(app, n, overhead_percent)`.
pub fn overhead_matrix(machine: MachineKind) -> Vec<(&'static str, u32, f64)> {
    let mut rows = Vec::new();
    for app in APPS {
        for &n in counts(machine) {
            let seed = 31 * n as u64 + app.len() as u64 * 1013;
            let base = mean_runtime(machine, app, n, false, seed);
            let with = mean_runtime(machine, app, n, true, seed);
            rows.push((app, n, (with - base) / base * 100.0));
        }
    }
    rows
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Fig. 3 — flux-power-monitor overhead (6 reps each)\n\n");
    let mut csv = String::from("machine,app,nnodes,overhead_pct\n");

    for machine in [MachineKind::Lassen, MachineKind::Tioga] {
        let rows = overhead_matrix(machine);
        let mut table = Table::new(&["app", "nodes", "overhead %"]);
        let mut sum = 0.0;
        for &(app, n, pct) in &rows {
            table.row(vec![app.into(), n.to_string(), format!("{pct:+.2}")]);
            let _ = writeln!(csv, "{},{},{},{:.3}", machine.name(), app, n, pct);
            sum += pct;
        }
        let avg = sum / rows.len() as f64;
        let _ = writeln!(out, "## {}\n", machine.name());
        out.push_str(&table.render());
        let paper = match machine {
            MachineKind::Lassen => 1.2,
            MachineKind::Tioga => 0.04,
        };
        let _ = writeln!(out, "\naverage overhead: {avg:+.2} % (paper: {paper} %)\n");
    }
    let path = write_artifact("fig3_overhead.csv", &csv)?;
    let _ = writeln!(out, "CSV: {}", path.display());
    out.push_str(
        "\npaper shape: low node counts on Lassen show inflated apparent overhead\n\
         for Laghos/Quicksilver, driven by run-to-run variability rather than\n\
         the monitor (see Fig. 4); steady-state cost is the OCC read.\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_overhead_is_small_and_machine_ordered() {
        // Jitter-free, long app: the pure sensor-read overhead. Lassen
        // OCC: 6 ms / 2 s = 0.3 %; Tioga MSR: 0.8 ms / 2 s = 0.04 %.
        let measure = |machine| {
            let base = Scenario::new(machine, 2)
                .with_job(JobRequest::new("Laghos", 2).with_work_scale(10.0))
                .run()
                .jobs[0]
                .runtime_s;
            let with = Scenario::new(machine, 2)
                .with_monitor(MonitorConfig::default())
                .with_job(JobRequest::new("Laghos", 2).with_work_scale(10.0))
                .run()
                .jobs[0]
                .runtime_s;
            (with - base) / base * 100.0
        };
        let lassen = measure(MachineKind::Lassen);
        let tioga = measure(MachineKind::Tioga);
        assert!(
            (0.1..0.6).contains(&lassen),
            "Lassen steady-state {lassen}%"
        );
        assert!((0.0..0.12).contains(&tioga), "Tioga steady-state {tioga}%");
        assert!(lassen > tioga);
    }
}
