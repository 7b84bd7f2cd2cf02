//! §IV-E — impact on a real job queue.
//!
//! Ten jobs (3 Laghos, 2 Quicksilver, 3 LAMMPS, 2 GEMM) requesting 1–8
//! nodes each, scheduled FCFS on a 16-node Lassen allocation under
//! proportional sharing and under FPP. The paper reports an identical
//! makespan of 1539 s for both policies and a 1.26 % improvement in
//! average per-job energy-per-node with FPP.

use crate::report::{RunReport, Table};
use crate::scenario::{describe_jobs, run_many, JobRequest, PowerSetup, Scenario};
use crate::write_artifact;
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use std::fmt::Write as _;

/// The queue: a compute-heavy random mix (seeded), sized so the FCFS
/// makespan lands near the paper's 1539 s.
pub fn queue_jobs() -> Vec<JobRequest> {
    vec![
        JobRequest::new("LAMMPS", 8).with_work_seconds(305.0),
        JobRequest::new("Laghos", 4).with_work_seconds(350.0),
        JobRequest::new("GEMM", 6).with_work_seconds(490.0),
        JobRequest::new("Quicksilver", 2).with_work_seconds(410.0),
        JobRequest::new("LAMMPS", 5).with_work_seconds(330.0),
        JobRequest::new("Laghos", 1).with_work_seconds(280.0),
        JobRequest::new("GEMM", 8).with_work_seconds(455.0),
        JobRequest::new("Quicksilver", 3).with_work_seconds(365.0),
        JobRequest::new("LAMMPS", 4).with_work_seconds(295.0),
        JobRequest::new("Laghos", 7).with_work_seconds(385.0),
    ]
}

/// The 16-node cluster bound: the same 1200 W/node density as Table IV.
const GLOBAL_BOUND_W: f64 = 16.0 * 1200.0;

fn scenario(config: ManagerConfig, label: &str) -> Scenario {
    let mut s = Scenario::new(MachineKind::Lassen, 16)
        .with_label(label.to_string())
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config,
        });
    for j in queue_jobs() {
        s = s.with_job(j);
    }
    s
}

/// Average per-job energy-per-node (the paper's §IV-E metric).
pub fn avg_job_energy_per_node(r: &RunReport) -> f64 {
    r.jobs.iter().map(|j| j.energy_per_node_kj).sum::<f64>() / r.jobs.len() as f64
}

/// The give-back ablation pair: the §IV-E queue under FPP with instant
/// restore (the paper's observed behavior) and with `staged_give_back`
/// (one `powercap_levels` step per epoch). Instant first.
pub fn give_back_reports() -> Vec<RunReport> {
    let mut staged = ManagerConfig::fpp(Watts(GLOBAL_BOUND_W));
    staged.fpp.staged_give_back = true;
    run_many(vec![
        scenario(ManagerConfig::fpp(Watts(GLOBAL_BOUND_W)), "fpp-instant"),
        scenario(staged, "fpp-staged"),
    ])
}

/// Controller epochs needed to hand back a full 50 W probe once the
/// binding fallback fires (level 1 → 15 W steps when staged). Instant
/// restore takes a single epoch; staged climbs 203.5 → 218.5 → 233.5 →
/// 248.5 → 253.5 W, i.e. four 90 s epochs of time-to-restore.
pub fn epochs_to_restore(staged: bool) -> u32 {
    use fluxpm_fft::PeriodAnalyzer;
    use fluxpm_manager::{FppConfig, FppController};
    let cfg = FppConfig {
        staged_give_back: staged,
        ..FppConfig::default()
    };
    let pre_probe = 253.5;
    let mut c = FppController::new(cfg, Watts(pre_probe));
    let mut analyzer = PeriodAnalyzer::new();
    // One quiet epoch at the full cap, then the probe drops 50 W.
    for _ in 0..90 {
        c.store_power_sample(Watts(pre_probe));
    }
    c.on_epoch(&mut analyzer);
    // Flat draw pinned at the reduced cap keeps the binding fallback
    // firing until the cap is fully restored.
    let mut epochs = 0;
    while c.cap().get() < pre_probe - 1e-9 && epochs < 20 {
        let draw = c.cap().get();
        for _ in 0..90 {
            c.store_power_sample(Watts(draw));
        }
        c.on_epoch(&mut analyzer);
        epochs += 1;
    }
    epochs
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# §IV-E — job queue impact (16-node Lassen, 10 jobs)\n\n");
    let _ = writeln!(out, "queue: {}\n", describe_jobs(&queue_jobs()));

    let reports = run_many(vec![
        scenario(
            ManagerConfig::proportional(Watts(GLOBAL_BOUND_W)),
            "proportional",
        ),
        scenario(ManagerConfig::fpp(Watts(GLOBAL_BOUND_W)), "fpp"),
    ]);
    let prop = &reports[0];
    let fpp = &reports[1];

    let mut table = Table::new(&["policy", "makespan (s)", "avg job energy/node (kJ)"]);
    for r in [prop, fpp] {
        table.row(vec![
            r.label.clone(),
            format!("{:.0}", r.makespan_s),
            format!("{:.1}", avg_job_energy_per_node(r)),
        ]);
    }
    out.push_str(&table.render());

    let delta = (avg_job_energy_per_node(prop) - avg_job_energy_per_node(fpp))
        / avg_job_energy_per_node(prop)
        * 100.0;
    let _ = writeln!(
        out,
        "\nmakespan: proportional {:.0} s vs FPP {:.0} s (paper: identical, 1539 s)",
        prop.makespan_s, fpp.makespan_s
    );
    let _ = writeln!(
        out,
        "FPP improves avg per-job energy-per-node by {delta:.2} % (paper: 1.26 %)"
    );

    // Ablation: how the FPP controller hands probed power back.
    let gb = give_back_reports();
    let _ = writeln!(out, "\n## give-back ablation (FPP restore path)\n");
    let mut t2 = Table::new(&[
        "restore",
        "makespan (s)",
        "avg job energy/node (kJ)",
        "epochs to restore 50 W",
    ]);
    for (r, epochs) in [
        (&gb[0], epochs_to_restore(false)),
        (&gb[1], epochs_to_restore(true)),
    ] {
        t2.row(vec![
            r.label.clone(),
            format!("{:.0}", r.makespan_s),
            format!("{:.1}", avg_job_energy_per_node(r)),
            format!("{epochs}"),
        ]);
    }
    out.push_str(&t2.render());
    let _ = writeln!(
        out,
        "\ntime-to-restore: instant = 1 epoch (90 s), staged = {} epochs ({} s)",
        epochs_to_restore(true),
        epochs_to_restore(true) * 90
    );

    let mut csv = prop.jobs_csv();
    csv.push_str(&fpp.jobs_csv());
    for r in &gb {
        csv.push_str(&r.jobs_csv());
    }
    let path = write_artifact("queue_experiment.csv", &csv)?;
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_shape_matches_paper() {
        let reports = run_many(vec![
            scenario(
                ManagerConfig::proportional(Watts(GLOBAL_BOUND_W)),
                "proportional",
            ),
            scenario(ManagerConfig::fpp(Watts(GLOBAL_BOUND_W)), "fpp"),
        ]);
        let prop = &reports[0];
        let fpp = &reports[1];
        assert_eq!(prop.jobs.len(), 10);
        // Makespans effectively identical (paper: exactly equal).
        let ratio = fpp.makespan_s / prop.makespan_s;
        assert!((0.97..1.05).contains(&ratio), "makespans close: {ratio}");
        // Makespan in the paper's ballpark.
        assert!(
            (1200.0..1900.0).contains(&prop.makespan_s),
            "makespan {}",
            prop.makespan_s
        );
        // FPP saves a little energy per job-node.
        let delta = (avg_job_energy_per_node(prop) - avg_job_energy_per_node(fpp))
            / avg_job_energy_per_node(prop);
        assert!((-0.001..0.06).contains(&delta), "FPP energy delta {delta}");
    }

    #[test]
    fn staged_give_back_holds_queue_shape() {
        // The restore path is the only difference: staged give-back must
        // not blow up the queue, and its time-to-restore is 4 epochs
        // (15 W level-1 steps over a 50 W probe) vs 1 for instant.
        let gb = give_back_reports();
        assert_eq!(gb[0].jobs.len(), 10);
        assert_eq!(gb[1].jobs.len(), 10);
        let ratio = gb[1].makespan_s / gb[0].makespan_s;
        assert!(
            (0.95..1.10).contains(&ratio),
            "staged restore changed the makespan too much: {ratio}"
        );
        assert_eq!(epochs_to_restore(false), 1, "paper: instant give-back");
        assert_eq!(epochs_to_restore(true), 4, "50 W / 15 W steps, clamped");
    }
}
