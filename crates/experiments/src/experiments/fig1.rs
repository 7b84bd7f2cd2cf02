//! Fig. 1 — power consumption timelines for LAMMPS and Quicksilver on a
//! single Lassen node using all four GPUs.
//!
//! The paper's takeaway: LAMMPS (and GEMM) are flat and high-power;
//! Quicksilver shows clear periodic phase behaviour. The CSVs written
//! here carry total node power plus one socket and one GPU, exactly the
//! series the paper plots.

use crate::scenario::{JobRequest, Scenario};
use crate::write_artifact;
use fluxpm_hw::MachineKind;
use std::fmt::Write as _;

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Fig. 1 — single-node power timelines (Lassen)\n\n");

    // The paper plots LAMMPS and Quicksilver and notes the others are
    // "discussed in Section IV" (flat GEMM/NQueens, minor Laghos phases);
    // we emit all five.
    for (app, scale) in [
        ("LAMMPS", 1.0),
        ("Quicksilver", 10.0),
        ("GEMM", 0.5),
        ("Laghos", 10.0),
        ("NQueens", 0.4),
    ] {
        let report = Scenario::new(MachineKind::Lassen, 1)
            .with_label(format!("fig1-{app}"))
            .with_job(JobRequest::new(app, 1).with_work_scale(scale))
            .run();

        // Timeline CSV: node power, socket 0, GPU 0 (the paper's series).
        let mut csv = String::from("t_s,node_w,cpu0_w,gpu0_w\n");
        for s in report.timeline.node(0) {
            let _ = writeln!(
                csv,
                "{:.1},{:.1},{:.1},{:.1}",
                s.timestamp_us as f64 / 1e6,
                s.node_power_estimate(),
                s.power_cpu_watts.first().copied().unwrap_or(0.0),
                s.power_gpu_watts.first().copied().unwrap_or(0.0),
            );
        }
        let path = write_artifact(&format!("fig1_{}.csv", app.to_lowercase()), &csv)?;

        let job = &report.jobs[0];
        let window: Vec<f64> = report
            .timeline
            .node(0)
            .filter(|s| {
                let t = s.timestamp_us as f64 / 1e6;
                t >= job.start_s && t <= job.end_s
            })
            .map(|s| s.node_power_estimate())
            .collect();
        let min = window.iter().copied().fold(f64::INFINITY, f64::min);
        let max = window.iter().copied().fold(0.0f64, f64::max);
        let swing = max - min;
        let _ = writeln!(
            out,
            "{app}: runtime {:.1} s, node power {:.0}-{:.0} W (swing {:.0} W) -> {}",
            job.runtime_s,
            min,
            max,
            swing,
            path.display()
        );
        let _ = writeln!(
            out,
            "  paper: {}\n",
            match app {
                "Quicksilver" => "periodic phase behavior (high/low power cycles)",
                "Laghos" => "some phase behavior, albeit very minor",
                _ => "relatively flat power timeline without any swings",
            }
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig1_shapes() {
        use crate::scenario::{JobRequest, Scenario};
        use fluxpm_hw::MachineKind;
        // LAMMPS: flat; Quicksilver: swinging.
        let flat = Scenario::new(MachineKind::Lassen, 1)
            .with_job(JobRequest::new("LAMMPS", 1))
            .run();
        let periodic = Scenario::new(MachineKind::Lassen, 1)
            .with_job(JobRequest::new("Quicksilver", 1).with_work_scale(10.0))
            .run();
        let swing = |r: &crate::RunReport| {
            let j = &r.jobs[0];
            let xs: Vec<f64> = r
                .timeline
                .node(0)
                .filter(|s| {
                    let t = s.timestamp_us as f64 / 1e6;
                    t >= j.start_s + 2.0 && t <= j.end_s - 2.0
                })
                .map(|s| s.node_power_estimate())
                .collect();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(0.0f64, f64::max);
            max - min
        };
        assert!(swing(&flat) < 100.0, "LAMMPS flat: {}", swing(&flat));
        assert!(
            swing(&periodic) > 250.0,
            "QS periodic: {}",
            swing(&periodic)
        );
    }
}
