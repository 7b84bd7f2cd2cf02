//! Table II — cross-machine performance: runtime, average per-node
//! power, and per-node energy for LAMMPS, Laghos, and Quicksilver at 4
//! and 8 nodes on Lassen and Tioga.
//!
//! Includes the Quicksilver HIP anomaly: on Tioga it runs ~8x the Lassen
//! runtime instead of the expected ~2x, so (like the paper) its energy is
//! not compared.

use crate::report::Table;
use crate::scenario::{run_many, JobRequest, Scenario};
use crate::write_artifact;
use fluxpm_hw::MachineKind;
use std::fmt::Write as _;

/// One paper Table II row:
/// (app, nodes, lassen_rt, tioga_rt, lassen_w, tioga_w, lassen_kj, tioga_kj).
pub type PaperRow = (
    &'static str,
    u32,
    f64,
    f64,
    f64,
    f64,
    Option<f64>,
    Option<f64>,
);

/// Paper Table II reference values.
pub const PAPER: [PaperRow; 6] = [
    (
        "LAMMPS",
        4,
        77.17,
        51.00,
        1283.74,
        1552.40,
        Some(99.07),
        Some(79.17),
    ),
    (
        "LAMMPS",
        8,
        46.33,
        29.67,
        1155.08,
        1388.99,
        Some(53.51),
        Some(41.21),
    ),
    (
        "Laghos",
        4,
        12.55,
        26.71,
        472.91,
        530.87,
        Some(5.94),
        Some(14.18),
    ),
    (
        "Laghos",
        8,
        12.62,
        26.81,
        469.59,
        532.28,
        Some(5.93),
        Some(14.27),
    ),
    ("Quicksilver", 4, 12.78, 102.03, 546.99, 915.82, None, None),
    ("Quicksilver", 8, 13.63, 106.15, 559.64, 924.85, None, None),
];

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Table II — cross-machine performance (4 & 8 nodes)\n\n");

    let mut scenarios = Vec::new();
    for &(app, n, ..) in &PAPER {
        for machine in [MachineKind::Lassen, MachineKind::Tioga] {
            scenarios.push(
                Scenario::new(machine, n)
                    .with_label(format!("{app}@{n}@{}", machine.name()))
                    .with_job(JobRequest::new(app, n)),
            );
        }
    }
    let reports = run_many(scenarios);

    let mut table = Table::new(&[
        "app",
        "nodes",
        "lassen rt (s)",
        "paper",
        "tioga rt (s)",
        "paper",
        "lassen W",
        "paper",
        "tioga W",
        "paper",
        "lassen kJ",
        "paper",
        "tioga kJ",
        "paper",
    ]);
    let mut csv =
        String::from("app,nodes,lassen_rt,tioga_rt,lassen_w,tioga_w,lassen_kj,tioga_kj\n");
    for (i, &(app, n, l_rt, t_rt, l_w, t_w, l_kj, t_kj)) in PAPER.iter().enumerate() {
        let lassen = &reports[2 * i].jobs[0];
        let tioga = &reports[2 * i + 1].jobs[0];
        let anomaly = if app == "Quicksilver" { "*" } else { "" };
        table.row(vec![
            format!("{app}{anomaly}"),
            n.to_string(),
            format!("{:.2}", lassen.runtime_s),
            format!("{l_rt:.2}"),
            format!("{:.2}", tioga.runtime_s),
            format!("{t_rt:.2}"),
            format!("{:.0}", lassen.avg_node_power_w),
            format!("{l_w:.0}"),
            format!("{:.0}", tioga.avg_node_power_w),
            format!("{t_w:.0}"),
            l_kj.map(|_| format!("{:.1}", lassen.energy_per_node_kj))
                .unwrap_or("-".into()),
            l_kj.map(|v| format!("{v:.1}")).unwrap_or("-".into()),
            t_kj.map(|_| format!("{:.1}", tioga.energy_per_node_kj))
                .unwrap_or("-".into()),
            t_kj.map(|v| format!("{v:.1}")).unwrap_or("-".into()),
        ]);
        let _ = writeln!(
            csv,
            "{app},{n},{:.2},{:.2},{:.1},{:.1},{:.2},{:.2}",
            lassen.runtime_s,
            tioga.runtime_s,
            lassen.avg_node_power_w,
            tioga.avg_node_power_w,
            lassen.energy_per_node_kj,
            tioga.energy_per_node_kj,
        );
    }
    out.push_str(&table.render());
    out.push_str("\n* Quicksilver-on-Tioga reproduces the anomalous HIP-variant runtime\n  (paper: ~8x Lassen instead of the expected ~2x); energy not compared.\n");

    // Headline shape: LAMMPS energy improves on Tioga; Laghos energy
    // roughly doubles (task doubling).
    let lam4_l = reports[0].jobs[0].energy_per_node_kj;
    let lam4_t = reports[1].jobs[0].energy_per_node_kj;
    let _ = writeln!(
        out,
        "\nLAMMPS 4-node energy: Tioga/Lassen = {:.2} (paper: 79.17/99.07 = 0.80, a 21.5 % reduction)",
        lam4_t / lam4_l
    );
    let path = write_artifact("table2_cross_machine.csv", &csv)?;
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_within_tolerance() {
        // Spot-check two rows rather than rerunning the full sweep.
        let lassen = Scenario::new(MachineKind::Lassen, 4)
            .with_job(JobRequest::new("LAMMPS", 4))
            .run();
        let j = &lassen.jobs[0];
        assert!(
            (j.runtime_s - 77.17).abs() / 77.17 < 0.05,
            "{}",
            j.runtime_s
        );
        assert!(
            (j.avg_node_power_w - 1283.74).abs() / 1283.74 < 0.08,
            "{}",
            j.avg_node_power_w
        );
        assert!(
            (j.energy_per_node_kj - 99.07).abs() / 99.07 < 0.12,
            "{}",
            j.energy_per_node_kj
        );

        let tioga = Scenario::new(MachineKind::Tioga, 4)
            .with_job(JobRequest::new("Quicksilver", 4))
            .run();
        let q = &tioga.jobs[0];
        assert!(
            (95.0..115.0).contains(&q.runtime_s),
            "HIP anomaly: {}",
            q.runtime_s
        );
    }
}
