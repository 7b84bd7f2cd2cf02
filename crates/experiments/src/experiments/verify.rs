//! The reproduction gate: every headline claim of the paper, asserted
//! against the simulation with explicit tolerances. CI runs this to
//! guarantee calibration drift cannot land silently.

use super::table3::{mix_energy, mix_results, opal_gpu_cap};
use super::table4;
use crate::report::{RunReport, Table};
use crate::scenario::{JobRequest, Scenario};
use fluxpm_hw::MachineKind;
use std::fmt::Write as _;

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the paper claims.
    pub claim: &'static str,
    /// The paper's value (for the report).
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptance interval for the measured value.
    pub accept: (f64, f64),
}

impl Check {
    /// Whether the measured value is inside the acceptance interval.
    pub fn passed(&self) -> bool {
        (self.accept.0..=self.accept.1).contains(&self.measured)
    }
}

/// Run every headline check. Expensive (~a dozen full scenarios).
pub fn run_checks() -> Vec<Check> {
    let mut checks = Vec::new();

    // --- Table II spot checks -----------------------------------------
    let lammps4 = Scenario::new(MachineKind::Lassen, 4)
        .with_job(JobRequest::new("LAMMPS", 4))
        .run();
    checks.push(Check {
        claim: "LAMMPS runtime, 4 Lassen nodes (s)",
        paper: 77.17,
        measured: lammps4.jobs[0].runtime_s,
        accept: (73.0, 81.0),
    });
    checks.push(Check {
        claim: "LAMMPS avg node power, 4 Lassen nodes (W)",
        paper: 1283.74,
        measured: lammps4.jobs[0].avg_node_power_w,
        accept: (1210.0, 1360.0),
    });
    let qs_tioga = Scenario::new(MachineKind::Tioga, 4)
        .with_job(JobRequest::new("Quicksilver", 4))
        .run();
    checks.push(Check {
        claim: "Quicksilver HIP anomaly on Tioga (s)",
        paper: 102.03,
        measured: qs_tioga.jobs[0].runtime_s,
        accept: (95.0, 115.0),
    });

    // --- Table III / IV ------------------------------------------------
    let reports = table4::run_all_configs();
    let unconstrained = &reports[0];
    let ibm = &reports[1];
    let stat = &reports[2];
    let prop = &reports[3];
    let fpp = &reports[4];
    let gemm_time = |r: &RunReport| mix_results(r).0.runtime_s;

    checks.push(Check {
        claim: "unconstrained cluster peak of 24.4 kW provisioned (kW)",
        paper: 10.66,
        measured: unconstrained.cluster_max_w / 1e3,
        accept: (9.8, 11.6),
    });
    checks.push(Check {
        claim: "IBM default 1200 W/node cluster peak (kW)",
        paper: 6.05,
        measured: ibm.cluster_max_w / 1e3,
        accept: (5.4, 6.7),
    });
    checks.push(Check {
        claim: "GEMM slowdown under IBM default (x)",
        paper: 1145.0 / 548.0,
        measured: gemm_time(ibm) / gemm_time(unconstrained),
        accept: (1.8, 2.4),
    });
    checks.push(Check {
        claim: "proportional vs IBM default energy (%)",
        paper: -19.0,
        measured: (mix_energy(prop) - mix_energy(ibm)) / mix_energy(ibm) * 100.0,
        accept: (-25.0, -8.0),
    });
    checks.push(Check {
        claim: "proportional vs static-1950 energy (%)",
        paper: -5.4,
        measured: (mix_energy(prop) - mix_energy(stat)) / mix_energy(stat) * 100.0,
        accept: (-9.0, -2.0),
    });
    checks.push(Check {
        claim: "FPP vs proportional energy (%)",
        paper: -1.2,
        measured: (mix_energy(fpp) - mix_energy(prop)) / mix_energy(prop) * 100.0,
        accept: (-4.0, -0.1),
    });
    checks.push(Check {
        claim: "FPP vs proportional GEMM slowdown (%)",
        paper: 0.8,
        measured: (gemm_time(fpp) / gemm_time(prop) - 1.0) * 100.0,
        accept: (-0.5, 4.0),
    });
    checks.push(Check {
        claim: "FPP vs IBM default energy (%)",
        paper: -20.0,
        measured: (mix_energy(fpp) - mix_energy(ibm)) / mix_energy(ibm) * 100.0,
        accept: (-26.0, -9.0),
    });

    // --- OPAL derivation (Table III column 2) ---------------------------
    for (node_cap, derived) in [(1200.0, 100.0), (1800.0, 216.0), (1950.0, 253.0)] {
        checks.push(Check {
            claim: "OPAL derived GPU cap (W)",
            paper: derived,
            measured: opal_gpu_cap(node_cap, 100),
            accept: (derived - 1.0, derived + 1.0),
        });
    }
    checks
}

/// Run the gate; returns the printed report and whether everything
/// passed.
pub fn run_gate() -> (String, bool) {
    let checks = run_checks();
    let mut table = Table::new(&["check", "paper", "measured", "accept", "status"]);
    let mut all_ok = true;
    for c in &checks {
        let ok = c.passed();
        all_ok &= ok;
        table.row(vec![
            c.claim.into(),
            format!("{:.2}", c.paper),
            format!("{:.2}", c.measured),
            format!("[{:.2}, {:.2}]", c.accept.0, c.accept.1),
            if ok { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    let mut out = String::from("# Reproduction gate — headline paper claims\n\n");
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\n{} of {} checks passed",
        checks.iter().filter(|c| c.passed()).count(),
        checks.len()
    );
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes() {
        let (report, ok) = run_gate();
        assert!(ok, "reproduction gate failed:\n{report}");
    }

    #[test]
    fn check_pass_logic() {
        let c = Check {
            claim: "x",
            paper: 1.0,
            measured: 1.05,
            accept: (0.9, 1.1),
        };
        assert!(c.passed());
        let c = Check {
            claim: "x",
            paper: 1.0,
            measured: 1.2,
            accept: (0.9, 1.1),
        };
        assert!(!c.passed());
    }
}
