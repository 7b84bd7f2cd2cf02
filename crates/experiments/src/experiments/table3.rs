//! Table III — static power allocation on an 8-node Lassen allocation
//! using IBM's node-level power capping.
//!
//! GEMM (6 nodes, doubled iterations) + Quicksilver (2 nodes, 10x
//! problem) under node caps {3050 (unconstrained), 1200, 1800, 1950} W.
//! Reports the OPAL-derived per-GPU cap and the maximum/average cluster
//! power — reproducing the paper's headline that IBM's default
//! derivation is extremely conservative (6.05 kW peak under a 9.6 kW
//! budget at 1200 W/node).

use crate::report::{JobResult, RunReport, Table};
use crate::scenario::{run_many, JobRequest, PowerSetup, Scenario};
use crate::write_artifact;
use fluxpm_hw::{lassen, OpalState, Watts};
use std::fmt::Write as _;

/// Paper Table III rows: (label, node_cap, derived_gpu_cap, max_kw, avg_kw).
pub const PAPER: [(&str, f64, f64, f64, f64); 4] = [
    ("Unconstrained", 3050.0, 300.0, 10.66, 8.9),
    ("Power-constr.", 1200.0, 100.0, 6.05, 5.1),
    ("Power-constr.", 1800.0, 216.0, 8.68, 7.2),
    ("Power-constr.", 1950.0, 253.0, 9.5, 7.9),
];

/// The Table III / Table IV job mix.
pub fn job_mix() -> Vec<JobRequest> {
    vec![
        JobRequest::new("GEMM", 6).with_work_scale(2.0),
        JobRequest::new("Quicksilver", 2).with_work_seconds(348.0),
    ]
}

/// The GEMM and Quicksilver results of a report over [`job_mix`].
pub fn mix_results(r: &RunReport) -> (&JobResult, &JobResult) {
    // invariant: a report lists every job its scenario submitted, and
    // `job_mix` submits one GEMM and one Quicksilver job.
    let gemm = r.job("GEMM").expect("the mix runs GEMM");
    let qs = r.job("Quicksilver").expect("the mix runs Quicksilver");
    (gemm, qs)
}

/// Average per-node energy over the whole mix: each job's per-node
/// energy weighted by its node count.
pub fn mix_energy(r: &RunReport) -> f64 {
    let (g, q) = mix_results(r);
    (g.energy_per_node_kj * 6.0 + q.energy_per_node_kj * 2.0) / 8.0
}

/// The per-GPU cap Lassen's OPAL firmware derives from a node cap at a
/// Power Shifting Ratio.
pub fn opal_gpu_cap(node_cap: f64, psr: u8) -> f64 {
    let derived = OpalState::for_arch(&lassen()).and_then(|mut opal| {
        opal.set_psr(psr);
        opal.set_node_cap(Watts(node_cap));
        opal.derived_gpu_cap()
    });
    // invariant: Lassen has OPAL and GPUs, and its node cap is set above.
    derived.expect("Lassen's OPAL derives a GPU cap").get()
}

/// Build the scenario for one static node cap (None = unconstrained).
fn scenario(cap: Option<f64>) -> Scenario {
    let mut s = Scenario::new(fluxpm_hw::MachineKind::Lassen, 8).with_label(
        cap.map(|c| format!("static-{c}"))
            .unwrap_or("unconstrained".into()),
    );
    if let Some(c) = cap {
        s = s.with_power(PowerSetup::StaticNodeCap(c));
    }
    for j in job_mix() {
        s = s.with_job(j);
    }
    s
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out =
        String::from("# Table III — static IBM node-level power capping (8-node Lassen)\n\n");
    let caps = [None, Some(1200.0), Some(1800.0), Some(1950.0)];
    let reports = run_many(caps.iter().map(|c| scenario(*c)).collect());

    let mut table = Table::new(&[
        "use case",
        "node cap (W)",
        "derived GPU cap (W)",
        "paper",
        "max usage (kW)",
        "paper",
        "avg usage (kW)",
        "paper",
    ]);
    let mut csv = String::from("node_cap_w,derived_gpu_cap_w,max_kw,avg_kw\n");
    for (i, cap) in caps.iter().enumerate() {
        let r = &reports[i];
        let (label, cap_w) = match cap {
            None => ("Unconstrained", 3050.0),
            Some(c) => ("Power-constr.", *c),
        };
        let derived = cap.map_or(300.0, |c| opal_gpu_cap(c, 100));
        let (_, _, d_paper, max_paper, avg_paper) = PAPER[i];
        table.row(vec![
            label.into(),
            format!("{cap_w:.0}"),
            format!("{derived:.0}"),
            format!("{d_paper:.0}"),
            format!("{:.2}", r.cluster_max_w / 1e3),
            format!("{max_paper:.2}"),
            format!("{:.1}", r.cluster_avg_w / 1e3),
            format!("{avg_paper:.1}"),
        ]);
        let _ = writeln!(
            csv,
            "{cap_w},{derived:.1},{:.3},{:.3}",
            r.cluster_max_w / 1e3,
            r.cluster_avg_w / 1e3
        );
    }
    out.push_str(&table.render());
    out.push_str(
        "\npaper shape: the unconstrained mix peaks far below worst-case\n\
         provisioning; at 1200 W/node IBM caps each GPU at 100 W and leaves a\n\
         third of the 9.6 kW budget unused; ~1950 W/node is needed to approach\n\
         the budget.\n",
    );
    let path = write_artifact("table3_static.csv", &csv)?;
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibm_default_is_conservative() {
        let unconstrained = scenario(None).run();
        let capped = scenario(Some(1200.0)).run();
        // Paper: 10.66 kW unconstrained, 6.05 kW at 1200 W/node.
        assert!(
            (unconstrained.cluster_max_w - 10_660.0).abs() < 900.0,
            "{}",
            unconstrained.cluster_max_w
        );
        assert!(
            (capped.cluster_max_w - 6_050.0).abs() < 600.0,
            "{}",
            capped.cluster_max_w
        );
        assert!(
            capped.cluster_max_w < 9_600.0 * 0.7,
            "budget badly underused"
        );
    }

    #[test]
    fn cap_1950_approaches_budget() {
        let r = scenario(Some(1950.0)).run();
        assert!(
            r.cluster_max_w > 8_800.0 && r.cluster_max_w <= 10_100.0,
            "{}",
            r.cluster_max_w
        );
    }
}
