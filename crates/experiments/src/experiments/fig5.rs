//! Fig. 5 — proportional power sharing timeline.
//!
//! One GEMM node and one Quicksilver node under the proportional policy:
//! when Quicksilver exits (~347 s), the cluster manager reclaims its
//! power and GEMM's nodes jump from the 1200 W/node share to 1600 W.

use super::table3::{job_mix, mix_results};
use crate::scenario::{PowerSetup, Scenario};
use crate::write_artifact;
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use std::fmt::Write as _;

/// Build and run the proportional-sharing scenario.
pub fn run_scenario(config: ManagerConfig, label: &str) -> crate::RunReport {
    let mut s = Scenario::new(MachineKind::Lassen, 8)
        .with_label(label.to_string())
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config,
        });
    for j in job_mix() {
        s = s.with_job(j);
    }
    s.run()
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Fig. 5 — proportional power sharing timeline\n\n");
    let report = run_scenario(ManagerConfig::proportional(Watts(9600.0)), "proportional");

    // GEMM runs on nodes 0-5, Quicksilver on 6-7.
    let (gemm, qs) = mix_results(&report);
    let (gemm_node, qs_node) = (gemm.nodes[0], qs.nodes[0]);
    let mut csv = String::from("t_s,gemm_node_w,qs_node_w\n");
    for (g, q) in report
        .timeline
        .node(gemm_node)
        .zip(report.timeline.node(qs_node))
    {
        let _ = writeln!(
            csv,
            "{:.1},{:.1},{:.1}",
            g.timestamp_us as f64 / 1e6,
            g.node_power_estimate(),
            q.node_power_estimate()
        );
    }
    let path = write_artifact("fig5_proportional.csv", &csv)?;

    let qs_end = qs.end_s;
    let gemm_before: Vec<f64> = report
        .timeline
        .node(gemm_node)
        .filter(|s| {
            let t = s.timestamp_us as f64 / 1e6;
            t > 60.0 && t < qs_end - 10.0
        })
        .map(|s| s.node_power_estimate())
        .collect();
    let gemm_after: Vec<f64> = report
        .timeline
        .node(gemm_node)
        .filter(|s| {
            let t = s.timestamp_us as f64 / 1e6;
            t > qs_end + 10.0 && t < gemm.end_s - 5.0
        })
        .map(|s| s.node_power_estimate())
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let _ = writeln!(
        out,
        "GEMM node power: {:.0} W while Quicksilver runs -> {:.0} W after it exits at {:.0} s",
        mean(&gemm_before),
        mean(&gemm_after),
        qs_end
    );
    out.push_str(
        "paper shape: GEMM receives additional power when Quicksilver is not executing.\n",
    );
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_gains_power_after_qs_exits() {
        let report = run_scenario(ManagerConfig::proportional(Watts(9600.0)), "prop");
        let gemm = report.job("GEMM").unwrap().clone();
        let qs_end = report.job("Quicksilver").unwrap().end_s;
        let node = gemm.nodes[0];
        let mean_in = |lo: f64, hi: f64| {
            let xs: Vec<f64> = report
                .timeline
                .node(node)
                .filter(|s| {
                    let t = s.timestamp_us as f64 / 1e6;
                    t > lo && t < hi
                })
                .map(|s| s.node_power_estimate())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let before = mean_in(60.0, qs_end - 10.0);
        let after = mean_in(qs_end + 10.0, gemm.end_s - 5.0);
        assert!(
            after > before + 150.0,
            "GEMM node gains power on reclaim: {before:.0} -> {after:.0} W"
        );
    }
}
