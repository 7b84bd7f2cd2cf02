//! Fig. 6 — FPP timeline.
//!
//! The same mix under the FFT-based policy: the per-GPU controllers
//! probe downward once, observe the effect (GEMM: cap binds, power goes
//! back; Quicksilver: period unchanged, cap stays low), and converge
//! quickly — the paper notes "FPP converges quickly for both
//! applications, as there is not a lot of opportunity to save power
//! while preserving performance."

use super::fig5::run_scenario;
use super::table3::mix_results;
use crate::write_artifact;
use fluxpm_hw::Watts;
use fluxpm_manager::ManagerConfig;
use std::fmt::Write as _;

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Fig. 6 — FPP timeline\n\n");
    let report = run_scenario(ManagerConfig::fpp(Watts(9600.0)), "fpp");

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
    let path = write_artifact("fig6_fpp.csv", &csv)?;

    // The probe epoch is visible as a dip in GEMM node power during
    // t in [90, 180).
    let mean_in = |lo: f64, hi: f64| {
        let xs: Vec<f64> = report
            .timeline
            .node(gemm_node)
            .filter(|s| {
                let t = s.timestamp_us as f64 / 1e6;
                t >= lo && t < hi
            })
            .map(|s| s.node_power_estimate())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let baseline = mean_in(20.0, 88.0);
    let probe = mean_in(95.0, 175.0);
    let restored = mean_in(185.0, 260.0);
    let _ = writeln!(
        out,
        "GEMM node power: {baseline:.0} W baseline -> {probe:.0} W during the FPP probe epoch -> {restored:.0} W after give-back",
    );
    let _ = writeln!(
        out,
        "GEMM time {:.0} s, Quicksilver time {:.0} s (paper: 602 s / 350 s)",
        gemm.runtime_s, qs.runtime_s
    );
    out.push_str("paper shape: fast convergence for both applications.\n");
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_dip_visible_then_restored() {
        let report = run_scenario(ManagerConfig::fpp(Watts(9600.0)), "fpp");
        let gemm_node = report.job("GEMM").unwrap().nodes[0];
        let mean_in = |lo: f64, hi: f64| {
            let xs: Vec<f64> = report
                .timeline
                .node(gemm_node)
                .filter(|s| {
                    let t = s.timestamp_us as f64 / 1e6;
                    t >= lo && t < hi
                })
                .map(|s| s.node_power_estimate())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let baseline = mean_in(20.0, 88.0);
        let probe = mean_in(95.0, 175.0);
        let restored = mean_in(185.0, 260.0);
        assert!(
            probe < baseline - 100.0,
            "probe dips: {baseline:.0} -> {probe:.0}"
        );
        assert!(
            restored > probe + 100.0,
            "power restored: {probe:.0} -> {restored:.0}"
        );
    }
}
