//! Fig. 7 — proportional power capping on a non-MPI application.
//!
//! A Charm++ NQueens job (2 nodes) enters alongside GEMM (6 nodes) under
//! proportional sharing: GEMM's power drops when NQueens enters the
//! system, demonstrating that anything launchable under a Flux job —
//! MPI or not — is managed identically.

use crate::scenario::{JobRequest, PowerSetup, Scenario};
use crate::write_artifact;
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use std::fmt::Write as _;

/// Build and run the scenario: GEMM first, NQueens enters at t = 120 s.
pub fn run_scenario() -> crate::RunReport {
    Scenario::new(MachineKind::Lassen, 8)
        .with_label("fig7-nonmpi")
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config: ManagerConfig::proportional(Watts(9600.0)),
        })
        .with_job(JobRequest::new("GEMM", 6).with_work_scale(2.0))
        .with_job(JobRequest::new("NQueens", 2).submit_at(120.0))
        .run()
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Fig. 7 — proportional capping with a Charm++ (non-MPI) job\n\n");
    let report = run_scenario();

    // invariant: a report lists every job its scenario submitted, and
    // `run_scenario` submits one GEMM and one NQueens job.
    let gemm = report.job("GEMM").expect("the scenario runs GEMM");
    let nq = report.job("NQueens").expect("the scenario runs NQueens");
    let (gemm_node, nq_node) = (gemm.nodes[0], nq.nodes[0]);
    let mut csv = String::from("t_s,gemm_node_w,nqueens_node_w\n");
    for (g, q) in report
        .timeline
        .node(gemm_node)
        .zip(report.timeline.node(nq_node))
    {
        let _ = writeln!(
            csv,
            "{:.1},{:.1},{:.1}",
            g.timestamp_us as f64 / 1e6,
            g.node_power_estimate(),
            q.node_power_estimate()
        );
    }
    let path = write_artifact("fig7_nonmpi.csv", &csv)?;

    let mean_in = |node: usize, lo: f64, hi: f64| {
        let xs: Vec<f64> = report
            .timeline
            .node(node)
            .filter(|s| {
                let t = s.timestamp_us as f64 / 1e6;
                t >= lo && t < hi
            })
            .map(|s| s.node_power_estimate())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let before = mean_in(gemm_node, 20.0, nq.start_s - 5.0);
    let during = mean_in(gemm_node, nq.start_s + 10.0, nq.end_s.min(gemm.end_s) - 5.0);
    let _ = writeln!(
        out,
        "GEMM node power: {before:.0} W alone -> {during:.0} W once NQueens (Charm++, CPU-only) enters at {:.0} s",
        nq.start_s
    );
    out.push_str("paper shape: GEMM power drops when the NQueens application enters.\n");
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_loses_power_when_nqueens_enters() {
        let report = run_scenario();
        let gemm = report.job("GEMM").unwrap().clone();
        let nq = report.job("NQueens").unwrap().clone();
        assert!(nq.start_s >= 120.0, "NQueens enters late");
        let node = gemm.nodes[0];
        let mean_in = |lo: f64, hi: f64| {
            let xs: Vec<f64> = report
                .timeline
                .node(node)
                .filter(|s| {
                    let t = s.timestamp_us as f64 / 1e6;
                    t >= lo && t < hi
                })
                .map(|s| s.node_power_estimate())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let before = mean_in(20.0, nq.start_s - 5.0);
        let during = mean_in(nq.start_s + 10.0, nq.start_s + 100.0);
        assert!(
            during < before - 100.0,
            "GEMM drops when the non-MPI job enters: {before:.0} -> {during:.0}"
        );
    }
}
