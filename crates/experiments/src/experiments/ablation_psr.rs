//! Power Shifting Ratio (PSR) sweep.
//!
//! The paper always runs PSR = 100 ("maximum power share to the GPUs",
//! §II-A) and never explores the dial. This sweep runs the Table IV mix
//! at the 1950 W node cap across PSR values: as the ratio drops, OPAL's
//! reserve grows, the derived GPU cap falls, and GPU-bound GEMM slows —
//! quantifying why PSR = 100 is the right setting for GPU-heavy mixes.

use super::table3::{job_mix, mix_results, opal_gpu_cap};
use crate::report::Table;
use crate::scenario::{run_many, PowerSetup, Scenario};
use crate::write_artifact;
use std::fmt::Write as _;

/// PSR values swept.
pub const PSRS: [u8; 5] = [100, 75, 50, 25, 0];

/// The derived GPU cap at a 1950 W node cap for a given PSR.
pub fn derived_cap_at_psr(psr: u8) -> f64 {
    opal_gpu_cap(1950.0, psr)
}

fn scenario_for(psr: u8) -> Scenario {
    let mut s = Scenario::new(fluxpm_hw::MachineKind::Lassen, 8)
        .with_label(format!("psr-{psr}"))
        .with_power(PowerSetup::StaticNodeCap(1950.0))
        .with_psr(psr);
    for j in job_mix() {
        s = s.with_job(j);
    }
    s
}

/// Run the sweep; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Ablation — Power Shifting Ratio at the 1950 W node cap\n\n");
    let reports = run_many(PSRS.iter().map(|&p| scenario_for(p)).collect());

    let mut table = Table::new(&[
        "PSR",
        "derived GPU cap (W)",
        "GEMM time (s)",
        "GEMM kJ/node",
        "QS time (s)",
    ]);
    let mut csv = String::from("psr,derived_gpu_cap_w,gemm_time_s,gemm_kj,qs_time_s\n");
    for (i, &psr) in PSRS.iter().enumerate() {
        let r = &reports[i];
        let cap = derived_cap_at_psr(psr);
        let (g, q) = mix_results(r);
        table.row(vec![
            psr.to_string(),
            format!("{cap:.0}"),
            format!("{:.0}", g.runtime_s),
            format!("{:.0}", g.energy_per_node_kj),
            format!("{:.0}", q.runtime_s),
        ]);
        let _ = writeln!(
            csv,
            "{psr},{cap:.1},{:.2},{:.2},{:.2}",
            g.runtime_s, g.energy_per_node_kj, q.runtime_s
        );
    }
    out.push_str(&table.render());
    out.push_str(
        "\nreading: lowering the PSR shifts OPAL's reserve toward the CPUs the\n\
         mix does not need, starving the GPUs exactly like a lower node cap —\n\
         the paper's always-100 default is the only sensible setting for this\n\
         GPU-heavy mix.\n",
    );
    let path = write_artifact("ablation_psr.csv", &csv)?;
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_cap_falls_with_psr() {
        let caps: Vec<f64> = PSRS.iter().map(|&p| derived_cap_at_psr(p)).collect();
        assert!(
            (caps[0] - 253.5).abs() < 0.6,
            "PSR 100 is the paper's derivation"
        );
        for w in caps.windows(2) {
            assert!(w[1] <= w[0], "cap monotone in PSR: {caps:?}");
        }
        assert!(
            (caps.last().unwrap() - 153.5).abs() < 0.6,
            "PSR 0: {caps:?}"
        );
    }

    #[test]
    fn low_psr_slows_gemm() {
        let high = scenario_for(100).run();
        let low = scenario_for(0).run();
        let t_high = high.job("GEMM").unwrap().runtime_s;
        let t_low = low.job("GEMM").unwrap().runtime_s;
        assert!(
            t_low > t_high * 1.1,
            "PSR 0 starves the GPUs: {t_low} vs {t_high}"
        );
    }
}
