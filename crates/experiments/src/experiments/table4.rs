//! Table IV — static vs dynamic power capping.
//!
//! Five configurations over the same GEMM(6)+Quicksilver(2) mix on an
//! 8-node Lassen cluster with a 9.6 kW budget:
//!
//! 1. unconstrained (3050 W),
//! 2. IBM default static capping at 1200 W/node,
//! 3. static capping at the validated 1950 W/node,
//! 4. proportional sharing (manager over the 1950 W baseline),
//! 5. FPP (proportional + per-GPU FFT controller).
//!
//! Reports per-application max node power, execution time, and average
//! node energy, plus the paper's headline deltas (proportional vs IBM
//! default ≈ 19 % energy / 1.59x performance; FPP vs proportional ≈ 1 %
//! energy).

use super::table3::{job_mix, mix_energy, mix_results};
use crate::report::{RunReport, Table};
use crate::scenario::{run_many, PowerSetup, Scenario};
use crate::write_artifact;
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use std::fmt::Write as _;

/// Paper Table IV (GEMM columns): (label, node_cap, max_w, time_s, energy_kj).
pub const PAPER_GEMM: [(&str, f64, f64, f64, f64); 5] = [
    ("Unconstr.", 3050.0, 1523.0, 548.0, 726.0),
    ("Constr. IBM default", 1200.0, 841.0, 1145.0, 805.0),
    ("Constr. Static", 1950.0, 1330.0, 564.0, 652.0),
    ("Constr. Prop. Shar.", 1950.0, 1343.0, 597.0, 612.0),
    ("Constr. FPP", 1950.0, 1325.0, 602.0, 598.0),
];

/// Paper Table IV (Quicksilver columns): (max_w, time_s, energy_kj).
pub const PAPER_QS: [(f64, f64, f64); 5] = [
    (952.0, 348.0, 177.0),
    (820.0, 359.0, 160.0),
    (975.0, 347.0, 175.0),
    (939.0, 347.0, 170.0),
    (951.0, 350.0, 174.0),
];

/// The five Table IV configurations, in paper order.
pub fn configurations() -> Vec<(String, PowerSetup)> {
    vec![
        ("Unconstr.".into(), PowerSetup::Unconstrained),
        (
            "Constr. IBM default".into(),
            PowerSetup::StaticNodeCap(1200.0),
        ),
        ("Constr. Static".into(), PowerSetup::StaticNodeCap(1950.0)),
        (
            "Constr. Prop. Shar.".into(),
            PowerSetup::Managed {
                static_node_cap: Some(1950.0),
                config: ManagerConfig::proportional(Watts(9600.0)),
            },
        ),
        (
            "Constr. FPP".into(),
            PowerSetup::Managed {
                static_node_cap: Some(1950.0),
                config: ManagerConfig::fpp(Watts(9600.0)),
            },
        ),
    ]
}

/// Run all five configurations and return the reports, in order.
pub fn run_all_configs() -> Vec<RunReport> {
    let scenarios: Vec<Scenario> = configurations()
        .into_iter()
        .map(|(label, power)| {
            let mut s = Scenario::new(MachineKind::Lassen, 8)
                .with_label(label)
                .with_power(power);
            for j in job_mix() {
                s = s.with_job(j);
            }
            s
        })
        .collect();
    run_many(scenarios)
}

/// Run the experiment; returns the printed report.
pub fn run() -> std::io::Result<String> {
    let mut out = String::from("# Table IV — static vs dynamic power capping\n\n");
    let reports = run_all_configs();

    let mut table = Table::new(&[
        "use case & policy",
        "node cap (W)",
        "GEMM max W",
        "paper",
        "QS max W",
        "paper",
        "GEMM time s",
        "paper",
        "QS time s",
        "paper",
        "GEMM kJ",
        "paper",
        "QS kJ",
        "paper",
    ]);
    let mut csv = String::from("policy,gemm_max_w,qs_max_w,gemm_time_s,qs_time_s,gemm_kj,qs_kj\n");
    for (i, r) in reports.iter().enumerate() {
        let (label, cap, g_max_p, g_t_p, g_e_p) = PAPER_GEMM[i];
        let (q_max_p, q_t_p, q_e_p) = PAPER_QS[i];
        let (g, q) = mix_results(r);
        table.row(vec![
            label.into(),
            format!("{cap:.0}"),
            format!("{:.0}", g.max_node_power_w),
            format!("{g_max_p:.0}"),
            format!("{:.0}", q.max_node_power_w),
            format!("{q_max_p:.0}"),
            format!("{:.0}", g.runtime_s),
            format!("{g_t_p:.0}"),
            format!("{:.0}", q.runtime_s),
            format!("{q_t_p:.0}"),
            format!("{:.0}", g.energy_per_node_kj),
            format!("{g_e_p:.0}"),
            format!("{:.0}", q.energy_per_node_kj),
            format!("{q_e_p:.0}"),
        ]);
        let _ = writeln!(
            csv,
            "{},{:.1},{:.1},{:.2},{:.2},{:.2},{:.2}",
            r.label,
            g.max_node_power_w,
            q.max_node_power_w,
            g.runtime_s,
            q.runtime_s,
            g.energy_per_node_kj,
            q.energy_per_node_kj
        );
    }
    out.push_str(&table.render());

    // Headline deltas (the paper's §IV-D / abstract numbers). Energy is
    // compared over the whole mix.
    let gemm_time = |r: &RunReport| mix_results(r).0.runtime_s;
    let e = [
        mix_energy(&reports[1]), // IBM default
        mix_energy(&reports[2]), // static 1950
        mix_energy(&reports[3]), // proportional
        mix_energy(&reports[4]), // FPP
    ];
    let _ = writeln!(
        out,
        "\nproportional vs IBM default: energy {:+.1} % (paper -19 %), GEMM speedup {:.2}x (paper 1.59x)",
        (e[2] - e[0]) / e[0] * 100.0,
        gemm_time(&reports[1]) / gemm_time(&reports[3]),
    );
    let _ = writeln!(
        out,
        "proportional vs static 1950:  energy {:+.1} % (paper -5.4 %)",
        (e[2] - e[1]) / e[1] * 100.0,
    );
    let _ = writeln!(
        out,
        "FPP vs proportional:          energy {:+.1} % (paper -1.2 %), GEMM slowdown {:+.1} % (paper +0.8 %)",
        (e[3] - e[2]) / e[2] * 100.0,
        (gemm_time(&reports[4]) / gemm_time(&reports[3]) - 1.0) * 100.0,
    );
    let _ = writeln!(
        out,
        "FPP vs IBM default:           energy {:+.1} % (paper -20 %), GEMM speedup {:.2}x (paper 1.58x)",
        (e[3] - e[0]) / e[0] * 100.0,
        gemm_time(&reports[1]) / gemm_time(&reports[4]),
    );
    let path = write_artifact("table4_policies.csv", &csv)?;
    let _ = writeln!(out, "CSV: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_deltas_have_paper_shape() {
        let reports = run_all_configs();
        let ibm = mix_energy(&reports[1]);
        let prop = mix_energy(&reports[3]);
        let fpp = mix_energy(&reports[4]);
        // Proportional sharing beats the IBM default by double digits.
        let prop_vs_ibm = (ibm - prop) / ibm * 100.0;
        assert!(
            (10.0..30.0).contains(&prop_vs_ibm),
            "prop vs IBM: {prop_vs_ibm} %"
        );
        // FPP shaves a little more off.
        let fpp_vs_prop = (prop - fpp) / prop * 100.0;
        assert!(
            (0.0..5.0).contains(&fpp_vs_prop),
            "FPP vs prop: {fpp_vs_prop} %"
        );
        // GEMM speedup vs the IBM default is large.
        let speedup =
            reports[1].job("GEMM").unwrap().runtime_s / reports[3].job("GEMM").unwrap().runtime_s;
        assert!((1.4..2.3).contains(&speedup), "speedup {speedup}");
        // Quicksilver is barely affected anywhere.
        for r in &reports {
            let q = r.job("Quicksilver").unwrap().runtime_s;
            assert!((340.0..375.0).contains(&q), "{}: QS {q}", r.label);
        }
    }
}
