//! A hardware-overprovisioned (power-constrained) cluster under the
//! proportional sharing policy — the paper's §IV-D scenario.
//!
//! An 8-node Lassen allocation holds a 9.6 kW budget. GEMM (6 nodes,
//! compute-bound) and Quicksilver (2 nodes) share it; when Quicksilver
//! finishes, the cluster-level manager reclaims its power and GEMM's
//! per-GPU caps rise from 200 W to 300 W.
//!
//! Run with: `cargo run --example power_constrained_cluster`

use fluxpm::experiments::{JobRequest, PowerSetup, Scenario};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::manager::ManagerConfig;

fn main() {
    let report = Scenario::new(MachineKind::Lassen, 8)
        .with_label("proportional")
        .with_power(PowerSetup::Managed {
            // The validated static baseline from the paper's Table III.
            static_node_cap: Some(1950.0),
            config: ManagerConfig::proportional(Watts(9600.0)),
        })
        .with_job(JobRequest::new("GEMM", 6).with_work_scale(2.0))
        .with_job(JobRequest::new("Quicksilver", 2).with_work_seconds(348.0))
        .run();

    println!("cluster bound: 9.6 kW over 8 nodes (1200 W/node share)\n");
    for job in &report.jobs {
        println!(
            "{:<12} {} nodes  runtime {:>6.1} s  avg node {:>6.0} W  max node {:>6.0} W  energy/node {:>5.0} kJ",
            job.name, job.nnodes, job.runtime_s, job.avg_node_power_w, job.max_node_power_w,
            job.energy_per_node_kj
        );
    }
    println!(
        "\ncluster peak {:.2} kW (bound 9.60 kW; never violated), average {:.2} kW",
        report.cluster_max_w / 1e3,
        report.cluster_avg_w / 1e3
    );

    // Show the reclaim: GEMM node power before/after Quicksilver exits.
    let qs_end = report.job("Quicksilver").unwrap().end_s;
    let gemm = report.job("GEMM").unwrap();
    let mean_in = |lo: f64, hi: f64| {
        let xs: Vec<f64> = report
            .timeline
            .node(gemm.nodes[0])
            .filter(|s| {
                let t = s.timestamp_us as f64 / 1e6;
                t >= lo && t < hi
            })
            .map(|s| s.node_power_estimate())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    println!(
        "\nGEMM node 0: {:.0} W while sharing -> {:.0} W after Quicksilver exits at {:.0} s",
        mean_in(30.0, qs_end - 10.0),
        mean_in(qs_end + 10.0, gemm.end_s - 5.0),
        qs_end
    );
    println!("(paper Fig. 5: GEMM receives additional power when Quicksilver is not executing)");
}
