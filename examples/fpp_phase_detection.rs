//! FPP from the inside: the FFT period detector on a Quicksilver-like
//! power signal, the per-GPU controller's probe/converge cycle, and the
//! full policy running end-to-end (paper §III-B2, Algorithm 1).
//!
//! Run with: `cargo run --example fpp_phase_detection`

use fluxpm::experiments::{JobRequest, PowerSetup, Scenario};
use fluxpm::fft::{PeriodAnalyzer, Samples};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::manager::{FppConfig, FppController, FppDecision, ManagerConfig};

fn main() {
    // --- 1. FINDPERIOD: the FFT primitive ------------------------------
    // A Quicksilver-like square wave: 10 s period, 13 % duty, sampled at
    // 1 Hz for one 90 s FPP epoch.
    let signal: Vec<f64> = (0..90)
        .map(|t| {
            if (t as f64 / 10.0).fract() < 0.13 {
                560.0
            } else {
                220.0
            }
        })
        .collect();
    // One analyzer serves every estimate: its plans and buffers are
    // built on first use and reused after that.
    let mut analyzer = PeriodAnalyzer::new();
    let est = analyzer
        .estimate_period(Samples::contiguous(&signal), 1.0)
        .expect("periodic signal");
    println!(
        "FFT period estimate: {:.1} s (truth 10.0 s), confidence {:.2}",
        est.period_seconds, est.confidence
    );

    // --- 2. GET-GPU-CAP: one controller's lifecycle ---------------------
    let mut controller = FppController::new(FppConfig::default(), Watts(253.5));
    println!("\ncontroller start: cap {}", controller.cap());
    for epoch in 1..=3 {
        for &w in &signal {
            controller.store_power_sample(Watts(w / 4.0)); // per-GPU share
        }
        let decision = controller.on_epoch(&mut analyzer);
        println!(
            "epoch {epoch}: {:?} (converged: {})",
            decision,
            controller.converged()
        );
        match decision {
            FppDecision::Set(w) | FppDecision::Keep(w) => assert!(w.get() >= 100.0),
        }
    }

    // --- 3. The full policy on a live cluster ---------------------------
    let report = Scenario::new(MachineKind::Lassen, 8)
        .with_label("fpp")
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config: ManagerConfig::fpp(Watts(9600.0)),
        })
        .with_job(JobRequest::new("GEMM", 6).with_work_scale(2.0))
        .with_job(JobRequest::new("Quicksilver", 2).with_work_seconds(348.0))
        .run();
    println!("\nfull FPP run:");
    for job in &report.jobs {
        println!(
            "  {:<12} runtime {:>6.1} s, energy/node {:>5.0} kJ",
            job.name, job.runtime_s, job.energy_per_node_kj
        );
    }
    println!(
        "  cluster peak {:.2} kW of the 9.6 kW bound",
        report.cluster_max_w / 1e3
    );
    println!("(paper Fig. 6: FPP probes once, gives power back where it hurts, converges)");
}
