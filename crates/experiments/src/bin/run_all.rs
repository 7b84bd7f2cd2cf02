//! Regenerates the paper's tables and figures, writing CSVs into
//! `results/` and printing each report: `run_all` runs every
//! experiment in sequence, `run_all NAME…` only the named ones.

use fluxpm_experiments::experiments as exp;
use std::time::Instant;

/// A named experiment entry point.
type Experiment = (&'static str, fn() -> std::io::Result<String>);

const EXPERIMENTS: [Experiment; 15] = [
    ("fig1", exp::fig1::run),
    ("fig2", exp::fig2::run),
    ("table2", exp::table2::run),
    ("fig3", exp::fig3::run),
    ("fig4", exp::fig4::run),
    ("table3", exp::table3::run),
    ("table4", exp::table4::run),
    ("fig5", exp::fig5::run),
    ("fig6", exp::fig6::run),
    ("fig7", exp::fig7::run),
    ("queue", exp::queue::run),
    ("ablation_fpp", exp::ablation_fpp::run),
    ("ablation_reserve", exp::ablation_reserve::run),
    ("ablation_psr", exp::ablation_psr::run),
    ("ablation_congestion", exp::ablation_congestion::run),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| EXPERIMENTS.iter().all(|(name, _)| name != n))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment(s): {}\nvalid names: {}",
            unknown.join(" "),
            valid.join(" ")
        );
        std::process::exit(2);
    }
    let total = Instant::now();
    for (name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let t = Instant::now();
        match run() {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{name}: cannot write its artifact under results/: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("[{name} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    eprintln!("done in {:.1}s", total.elapsed().as_secs_f64());
}
