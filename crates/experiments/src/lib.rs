//! # fluxpm-experiments — regenerate every table and figure of the paper
//!
//! Each experiment module reproduces one artifact of the SC'24 paper's
//! evaluation (§IV) on the simulated substrate and prints the same rows
//! or series the paper reports, alongside the paper's own numbers where
//! applicable. Machine-readable CSVs land in `results/`.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::fig1`] | Fig. 1 — power timelines (LAMMPS, Quicksilver, 1 Lassen node) |
//! | [`experiments::fig2`] | Fig. 2 — per-component power across node counts, both machines |
//! | [`experiments::table2`] | Table II — cross-machine runtime/power/energy |
//! | [`experiments::fig3`] | Fig. 3 — monitor overhead per app/node count |
//! | [`experiments::fig4`] | Fig. 4 — run-to-run variability box data |
//! | [`experiments::table3`] | Table III — static IBM node caps |
//! | [`experiments::table4`] | Table IV — policy comparison (static/proportional/FPP) |
//! | [`experiments::fig5`] | Fig. 5 — proportional-sharing timeline |
//! | [`experiments::fig6`] | Fig. 6 — FPP timeline |
//! | [`experiments::fig7`] | Fig. 7 — non-MPI (Charm++) proportional capping |
//! | [`experiments::queue`] | §IV-E — 10-job queue on 16 nodes |
//!
//! Run everything: `cargo run -p fluxpm-experiments --bin run_all`;
//! run some: `… --bin run_all fig1 table4`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod chaos;
pub mod experiments;
pub mod full_shard;
pub mod report;
pub mod scenario;
mod script;
pub mod stats;

pub use report::{JobResult, RunReport};
pub use scenario::{JobRequest, PowerSetup, Scenario};

use std::path::{Path, PathBuf};

/// Directory experiment CSVs are written to (created on demand).
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    Ok(dir.to_path_buf())
}

/// Write a CSV (or any text artifact) into the results directory.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}
