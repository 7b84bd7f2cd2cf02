//! # fluxpm-workloads — synthetic application models
//!
//! The paper evaluates five applications (Table I): LAMMPS, GEMM
//! (RajaPerf), Quicksilver, Laghos, and a Charm++ NQueens. Since the real
//! codes cannot run on a simulated cluster, this crate models each one as
//! a [`fluxpm_flux::JobProgram`] with three calibrated behaviours:
//!
//! 1. **Power demand over time** — flat for LAMMPS/GEMM/NQueens, a
//!    periodic square wave for Quicksilver, a minor sine for Laghos
//!    (paper Fig. 1),
//! 2. **Performance response to power capping** — a knee + power-law
//!    curve per bottleneck component (compute-bound apps slow sharply
//!    under caps; others barely notice — paper Table IV),
//! 3. **Scaling** — strong for LAMMPS (runtime and power fall with node
//!    count), weak for the rest (paper Fig. 2, Table II), including the
//!    Tioga task doubling (8 GCDs vs 4 GPUs) and the Quicksilver HIP
//!    anomaly (§IV-A).
//!
//! Calibration targets are documented on each constant in [`apps`];
//! EXPERIMENTS.md records how close the reproduction lands.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod apps;
pub mod inputs;
pub mod jitter;
pub mod model;
pub mod program;

pub use apps::{all_apps, gemm, kripke, laghos, lammps, nqueens, quicksilver};
pub use inputs::{ranks_per_node, table1_input, task_partition, TaskPartition};
pub use jitter::JitterModel;
pub use model::{AppModel, MachineProfile, PhasePattern, Scaling};
pub use program::App;
