//! # fluxpm — vendor-neutral job-level power management for HPC
//!
//! A from-scratch Rust reproduction of *"Vendor-neutral and
//! Production-grade Job Power Management in High Performance Computing"*
//! (Kulshreshtha, Patki, Garlick, Grondona, Ge — SC 2024), including
//! every substrate the paper depends on, rebuilt as a deterministic
//! simulation:
//!
//! * [`sim`] — discrete-event engine with seeded RNG,
//! * [`fft`] — from-scratch FFT + period detection (the FPP primitive),
//! * [`hw`] — Lassen (IBM AC922) and Tioga (HPE EX235a) node models:
//!   sensors, OPAL/NVML capping firmware, power/energy accounting,
//! * [`variorum`] — the vendor-neutral telemetry/capping API,
//! * [`flux`] — a simulated Flux instance: brokers, TBON, modules, RPC,
//!   jobs, FCFS scheduling,
//! * [`workloads`] — calibrated models of LAMMPS, GEMM, Quicksilver,
//!   Laghos, and Charm++ NQueens,
//! * [`monitor`] — `flux-power-monitor` (stateless job telemetry),
//! * [`manager`] — `flux-power-manager` (proportional sharing + FPP),
//! * [`experiments`] — regenerates every table and figure of the paper.
//!
//! ## Quickstart
//!
//! [`experiments::Scenario::build`] assembles a world the way the
//! paper deploys its modules: node-level agents on every broker, root
//! components on the root.
//!
//! ```
//! use fluxpm::experiments::Scenario;
//! use fluxpm::flux::{Engine, FluxEngine, JobSpec};
//! use fluxpm::hw::MachineKind;
//! use fluxpm::monitor::MonitorConfig;
//! use fluxpm::workloads::{quicksilver, App, JitterModel};
//!
//! // A 4-node Lassen cluster with job telemetry loaded.
//! let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
//!     .with_seed(42)
//!     .with_monitor(MonitorConfig::default())
//!     .build();
//! world.autostop_after = Some(1);
//!
//! // Run Quicksilver on 2 nodes and fetch its power data afterwards.
//! let app = App::with_jitter(quicksilver(), MachineKind::Lassen, 2, 1, JitterModel::none());
//! let job = world.submit(&mut eng, JobSpec::new("Quicksilver", 2), Box::new(app));
//! eng.run(&mut world);
//!
//! let mut eng2: FluxEngine = Engine::new();
//! let query = fluxpm::monitor::MonitorQuery::job_data(job).send(&mut world, &mut eng2);
//! eng2.run(&mut world);
//! let data = query.job_data().unwrap().unwrap();
//! assert!(data.all_complete());
//! println!("{}", fluxpm::monitor::job_data_to_csv(&data));
//! ```

#![warn(missing_docs)]
/// Discrete-event simulation engine (re-export of `fluxpm-sim`).
pub mod sim {
    pub use fluxpm_sim::*;
}

/// FFT period detection, FPP's `FINDPERIOD` (re-export of `fluxpm-fft`).
pub mod fft {
    pub use fluxpm_fft::{PeriodAnalyzer, PeriodEstimate, Samples};
}

/// Simulated node hardware (re-export of `fluxpm-hw`).
pub mod hw {
    pub use fluxpm_hw::*;
}

/// Vendor-neutral power API (re-export of `fluxpm-variorum`).
pub mod variorum {
    pub use fluxpm_variorum::*;
}

/// Simulated Flux framework (re-export of `fluxpm-flux`).
pub mod flux {
    pub use fluxpm_flux::*;
    /// Re-exported engine constructor for convenience.
    pub use fluxpm_sim::Engine;
}

/// Application models (re-export of `fluxpm-workloads`).
pub mod workloads {
    pub use fluxpm_workloads::*;
}

/// `flux-power-monitor` (re-export of `fluxpm-monitor`).
pub mod monitor {
    pub use fluxpm_monitor::*;
}

/// `flux-power-manager` (re-export of `fluxpm-manager`).
pub mod manager {
    pub use fluxpm_manager::*;
}

/// Experiment harness (re-export of `fluxpm-experiments`).
pub mod experiments {
    pub use fluxpm_experiments::*;
}

/// One-stop imports for downstream users.
///
/// ```
/// use fluxpm::experiments::Scenario;
/// use fluxpm::prelude::*;
///
/// let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 2).with_seed(7).build();
/// world.autostop_after = Some(1);
/// let app = App::with_jitter(laghos(), MachineKind::Lassen, 1, 1, JitterModel::none());
/// let id = world.submit(&mut eng, JobSpec::new("Laghos", 1), Box::new(app));
/// eng.run(&mut world);
/// assert!(world.jobs.get(id).unwrap().runtime_seconds().is_some());
/// ```
pub mod prelude {
    pub use crate::flux::{
        Engine, FluxEngine, InstancePowerPolicy, JobId, JobProgram, JobSpec, JobState, Rank,
        StepCtx, StepOutcome, SubInstance, World,
    };
    pub use crate::hw::{Joules, MachineKind, NodeHardware, NodeId, Watts};
    pub use crate::manager::{FppConfig, FppController, FppTarget, ManagerConfig, PolicyKind};
    pub use crate::monitor::{
        job_data_to_csv, MonitorConfig, MonitorQuery, QueryHandle, SubscriptionFilter,
    };
    pub use crate::sim::{SimDuration, SimTime};
    pub use crate::workloads::{
        all_apps, gemm, laghos, lammps, nqueens, quicksilver, App, AppModel, JitterModel,
    };
}
