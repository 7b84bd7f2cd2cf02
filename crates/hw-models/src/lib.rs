//! # fluxpm-hw — simulated node hardware for Lassen and Tioga
//!
//! The paper evaluates on two real machines; this crate is the substitute
//! substrate (see DESIGN.md §1). It models, per node:
//!
//! * **Component power**: CPU sockets, memory, GPUs/OAMs, and "other"
//!   (uncore, fans, NIC) with idle floors and demand-driven draw,
//! * **Sensors**: IBM OCC in-band sensors on Lassen (node / per-socket CPU
//!   / memory / per-GPU, 500 µs granularity) vs MSR-based E-SMI + ROCm on
//!   Tioga (CPU and per-OAM only — *no node or memory telemetry*, which is
//!   why the paper's Tioga node power is a conservative sum),
//! * **Capping firmware**: IBM OPAL node-level capping with the
//!   conservative derived GPU cap the paper measures in Table III, NVML
//!   per-GPU capping with the intermittent failures reported in §V, and
//!   the capping-disabled state of the Tioga early-access system.
//!
//! The resolution pipeline is: a workload presents a [`PowerDemand`]; the
//! node's capping state turns that into an actual [`PowerDraw`] plus
//! per-component throttle factors that the workload model uses to slow
//! application progress.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod arch;
pub mod capping;
pub mod energy;
pub mod lanes;
pub mod node;
pub mod power;
pub mod sensors;
pub mod units;

pub use arch::{lassen, tioga, CappingSupport, MachineKind, NodeArch, TelemetrySupport};
pub use capping::{CapError, CapOutcome, DramCapState, NvmlState, OpalState, RaplState};
pub use energy::EnergyMeter;
pub use lanes::Lanes;
pub use node::{NodeHardware, NodeId};
pub use power::{resolve_with_sockets, PowerDemand, PowerDraw, Throttle};
pub use sensors::{SensorReadCost, SensorReading, Sensors};
pub use units::{Joules, Watts};
