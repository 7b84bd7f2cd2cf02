//! # fluxpm-variorum — vendor-neutral power telemetry and capping
//!
//! A faithful reproduction of the three Variorum entry points the paper's
//! Flux modules use (§II-C):
//!
//! * [`get_node_power_json`] — vendor-neutral telemetry; returns a
//!   [`NodePowerSample`] mirroring Variorum's JSON object (absent sensors
//!   are simply absent keys, exactly as on Tioga),
//! * [`cap_best_effort_node_power_limit`] — node-level capping; *direct*
//!   on IBM AC922 (OPAL) and *best-effort* (uniform socket distribution)
//!   where no node dial exists,
//! * [`cap_each_gpu_power_limit`] — a uniform cap across the node's GPUs.
//!
//! The real Variorum is a C library; this crate is its Rust-native
//! equivalent over the simulated [`fluxpm_hw::NodeHardware`] substrate.
//! Every call also reports its host-CPU cost so the monitor's overhead
//! model (paper Fig. 3) has a physical basis.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod api;
pub mod error;
pub mod json;

pub use api::{
    cap_best_effort_node_power_limit, cap_each_gpu_power_limit, cap_each_socket_power_limit,
    cap_gpu_power_limit, cap_memory_power_limit, cap_socket_power_limit,
    get_node_power_domain_info, get_node_power_json, get_node_power_json_into,
};
pub use error::VariorumError;
pub use json::NodePowerSample;
