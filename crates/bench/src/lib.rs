//! # fluxpm-bench — the unit-cost rigs stackbench drives
//!
//! Deterministic rigs that stackbench (`benchmark/`, the repo's one
//! perf surface) uses as unit-cost probes for its traced pass:
//!
//! * [`workload::DeliveryRig`] — echo round trips over the TBON, clean
//!   and with a congested last hop (`flux.hop_ns`,
//!   `flux.hop_congested_ns`),
//! * [`relay_tree::RelayTree`] — the relay plane's per-edge fan-out
//!   without the event engine (`monitor.fanout_ns_per_delivery`),
//! * [`fpp::FppEpochRig`] and [`fpp::planned_estimate`] — one node's
//!   per-GPU epoch analysis and one period estimate on a warm analyzer
//!   (`manager.fpp_epoch_ns`, `fft.estimate_ns`).
//!
//! Nothing here is timed; the timing, noise model and host metadata are
//! stackbench's (`benchmark/README.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fpp;
pub mod relay_tree;
pub mod workload;
