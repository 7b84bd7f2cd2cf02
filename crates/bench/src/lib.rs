//! # fluxpm-bench — criterion microbenchmarks and shared workload rigs
//!
//! The library half ([`workload`], [`relay_tree`], [`fpp`]) holds the
//! deterministic rigs the bench targets drive; stackbench
//! (`benchmark/`) borrows three of them (`DeliveryRig`, `RelayTree`,
//! `FppEpochRig`) as unit-cost probes.
//!
//! Seven ungated criterion targets:
//!
//! * `paper_artifacts` — one benchmark per paper table/figure, running a
//!   size-reduced version of the corresponding experiment scenario,
//! * `ablations` — the design-choice ablations from DESIGN.md (FFT
//!   kernels, period estimators, ring buffer, event engine, TBON fan-out,
//!   FPP controller, power resolution),
//! * `sim_hot_path` — the simulator hot path: event-engine throughput
//!   on heap- and lane-shaped traffic, per-hop message delivery cost,
//!   and the 128-rank chaos storm,
//! * `fpp_hot_path` — the FPP analytics hot path: period estimation and
//!   Welch PSDs on a warm analyzer, plus the batched per-GPU epoch
//!   analysis,
//! * `sim_sharded` — the full-fidelity sharded world at 1/2/4 shards,
//! * `telemetry_fanout` — subscription fan-out through the hub and the
//!   relay tree,
//! * `congestion` — echo round trips and the 128-rank storm with and
//!   without congested links.
//!
//! Run with `cargo bench -p fluxpm-bench`. None of these gate anything;
//! the gated, noise-modelled perf surface is `benchmark/README.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fpp;
pub mod relay_tree;
pub mod workload;
