//! `stackbench` — one end-to-end benchmark for the whole stack, plus a
//! traced pass that breaks its figure down by layer. See `README.md`.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod selftest;
pub mod spans;
pub mod trace;
pub mod workloads;
pub mod yardstick;
