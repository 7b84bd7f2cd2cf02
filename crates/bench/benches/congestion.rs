//! Congestion-aware overlay benchmarks:
//!
//! * `echo_roundtrip` — one root → leaf echo RPC per iteration on a
//!   clean 128-rank tree vs the same tree with the leaf's uplink at
//!   0.999 severity. The clean point prices the queueing model's fast
//!   path (zero-serialization crossings bypass the FIFO); the congested
//!   point adds severity lookup, FIFO bookkeeping, and EWMA updates.
//! * `storm_128_rank` — the full 128-rank congestion storm (death storm
//!   plus seeded flat and Gilbert–Elliott congestion, link monitor
//!   routing around sustained congestion) vs the congestion-free storm.
//!
//! Ungated: CI's bench smoke job runs this target in `--quick` mode to
//! catch bitrot; the gated numbers are stackbench's (`benchmark/`).

use criterion::{criterion_group, criterion_main, Criterion};
use fluxpm_bench::workload::DeliveryRig;
use fluxpm_experiments::chaos::{storm, StormConfig};
use std::hint::black_box;

fn bench_congestion(c: &mut Criterion) {
    let mut g = c.benchmark_group("congestion");

    let mut clean = DeliveryRig::new(128);
    clean.roundtrip();
    g.bench_function("echo_roundtrip/clean", |b| b.iter(|| clean.roundtrip()));

    let mut hot = DeliveryRig::congested(128, 0.999);
    hot.roundtrip();
    g.bench_function("echo_roundtrip/severity_0.999", |b| {
        b.iter(|| hot.roundtrip())
    });

    let congested = StormConfig::congested(128, 7);
    let plain = StormConfig::new(128, 7);
    g.bench_function("storm_128_rank/congested", |b| {
        b.iter(|| black_box(storm(&congested)))
    });
    g.bench_function("storm_128_rank/clean", |b| {
        b.iter(|| black_box(storm(&plain)))
    });

    g.finish();
}

criterion_group!(benches, bench_congestion);
criterion_main!(benches);
