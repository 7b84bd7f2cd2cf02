//! FPP analytics hot-path benchmarks, each on a warm
//! [`fluxpm_fft::PeriodAnalyzer`] (cached plans + scratch arena):
//!
//! * `estimate_period` — single-window period estimation at n = 15
//!   (Bluestein), 64, and 1024 (radix-2),
//! * `welch` — Welch-averaged estimation at the production segment
//!   shapes: a 180 s double epoch with 90-sample segments and a
//!   1024-sample trace with 128-sample segments,
//! * `fpp_epoch` — one node's Welch-mode per-GPU epoch analysis
//!   (8 GPUs × 90 samples at 1 Hz) on zero-copy ring views batched
//!   through a single shared analyzer.
//!
//! Ungated: CI's bench smoke job runs this target in `--quick` mode to
//! catch bitrot; the gated numbers are stackbench's (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fluxpm_bench::fpp::{epoch_signal, planned_estimate, planned_welch, FppEpochRig};
use fluxpm_fft::PeriodAnalyzer;
use std::hint::black_box;

fn bench_estimate_period(c: &mut Criterion) {
    let mut g = c.benchmark_group("estimate_period");
    let mut analyzer = PeriodAnalyzer::new();
    for &n in &[15usize, 64, 1024] {
        let x = epoch_signal(n, (n as f64 / 8.0).max(4.0), 7);
        // Warm the plan cache so the planned numbers are steady-state.
        planned_estimate(&mut analyzer, &x);
        g.bench_with_input(BenchmarkId::new("planned", n), &x, |b, x| {
            b.iter(|| black_box(planned_estimate(&mut analyzer, x)))
        });
    }
    g.finish();
}

fn bench_welch(c: &mut Criterion) {
    let mut g = c.benchmark_group("welch");
    let mut analyzer = PeriodAnalyzer::new();
    for &(n, seg) in &[(180usize, 90usize), (1024, 128)] {
        let x = epoch_signal(n, 12.0, 11);
        planned_welch(&mut analyzer, &x, seg);
        let id = format!("n{n}_seg{seg}");
        g.bench_with_input(BenchmarkId::new("planned", &id), &x, |b, x| {
            b.iter(|| black_box(planned_welch(&mut analyzer, x, seg)))
        });
    }
    g.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let mut rig = FppEpochRig::new(8, 90, 3);
    assert!(rig.planned_epoch() > 0, "rig signals must be detectable");
    c.bench_function("fpp_epoch/planned_8gpu_welch", |b| {
        b.iter(|| black_box(rig.planned_epoch()))
    });
}

criterion_group!(benches, bench_estimate_period, bench_welch, bench_epoch);
criterion_main!(benches);
