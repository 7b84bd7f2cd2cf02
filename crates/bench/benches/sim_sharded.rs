//! The full-fidelity sharded world (real monitor + manager stack,
//! replicated control plane, deterministic congestion) on a 64-rank
//! storm at shards 1/2/4. The merged canonical record stream is
//! identical at every point, so the curve prices window coordination
//! and replica overhead, nothing else.
//!
//! Ungated: CI's bench smoke job runs this target in `--quick` mode to
//! catch bitrot; the one recorded sharding number is stackbench's
//! `sharded.coord_frac` (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fluxpm_experiments::full_shard::{full_shard_run, FullShardConfig};
use std::hint::black_box;

fn bench_world_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_world_sharded");
    g.sample_size(10);
    for &shards in &[1usize, 2, 4] {
        let cfg = FullShardConfig::congested(64, shards, 42);
        g.bench_with_input(
            BenchmarkId::new("storm_64", format!("{shards}shards")),
            &cfg,
            |b, cfg| b.iter(|| black_box(full_shard_run(cfg))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_world_scaling);
criterion_main!(benches);
