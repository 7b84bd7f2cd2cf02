//! Subscription fan-out hot-path benchmarks:
//!
//! * `telemetry_fanout/broadcast` — one publish sweep over 64 nodes
//!   into 1 000 and 5 000 unfiltered subscribers (every publish lands
//!   in every bounded queue),
//! * `telemetry_fanout/selective` — 1 000 subscribers each pinned to
//!   one node, so ~1/64 match per publish (filter-rejection cost),
//! * `telemetry_fanout/publish_poll_cycle` — the steady-state loop:
//!   refill every queue, then drain 1 000 subscribers in 128-delta
//!   batches,
//! * `telemetry_fanout/backpressure` — publish into permanently full
//!   queues (shed-oldest path hot),
//! * `telemetry_fanout/relay_tree` — a full publish sweep through the
//!   TBON-distributed relay plane: 64 brokers, fanout 8, 1 000
//!   leaf subscribers, per-edge batching and per-hub dispatch down the
//!   tree (the [`fluxpm_bench::relay_tree`] workload).
//!
//! Ungated: CI's bench smoke job runs this target in `--quick` mode to
//! catch bitrot; the gated numbers are stackbench's (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fluxpm_bench::relay_tree::RelayTree;
use fluxpm_monitor::{
    SubscriberId, SubscriptionConfig, SubscriptionFilter, TelemetryHub, TelemetrySequencer,
};
use std::hint::black_box;

const NODES: u32 = 64;

/// The root's sequencer feeding one hub: stamp, then dispatch.
type Fed = (TelemetrySequencer, TelemetryHub);

fn hub_with(subs: usize, pin_nodes: bool, capacity: usize) -> (Fed, Vec<SubscriberId>) {
    let mut hub = TelemetryHub::new(SubscriptionConfig {
        queue_capacity: capacity,
        evict_after_drops: u64::MAX,
    });
    let ids = (0..subs)
        .map(|i| {
            let filter = if pin_nodes {
                SubscriptionFilter::all().with_nodes(vec![i as u32 % NODES])
            } else {
                SubscriptionFilter::all()
            };
            hub.subscribe(filter, &[], 0)
        })
        .collect();
    ((TelemetrySequencer::default(), hub), ids)
}

fn sweep((seq, hub): &mut Fed, ts: u64) -> u64 {
    let mut deliveries = 0u64;
    for node in 0..NODES {
        let delta = seq.publish(node, ts, 900.0, None);
        deliveries += hub.dispatch(&delta) as u64;
    }
    deliveries
}

fn bench_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_fanout");
    for &subs in &[1_000usize, 5_000] {
        let (mut hub, _ids) = hub_with(subs, false, 64);
        let mut ts = 0u64;
        g.bench_with_input(BenchmarkId::new("broadcast", subs), &subs, |b, _| {
            b.iter(|| {
                ts += 2_000_000;
                black_box(sweep(&mut hub, ts))
            })
        });
    }
    g.finish();
}

fn bench_selective(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_fanout");
    let (mut hub, _ids) = hub_with(1_000, true, 64);
    let mut ts = 0u64;
    g.bench_function("selective_1k", |b| {
        b.iter(|| {
            ts += 2_000_000;
            black_box(sweep(&mut hub, ts))
        })
    });
    g.finish();
}

fn bench_poll_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_fanout");
    // One iteration = refill every queue (4 sweeps) and drain all 1 000
    // subscribers in 128-delta batches — the steady-state consumer loop.
    let (mut hub, ids) = hub_with(1_000, false, 512);
    let mut ts = 0u64;
    g.bench_function("publish_poll_cycle_1k", |b| {
        b.iter(|| {
            for _ in 0..4 {
                ts += 2_000_000;
                sweep(&mut hub, ts);
            }
            let mut drained = 0usize;
            for &id in &ids {
                while let Some((deltas, _)) = hub.1.poll(id, 128) {
                    if deltas.is_empty() {
                        break;
                    }
                    drained += deltas.len();
                }
            }
            black_box(drained)
        })
    });
    g.finish();
}

fn bench_backpressure(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_fanout");
    let (mut hub, _ids) = hub_with(1_000, false, 8);
    let mut ts = 0u64;
    // Pre-fill so every queue sheds on each delivery.
    for r in 0..4u64 {
        ts = r * 2_000_000;
        sweep(&mut hub, ts);
    }
    g.bench_function("backpressure_full_queues_1k", |b| {
        b.iter(|| {
            ts += 2_000_000;
            black_box(sweep(&mut hub, ts))
        })
    });
    g.finish();
}

fn bench_relay_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_fanout");
    // One iteration = 64 published deltas cascaded down every
    // interested edge into 1 000 leaf subscribers (64 000 deliveries).
    // Queues are small and eviction is off, so sustained iteration
    // keeps the shed-oldest path hot — same regime as `backpressure`.
    let mut tree = RelayTree::new(64, 8, 1_000, 64);
    g.bench_function("relay_tree_64x1k", |b| {
        b.iter(|| black_box(tree.publish_sweep()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_broadcast,
    bench_selective,
    bench_poll_drain,
    bench_backpressure,
    bench_relay_tree
);
criterion_main!(benches);
