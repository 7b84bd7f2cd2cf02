//! Simulator hot-path benchmarks:
//!
//! * `engine_churn` — mixed schedule/cancel/periodic throughput,
//! * `sliced_drain` — the experiment-driver pattern of polling
//!   `next_event_time` before every step,
//! * `timer_mix` — the traffic the stackbench workloads really put on
//!   the queue: periodic re-arms, constant-latency hops and mostly
//!   cancelled RPC deadlines, every event at one of three offsets from
//!   now (the two groups above draw a unique random instant per event:
//!   they price the engine's heap, this one its lanes),
//! * `delivery` — one root → leaf echo RPC round trip per iteration at
//!   two tree depths (per-hop cost = round trip / (2 × hops)),
//! * `msg_path` — what one message of the telemetry plane costs on a
//!   warm 256-rank world: a `relay-deltas` event sent and delivered,
//!   and the three lookups on its way (topic → module, module by name,
//!   cached route),
//! * `soak_128_rank` — the full 128-rank monitor + manager chaos storm
//!   from `fluxpm_experiments::chaos`.
//!
//! Ungated: CI's bench smoke job runs this target in `--quick` mode to
//! catch bitrot; the gated numbers are stackbench's (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fluxpm_bench::workload::{churn, sliced_drain, timer_mix, DeliveryRig, MsgPathRig};
use fluxpm_experiments::chaos::{storm, StormConfig};
use std::hint::black_box;

fn bench_engine_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_churn");
    for &n in &[2_000usize, 20_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(churn(n, 42)))
        });
    }
    g.finish();
}

fn bench_sliced_drain(c: &mut Criterion) {
    let (n, slices) = (5_000usize, 50u64);
    c.bench_function("sliced_drain", |b| {
        b.iter(|| black_box(sliced_drain(n, slices, 42)))
    });
}

fn bench_timer_mix(c: &mut Criterion) {
    let (nodes, seconds) = (2_048usize, 20u64);
    c.bench_function("timer_mix", |b| {
        b.iter(|| black_box(timer_mix(nodes, seconds, 42)))
    });
}

fn bench_delivery(c: &mut Criterion) {
    let mut g = c.benchmark_group("delivery");
    for &nnodes in &[8u32, 128] {
        let mut rig = DeliveryRig::new(nnodes);
        let hops = rig.hops();
        g.bench_with_input(
            BenchmarkId::new("echo_roundtrip", format!("{hops}hops")),
            &hops,
            |b, _| b.iter(|| rig.roundtrip()),
        );
    }
    g.finish();
}

fn bench_msg_path(c: &mut Criterion) {
    use fluxpm_flux::Rank;
    let mut g = c.benchmark_group("msg_path");
    let mut rig = MsgPathRig::new();
    g.bench_function("send_deliver_relay_deltas", |b| {
        b.iter(|| black_box(rig.send_and_deliver()))
    });
    let broker = &rig.world.brokers[1];
    g.bench_function("broker_route", |b| {
        b.iter(|| black_box(broker.route(black_box(&rig.topic))))
    });
    g.bench_function("broker_module", |b| {
        b.iter(|| black_box(broker.module(black_box(fluxpm_monitor::RELAY))))
    });
    let (from, to) = (Rank(0), Rank(MsgPathRig::RANKS - 1));
    g.bench_function("tbon_route_hit", |b| {
        b.iter(|| black_box(rig.world.tbon.route(black_box(from), black_box(to))))
    });
    g.finish();
}

fn bench_soak_128_rank(c: &mut Criterion) {
    let cfg = StormConfig::new(128, 7);
    c.bench_function("soak_128_rank/standard", |b| {
        b.iter(|| black_box(storm(&cfg)))
    });
}

criterion_group!(
    benches,
    bench_engine_churn,
    bench_sliced_drain,
    bench_timer_mix,
    bench_delivery,
    bench_msg_path,
    bench_soak_128_rank
);
criterion_main!(benches);
