//! One criterion benchmark per paper table/figure.
//!
//! Each benchmark executes a (size-reduced where needed) version of the
//! corresponding experiment scenario end-to-end, so `cargo bench`
//! regenerates the paper's artifacts' code paths and tracks the
//! simulator's own performance. The full-size experiments are
//! `fluxpm-experiments`' `run_all [NAME…]`.

use criterion::{criterion_group, criterion_main, Criterion};
use fluxpm_experiments::{JobRequest, PowerSetup, Scenario};
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use fluxpm_monitor::MonitorConfig;
use std::hint::black_box;

/// Reduced Table IV mix: same apps and policies, shorter work.
fn tab4_scenario(power: PowerSetup) -> Scenario {
    Scenario::new(MachineKind::Lassen, 8)
        .with_power(power)
        .with_job(JobRequest::new("GEMM", 6).with_work_seconds(120.0))
        .with_job(JobRequest::new("Quicksilver", 2).with_work_seconds(80.0))
}

fn bench_fig1_timeline(c: &mut Criterion) {
    c.bench_function("fig1/quicksilver_single_node_timeline", |b| {
        b.iter(|| {
            let r = Scenario::new(MachineKind::Lassen, 1)
                .with_job(JobRequest::new("Quicksilver", 1).with_work_scale(3.0))
                .run();
            black_box(r.node_series[0].len())
        })
    });
}

fn bench_fig2_scaling(c: &mut Criterion) {
    c.bench_function("fig2/weak_scaling_sweep_point", |b| {
        b.iter(|| {
            let r = Scenario::new(MachineKind::Lassen, 8)
                .with_job(JobRequest::new("Laghos", 8).with_work_scale(2.0))
                .run();
            black_box(r.jobs[0].avg_node_power_w)
        })
    });
}

fn bench_table2_cross_machine(c: &mut Criterion) {
    c.bench_function("table2/lammps_both_machines", |b| {
        b.iter(|| {
            let l = Scenario::new(MachineKind::Lassen, 4)
                .with_job(JobRequest::new("LAMMPS", 4))
                .run();
            let t = Scenario::new(MachineKind::Tioga, 4)
                .with_job(JobRequest::new("LAMMPS", 4))
                .run();
            black_box((l.jobs[0].runtime_s, t.jobs[0].runtime_s))
        })
    });
}

fn bench_fig3_overhead(c: &mut Criterion) {
    c.bench_function("fig3/monitored_vs_unmonitored_run", |b| {
        b.iter(|| {
            let base = Scenario::new(MachineKind::Lassen, 2)
                .with_job(JobRequest::new("Laghos", 2).with_work_scale(4.0))
                .run();
            let with = Scenario::new(MachineKind::Lassen, 2)
                .with_monitor(MonitorConfig::default())
                .with_job(JobRequest::new("Laghos", 2).with_work_scale(4.0))
                .run();
            black_box(with.jobs[0].runtime_s / base.jobs[0].runtime_s)
        })
    });
}

fn bench_fig4_variability(c: &mut Criterion) {
    c.bench_function("fig4/jittered_repetition", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let r = Scenario::new(MachineKind::Lassen, 2)
                .with_seed(seed)
                .with_jitter(fluxpm_workloads::JitterModel::default())
                .with_job(JobRequest::new("Quicksilver", 2))
                .run();
            black_box(r.jobs[0].runtime_s)
        })
    });
}

fn bench_table3_static(c: &mut Criterion) {
    c.bench_function("table3/static_cap_sweep_point", |b| {
        b.iter(|| {
            let r = tab4_scenario(PowerSetup::StaticNodeCap(1200.0)).run();
            black_box(r.cluster_max_w)
        })
    });
}

fn bench_table4_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("proportional", |b| {
        b.iter(|| {
            let r = tab4_scenario(PowerSetup::Managed {
                static_node_cap: Some(1950.0),
                config: ManagerConfig::proportional(Watts(9600.0)),
            })
            .run();
            black_box(r.jobs[0].energy_per_node_kj)
        })
    });
    g.bench_function("fpp", |b| {
        b.iter(|| {
            let r = tab4_scenario(PowerSetup::Managed {
                static_node_cap: Some(1950.0),
                config: ManagerConfig::fpp(Watts(9600.0)),
            })
            .run();
            black_box(r.jobs[0].energy_per_node_kj)
        })
    });
    g.finish();
}

fn bench_fig5_fig6_timelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_fig6");
    g.sample_size(10);
    for (name, fpp) in [("fig5_proportional", false), ("fig6_fpp", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let config = if fpp {
                    ManagerConfig::fpp(Watts(9600.0))
                } else {
                    ManagerConfig::proportional(Watts(9600.0))
                };
                let r = tab4_scenario(PowerSetup::Managed {
                    static_node_cap: Some(1950.0),
                    config,
                })
                .run();
                black_box(r.node_series[0].len())
            })
        });
    }
    g.finish();
}

fn bench_fig7_nonmpi(c: &mut Criterion) {
    c.bench_function("fig7/charmpp_alongside_gemm", |b| {
        b.iter(|| {
            let r = Scenario::new(MachineKind::Lassen, 8)
                .with_power(PowerSetup::Managed {
                    static_node_cap: Some(1950.0),
                    config: ManagerConfig::proportional(Watts(9600.0)),
                })
                .with_job(JobRequest::new("GEMM", 6).with_work_seconds(120.0))
                .with_job(
                    JobRequest::new("NQueens", 2)
                        .with_work_seconds(60.0)
                        .submit_at(30.0),
                )
                .run();
            black_box(r.makespan_s)
        })
    });
}

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    g.sample_size(10);
    g.bench_function("ten_jobs_sixteen_nodes", |b| {
        b.iter(|| {
            let mut s = Scenario::new(MachineKind::Lassen, 16).with_power(PowerSetup::Managed {
                static_node_cap: Some(1950.0),
                config: ManagerConfig::proportional(Watts(19_200.0)),
            });
            for j in fluxpm_experiments::experiments::queue::queue_jobs() {
                // Quarter-size works keep the bench iteration short.
                let w = j.work_seconds.unwrap_or(200.0) / 4.0;
                s = s.with_job(JobRequest::new(j.app, j.nnodes).with_work_seconds(w));
            }
            black_box(s.run().makespan_s)
        })
    });
    g.finish();
}

criterion_group!(
    paper,
    bench_fig1_timeline,
    bench_fig2_scaling,
    bench_table2_cross_machine,
    bench_fig3_overhead,
    bench_fig4_variability,
    bench_table3_static,
    bench_table4_policies,
    bench_fig5_fig6_timelines,
    bench_fig7_nonmpi,
    bench_queue,
);
criterion_main!(paper);
