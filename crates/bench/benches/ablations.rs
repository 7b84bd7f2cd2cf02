//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * FFT kernel: radix-2 vs Bluestein,
//! * period estimation: periodogram vs autocorrelation vs Welch,
//! * telemetry ring buffer vs `VecDeque`,
//! * event-engine throughput (one-shot and periodic),
//! * TBON RPC fan-out across tree sizes,
//! * FPP controller epoch step,
//! * FPP give-back: instant vs staged restore on the job queue,
//! * power-resolution hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fluxpm_fft::{autocorr_period, Complex64, FftPlanner, FftScratch, PeriodAnalyzer, Samples};
use fluxpm_hw::{lassen, Lanes, PowerDemand, Watts};
use fluxpm_manager::{FppConfig, FppController};
use fluxpm_monitor::RingBuffer;
use fluxpm_sim::{Engine, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::ops::ControlFlow;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.61).sin(), (i as f64 * 0.37).cos()))
        .collect()
}

fn bench_fft_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft_kernel");
    // 128: power of two (radix-2 path); 90: FPP's actual epoch length
    // (Bluestein path).
    let (mut planner, mut scratch, mut out) = (FftPlanner::new(), FftScratch::new(), Vec::new());
    for &n in &[90usize, 128] {
        let x = signal(n);
        g.bench_with_input(BenchmarkId::new("fast", n), &x, |b, x| {
            b.iter(|| {
                planner.fft_into(x, &mut out, &mut scratch);
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_period_estimators(c: &mut Criterion) {
    let samples: Vec<f64> = (0..90)
        .map(|t| {
            if (t as f64 / 10.0).fract() < 0.13 {
                560.0
            } else {
                220.0
            }
        })
        .collect();
    let long: Vec<f64> = (0..360)
        .map(|t| {
            if (t as f64 / 10.0).fract() < 0.13 {
                560.0
            } else {
                220.0
            }
        })
        .collect();
    let mut g = c.benchmark_group("period_estimation");
    let mut analyzer = PeriodAnalyzer::new();
    g.bench_function("periodogram", |b| {
        b.iter(|| black_box(analyzer.estimate_period(Samples::contiguous(&samples), 1.0)))
    });
    g.bench_function("autocorrelation", |b| {
        b.iter(|| black_box(autocorr_period(&samples, 1.0, 0.3)))
    });
    g.bench_function("welch_360", |b| {
        b.iter(|| black_box(analyzer.welch_estimate_period(Samples::contiguous(&long), 1.0, 90)))
    });
    g.bench_function("periodogram_360", |b| {
        b.iter(|| black_box(analyzer.estimate_period(Samples::contiguous(&long), 1.0)))
    });
    g.finish();
}

fn bench_subinstance(c: &mut Criterion) {
    use fluxpm_flux::{FluxEngine, JobProgram, JobSpec, StepCtx, StepOutcome, SubInstance, World};
    use fluxpm_hw::MachineKind;

    struct Sleep {
        secs: f64,
        done: f64,
    }
    impl JobProgram for Sleep {
        fn app_name(&self) -> &str {
            "sleep"
        }
        fn on_start(&mut self, _ctx: &mut StepCtx<'_>) {}
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
            self.done += ctx.dt;
            if self.done >= self.secs {
                StepOutcome::Done {
                    leftover_seconds: self.done - self.secs,
                }
            } else {
                StepOutcome::Running
            }
        }
    }

    c.bench_function("subinstance_eight_children", |b| {
        b.iter(|| {
            let mut inst = SubInstance::new("ui", 8);
            for i in 0..8 {
                inst = inst.with_child(
                    format!("c{i}"),
                    1 + (i % 3) as u32,
                    Box::new(Sleep {
                        secs: 20.0 + i as f64,
                        done: 0.0,
                    }),
                );
            }
            let mut w = World::new(MachineKind::Lassen, 8, 1);
            w.autostop_after = Some(1);
            let mut eng: FluxEngine = Engine::new();
            w.install_executor(&mut eng);
            w.submit(&mut eng, JobSpec::new("ui", 8), Box::new(inst));
            eng.run(&mut w);
            black_box(w.jobs.makespan_seconds())
        })
    });
}

fn bench_ring_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_buffer");
    g.bench_function("ring_buffer_push_wrap", |b| {
        b.iter(|| {
            let mut r = RingBuffer::new(1000);
            for i in 0..5000u64 {
                r.push(i);
            }
            black_box(r.len())
        })
    });
    g.bench_function("vecdeque_push_wrap", |b| {
        b.iter(|| {
            let mut d = VecDeque::with_capacity(1000);
            for i in 0..5000u64 {
                if d.len() == 1000 {
                    d.pop_front();
                }
                d.push_back(i);
            }
            black_box(d.len())
        })
    });
    g.finish();
}

fn bench_event_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_engine");
    g.bench_function("oneshot_10k", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..10_000u64 {
                eng.schedule(SimTime::from_micros(i * 7 % 9973), |w, _| *w += 1);
            }
            let mut world = 0u64;
            eng.run(&mut world);
            black_box(world)
        })
    });
    g.bench_function("periodic_10k_ticks", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            eng.schedule_every(SimTime::ZERO, SimDuration::from_micros(10), |w, _| {
                *w += 1;
                if *w >= 10_000 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            let mut world = 0u64;
            eng.run(&mut world);
            black_box(world)
        })
    });
    g.finish();
}

fn bench_tbon_rpc(c: &mut Criterion) {
    use fluxpm_flux::{payload, FluxEngine, Rank, World};
    use fluxpm_hw::MachineKind;
    let mut g = c.benchmark_group("tbon_rpc_fanout");
    for &nodes in &[8u32, 32, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            b.iter(|| {
                let mut w = World::new(MachineKind::Lassen, n, 1);
                let mut eng: FluxEngine = Engine::new();
                // Fan a no-service request out to every rank; unknown
                // service errors route back through the overlay, which
                // exercises the full round-trip path.
                let mut acks = 0u32;
                for r in 0..n {
                    w.rpc(Rank(r), "bench.nop", payload(()))
                        .from(Rank::ROOT)
                        .send(&mut eng, move |_, _, _| {});
                    acks += 1;
                }
                eng.run(&mut w);
                black_box(acks)
            })
        });
    }
    g.finish();
}

fn bench_controller(c: &mut Criterion) {
    let mut analyzer = PeriodAnalyzer::new();
    c.bench_function("fpp_controller_epoch", |b| {
        b.iter(|| {
            let mut ctl = FppController::new(FppConfig::default(), Watts(253.5));
            for epoch in 0..4 {
                for t in 0..90 {
                    let w = if ((t + epoch * 90) as f64 / 10.0).fract() < 0.13 {
                        140.0
                    } else {
                        55.0
                    };
                    ctl.store_power_sample(Watts(w));
                }
                black_box(ctl.on_epoch(&mut analyzer));
            }
            black_box(ctl.cap())
        })
    });
}

fn bench_stats_aggregation(c: &mut Criterion) {
    use fluxpm_flux::{FluxEngine, JobSpec, World};
    use fluxpm_hw::MachineKind;
    use fluxpm_monitor::{MonitorConfig, MonitorQuery};
    use fluxpm_workloads::{laghos, App, JitterModel};

    // Build one monitored world with a completed wide job, then compare
    // the direct fan-out query against the in-tree reduction.
    fn monitored_world(nodes: u32) -> (World, fluxpm_flux::JobId) {
        let mut w = World::new(MachineKind::Lassen, nodes, 3);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        fluxpm_monitor::load(&mut w, &mut eng, MonitorConfig::default());
        w.install_executor(&mut eng);
        let app = App::with_jitter(laghos(), MachineKind::Lassen, nodes, 1, JitterModel::none())
            .with_work_scale(4.0);
        let id = w.submit(&mut eng, JobSpec::new("Laghos", nodes), Box::new(app));
        eng.run(&mut w);
        (w, id)
    }

    let mut g = c.benchmark_group("stats_aggregation_64_nodes");
    g.sample_size(20);
    let (mut w1, id1) = monitored_world(64);
    g.bench_function("direct_fanout", |b| {
        b.iter(|| {
            let mut eng: FluxEngine = Engine::new();
            let query = MonitorQuery::job_stats(id1).send(&mut w1, &mut eng);
            eng.run(&mut w1);
            let done = query.ready();
            black_box(done)
        })
    });
    let (mut w2, id2) = monitored_world(64);
    g.bench_function("tree_reduce", |b| {
        b.iter(|| {
            let mut eng: FluxEngine = Engine::new();
            let query = MonitorQuery::job_stats_tree(id2).send(&mut w2, &mut eng);
            eng.run(&mut w2);
            let done = query.ready();
            black_box(done)
        })
    });
    g.finish();
}

fn bench_staged_give_back(c: &mut Criterion) {
    use fluxpm_experiments::experiments::queue::{epochs_to_restore, queue_jobs};
    use fluxpm_experiments::{JobRequest, PowerSetup, Scenario};
    use fluxpm_hw::MachineKind;
    use fluxpm_manager::ManagerConfig;

    // The §IV-E queue under FPP with each restore path (quarter-size
    // works keep iterations short, as in the paper-artifacts bench).
    fn run_queue(staged: bool) -> f64 {
        let mut config = ManagerConfig::fpp(Watts(16.0 * 1200.0));
        config.fpp.staged_give_back = staged;
        let mut s = Scenario::new(MachineKind::Lassen, 16).with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config,
        });
        for j in queue_jobs() {
            let w = j.work_seconds.unwrap_or(200.0) / 4.0;
            s = s.with_job(JobRequest::new(j.app, j.nnodes).with_work_seconds(w));
        }
        s.run().makespan_s
    }

    let mut g = c.benchmark_group("fpp_give_back");
    g.sample_size(10);
    g.bench_function("instant_restore_queue", |b| {
        b.iter(|| black_box(run_queue(false)))
    });
    g.bench_function("staged_restore_queue", |b| {
        b.iter(|| black_box(run_queue(true)))
    });
    // The controller-level restore cycle on its own.
    g.bench_function("staged_restore_cycle", |b| {
        b.iter(|| black_box(epochs_to_restore(true)))
    });
    g.finish();
}

fn bench_power_resolution(c: &mut Criterion) {
    let arch = lassen();
    let demand = PowerDemand {
        cpu: Lanes::filled(Watts(150.0), arch.sockets),
        memory: Watts(80.0),
        gpu: Lanes::filled(Watts(260.0), arch.gpus),
        other: arch.other,
    };
    let caps = vec![Some(Watts(200.0)); arch.gpus];
    c.bench_function("power_resolve_hot_path", |b| {
        b.iter(|| {
            black_box(fluxpm_hw::power::resolve(
                &arch,
                &demand,
                &caps,
                Some(Watts(1950.0)),
            ))
        })
    });
}

criterion_group!(
    ablations,
    bench_fft_kernels,
    bench_period_estimators,
    bench_ring_buffer,
    bench_event_engine,
    bench_tbon_rpc,
    bench_controller,
    bench_staged_give_back,
    bench_power_resolution,
    bench_subinstance,
    bench_stats_aggregation,
);
criterion_main!(ablations);
