//! The runnable application: an [`AppModel`] wired into Flux's
//! [`JobProgram`] interface.
//!
//! Each executor slice the app:
//!
//! 1. reads the throttle factors its nodes experienced (the hardware's
//!    response to whatever caps were in force),
//! 2. converts them to an application speed (bottleneck composition ×
//!    jitter × stolen-CPU penalty, synchronized across nodes like a
//!    bulk-synchronous MPI code),
//! 3. advances its progress and reports completion with sub-slice
//!    precision,
//! 4. publishes its demand for the *next* interval from its phase signal.

use crate::jitter::JitterModel;
use crate::model::{AppModel, PhasePattern};
use fluxpm_flux::{JobProgram, StepCtx, StepOutcome};
use fluxpm_hw::{Lanes, MachineKind, NodeHardware, PowerDemand, Watts};
use fluxpm_sim::{SimTime, Xoshiro256pp};

/// A running (or about-to-run) application instance.
pub struct App {
    model: AppModel,
    machine: MachineKind,
    nnodes: u32,
    /// Total work in reference-speed seconds.
    work: f64,
    /// Accumulated progress in reference-speed seconds.
    progress: f64,
    /// Wall-clock start (set by `on_start`).
    started_at: Option<SimTime>,
    /// Per-run jitter factor.
    run_jitter: f64,
    /// Small per-node speed imbalance factors.
    node_jitter: Vec<f64>,
}

impl App {
    /// Instantiate an application for a machine and node count. `seed`
    /// drives the jitter draws (use distinct seeds for repeated runs).
    pub fn new(model: AppModel, machine: MachineKind, nnodes: u32, seed: u64) -> App {
        App::with_jitter(model, machine, nnodes, seed, JitterModel::default())
    }

    /// Like [`App::new`] with an explicit jitter model (tests use
    /// [`JitterModel::none`] for exact calibration checks).
    pub fn with_jitter(
        model: AppModel,
        machine: MachineKind,
        nnodes: u32,
        seed: u64,
        jitter: JitterModel,
    ) -> App {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xA99_0B5E);
        let run_jitter = jitter.draw(model.name, machine, nnodes, &mut rng);
        // Per-node imbalance is an order of magnitude below the run
        // factor; it makes the min-over-nodes composition meaningful.
        let sigma = jitter.sigma_for(model.name, machine, nnodes) / 8.0;
        let node_jitter = (0..nnodes)
            .map(|_| {
                if sigma == 0.0 {
                    1.0
                } else {
                    1.0 / rng.lognormal(-sigma * sigma / 2.0, sigma).max(0.5)
                }
            })
            .collect();
        let work = model.work_for(machine, nnodes);
        App {
            model,
            machine,
            nnodes,
            work,
            progress: 0.0,
            started_at: None,
            run_jitter,
            node_jitter,
        }
    }

    /// Scale the total work (e.g. the paper's "double the iteration
    /// count" GEMM and "10x problem size" Quicksilver variants).
    pub fn with_work_scale(mut self, scale: f64) -> App {
        assert!(scale > 0.0);
        self.work = self.model.work_for(self.machine, self.nnodes) * scale;
        self
    }

    /// Override the total work outright (seconds at reference speed).
    pub fn with_work_seconds(mut self, seconds: f64) -> App {
        assert!(seconds > 0.0);
        self.work = seconds;
        self
    }

    /// The model this app runs.
    pub fn model(&self) -> &AppModel {
        &self.model
    }

    /// Fraction of the work completed so far.
    pub fn progress_fraction(&self) -> f64 {
        (self.progress / self.work).clamp(0.0, 1.0)
    }

    /// Expected unconstrained runtime in seconds (work / machine speed).
    pub fn expected_runtime(&self) -> f64 {
        self.work / self.model.profile(self.machine).speed
    }

    /// The demand this app places on one node at phase-clock `t` seconds.
    fn demand_at(&self, t: f64, node: &NodeHardware) -> PowerDemand {
        let arch = &node.arch;
        let p = self.model.profile(self.machine);
        let gpu_hi = self.model.gpu_demand_at(self.machine, self.nnodes);
        // Strong-scaled apps shrink the low level by the same ratio.
        let gpu_lo = p.low_gpu_w * (gpu_hi / p.gpu_w);
        let (cpu_w, gpu_w) = match self.model.phase {
            PhasePattern::Flat => (p.cpu_w, gpu_hi),
            PhasePattern::Square { period_s, duty } => {
                let pos = (t / period_s).fract();
                if pos < duty {
                    (p.cpu_w, gpu_hi)
                } else {
                    (p.low_cpu_w, gpu_lo)
                }
            }
            PhasePattern::Sine {
                period_s,
                amplitude,
            } => {
                let s = (2.0 * std::f64::consts::PI * t / period_s).sin();
                (p.cpu_w * (1.0 + amplitude * s), gpu_hi)
            }
        };
        PowerDemand {
            cpu: Lanes::filled(Watts(cpu_w), arch.sockets),
            memory: Watts(p.mem_w),
            gpu: Lanes::filled(Watts(gpu_w), arch.gpus),
            other: arch.other,
        }
    }

    /// Application speed during the last slice, from the throttles each
    /// node actually experienced.
    fn speed_now(&self, ctx: &mut StepCtx<'_>) -> f64 {
        let p = self.model.profile(self.machine);
        let mut min_node = f64::INFINITY;
        for (i, node) in ctx.nodes.iter_mut().enumerate() {
            let throttle = node.draw().throttle;
            let s = self.model.app_speed(throttle.mean_gpu, throttle.cpu) * self.node_jitter[i];
            // Host CPU stolen by sensor reads delays the application on
            // that node for the stolen wall-time.
            let lost = if ctx.dt > 0.0 {
                (ctx.lost_cpu_seconds.get(i).copied().unwrap_or(0.0) / ctx.dt).min(1.0)
            } else {
                0.0
            };
            min_node = min_node.min(s * (1.0 - lost));
        }
        if !min_node.is_finite() {
            min_node = 1.0;
        }
        // Bulk-synchronous composition: the app advances at the slowest
        // node's pace, scaled by machine speed and the per-run jitter.
        min_node * p.speed * self.run_jitter
    }
}

impl JobProgram for App {
    fn app_name(&self) -> &str {
        self.model.name
    }

    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        self.started_at = Some(ctx.now);
        self.progress = 0.0;
        for node in &mut ctx.nodes {
            let d = self.demand_at(0.0, node);
            node.set_demand(d);
        }
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
        if self.model.crashes_on == Some(self.machine) {
            return StepOutcome::Crashed {
                reason: format!(
                    "{} does not run on {}",
                    self.model.name,
                    self.machine.name()
                ),
            };
        }
        // invariant: the executor runs `on_start`, which sets
        // `started_at`, before the first `step`.
        let start = self.started_at.expect("step before on_start");
        let t = (ctx.now - start).as_secs_f64();
        let speed = self.speed_now(ctx);
        self.progress += ctx.dt * speed;

        if self.progress >= self.work && speed > 0.0 {
            let leftover = ((self.progress - self.work) / speed).min(ctx.dt);
            return StepOutcome::Done {
                leftover_seconds: leftover,
            };
        }

        // Publish demand for the next interval from the phase signal.
        for node in &mut ctx.nodes {
            let d = self.demand_at(t, node);
            node.set_demand(d);
        }
        StepOutcome::Running
    }
}

/// Convenience: instantiate an app by paper name (as used in job queues).
pub fn app_by_name(name: &str, machine: MachineKind, nnodes: u32, seed: u64) -> Option<App> {
    let model = match name {
        "LAMMPS" => crate::apps::lammps(),
        "GEMM" => crate::apps::gemm(),
        "Quicksilver" => crate::apps::quicksilver(),
        "Laghos" => crate::apps::laghos(),
        "NQueens" => crate::apps::nqueens(),
        "Kripke" => crate::apps::kripke(),
        _ => return None,
    };
    Some(App::new(model, machine, nnodes, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{gemm, laghos, lammps, quicksilver};
    use fluxpm_flux::{FluxEngine, JobSpec, World};
    use fluxpm_hw::MachineKind::{Lassen, Tioga};
    use fluxpm_sim::Engine;

    fn run_app(app: App, machine: MachineKind, nnodes: u32, cluster: u32) -> (World, f64) {
        let mut w = World::new(machine, cluster, 99);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        w.install_executor(&mut eng);
        let name = app.app_name().to_string();
        let id = w.submit(&mut eng, JobSpec::new(name, nnodes), Box::new(app));
        eng.run(&mut w);
        let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        (w, rt)
    }

    fn quiet(model: AppModel, machine: MachineKind, nnodes: u32) -> App {
        App::with_jitter(model, machine, nnodes, 1, JitterModel::none())
    }

    #[test]
    fn lammps_runtime_matches_table2_lassen() {
        let (_, rt) = run_app(quiet(lammps(), Lassen, 4), Lassen, 4, 4);
        assert!((rt - 77.17).abs() < 1.5, "paper 77.17 s, got {rt}");
        let (_, rt8) = run_app(quiet(lammps(), Lassen, 8), Lassen, 8, 8);
        assert!((rt8 - 46.33).abs() < 1.5, "paper 46.33 s, got {rt8}");
    }

    #[test]
    fn lammps_runtime_matches_table2_tioga() {
        let (_, rt) = run_app(quiet(lammps(), Tioga, 4), Tioga, 4, 4);
        assert!((rt - 51.0).abs() < 2.0, "paper 51.00 s, got {rt}");
    }

    #[test]
    fn quicksilver_hip_anomaly_on_tioga() {
        let (_, rt) = run_app(quiet(quicksilver(), Tioga, 4), Tioga, 4, 4);
        assert!((100.0..110.0).contains(&rt), "paper 102.03 s, got {rt}");
    }

    #[test]
    fn laghos_energy_shape_across_machines() {
        let (wl, rt_l) = run_app(quiet(laghos(), Lassen, 4), Lassen, 4, 4);
        let (wt, rt_t) = run_app(quiet(laghos(), Tioga, 4), Tioga, 4, 4);
        assert!((rt_l - 12.55).abs() < 1.2, "{rt_l}");
        assert!((rt_t - 26.71).abs() < 1.5, "{rt_t}");
        // Per-node energy roughly doubles on Tioga (paper: 5.94 -> 14.18
        // kJ, a 139 % increase).
        let e_l = wl.nodes[0].meter.total.get();
        let e_t = wt.nodes[0].meter.total.get();
        assert!(e_t / e_l > 1.8, "Tioga/Lassen energy ratio {}", e_t / e_l);
    }

    #[test]
    fn gemm_slows_under_gpu_cap() {
        // Uncapped.
        let (_, rt_free) = run_app(quiet(gemm(), Lassen, 2), Lassen, 2, 2);
        // 100 W GPU cap (the IBM-default regime).
        let mut w = World::new(Lassen, 2, 5);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        for n in &mut w.nodes {
            for g in 0..4 {
                n.set_gpu_cap(g, Watts(100.0)).unwrap();
            }
        }
        w.install_executor(&mut eng);
        let id = w.submit(
            &mut eng,
            JobSpec::new("GEMM", 2),
            Box::new(quiet(gemm(), Lassen, 2)),
        );
        eng.run(&mut w);
        let rt_capped = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        let slowdown = rt_capped / rt_free;
        // Paper Table IV: 2.09x.
        assert!((slowdown - 2.09).abs() < 0.2, "slowdown {slowdown}");
    }

    #[test]
    fn quicksilver_period_visible_in_power() {
        let model = quicksilver();
        let mut w = World::new(Lassen, 1, 5);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        w.install_executor(&mut eng);
        let app = quiet(model, Lassen, 1).with_work_scale(10.0);
        w.submit(&mut eng, JobSpec::new("Quicksilver", 1), Box::new(app));
        // Sample node power every second while running.
        let samples = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let s2 = std::rc::Rc::clone(&samples);
        eng.schedule_every(
            SimTime::from_millis(500),
            fluxpm_sim::SimDuration::from_secs(1),
            move |w: &mut World, _| {
                if w.halted {
                    return std::ops::ControlFlow::Break(());
                }
                s2.borrow_mut().push(w.nodes[0].draw().total().get());
                std::ops::ControlFlow::Continue(())
            },
        );
        eng.run(&mut w);
        let xs = samples.borrow();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        assert!(max - min > 200.0, "square wave must swing: {min}..{max}");
    }

    #[test]
    fn overhead_charging_slows_app() {
        // A 10 s app with 50 % of each second stolen should take ~2x.
        let model = laghos();
        let mut w = World::new(Lassen, 1, 5);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        w.install_executor(&mut eng);
        let id = w.submit(
            &mut eng,
            JobSpec::new("Laghos", 1),
            Box::new(quiet(model, Lassen, 1)),
        );
        eng.schedule_every(
            SimTime::from_millis(100),
            fluxpm_sim::SimDuration::from_secs(1),
            move |w: &mut World, _| {
                if w.halted {
                    return std::ops::ControlFlow::Break(());
                }
                w.charge_overhead(fluxpm_hw::NodeId(0), 0.5);
                std::ops::ControlFlow::Continue(())
            },
        );
        eng.run(&mut w);
        let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        assert!(
            (rt / 12.55 - 2.0).abs() < 0.2,
            "expected ~2x, got {}",
            rt / 12.55
        );
    }

    #[test]
    fn work_scale_scales_runtime() {
        let (_, rt1) = run_app(quiet(gemm(), Lassen, 2), Lassen, 2, 2);
        let app = quiet(gemm(), Lassen, 2).with_work_scale(2.0);
        let (_, rt2) = run_app(app, Lassen, 2, 2);
        assert!((rt2 / rt1 - 2.0).abs() < 0.05, "{rt2} vs {rt1}");
    }

    #[test]
    fn app_by_name_roundtrip() {
        for name in ["LAMMPS", "GEMM", "Quicksilver", "Laghos", "NQueens"] {
            let app = app_by_name(name, Lassen, 2, 1).unwrap();
            assert_eq!(app.app_name(), name);
        }
        assert!(app_by_name("HPL", Lassen, 2, 1).is_none());
    }

    #[test]
    fn progress_fraction_tracks() {
        let app = quiet(gemm(), Lassen, 2);
        assert_eq!(app.progress_fraction(), 0.0);
        assert!(app.expected_runtime() > 0.0);
    }
}
