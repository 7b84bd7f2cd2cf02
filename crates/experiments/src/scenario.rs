//! Scenario construction and execution.
//!
//! A [`Scenario`] is a declarative description of one experimental run:
//! machine, cluster size, jobs (with submit times and work overrides),
//! power setup (static OPAL caps and/or the manager stack), monitor
//! on/off, jitter model, and seed. [`Scenario::build`] assembles its
//! stack — the one place a world is put together — and `run()` executes
//! it to completion on the event engine and returns a [`RunReport`].
//!
//! Scenarios are plain data (`Send`), so repetition sweeps can fan out
//! across OS threads (see [`run_many`]).

use crate::report::{RunReport, Timeline};
use fluxpm_flux::{FluxEngine, JobId, JobSpec, ShardPlan, ShardingError, World};
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::{ClusterLevelManager, ManagerConfig};
use fluxpm_monitor::MonitorConfig;
use fluxpm_sim::{Engine, SimDuration, SimTime, Trace, TraceLevel};
use fluxpm_workloads::{App, JitterModel};
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

/// One job in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Paper application name (`"LAMMPS"`, `"GEMM"`, `"Quicksilver"`,
    /// `"Laghos"`, `"NQueens"`).
    pub app: String,
    /// Node count.
    pub nnodes: u32,
    /// Multiply the model's natural work (e.g. 2.0 for the Table IV
    /// GEMM).
    pub work_scale: Option<f64>,
    /// Override the total work outright, in reference seconds (e.g. the
    /// Table IV Quicksilver's 348 s).
    pub work_seconds: Option<f64>,
    /// Submission time, seconds from simulation start.
    pub submit_at_s: f64,
}

impl JobRequest {
    /// A job submitted at t = 0 with the model's natural work.
    pub fn new(app: impl Into<String>, nnodes: u32) -> JobRequest {
        JobRequest {
            app: app.into(),
            nnodes,
            work_scale: None,
            work_seconds: None,
            submit_at_s: 0.0,
        }
    }

    /// Builder: scale the work.
    pub fn with_work_scale(mut self, s: f64) -> JobRequest {
        self.work_scale = Some(s);
        self
    }

    /// Builder: set the work outright (reference seconds).
    pub fn with_work_seconds(mut self, s: f64) -> JobRequest {
        self.work_seconds = Some(s);
        self
    }

    /// Builder: submit later than t = 0.
    pub fn submit_at(mut self, t: f64) -> JobRequest {
        self.submit_at_s = t;
        self
    }
}

/// The power-management configuration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerSetup {
    /// No caps, no manager (the paper's *unconstrained* runs).
    Unconstrained,
    /// A static OPAL node cap on every node — the IBM default policy
    /// (paper Table III: 1200/1800/1950 W).
    StaticNodeCap(f64),
    /// A static OPAL baseline cap plus the manager stack (the paper's
    /// proportional / FPP configurations run over the validated 1950 W
    /// baseline).
    Managed {
        /// OPAL baseline node cap, if any.
        static_node_cap: Option<f64>,
        /// Manager configuration.
        config: ManagerConfig,
    },
}

/// One experimental run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which machine the cluster models.
    pub machine: MachineKind,
    /// Cluster size in nodes.
    pub nnodes: u32,
    /// RNG seed for everything stochastic in the run.
    pub seed: u64,
    /// OS-jitter model applied to applications.
    pub jitter: JitterModel,
    /// Load `flux-power-monitor` with this config (None = unloaded, the
    /// overhead experiment's baseline).
    pub monitor: Option<MonitorConfig>,
    /// Power setup.
    pub power: PowerSetup,
    /// Jobs to submit.
    pub jobs: Vec<JobRequest>,
    /// Timeline sampling period in seconds.
    pub sample_period_s: f64,
    /// Human label for reports (policy name etc.).
    pub label: String,
    /// Optional IBM Power Shifting Ratio override (Lassen only; default
    /// firmware PSR is 100, the paper's setting).
    pub psr: Option<u8>,
    /// Record a trace at this level (None = tracing off). Applied before
    /// the modules load, since the loads themselves trace.
    pub trace: Option<TraceLevel>,
    /// Build shard `.0` of a `.1`-shard full-fidelity run (see
    /// [`fluxpm_flux::world_shard`]). Applied before the modules load,
    /// since a load is confined to the ranks its shard owns.
    pub shard: Option<(usize, usize)>,
}

impl Scenario {
    /// A Lassen scenario with sensible defaults (no monitor, no caps,
    /// jitter-free for exact calibration; experiments opt into jitter).
    pub fn new(machine: MachineKind, nnodes: u32) -> Scenario {
        Scenario {
            machine,
            nnodes,
            seed: 0xF1u64,
            jitter: JitterModel::none(),
            monitor: None,
            power: PowerSetup::Unconstrained,
            jobs: Vec::new(),
            sample_period_s: 2.0,
            label: "unconstrained".into(),
            psr: None,
            trace: None,
            shard: None,
        }
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Builder: jitter model.
    pub fn with_jitter(mut self, jitter: JitterModel) -> Scenario {
        self.jitter = jitter;
        self
    }

    /// Builder: load the monitor.
    pub fn with_monitor(mut self, config: MonitorConfig) -> Scenario {
        self.monitor = Some(config);
        self
    }

    /// Builder: power setup.
    pub fn with_power(mut self, power: PowerSetup) -> Scenario {
        self.power = power;
        self
    }

    /// Builder: override the IBM Power Shifting Ratio (0-100).
    pub fn with_psr(mut self, psr: u8) -> Scenario {
        self.psr = Some(psr);
        self
    }

    /// Builder: add a job.
    pub fn with_job(mut self, job: JobRequest) -> Scenario {
        self.jobs.push(job);
        self
    }

    /// Builder: report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Scenario {
        self.label = label.into();
        self
    }

    /// Builder: record a trace at `level`.
    pub fn with_trace(mut self, level: TraceLevel) -> Scenario {
        self.trace = Some(level);
        self
    }

    /// Builder: build shard `shard` of a `shards`-shard run.
    pub fn with_shard(mut self, shard: usize, shards: usize) -> Scenario {
        self.shard = Some((shard, shards));
        self
    }

    /// Assemble the scenario's stack before any job is submitted: node
    /// agents on every broker and root components on the root, as the
    /// paper deploys its modules (§III-A, §III-B), in the order traces and
    /// fingerprints depend on — world, trace level, shard context, PSR,
    /// static caps, manager, monitor, executor. Also returns the
    /// cluster-level manager when one is loaded. The caller sets what is
    /// installed after the executor or read at run time: `autostop_after`,
    /// the horizon, `tbon.hop_latency`, a fault plan, the link monitor.
    ///
    /// Panics when the world refuses a static cap or the shard context.
    pub fn build(&self) -> (World, FluxEngine, Option<Rc<RefCell<ClusterLevelManager>>>) {
        self.build_with(self.trace.map_or_else(Trace::disabled, Trace::enabled))
    }

    /// [`Scenario::build`], recording into `trace` in place of the trace
    /// `self.trace` names: the storm's hashed trace keeps no text.
    pub(crate) fn build_with(
        &self,
        trace: Trace,
    ) -> (World, FluxEngine, Option<Rc<RefCell<ClusterLevelManager>>>) {
        let mut world = World::new(self.machine, self.nnodes, self.seed);
        let mut eng: FluxEngine = Engine::new();
        world.trace = trace;
        if let Some((shard, shards)) = self.shard {
            if let Err(e) = self.enable_sharding(&mut world, shard, shards) {
                panic!("scenario: cannot build shard {shard} of {shards}: {e}");
            }
        }
        if let Some(psr) = self.psr {
            for n in &mut world.nodes {
                if let Some(opal) = n.opal.as_mut() {
                    opal.set_psr(psr);
                }
            }
        }
        let (static_cap, manager) = match &self.power {
            PowerSetup::Unconstrained => (None, None),
            PowerSetup::StaticNodeCap(cap) => (Some(*cap), None),
            PowerSetup::Managed {
                static_node_cap,
                config,
            } => (*static_node_cap, Some(config)),
        };
        if let Some(cap) = static_cap {
            for n in &mut world.nodes {
                if let Err(e) = n.set_node_cap(Watts(cap)) {
                    panic!("scenario: static {cap} W node cap refused: {e}");
                }
            }
        }
        let cluster =
            manager.map(|config| fluxpm_manager::load(&mut world, &mut eng, config.clone()));
        if let Some(cfg) = &self.monitor {
            // A fresh world has no modules, so no load can collide.
            fluxpm_monitor::load(&mut world, &mut eng, cfg.clone());
        }
        world.install_executor(&mut eng);
        (world, eng, cluster)
    }

    /// Make `world` shard `shard` and register the payload types of the
    /// stacks `build` loads, which may cross a shard cut. Registration
    /// order is part of the wire contract: identical on every shard.
    fn enable_sharding(
        &self,
        world: &mut World,
        shard: usize,
        shards: usize,
    ) -> Result<(), ShardingError> {
        // The plan is a pure function of the fresh k-ary tree, so every
        // replica computes the same one.
        let plan = Arc::new(ShardPlan::for_tbon(&world.tbon, shards));
        world.enable_sharding(shard, plan, self.seed)?;
        if self.monitor.is_some() {
            world.register_wire_type::<fluxpm_monitor::MonitorRequest>()?;
            world.register_wire_type::<fluxpm_monitor::MonitorReply>()?;
        }
        if matches!(self.power, PowerSetup::Managed { .. }) {
            world.register_wire_type::<fluxpm_manager::ManagerRequest>()?;
            world.register_wire_type::<fluxpm_manager::ManagerReply>()?;
        }
        world.register_wire_type::<JobId>()?;
        world.register_wire_type::<()>()
    }

    /// Instantiate the `App` program for a job request.
    fn build_app(&self, req: &JobRequest, seed: u64) -> App {
        let model = match req.app.as_str() {
            "LAMMPS" => fluxpm_workloads::lammps(),
            "GEMM" => fluxpm_workloads::gemm(),
            "Quicksilver" => fluxpm_workloads::quicksilver(),
            "Laghos" => fluxpm_workloads::laghos(),
            "NQueens" => fluxpm_workloads::nqueens(),
            other => panic!("unknown application {other:?}"),
        };
        let mut app = App::with_jitter(model, self.machine, req.nnodes, seed, self.jitter);
        if let Some(s) = req.work_scale {
            app = app.with_work_scale(s);
        }
        if let Some(s) = req.work_seconds {
            app = app.with_work_seconds(s);
        }
        app
    }

    /// Execute the scenario to completion.
    pub fn run(&self) -> RunReport {
        assert!(!self.jobs.is_empty(), "scenario needs at least one job");
        let (mut world, mut eng, _) = self.build();
        world.autostop_after = Some(self.jobs.len() as u64);

        let period = SimDuration::from_secs_f64(self.sample_period_s);
        let timeline = sample_timeline(&world, &mut eng, period);

        // Submissions.
        for (i, req) in self.jobs.iter().enumerate() {
            let app = self.build_app(req, self.seed.wrapping_add(1000 + i as u64));
            let spec = JobSpec::new(req.app.clone(), req.nnodes);
            let at = SimTime::from_micros((req.submit_at_s * 1e6) as u64);
            eng.schedule(at, move |w: &mut World, eng| {
                w.submit(eng, spec, Box::new(app));
            });
        }

        eng.run(&mut world);
        assert!(world.jobs.all_complete(), "scenario must drain its queue");

        RunReport::collect(
            &world,
            self.label.clone(),
            self.sample_period_s,
            timeline.take(),
        )
    }
}

/// Install the timeline sampler — a full sensor scan of every node each
/// `period`, until the world halts — and return the [`Timeline`] it
/// fills; the caller `take`s it once the engine has run.
pub(crate) fn sample_timeline(
    world: &World,
    eng: &mut FluxEngine,
    period: SimDuration,
) -> Rc<RefCell<Timeline>> {
    let hostnames = world.brokers.iter().map(|b| Arc::clone(&b.hostname));
    let timeline = Rc::new(RefCell::new(Timeline::new(hostnames)));
    let sink = Rc::clone(&timeline);
    eng.schedule_every(SimTime::ZERO + period, period, move |w: &mut World, eng| {
        if w.halted {
            return ControlFlow::Break(());
        }
        let ts = eng.now().as_micros();
        let readings = w.nodes.iter_mut().map(|node| node.read_sensors());
        sink.borrow_mut().record(ts, readings);
        ControlFlow::Continue(())
    });
    timeline
}

/// Run many scenarios in parallel OS threads (one per scenario, bounded
/// by the machine's parallelism), returning reports in input order.
pub fn run_many(scenarios: Vec<Scenario>) -> Vec<RunReport> {
    let max_threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let chunk = scenarios.len().div_ceil(max_threads).max(1);
    std::thread::scope(|scope| {
        let sweeps: Vec<_> = scenarios
            .chunks(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter().map(Scenario::run).collect::<Vec<_>>()))
            .collect();
        sweeps
            .into_iter()
            .flat_map(|sweep| {
                sweep
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect()
    })
}

/// Descriptive one-line summary of a job mix (for experiment logs).
pub fn describe_jobs(jobs: &[JobRequest]) -> String {
    jobs.iter()
        .map(|j| format!("{}x{}", j.app, j.nnodes))
        .collect::<Vec<_>>()
        .join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_scenario_runs() {
        let r = Scenario::new(MachineKind::Lassen, 2)
            .with_job(JobRequest::new("Laghos", 2))
            .run();
        assert_eq!(r.jobs.len(), 1);
        let j = &r.jobs[0];
        assert!((j.runtime_s - 12.55).abs() < 1.5, "{}", j.runtime_s);
        assert!(j.avg_node_power_w > 400.0);
        assert!(r.makespan_s >= j.runtime_s);
    }

    #[test]
    fn delayed_submission_respected() {
        let r = Scenario::new(MachineKind::Lassen, 2)
            .with_job(JobRequest::new("Laghos", 2))
            .with_job(JobRequest::new("Laghos", 1).submit_at(30.0))
            .run();
        assert!(r.jobs[1].start_s >= 30.0);
    }

    #[test]
    fn static_cap_scenario() {
        let r = Scenario::new(MachineKind::Lassen, 2)
            .with_power(PowerSetup::StaticNodeCap(1200.0))
            .with_job(JobRequest::new("GEMM", 2))
            .run();
        // GPU capped at 100 W -> max node power ~840 W.
        assert!(
            r.jobs[0].max_node_power_w < 900.0,
            "{}",
            r.jobs[0].max_node_power_w
        );
    }

    #[test]
    fn run_many_preserves_order() {
        let mk = |n: u32| {
            Scenario::new(MachineKind::Lassen, n)
                .with_label(format!("n{n}"))
                .with_job(JobRequest::new("Laghos", n))
        };
        let rs = run_many(vec![mk(1), mk(2), mk(4)]);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].label, "n1");
        assert_eq!(rs[2].label, "n4");
    }

    #[test]
    fn describe_jobs_format() {
        let jobs = vec![JobRequest::new("GEMM", 6), JobRequest::new("NQueens", 2)];
        assert_eq!(describe_jobs(&jobs), "GEMMx6 + NQueensx2");
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_scenario_rejected() {
        Scenario::new(MachineKind::Lassen, 1).run();
    }

    #[test]
    #[should_panic(expected = "cannot build shard 2 of 2")]
    fn a_shard_outside_the_plan_is_refused() {
        Scenario::new(MachineKind::Lassen, 16)
            .with_shard(2, 2)
            .build();
    }

    #[test]
    #[should_panic(expected = "node cap refused")]
    fn a_static_cap_on_a_machine_that_cannot_cap_is_refused() {
        Scenario::new(MachineKind::Tioga, 2)
            .with_power(PowerSetup::StaticNodeCap(1200.0))
            .build();
    }
}

#[cfg(test)]
mod more_scenario_tests {
    use super::*;
    use fluxpm_manager::ManagerConfig;

    #[test]
    fn psr_override_applies_to_opal() {
        // At PSR 0 the derived cap at a 1950 W node cap is ~153.5 W, so a
        // GEMM node draws far less than at PSR 100.
        let run_at = |psr: u8| {
            Scenario::new(MachineKind::Lassen, 1)
                .with_power(PowerSetup::StaticNodeCap(1950.0))
                .with_psr(psr)
                .with_job(JobRequest::new("GEMM", 1).with_work_seconds(60.0))
                .run()
                .jobs[0]
                .max_node_power_w
        };
        let high = run_at(100);
        let low = run_at(0);
        assert!(
            low < high - 300.0,
            "PSR 0 starves the GPUs: {low} vs {high}"
        );
    }

    #[test]
    fn managed_without_static_cap() {
        // The manager can run without an OPAL baseline: limits are then
        // enforced purely through NVML caps.
        let r = Scenario::new(MachineKind::Lassen, 4)
            .with_power(PowerSetup::Managed {
                static_node_cap: None,
                config: ManagerConfig::proportional(Watts(4.0 * 1200.0)),
            })
            .with_job(JobRequest::new("GEMM", 4).with_work_seconds(120.0))
            .run();
        // Per-node share 1200 W -> derived GPU caps 200 W -> node ~1120 W.
        let j = &r.jobs[0];
        assert!(
            (j.max_node_power_w - 1120.0).abs() < 60.0,
            "{}",
            j.max_node_power_w
        );
    }

    #[test]
    fn tioga_scenarios_never_touch_caps() {
        let r = Scenario::new(MachineKind::Tioga, 2)
            .with_job(JobRequest::new("Laghos", 2))
            .run();
        assert!(r.jobs[0].runtime_s > 20.0, "task-doubled Laghos");
    }
}
