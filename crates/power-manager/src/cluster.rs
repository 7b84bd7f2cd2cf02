//! The cluster-level manager (paper §III-B).
//!
//! Runs on the root node. State-aware: it subscribes to job lifecycle
//! events, maintains the proportional allocator over the global power
//! bound, and pushes updated *job-level power limits* to the job-level
//! manager whenever the allocation changes (admission or reclaim).

use crate::allocator::ProportionalAllocator;
use crate::proto::{JobLimitMsg, ManagerRequest, PolicyKind, TOPIC_JOB_LIMIT};
use crate::ManagerConfig;
use fluxpm_flux::world::{EVENT_JOB_EXCEPTION, EVENT_JOB_FINISH, EVENT_JOB_START};
use fluxpm_flux::{
    JobId, Message, Module, ModuleCtx, MsgKind, Protocol, RetryPolicy, StateEvent, StateValue,
    Topic,
};
use fluxpm_hw::Watts;
use fluxpm_sim::TraceLevel;
use std::cell::RefCell;
use std::rc::Rc;

/// Module name, also the key under which state events are logged.
pub const CLUSTER_MANAGER: &str = "power-manager-cluster";

/// The `flux-power-manager` cluster-level component.
pub struct ClusterLevelManager {
    config: ManagerConfig,
    allocator: Option<ProportionalAllocator>,
    /// Limit updates pushed (diagnostics).
    updates_sent: u64,
    /// The topic limits are pushed on, interned once.
    job_limit: Topic,
}

impl ClusterLevelManager {
    /// Create an unloaded manager.
    pub fn new(config: ManagerConfig) -> ClusterLevelManager {
        ClusterLevelManager {
            config,
            allocator: None,
            updates_sent: 0,
            job_limit: Topic::intern(TOPIC_JOB_LIMIT),
        }
    }

    /// Create as a shared module handle.
    pub fn shared(config: ManagerConfig) -> Rc<RefCell<ClusterLevelManager>> {
        Rc::new(RefCell::new(ClusterLevelManager::new(config)))
    }

    /// Limit updates pushed so far.
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// The current per-node allocation, if constrained.
    pub fn per_node_limit(&self) -> Option<fluxpm_hw::Watts> {
        self.allocator.as_ref().map(|a| a.per_node_limit())
    }

    /// The current per-job limits (empty when unconstrained). Survives a
    /// root failover — the allocator migrates with the module.
    pub fn job_limits(&self) -> Vec<(JobId, fluxpm_hw::Watts)> {
        self.allocator
            .as_ref()
            .map(|a| a.all_job_limits())
            .unwrap_or_default()
    }

    fn ensure_allocator(&mut self, ctx: &ModuleCtx<'_>) {
        if self.allocator.is_none() {
            if let Some(bound) = self.config.global_bound {
                let peak = ctx.world.nodes[0].arch.capping.max_node_cap;
                let peak = if peak.get() > 0.0 {
                    peak
                } else {
                    ctx.world.nodes[0].arch.peak_node_power()
                };
                self.allocator = Some(ProportionalAllocator::new(bound, peak));
            }
        }
    }

    /// Push the current limit of every allocated job to the job-level
    /// manager.
    fn push_all_limits(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(alloc) = &self.allocator else { return };
        let limits = alloc.all_job_limits();
        // The job-level manager is co-resident on this manager's rank
        // (rank 0 initially; the failover successor after a migration).
        let here = ctx.rank;
        for (job, limit) in limits {
            // Canonical record for sharded byte-equality checks (no-op
            // on classic worlds): the cluster-level allocation decision.
            ctx.world.record(
                ctx.eng.now(),
                here.0,
                fluxpm_flux::shard::rec::JOB_LIMIT,
                job.0,
                (limit.get() * 1000.0).round() as u64,
            );
            // Acked + retried so a lost push cannot leave the job-level
            // manager holding a stale allocation.
            let req = ManagerRequest::JobLimit(JobLimitMsg { job, limit });
            ctx.world
                .rpc(here, &self.job_limit, req.encode())
                .from(here)
                .retry(RetryPolicy::default())
                .send(ctx.eng, move |world, eng, resp| {
                    if resp.is_timeout() {
                        world.trace.emit(
                            eng.now(),
                            TraceLevel::Warn,
                            "manager",
                            format!("job-limit push for {job:?} gave up: {:?}", resp.error),
                        );
                    }
                });
            self.updates_sent += 1;
        }
    }

    fn on_job_start(&mut self, ctx: &mut ModuleCtx<'_>, job: JobId) {
        if self.config.policy == PolicyKind::Unconstrained {
            return; // nothing to cap; nodes run at nameplate
        }
        self.ensure_allocator(ctx);
        let Some(nnodes) = ctx.world.jobs.get(job).map(|j| j.spec.nnodes) else {
            return;
        };
        if let Some(alloc) = &mut self.allocator {
            let per_node = alloc.admit(job, nnodes);
            // Log the admission as a self-contained event: it carries
            // the bound and peak so replay after full instance death can
            // rebuild the allocator without re-deriving hardware facts.
            let ev = StateValue::record([
                ("job", StateValue::U64(job.0)),
                ("nnodes", StateValue::U64(nnodes as u64)),
                ("bound", StateValue::F64(alloc.global_bound().get())),
                ("peak", StateValue::F64(alloc.node_peak().get())),
            ]);
            ctx.world
                .state
                .append(ctx.eng.now().as_micros(), CLUSTER_MANAGER, "admit", ev);
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Info,
                "manager",
                format!("admit {job:?} ({nnodes} nodes) -> {per_node}/node"),
            );
        }
        self.push_all_limits(ctx);
    }

    fn on_job_finish(&mut self, ctx: &mut ModuleCtx<'_>, job: JobId) {
        if let Some(alloc) = &mut self.allocator {
            let per_node = alloc.release(job);
            ctx.world.state.append(
                ctx.eng.now().as_micros(),
                CLUSTER_MANAGER,
                "release",
                StateValue::record([("job", StateValue::U64(job.0))]),
            );
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Info,
                "manager",
                format!("reclaim {job:?} -> {per_node}/node"),
            );
            self.push_all_limits(ctx);
        }
    }

    /// Rebuild an allocator from an event's embedded bound/peak.
    fn allocator_from_event(data: &StateValue) -> Option<ProportionalAllocator> {
        let bound = data.f64_field("bound")?;
        let peak = data.f64_field("peak")?;
        Some(ProportionalAllocator::new(Watts(bound), Watts(peak)))
    }
}

impl Module for ClusterLevelManager {
    fn name(&self) -> &'static str {
        CLUSTER_MANAGER
    }

    fn topics(&self) -> Rc<[Topic]> {
        fluxpm_flux::topic_list![EVENT_JOB_START, EVENT_JOB_FINISH, EVENT_JOB_EXCEPTION]
    }

    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind != MsgKind::Event {
            return;
        }
        let Some(&job) = msg.payload_as::<JobId>() else {
            return;
        };
        match msg.topic.as_str() {
            t if t == EVENT_JOB_START => self.on_job_start(ctx, job),
            t if t == EVENT_JOB_FINISH || t == EVENT_JOB_EXCEPTION => self.on_job_finish(ctx, job),
            _ => {}
        }
    }

    fn root_service(&self) -> bool {
        true
    }

    fn on_migrate(&mut self, ctx: &mut ModuleCtx<'_>) {
        // The budgets (allocator state) migrated with this module; any
        // limit push in flight when the old root died did not. Re-push
        // every allocation under the new topology epoch so the job- and
        // node-level managers reconverge.
        ctx.world.trace.emit(
            ctx.eng.now(),
            TraceLevel::Info,
            "manager",
            format!(
                "cluster manager migrated to {}; re-pushing {} job limit(s)",
                ctx.rank,
                self.job_limits().len()
            ),
        );
        self.push_all_limits(ctx);
    }

    /// The replayable state: the budgets. Diagnostics counters
    /// (`updates_sent`) are deliberately excluded — they count messages,
    /// not state, and re-pushes after recovery legitimately differ.
    fn snapshot(&self) -> Option<StateValue> {
        let alloc = self.allocator.as_ref()?;
        let jobs: Vec<StateValue> = alloc
            .admitted_jobs()
            .map(|(job, n)| {
                StateValue::record([
                    ("job", StateValue::U64(job.0)),
                    ("nnodes", StateValue::U64(n as u64)),
                ])
            })
            .collect();
        Some(StateValue::record([
            ("bound", StateValue::F64(alloc.global_bound().get())),
            ("peak", StateValue::F64(alloc.node_peak().get())),
            ("jobs", jobs.into()),
        ]))
    }

    fn restore(&mut self, snapshot: &StateValue) {
        let (Some(bound), Some(peak)) = (snapshot.f64_field("bound"), snapshot.f64_field("peak"))
        else {
            return;
        };
        let jobs = snapshot
            .get("jobs")
            .and_then(|j| j.as_list())
            .unwrap_or_default()
            .iter()
            .filter_map(|j| Some((JobId(j.u64_field("job")?), j.u64_field("nnodes")? as u32)));
        self.allocator = Some(ProportionalAllocator::from_parts(
            Watts(bound),
            Watts(peak),
            jobs,
        ));
    }

    fn apply_event(&mut self, event: &StateEvent) {
        match event.kind {
            "admit" => {
                if self.allocator.is_none() {
                    self.allocator = Self::allocator_from_event(&event.data);
                }
                let (Some(job), Some(n)) =
                    (event.data.u64_field("job"), event.data.u64_field("nnodes"))
                else {
                    return;
                };
                if let Some(alloc) = &mut self.allocator {
                    alloc.admit(JobId(job), n as u32);
                }
            }
            "release" => {
                if let (Some(alloc), Some(job)) =
                    (self.allocator.as_mut(), event.data.u64_field("job"))
                {
                    alloc.release(JobId(job));
                }
            }
            _ => {}
        }
    }
}
