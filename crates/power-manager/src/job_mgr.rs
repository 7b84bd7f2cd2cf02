//! The job-level manager (paper §III-B).
//!
//! Runs on the root node. Receives each job's power limit from the
//! cluster-level manager, splits it equally across the job's nodes, and
//! RPCs every node-level manager. It mirrors the complete state of the
//! jobs it manages.

use crate::proto::{
    JobLimitMsg, ManagerReply, ManagerRequest, NodeLimitMsg, TOPIC_JOB_LIMIT, TOPIC_SET_NODE_LIMIT,
};
use fluxpm_flux::{
    JobId, Message, Module, ModuleCtx, MsgKind, Protocol, RetryPolicy, StateEvent, StateValue,
    Topic,
};
use fluxpm_hw::Watts;
use fluxpm_sim::TraceLevel;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Module name, also the key under which state events are logged.
pub const JOB_MANAGER: &str = "power-manager-job";

/// The `flux-power-manager` job-level component.
pub struct JobLevelManager {
    /// Last limit applied per job (the mirrored state).
    limits: HashMap<JobId, Watts>,
    /// Node-limit RPCs sent (diagnostics).
    node_updates: u64,
    /// The topic node limits are pushed on, interned once.
    set_node_limit: Topic,
}

impl Default for JobLevelManager {
    fn default() -> JobLevelManager {
        JobLevelManager::new()
    }
}

impl JobLevelManager {
    /// Create an unloaded manager.
    pub fn new() -> JobLevelManager {
        JobLevelManager {
            limits: HashMap::new(),
            node_updates: 0,
            set_node_limit: Topic::intern(TOPIC_SET_NODE_LIMIT),
        }
    }

    /// Create as a shared module handle.
    pub fn shared() -> Rc<RefCell<JobLevelManager>> {
        Rc::new(RefCell::new(JobLevelManager::new()))
    }

    /// The last limit recorded for a job.
    pub fn job_limit(&self, job: JobId) -> Option<Watts> {
        self.limits.get(&job).copied()
    }

    /// Node-limit updates sent so far.
    pub fn node_updates(&self) -> u64 {
        self.node_updates
    }

    fn apply(&mut self, ctx: &mut ModuleCtx<'_>, m: &JobLimitMsg) {
        let Some(job) = ctx.world.jobs.get(m.job) else {
            return;
        };
        let ranks = job.ranks();
        if ranks.is_empty() {
            return; // not running (raced with completion)
        }
        // Skip no-op updates: reallocation events re-push every job.
        if self.limits.get(&m.job) == Some(&m.limit) {
            return;
        }
        self.limits.insert(m.job, m.limit);
        ctx.world.state.append(
            ctx.eng.now().as_micros(),
            JOB_MANAGER,
            "limit",
            StateValue::record([
                ("job", StateValue::U64(m.job.0)),
                ("w", StateValue::F64(m.limit.get())),
            ]),
        );
        let per_node = m.limit / ranks.len() as f64;
        let here = ctx.rank;
        for rank in ranks {
            // Acked + retried: a node manager that misses the push (lost
            // message, transient partition) gets it again; a dead node
            // surfaces as a final timeout instead of silent divergence.
            let req = ManagerRequest::SetNodeLimit(NodeLimitMsg { limit: per_node });
            ctx.world
                .rpc(rank, &self.set_node_limit, req.encode())
                .from(here)
                .retry(RetryPolicy::default())
                .send(ctx.eng, move |world, eng, resp| {
                    if resp.is_timeout() {
                        world.trace.emit(
                            eng.now(),
                            TraceLevel::Warn,
                            "job-mgr",
                            format_args!("node-limit push to {rank} gave up: {:?}", resp.error),
                        );
                    }
                });
            self.node_updates += 1;
        }
    }
}

impl Module for JobLevelManager {
    fn name(&self) -> &'static str {
        JOB_MANAGER
    }

    fn topics(&self) -> Rc<[Topic]> {
        fluxpm_flux::topic_list![TOPIC_JOB_LIMIT]
    }

    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind == MsgKind::Request && msg.topic == TOPIC_JOB_LIMIT {
            if let Ok(ManagerRequest::JobLimit(m)) = ManagerRequest::decode(msg) {
                self.apply(ctx, &m);
            }
            // Ack so the cluster manager's retry loop can settle.
            ctx.world
                .respond(ctx.eng, msg, ManagerReply::JobLimitAck.encode());
        }
    }

    fn root_service(&self) -> bool {
        true
    }

    /// Lets a caller holding only the root broker's module read the
    /// mirrored limits.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_migrate(&mut self, ctx: &mut ModuleCtx<'_>) {
        // The cluster manager re-pushes every allocation after a
        // failover, but its values are usually unchanged — and the no-op
        // dedup above would swallow them, leaving node managers that
        // missed an in-flight push permanently stale. Forget the mirror
        // so the re-push fans out unconditionally. The clear is itself a
        // state transition, so it is logged.
        ctx.world.trace.emit(
            ctx.eng.now(),
            TraceLevel::Info,
            "job-mgr",
            format_args!(
                "job manager migrated to {}; clearing {} mirrored limit(s) for re-push",
                ctx.rank,
                self.limits.len()
            ),
        );
        self.limits.clear();
        ctx.world.state.append(
            ctx.eng.now().as_micros(),
            JOB_MANAGER,
            "clear",
            StateValue::Null,
        );
    }

    /// The replayable state: the per-job limit mirror, in job-id order.
    /// The `node_updates` counter is diagnostics, not state.
    fn snapshot(&self) -> Option<StateValue> {
        let mut limits: Vec<(JobId, Watts)> = self.limits.iter().map(|(&j, &w)| (j, w)).collect();
        limits.sort_by_key(|(j, _)| *j);
        Some(StateValue::record([(
            "limits",
            limits
                .into_iter()
                .map(|(j, w)| {
                    StateValue::record([
                        ("job", StateValue::U64(j.0)),
                        ("w", StateValue::F64(w.get())),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        )]))
    }

    fn restore(&mut self, snapshot: &StateValue) {
        self.limits.clear();
        for entry in snapshot
            .get("limits")
            .and_then(|l| l.as_list())
            .unwrap_or_default()
        {
            if let (Some(job), Some(w)) = (entry.u64_field("job"), entry.f64_field("w")) {
                self.limits.insert(JobId(job), Watts(w));
            }
        }
    }

    fn apply_event(&mut self, event: &StateEvent) {
        match event.kind {
            "limit" => {
                if let (Some(job), Some(w)) =
                    (event.data.u64_field("job"), event.data.f64_field("w"))
                {
                    self.limits.insert(JobId(job), Watts(w));
                }
            }
            "clear" => self.limits.clear(),
            _ => {}
        }
    }
}
