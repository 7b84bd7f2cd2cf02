//! The node-level manager (paper §III-B).
//!
//! Runs on every rank. Enforces the node's power limit by deriving a
//! per-GPU cap and setting it through Variorum/NVML and — under the FPP
//! policy only — samples device power on its own timer (the "separate
//! thread" of the paper) into one [`FppController`] per GPU.
//!
//! **Derived GPU cap.** The manager reserves the node's idle power (CPU
//! idle + memory idle + board) and splits the remaining budget across the
//! GPUs:
//!
//! ```text
//! gpu_cap = clamp((node_limit - idle_node_power) / n_gpus, min, max)
//! ```
//!
//! This is deliberately less conservative than IBM OPAL's 936 W reserve —
//! the difference is precisely why proportional sharing beats the IBM
//! default at the same power budget (paper Table IV: max usage 6.05 kW vs
//! 9.5 kW of a 9.6 kW bound).

use crate::fpp::{FppConfig, FppController, FppDecision};
use crate::proto::{FppTarget, ManagerReply, ManagerRequest, PolicyKind, TOPIC_SET_NODE_LIMIT};
use fluxpm_fft::PeriodAnalyzer;
use fluxpm_flux::{Message, Module, ModuleCtx, MsgKind, Protocol, Topic};
use fluxpm_hw::{NodeId, Watts};
use fluxpm_sim::{SimDuration, TraceLevel};
use std::cell::RefCell;
use std::rc::Rc;

/// Module name.
pub const NODE_MANAGER: &str = "power-manager-node";

/// Timer tags.
const TIMER_SAMPLE: u64 = 0;
const TIMER_EPOCH: u64 = 1;

/// The `flux-power-manager` node-level component.
pub struct NodeLevelManager {
    policy: PolicyKind,
    /// The node-level power limit currently enforced.
    node_limit: Option<Watts>,
    /// Cap-set operations that failed (NVML §V failures).
    cap_failures: u64,
    /// FPP's state, present only when the policy is FPP: a proportional
    /// or unconstrained manager on every rank of a large fleet never
    /// reads it.
    fpp: Option<Box<Fpp>>,
}

/// What a node manager keeps to run FPP (paper Algorithm 1).
struct Fpp {
    config: FppConfig,
    target: FppTarget,
    /// One controller per device of `target`, built when the first limit
    /// is applied.
    controllers: Vec<FppController>,
    /// One planned-analysis state shared by every controller on this
    /// node: all 4–8 per-GPU epoch analyses reuse the same cached FFT
    /// plans, window tables, scratch arena, and spectrum buffers.
    analyzer: PeriodAnalyzer,
    /// The job last seen on this node; the controllers reset when a new
    /// job arrives (each job gets its own probe/converge cycle).
    current_job: Option<fluxpm_flux::JobId>,
}

impl Fpp {
    /// Build the controller set for the configured target.
    fn make_controllers(&self, arch: &fluxpm_hw::NodeArch, limit: Watts) -> Vec<FppController> {
        match self.target {
            FppTarget::Gpu => {
                let derived = NodeLevelManager::derive_gpu_cap(arch, limit);
                (0..arch.gpus)
                    .map(|_| FppController::new(self.config.clone(), derived))
                    .collect()
            }
            FppTarget::Socket => {
                let derived = NodeLevelManager::derive_socket_cap(arch, limit);
                (0..arch.sockets)
                    .map(|_| {
                        FppController::with_bounds(
                            self.config.clone(),
                            derived,
                            arch.cpu_idle,
                            arch.cpu_peak,
                        )
                    })
                    .collect()
            }
            FppTarget::Memory => {
                let derived = NodeLevelManager::derive_memory_cap(arch, limit);
                vec![FppController::with_bounds(
                    self.config.clone(),
                    derived,
                    arch.mem_idle,
                    arch.mem_peak,
                )]
            }
        }
    }

    /// Apply one controller decision to the hardware dial it targets.
    fn apply_decision(
        &self,
        ctx: &mut ModuleCtx<'_>,
        cap_failures: &mut u64,
        device: usize,
        cap: Watts,
    ) {
        match self.target {
            FppTarget::Gpu => set_gpu_cap(ctx, cap_failures, device, cap),
            FppTarget::Socket => set_socket_cap(ctx, device, cap),
            FppTarget::Memory => set_memory_cap(ctx, cap),
        }
    }

    /// Apply every controller's current cap.
    fn apply_caps(&self, ctx: &mut ModuleCtx<'_>, cap_failures: &mut u64) {
        for (device, c) in self.controllers.iter().enumerate() {
            self.apply_decision(ctx, cap_failures, device, c.cap());
        }
    }
}

impl NodeLevelManager {
    /// Create an unloaded manager (FPP on GPUs, the paper's evaluation).
    pub fn new(policy: PolicyKind, fpp_config: FppConfig) -> NodeLevelManager {
        NodeLevelManager::with_target(policy, fpp_config, FppTarget::Gpu)
    }

    /// Create an unloaded manager with an explicit FPP device target.
    /// The FPP configuration and target are kept only under the FPP
    /// policy.
    pub fn with_target(
        policy: PolicyKind,
        fpp_config: FppConfig,
        fpp_target: FppTarget,
    ) -> NodeLevelManager {
        NodeLevelManager {
            policy,
            node_limit: None,
            cap_failures: 0,
            fpp: (policy == PolicyKind::Fpp).then(|| {
                Box::new(Fpp {
                    config: fpp_config,
                    target: fpp_target,
                    controllers: Vec::new(),
                    analyzer: PeriodAnalyzer::new(),
                    current_job: None,
                })
            }),
        }
    }

    /// Create as a shared module handle.
    pub fn shared(policy: PolicyKind, fpp_config: FppConfig) -> Rc<RefCell<NodeLevelManager>> {
        Rc::new(RefCell::new(NodeLevelManager::new(policy, fpp_config)))
    }

    /// Create as a shared module handle with an explicit FPP target.
    pub fn shared_with_target(
        policy: PolicyKind,
        fpp_config: FppConfig,
        fpp_target: FppTarget,
    ) -> Rc<RefCell<NodeLevelManager>> {
        Rc::new(RefCell::new(NodeLevelManager::with_target(
            policy, fpp_config, fpp_target,
        )))
    }

    /// The node limit currently enforced.
    pub fn node_limit(&self) -> Option<Watts> {
        self.node_limit
    }

    /// NVML set failures observed.
    pub fn cap_failures(&self) -> u64 {
        self.cap_failures
    }

    /// FPP controllers (empty unless the FPP policy is active and a
    /// limit has been applied).
    pub fn controllers(&self) -> &[FppController] {
        self.fpp.as_ref().map_or(&[], |fpp| &fpp.controllers)
    }

    /// Derive the per-GPU cap from a node limit (see module docs).
    pub fn derive_gpu_cap(arch: &fluxpm_hw::NodeArch, node_limit: Watts) -> Watts {
        let reserve = arch.idle_node_power();
        let budget = (node_limit - reserve).max(Watts::ZERO);
        let per_gpu = budget / arch.gpus.max(1) as f64;
        per_gpu.clamp(arch.capping.min_gpu_cap, arch.capping.max_gpu_cap)
    }

    /// Derive the per-socket cap from a node limit (the socket-level FPP
    /// variant): reserve the non-CPU idle floor, split across sockets.
    pub fn derive_socket_cap(arch: &fluxpm_hw::NodeArch, node_limit: Watts) -> Watts {
        let reserve = arch.idle_node_power() - arch.cpu_idle * arch.sockets as f64;
        let budget = (node_limit - reserve).max(Watts::ZERO);
        let per_socket = budget / arch.sockets.max(1) as f64;
        per_socket.clamp(arch.cpu_idle, arch.cpu_peak)
    }

    /// Derive the memory cap from a node limit: whatever the limit leaves
    /// above the rest of the node's idle floor, clamped into the DRAM
    /// envelope.
    pub fn derive_memory_cap(arch: &fluxpm_hw::NodeArch, node_limit: Watts) -> Watts {
        let reserve = arch.idle_node_power() - arch.mem_idle;
        let budget = (node_limit - reserve).max(Watts::ZERO);
        budget.clamp(arch.mem_idle, arch.mem_peak)
    }

    fn apply_limit(&mut self, ctx: &mut ModuleCtx<'_>, limit: Watts) {
        self.node_limit = Some(limit);
        let rank = ctx.rank;
        let arch = ctx.world.nodes[rank.index()].arch.clone();
        if !arch.capping.user_enabled || !arch.capping.gpu_cap {
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Warn,
                "node-mgr",
                format!("{rank}: capping unavailable; limit {limit} not enforceable"),
            );
            return;
        }
        let derived = Self::derive_gpu_cap(&arch, limit);
        // Canonical record for sharded byte-equality checks (no-op on
        // classic worlds): node limit + derived per-GPU cap, milliwatts.
        ctx.world.record(
            ctx.eng.now(),
            rank.0,
            fluxpm_flux::shard::rec::NODE_LIMIT,
            (limit.get() * 1000.0).round() as u64,
            (derived.get() * 1000.0).round() as u64,
        );

        match self.fpp.as_deref_mut() {
            Some(fpp) => {
                let target_derived = match fpp.target {
                    FppTarget::Gpu => derived,
                    FppTarget::Socket => Self::derive_socket_cap(&arch, limit),
                    FppTarget::Memory => Self::derive_memory_cap(&arch, limit),
                };
                if fpp.controllers.is_empty() {
                    fpp.controllers = fpp.make_controllers(&arch, limit);
                } else {
                    for c in &mut fpp.controllers {
                        c.rebase(target_derived);
                    }
                }
                fpp.apply_caps(ctx, &mut self.cap_failures);
                // Non-GPU FPP targets still honour the proportional node
                // limit on the GPU side with a static derived cap.
                if fpp.target != FppTarget::Gpu {
                    set_all_gpu_caps(ctx, &mut self.cap_failures, derived);
                }
            }
            None if self.policy == PolicyKind::Proportional => {
                set_all_gpu_caps(ctx, &mut self.cap_failures, derived);
            }
            None => {}
        }
    }

    /// Sampling tick (FPP only): feed the controllers' buffers. Also
    /// detects job turnover on this node and resets the controllers so
    /// every job gets a fresh probe/converge cycle.
    fn on_sample(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(fpp) = self.fpp.as_deref_mut() else {
            return;
        };
        let rank = ctx.rank;
        let job_now = ctx.world.jobs.job_on_node(NodeId(rank.0));
        if job_now != fpp.current_job {
            fpp.current_job = job_now;
            if job_now.is_some() && !fpp.controllers.is_empty() {
                if let Some(limit) = self.node_limit {
                    let arch = ctx.world.nodes[rank.index()].arch.clone();
                    fpp.controllers = fpp.make_controllers(&arch, limit);
                    fpp.apply_caps(ctx, &mut self.cap_failures);
                }
            }
        }
        // Read in place: the resolved draw stays in the node and the
        // per-device feed is a slice of it — nothing is copied on the
        // 1 Hz sampling tick.
        let draw = ctx.world.nodes[rank.index()].draw();
        let feed: &[Watts] = match fpp.target {
            FppTarget::Gpu => &draw.gpu,
            FppTarget::Socket => &draw.cpu,
            FppTarget::Memory => std::slice::from_ref(&draw.memory),
        };
        for (c, &g) in fpp.controllers.iter_mut().zip(feed.iter()) {
            c.store_power_sample(g);
        }
    }

    /// FPP epoch tick: step each controller and apply its decision.
    fn on_epoch(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(fpp) = self.fpp.as_deref_mut() else {
            return;
        };
        if fpp.controllers.is_empty() {
            return;
        }
        // Only act while a job occupies this node; an idle node's
        // controllers sit on stale buffers.
        let busy = ctx.world.jobs.job_on_node(NodeId(ctx.rank.0)).is_some();
        // Every controller's analysis runs through the one shared
        // analyzer, so the whole per-GPU batch reuses a single warm
        // plan/scratch set.
        let analyzer = &mut fpp.analyzer;
        let decisions: Vec<FppDecision> = fpp
            .controllers
            .iter_mut()
            .map(|c| c.on_epoch(analyzer))
            .collect();
        if !busy {
            return;
        }
        for (device, d) in decisions.into_iter().enumerate() {
            if let FppDecision::Set(cap) = d {
                fpp.apply_decision(ctx, &mut self.cap_failures, device, cap);
                ctx.world.trace.emit(
                    ctx.eng.now(),
                    TraceLevel::Info,
                    "fpp",
                    format!("{}: {:?} {device} -> {cap}", ctx.rank, fpp.target),
                );
            }
        }
    }
}

fn set_memory_cap(ctx: &mut ModuleCtx<'_>, cap: Watts) {
    let node = &mut ctx.world.nodes[ctx.rank.index()];
    if let Err(e) = fluxpm_variorum::cap_memory_power_limit(node, cap) {
        ctx.world.trace.emit(
            ctx.eng.now(),
            TraceLevel::Warn,
            "node-mgr",
            format!("{}: memory cap failed: {e}", ctx.rank),
        );
    }
}

fn set_socket_cap(ctx: &mut ModuleCtx<'_>, socket: usize, cap: Watts) {
    let node = &mut ctx.world.nodes[ctx.rank.index()];
    if let Err(e) = fluxpm_variorum::cap_socket_power_limit(node, socket, cap) {
        ctx.world.trace.emit(
            ctx.eng.now(),
            TraceLevel::Warn,
            "node-mgr",
            format!("{}: socket {socket} cap failed: {e}", ctx.rank),
        );
    }
}

fn set_all_gpu_caps(ctx: &mut ModuleCtx<'_>, cap_failures: &mut u64, cap: Watts) {
    let node = &mut ctx.world.nodes[ctx.rank.index()];
    match fluxpm_variorum::cap_each_gpu_power_limit(node, cap) {
        Ok(outcomes) => {
            *cap_failures += outcomes.iter().filter(|o| !o.succeeded()).count() as u64;
        }
        Err(e) => {
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Warn,
                "node-mgr",
                format!("{}: cap_each_gpu failed: {e}", ctx.rank),
            );
        }
    }
}

fn set_gpu_cap(ctx: &mut ModuleCtx<'_>, cap_failures: &mut u64, gpu: usize, cap: Watts) {
    let node = &mut ctx.world.nodes[ctx.rank.index()];
    match fluxpm_variorum::cap_gpu_power_limit(node, gpu, cap) {
        Ok(outcome) if !outcome.succeeded() => {
            *cap_failures += 1;
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Warn,
                "node-mgr",
                format!(
                    "{}: GPU {gpu} cap {cap} not applied ({outcome:?})",
                    ctx.rank
                ),
            );
        }
        Ok(_) => {}
        Err(e) => {
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Warn,
                "node-mgr",
                format!("{}: GPU {gpu} cap failed: {e}", ctx.rank),
            );
        }
    }
}

impl Module for NodeLevelManager {
    fn name(&self) -> &'static str {
        NODE_MANAGER
    }

    fn topics(&self) -> Rc<[Topic]> {
        fluxpm_flux::topic_list![TOPIC_SET_NODE_LIMIT]
    }

    /// A periodic event must name its reader: only FPP's controllers
    /// consume a sample or an epoch, so a proportional or unconstrained
    /// manager arms no timer at all.
    fn load(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(fpp) = &self.fpp else {
            return;
        };
        for (period_s, tag) in [
            (fpp.config.sample_period_s, TIMER_SAMPLE),
            (fpp.config.powercap_time_s, TIMER_EPOCH),
        ] {
            let period = SimDuration::from_secs_f64(period_s);
            ctx.world.schedule_module_timer(
                ctx.eng,
                ctx.rank,
                self.name(),
                ctx.now() + period,
                period,
                tag,
            );
        }
    }

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind == MsgKind::Request && msg.topic == TOPIC_SET_NODE_LIMIT {
            if let Ok(ManagerRequest::SetNodeLimit(m)) = ManagerRequest::decode(msg) {
                self.apply_limit(ctx, m.limit);
            }
            // Ack so the job-level manager's retry loop can settle.
            ctx.world
                .respond(ctx.eng, msg, ManagerReply::SetNodeLimitAck.encode());
        }
    }

    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        match tag {
            TIMER_SAMPLE => self.on_sample(ctx),
            TIMER_EPOCH => self.on_epoch(ctx),
            _ => {}
        }
    }

    /// Lets a caller holding only the broker's module reach the
    /// enforced limit (e.g. to time cap propagation).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_hw::lassen;

    #[test]
    fn derived_cap_matches_calibration() {
        let arch = lassen();
        // 1200 W limit - 400 W idle reserve = 800 / 4 GPUs = 200 W.
        assert_eq!(
            NodeLevelManager::derive_gpu_cap(&arch, Watts(1200.0)),
            Watts(200.0)
        );
        // 1600 W -> 300 W (clamped to vendor max).
        assert_eq!(
            NodeLevelManager::derive_gpu_cap(&arch, Watts(1600.0)),
            Watts(300.0)
        );
        // Very low limit clamps to the vendor minimum.
        assert_eq!(
            NodeLevelManager::derive_gpu_cap(&arch, Watts(500.0)),
            Watts(100.0)
        );
    }

    #[test]
    fn memory_cap_derivation() {
        let arch = lassen();
        // 1200 W limit - (400 - 40) idle-minus-mem reserve = 840 ->
        // clamped to the 120 W DRAM peak.
        assert_eq!(
            NodeLevelManager::derive_memory_cap(&arch, Watts(1200.0)),
            Watts(120.0)
        );
        // A very low limit floors at the DRAM idle.
        assert_eq!(
            NodeLevelManager::derive_memory_cap(&arch, Watts(300.0)),
            Watts(40.0)
        );
    }

    #[test]
    fn only_an_fpp_manager_holds_fpp_state() {
        for policy in [PolicyKind::Proportional, PolicyKind::Unconstrained] {
            let m = NodeLevelManager::new(policy, FppConfig::default());
            assert!(m.fpp.is_none(), "{policy:?} holds FPP state");
        }
        let m = NodeLevelManager::new(PolicyKind::Fpp, FppConfig::default());
        assert!(m.fpp.is_some());
    }

    #[test]
    fn manager_derivation_less_conservative_than_opal() {
        // The design point the paper measures: at the same 1200 W budget,
        // OPAL gives each GPU 100 W while the manager gives 200 W.
        let arch = lassen();
        let mut opal = fluxpm_hw::OpalState::for_arch(&arch).unwrap();
        opal.set_node_cap(Watts(1200.0));
        let ibm = opal.derived_gpu_cap().unwrap();
        let ours = NodeLevelManager::derive_gpu_cap(&arch, Watts(1200.0));
        assert!(ours > ibm, "{ours} vs IBM {ibm}");
    }
}
