//! # fluxpm-manager — the `flux-power-manager` module
//!
//! Reproduction of the paper's hierarchical, state-aware power management
//! system (§III-B). Three components connected by RPCs over the TBON:
//!
//! * [`ClusterLevelManager`] (rank 0) — owns the global power bound
//!   `P_G`; on every job start/finish it recomputes the per-job power
//!   limits under the **proportional sharing policy** (§III-B1) and
//!   pushes them down,
//! * [`JobLevelManager`] (rank 0) — splits a job's limit equally across
//!   its nodes and RPCs each node's manager,
//! * [`NodeLevelManager`] (every rank) — enforces node-level limits by
//!   deriving and setting per-GPU caps through Variorum/NVML, and
//!   optionally runs the **FFT-based dynamic policy (FPP)** of
//!   Algorithm 1 per GPU, sampling device power on its own timer.
//!
//! The pure decision logic — the proportional allocator and the FPP
//! controller — lives in [`allocator`] and [`fpp`], fully unit-testable
//! without a simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod allocator;
pub mod cluster;
pub mod fpp;
pub mod job_mgr;
pub mod node_mgr;
pub mod proto;

pub use allocator::ProportionalAllocator;
pub use cluster::ClusterLevelManager;
pub use fpp::{FppConfig, FppController, FppDecision};
pub use job_mgr::JobLevelManager;
pub use node_mgr::NodeLevelManager;
pub use proto::{FppTarget, JobLimitMsg, ManagerReply, ManagerRequest, NodeLimitMsg, PolicyKind};

use fluxpm_flux::{FluxEngine, World};
use fluxpm_hw::Watts;
use std::cell::RefCell;
use std::rc::Rc;

/// Manager deployment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerConfig {
    /// The cluster-level power bound `P_G`. `None` = unconstrained (each
    /// node may run at its nameplate power; no capping is performed).
    pub global_bound: Option<Watts>,
    /// Which dynamic policy the node managers run.
    pub policy: PolicyKind,
    /// FPP tuning (used when `policy == PolicyKind::Fpp`).
    pub fpp: FppConfig,
    /// Which device class FPP controls.
    pub fpp_target: FppTarget,
}

impl ManagerConfig {
    /// Proportional sharing under a global bound.
    pub fn proportional(global_bound: Watts) -> ManagerConfig {
        ManagerConfig {
            global_bound: Some(global_bound),
            policy: PolicyKind::Proportional,
            fpp: FppConfig::default(),
            fpp_target: FppTarget::Gpu,
        }
    }

    /// FPP (proportional sharing plus per-GPU dynamic capping).
    pub fn fpp(global_bound: Watts) -> ManagerConfig {
        ManagerConfig {
            global_bound: Some(global_bound),
            policy: PolicyKind::Fpp,
            fpp: FppConfig::default(),
            fpp_target: FppTarget::Gpu,
        }
    }

    /// FPP driving per-socket CPU caps instead of GPUs — the paper's
    /// "easily extended to socket-level capping" variant, useful for
    /// CPU-bound workloads like Charm++ NQueens.
    pub fn fpp_sockets(global_bound: Watts) -> ManagerConfig {
        ManagerConfig {
            global_bound: Some(global_bound),
            policy: PolicyKind::Fpp,
            fpp: FppConfig::default(),
            fpp_target: FppTarget::Socket,
        }
    }

    /// FPP driving the memory-subsystem (DRAM RAPL) cap — the paper's
    /// "memory-level power capping" extension.
    pub fn fpp_memory(global_bound: Watts) -> ManagerConfig {
        ManagerConfig {
            global_bound: Some(global_bound),
            policy: PolicyKind::Fpp,
            fpp: FppConfig::default(),
            fpp_target: FppTarget::Memory,
        }
    }

    /// No cluster constraint: peak power to every node.
    pub fn unconstrained() -> ManagerConfig {
        ManagerConfig {
            global_bound: None,
            policy: PolicyKind::Unconstrained,
            fpp: FppConfig::default(),
            fpp_target: FppTarget::Gpu,
        }
    }
}

/// Load the full manager stack: a [`NodeLevelManager`] on every rank, and
/// the [`JobLevelManager`] + [`ClusterLevelManager`] on the current root.
///
/// Also registers a node-manager *module factory*: when a failed node
/// rejoins via [`World::recover_node`], the world rebuilds its
/// node-level manager from this factory (it restarts unconstrained and
/// reconverges on the next limit push). The job- and cluster-level
/// managers are root services — on root failure they migrate with their
/// state (allocator budgets, mirrored limits) to the elected successor,
/// and both log their transitions to the instance
/// [state log](fluxpm_flux::StateLog): if the *whole* instance dies, the
/// first recovered rank rebuilds them from the registered root-service
/// factories and replays the log back to the exact pre-crash state.
///
/// Returns the cluster-level manager, so a caller can watch the
/// budgets it holds (the handle follows the module through failovers).
pub fn load(
    world: &mut World,
    eng: &mut FluxEngine,
    config: ManagerConfig,
) -> Rc<RefCell<ClusterLevelManager>> {
    for rank in world.tbon.ranks().collect::<Vec<_>>() {
        let m = NodeLevelManager::shared_with_target(
            config.policy,
            config.fpp.clone(),
            config.fpp_target,
        );
        world.load_module(eng, rank, m);
    }
    let root = world.root();
    world.load_module(eng, root, JobLevelManager::shared());
    let cluster = ClusterLevelManager::shared(config.clone());
    world.load_module(eng, root, cluster.clone());
    {
        let config = config.clone();
        world.register_module_factory(move |_rank| {
            NodeLevelManager::shared_with_target(
                config.policy,
                config.fpp.clone(),
                config.fpp_target,
            )
        });
    }
    world.register_root_service_factory(|| {
        let m: fluxpm_flux::SharedModule = JobLevelManager::shared();
        m
    });
    world.register_root_service_factory(move || {
        let m: fluxpm_flux::SharedModule = ClusterLevelManager::shared(config.clone());
        m
    });
    cluster
}
