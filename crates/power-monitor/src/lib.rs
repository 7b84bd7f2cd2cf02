//! # fluxpm-monitor — the `flux-power-monitor` module
//!
//! Reproduction of the paper's job-level power telemetry module (§III-A).
//! Three components:
//!
//! * [`NodeAgent`] — runs on every rank; a *stateless* control loop that
//!   samples Variorum every 2 seconds (configurable) into a fixed-size
//!   circular buffer. It does not know whether a job is running — that is
//!   the design property that keeps its overhead low.
//! * [`RootAgent`] — runs on rank 0 at the root of the TBON; fields
//!   external client requests, fans out to the node agents of the ranks a
//!   job ran on, aggregates, and replies. It also stamps every pushed
//!   sample with its sequence number and job for the relay on its rank.
//! * [`client`] — the external client (a Python script in the paper):
//!   takes a job id, resolves the job's nodes and time window, requests
//!   the data, and renders CSV with a completeness flag per node.
//! * [`TelemetryRelay`] — runs on every rank; distributes the streaming
//!   subscription plane down the TBON (per-broker subscriber queues,
//!   upward filter aggregation, downward delta coalescing) so the root
//!   pays O(fanout), not O(subscribers), per published delta (see
//!   [`relay`]).
//!
//! Every sensor read charges its host-CPU cost to the node via
//! [`fluxpm_flux::World::charge_overhead`], which the job executor turns
//! into application slowdown — the physical mechanism behind the measured
//! 1.2 % / 0.04 % overheads in paper Fig. 3.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod client;
pub mod config;
mod log;
pub mod node_agent;
pub mod proto;
pub mod relay;
pub mod ring;
pub mod root_agent;
pub mod subscription;
pub mod tree_reduce;

/// Default per-TBON-edge pending-batch capacity in the relay plane.
pub const DEFAULT_RELAY_BATCH_CAPACITY: usize = 1024;

pub use client::{
    job_data_rows, job_data_to_csv, link_stats_to_csv, rpc_stats_rows, rpc_stats_to_csv, JobRow,
    MonitorQuery, QueryHandle, QueryKind, TopicRow,
};
pub use config::{MonitorConfig, RPC_DEADLINE};
pub use log::{Records, RecordsIter, Runs, RunsIter};
pub use node_agent::NodeAgent;
pub use proto::{
    DeltaBatch, JobDataReply, JobDataRequest, JobStatsReply, JobStatsRequest, MonitorReply,
    MonitorRequest, NodeDataReply, NodeDataRequest, NodeStats, PowerRecord, RelayAdvert,
    RelayDeltaBatch, RelaySeedReply, RelaySubscribeRequest, SamplePush, SharedDeltas,
};
pub use relay::{AggregateFilter, RelayPlane, TelemetryRelay, MAX_AGGREGATE_TERMS, RELAY};
pub use ring::RingBuffer;
pub use root_agent::{RootAgent, ROOT_AGENT};
pub use subscription::{
    FilterError, LinkSample, SubscriberId, SubscriberStats, SubscriptionConfig, SubscriptionFilter,
    TelemetryDelta, TelemetryHub, TelemetrySequencer,
};
pub use tree_reduce::{SubtreeStats, SubtreeStatsRequest};

use fluxpm_flux::{FluxEngine, World};

/// Load the full monitor stack: a [`NodeAgent`] on every rank and the
/// [`RootAgent`] on the current root. Returns `false` if any module was
/// already loaded.
///
/// Also registers a node-agent *module factory* with the world: when a
/// failed node rejoins via [`World::recover_node`], the world builds a
/// fresh agent for the recovered rank from this factory. The fresh
/// agent resumes sampling from recovery time and flags windows reaching
/// into the outage gap as partial. The root agent is a root service —
/// on root failure it migrates (with its state) to the elected
/// successor instead of being rebuilt, and it logs every aggregation
/// begin/end to the instance [state log](fluxpm_flux::StateLog), so even
/// full-instance death rebuilds its in-flight set exactly via the
/// registered root-service factory.
pub fn load(world: &mut World, eng: &mut FluxEngine, config: MonitorConfig) -> bool {
    let mut ok = true;
    let build_relay = |config: &MonitorConfig| {
        std::rc::Rc::new(std::cell::RefCell::new(TelemetryRelay::new(
            config.subscription_config(),
        )))
    };
    let agent_config = std::rc::Rc::new(config.clone());
    for rank in world.tbon.ranks().collect::<Vec<_>>() {
        let agent = NodeAgent::shared(std::rc::Rc::clone(&agent_config));
        ok &= world.load_module(eng, rank, agent);
        ok &= world.load_module(eng, rank, build_relay(&config));
    }
    let root = world.root();
    let build_root_agent = |config: &MonitorConfig| {
        let mut agent = RootAgent::new(RPC_DEADLINE);
        if let Some(every) = config.link_export_interval {
            agent = agent.with_link_export(every);
        }
        agent
    };
    let root_agent = std::rc::Rc::new(std::cell::RefCell::new(build_root_agent(&config)));
    ok &= world.load_module(eng, root, root_agent);
    {
        let config = config.clone();
        world.register_root_service_factory(move || {
            let m: fluxpm_flux::SharedModule =
                std::rc::Rc::new(std::cell::RefCell::new(build_root_agent(&config)));
            m
        });
    }
    {
        let config = config.clone();
        world.register_module_factory(move |_rank| build_relay(&config));
    }
    world
        .register_module_factory(move |_rank| NodeAgent::shared(std::rc::Rc::clone(&agent_config)));
    ok
}
