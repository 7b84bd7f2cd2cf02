//! # fluxpm-flux — a simulated Flux resource-management framework
//!
//! The paper's power modules are Flux *broker modules*: dynamically loaded
//! plugins with their own thread of control that interact with the rest of
//! the system exclusively via messages over a tree-based overlay network
//! (TBON). This crate reproduces that execution model on top of the
//! deterministic event engine:
//!
//! * [`Tbon`] — the k-ary broker tree with per-hop message latency,
//! * [`Message`] — typed request/response/event messages,
//! * [`Module`] — the broker-plugin trait (event-driven, message-only),
//! * [`Broker`] — per-node module registry and dispatch,
//! * [`JobProgram`]/[`Job`] — anything launchable under a Flux job
//!   (MPI app, Charm++ app, Python workflow, ...),
//! * [`FcfsScheduler`] — first-come-first-served node allocation,
//! * [`World`] — one Flux instance: brokers + node hardware + job state,
//!   with `submit`/RPC/publish primitives and the job executor loop.
//!
//! The real Flux is a distributed C daemon; here every broker runs inside
//! one discrete-event simulation, which preserves the message-passing
//! semantics the power modules depend on while making every experiment
//! bit-reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod broker;
pub mod job;
pub mod message;
pub mod module;
pub mod proto;
pub mod sched;
pub mod shard;
pub mod state;
pub mod subinstance;
pub mod tbon;
pub mod topic;
pub mod world;
pub mod world_shard;

pub use broker::{Broker, LinkDetector, LinkHealthConfig, LinkVerdict};
pub use job::{Job, JobId, JobProgram, JobRegistry, JobSpec, JobState, StepCtx, StepOutcome};
pub use message::{payload, unit_payload, Message, MsgKind, Payload};
pub use module::{Module, ModuleCtx, SharedModule};
pub use proto::{Protocol, ProtocolError};
pub use sched::FcfsScheduler;
pub use shard::{merge_records, records_hash, ShardPlan, ShardRecord};
pub use state::{Snapshot, StateEvent, StateLog, StateValue};
pub use subinstance::{InstancePowerPolicy, SubInstance};
pub use tbon::{Rank, Tbon};
pub use topic::Topic;
pub use world::{
    CongestionBurst, CongestionEvent, FaultPlan, FluxEngine, FluxEvent, GilbertElliott,
    LinkProfile, LinkStats, RetryPolicy, RpcBuilder, TopicStats, World,
};
pub use world_shard::{
    delivery_key, run_world_sharded, ShardingError, WireEnvelope, WorldRunStats, WorldShard,
    WorldShardRun,
};
