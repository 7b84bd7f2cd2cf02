//! Full-fidelity sharded worlds: the real `World` — modules, scheduler,
//! RPC, telemetry — running one shard per thread over the conservative
//! window coordinator ([`fluxpm_sim::sharded::ShardedEngine`]).
//!
//! # The replica model
//!
//! Every shard builds the *same* `World` from the same seed and the
//! same scripted scenario. What differs per shard is **ownership**: the
//! [`ShardPlan`] assigns each rank's subtree to one shard, and
//!
//! * [`World::load_module`] only loads modules on owned ranks, so each
//!   rank's agents/managers run exactly once across the fleet;
//! * [`World::send`] silently suppresses messages whose origin the
//!   shard does not own — the owning shard's replica of the same event
//!   emits the real message;
//! * canonical output ([`World::record`]) is only emitted from owned
//!   ranks (and root-shard-only for cluster-wide events).
//!
//! Topology mutations (scripted failures, recoveries, re-parenting) are
//! replayed identically on every replica, so routing and broker up/down
//! state never disagree across shards. Shared world state that modules
//! *read* (the job table, the scheduler) stays identical everywhere
//! because its inputs — scripted submissions and fixed-duration job
//! programs — are pure functions of simulation time.
//!
//! # Cross-shard messages and canonical ordering
//!
//! A message to a rank owned by another shard is encoded into a
//! [`WireEnvelope`] (payloads must be registered `Send + Clone` types,
//! [`World::register_wire_type`]) and handed to the coordinator, which
//! delivers it at the start of the destination's next window. Both
//! local and cross-shard deliveries are scheduled under the
//! `(origin rank, origin sequence)` key ([`delivery_key`]), so
//! same-microsecond deliveries execute in one canonical order — after
//! every timer/executor event at that instant — in every partition.
//! That is what makes the merged record stream byte-identical for any
//! shard count.
//!
//! # Lookahead
//!
//! In sharded (deterministic-fault) mode every hop costs at least the
//! TBON hop latency, and cross-shard messages cross at least one hop,
//! so `Tbon::hop_latency` is a sound coordinator lookahead. Congestion
//! only *adds* serialization delay (it stretches `size / bandwidth`
//! against the severity-scaled bandwidth), so congested plans can never
//! violate the window either — which is why the lookahead needs no
//! congestion-aware correction, only the hop-latency floor.

use crate::message::{Message, MsgKind, Payload};
use crate::shard::{merge_records, ShardPlan, ShardRecord};
use crate::tbon::Rank;
use crate::world::{FluxEngine, FluxEvent, World};
use fluxpm_sim::sharded::{Inbound, Outbound, ShardSim, ShardedEngine, ShardedRunStats};
use fluxpm_sim::{SimDuration, SimTime};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Why [`World::enable_sharding`] or [`World::register_wire_type`]
/// refused; the world is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardingError {
    /// Sharding is already enabled on this world.
    AlreadyEnabled,
    /// The shard index is not below the plan's shard count.
    ShardOutOfRange {
        /// The requested shard.
        shard: usize,
        /// The plan's shard count.
        shards: usize,
    },
    /// The installed [`crate::FaultPlan`] draws from a shared RNG stream,
    /// whose consumption order would depend on the partition.
    NondeterministicFaults,
    /// A wire type was registered before [`World::enable_sharding`].
    NotEnabled,
}

impl fmt::Display for ShardingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardingError::AlreadyEnabled => f.write_str("sharding already enabled"),
            ShardingError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard index {shard} out of range for {shards} shard(s)")
            }
            ShardingError::NondeterministicFaults => {
                f.write_str("sharded worlds require FaultPlan::deterministic")
            }
            ShardingError::NotEnabled => f.write_str("register_wire_type requires enable_sharding"),
        }
    }
}

impl std::error::Error for ShardingError {}

/// The keyed-scheduling key for a message delivery: the high bit marks
/// it as a delivery (sorting after every key-0 timer/executor event at
/// the same microsecond), then the origin rank, then the origin's
/// per-rank message sequence. Partition-invariant by construction —
/// both local and coordinator-inbox deliveries use it.
pub fn delivery_key(origin: u32, origin_seq: u64) -> u64 {
    (1 << 63) | ((origin as u64) << 32) | (origin_seq & 0xFFFF_FFFF)
}

/// A message crossing a shard boundary: the full [`Message`] identity
/// plus its launch route and origin sequence, with the payload encoded
/// as a `Send` box by the origin shard's codec registry.
pub struct WireEnvelope {
    /// Message type.
    pub kind: MsgKind,
    /// Service topic (re-interned on the destination shard).
    pub topic: String,
    /// Sending rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// Request/response correlation tag (meaningful only to the origin
    /// shard's pending-RPC table, which is where responses return).
    pub matchtag: u64,
    /// For responses: success or error string.
    pub error: Option<String>,
    /// Declared wire size.
    pub size_bytes: u32,
    /// The route the message was launched on (delivery drops messages
    /// whose route transits a rank that died in flight).
    pub route: Vec<u32>,
    /// The origin rank's per-rank message sequence — the canonical
    /// delivery-order tiebreaker.
    pub origin_seq: u64,
    /// Codec registry index of the payload type.
    codec: u32,
    /// The payload, cloned into a `Send` box.
    body: Box<dyn Any + Send>,
}

/// One registered cross-shard payload type: monomorphized encode/decode
/// fn pointers, so the registry costs no allocation per message beyond
/// the payload clone itself.
struct WireCodec {
    type_name: &'static str,
    encode: fn(&Payload) -> Box<dyn Any + Send>,
    decode: fn(Box<dyn Any + Send>) -> Payload,
}

fn encode_as<T: Any + Send + Clone>(p: &Payload) -> Box<dyn Any + Send> {
    // invariant: `ShardCtx::encode` picks this codec by the payload's
    // own `TypeId`.
    Box::new(p.downcast_ref::<T>().expect("codec type checked").clone())
}

fn decode_as<T: Any + Send + Clone>(b: Box<dyn Any + Send>) -> Payload {
    // invariant: the envelope's codec index names the codec that boxed
    // this body as a `T`, and every shard registers the same list.
    Rc::new(*b.downcast::<T>().expect("codec index is per-type")) as Payload
}

/// Per-shard replica context hung off [`World`]: ownership plan, the
/// per-origin message sequence counters, the cross-shard outbox, the
/// canonical record stream, and the payload codec registry.
pub(crate) struct ShardCtx {
    pub(crate) shard: usize,
    pub(crate) plan: Arc<ShardPlan>,
    /// Seed for deterministic retry-jitter hashing (the world seed).
    pub(crate) salt: u64,
    /// Per-origin-rank message sequence counters — the canonical
    /// tiebreaker for same-instant deliveries. Only ranks this shard
    /// owns ever advance theirs.
    pub(crate) msg_seq: Vec<u64>,
    /// Messages bound for other shards, drained at each window barrier.
    pub(crate) outbox: Vec<Outbound<WireEnvelope>>,
    /// The shard's canonical record stream (sorted at finish).
    pub(crate) records: Vec<ShardRecord>,
    codecs: Vec<WireCodec>,
    codec_index: HashMap<TypeId, u32>,
}

impl ShardCtx {
    pub(crate) fn new(shard: usize, plan: Arc<ShardPlan>, salt: u64, nranks: usize) -> ShardCtx {
        ShardCtx {
            shard,
            plan,
            salt,
            msg_seq: vec![0; nranks],
            outbox: Vec::new(),
            records: Vec::new(),
            codecs: Vec::new(),
            codec_index: HashMap::new(),
        }
    }

    pub(crate) fn register<T: Any + Send + Clone>(&mut self) {
        let tid = TypeId::of::<T>();
        if self.codec_index.contains_key(&tid) {
            return;
        }
        self.codec_index.insert(tid, self.codecs.len() as u32);
        self.codecs.push(WireCodec {
            type_name: std::any::type_name::<T>(),
            encode: encode_as::<T>,
            decode: decode_as::<T>,
        });
    }

    /// Encode a message for the coordinator. Panics (with the topic and
    /// payload type) when the payload type was never registered — a
    /// silent drop here would surface as an undebuggable hang on the
    /// requester's deadline path.
    pub(crate) fn encode(&self, msg: &Message, route: &[Rank], origin_seq: u64) -> WireEnvelope {
        let tid = (*msg.payload).type_id();
        let Some(&idx) = self.codec_index.get(&tid) else {
            panic!(
                "no wire codec for payload of topic {} crossing a shard boundary — \
                 call World::register_wire_type for it on every shard",
                msg.topic
            );
        };
        WireEnvelope {
            kind: msg.kind,
            topic: msg.topic.to_string(),
            from: msg.from.0,
            to: msg.to.0,
            matchtag: msg.matchtag,
            error: msg.error.clone(),
            size_bytes: msg.size_bytes,
            route: route.iter().map(|r| r.0).collect(),
            origin_seq,
            codec: idx,
            body: (self.codecs[idx as usize].encode)(&msg.payload),
        }
    }

    /// Decode an inbound envelope back into a deliverable message.
    pub(crate) fn decode(&self, wire: WireEnvelope) -> (Message, Rc<[Rank]>, u64) {
        let codec = &self.codecs[wire.codec as usize];
        let payload = (codec.decode)(wire.body);
        debug_assert_eq!(
            self.codec_index.get(&(*payload).type_id()),
            Some(&wire.codec),
            "codec {} decoded to a different type",
            codec.type_name
        );
        let msg = Message {
            kind: wire.kind,
            topic: wire.topic.as_str().into(),
            from: Rank(wire.from),
            to: Rank(wire.to),
            matchtag: wire.matchtag,
            payload,
            error: wire.error,
            size_bytes: wire.size_bytes,
        };
        let route: Rc<[Rank]> = wire.route.iter().map(|&r| Rank(r)).collect();
        (msg, route, wire.origin_seq)
    }
}

/// One shard of a full-fidelity sharded run: a complete `World` replica
/// plus its engine, driven by the window coordinator. The coordinator
/// builds it on the thread that runs it — the calling thread for shard
/// 0, a worker thread for every other shard — because the world holds
/// `Rc` state and never crosses threads.
pub struct WorldShard {
    /// The shard's world replica (sharding enabled).
    pub world: World,
    /// The shard's local engine.
    pub eng: FluxEngine,
    busy: std::time::Duration,
    boundary_out: u64,
}

/// What each shard hands back after the run.
pub struct WorldShardRun {
    /// The shard's canonical record stream, full-key sorted.
    pub records: Vec<ShardRecord>,
    /// Events the shard executed.
    pub events: u64,
    /// Wall-clock time spent executing windows (compute, excluding
    /// coordinator waits).
    pub busy: std::time::Duration,
    /// Boundary messages this shard sent.
    pub boundary_out: u64,
}

impl WorldShard {
    /// Wrap a sharding-enabled world and its engine.
    pub fn new(world: World, eng: FluxEngine) -> WorldShard {
        assert!(
            world.shard_ctx.is_some(),
            "WorldShard requires World::enable_sharding"
        );
        WorldShard {
            world,
            eng,
            busy: std::time::Duration::ZERO,
            boundary_out: 0,
        }
    }
}

impl ShardSim for WorldShard {
    type Boundary = WireEnvelope;
    type Output = WorldShardRun;

    fn next_time(&self) -> Option<SimTime> {
        self.eng.next_event_time()
    }

    fn deliver(&mut self, inb: Inbound<WireEnvelope>) {
        let at = inb.at;
        // invariant: `WorldShard::new` checked `shard_ctx`; only
        // `finish`, which consumes the shard, takes it.
        let ctx = self.world.shard_ctx.as_ref().expect("sharding enabled");
        let (msg, route, origin_seq) = ctx.decode(inb.msg);
        let key = delivery_key(msg.from.0, origin_seq);
        self.eng
            .schedule_event(at, key, FluxEvent::Deliver { msg, route });
    }

    fn run_window(&mut self, end: SimTime, out: &mut Vec<Outbound<WireEnvelope>>) -> u64 {
        let t0 = std::time::Instant::now();
        let before = self.eng.executed();
        // Windows are end-exclusive; the clock is integer micros.
        self.eng
            .run_until(&mut self.world, SimTime(end.as_micros().saturating_sub(1)));
        // invariant: as in `deliver`.
        let ctx = self.world.shard_ctx.as_mut().expect("sharding enabled");
        self.boundary_out += ctx.outbox.len() as u64;
        out.append(&mut ctx.outbox);
        self.busy += t0.elapsed();
        self.eng.executed() - before
    }

    fn finish(self) -> WorldShardRun {
        let mut s = self;
        // invariant: as in `deliver`.
        let ctx = s.world.shard_ctx.take().expect("sharding enabled");
        let mut records = ctx.records;
        // Runs are emitted in execution order (time-sorted, but
        // same-instant records land in event order); the canonical
        // merge wants full-key-sorted runs. Each shard pays for its
        // own — nearly sorted — run here, in parallel.
        records.sort_unstable();
        WorldShardRun {
            records,
            events: s.eng.executed(),
            busy: s.busy,
            boundary_out: s.boundary_out,
        }
    }
}

/// Per-run statistics from [`run_world_sharded`].
#[derive(Debug, Clone)]
pub struct WorldRunStats {
    /// Coordinator-level stats (windows, boundary messages, events).
    pub coordinator: ShardedRunStats,
    /// Events executed per shard.
    pub shard_events: Vec<u64>,
    /// Window-execution wall clock per shard.
    pub shard_busy: Vec<std::time::Duration>,
    /// Boundary messages sent per shard.
    pub shard_boundary_out: Vec<u64>,
}

/// Run `shards` full-fidelity world replicas to the horizon and return
/// the canonical merged record stream plus run stats. `build(shard)`
/// must construct shard `shard`'s [`WorldShard`] — the same world,
/// scenario, and codec registrations on every shard. `lookahead` must
/// not exceed the world's TBON hop latency (the per-hop delivery
/// floor).
pub fn run_world_sharded<F>(
    shards: usize,
    lookahead: SimDuration,
    horizon: SimTime,
    build: F,
) -> (Vec<ShardRecord>, WorldRunStats)
where
    F: Fn(usize) -> WorldShard + Sync,
{
    let build = &build;
    let builders: Vec<_> = (0..shards)
        .map(|_| move |shard: usize| build(shard))
        .collect();
    let (outs, coordinator) = ShardedEngine::new(lookahead)
        .with_horizon(horizon)
        .run(builders);
    let mut shard_events = Vec::with_capacity(shards);
    let mut shard_busy = Vec::with_capacity(shards);
    let mut shard_boundary_out = Vec::with_capacity(shards);
    let mut runs = Vec::with_capacity(shards);
    for out in outs {
        shard_events.push(out.events);
        shard_busy.push(out.busy);
        shard_boundary_out.push(out.boundary_out);
        runs.push(out.records);
    }
    (
        merge_records(runs),
        WorldRunStats {
            coordinator,
            shard_events,
            shard_busy,
            shard_boundary_out,
        },
    )
}
