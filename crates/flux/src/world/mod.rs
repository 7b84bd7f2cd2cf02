//! The Flux instance: brokers + node hardware + job state + messaging.
//!
//! `World` is the single mutable state threaded through every simulation
//! event. It owns the TBON, one [`Broker`] and one
//! [`fluxpm_hw::NodeHardware`] per rank, the job registry and scheduler,
//! and the plumbing for requests/responses/events between modules.
//!
//! The overlay is split by layer, one file each, and each layer owns
//! the state only it reads and writes:
//!
//! * this file — construction, modules, `send`/`deliver`/`publish`,
//!   jobs and the executor;
//! * `rpc.rs` — [`RpcBuilder`], the pending table, deadlines, retries
//!   and [`TopicStats`];
//! * `fault.rs` — [`FaultPlan`]: per-hop loss, jitter, burst channels
//!   and congestion windows;
//! * `link.rs` — per-edge FIFOs, [`LinkStats`] and the link monitor;
//! * `lifecycle.rs` — node failure, root failover, recovery,
//!   resurrection, re-balancing and topology notification.
//!
//! The **job executor** is a periodic engine task that integrates node
//! energy and advances every running [`crate::JobProgram`] by
//! one time slice. It also drains the per-node *overhead accumulator* —
//! host CPU time stolen from applications by in-band sensor reads — which
//! is how `flux-power-monitor`'s overhead becomes measurable application
//! slowdown (paper Fig. 3).

mod fault;
mod lifecycle;
mod link;
mod rpc;

pub use fault::{CongestionBurst, CongestionEvent, FaultPlan, GilbertElliott, LinkProfile};
pub use link::{LinkStats, DEFAULT_LINK_BANDWIDTH_BPS, DEFAULT_LINK_QUEUE_CAPACITY};
pub use rpc::{RetryPolicy, RpcBuilder, TopicStats};

use crate::broker::{Broker, LinkHealthConfig};
use crate::job::{JobId, JobProgram, JobRegistry, JobSpec, JobState, StepCtx, StepOutcome};
use crate::message::{payload, Message, MsgKind, Payload};
use crate::module::{ModuleCtx, SharedModule};
use crate::sched::FcfsScheduler;
use crate::state::StateLog;
use crate::tbon::{Rank, Tbon};
use crate::topic::Topic;
use crate::world_shard::ShardingError;
use fluxpm_hw::{lassen, tioga, MachineKind, NodeHardware, NodeId, Watts};
use fluxpm_sim::{Engine, Event, SimDuration, SimTime, Trace, TraceLevel, Xoshiro256pp};
use std::ops::ControlFlow;
use std::rc::Rc;

/// The engine type every Flux simulation runs on.
pub type FluxEngine = Engine<World, FluxEvent>;

/// The events the overlay schedules by the million, which the engine
/// stores by value in its slab: a message in flight, an armed RPC
/// deadline and a module wake allocate nothing. Everything rarer —
/// periodic module timers, the executor, retry backoff — is a closure.
pub enum FluxEvent {
    /// A message in flight, with the route it was launched on;
    /// [`World::send`] schedules it for the instant it arrives.
    Deliver {
        /// The message, handed to the destination's handler.
        msg: Message,
        /// The TBON route captured at send time.
        route: Rc<[Rank]>,
    },
    /// The deadline of the RPC `tag`. It keeps the request's header —
    /// what the timeout response and its trace line read — not the
    /// request: an armed deadline holds no reference to the payload.
    Deadline {
        /// The request's topic.
        topic: Topic,
        /// The requester, which the timeout response goes to.
        from: Rank,
        /// The rank that did not answer.
        to: Rank,
        /// The request's matchtag.
        tag: u64,
        /// How long the requester waited.
        deadline: SimDuration,
    },
    /// One [`Module::timer`](crate::Module::timer) call, armed by
    /// [`World::wake_module`].
    Wake {
        /// The rank hosting the module.
        rank: Rank,
        /// The module, looked up by name when the wake fires.
        module: &'static str,
        /// The broker incarnation the wake was armed in.
        incarnation: u64,
        /// Handed to the module's `timer`.
        tag: u64,
    },
}

impl Event<World> for FluxEvent {
    fn fire(self, world: &mut World, eng: &mut FluxEngine) {
        match self {
            FluxEvent::Deliver { msg, route } => deliver(world, eng, msg, &route),
            FluxEvent::Deadline {
                topic,
                from,
                to,
                tag,
                deadline,
            } => world.expire_rpc(eng, topic, from, to, tag, deadline),
            FluxEvent::Wake {
                rank,
                module,
                incarnation,
                tag,
            } => {
                fire_module_timer(world, eng, rank, module, incarnation, tag);
            }
        }
    }
}

/// Why the overlay dropped a message; each cause has its own Warn line.
enum DropCause {
    /// The sender's broker is down.
    DownedOrigin,
    /// An endpoint is detached: no route under this topology epoch.
    NoRoute(u64),
    /// Injected loss on a hop.
    Lost,
    /// Tail-dropped by the full FIFO of this congested link.
    TailDrop(Rank, Rank),
    /// A rank on the in-flight route died.
    DeadHop(Rank),
}

/// Topic published when a job is submitted (payload: [`JobId`]).
pub const EVENT_JOB_SUBMIT: &str = "job.event.submit";
/// Topic published when a job starts running (payload: [`JobId`]).
pub const EVENT_JOB_START: &str = "job.event.start";
/// Topic published when a job completes (payload: [`JobId`]).
pub const EVENT_JOB_FINISH: &str = "job.event.finish";
/// Topic published when a job fails or is cancelled (payload: [`JobId`]).
pub const EVENT_JOB_EXCEPTION: &str = "job.event.exception";

/// One Flux instance over a simulated cluster.
pub struct World {
    /// Overlay topology.
    pub tbon: Tbon,
    /// Which machine the nodes model.
    pub machine: MachineKind,
    /// Node hardware, indexed by rank.
    pub nodes: Vec<NodeHardware>,
    /// Brokers, indexed by rank.
    pub brokers: Vec<Broker>,
    /// Job table.
    pub jobs: JobRegistry,
    /// Node allocator.
    pub sched: FcfsScheduler,
    /// Simulation trace.
    pub trace: Trace,
    /// Root RNG for world-level stochastic models; children are derived
    /// deterministically.
    pub rng: Xoshiro256pp,
    /// Executor tick length (default 1 s).
    pub exec_tick: SimDuration,
    /// Set once the executor decides all work is done; long-running
    /// module loops (sampling threads) should observe this and stop.
    pub halted: bool,
    /// Executor auto-halts once at least this many jobs have been
    /// submitted and all are complete. `None` disables auto-halt.
    pub autostop_after: Option<u64>,
    /// Tuning shared by every broker's uplink degradation detector (and
    /// the hot-delay threshold the per-crossing window counters use).
    pub link_health: LinkHealthConfig,
    /// The instance's durable event log of root-service state (survives
    /// full instance death, like the production deployment's store).
    pub state: StateLog,
    /// Stolen host-CPU seconds per node since the last executor slice.
    overhead: Vec<f64>,
    /// Chaos injection over TBON links, if enabled: read by both send
    /// paths, armed by the fault layer.
    faults: Option<FaultPlan>,
    /// The RPC layer's pending table and counters.
    rpcs: rpc::RpcTable,
    /// The link layer's per-edge FIFOs.
    links: link::Links,
    /// The lifecycle layer's module factories and topology watch.
    lifecycle: lifecycle::Lifecycle,
    /// The ranks serving each indexed topic, in rank order: the four
    /// job-event topics the world publishes itself from the start, any
    /// other topic from its first [`World::publish`]. Every change to a
    /// broker's module table keeps it in step ([`World::subscribe`],
    /// [`World::unsubscribe`]).
    subscribers: Vec<(Topic, Vec<Rank>)>,
    /// End of the last executor slice.
    last_exec: SimTime,
    executor_installed: bool,
    /// The executor slice's snapshot of running job ids, kept between
    /// slices for its storage.
    slice_jobs: Vec<JobId>,
    /// Sharded-replica context, when this world is one shard of a
    /// full-fidelity sharded run (see [`crate::world_shard`]). `None`
    /// for classic single-threaded worlds — every sharded branch in the
    /// hot paths is behind this option, so they cost one predictable
    /// test when unsharded.
    pub(crate) shard_ctx: Option<Box<crate::world_shard::ShardCtx>>,
}

impl World {
    /// Build a cluster of `nnodes` nodes of the given machine type with a
    /// binary TBON. `seed` drives every stochastic model in the world.
    pub fn new(machine: MachineKind, nnodes: u32, seed: u64) -> World {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let arch = match machine {
            MachineKind::Lassen => lassen(),
            MachineKind::Tioga => tioga(),
        };
        let nodes: Vec<NodeHardware> = (0..nnodes)
            .map(|i| NodeHardware::new(NodeId(i), arch.clone(), rng.next_u64()))
            .collect();
        let brokers: Vec<Broker> = (0..nnodes)
            .map(|i| Broker::new(Rank(i), format!("{}{}", machine.name(), i)))
            .collect();
        let retry_rng = rng.child(0x7E_781);
        World {
            tbon: Tbon::binary(nnodes),
            machine,
            nodes,
            brokers,
            jobs: JobRegistry::new(),
            sched: FcfsScheduler::new(nnodes),
            trace: Trace::disabled(),
            rng,
            exec_tick: SimDuration::from_secs(1),
            halted: false,
            autostop_after: None,
            link_health: LinkHealthConfig::default(),
            state: StateLog::new(),
            overhead: vec![0.0; nnodes as usize],
            faults: None,
            rpcs: rpc::RpcTable::new(retry_rng),
            links: link::Links::new(nnodes as usize),
            lifecycle: lifecycle::Lifecycle::default(),
            subscribers: Vec::from(
                [
                    EVENT_JOB_SUBMIT,
                    EVENT_JOB_START,
                    EVENT_JOB_FINISH,
                    EVENT_JOB_EXCEPTION,
                ]
                .map(|t| (Topic::intern(t), Vec::new())),
            ),
            last_exec: SimTime::ZERO,
            executor_installed: false,
            slice_jobs: Vec::new(),
            shard_ctx: None,
        }
    }

    /// Turn this world into shard `shard` of a full-fidelity sharded
    /// run (see [`crate::world_shard`] for the replica model). Every
    /// shard builds the *same* world from the same seed and scripted
    /// scenario; after this call, modules only load on owned ranks and
    /// [`World::send`] suppresses messages whose origin this shard does
    /// not own, so each rank's side effects happen exactly once across
    /// the fleet. `salt` seeds the deterministic retry-jitter hash and
    /// must equal the world seed on every shard.
    ///
    /// Refused — with the world unchanged — when sharding is already
    /// enabled, `shard` is not below `plan.shards()`, or an installed
    /// [`FaultPlan`] is not [deterministic](FaultPlan::deterministic).
    pub fn enable_sharding(
        &mut self,
        shard: usize,
        plan: std::sync::Arc<crate::shard::ShardPlan>,
        salt: u64,
    ) -> Result<(), ShardingError> {
        if self.shard_ctx.is_some() {
            return Err(ShardingError::AlreadyEnabled);
        }
        let shards = plan.shards();
        if shard >= shards {
            return Err(ShardingError::ShardOutOfRange { shard, shards });
        }
        if matches!(&self.faults, Some(fp) if !fp.is_deterministic()) {
            return Err(ShardingError::NondeterministicFaults);
        }
        let nranks = self.size() as usize;
        self.shard_ctx = Some(Box::new(crate::world_shard::ShardCtx::new(
            shard, plan, salt, nranks,
        )));
        Ok(())
    }

    /// Register a payload type for cross-shard transport. Sharded
    /// worlds move message payloads between threads, so any payload
    /// that can cross a shard boundary must be `Send + Clone` and
    /// registered here — in the *same order* on every shard (the wire
    /// format carries the registry index). Unregistered payloads
    /// crossing a boundary panic with the topic name. Refused before
    /// [`World::enable_sharding`].
    pub fn register_wire_type<T: std::any::Any + Send + Clone>(
        &mut self,
    ) -> Result<(), ShardingError> {
        let ctx = self.shard_ctx.as_mut().ok_or(ShardingError::NotEnabled)?;
        ctx.register::<T>();
        Ok(())
    }

    /// Whether this world instance owns `rank`: true for every rank in
    /// a classic world, and only for the shard's own ranks in a sharded
    /// replica. Module loads, message origination, and canonical record
    /// emission are all gated on ownership.
    pub fn owns(&self, rank: Rank) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.plan.owner(rank) == ctx.shard,
        }
    }

    /// Append a canonical record to the shard's record stream (no-op on
    /// classic worlds). The merged, sorted record stream is the
    /// byte-comparable output of a sharded run — unlike the trace,
    /// whose interleaving and matchtags are partition-dependent.
    pub fn record(&mut self, at: SimTime, rank: u32, code: u8, a: u64, b: u64) {
        if let Some(ctx) = &mut self.shard_ctx {
            ctx.records.push(crate::shard::ShardRecord {
                at_us: at.as_micros(),
                rank,
                code,
                a,
                b,
            });
        }
    }

    /// The current root rank: rank 0 until a root failure promotes the
    /// lowest surviving rank. Cluster singletons (the monitor root agent,
    /// the cluster-level manager) live here, and external clients should
    /// address their queries to it.
    pub fn root(&self) -> Rank {
        self.tbon.root()
    }

    /// Number of nodes/brokers.
    pub fn size(&self) -> u32 {
        self.tbon.size()
    }

    /// Hostname of a rank.
    pub fn hostname(&self, rank: Rank) -> &str {
        &self.brokers[rank.index()].hostname
    }

    /// Load a module on one rank: register its routes and invoke `load`.
    ///
    /// On a sharded replica, loads on ranks this shard does not own are
    /// silently skipped (returning `false`): the owning shard's replica
    /// performs the real load. Harness code and module factories can
    /// therefore address *all* ranks uniformly — the guard keeps each
    /// module single-homed.
    pub fn load_module(&mut self, eng: &mut FluxEngine, rank: Rank, module: SharedModule) -> bool {
        if !self.owns(rank) {
            return false;
        }
        if !self.brokers[rank.index()].register(Rc::clone(&module)) {
            return false;
        }
        self.subscribe(rank, &module);
        let mut ctx = ModuleCtx {
            world: self,
            eng,
            rank,
        };
        module.borrow_mut().load(&mut ctx);
        true
    }

    /// Start a periodic timer for a loaded module — the simulation's
    /// equivalent of a module's own thread of control. The timer looks
    /// the module up by name on every tick (so unloading the module stops
    /// it) and stops when the world halts.
    ///
    /// The timer is pinned to the broker's current
    /// [incarnation](crate::Broker::incarnation): if the node fails and
    /// recovers between two ticks, the name lookup would otherwise find
    /// the factory-reloaded module — which schedules its *own* timer at
    /// load — and every fast fail/recover cycle would stack another
    /// timer onto the same module, multiplying its cadence and
    /// corrupting gap accounting. A stale-incarnation tick breaks
    /// instead.
    pub fn schedule_module_timer(
        &mut self,
        eng: &mut FluxEngine,
        rank: Rank,
        module_name: &'static str,
        start: SimTime,
        interval: SimDuration,
        tag: u64,
    ) -> fluxpm_sim::EventId {
        let incarnation = self.brokers[rank.index()].incarnation();
        eng.schedule_every(start, interval, move |world: &mut World, eng| {
            if world.halted || !fire_module_timer(world, eng, rank, module_name, incarnation, tag) {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        })
    }

    /// Call a loaded module's [`Module::timer`](crate::Module::timer)
    /// with `tag` once, at the end of the current instant: the wake is
    /// queued at `now` behind every event already queued for it. In a
    /// sharded replica, keyed deliveries run after an instant's plain
    /// events, so a wake armed by one of them runs before that instant's
    /// remaining deliveries. Like [`World::schedule_module_timer`], the
    /// wake is pinned to the broker's incarnation and finds the module by
    /// name when it fires, so a rank that failed in between is not woken;
    /// unlike it, the wake is one-shot, fires in a halted world too, and is
    /// a typed event, so arming it allocates nothing.
    pub fn wake_module(
        &mut self,
        eng: &mut FluxEngine,
        rank: Rank,
        module: &'static str,
        tag: u64,
    ) {
        let incarnation = self.brokers[rank.index()].incarnation();
        let wake = FluxEvent::Wake {
            rank,
            module,
            incarnation,
            tag,
        };
        eng.schedule_event(eng.now(), 0, wake);
    }

    /// Send a message over the overlay; it is delivered after the TBON
    /// route latency (plus any injected jitter). The route is resolved
    /// against the *current* topology epoch and travels with the
    /// message: messages from a downed rank, to a detached rank, or lost
    /// to an active [`FaultPlan`] are dropped here; messages routed
    /// *through* a rank that dies while they are in flight are dropped
    /// at delivery time instead. Messages sent after the topology heals
    /// take the re-parented route.
    ///
    /// The message is moved, with its route, into the
    /// [`FluxEvent::Deliver`] that delivers it: a message in flight is an
    /// entry of the engine's slab, not a heap block, and nothing else
    /// holds it (or its payload) once it is delivered.
    ///
    /// A sharded replica differs in three ways, each load-bearing for
    /// partition invariance. It sends only from ranks it owns (the
    /// owner's replica of the same event sends the real message, and
    /// the others leave no trace). Per-hop loss, jitter and congestion
    /// are hashes of the message identity `(origin, origin seq, hop)`
    /// ([`FaultPlan::deterministic`]), and serialization is charged
    /// with *no* FIFO, whose state would couple messages routed by
    /// different shards; every hop still costs at least `hop_latency`,
    /// the coordinator's lookahead. And deliveries are keyed by
    /// `(origin, origin seq)`, so same-instant deliveries run in one
    /// canonical order, after that instant's timers, in every partition.
    pub fn send(&mut self, eng: &mut FluxEngine, msg: Message) {
        if !self.owns(msg.from) {
            return;
        }
        let Some(route) = self.launch_route(eng.now(), &msg) else {
            return;
        };
        let origin = msg.from.0;
        let seq = self.shard_ctx.as_deref_mut().map(|ctx| {
            let seq = ctx.msg_seq[msg.from.index()];
            ctx.msg_seq[msg.from.index()] += 1;
            seq
        });
        // Store-and-forward over the route: at each hop the message
        // pays queueing + serialization on the link (evaluated at the
        // hop's *arrival* time) plus the fixed propagation latency and
        // any injected jitter. Self-sends (0 hops) cross no link.
        let hop_latency_us = self.tbon.hop_latency.as_micros();
        let mut arrive_us = eng.now().as_micros();
        if self.faults.is_none()
            && (msg.size_bytes as u64).saturating_mul(1_000_000) < DEFAULT_LINK_BANDWIDTH_BPS
        {
            // Ideal network (no fault plan installed) carrying a message
            // whose serialization is below the µs clock: every hop would
            // cost 0 (no loss, no jitter, no severity, FIFO bypass), so
            // skip the per-hop queue bookkeeping entirely. Plan-less
            // worlds pay nothing for the congestion machinery — and
            // report no per-link telemetry, since their links never do
            // anything.
            arrive_us += hop_latency_us * (route.len() as u64 - 1);
        } else {
            for (hop, link) in route.windows(2).enumerate() {
                let (a, b) = (link[0], link[1]);
                let ident = seq.map(|seq| (origin, seq, hop as u32));
                let (lost, jitter_us, severity) = match &mut self.faults {
                    Some(fp) => fp.traverse(a, b, arrive_us, ident),
                    None => (false, 0, 0.0),
                };
                if lost {
                    return self.drop_message(eng.now(), &msg, DropCause::Lost);
                }
                let link_us = if seq.is_some() {
                    link::serialization_us(msg.size_bytes, severity)
                } else if let Some(link_us) =
                    self.link_cross(a, b, arrive_us, msg.size_bytes, severity)
                {
                    link_us
                } else {
                    return self.drop_message(eng.now(), &msg, DropCause::TailDrop(a, b));
                };
                arrive_us += link_us + hop_latency_us + jitter_us;
            }
        }
        let at = SimTime::from_micros(arrive_us);
        match (seq, self.shard_ctx.as_deref_mut()) {
            (Some(seq), Some(ctx)) => {
                let key = crate::world_shard::delivery_key(origin, seq);
                let to_shard = ctx.plan.owner(msg.to);
                if to_shard == ctx.shard {
                    eng.schedule_event(at, key, FluxEvent::Deliver { msg, route });
                } else {
                    let wire = ctx.encode(&msg, &route, seq);
                    let out = fluxpm_sim::sharded::Outbound {
                        at,
                        to_shard,
                        msg: wire,
                    };
                    ctx.outbox.push(out);
                }
            }
            _ => {
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Debug,
                    "tbon",
                    format_args!(
                        "{:?} {} -> {} topic {}",
                        msg.kind, msg.from, msg.to, msg.topic
                    ),
                );
                eng.schedule_event(at, 0, FluxEvent::Deliver { msg, route });
            }
        }
    }

    /// Respond to a request with a payload.
    pub fn respond(&mut self, eng: &mut FluxEngine, req: &Message, p: Payload) {
        let resp = Message::respond_to(req, p);
        self.send(eng, resp);
    }

    /// Respond to a request with an error.
    pub fn respond_error(&mut self, eng: &mut FluxEngine, req: &Message, error: impl Into<String>) {
        let resp = Message::respond_error(req, error);
        self.send(eng, resp);
    }

    /// Publish an event: delivered, in rank order, to every rank whose
    /// broker has a handler registered for the topic. The topic is
    /// interned once; each subscriber's copy shares it (and the
    /// payload). The subscribers are read from an index, not found by a
    /// scan of every broker (DESIGN.md §15.2).
    pub fn publish(
        &mut self,
        eng: &mut FluxEngine,
        from: Rank,
        topic: impl Into<Topic>,
        p: Payload,
    ) {
        let topic = topic.into();
        let at = match self.subscribers.iter().position(|(t, _)| *t == topic) {
            Some(at) => at,
            None => {
                let serving = self.serving(&topic).collect();
                self.subscribers.push((topic.clone(), serving));
                self.subscribers.len() - 1
            }
        };
        let subscribers = self.subscribers[at].1.clone();
        debug_assert!(
            self.serving(&topic).eq(subscribers.iter().copied()),
            "subscriber index of {topic} is out of step"
        );
        // Sharded replicas only see their own subscribers (modules load
        // owner-only), and sends from unowned publishers are suppressed
        // — so pub/sub works exactly when every subscriber is co-sharded
        // with its publisher. The real power stack satisfies this (all
        // job-event subscribers are root services, sharing the root
        // shard); a local subscriber to a remote publisher would
        // silently miss events, so fail loudly instead.
        if self.shard_ctx.is_some() && !self.owns(from) && !subscribers.is_empty() {
            panic!(
                "sharded pub/sub requires subscribers co-sharded with the publisher: \
                 topic {topic} published from unowned {from} has local subscribers"
            );
        }
        for rank in subscribers {
            let msg = Message::event(from, rank, topic.clone(), Rc::clone(&p));
            self.send(eng, msg);
        }
    }

    /// Every rank that serves `topic`, in rank order: a scan of every
    /// broker's module table.
    fn serving<'a>(&'a self, topic: &'a Topic) -> impl Iterator<Item = Rank> + 'a {
        self.tbon
            .ranks()
            .filter(|r| self.brokers[r.index()].route(topic).is_some())
    }

    /// `rank`'s broker just registered `module`: add the rank to every
    /// indexed topic the module serves. A registration only adds to what
    /// a broker serves; a topic it takes from another module stays
    /// served.
    fn subscribe(&mut self, rank: Rank, module: &SharedModule) {
        let served = module.borrow().topics();
        for (topic, ranks) in &mut self.subscribers {
            if served.contains(topic) {
                if let Err(at) = ranks.binary_search(&rank) {
                    ranks.insert(at, rank);
                }
            }
        }
    }

    /// `rank`'s broker just lost every module: it serves no topic.
    fn unsubscribe(&mut self, rank: Rank) {
        for (_, ranks) in &mut self.subscribers {
            if let Ok(at) = ranks.binary_search(&rank) {
                ranks.remove(at);
            }
        }
    }

    /// The route `msg` launches on, or `None` after dropping it: its
    /// origin is down, or one endpoint is detached from the overlay, so
    /// no route exists under the current epoch.
    fn launch_route(&mut self, now: SimTime, msg: &Message) -> Option<Rc<[Rank]>> {
        if !self.brokers[msg.from.index()].is_up() {
            self.drop_message(now, msg, DropCause::DownedOrigin);
            return None;
        }
        let route = self.tbon.route(msg.from, msg.to);
        if route.is_none() {
            let epoch = self.tbon.epoch();
            self.drop_message(now, msg, DropCause::NoRoute(epoch));
        }
        route
    }

    /// Count a dropped message against its topic and trace why.
    fn drop_message(&mut self, now: SimTime, msg: &Message, cause: DropCause) {
        self.rpcs.note_drop(&msg.topic);
        let Message {
            kind,
            from,
            to,
            topic,
            ..
        } = msg;
        match cause {
            DropCause::DownedOrigin => self.trace.emit(
                now,
                TraceLevel::Warn,
                "tbon",
                format_args!("drop from downed {from}: {kind:?} -> {to} topic {topic}"),
            ),
            DropCause::NoRoute(epoch) => self.trace.emit(
                now,
                TraceLevel::Warn,
                "tbon",
                format_args!(
                    "sever: no route {kind:?} {from} -> {to} topic {topic} (epoch {epoch})"
                ),
            ),
            DropCause::Lost => self.trace.emit(
                now,
                TraceLevel::Warn,
                "fault",
                format_args!("lost {kind:?} {from} -> {to} topic {topic}"),
            ),
            DropCause::TailDrop(a, b) => self.trace.emit(
                now,
                TraceLevel::Warn,
                "link",
                format_args!(
                    "congested: tail-drop {kind:?} {from} -> {to} topic {topic} at link {a}-{b}"
                ),
            ),
            DropCause::DeadHop(dead) => self.trace.emit(
                now,
                TraceLevel::Warn,
                "tbon",
                format_args!("sever: {kind:?} {from} -> {to} topic {topic} dropped at {dead}"),
            ),
        }
    }

    /// Charge stolen host-CPU time to a node; the executor converts it
    /// into application slowdown on the next slice.
    pub fn charge_overhead(&mut self, node: NodeId, cpu_seconds: f64) {
        self.overhead[node.index()] += cpu_seconds.max(0.0);
    }

    /// Currently accumulated (undrained) overhead on a node.
    pub fn pending_overhead(&self, node: NodeId) -> f64 {
        self.overhead[node.index()]
    }

    /// Submit a job; it starts immediately if nodes are free (FCFS).
    pub fn submit(
        &mut self,
        eng: &mut FluxEngine,
        spec: JobSpec,
        program: Box<dyn JobProgram>,
    ) -> JobId {
        assert!(
            spec.nnodes >= 1 && spec.nnodes <= self.size(),
            "job requests {} nodes on a {}-node cluster",
            spec.nnodes,
            self.size()
        );
        let id = self.jobs.add(spec, program, eng.now());
        self.trace.emit(
            eng.now(),
            TraceLevel::Info,
            "job",
            format_args!("submit {id:?}"),
        );
        self.announce_job(eng, id, 0, EVENT_JOB_SUBMIT);
        self.try_schedule(eng);
        id
    }

    /// Start as many pending jobs as fit, in FCFS order (no backfill).
    fn try_schedule(&mut self, eng: &mut FluxEngine) {
        loop {
            let Some(job) = self.jobs.pending().next().and_then(|id| self.jobs.get(id)) else {
                break;
            };
            let (head, nnodes) = (job.id, job.spec.nnodes);
            let Some(alloc) = self.sched.allocate(nnodes) else {
                break;
            };
            let now = eng.now();
            if let Some(job) = self.jobs.get_mut(head) {
                job.state = JobState::Running;
                job.nodes = alloc.clone();
                job.started_at = Some(now);
                job.last_step = now;
            }
            // Give the program its start callback with a zero-length
            // slice so it can set initial demand.
            self.step_job(eng, head, now, 0.0, true);
            self.trace.emit(
                now,
                TraceLevel::Info,
                "job",
                format_args!("start {head:?} on {alloc:?}"),
            );
            self.announce_job(eng, head, 1, EVENT_JOB_START);
        }
    }

    /// Publish job event `topic` for `id` from the root, and append its
    /// canonical record (`outcome`: 0 submit, 1 start, 2 finish, 3
    /// exception) on the shard that owns the root.
    fn announce_job(&mut self, eng: &mut FluxEngine, id: JobId, outcome: u64, topic: &str) {
        let root = self.root();
        if self.owns(root) {
            let rec = crate::shard::rec::JOB_EVENT;
            self.record(eng.now(), root.0, rec, id.0, outcome);
        }
        self.publish(eng, root, topic, payload(id));
    }

    /// Mutable references to a set of nodes, in the order given. The
    /// ids must be distinct (two `&mut` to one node cannot exist); an id
    /// past the cluster yields nothing. Costs O(k log k) in the size of
    /// the set, not a walk over the cluster.
    pub fn nodes_mut(&mut self, ids: &[NodeId]) -> Vec<&mut NodeHardware> {
        pick_nodes(&mut self.nodes, ids)
    }

    /// Run one program slice. `starting` selects `on_start` vs `step`.
    /// Returns the outcome for running jobs.
    fn step_job(
        &mut self,
        eng: &mut FluxEngine,
        id: JobId,
        now: SimTime,
        dt: f64,
        starting: bool,
    ) -> Option<StepOutcome> {
        // Take the program out to sidestep the aliasing between the job
        // table and the node array; the allocation is read in place.
        let mut program = self.jobs.take_program(id)?;
        // invariant: `take_program` just found the job.
        let node_ids = &self.jobs.get(id).expect("program taken from it").nodes;
        let lost: Vec<f64> = node_ids
            .iter()
            .map(|n| std::mem::take(&mut self.overhead[n.index()]))
            .collect();
        let outcome = {
            let nodes = pick_nodes(&mut self.nodes, node_ids);
            let mut ctx = StepCtx {
                now,
                dt,
                nodes,
                lost_cpu_seconds: lost,
            };
            if starting {
                program.on_start(&mut ctx);
                StepOutcome::Running
            } else {
                program.step(&mut ctx)
            }
        };
        self.jobs.put_program(id, program, now);
        match &outcome {
            StepOutcome::Done { leftover_seconds } => {
                let end = SimTime::from_micros(
                    now.as_micros()
                        .saturating_sub((leftover_seconds.max(0.0) * 1e6) as u64),
                );
                self.finish_job(eng, id, end, JobState::Completed, &[]);
            }
            StepOutcome::Crashed { reason } => {
                self.trace.emit(
                    now,
                    TraceLevel::Warn,
                    "job",
                    format_args!("{id:?} crashed: {reason}"),
                );
                self.finish_job(eng, id, now, JobState::Failed, &[]);
            }
            StepOutcome::Running => {}
        }
        Some(outcome)
    }

    /// Move a job to its final `state` at `end`, idle its nodes, release
    /// them to the scheduler except `withhold` (failed nodes must not
    /// return to the pool — a batch failure may take several of a job's
    /// nodes at once), publish the finish or exception event, and start
    /// whatever now fits.
    fn finish_job(
        &mut self,
        eng: &mut FluxEngine,
        id: JobId,
        end: SimTime,
        state: JobState,
        withhold: &[NodeId],
    ) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        job.state = state;
        job.finished_at = Some(end);
        for n in pick_nodes(&mut self.nodes, &job.nodes) {
            n.set_idle();
        }
        let releasable: Vec<NodeId> = job
            .nodes
            .iter()
            .copied()
            .filter(|n| !withhold.contains(n))
            .collect();
        self.sched.release(&releasable);
        let (word, topic, outcome) = if state == JobState::Completed {
            ("finish", EVENT_JOB_FINISH, 2)
        } else {
            ("exception", EVENT_JOB_EXCEPTION, 3)
        };
        self.trace.emit(
            eng.now(),
            TraceLevel::Info,
            "job",
            format_args!("{word} {id:?}"),
        );
        self.announce_job(eng, id, outcome, topic);
        self.try_schedule(eng);
    }

    /// Cancel a job. A pending job is simply marked failed; a running
    /// job is torn down and its nodes reclaimed. Returns false if the
    /// job does not exist or has already finished.
    pub fn cancel_job(&mut self, eng: &mut FluxEngine, id: JobId) -> bool {
        let Some(job) = self.jobs.get_mut(id) else {
            return false;
        };
        match job.state {
            JobState::Pending => {
                job.state = JobState::Failed;
                job.finished_at = Some(eng.now());
                let root = self.root();
                self.publish(eng, root, EVENT_JOB_EXCEPTION, payload(id));
                self.try_schedule(eng);
                true
            }
            JobState::Running => {
                self.finish_job(eng, id, eng.now(), JobState::Failed, &[]);
                true
            }
            _ => false,
        }
    }

    /// Install the job executor (idempotent). Must be called once before
    /// `Engine::run`.
    pub fn install_executor(&mut self, eng: &mut FluxEngine) {
        if self.executor_installed {
            return;
        }
        self.executor_installed = true;
        self.last_exec = eng.now();
        let tick = self.exec_tick;
        eng.schedule_every(eng.now() + tick, tick, |world, eng| {
            world.executor_slice(eng)
        });
    }

    /// One executor slice: integrate energy, advance programs, handle
    /// completions, decide auto-halt.
    fn executor_slice(&mut self, eng: &mut FluxEngine) -> ControlFlow<()> {
        let now = eng.now();
        let dt = (now - self.last_exec).as_secs_f64();
        self.last_exec = now;

        // Integrate energy for the elapsed slice with the demand that was
        // in force during it (before programs update demand below).
        for node in &mut self.nodes {
            node.tick(dt);
        }

        // Advance every job that is running now: the ids are
        // snapshotted (into a buffer kept across slices), so a job that
        // a completion below starts is first stepped next slice.
        let mut running = std::mem::take(&mut self.slice_jobs);
        running.clear();
        running.extend(self.jobs.running());
        for &id in &running {
            self.step_job(eng, id, now, dt, false);
        }
        self.slice_jobs = running;

        // Drop overhead charged to idle nodes (nothing to slow down).
        for (i, oh) in self.overhead.iter_mut().enumerate() {
            if self.jobs.job_on_node(NodeId(i as u32)).is_none() {
                *oh = 0.0;
            }
        }

        if let Some(n) = self.autostop_after {
            if self.jobs.all().len() as u64 >= n && self.jobs.all_complete() {
                self.halted = true;
                self.trace.emit(
                    now,
                    TraceLevel::Info,
                    "exec",
                    format_args!("halt: all jobs complete"),
                );
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    /// Instantaneous total cluster power draw.
    pub fn cluster_power(&mut self) -> Watts {
        let mut total = Watts::ZERO;
        for n in &mut self.nodes {
            total += n.draw().total();
        }
        total
    }
}

/// [`World::nodes_mut`] over the node array alone, so a caller can hold
/// other fields of the world while it has the references.
fn pick_nodes<'a>(nodes: &'a mut [NodeHardware], ids: &[NodeId]) -> Vec<&'a mut NodeHardware> {
    // Visit the wanted nodes in index order with one cursor over the
    // node array, dropping each reference into its caller's position.
    let mut by_index: Vec<(usize, usize)> = ids
        .iter()
        .enumerate()
        .map(|(pos, n)| (n.index(), pos))
        .collect();
    by_index.sort_unstable();
    debug_assert!(
        by_index.windows(2).all(|w| w[0].0 != w[1].0),
        "nodes_mut: duplicate node id in {ids:?}"
    );
    let mut picked: Vec<Option<&mut NodeHardware>> = Vec::new();
    picked.resize_with(ids.len(), || None);
    let mut rest = nodes.iter_mut();
    let mut next = 0;
    for (index, pos) in by_index {
        // `None`: a repeated id, already handed out.
        let Some(skip) = index.checked_sub(next) else {
            continue;
        };
        picked[pos] = rest.nth(skip);
        next = index + 1;
    }
    picked.into_iter().flatten().collect()
}

/// Run `module`'s timer on `rank` if the broker is still in the
/// incarnation the timer was armed in and the module is loaded there;
/// returns whether it ran.
fn fire_module_timer(
    world: &mut World,
    eng: &mut FluxEngine,
    rank: Rank,
    module: &'static str,
    incarnation: u64,
    tag: u64,
) -> bool {
    let broker = &world.brokers[rank.index()];
    if broker.incarnation() != incarnation {
        return false;
    }
    let Some(module) = broker.module(module) else {
        return false;
    };
    let mut ctx = ModuleCtx { world, eng, rank };
    module.borrow_mut().timer(&mut ctx, tag);
    true
}

/// Deliver a message at its destination rank. `route` is the TBON route
/// the message was launched on (captured at send time — the overlay may
/// have healed since, but a packet in flight cannot switch wires). The
/// message arrives by value, out of the event that carried it, and is
/// lent to the handler; it is dropped — payload reference included —
/// when the handler returns.
fn deliver(world: &mut World, eng: &mut FluxEngine, msg: Message, route: &[Rank]) {
    // A downed rank neither receives nor relays: drop any message whose
    // route transits a dead broker (including the endpoints).
    if let Some(dead) = route
        .iter()
        .copied()
        .find(|r| !world.brokers[r.index()].is_up())
    {
        return world.drop_message(eng.now(), &msg, DropCause::DeadHop(dead));
    }
    world.trace.emit(
        eng.now(),
        TraceLevel::Debug,
        "tbon",
        format_args!(
            "deliver {} -> {} {:?} topic {}",
            msg.from, msg.to, msg.kind, msg.topic
        ),
    );
    if msg.kind == MsgKind::Response {
        return world.resolve_rpc(eng, &msg);
    }
    let Some(module) = world.brokers[msg.to.index()].route(&msg.topic) else {
        if msg.kind == MsgKind::Request {
            world.respond_error(eng, &msg, format!("unknown service {}", msg.topic));
        }
        return;
    };
    let rank = msg.to;
    let mut ctx = ModuleCtx { world, eng, rank };
    module.borrow_mut().handle(&mut ctx, &msg);
}

#[cfg(test)]
mod failure_tests;
#[cfg(test)]
mod tests;
