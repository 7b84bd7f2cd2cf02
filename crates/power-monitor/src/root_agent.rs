//! The root aggregation agent.
//!
//! Runs in the broker at the root of the TBON. On a client request for a
//! job's telemetry it resolves the job's nodes and time window from the
//! instance's job record, fans a window query out to each node agent,
//! and replies to the client once every node has answered (paper §III-A).
//!
//! The root agent is a *root service*: when the root rank dies, the
//! world migrates it (state and all) onto the elected successor, where
//! [`Module::on_migrate`] re-issues every in-flight aggregation under
//! the new topology epoch. Every aggregation begin/end is also logged to
//! the instance [state log](fluxpm_flux::StateLog), so even *full*
//! instance death replays the in-flight set exactly on resurrection.
//!
//! It also owns the push plane's *authority*, a [`TelemetrySequencer`]:
//! node agents push samples up
//! ([`crate::subscription::TOPIC_SAMPLE_PUSH`]), the agent attributes
//! each to its job, assigns it its global sequence number and records it
//! as the node's latest — then hands the stamped delta to the
//! [`TelemetryRelay`] on its own rank, the root of the relay tree, which
//! delivers it like any delta a relay ingests: to the subscribers
//! attached at this rank, and once per interested child edge in one
//! batch per instant (see [`crate::relay`]). The agent holds no
//! subscriber, edge or batch.

use crate::log::Records;
use crate::node_agent::{TOPIC_NODE_DATA, TOPIC_NODE_STATS};
use crate::proto::{
    JobDataReply, JobDataRequest, JobStatsReply, JobStatsRequest, MonitorReply, MonitorRequest,
    NodeDataReply, NodeDataRequest, NodeStats, SamplePush,
};
use crate::relay::{Ingest, TelemetryRelay, RELAY};
use crate::subscription::{
    LinkSample, SubscriptionFilter, TelemetryDelta, TelemetrySequencer, TOPIC_SAMPLE_PUSH,
};
use fluxpm_flux::{
    FluxEngine, JobId, Message, Module, ModuleCtx, MsgKind, Protocol, Rank, RetryPolicy,
    StateEvent, StateValue, Topic, World,
};
use fluxpm_hw::NodeId;
use fluxpm_sim::{SimDuration, TraceLevel};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Module name, also the key under which state events are logged.
pub const ROOT_AGENT: &str = "power-monitor-root-agent";

/// Topic the external client calls for full records.
pub const TOPIC_GET_JOB_DATA: &str = "power-monitor.get-job-data";
/// Topic the external client calls for summary statistics.
pub const TOPIC_GET_JOB_STATS: &str = "power-monitor.get-job-stats";

/// Module-timer tag for the periodic link-health export.
const TIMER_LINK_EXPORT: u64 = 1;

/// What one node contributes to a client query, and how the per-node
/// answers become the client's reply: everything the full-record and
/// the summary query do *not* share. The fan-out itself
/// ([`RootAgent::start_aggregation`]) is written once over this.
trait NodeAnswer: Clone + 'static {
    /// The `kind` an `agg-begin` or snapshot entry is logged under.
    const KIND: &'static str;
    /// The node-agent topic the fan-out calls.
    fn topic(topics: &RootAgentTopics) -> &Topic;
    /// The per-node request for a window.
    fn request(window: NodeDataRequest) -> MonitorRequest;
    /// This answer out of a node agent's reply, if that is what it holds.
    fn of(reply: &MonitorReply) -> Option<&Self>;
    /// Stands in for a node that never answered (dead, partitioned).
    fn silent() -> Self;
    /// Runs once the last node has answered or timed out, before the
    /// client's reply is built.
    fn on_complete(_world: &mut World, _eng: &FluxEngine, _answers: &[Option<Self>]) {}
    /// The client's reply, its header moved out of the finished `agg`.
    fn job_reply(agg: &mut Aggregation<Self>, nodes: Vec<Self>) -> MonitorReply;
}

impl NodeAnswer for NodeDataReply {
    const KIND: &'static str = "data";

    fn topic(topics: &RootAgentTopics) -> &Topic {
        &topics.node_data
    }

    fn request(window: NodeDataRequest) -> MonitorRequest {
        MonitorRequest::NodeData(window)
    }

    fn of(reply: &MonitorReply) -> Option<&Self> {
        match reply {
            MonitorReply::NodeData(r) => Some(r),
            _ => None,
        }
    }

    fn silent() -> Self {
        NodeDataReply {
            hostname: Arc::from(""),
            records: Records::default(),
            complete: false,
        }
    }

    fn job_reply(agg: &mut Aggregation<Self>, nodes: Vec<Self>) -> MonitorReply {
        MonitorReply::JobData(JobDataReply {
            job: agg.job,
            name: std::mem::take(&mut agg.name),
            start_us: agg.start_us,
            end_us: agg.end_us,
            nodes,
        })
    }
}

/// Same fan-out shape as the full-record query, but each node agent
/// sends back only a summary.
impl NodeAnswer for NodeStats {
    const KIND: &'static str = "stats";

    fn topic(topics: &RootAgentTopics) -> &Topic {
        &topics.node_stats
    }

    fn request(window: NodeDataRequest) -> MonitorRequest {
        MonitorRequest::NodeStats(window)
    }

    fn of(reply: &MonitorReply) -> Option<&Self> {
        match reply {
            MonitorReply::NodeStats(s) => Some(s),
            _ => None,
        }
    }

    fn silent() -> Self {
        NodeStats {
            hostname: Arc::from(""),
            samples: 0,
            mean_w: 0.0,
            max_w: 0.0,
            min_w: 0.0,
            complete: false,
        }
    }

    /// Canonical record for sharded byte-equality checks (no-op on
    /// classic worlds): reporting nodes + aggregated mean power in
    /// milliwatts.
    fn on_complete(world: &mut World, eng: &FluxEngine, answers: &[Option<Self>]) {
        let reporting = answers.iter().flatten().count() as u64;
        let total_mw: u64 = answers
            .iter()
            .flatten()
            .map(|s| (s.mean_w * 1000.0).round() as u64)
            .sum();
        let root = world.root();
        world.record(
            eng.now(),
            root.0,
            fluxpm_flux::shard::rec::ROOT_AGG,
            reporting,
            total_mw,
        );
    }

    fn job_reply(agg: &mut Aggregation<Self>, nodes: Vec<Self>) -> MonitorReply {
        MonitorReply::JobStats(JobStatsReply {
            job: agg.job,
            name: std::mem::take(&mut agg.name),
            start_us: agg.start_us,
            end_us: agg.end_us,
            nodes,
        })
    }
}

/// In-flight aggregation for one client request.
struct Aggregation<N> {
    request: Message,
    job: JobId,
    name: String,
    start_us: u64,
    end_us: u64,
    answers: Vec<Option<N>>,
    remaining: usize,
}

/// Client requests whose fan-out has not completed, keyed by matchtag.
/// Kept so a root failover can re-issue them on the successor (the old
/// root's pending fan-out callbacks die with its broker). The map keying
/// makes every terminal path — reply sent, error sent, duplicate folded
/// — an O(log n) eager removal instead of a scan deferred to later
/// bookkeeping.
type InflightMap = Rc<RefCell<BTreeMap<u64, Message>>>;

/// Remove a finished aggregation from the in-flight set *immediately*
/// and log its end. Shared by every terminal path so a cancelled or
/// timed-out reduction can never linger.
fn finish_inflight(world: &mut World, eng: &FluxEngine, inflight: &InflightMap, tag: u64) {
    if inflight.borrow_mut().remove(&tag).is_some() {
        world.state.append(
            eng.now().as_micros(),
            ROOT_AGENT,
            "agg-end",
            StateValue::record([("tag", StateValue::U64(tag))]),
        );
    }
}

/// The root agent's topics, interned once when the agent is built: the
/// one of the three it serves that a snapshot compares against, and the
/// two it sends on.
struct RootAgentTopics {
    get_job_stats: Topic,
    node_data: Topic,
    node_stats: Topic,
}

/// The `flux-power-monitor` root agent.
pub struct RootAgent {
    topics: RootAgentTopics,
    /// Client requests taken up (diagnostics): counted when a request's
    /// fan-out *starts* (or it is answered on the spot), not when its
    /// reply goes out — requests still in `inflight` are included.
    served: u64,
    /// Per-attempt deadline for node-agent fan-out RPCs; a node that
    /// never answers (dead, partitioned) contributes an incomplete
    /// reply instead of stalling the aggregation forever.
    deadline: SimDuration,
    inflight: InflightMap,
    /// The push plane's authority: sequence assignment and the
    /// latest-per-node snapshot. Migrates live with the root service;
    /// subscriber queues and child edges live in the per-broker relays.
    sequencer: TelemetrySequencer,
    /// Samples pushed up by node agents (diagnostics).
    pushes_received: u64,
    /// When set, publish every active link's queueing health on this
    /// cadence (see [`MonitorConfig::link_export_interval`]).
    ///
    /// [`MonitorConfig::link_export_interval`]: crate::MonitorConfig
    link_export_every: Option<SimDuration>,
    /// Link-health deltas published so far (diagnostics).
    link_exports: u64,
}

impl Default for RootAgent {
    fn default() -> Self {
        RootAgent::new(crate::RPC_DEADLINE)
    }
}

impl RootAgent {
    /// Create an unloaded agent with the given fan-out RPC deadline.
    pub fn new(deadline: SimDuration) -> RootAgent {
        RootAgent {
            topics: RootAgentTopics {
                get_job_stats: Topic::intern(TOPIC_GET_JOB_STATS),
                node_data: Topic::intern(TOPIC_NODE_DATA),
                node_stats: Topic::intern(TOPIC_NODE_STATS),
            },
            served: 0,
            deadline,
            inflight: Rc::new(RefCell::new(BTreeMap::new())),
            sequencer: TelemetrySequencer::default(),
            pushes_received: 0,
            link_export_every: None,
            link_exports: 0,
        }
    }

    /// Enable periodic link-health export on this cadence.
    pub fn with_link_export(mut self, every: SimDuration) -> RootAgent {
        assert!(!every.is_zero());
        self.link_export_every = Some(every);
        self
    }

    /// Create as a shared module handle.
    pub fn shared(deadline: SimDuration) -> Rc<RefCell<RootAgent>> {
        Rc::new(RefCell::new(RootAgent::new(deadline)))
    }

    /// Client requests taken up so far, including those still in
    /// [`RootAgent::inflight`].
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Client requests currently being aggregated.
    pub fn inflight(&self) -> usize {
        self.inflight.borrow().len()
    }

    /// The sequencer and its latest-per-node snapshot (for diagnostics
    /// and tests).
    pub fn sequencer(&self) -> &TelemetrySequencer {
        &self.sequencer
    }

    /// Samples pushed up by node agents so far.
    pub fn pushes_received(&self) -> u64 {
        self.pushes_received
    }

    /// Link-health deltas published so far.
    pub fn link_exports(&self) -> u64 {
        self.link_exports
    }

    /// Seed snapshot for a new subscriber, and the horizon its live
    /// stream is floored at (see [`TelemetrySequencer::seed_for`]). The
    /// one call the root rank's relay makes into the agent.
    pub fn seed_for(&self, filter: &SubscriptionFilter) -> (Vec<Arc<TelemetryDelta>>, u64) {
        self.sequencer.seed_for(filter)
    }

    /// Hand one freshly stamped delta to the relay on this rank. Its
    /// local subscribers have it when this returns; the relay stages it
    /// on its child edges and sends them, with every other delta handed
    /// over in this instant, at the end of the instant.
    fn hand_off(ctx: &mut ModuleCtx<'_>, delta: Arc<TelemetryDelta>) {
        if let Some(module) = ctx.world.brokers[ctx.rank.index()].module(RELAY) {
            let mut guard = module.borrow_mut();
            if let Some(relay) = guard
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<TelemetryRelay>())
            {
                relay.ingest(ctx, Ingest::HandOff(&delta));
            }
        }
    }

    /// Arm the periodic link-export timer on the hosting rank. Called
    /// from both [`Module::load`] and [`Module::on_migrate`]: a module
    /// timer is pinned to its broker incarnation, so the export must be
    /// re-armed wherever the root service lands.
    fn arm_link_export(&self, ctx: &mut ModuleCtx<'_>) {
        if let Some(every) = self.link_export_every {
            let start = ctx.eng.now() + every;
            ctx.world.schedule_module_timer(
                ctx.eng,
                ctx.rank,
                ROOT_AGENT,
                start,
                every,
                TIMER_LINK_EXPORT,
            );
        }
    }

    /// Log an aggregation begin: enough to rebuild the client request
    /// (and therefore the whole fan-out) on a resurrected instance.
    fn log_begin(ctx: &mut ModuleCtx<'_>, msg: &Message, kind: &str, job: JobId) {
        let ev = StateValue::record([
            ("tag", StateValue::U64(msg.matchtag)),
            ("from", StateValue::U64(msg.from.0 as u64)),
            ("to", StateValue::U64(msg.to.0 as u64)),
            ("kind", kind.into()),
            ("job", StateValue::U64(job.0)),
        ]);
        ctx.world
            .state
            .append(ctx.eng.now().as_micros(), ROOT_AGENT, "agg-begin", ev);
    }

    /// Resolve the job behind a client request, or answer with an error.
    /// Returns the window and the job's ranks.
    fn resolve_job(
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        job: JobId,
    ) -> Option<(JobId, String, u64, u64, Vec<Rank>)> {
        let Some(record) = ctx.world.jobs.get(job) else {
            ctx.world
                .respond_error(ctx.eng, msg, format!("no such job {job:?}"));
            return None;
        };
        // A pending job, or one cancelled before it started, has no
        // window to report.
        let Some(started_at) = record.started_at else {
            ctx.world.respond_error(ctx.eng, msg, "job has not started");
            return None;
        };
        let start_us = started_at.as_micros();
        let end_us = record
            .finished_at
            .map(|t| t.as_micros())
            .unwrap_or_else(|| ctx.eng.now().as_micros());
        Some((
            record.id,
            record.spec.name.clone(),
            start_us,
            end_us,
            record.ranks(),
        ))
    }

    /// Fold a request that is already being aggregated instead of double
    /// fanning out and double counting. A client's *retry* is not that
    /// case — every attempt draws a fresh matchtag (the world's RPC
    /// launch) and is a request of its own; what
    /// re-enters under a tag still in flight is a stored request
    /// delivered again.
    fn already_inflight(&self, msg: &Message) -> bool {
        self.inflight.borrow().contains_key(&msg.matchtag)
    }

    /// Answer one client query: fan the job's window out to the node
    /// agent of every rank it ran on and reply once each has answered
    /// or timed out. `N` is what differs between the two queries.
    fn start_aggregation<N: NodeAnswer>(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        job: JobId,
    ) {
        if self.already_inflight(msg) {
            return;
        }
        let Some((job, name, start_us, end_us, ranks)) = Self::resolve_job(ctx, msg, job) else {
            return;
        };
        self.served += 1;
        let n = ranks.len();
        let mut agg = Aggregation::<N> {
            request: msg.clone(),
            job,
            name,
            start_us,
            end_us,
            answers: vec![None; n],
            remaining: n,
        };
        if n == 0 {
            // Nothing to fan out to: answer now rather than parking an
            // aggregation that no callback will ever finish.
            let reply = N::job_reply(&mut agg, Vec::new());
            ctx.world.respond(ctx.eng, msg, reply.encode());
            return;
        }
        let agg = Rc::new(RefCell::new(agg));
        self.inflight.borrow_mut().insert(msg.matchtag, msg.clone());
        Self::log_begin(ctx, msg, N::KIND, job);

        let policy = RetryPolicy::with_deadline(self.deadline);
        let self_rank = ctx.rank;
        for (i, rank) in ranks.into_iter().enumerate() {
            let agg = Rc::clone(&agg);
            let inflight = Rc::clone(&self.inflight);
            let req = N::request(NodeDataRequest { start_us, end_us });
            ctx.world
                .rpc(rank, N::topic(&self.topics), req.encode())
                .from(self_rank)
                .retry(policy)
                .send(ctx.eng, move |world, eng, resp| {
                    let mut a = agg.borrow_mut();
                    // Keeping a node's answer shares its records with the
                    // node agent's slice; nothing is copied here or below.
                    a.answers[i] = MonitorReply::decode_ref(resp).ok().and_then(N::of).cloned();
                    a.remaining -= 1;
                    if a.remaining == 0 {
                        finish_inflight(world, eng, &inflight, a.request.matchtag);
                        N::on_complete(world, eng, &a.answers);
                        // The last callback: move everything out of the
                        // aggregation, which dies with this closure.
                        let nodes = a
                            .answers
                            .iter_mut()
                            .map(|r| r.take().unwrap_or_else(N::silent))
                            .collect();
                        let reply = N::job_reply(&mut a, nodes);
                        world.respond(eng, &a.request, reply.encode());
                    }
                });
        }
    }

    fn on_push(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, push: SamplePush) {
        // The sequencer's latest-per-node table is indexed by node: a
        // push naming a node outside the instance must not size it.
        if push.node >= ctx.world.size() {
            ctx.world
                .respond_error(ctx.eng, msg, format!("no such node {}", push.node));
            return;
        }
        self.pushes_received += 1;
        // Job attribution happens here: the node agent stays stateless,
        // and the instance's job registry is authoritative at the root.
        let job = ctx.world.jobs.job_on_node(NodeId(push.node));
        let delta = self
            .sequencer
            .publish(push.node, push.timestamp_us, push.node_w, job);
        Self::hand_off(ctx, delta);
        ctx.world
            .respond(ctx.eng, msg, MonitorReply::PushAck.encode());
    }
}

impl Module for RootAgent {
    fn name(&self) -> &'static str {
        ROOT_AGENT
    }

    fn topics(&self) -> Rc<[Topic]> {
        // Subscribe/unsubscribe/poll are served by the per-broker
        // relays (uniformly, including on the root rank).
        fluxpm_flux::topic_list![TOPIC_GET_JOB_DATA, TOPIC_GET_JOB_STATS, TOPIC_SAMPLE_PUSH]
    }

    fn load(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.arm_link_export(ctx);
    }

    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        if tag != TIMER_LINK_EXPORT {
            return;
        }
        // Snapshot the overlay's per-link queueing telemetry into the
        // stream: one delta per active edge, keyed by the child endpoint.
        let now_us = ctx.eng.now().as_micros();
        let links: Vec<_> = ctx.world.link_stats();
        for l in links {
            let delta = self.sequencer.publish_link(
                l.child,
                now_us,
                LinkSample {
                    parent: l.parent,
                    ewma_delay_us: l.ewma_delay_us,
                    ewma_depth: l.ewma_depth,
                    delivered: l.delivered,
                    congestion_drops: l.congestion_drops,
                    reparents: l.reparents,
                },
            );
            Self::hand_off(ctx, delta);
            self.link_exports += 1;
        }
    }

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind != MsgKind::Request {
            return;
        }
        match MonitorRequest::decode_ref(msg) {
            Ok(&MonitorRequest::JobData(req)) => {
                self.start_aggregation::<NodeDataReply>(ctx, msg, req.job)
            }
            Ok(&MonitorRequest::JobStats(req)) => {
                self.start_aggregation::<NodeStats>(ctx, msg, req.job)
            }
            Ok(&MonitorRequest::PushSample(push)) => self.on_push(ctx, msg, push),
            Ok(_) => {} // node-agent and relay topics; not served here
            Err(e) => ctx.world.respond_error(ctx.eng, msg, e.reason),
        }
    }

    fn root_service(&self) -> bool {
        true
    }

    fn on_migrate(&mut self, ctx: &mut ModuleCtx<'_>) {
        // The old root's fan-out callbacks were cancelled with its
        // broker. Re-issue every unfinished client aggregation from the
        // new root: re-address the stored request to this rank (replies
        // must originate from a live broker) and restart the fan-out.
        // Subscriptions are deliberately *not* durable state: their
        // queues died with the old broker, and consumers re-subscribe to
        // resume from the latest snapshot.
        let stalled: Vec<Message> = {
            let mut inflight = self.inflight.borrow_mut();
            let msgs = inflight.values().cloned().collect();
            inflight.clear();
            msgs
        };
        if !stalled.is_empty() {
            ctx.world.trace.emit(
                ctx.eng.now(),
                TraceLevel::Info,
                "monitor",
                format!(
                    "root-agent migrated to {}; re-issuing {} in-flight aggregation(s)",
                    ctx.rank,
                    stalled.len()
                ),
            );
        }
        for mut msg in stalled {
            msg.to = ctx.rank;
            self.handle(ctx, &msg);
        }
        // Nothing of the push plane is absorbed: the sequencer came
        // along with `self`, and this rank's relay already owns exactly
        // its child edges. The old root's timer died with its broker
        // incarnation; re-arm it here.
        self.arm_link_export(ctx);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// The replayable state: the in-flight client aggregations. `served`
    /// and push counters are diagnostics; subscriptions are ephemeral by
    /// design (see [`Module::on_migrate`]).
    fn snapshot(&self) -> Option<StateValue> {
        let inflight: Vec<StateValue> = self
            .inflight
            .borrow()
            .values()
            .map(|msg| {
                let kind = if msg.topic == self.topics.get_job_stats {
                    NodeStats::KIND
                } else {
                    NodeDataReply::KIND
                };
                let job = match MonitorRequest::decode_ref(msg) {
                    Ok(MonitorRequest::JobData(r)) => r.job.0,
                    Ok(MonitorRequest::JobStats(r)) => r.job.0,
                    _ => u64::MAX,
                };
                StateValue::record([
                    ("tag", StateValue::U64(msg.matchtag)),
                    ("from", StateValue::U64(msg.from.0 as u64)),
                    ("to", StateValue::U64(msg.to.0 as u64)),
                    ("kind", kind.into()),
                    ("job", StateValue::U64(job)),
                ])
            })
            .collect();
        Some(StateValue::record([("inflight", inflight.into())]))
    }

    fn restore(&mut self, snapshot: &StateValue) {
        self.inflight.borrow_mut().clear();
        for entry in snapshot
            .get("inflight")
            .and_then(|l| l.as_list())
            .unwrap_or_default()
        {
            if let Some(msg) = rebuild_request(entry) {
                self.inflight.borrow_mut().insert(msg.matchtag, msg);
            }
        }
    }

    fn apply_event(&mut self, event: &StateEvent) {
        match event.kind {
            "agg-begin" => {
                if let Some(msg) = rebuild_request(&event.data) {
                    // Keyed insert: a re-logged begin after a live
                    // migration folds onto the same tag.
                    self.inflight.borrow_mut().insert(msg.matchtag, msg);
                }
            }
            "agg-end" => {
                if let Some(tag) = event.data.u64_field("tag") {
                    self.inflight.borrow_mut().remove(&tag);
                }
            }
            _ => {}
        }
    }
}

/// Rebuild a client request message from a logged `agg-begin` event or
/// snapshot entry.
fn rebuild_request(data: &StateValue) -> Option<Message> {
    let tag = data.u64_field("tag")?;
    let from = Rank(data.u64_field("from")? as u32);
    let to = Rank(data.u64_field("to")? as u32);
    let job = JobId(data.u64_field("job")?);
    let req = match data.get("kind")?.as_str()? {
        NodeStats::KIND => MonitorRequest::JobStats(JobStatsRequest { job }),
        _ => MonitorRequest::JobData(JobDataRequest { job }),
    };
    let mut msg = Message::request(from, to, req.topic(), req.encode());
    msg.matchtag = tag;
    Some(msg)
}
