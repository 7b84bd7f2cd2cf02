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
//! It also hosts the *authoritative* [`TelemetryHub`]: node agents push
//! samples up ([`crate::subscription::TOPIC_SAMPLE_PUSH`]), the agent
//! assigns each resulting delta its global sequence number and keeps the
//! latest-per-node snapshot, then distributes the delta down the TBON —
//! once per interested child edge via its [`RelayPlane`] — where the
//! per-broker [`TelemetryRelay`]s fan it out to the subscribers attached
//! in their subtrees (see [`crate::relay`]). Subscribers attached at the
//! root rank itself are served by the root rank's co-located relay,
//! which receives every delta synchronously.

use crate::node_agent::{TOPIC_NODE_DATA, TOPIC_NODE_STATS};
use crate::proto::{
    JobDataReply, JobDataRequest, JobStatsReply, JobStatsRequest, MonitorReply, MonitorRequest,
    NodeDataReply, NodeDataRequest, NodeStats, SamplePush,
};
use crate::relay::{AggregateFilter, RelayPlane, TelemetryRelay, RELAY, TOPIC_RELAY_DELTAS};
use crate::subscription::{
    LinkSample, SubscriptionConfig, SubscriptionFilter, TelemetryDelta, TelemetryHub,
    TOPIC_SAMPLE_PUSH,
};
use fluxpm_flux::{
    FluxEngine, JobState, Message, Module, ModuleCtx, MsgKind, Protocol, Rank, RetryPolicy,
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
/// Module-timer tag for the periodic downstream-batch flush (only armed
/// when [`MonitorConfig::relay_flush_interval`] is set).
///
/// [`MonitorConfig::relay_flush_interval`]: crate::MonitorConfig
const TIMER_RELAY_FLUSH: u64 = 2;

/// In-flight aggregation for one client request.
struct Aggregation {
    request: Message,
    job: fluxpm_flux::JobId,
    name: String,
    start_us: u64,
    end_us: u64,
    replies: Vec<Option<NodeDataReply>>,
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
/// three it serves and the three it sends on.
struct RootAgentTopics {
    get_job_data: Topic,
    get_job_stats: Topic,
    sample_push: Topic,
    node_data: Topic,
    node_stats: Topic,
    relay_deltas: Topic,
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
    /// The authoritative subscription core: sequence assignment,
    /// latest-per-node snapshots, and the root rank's own cadence
    /// bookkeeping. Subscriber queues live in the per-broker relays.
    hub: TelemetryHub,
    /// Downstream fan-out: per-child-edge aggregate filters and pending
    /// coalesced batches. Migrates live with the root service.
    plane: RelayPlane,
    /// Timer-driven flush cadence (`None` flushes synchronously after
    /// every publish — one wire message per interested edge per push).
    flush_every: Option<SimDuration>,
    /// Samples pushed up by node agents (diagnostics).
    pushes_received: u64,
    /// When set, publish every active link's queueing health into the
    /// hub on this cadence (see [`MonitorConfig::link_export_interval`]).
    ///
    /// [`MonitorConfig::link_export_interval`]: crate::MonitorConfig
    link_export_every: Option<SimDuration>,
    /// Link-health deltas published so far (diagnostics).
    link_exports: u64,
}

impl Default for RootAgent {
    fn default() -> Self {
        RootAgent::new(SimDuration::from_secs(1))
    }
}

impl RootAgent {
    /// Create an unloaded agent with the given fan-out RPC deadline.
    pub fn new(deadline: SimDuration) -> RootAgent {
        RootAgent::with_subscriptions(deadline, SubscriptionConfig::default())
    }

    /// Create an unloaded agent with explicit subscription tuning.
    pub fn with_subscriptions(deadline: SimDuration, subs: SubscriptionConfig) -> RootAgent {
        RootAgent {
            topics: RootAgentTopics {
                get_job_data: Topic::intern(TOPIC_GET_JOB_DATA),
                get_job_stats: Topic::intern(TOPIC_GET_JOB_STATS),
                sample_push: Topic::intern(TOPIC_SAMPLE_PUSH),
                node_data: Topic::intern(TOPIC_NODE_DATA),
                node_stats: Topic::intern(TOPIC_NODE_STATS),
                relay_deltas: Topic::intern(TOPIC_RELAY_DELTAS),
            },
            served: 0,
            deadline,
            inflight: Rc::new(RefCell::new(BTreeMap::new())),
            hub: TelemetryHub::new(subs),
            plane: RelayPlane::new(crate::DEFAULT_RELAY_BATCH_CAPACITY),
            flush_every: None,
            pushes_received: 0,
            link_export_every: None,
            link_exports: 0,
        }
    }

    /// Enable periodic link-health export into the hub on this cadence.
    pub fn with_link_export(mut self, every: SimDuration) -> RootAgent {
        assert!(!every.is_zero());
        self.link_export_every = Some(every);
        self
    }

    /// Tune the downstream fan-out: edge batch capacity and an optional
    /// timer-driven flush cadence (`None` flushes per publish).
    pub fn with_relay_batching(
        mut self,
        capacity: usize,
        flush_every: Option<SimDuration>,
    ) -> RootAgent {
        self.plane = RelayPlane::new(capacity);
        self.flush_every = flush_every;
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

    /// The subscription fan-out core (for diagnostics and tests).
    pub fn hub(&self) -> &TelemetryHub {
        &self.hub
    }

    /// Samples pushed up by node agents so far.
    pub fn pushes_received(&self) -> u64 {
        self.pushes_received
    }

    /// Link-health deltas published into the hub so far.
    pub fn link_exports(&self) -> u64 {
        self.link_exports
    }

    /// The downstream fan-out plane (diagnostics and tests).
    pub fn plane(&self) -> &RelayPlane {
        &self.plane
    }

    /// Widen one child edge by a climbing subscription's filter
    /// (called by the co-located relay when a `RelaySubscribe` lands).
    pub fn merge_child(&mut self, child: u32, filter: &SubscriptionFilter) {
        self.plane.merge_child(child, filter);
    }

    /// Authoritatively replace one child edge's aggregate (called by
    /// the co-located relay when a `RelayAdvert` lands; an empty
    /// aggregate removes the edge).
    pub fn set_child(&mut self, child: u32, aggregate: AggregateFilter) {
        self.plane.set_child(child, aggregate);
    }

    /// Seed snapshot for a new subscriber: every matching
    /// latest-per-node delta, plus the horizon sequence number the
    /// subscriber's live stream is floored at. Deltas below the horizon
    /// are covered by the seed; deltas at or above it flow down the
    /// (already-widened) edges. That pairing is what makes relay
    /// hand-off gap-free and duplicate-free.
    pub fn seed_for(&self, filter: &SubscriptionFilter) -> (Vec<Arc<TelemetryDelta>>, u64) {
        (self.hub.snapshot_for(filter), self.hub.next_seq())
    }

    /// Distribute one freshly published delta: once per interested
    /// child edge (coalesced per edge), plus a synchronous hand-off to
    /// the co-located relay for subscribers attached at the root rank.
    fn distribute(&mut self, ctx: &mut ModuleCtx<'_>, delta: &Arc<TelemetryDelta>) {
        self.plane.offer(delta);
        if let Some(module) = ctx.world.brokers[ctx.rank.index()].module(RELAY) {
            let mut guard = module.borrow_mut();
            if let Some(relay) = guard
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<TelemetryRelay>())
            {
                relay.ingest_direct(delta);
            }
        }
        if self.flush_every.is_none() {
            self.flush_downstream(ctx);
        }
    }

    fn flush_downstream(&mut self, ctx: &mut ModuleCtx<'_>) {
        let topic = &self.topics.relay_deltas;
        self.plane.flush_with(|child, batch| {
            let req = MonitorRequest::RelayDeltas(batch);
            let ev = Message::event(ctx.rank, Rank(child), topic, req.encode());
            ctx.world.send(ctx.eng, ev);
        });
    }

    /// Arm the periodic downstream flush on the hosting rank (same
    /// re-arm discipline as the link export: timers are pinned to a
    /// broker incarnation).
    fn arm_relay_flush(&self, ctx: &mut ModuleCtx<'_>) {
        if let Some(every) = self.flush_every {
            let start = ctx.eng.now() + every;
            ctx.world.schedule_module_timer(
                ctx.eng,
                ctx.rank,
                ROOT_AGENT,
                start,
                every,
                TIMER_RELAY_FLUSH,
            );
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

    /// The retry schedule used for node-agent fan-outs.
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::with_deadline(self.deadline)
    }

    /// Log an aggregation begin: enough to rebuild the client request
    /// (and therefore the whole fan-out) on a resurrected instance.
    fn log_begin(ctx: &mut ModuleCtx<'_>, msg: &Message, kind: &str, job: fluxpm_flux::JobId) {
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
        job: fluxpm_flux::JobId,
    ) -> Option<(fluxpm_flux::JobId, String, u64, u64, Vec<fluxpm_flux::Rank>)> {
        let Some(record) = ctx.world.jobs.get(job) else {
            ctx.world
                .respond_error(ctx.eng, msg, format!("no such job {job:?}"));
            return None;
        };
        if record.state == JobState::Pending {
            ctx.world.respond_error(ctx.eng, msg, "job has not started");
            return None;
        }
        let start_us = record
            .started_at
            .expect("non-pending job started")
            .as_micros();
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

    /// Guard shared by both aggregation paths: fold duplicate client
    /// attempts (a retried request re-enters with the same matchtag —
    /// answering the fan-out already in flight) instead of double
    /// fanning out and double counting.
    fn already_inflight(&self, msg: &Message) -> bool {
        self.inflight.borrow().contains_key(&msg.matchtag)
    }

    fn start_aggregation(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, req: JobDataRequest) {
        if self.already_inflight(msg) {
            return;
        }
        let Some((job, name, start_us, end_us, ranks)) = Self::resolve_job(ctx, msg, req.job)
        else {
            return;
        };
        let n = ranks.len();
        if n == 0 {
            // Nothing to fan out to: answer now rather than parking an
            // aggregation that no callback will ever finish.
            let reply = JobDataReply {
                job,
                name,
                start_us,
                end_us,
                nodes: Vec::new(),
            };
            self.served += 1;
            ctx.world
                .respond(ctx.eng, msg, MonitorReply::JobData(reply).encode());
            return;
        }
        let agg = Rc::new(RefCell::new(Aggregation {
            request: msg.clone(),
            job,
            name,
            start_us,
            end_us,
            replies: vec![None; n],
            remaining: n,
        }));
        self.served += 1;
        self.inflight.borrow_mut().insert(msg.matchtag, msg.clone());
        Self::log_begin(ctx, msg, "data", job);

        let policy = self.retry_policy();
        let self_rank = ctx.rank;
        for (i, rank) in ranks.into_iter().enumerate() {
            let agg = Rc::clone(&agg);
            let inflight = Rc::clone(&self.inflight);
            let req = MonitorRequest::NodeData(NodeDataRequest { start_us, end_us });
            ctx.world
                .rpc(rank, &self.topics.node_data, req.encode())
                .from(self_rank)
                .retry(policy)
                .send(ctx.eng, move |world, eng, resp| {
                    let mut a = agg.borrow_mut();
                    // Keeping a node's reply shares its records with the
                    // node agent's slice; nothing is copied here or below.
                    a.replies[i] = match MonitorReply::decode_ref(resp) {
                        Ok(MonitorReply::NodeData(r)) => Some(r.clone()),
                        _ => None,
                    };
                    a.remaining -= 1;
                    if a.remaining == 0 {
                        finish_inflight(world, eng, &inflight, a.request.matchtag);
                        // The last callback: move everything out of the
                        // aggregation, which dies with this closure.
                        let reply = JobDataReply {
                            job: a.job,
                            name: std::mem::take(&mut a.name),
                            start_us: a.start_us,
                            end_us: a.end_us,
                            nodes: a
                                .replies
                                .iter_mut()
                                .map(|r| {
                                    r.take().unwrap_or_else(|| NodeDataReply {
                                        hostname: Arc::from(""),
                                        records: Arc::from([]),
                                        complete: false,
                                    })
                                })
                                .collect(),
                        };
                        world.respond(eng, &a.request, MonitorReply::JobData(reply).encode());
                    }
                });
        }
    }

    /// Stats-query aggregation: same fan-out shape as the full-record
    /// path, but each node agent sends back only a summary.
    fn start_stats_aggregation(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        req: JobStatsRequest,
    ) {
        if self.already_inflight(msg) {
            return;
        }
        let Some((job, name, start_us, end_us, ranks)) = Self::resolve_job(ctx, msg, req.job)
        else {
            return;
        };
        let n = ranks.len();
        if n == 0 {
            let reply = JobStatsReply {
                job,
                name,
                start_us,
                end_us,
                nodes: Vec::new(),
            };
            self.served += 1;
            ctx.world
                .respond(ctx.eng, msg, MonitorReply::JobStats(reply).encode());
            return;
        }
        struct StatsAgg {
            request: Message,
            job: fluxpm_flux::JobId,
            name: String,
            start_us: u64,
            end_us: u64,
            replies: Vec<Option<NodeStats>>,
            remaining: usize,
        }
        let agg = Rc::new(RefCell::new(StatsAgg {
            request: msg.clone(),
            job,
            name,
            start_us,
            end_us,
            replies: vec![None; n],
            remaining: n,
        }));
        self.served += 1;
        self.inflight.borrow_mut().insert(msg.matchtag, msg.clone());
        Self::log_begin(ctx, msg, "stats", job);
        let policy = self.retry_policy();
        let self_rank = ctx.rank;
        for (i, rank) in ranks.into_iter().enumerate() {
            let agg = Rc::clone(&agg);
            let inflight = Rc::clone(&self.inflight);
            let req = MonitorRequest::NodeStats(NodeDataRequest { start_us, end_us });
            ctx.world
                .rpc(rank, &self.topics.node_stats, req.encode())
                .from(self_rank)
                .retry(policy)
                .send(ctx.eng, move |world, eng, resp| {
                    let mut a = agg.borrow_mut();
                    a.replies[i] = match MonitorReply::decode_ref(resp) {
                        Ok(MonitorReply::NodeStats(s)) => Some(s.clone()),
                        _ => None,
                    };
                    a.remaining -= 1;
                    if a.remaining == 0 {
                        finish_inflight(world, eng, &inflight, a.request.matchtag);
                        // Canonical record for sharded byte-equality
                        // checks (no-op on classic worlds): reporting
                        // nodes + aggregated mean power in milliwatts.
                        let reporting = a.replies.iter().flatten().count() as u64;
                        let total_mw: u64 = a
                            .replies
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
                        let reply = JobStatsReply {
                            job: a.job,
                            name: std::mem::take(&mut a.name),
                            start_us: a.start_us,
                            end_us: a.end_us,
                            nodes: a
                                .replies
                                .iter_mut()
                                .map(|r| {
                                    r.take().unwrap_or_else(|| NodeStats {
                                        hostname: Arc::from(""),
                                        samples: 0,
                                        mean_w: 0.0,
                                        max_w: 0.0,
                                        min_w: 0.0,
                                        complete: false,
                                    })
                                })
                                .collect(),
                        };
                        world.respond(eng, &a.request, MonitorReply::JobStats(reply).encode());
                    }
                });
        }
    }

    fn on_push(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, push: SamplePush) {
        self.pushes_received += 1;
        // Job attribution happens here: the node agent stays stateless,
        // and the instance's job registry is authoritative at the root.
        let job = ctx.world.jobs.job_on_node(NodeId(push.node));
        let (delta, _) = self
            .hub
            .publish_delta(push.node, push.timestamp_us, push.node_w, job);
        self.distribute(ctx, &delta);
        ctx.world
            .respond(ctx.eng, msg, MonitorReply::PushAck.encode());
    }
}

impl Module for RootAgent {
    fn name(&self) -> &'static str {
        ROOT_AGENT
    }

    fn topics(&self) -> Vec<Topic> {
        // Subscribe/unsubscribe/poll are served by the per-broker
        // relays (uniformly, including on the root rank).
        let t = &self.topics;
        vec![
            t.get_job_data.clone(),
            t.get_job_stats.clone(),
            t.sample_push.clone(),
        ]
    }

    fn load(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.arm_link_export(ctx);
        self.arm_relay_flush(ctx);
    }

    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        if tag == TIMER_RELAY_FLUSH {
            self.flush_downstream(ctx);
            return;
        }
        if tag != TIMER_LINK_EXPORT {
            return;
        }
        // Snapshot the overlay's per-link queueing telemetry into the
        // hub: one delta per active edge, keyed by the child endpoint.
        let now_us = ctx.eng.now().as_micros();
        let links: Vec<_> = ctx.world.link_stats();
        for l in links {
            let (delta, _) = self.hub.publish_link_delta(
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
            self.distribute(ctx, &delta);
            self.link_exports += 1;
        }
    }

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind != MsgKind::Request {
            return;
        }
        match MonitorRequest::decode_ref(msg) {
            Ok(&MonitorRequest::JobData(req)) => self.start_aggregation(ctx, msg, req),
            Ok(&MonitorRequest::JobStats(req)) => self.start_stats_aggregation(ctx, msg, req),
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
        // This rank's relay was serving its subtree's downstream edges;
        // now that the root core landed here, the core owns them.
        // Absorb them (they are exactly the new root's child edges),
        // then drop any edge the promotion re-parented elsewhere —
        // those children re-advertise to their new parents.
        if let Some(module) = ctx.world.brokers[ctx.rank.index()].module(RELAY) {
            let mut guard = module.borrow_mut();
            if let Some(relay) = guard
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<TelemetryRelay>())
            {
                for (child, agg) in relay.take_children() {
                    self.plane.set_child(child, agg);
                }
            }
        }
        let children = ctx.world.tbon.children(ctx.rank);
        self.plane.retain_children(|c| children.contains(&Rank(c)));
        // The old root's timers died with its broker incarnation;
        // re-arm them here.
        self.arm_link_export(ctx);
        self.arm_relay_flush(ctx);
    }

    fn on_topology_change(&mut self, ctx: &mut ModuleCtx<'_>) {
        // A re-parent may have moved a child subtree elsewhere: stop
        // feeding its old edge. New or re-parented children re-advertise
        // their aggregates (their relays force an advert on the same
        // epoch bump). No edges → nothing to repair.
        if self.plane.children().next().is_none() {
            return;
        }
        let children = ctx.world.tbon.children(ctx.rank);
        self.plane.retain_children(|c| children.contains(&Rank(c)));
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
                    "stats"
                } else {
                    "data"
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
    let job = fluxpm_flux::JobId(data.u64_field("job")?);
    let req = match data.get("kind")?.as_str()? {
        "stats" => MonitorRequest::JobStats(JobStatsRequest { job }),
        _ => MonitorRequest::JobData(JobDataRequest { job }),
    };
    let mut msg = Message::request(from, to, req.topic(), req.encode());
    msg.matchtag = tag;
    Some(msg)
}
