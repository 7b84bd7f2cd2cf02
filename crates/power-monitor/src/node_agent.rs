//! The per-node sampling agent.
//!
//! Stateless by design (paper §III-A): it samples power on a fixed cadence
//! whether or not a job is running, and answers time-window queries from
//! the root agent. Statelessness is what keeps overhead low — no job
//! tracking, no subscriptions, just a timer and a record log. When
//! [`MonitorConfig::push_interval`] is set it additionally pushes its
//! newest sample up to the root agent on that cadence (still stateless:
//! job attribution and sequence assignment happen at the root, and
//! subscriber fan-out is distributed back down the TBON by the
//! per-broker [`crate::TelemetryRelay`] plane — the node agent never
//! sees any of it).

use crate::config::{MonitorConfig, RPC_DEADLINE};
use crate::log::PagedLog;
use crate::proto::{
    MonitorReply, MonitorRequest, NodeDataReply, NodeDataRequest, NodeStats, PowerRecord,
};
use fluxpm_flux::{Message, Module, ModuleCtx, MsgKind, Protocol, Topic};
use fluxpm_hw::NodeId;
use fluxpm_sim::TraceLevel;
use fluxpm_variorum::NodePowerSample;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Topic served by every node agent: raw records in a window.
pub const TOPIC_NODE_DATA: &str = "power-monitor.node-data";
/// Topic served by every node agent: summary statistics for a window
/// (computed locally; only a few numbers cross the overlay).
pub const TOPIC_NODE_STATS: &str = "power-monitor.node-stats";

/// The node agent's topics, interned once per thread and shared by
/// every agent on it: the three it serves and the one it pushes on.
struct NodeAgentTopics {
    served: Rc<[Topic]>,
    sample_push: Topic,
}

thread_local! {
    static TOPICS: Rc<NodeAgentTopics> = Rc::new(NodeAgentTopics {
        served: [
            TOPIC_NODE_DATA,
            TOPIC_NODE_STATS,
            crate::tree_reduce::TOPIC_SUBTREE_STATS,
        ]
        .map(Topic::intern)
        .into(),
        sample_push: Topic::intern(crate::subscription::TOPIC_SAMPLE_PUSH),
    });
}

/// The `flux-power-monitor` node agent.
pub struct NodeAgent {
    topics: Rc<NodeAgentTopics>,
    /// The configuration, shared by every agent [`crate::load`] builds.
    config: Rc<MonitorConfig>,
    /// The retained samples: the paper's circular buffer, kept in pages a
    /// reply can share.
    log: PagedLog,
    /// When this agent started sampling (set at load time). A freshly
    /// reloaded agent on a recovered node starts *here*, not at t=0, so
    /// windows reaching before it are flagged partial — this is how the
    /// buffer "resynchronizes from the gap" after an outage.
    since_us: Option<u64>,
    /// Outage gaps `[start, end)` in microseconds, recorded when this
    /// *same* agent instance is re-loaded after its node recovered.
    /// Without them, a second fail/recover cycle on a shared handle
    /// would leave `since_us` at the original load time and an unwrapped
    /// buffer with `overwritten() == 0` — fabricating completeness over
    /// a window that spans the outage.
    gaps: Vec<(u64, u64)>,
    /// Timestamp of the last sample pushed to the root agent, so a push
    /// tick with no fresh sample sends nothing.
    last_pushed_us: u64,
    /// Samples pushed to the root agent (diagnostics).
    pushes_sent: u64,
    /// The sample each tick refills and writes into the log, so a tick
    /// allocates nothing of its own. Its hostname (set at load) is this
    /// node's one shared string: the JSON writer reads it and every
    /// reply holds a reference to it.
    scratch: NodePowerSample,
}

impl NodeAgent {
    /// Create an unloaded agent. Pass an `Rc` to share one
    /// configuration among many agents.
    pub fn new(config: impl Into<Rc<MonitorConfig>>) -> NodeAgent {
        let config = config.into();
        let log = PagedLog::new(config.buffer_capacity);
        NodeAgent {
            topics: TOPICS.with(Rc::clone),
            config,
            log,
            since_us: None,
            gaps: Vec::new(),
            last_pushed_us: 0,
            pushes_sent: 0,
            scratch: NodePowerSample::default(),
        }
    }

    /// Create as a shared module handle ready for
    /// [`fluxpm_flux::World::load_module`].
    pub fn shared(config: impl Into<Rc<MonitorConfig>>) -> Rc<RefCell<NodeAgent>> {
        Rc::new(RefCell::new(NodeAgent::new(config)))
    }

    /// This agent's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Number of sensor reads performed so far: every read is logged.
    pub fn samples_taken(&self) -> u64 {
        self.log.total_pushed()
    }

    /// Records currently retained.
    pub fn retained(&self) -> usize {
        self.log.len()
    }

    /// The retained records, oldest first: handles into the blocks the
    /// log keeps (it shares the records still pending first).
    pub fn records(&mut self) -> impl Iterator<Item = &PowerRecord> {
        self.log.records()
    }

    /// Records lost to buffer wrap or to an outage.
    pub fn overwritten(&self) -> u64 {
        self.log.overwritten()
    }

    /// Bytes of encoded Variorum JSON currently retained (the paper
    /// sizes the default buffer at ~43.4 MB for 100k records).
    pub fn buffer_bytes(&self) -> usize {
        self.log.json_bytes()
    }

    /// When this agent started sampling (microseconds), if loaded.
    pub fn since_us(&self) -> Option<u64> {
        self.since_us
    }

    /// Outage gaps `[start_us, end_us)` accumulated over this agent's
    /// fail/recover cycles (empty until the instance is re-loaded).
    pub fn gaps(&self) -> &[(u64, u64)] {
        &self.gaps
    }

    /// Whether the retained history fully covers a window starting at
    /// `start_us`: the agent must have been sampling by then, nothing
    /// may have been lost (wrap or outage gap), or — if loss happened —
    /// the oldest retained record must still predate the window.
    pub(crate) fn window_complete(&self, start_us: u64) -> bool {
        if self.since_us.unwrap_or(0) > start_us {
            return false;
        }
        // Any outage gap ending after the window start means missing
        // samples inside the window.
        if self.gaps.iter().any(|&(_, end)| end > start_us) {
            return false;
        }
        match self.log.oldest_timestamp() {
            Some(oldest) => self.log.overwritten() == 0 || oldest <= start_us,
            None => false,
        }
    }

    /// Take one sample (called from the timer).
    fn sample(&mut self, ctx: &mut ModuleCtx<'_>) {
        let rank = ctx.rank;
        let node_id = NodeId(rank.0);
        let ts = ctx.now().as_micros();
        let node = &mut ctx.world.nodes[rank.index()];
        let cost = fluxpm_variorum::get_node_power_json_into(node, ts, &mut self.scratch);
        if self.config.charge_overhead {
            ctx.world
                .charge_overhead(node_id, cost.cpu_time.as_secs_f64());
        }
        self.log.push_sample(&self.scratch);
        let node_w = self.scratch.node_power_estimate();
        // Canonical record for sharded byte-equality checks (no-op on
        // classic worlds): buffered count + node draw in milliwatts.
        ctx.world.record(
            ctx.eng.now(),
            rank.0,
            fluxpm_flux::shard::rec::POWER_SAMPLE,
            self.log.len() as u64,
            (node_w * 1000.0).round() as u64,
        );
    }

    /// Summary statistics for a window from this agent's buffer (shared
    /// by the direct stats query and the in-tree reduction). The log
    /// folds a job's growing window once per record.
    pub(crate) fn local_stats(&mut self, start_us: u64, end_us: u64) -> NodeStats {
        let fold = self.log.window_fold(start_us, end_us);
        let complete = self.window_complete(start_us);
        let samples = fold.samples;
        NodeStats {
            hostname: Arc::clone(&self.scratch.hostname),
            samples,
            mean_w: if samples == 0 {
                0.0
            } else {
                fold.sum / samples as f64
            },
            max_w: if samples == 0 { 0.0 } else { fold.max },
            min_w: if samples == 0 { 0.0 } else { fold.min },
            complete,
        }
    }

    /// Samples pushed to the root agent so far.
    pub fn pushes_sent(&self) -> u64 {
        self.pushes_sent
    }

    /// Push the newest sample to the root agent (called from the push
    /// timer when [`MonitorConfig::push_interval`] is set). Fire and
    /// forget: a lost push is just a missing delta, and the next tick
    /// carries a fresher sample anyway — but the RPC still carries a
    /// single-attempt deadline so a push or ack lost to a faulty or
    /// congested link reaps its matchtag instead of leaking it.
    fn push_newest(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some((ts, node_w)) = self.log.newest() else {
            return;
        };
        if ts <= self.last_pushed_us {
            return;
        }
        self.last_pushed_us = ts;
        self.pushes_sent += 1;
        let push = crate::proto::SamplePush {
            node: ctx.rank.0,
            timestamp_us: ts,
            node_w,
        };
        let req = MonitorRequest::PushSample(push);
        let root = ctx.world.root();
        let from = ctx.rank;
        ctx.world
            .rpc(root, &self.topics.sample_push, req.encode())
            .from(from)
            .deadline(RPC_DEADLINE)
            .send(ctx.eng, |_, _, _| {});
    }

    /// Answer a window stats query.
    fn answer_stats(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, req: NodeDataRequest) {
        let stats = self.local_stats(req.start_us, req.end_us);
        ctx.world
            .respond(ctx.eng, msg, MonitorReply::NodeStats(stats).encode());
    }

    fn answer(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, req: NodeDataRequest) {
        // The one place a reply's records are gathered: the window's
        // sealed pages are shared whole (a reference-count bump per page of
        // 16 samples), only the part in the page still being filled is
        // cloned (its pending records shared first), and every later hop
        // shares the result.
        let records = self.log.share(req.start_us, req.end_us);
        // Partial iff data from the window start was lost: overwritten
        // by wrap, or never sampled (the agent loaded after the window
        // start — e.g. on a recovered node).
        let reply = NodeDataReply {
            hostname: Arc::clone(&self.scratch.hostname),
            records,
            complete: self.window_complete(req.start_us),
        };
        ctx.world
            .respond(ctx.eng, msg, MonitorReply::NodeData(reply).encode());
    }
}

impl Module for NodeAgent {
    fn name(&self) -> &'static str {
        "power-monitor-node-agent"
    }

    fn topics(&self) -> Rc<[Topic]> {
        Rc::clone(&self.topics.served)
    }

    fn load(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Start the sampling "thread": a module timer driven by the
        // engine. The timer re-borrows this module from the broker
        // registry on every tick, so unloading stops the loop.
        let rank = ctx.rank;
        let interval = self.config.sample_interval;
        let now = ctx.now();
        let start = now + interval;
        let name = self.name();
        self.scratch.hostname = Arc::clone(&ctx.world.brokers[rank.index()].hostname);
        if self.since_us.is_none() {
            let now_us = now.as_micros();
            self.since_us = Some(now_us);
            // Loaded mid-flight (node recovery): the samples that would
            // have been taken before now are gone for good — count them
            // as lost so completeness accounting sees the gap.
            let interval_us = interval.as_micros();
            if now_us > 0 && interval_us > 0 {
                self.log.note_loss(now_us / interval_us);
            }
        } else {
            // The *same* instance re-loaded after an outage (a shared
            // handle surviving fail/recover): everything since the last
            // retained sample is a fresh gap. Record its span for
            // window checks and fold the missed samples into the loss
            // count — `expected - already accounted` self-corrects over
            // repeated cycles instead of double-counting.
            let now_us = now.as_micros();
            let gap_start = self
                .log
                .newest()
                .map(|(ts, _)| ts)
                .unwrap_or_else(|| self.since_us.unwrap_or(0));
            if now_us > gap_start {
                self.gaps.push((gap_start, now_us));
                if let Some(expected) = now_us.checked_div(interval.as_micros()) {
                    let accounted = self.log.total_pushed() + self.log.noted_lost();
                    self.log.note_loss(expected.saturating_sub(accounted));
                }
            }
        }
        ctx.world
            .schedule_module_timer(ctx.eng, rank, name, start, interval, 0);
        if let Some(push) = self.config.push_interval {
            ctx.world
                .schedule_module_timer(ctx.eng, rank, name, now + push, push, 1);
        }
        ctx.world.trace.emit(
            ctx.eng.now(),
            TraceLevel::Info,
            "monitor",
            format_args!("node-agent loaded on {rank}"),
        );
    }

    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind != MsgKind::Request {
            return;
        }
        match MonitorRequest::decode_ref(msg) {
            Ok(&MonitorRequest::NodeData(req)) => self.answer(ctx, msg, req),
            Ok(&MonitorRequest::NodeStats(req)) => self.answer_stats(ctx, msg, req),
            Ok(MonitorRequest::SubtreeStats(req)) => {
                crate::tree_reduce::handle_subtree_stats(self, ctx, msg, req)
            }
            Ok(_) => {} // root-agent topics; not served here
            Err(e) => ctx.world.respond_error(ctx.eng, msg, e.reason),
        }
    }

    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        match tag {
            0 => self.sample(ctx),
            1 => self.push_newest(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_flux::{FluxEngine, Rank, SharedModule, World};
    use fluxpm_hw::MachineKind;
    use fluxpm_sim::{Engine, SimDuration, SimTime};

    fn world() -> (World, FluxEngine) {
        (World::new(MachineKind::Lassen, 2, 3), Engine::new())
    }

    /// Issue a typed node-data query and run the engine to completion.
    fn query_window(
        w: &mut World,
        eng: &mut FluxEngine,
        to: Rank,
        start_us: u64,
        end_us: u64,
    ) -> NodeDataReply {
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        let req = MonitorRequest::NodeData(NodeDataRequest { start_us, end_us });
        w.rpc(to, req.topic(), req.encode())
            .send(eng, move |_, _, resp| {
                let Ok(MonitorReply::NodeData(r)) = MonitorReply::decode_ref(resp) else {
                    panic!("unexpected reply {resp:?}");
                };
                *got2.borrow_mut() = Some(r.clone());
            });
        eng.run(w);
        let reply = got.borrow().clone().unwrap();
        reply
    }

    #[test]
    fn sampling_fills_buffer() {
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(MonitorConfig::default());
        w.load_module(&mut eng, Rank(0), agent.clone());
        eng.set_horizon(SimTime::from_secs(21));
        eng.run(&mut w);
        // Samples at 2,4,...,20 s = 10 samples.
        assert_eq!(agent.borrow().samples_taken(), 10);
        assert_eq!(agent.borrow().retained(), 10);
        assert_eq!(agent.borrow().overwritten(), 0);
    }

    #[test]
    fn sampling_charges_overhead() {
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(
            MonitorConfig::default().with_sample_interval(SimDuration::from_secs(2)),
        );
        w.load_module(&mut eng, Rank(0), agent);
        eng.set_horizon(SimTime::from_secs(5));
        eng.run(&mut w);
        // Two samples at 6 ms OCC cost each; never drained (no executor).
        let oh = w.pending_overhead(fluxpm_hw::NodeId(0));
        assert!((oh - 0.012).abs() < 1e-9, "overhead {oh}");
    }

    #[test]
    fn overhead_charging_can_be_disabled() {
        let (mut w, mut eng) = world();
        let cfg = MonitorConfig {
            charge_overhead: false,
            ..MonitorConfig::default()
        };
        let agent = NodeAgent::shared(cfg);
        w.load_module(&mut eng, Rank(0), agent);
        eng.set_horizon(SimTime::from_secs(5));
        eng.run(&mut w);
        assert_eq!(w.pending_overhead(fluxpm_hw::NodeId(0)), 0.0);
    }

    #[test]
    fn buffer_wrap_marks_partial() {
        let (mut w, mut eng) = world();
        let cfg = MonitorConfig::default()
            .with_sample_interval(SimDuration::from_secs(1))
            .with_buffer_capacity(5);
        let agent = NodeAgent::shared(cfg);
        w.load_module(&mut eng, Rank(1), agent.clone());

        // Sample for 12 s: 12 samples into a 5-slot buffer.
        eng.set_horizon(SimTime::from_secs(12));
        eng.run(&mut w);
        assert_eq!(agent.borrow().retained(), 5);
        assert!(agent.borrow().overwritten() > 0);

        // Query a window starting before the retained region.
        let mut eng2: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng2, Rank(1), 1_000_000, 12_000_000);
        assert!(!reply.complete, "window reaches overwritten data");
        assert_eq!(reply.records.len(), 5);

        // A window entirely inside the retained region is complete.
        let mut eng3: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng3, Rank(1), 8_000_000, 12_000_000);
        assert!(reply.complete);
        assert_eq!(reply.records.len(), 5, "samples at 8..12 s");
    }

    #[test]
    fn query_filters_by_window() {
        let (mut w, mut eng) = world();
        let cfg = MonitorConfig::default().with_sample_interval(SimDuration::from_secs(1));
        let agent = NodeAgent::shared(cfg);
        w.load_module(&mut eng, Rank(0), agent);
        eng.set_horizon(SimTime::from_secs(10));
        eng.run(&mut w);

        let mut eng2: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng2, Rank(0), 3_000_000, 5_000_000);
        assert_eq!(reply.records.len(), 3, "samples at 3,4,5 s");
        assert!(reply.complete);
        assert_eq!(&*reply.hostname, "lassen0");
        // Idle Lassen node: ~400 W.
        let p = reply.records[0].node_power_estimate();
        assert!((p - 400.0).abs() < 20.0, "idle power {p}");
    }

    #[test]
    fn sampling_stops_when_halted() {
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(
            MonitorConfig::default().with_sample_interval(SimDuration::from_secs(1)),
        );
        w.load_module(&mut eng, Rank(0), agent.clone());
        eng.schedule(SimTime::from_secs(5), |w: &mut World, _| {
            w.halted = true;
        });
        // No horizon: the run must terminate because the loop observes
        // `halted`.
        eng.run(&mut w);
        assert!(agent.borrow().samples_taken() <= 6);
    }

    #[test]
    fn bad_payload_yields_error() {
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(MonitorConfig::default());
        w.load_module(&mut eng, Rank(0), agent);
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        w.rpc(
            Rank(0),
            TOPIC_NODE_DATA,
            fluxpm_flux::payload("wrong type".to_string()),
        )
        .send(&mut eng, move |_, _, resp| {
            *got2.borrow_mut() = Some(resp.error.clone());
        });
        eng.set_horizon(SimTime::from_secs(1));
        eng.run(&mut w);
        assert!(got.borrow().clone().unwrap().is_some());
    }

    #[test]
    fn late_load_marks_earlier_windows_partial() {
        // An agent loaded at t=30 s (a recovered node) must flag windows
        // reaching before its start as partial, even though its buffer
        // never wrapped.
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(
            MonitorConfig::default().with_sample_interval(SimDuration::from_secs(2)),
        );
        let a2 = Rc::clone(&agent);
        eng.schedule(SimTime::from_secs(30), move |w: &mut World, eng| {
            w.load_module(eng, Rank(1), a2);
        });
        eng.set_horizon(SimTime::from_secs(41));
        eng.run(&mut w);
        assert_eq!(agent.borrow().since_us(), Some(30_000_000));
        assert!(
            agent.borrow().overwritten() >= 15,
            "the 15 missed samples count as lost"
        );

        // A window spanning the gap is partial...
        let mut eng2: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng2, Rank(1), 10_000_000, 40_000_000);
        assert!(!reply.complete);
        assert!(!reply.records.is_empty());
        // ...but a window after the first post-load sample is complete.
        let mut eng3: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng3, Rank(1), 32_000_000, 40_000_000);
        assert!(reply.complete);
        assert_eq!(reply.records.len(), 5, "samples at 32..40 s");
    }

    /// A shared agent handle that survives *two* fail/recover cycles
    /// must flag windows spanning either outage as partial. Before gap
    /// accounting, re-loading the same instance left `since_us` at the
    /// original load time and the unwrapped buffer at `overwritten() ==
    /// 0`, so both gaps were reported as complete data.
    #[test]
    fn repeated_outages_accumulate_gap_spans() {
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(
            MonitorConfig::default().with_sample_interval(SimDuration::from_secs(1)),
        );
        w.load_module(&mut eng, Rank(1), agent.clone());
        let a2 = Rc::clone(&agent);
        w.register_module_factory(move |_rank| -> SharedModule { a2.clone() });

        for (fail_ms, recover_ms) in [(10_500, 15_500), (20_500, 25_500)] {
            eng.schedule(SimTime::from_millis(fail_ms), |w: &mut World, eng| {
                w.fail_node(eng, fluxpm_hw::NodeId(1));
            });
            eng.schedule(SimTime::from_millis(recover_ms), |w: &mut World, eng| {
                assert!(w.recover_node(eng, fluxpm_hw::NodeId(1)), "node was down");
            });
        }
        eng.set_horizon(SimTime::from_secs(30));
        eng.run(&mut w);

        {
            let a = agent.borrow();
            assert_eq!(a.gaps().len(), 2, "one span per outage");
            assert_eq!(a.gaps()[0], (10_000_000, 15_500_000));
            assert_eq!(a.gaps()[1], (19_500_000, 25_500_000));
            assert!(a.overwritten() > 0, "missed samples count as lost");
        }

        // A window inside the *second* gap is partial — the regression:
        // the first-load path never runs twice, so only explicit gap
        // spans can catch this.
        let mut eng2: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng2, Rank(1), 18_000_000, 29_000_000);
        assert!(!reply.complete, "window spans the second outage");
        // A window entirely after the last recovery is complete again.
        let mut eng3: FluxEngine = Engine::new();
        let reply = query_window(&mut w, &mut eng3, Rank(1), 26_500_000, 29_000_000);
        assert!(reply.complete, "post-recovery window is fully retained");
        assert!(!reply.records.is_empty());
    }

    /// Fail + recover at the same instant must not leave the old module
    /// timer driving the reloaded agent alongside its own timer. The
    /// broker-incarnation guard stops the pre-outage timer even though a
    /// same-named module is registered again when it next fires.
    #[test]
    fn rapid_fail_recover_does_not_stack_timers() {
        let (mut w, mut eng) = world();
        let agent = NodeAgent::shared(
            MonitorConfig::default().with_sample_interval(SimDuration::from_secs(1)),
        );
        w.load_module(&mut eng, Rank(1), agent.clone());
        let a2 = Rc::clone(&agent);
        w.register_module_factory(move |_rank| -> SharedModule { a2.clone() });

        eng.schedule(SimTime::from_millis(5_200), |w: &mut World, eng| {
            w.fail_node(eng, fluxpm_hw::NodeId(1));
            assert!(w.recover_node(eng, fluxpm_hw::NodeId(1)), "node was down");
        });
        eng.set_horizon(SimTime::from_secs(12));
        eng.run(&mut w);

        // 5 samples at 1..=5 s plus 6 at 6.2..=11.2 s. A stacked timer
        // would add 6 more at 6..=11 s.
        assert_eq!(
            agent.borrow().samples_taken(),
            11,
            "exactly one timer cadence after the churn"
        );
    }
}

#[cfg(test)]
mod byte_accounting_tests {
    use super::*;
    use fluxpm_flux::{FluxEngine, Rank, World};
    use fluxpm_hw::MachineKind;
    use fluxpm_sim::{Engine, SimDuration, SimTime};

    #[test]
    fn buffer_bytes_track_stored_json() {
        let mut w = World::new(MachineKind::Lassen, 1, 3);
        let mut eng: FluxEngine = Engine::new();
        let agent = NodeAgent::shared(
            MonitorConfig::default()
                .with_sample_interval(SimDuration::from_secs(1))
                .with_buffer_capacity(5),
        );
        w.load_module(&mut eng, Rank(0), agent.clone());
        eng.set_horizon(SimTime::from_secs(12));
        eng.run(&mut w);
        let a = agent.borrow();
        assert_eq!(a.retained(), 5);
        // Byte counter equals the sum of the retained encodings.
        // A Lassen record is a few hundred bytes of JSON.
        let per = a.buffer_bytes() as f64 / a.retained() as f64;
        assert!((150.0..600.0).contains(&per), "bytes/record {per}");

        // The paper's default sizing: 100k records ~ 43.4 MB, i.e. a few
        // hundred bytes per record — our encoding lands in that regime.
        let default_estimate = per * 100_000.0 / 1e6;
        assert!(
            (15.0..60.0).contains(&default_estimate),
            "default buffer ~{default_estimate:.1} MB (paper: 43.4 MB)"
        );
    }
}
