//! The external telemetry client.
//!
//! The paper's client is a Python script: given a job id it resolves the
//! job's nodes and window, asks the root agent, and writes a CSV with a
//! completeness column. Here the client is a single typed query builder,
//! [`MonitorQuery`], driven against the simulation: pick what to ask
//! ([`MonitorQuery::job_data`], [`MonitorQuery::job_stats`], a
//! subscription verb, …), optionally arm a per-call [`deadline`] or
//! [`retry`] policy, and [`send`] it for a [`QueryHandle`] that yields
//! the typed [`MonitorReply`] once the simulation delivers it.
//!
//! CSV rendering is split in two layers: [`job_data_rows`] flattens a
//! reply into typed row structs, and the `*_to_csv` functions are thin
//! serializers over those rows or over the world's own stats maps
//! (RFC 4180 quoting lives in exactly one place, the private `csv_field`
//! helper).
//!
//! [`deadline`]: MonitorQuery::deadline
//! [`retry`]: MonitorQuery::retry
//! [`send`]: MonitorQuery::send

use crate::proto::{
    DeltaBatch, JobDataReply, JobDataRequest, JobStatsReply, JobStatsRequest, MonitorReply,
    MonitorRequest, PollRequest, SubscribeRequest, UnsubscribeRequest,
};
use crate::subscription::{SubscriberId, SubscriptionFilter};
use crate::tree_reduce::SubtreeStats;
use fluxpm_flux::{FluxEngine, JobId, Payload, Protocol, Rank, RetryPolicy, World};
use fluxpm_sim::SimDuration;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// What a [`MonitorQuery`] asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// Full per-node records for a job.
    JobData(JobId),
    /// Per-node summary statistics for a job (direct fan-out).
    JobStats(JobId),
    /// Job summary via the in-tree reduction (see
    /// [`crate::tree_reduce`]).
    JobStatsTree(JobId),
    /// Register a telemetry subscription.
    Subscribe(SubscriptionFilter),
    /// Drop a subscription.
    Unsubscribe(SubscriberId),
    /// Drain a subscription's pending deltas.
    Poll {
        /// The subscription to drain.
        sub: SubscriberId,
        /// Upper bound on deltas returned.
        max: usize,
    },
}

/// One monitor query under construction: what to ask, plus optional
/// per-call delivery knobs. By default addressed to the *current* root —
/// after a failover it reaches the promoted successor. Subscription
/// verbs can instead attach to any broker with [`MonitorQuery::at`]: the
/// per-broker relay there serves the subscriber queue, and later polls
/// and unsubscribes must target the same rank (subscriber ids are local
/// to the serving relay).
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a query does nothing until sent"]
pub struct MonitorQuery {
    kind: QueryKind,
    target: Option<Rank>,
    deadline: Option<SimDuration>,
    retry: Option<RetryPolicy>,
}

impl MonitorQuery {
    fn new(kind: QueryKind) -> MonitorQuery {
        MonitorQuery {
            kind,
            target: None,
            deadline: None,
            retry: None,
        }
    }

    /// Query a job's full telemetry records.
    pub fn job_data(job: JobId) -> MonitorQuery {
        MonitorQuery::new(QueryKind::JobData(job))
    }

    /// Query a job's summary statistics — the light-weight query: each
    /// node agent reduces its window locally and only a few numbers
    /// cross the overlay.
    pub fn job_stats(job: JobId) -> MonitorQuery {
        MonitorQuery::new(QueryKind::JobStats(job))
    }

    /// Query a job's summary via the *in-tree reduction*: one request
    /// enters the tree at the root and each broker combines its subtree,
    /// so every tree link carries at most one message pair (the scalable
    /// form; see [`crate::tree_reduce`]).
    pub fn job_stats_tree(job: JobId) -> MonitorQuery {
        MonitorQuery::new(QueryKind::JobStatsTree(job))
    }

    /// Register a telemetry subscription matching `filter`.
    pub fn subscribe(filter: SubscriptionFilter) -> MonitorQuery {
        MonitorQuery::new(QueryKind::Subscribe(filter))
    }

    /// Drop a subscription.
    pub fn unsubscribe(sub: SubscriberId) -> MonitorQuery {
        MonitorQuery::new(QueryKind::Unsubscribe(sub))
    }

    /// Drain up to `max` pending deltas from a subscription.
    pub fn poll(sub: SubscriberId, max: usize) -> MonitorQuery {
        MonitorQuery::new(QueryKind::Poll { sub, max })
    }

    /// Address the query to a specific broker rank instead of the
    /// current root. The natural home for subscription verbs: a client
    /// attaches to its nearest broker and the relay there serves it,
    /// keeping the root out of the per-subscriber path entirely.
    pub fn at(mut self, rank: Rank) -> MonitorQuery {
        self.target = Some(rank);
        self
    }

    /// Arm a response deadline: if the root does not answer in time the
    /// handle resolves to a timeout error instead of staying empty
    /// forever (e.g. across a root failover).
    pub fn deadline(mut self, deadline: SimDuration) -> MonitorQuery {
        self.deadline = Some(deadline);
        self
    }

    /// Retry timed-out attempts per `policy` (implies a deadline; the
    /// handle resolves exactly once, with the first real response or the
    /// final timeout).
    pub fn retry(mut self, policy: RetryPolicy) -> MonitorQuery {
        self.retry = Some(policy);
        self
    }

    /// Launch the query. Run the engine (or continue the simulation) to
    /// completion for the handle to fill.
    pub fn send(self, world: &mut World, eng: &mut FluxEngine) -> QueryHandle {
        let slot: QuerySlot = Rc::new(RefCell::new(None));
        let out = Rc::clone(&slot);
        self.send_with(world, eng, move |result| {
            *out.borrow_mut() = Some(result);
        });
        QueryHandle { slot }
    }

    /// The single dispatch path every query funnels through.
    fn send_with(
        self,
        world: &mut World,
        eng: &mut FluxEngine,
        cb: impl FnOnce(Result<SharedReply, String>) + 'static,
    ) {
        let req = match self.kind {
            QueryKind::JobData(job) => MonitorRequest::JobData(JobDataRequest { job }),
            QueryKind::JobStats(job) => MonitorRequest::JobStats(JobStatsRequest { job }),
            QueryKind::JobStatsTree(job) => {
                // The tree reduction carries an explicit window and node
                // set, resolved client-side (the paper's client script
                // does the same against the job record). Resolution
                // failures surface synchronously.
                use crate::tree_reduce::SubtreeStatsRequest;
                let Some(record) = world.jobs.get(job) else {
                    cb(Err(format!("no such job {job:?}")));
                    return;
                };
                let Some(start) = record.started_at else {
                    cb(Err("job has not started".into()));
                    return;
                };
                let start_us = start.as_micros();
                let end_us = record
                    .finished_at
                    .map(|t| t.as_micros())
                    .unwrap_or_else(|| eng.now().as_micros());
                let targets: Vec<u32> = record.nodes.iter().map(|n| n.0).collect();
                MonitorRequest::SubtreeStats(SubtreeStatsRequest {
                    start_us,
                    end_us,
                    targets,
                })
            }
            QueryKind::Subscribe(filter) => MonitorRequest::Subscribe(SubscribeRequest { filter }),
            QueryKind::Unsubscribe(sub) => MonitorRequest::Unsubscribe(UnsubscribeRequest { sub }),
            QueryKind::Poll { sub, max } => MonitorRequest::Poll(PollRequest { sub, max }),
        };
        let to = self.target.unwrap_or_else(|| world.root());
        let mut rpc = world.rpc(to, req.topic(), req.encode());
        if let Some(deadline) = self.deadline {
            rpc = rpc.deadline(deadline);
        }
        if let Some(policy) = self.retry {
            rpc = rpc.retry(policy);
        }
        rpc.send(eng, move |_, _, resp| {
            // Keeping the reply is keeping the payload it arrived in: one
            // reference-count bump, whatever the reply holds.
            let result = match (&resp.error, MonitorReply::decode_ref(resp)) {
                (Some(e), _) => Err(e.clone()),
                (None, Ok(_)) => Ok(SharedReply(Rc::clone(&resp.payload))),
                (None, Err(e)) => Err(e.reason),
            };
            cb(result);
        });
    }
}

/// A reply as the client keeps it: the payload the responder sent,
/// checked on arrival to decode as a [`MonitorReply`] on its topic.
#[derive(Clone)]
struct SharedReply(Payload);

impl std::ops::Deref for SharedReply {
    type Target = MonitorReply;
    fn deref(&self) -> &MonitorReply {
        // invariant: `MonitorQuery::send` wraps only payloads that decoded.
        self.0
            .downcast_ref()
            .expect("decoded as a MonitorReply on arrival")
    }
}

impl std::fmt::Debug for SharedReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

type QuerySlot = Rc<RefCell<Option<Result<SharedReply, String>>>>;

/// The eventual result of a [`MonitorQuery`]: empty until the engine
/// delivers the reply (or a deadline fires), then holds the typed
/// [`MonitorReply`] or an error string. The typed accessors also reject
/// a reply of the wrong variant, so a caller can never silently read a
/// stats reply as data.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    slot: QuerySlot,
}

/// Map one reply variant out of a handle's slot, turning a variant
/// mismatch into an error.
macro_rules! extract {
    ($slot:expr, $what:literal, $pat:pat => $out:expr) => {
        $slot
            .borrow()
            .as_ref()
            .map(|result| match result.as_deref() {
                Ok($pat) => Ok($out.clone()),
                Ok(other) => Err(format!(
                    concat!("expected ", $what, " reply, got {:?}"),
                    other
                )),
                Err(e) => Err(e.clone()),
            })
    };
}

impl QueryHandle {
    /// Whether the reply (or an error) has arrived.
    pub fn ready(&self) -> bool {
        self.slot.borrow().is_some()
    }

    /// The raw reply, if available.
    pub fn reply(&self) -> Option<Result<MonitorReply, String>> {
        let slot = self.slot.borrow();
        let result = slot.as_ref()?.as_deref();
        Some(result.cloned().map_err(String::clone))
    }

    /// The reply to a [`MonitorQuery::job_data`] query.
    pub fn job_data(&self) -> Option<Result<JobDataReply, String>> {
        extract!(self.slot, "job-data", MonitorReply::JobData(r) => r)
    }

    /// The reply to a [`MonitorQuery::job_stats`] query.
    pub fn job_stats(&self) -> Option<Result<JobStatsReply, String>> {
        extract!(self.slot, "job-stats", MonitorReply::JobStats(r) => r)
    }

    /// The reply to a [`MonitorQuery::job_stats_tree`] query.
    pub fn subtree_stats(&self) -> Option<Result<SubtreeStats, String>> {
        extract!(self.slot, "subtree-stats", MonitorReply::SubtreeStats(r) => r)
    }

    /// The subscription id granted to a [`MonitorQuery::subscribe`].
    pub fn subscription(&self) -> Option<Result<SubscriberId, String>> {
        extract!(self.slot, "subscribe", MonitorReply::Subscribed(id) => id)
    }

    /// Whether a [`MonitorQuery::unsubscribe`] found its subscription.
    pub fn unsubscribed(&self) -> Option<Result<bool, String>> {
        extract!(self.slot, "unsubscribe", MonitorReply::Unsubscribed(b) => b)
    }

    /// The deltas drained by a [`MonitorQuery::poll`]: the runs the
    /// relay built, shared (no per-delta work however large the batch).
    pub fn deltas(&self) -> Option<Result<DeltaBatch, String>> {
        extract!(self.slot, "poll", MonitorReply::Deltas(b) => b)
    }
}

/// One CSV row of job telemetry: a single sample on a single node,
/// flattened and typed (see [`job_data_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// The job id.
    pub job: u64,
    /// Application name (free text; quoted on render).
    pub app: String,
    /// Sampling node's hostname (free text; quoted on render).
    pub hostname: String,
    /// Sample timestamp in seconds.
    pub timestamp_s: f64,
    /// Node power in watts: the measured value when the platform reports
    /// one, otherwise the component-sum estimate.
    pub node_power_w: f64,
    /// Whether `node_power_w` is a direct measurement.
    pub node_power_measured: bool,
    /// Summed CPU power (W).
    pub cpu_power_w: f64,
    /// Memory-subsystem power (W), when the platform reports it.
    pub mem_power_w: Option<f64>,
    /// Summed GPU power (W).
    pub gpu_power_w: f64,
    /// Whether this node's window was fully retained (the paper's
    /// per-node "complete"/"partial" data flag).
    pub complete: bool,
}

/// Flatten a job-data reply into typed rows, one per sample per node, in
/// reply order.
pub fn job_data_rows(reply: &JobDataReply) -> Vec<JobRow> {
    let mut rows = Vec::with_capacity(reply.sample_count());
    for node in &reply.nodes {
        for r in node.records.iter() {
            rows.push(JobRow {
                job: reply.job.0,
                app: reply.name.clone(),
                hostname: node.hostname.to_string(),
                timestamp_s: r.timestamp_us() as f64 / 1e6,
                node_power_w: r.node_power_estimate(),
                node_power_measured: r.node_power_measured(),
                cpu_power_w: r.cpu_total(),
                mem_power_w: r.mem_watts(),
                gpu_power_w: r.gpu_total(),
                complete: node.complete,
            });
        }
    }
    rows
}

/// Quote a free-text CSV field per RFC 4180: fields containing a
/// comma, double quote, or line break are wrapped in double quotes,
/// with embedded quotes doubled. Clean fields pass through unchanged,
/// so well-behaved outputs (and their goldens) stay byte-identical.
///
/// Job names, hostnames, and topics are operator- or config-supplied
/// strings; interpolating them raw lets a name like `gemm,12` or
/// `svc."x"` shift every later column of its row.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains(['"', ',', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

/// Render a job-data reply as the client's CSV (paper §III-A): one row
/// per sample per node, with a completeness flag. A thin serializer over
/// [`job_data_rows`]; free-text fields are escaped per RFC 4180.
pub fn job_data_to_csv(reply: &JobDataReply) -> String {
    let mut csv = String::new();
    csv.push_str(
        "jobid,app,hostname,timestamp_s,node_power_w,cpu_power_w,mem_power_w,gpu_power_w,data\n",
    );
    for row in job_data_rows(reply) {
        let flag = if row.complete { "complete" } else { "partial" };
        let mem = row
            .mem_power_w
            .map(|m| format!("{m:.1}"))
            .unwrap_or_default();
        let _ = writeln!(
            csv,
            "{},{},{},{:.1},{:.1},{:.1},{},{:.1},{}",
            row.job,
            csv_field(&row.app),
            csv_field(&row.hostname),
            row.timestamp_s,
            row.node_power_w,
            row.cpu_power_w,
            mem,
            row.gpu_power_w,
            flag
        );
    }
    csv
}

/// Render the overlay's per-topic RPC health counters as CSV, one row
/// per topic that saw a timeout, retry, or drop. A thin serializer over
/// [`fluxpm_flux::World::rpc_stats`]. Operators ship this next to the
/// telemetry CSV to tell "the data is partial because the buffer
/// wrapped" apart from "the data is partial because the overlay lost
/// messages".
pub fn rpc_stats_to_csv(world: &World) -> String {
    let mut csv = String::from("topic,timeouts,retries,drops\n");
    for (topic, s) in world.rpc_stats() {
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            csv_field(topic.as_str()),
            s.timeouts,
            s.retries,
            s.drops
        );
    }
    csv
}

/// Render the overlay's per-link queueing telemetry as CSV, one row per
/// TBON edge that has carried or dropped traffic, in child-rank order. A
/// thin serializer over [`fluxpm_flux::World::link_stats`]. Operators read this next to the
/// RPC health CSV: a topic timing out *and* its route's links showing
/// rising EWMA delay or congestion drops is a degraded link, not a dead
/// service.
pub fn link_stats_to_csv(world: &World) -> String {
    let mut csv = String::from(
        "child,parent,ewma_delay_us,ewma_depth,delivered,congestion_drops,reparents\n",
    );
    for row in world.link_stats() {
        let _ = writeln!(
            csv,
            "{},{},{:.1},{:.2},{},{},{}",
            row.child,
            row.parent,
            row.ewma_delay_us,
            row.ewma_depth,
            row.delivered,
            row.congestion_drops,
            row.reparents
        );
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use fluxpm_flux::{JobSpec, JobState};
    use fluxpm_hw::MachineKind;
    use fluxpm_sim::Engine;

    // Minimal in-crate program so client tests don't depend on the
    // workloads crate (which depends on this crate's siblings only).
    struct Burn {
        secs: f64,
        done: f64,
    }
    impl fluxpm_flux::JobProgram for Burn {
        fn app_name(&self) -> &str {
            "burn"
        }
        fn on_start(&mut self, ctx: &mut fluxpm_flux::StepCtx<'_>) {
            for n in &mut ctx.nodes {
                let arch = n.arch.clone();
                n.set_demand(fluxpm_hw::PowerDemand {
                    cpu: fluxpm_hw::Lanes::filled(fluxpm_hw::Watts(150.0), arch.sockets),
                    memory: fluxpm_hw::Watts(80.0),
                    gpu: fluxpm_hw::Lanes::filled(fluxpm_hw::Watts(250.0), arch.gpus),
                    other: arch.other,
                });
            }
        }
        fn step(&mut self, ctx: &mut fluxpm_flux::StepCtx<'_>) -> fluxpm_flux::StepOutcome {
            self.done += ctx.dt;
            if self.done >= self.secs {
                fluxpm_flux::StepOutcome::Done {
                    leftover_seconds: self.done - self.secs,
                }
            } else {
                fluxpm_flux::StepOutcome::Running
            }
        }
    }

    #[test]
    fn end_to_end_job_telemetry() {
        let mut w = World::new(MachineKind::Lassen, 4, 11);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        w.install_executor(&mut eng);
        crate::load(&mut w, &mut eng, MonitorConfig::default());
        let id = w.submit(
            &mut eng,
            JobSpec::new("burn", 2),
            Box::new(Burn {
                secs: 20.0,
                done: 0.0,
            }),
        );
        eng.run(&mut w);
        assert_eq!(w.jobs.get(id).unwrap().state, JobState::Completed);

        // Client query after completion.
        let mut eng2: FluxEngine = Engine::new();
        let handle = MonitorQuery::job_data(id).send(&mut w, &mut eng2);
        assert!(!handle.ready());
        eng2.run(&mut w);
        let reply = handle.job_data().unwrap().unwrap();
        assert_eq!(reply.nodes.len(), 2);
        assert!(reply.all_complete());
        // Samples every 2 s over ~20 s on each node.
        assert!(reply.sample_count() >= 16, "{}", reply.sample_count());
        // Busy Lassen node: 2*150 + 4*250 + 80 + 40 = 1420 W.
        let avg = reply.average_node_power();
        assert!((avg - 1420.0).abs() < 50.0, "avg {avg}");

        // A typed accessor for the wrong variant rejects the reply
        // instead of decoding garbage.
        let err = handle.job_stats().unwrap().unwrap_err();
        assert!(err.contains("expected job-stats"), "{err}");

        // Rows flatten one sample per node per instant.
        let rows = job_data_rows(&reply);
        assert_eq!(rows.len(), reply.sample_count());
        assert!(rows.iter().all(|r| r.complete && r.job == id.0));
        assert!(rows.iter().all(|r| (r.node_power_w - 1420.0).abs() < 80.0));

        let csv = job_data_to_csv(&reply);
        assert!(csv.starts_with("jobid,app,hostname"));
        assert!(csv.contains("complete"));
        assert!(csv.contains("lassen0"));
        assert_eq!(csv.lines().count(), 1 + reply.sample_count());

        // A healthy run has no per-topic RPC incidents to report.
        assert!(w.rpc_stats().is_empty());
        let stats_csv = rpc_stats_to_csv(&w);
        assert_eq!(stats_csv, "topic,timeouts,retries,drops\n");
    }

    /// Minimal RFC 4180 row parser for the assertions below: splits a
    /// line into fields, honoring quoted fields with doubled quotes.
    fn parse_csv_row(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cur.is_empty() => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_field_escapes_per_rfc4180() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("with space"), "with space");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_field("evil\",inject"), "\"evil\"\",inject\"");
        // Round trip through the parser.
        for hostile in ["a,b", "say \"hi\"", "evil\",inject", "x\r\ny"] {
            let row = format!("pre,{},post", csv_field(hostile));
            // \r\n inside a quoted field spans lines; parse as one.
            let parsed = parse_csv_row(&row);
            assert_eq!(parsed, vec!["pre", hostile, "post"], "{hostile:?}");
        }
    }

    #[test]
    fn hostile_job_name_cannot_corrupt_csv_rows() {
        let hostile = "burn\",2000,\"injected";
        let mut w = World::new(MachineKind::Lassen, 4, 11);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        w.install_executor(&mut eng);
        crate::load(&mut w, &mut eng, MonitorConfig::default());
        let id = w.submit(
            &mut eng,
            JobSpec::new(hostile, 1),
            Box::new(Burn {
                secs: 10.0,
                done: 0.0,
            }),
        );
        eng.run(&mut w);

        let mut eng2: FluxEngine = Engine::new();
        let handle = MonitorQuery::job_data(id).send(&mut w, &mut eng2);
        eng2.run(&mut w);
        let reply = handle.job_data().unwrap().unwrap();
        assert_eq!(reply.name, hostile);

        let csv = job_data_to_csv(&reply);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            let fields = parse_csv_row(line);
            assert_eq!(
                fields.len(),
                header_cols,
                "row structure survived a hostile app name: {line}"
            );
            assert_eq!(fields[1], hostile, "name round-trips");
            // The naive unescaped rendering would have split this row
            // into extra columns.
            assert!(line.split(',').count() > header_cols);
        }
    }

    #[test]
    fn hostile_topic_cannot_corrupt_rpc_stats_csv() {
        use fluxpm_flux::{payload, Rank, RetryPolicy};
        use fluxpm_sim::SimDuration;
        let hostile = "evil\"topic,with,commas";
        let mut w = World::new(MachineKind::Lassen, 2, 11);
        let mut eng: FluxEngine = Engine::new();
        w.fail_node(&mut eng, fluxpm_hw::NodeId(1));
        let policy = RetryPolicy {
            max_attempts: 2,
            deadline: SimDuration::from_millis(50),
            backoff: SimDuration::from_millis(10),
            backoff_factor: 2,
        };
        w.rpc(Rank(1), hostile, payload(()))
            .retry(policy)
            .send(&mut eng, |_, _, _| {});
        eng.run(&mut w);
        assert!(w.rpc_stats().contains_key(hostile), "topic recorded");

        let stats = w.rpc_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats.keys().next().map(|t| t.as_str()), Some(hostile));

        let csv = rpc_stats_to_csv(&w);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("topic,timeouts,retries,drops"));
        let row = lines.next().expect("one incident row");
        let fields = parse_csv_row(row);
        assert_eq!(fields.len(), 4, "row stays 4 columns: {row}");
        assert_eq!(fields[0], hostile);
        assert!(row.split(',').count() > 4, "naive split would corrupt");
    }

    #[test]
    fn link_stats_render_per_edge_rows_and_csv() {
        use fluxpm_flux::{payload, FaultPlan, Rank};
        use fluxpm_sim::{SimDuration, SimTime};
        let mut w = World::new(MachineKind::Lassen, 2, 11);
        w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO).with_congestion(
            Rank(0),
            Rank(1),
            SimTime::ZERO..SimTime::from_secs(60),
            0.999,
        ));
        let mut eng: FluxEngine = Engine::new();
        for _ in 0..4 {
            w.rpc(Rank(1), "ping", payload(()))
                .send(&mut eng, |_, _, _| {});
        }
        eng.run(&mut w);

        let rows = w.link_stats();
        assert_eq!(rows.len(), 1, "one active edge: {rows:?}");
        let row = &rows[0];
        assert_eq!((row.child, row.parent), (1, 0));
        assert!(row.delivered >= 4, "both directions counted: {row:?}");
        assert!(row.ewma_delay_us > 0.0, "congestion visible: {row:?}");
        assert_eq!(row.reparents, 0);

        let csv = link_stats_to_csv(&w);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("child,parent,ewma_delay_us,ewma_depth,delivered,congestion_drops,reparents")
        );
        let body = lines.next().expect("one edge row");
        let fields = parse_csv_row(body);
        assert_eq!(fields.len(), 7, "{body}");
        assert_eq!(fields[0], "1");
        assert_eq!(fields[1], "0");

        // A fresh world has no traffic and renders a header-only report.
        let quiet = World::new(MachineKind::Lassen, 2, 11);
        assert!(quiet.link_stats().is_empty());
        assert_eq!(
            link_stats_to_csv(&quiet),
            "child,parent,ewma_delay_us,ewma_depth,delivered,congestion_drops,reparents\n"
        );
    }

    #[test]
    fn query_for_unknown_job_errors() {
        let mut w = World::new(MachineKind::Lassen, 2, 11);
        let mut eng: FluxEngine = Engine::new();
        crate::load(&mut w, &mut eng, MonitorConfig::default());
        let handle = MonitorQuery::job_data(JobId(42)).send(&mut w, &mut eng);
        eng.set_horizon(fluxpm_sim::SimTime::from_secs(1));
        eng.run(&mut w);
        let result = handle.job_data().unwrap();
        assert!(result.unwrap_err().contains("no such job"));
        // The tree form resolves client-side and fails synchronously.
        let mut eng2: FluxEngine = Engine::new();
        let handle = MonitorQuery::job_stats_tree(JobId(42)).send(&mut w, &mut eng2);
        assert!(handle.ready());
        assert!(handle
            .subtree_stats()
            .unwrap()
            .unwrap_err()
            .contains("no such job"));
    }

    #[test]
    fn query_for_pending_job_errors() {
        let mut w = World::new(MachineKind::Lassen, 2, 11);
        let mut eng: FluxEngine = Engine::new();
        crate::load(&mut w, &mut eng, MonitorConfig::default());
        // Fill the cluster so the next job stays pending.
        w.install_executor(&mut eng);
        w.submit(
            &mut eng,
            JobSpec::new("burn", 2),
            Box::new(Burn {
                secs: 100.0,
                done: 0.0,
            }),
        );
        let pending = w.submit(
            &mut eng,
            JobSpec::new("burn", 1),
            Box::new(Burn {
                secs: 1.0,
                done: 0.0,
            }),
        );
        let handle = MonitorQuery::job_data(pending).send(&mut w, &mut eng);
        eng.set_horizon(fluxpm_sim::SimTime::from_secs(2));
        eng.run(&mut w);
        let result = handle.job_data().unwrap();
        assert!(result.unwrap_err().contains("not started"));
    }

    #[test]
    fn running_job_query_uses_now_as_window_end() {
        let mut w = World::new(MachineKind::Lassen, 2, 11);
        w.autostop_after = Some(1);
        let mut eng: FluxEngine = Engine::new();
        w.install_executor(&mut eng);
        crate::load(&mut w, &mut eng, MonitorConfig::default());
        let id = w.submit(
            &mut eng,
            JobSpec::new("burn", 1),
            Box::new(Burn {
                secs: 60.0,
                done: 0.0,
            }),
        );
        // Query mid-run at t = 30 s.
        let slot = Rc::new(RefCell::new(None));
        let slot2 = Rc::clone(&slot);
        eng.schedule(
            fluxpm_sim::SimTime::from_secs(30),
            move |w: &mut World, eng| {
                let handle = MonitorQuery::job_data(id).send(w, eng);
                *slot2.borrow_mut() = Some(handle);
            },
        );
        eng.run(&mut w);
        let handle = slot.borrow().clone().unwrap();
        let reply = handle.job_data().unwrap().unwrap();
        assert!(reply.end_us <= 31_000_000, "window ends near query time");
        assert!(reply.sample_count() >= 13, "{}", reply.sample_count());
    }

    /// A per-call deadline resolves the handle with a timeout error when
    /// the root never answers (here: the root rank is down and no
    /// failover is configured to take the query).
    #[test]
    fn per_call_deadline_times_out() {
        let mut w = World::new(MachineKind::Lassen, 2, 11);
        let mut eng: FluxEngine = Engine::new();
        crate::load(&mut w, &mut eng, MonitorConfig::default());
        // Sever the path to the root so the request is dropped.
        w.fail_node(&mut eng, fluxpm_hw::NodeId(0));
        let handle = MonitorQuery::job_data(JobId(1))
            .deadline(fluxpm_sim::SimDuration::from_millis(200))
            .send(&mut w, &mut eng);
        eng.set_horizon(fluxpm_sim::SimTime::from_secs(1));
        eng.run(&mut w);
        let result = handle.job_data().expect("deadline resolved the handle");
        assert!(result.is_err(), "no reply without a live root");
    }
}
