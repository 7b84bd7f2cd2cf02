//! Monitor message payloads.
//!
//! The plain structs below are the per-query payloads; the
//! [`MonitorRequest`] / [`MonitorReply`] enums wrap them into the
//! monitor's typed wire protocol (one [`Protocol`] variant per overlay
//! topic). All monitor traffic travels as these two enums — handlers
//! decode them instead of downcasting raw payloads.

use crate::log::{Records, Runs};
use crate::subscription::TelemetryDelta;
use fluxpm_flux::{JobId, Protocol};
use fluxpm_variorum::NodePowerSample;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One stored telemetry record: the Variorum JSON object as the node
/// agent stores it ("100,000 instances of the Variorum JSON object ≈
/// 43.4 MB") plus the few numbers queries read, so answering one never
/// parses.
///
/// A record is a handle to its bytes in an immutable heap block plus
/// the two numbers every query reads — timestamp and node power — so a
/// window search or a statistic walks the node agent's own pages and
/// touches no block. The agent's log writes each sample's bytes once,
/// straight into storage it keeps, and turns every four of them into one
/// block (DESIGN.md §14), so a log holds a block per four records. A
/// reply shares the log's sealed pages whole ([`Records`]) and clones a
/// record only from the page still being filled, so the root's
/// aggregation and the client hold the very bytes the node agent keeps.
/// The per-socket and per-GPU values live only in the JSON:
/// [`PowerRecord::sample`] decodes them on demand.
#[derive(Clone)]
pub struct PowerRecord {
    /// `block[start..end]` is `[stored JSON][TRAILER bytes of
    /// little-endian numbers]`: its part of the block its log packed it
    /// into, or the whole of a block of its own
    /// ([`PowerRecord::encode`]).
    block: Arc<[u8]>,
    start: u32,
    end: u32,
    /// Kept beside the pointer, not behind it: see the type's docs.
    timestamp_us: u64,
    node_w: f64,
}

/// Bytes behind the JSON: CPU total, GPU total and memory power (8 bytes
/// each), then one flags byte.
pub(crate) const TRAILER: usize = 25;
/// Flag: the node power is a direct measurement, not a component sum.
const NODE_MEASURED: u8 = 1;
/// Flag: the platform reported memory power.
const MEM_REPORTED: u8 = 2;

thread_local! {
    /// Where [`PowerRecord::encode`] assembles a record before its one
    /// allocation, so that it allocates nothing else once the buffer has
    /// grown.
    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl PowerRecord {
    /// Build a record, encoding the Variorum JSON once.
    pub fn new(sample: NodePowerSample) -> PowerRecord {
        PowerRecord::encode(&sample)
    }

    /// [`PowerRecord::new`] from a borrowed sample: a record in a block
    /// of its own.
    pub fn encode(sample: &NodePowerSample) -> PowerRecord {
        ENCODE_BUF.with_borrow_mut(|buf| {
            buf.clear();
            PowerRecord::write(sample, buf);
            PowerRecord::in_block(
                Arc::from(&buf[..]),
                0..buf.len(),
                sample.timestamp_us,
                sample.node_power_estimate(),
            )
        })
    }

    /// Append a record's bytes for `sample` to `out`: its stored JSON,
    /// then the trailer.
    pub(crate) fn write(sample: &NodePowerSample, out: &mut Vec<u8>) {
        sample.write_json(out);
        let mut flags = 0;
        if sample.power_node_watts.is_some() {
            flags |= NODE_MEASURED;
        }
        if sample.power_mem_watts.is_some() {
            flags |= MEM_REPORTED;
        }
        for w in [
            sample.cpu_total(),
            sample.gpu_total(),
            sample.power_mem_watts.unwrap_or(0.0),
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.push(flags);
    }

    /// The record whose bytes ([`PowerRecord::write`]) are
    /// `block[bytes]`, with the timestamp and node power of its sample.
    pub(crate) fn in_block(
        block: Arc<[u8]>,
        bytes: Range<usize>,
        timestamp_us: u64,
        node_w: f64,
    ) -> PowerRecord {
        // invariant: a Variorum JSON object is some hundred bytes.
        let offset = |at: usize| u32::try_from(at).expect("a block under 4 GiB");
        PowerRecord {
            block,
            start: offset(bytes.start),
            end: offset(bytes.end),
            timestamp_us,
            node_w,
        }
    }

    /// The block the record's bytes live in.
    #[cfg(test)]
    pub(crate) fn block(&self) -> &Arc<[u8]> {
        &self.block
    }

    /// The record's `[stored JSON][trailer]`.
    fn bytes(&self) -> &[u8] {
        &self.block[self.start as usize..self.end as usize]
    }

    /// Trailer number `index` (0 = CPU total, 1 = GPU total, 2 = memory).
    fn number(&self, index: usize) -> f64 {
        let bytes = self.bytes();
        let at = bytes.len() - TRAILER + 8 * index;
        // invariant: a slice `at..at + 8` is eight bytes long.
        f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
    }

    fn flag(&self, flag: u8) -> bool {
        let bytes = self.bytes();
        bytes[bytes.len() - 1] & flag != 0
    }

    /// Timestamp in microseconds.
    pub fn timestamp_us(&self) -> u64 {
        self.timestamp_us
    }

    /// The node power a client reports: the direct measurement when the
    /// platform has one, otherwise the CPU + GPU sum
    /// ([`NodePowerSample::node_power_estimate`], computed at sample
    /// time).
    pub fn node_power_estimate(&self) -> f64 {
        self.node_w
    }

    /// Whether [`PowerRecord::node_power_estimate`] is a direct
    /// measurement.
    pub fn node_power_measured(&self) -> bool {
        self.flag(NODE_MEASURED)
    }

    /// Total CPU power in the sample (W).
    pub fn cpu_total(&self) -> f64 {
        self.number(0)
    }

    /// Total GPU power in the sample (W).
    pub fn gpu_total(&self) -> f64 {
        self.number(1)
    }

    /// Memory power (W), when the platform reports it.
    pub fn mem_watts(&self) -> Option<f64> {
        self.flag(MEM_REPORTED).then(|| self.number(2))
    }

    /// Size of the stored JSON encoding in bytes.
    pub fn stored_bytes(&self) -> usize {
        (self.end - self.start) as usize - TRAILER
    }

    /// The stored JSON encoding.
    pub fn raw_json(&self) -> &[u8] {
        &self.bytes()[..self.stored_bytes()]
    }

    /// The full typed sample, decoded from the stored JSON (so its
    /// values carry the JSON's three decimals). `None` only if the
    /// record was built from a sample the flat format cannot carry, such
    /// as a hostname containing a quote.
    pub fn sample(&self) -> Option<NodePowerSample> {
        NodePowerSample::from_json(std::str::from_utf8(self.raw_json()).ok()?)
    }
}

/// Equal when every stored bit is: a NaN reading equals itself, as the
/// block's bytes do.
impl PartialEq for PowerRecord {
    fn eq(&self, other: &PowerRecord) -> bool {
        self.timestamp_us == other.timestamp_us
            && self.node_w.to_bits() == other.node_w.to_bits()
            && self.bytes() == other.bytes()
    }
}

impl fmt::Debug for PowerRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerRecord")
            .field("json", &String::from_utf8_lossy(self.raw_json()))
            .finish()
    }
}

/// Root → node-agent request: records within a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDataRequest {
    /// Window start (inclusive), microseconds.
    pub start_us: u64,
    /// Window end (inclusive), microseconds.
    pub end_us: u64,
}

/// Node-agent → root reply. Built once by the node agent out of its own
/// pages; every later hop (the root's aggregation, the client, the
/// cross-shard wire) shares `records` rather than copying it, so cloning
/// a reply costs the same for one record as for a million.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDataReply {
    /// The replying node's hostname.
    pub hostname: Arc<str>,
    /// Records within the window, oldest first.
    pub records: Records,
    /// False when the buffer wrapped past the window start (the paper's
    /// "partial data" flag).
    pub complete: bool,
}

/// Node-agent → root reply for a *stats* query: summary statistics
/// computed locally at the node agent, so only a handful of numbers (not
/// the raw records) cross the overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The replying node's hostname.
    pub hostname: Arc<str>,
    /// Samples in the window.
    pub samples: usize,
    /// Mean node-power estimate over the window (W).
    pub mean_w: f64,
    /// Maximum node-power estimate (W).
    pub max_w: f64,
    /// Minimum node-power estimate (W).
    pub min_w: f64,
    /// Whether the window was fully retained.
    pub complete: bool,
}

/// Client → root request: summary statistics for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatsRequest {
    /// The job to summarize.
    pub job: JobId,
}

/// Root → client reply for a stats query.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatsReply {
    /// The job.
    pub job: JobId,
    /// Job name.
    pub name: String,
    /// Window start, microseconds.
    pub start_us: u64,
    /// Window end, microseconds.
    pub end_us: u64,
    /// One summary per allocated node.
    pub nodes: Vec<NodeStats>,
}

impl JobStatsReply {
    /// Mean node power across nodes (weighted by sample count).
    pub fn mean_node_power(&self) -> f64 {
        let total: f64 = self.nodes.iter().map(|n| n.mean_w * n.samples as f64).sum();
        let count: usize = self.nodes.iter().map(|n| n.samples).sum();
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Highest single-node sample.
    pub fn max_node_power(&self) -> f64 {
        self.nodes.iter().map(|n| n.max_w).fold(0.0, f64::max)
    }

    /// Approximate per-node energy over the window (kJ).
    pub fn energy_per_node_kj(&self) -> f64 {
        let span_s = (self.end_us.saturating_sub(self.start_us)) as f64 / 1e6;
        self.mean_node_power() * span_s / 1e3
    }
}

/// Client → root request: telemetry for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobDataRequest {
    /// The job to report on.
    pub job: JobId,
}

/// Root → client reply: per-node data plus the job's identity window.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDataReply {
    /// The job.
    pub job: JobId,
    /// Job name.
    pub name: String,
    /// Window start used for the query, microseconds.
    pub start_us: u64,
    /// Window end used for the query, microseconds.
    pub end_us: u64,
    /// One reply per allocated node, in allocation order.
    pub nodes: Vec<NodeDataReply>,
}

impl JobDataReply {
    /// Average node-power estimate across all nodes and samples.
    pub fn average_node_power(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for node in &self.nodes {
            for r in node.records.iter() {
                sum += r.node_power_estimate();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Highest single-sample node power seen.
    pub fn max_node_power(&self) -> f64 {
        self.nodes
            .iter()
            .flat_map(|n| n.records.iter())
            .map(|r| r.node_power_estimate())
            .fold(0.0, f64::max)
    }

    /// Peak *cluster* power: at each sample instant, sum node estimates
    /// across nodes, then take the max over instants (paper Table III's
    /// "Maximum Power Usage").
    pub fn max_cluster_power(&self) -> f64 {
        use std::collections::BTreeMap;
        let mut per_instant: BTreeMap<u64, f64> = BTreeMap::new();
        for node in &self.nodes {
            for r in node.records.iter() {
                *per_instant.entry(r.timestamp_us()).or_insert(0.0) += r.node_power_estimate();
            }
        }
        per_instant.values().copied().fold(0.0, f64::max)
    }

    /// True if every node returned a complete window.
    pub fn all_complete(&self) -> bool {
        self.nodes.iter().all(|n| n.complete)
    }

    /// Total sample count across nodes.
    pub fn sample_count(&self) -> usize {
        self.nodes.iter().map(|n| n.records.len()).sum()
    }
}

/// Client → root request: register a telemetry subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeRequest {
    /// What the subscriber wants to see.
    pub filter: crate::subscription::SubscriptionFilter,
}

/// Client → root request: drop a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsubscribeRequest {
    /// The subscription to drop.
    pub sub: crate::subscription::SubscriberId,
}

/// Client → root request: drain pending deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRequest {
    /// The subscription to drain.
    pub sub: crate::subscription::SubscriberId,
    /// Upper bound on deltas returned.
    pub max: usize,
}

/// Node agent → root agent: one pushed power sample feeding the
/// subscription fan-out (job attribution happens at the root, keeping
/// the node agent stateless).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePush {
    /// Originating rank.
    pub node: u32,
    /// Sample timestamp, microseconds.
    pub timestamp_us: u64,
    /// Node power estimate, watts.
    pub node_w: f64,
}

/// The deltas of one relay batch: an immutable slice built once by the
/// relay that fills the batch and shared by every later holder — the
/// wire message on each edge it is passed on to, and the subscriber hub
/// of every relay it reaches, which keeps it as a page of its log — so
/// cloning a batch of 4,096 deltas is one reference-count bump, the
/// same as a batch of one. Reads like `&[Arc<TelemetryDelta>]`:
/// `len()`, indexing, `for d in &batch.deltas`.
#[derive(Clone, PartialEq, Default)]
pub struct SharedDeltas(Arc<[Arc<TelemetryDelta>]>);

impl SharedDeltas {
    /// The shared slice itself: the page a subscriber hub adopts.
    pub(crate) fn page(&self) -> &Arc<[Arc<TelemetryDelta>]> {
        &self.0
    }
}

impl std::ops::Deref for SharedDeltas {
    type Target = [Arc<TelemetryDelta>];
    fn deref(&self) -> &[Arc<TelemetryDelta>] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a SharedDeltas {
    type Item = &'a Arc<TelemetryDelta>;
    type IntoIter = std::slice::Iter<'a, Arc<TelemetryDelta>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One allocation when the iterator knows its length (`Vec::drain`,
/// `Vec::into_iter`), the slice itself.
impl FromIterator<Arc<TelemetryDelta>> for SharedDeltas {
    fn from_iter<I: IntoIterator<Item = Arc<TelemetryDelta>>>(iter: I) -> SharedDeltas {
        SharedDeltas(iter.into_iter().collect())
    }
}

impl fmt::Debug for SharedDeltas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// Relay → client reply to a poll: the drained deltas plus the
/// subscriber's cumulative shed count for backpressure visibility.
///
/// The deltas are runs of the serving hub's pages ([`Runs`]): a
/// match-everything subscriber's stream is read straight out of the
/// relay batches its hub was sent, one reference-count bump per page,
/// and only its seed (and a filtered subscriber's queue) is a page of
/// its own. Cloning the reply is one bump however many deltas it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// Drained deltas, oldest first.
    pub deltas: Runs<Arc<TelemetryDelta>>,
    /// Deltas this subscriber has lost to its bounded queue so far.
    pub dropped: u64,
}

/// Relay → parent relay: a subscription registered somewhere in the
/// sender's subtree, climbing to the root for its seed snapshot. Every
/// hop merges `filter` into the child edge's aggregate *before*
/// forwarding, so by the time the root snapshots, each edge on the
/// return path already carries matching deltas — the seed plus the
/// floored stream is gap-free.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaySubscribeRequest {
    /// Token minted by the origin relay to match the seed reply.
    pub token: u64,
    /// Rank of the relay holding the pending client request.
    pub origin: u32,
    /// The new subscriber's filter.
    pub filter: crate::subscription::SubscriptionFilter,
}

/// Root relay → origin relay: the seed snapshot for a climbing
/// subscription, taken at `horizon` — the origin floors the new
/// subscriber's stream there, so a delta covered by the seed is never
/// also delivered from the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaySeedReply {
    /// The matching [`RelaySubscribeRequest::token`].
    pub token: u64,
    /// Latest matching delta per node (power, then link kind).
    pub deltas: Vec<std::sync::Arc<crate::subscription::TelemetryDelta>>,
    /// The root hub's next sequence number at snapshot time.
    pub horizon: u64,
}

/// Relay → parent relay: authoritative replacement of the sender's
/// aggregate filter (what its whole subtree wants). Sent when the
/// aggregate narrows (unsubscribe, eviction) and after every topology
/// change, so a new parent learns the subtree's interest set.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayAdvert {
    /// The sender's merged subtree filter.
    pub aggregate: crate::relay::AggregateFilter,
}

/// Parent relay → child relay: one coalesced batch of deltas the
/// child's subtree subscribed to, in sequence order. The edge sends one
/// wire message per flush regardless of how many subscribers sit below
/// it — the O(fanout) root-egress invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayDeltaBatch {
    /// Deltas matching the edge's aggregate, oldest first.
    pub deltas: SharedDeltas,
    /// Deltas this edge has coalesced away under backpressure so far.
    pub shed: u64,
}

/// Every request the monitor stack serves, one variant per topic.
///
/// * `NodeData` / `NodeStats` — root agent → node agent window queries
///   (both carry a [`NodeDataRequest`] window; the topic selects raw
///   records vs. local summary).
/// * `SubtreeStats` — the in-tree reduction request, relayed hop by hop.
/// * `JobData` / `JobStats` — external client → root agent.
/// * `Subscribe` / `Unsubscribe` / `Poll` — the subscription API.
/// * `PushSample` — node agent → root agent telemetry push.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorRequest {
    /// Raw records in a window ([`crate::node_agent::TOPIC_NODE_DATA`]).
    NodeData(NodeDataRequest),
    /// Local summary for a window
    /// ([`crate::node_agent::TOPIC_NODE_STATS`]).
    NodeStats(NodeDataRequest),
    /// In-tree reduction
    /// ([`crate::tree_reduce::TOPIC_SUBTREE_STATS`]).
    SubtreeStats(crate::tree_reduce::SubtreeStatsRequest),
    /// Client query for a job's full records
    /// ([`crate::root_agent::TOPIC_GET_JOB_DATA`]).
    JobData(JobDataRequest),
    /// Client query for a job's summary
    /// ([`crate::root_agent::TOPIC_GET_JOB_STATS`]).
    JobStats(JobStatsRequest),
    /// Register a subscription
    /// ([`crate::subscription::TOPIC_SUBSCRIBE`]).
    Subscribe(SubscribeRequest),
    /// Drop a subscription
    /// ([`crate::subscription::TOPIC_UNSUBSCRIBE`]).
    Unsubscribe(UnsubscribeRequest),
    /// Drain a subscriber's deltas
    /// ([`crate::subscription::TOPIC_POLL`]).
    Poll(PollRequest),
    /// Node-agent sample push
    /// ([`crate::subscription::TOPIC_SAMPLE_PUSH`]).
    PushSample(SamplePush),
    /// Relay → parent: climbing subscription
    /// ([`crate::relay::TOPIC_RELAY_SUBSCRIBE`]).
    RelaySubscribe(RelaySubscribeRequest),
    /// Relay → parent: authoritative aggregate replacement
    /// ([`crate::relay::TOPIC_RELAY_ADVERT`]).
    RelayAdvert(RelayAdvert),
    /// Parent → child: coalesced delta batch
    /// ([`crate::relay::TOPIC_RELAY_DELTAS`]).
    RelayDeltas(RelayDeltaBatch),
}

impl Protocol for MonitorRequest {
    fn topic(&self) -> &'static str {
        match self {
            MonitorRequest::NodeData(_) => crate::node_agent::TOPIC_NODE_DATA,
            MonitorRequest::NodeStats(_) => crate::node_agent::TOPIC_NODE_STATS,
            MonitorRequest::SubtreeStats(_) => crate::tree_reduce::TOPIC_SUBTREE_STATS,
            MonitorRequest::JobData(_) => crate::root_agent::TOPIC_GET_JOB_DATA,
            MonitorRequest::JobStats(_) => crate::root_agent::TOPIC_GET_JOB_STATS,
            MonitorRequest::Subscribe(_) => crate::subscription::TOPIC_SUBSCRIBE,
            MonitorRequest::Unsubscribe(_) => crate::subscription::TOPIC_UNSUBSCRIBE,
            MonitorRequest::Poll(_) => crate::subscription::TOPIC_POLL,
            MonitorRequest::PushSample(_) => crate::subscription::TOPIC_SAMPLE_PUSH,
            MonitorRequest::RelaySubscribe(_) => crate::relay::TOPIC_RELAY_SUBSCRIBE,
            MonitorRequest::RelayAdvert(_) => crate::relay::TOPIC_RELAY_ADVERT,
            MonitorRequest::RelayDeltas(_) => crate::relay::TOPIC_RELAY_DELTAS,
        }
    }
}

/// Every reply the monitor stack sends. Replies travel on the request's
/// topic (the overlay keeps it on [`fluxpm_flux::Message::respond_to`]),
/// so each variant maps to the same topic as its request.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorReply {
    /// Raw records in a window.
    NodeData(NodeDataReply),
    /// Local summary for a window.
    NodeStats(NodeStats),
    /// Merged subtree summary.
    SubtreeStats(crate::tree_reduce::SubtreeStats),
    /// Full records for a job.
    JobData(JobDataReply),
    /// Per-node summaries for a job.
    JobStats(JobStatsReply),
    /// Subscription granted, with its handle.
    Subscribed(crate::subscription::SubscriberId),
    /// Whether the dropped subscription existed.
    Unsubscribed(bool),
    /// Drained deltas for a poll.
    Deltas(DeltaBatch),
    /// Sample push acknowledged.
    PushAck,
    /// Root relay → origin relay: seed for a climbing subscription
    /// ([`crate::relay::TOPIC_RELAY_SEED`]).
    RelaySeed(RelaySeedReply),
}

impl Protocol for MonitorReply {
    fn topic(&self) -> &'static str {
        match self {
            MonitorReply::NodeData(_) => crate::node_agent::TOPIC_NODE_DATA,
            MonitorReply::NodeStats(_) => crate::node_agent::TOPIC_NODE_STATS,
            MonitorReply::SubtreeStats(_) => crate::tree_reduce::TOPIC_SUBTREE_STATS,
            MonitorReply::JobData(_) => crate::root_agent::TOPIC_GET_JOB_DATA,
            MonitorReply::JobStats(_) => crate::root_agent::TOPIC_GET_JOB_STATS,
            MonitorReply::Subscribed(_) => crate::subscription::TOPIC_SUBSCRIBE,
            MonitorReply::Unsubscribed(_) => crate::subscription::TOPIC_UNSUBSCRIBE,
            MonitorReply::Deltas(_) => crate::subscription::TOPIC_POLL,
            MonitorReply::PushAck => crate::subscription::TOPIC_SAMPLE_PUSH,
            MonitorReply::RelaySeed(_) => crate::relay::TOPIC_RELAY_SEED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64, node_w: f64) -> NodePowerSample {
        NodePowerSample {
            hostname: "h".into(),
            timestamp_us: ts,
            power_node_watts: Some(node_w),
            power_cpu_watts: Default::default(),
            power_mem_watts: None,
            power_gpu_watts: Default::default(),
        }
    }

    fn record(ts: u64, node_w: f64) -> PowerRecord {
        PowerRecord::new(sample(ts, node_w))
    }

    fn reply(records: Vec<PowerRecord>, complete: bool) -> NodeDataReply {
        NodeDataReply {
            hostname: "h".into(),
            records: records.into(),
            complete,
        }
    }

    #[test]
    fn a_record_is_a_40_byte_handle_to_json_plus_25() {
        assert_eq!(std::mem::size_of::<PowerRecord>(), 40);
        let r = record(7, 100.0);
        assert_eq!(r.block.len(), r.raw_json().len() + 25);
        assert_eq!(r.bytes().len(), r.block.len());
        assert_eq!(r.stored_bytes(), r.raw_json().len());
    }

    #[test]
    fn packed_records_share_one_block_and_keep_their_values() {
        let samples: Vec<NodePowerSample> = (0..5)
            .map(|i| NodePowerSample {
                power_cpu_watts: [150.0 + i as f64, 149.5].into(),
                power_mem_watts: (i % 2 == 0).then_some(80.0),
                power_gpu_watts: [250.25; 4].into(),
                ..sample(i * 1_000, 100.0 + i as f64)
            })
            .collect();
        let records: Vec<PowerRecord> = samples.iter().map(PowerRecord::encode).collect();
        // Written back to back into one buffer, as a log's pending bytes
        // are, then made one block.
        let mut bytes = Vec::new();
        let mut spans = Vec::new();
        for s in &samples {
            let start = bytes.len();
            PowerRecord::write(s, &mut bytes);
            spans.push(start..bytes.len());
        }
        let block: Arc<[u8]> = Arc::from(bytes);
        let packed: Vec<PowerRecord> = samples
            .iter()
            .zip(spans)
            .map(|(s, span)| {
                PowerRecord::in_block(
                    Arc::clone(&block),
                    span,
                    s.timestamp_us,
                    s.node_power_estimate(),
                )
            })
            .collect();
        assert_eq!(packed, records);
        for (p, r) in packed.iter().zip(&records) {
            assert!(Arc::ptr_eq(&p.block, &packed[0].block), "one block");
            assert_eq!(p.raw_json(), r.raw_json());
            assert_eq!(
                (p.cpu_total(), p.gpu_total(), p.mem_watts()),
                (r.cpu_total(), r.gpu_total(), r.mem_watts())
            );
            assert_eq!(p.sample(), r.sample());
        }
        let total: usize = records.iter().map(|r| r.block.len()).sum();
        assert_eq!(
            packed[0].block.len(),
            total,
            "nothing but the records' bytes"
        );
    }

    #[test]
    fn averages_and_max() {
        let jd = JobDataReply {
            job: JobId(0),
            name: "x".into(),
            start_us: 0,
            end_us: 10,
            nodes: vec![
                reply(vec![record(0, 100.0), record(2, 200.0)], true),
                reply(vec![record(0, 300.0), record(2, 400.0)], true),
            ],
        };
        assert_eq!(jd.average_node_power(), 250.0);
        assert_eq!(jd.max_node_power(), 400.0);
        // Cluster power per instant: t0 = 400, t2 = 600.
        assert_eq!(jd.max_cluster_power(), 600.0);
        assert_eq!(jd.sample_count(), 4);
        assert!(jd.all_complete());
    }

    #[test]
    fn request_topics_are_distinct_and_checked() {
        use fluxpm_flux::{Message, Rank};
        let req = MonitorRequest::NodeData(NodeDataRequest {
            start_us: 0,
            end_us: 1,
        });
        let msg = Message::request(Rank(0), Rank(1), req.topic(), req.clone().encode());
        assert_eq!(MonitorRequest::decode(&msg), Ok(req.clone()));
        // The same enum sent on a sibling topic is rejected.
        let wrong = Message::request(
            Rank(0),
            Rank(1),
            crate::node_agent::TOPIC_NODE_STATS,
            req.encode(),
        );
        let err = MonitorRequest::decode(&wrong).unwrap_err();
        assert!(err.reason.contains("carries"), "{err}");
        // Reply variants mirror the request topics.
        let reply = MonitorReply::NodeStats(NodeStats {
            hostname: "h".into(),
            samples: 0,
            mean_w: 0.0,
            max_w: 0.0,
            min_w: 0.0,
            complete: true,
        });
        assert_eq!(reply.topic(), crate::node_agent::TOPIC_NODE_STATS);
    }

    #[test]
    fn partial_detection() {
        let jd = JobDataReply {
            job: JobId(1),
            name: "x".into(),
            start_us: 0,
            end_us: 10,
            nodes: vec![reply(vec![], true), reply(vec![], false)],
        };
        assert!(!jd.all_complete());
        assert_eq!(jd.average_node_power(), 0.0);
        assert_eq!(jd.max_cluster_power(), 0.0);
    }
}
