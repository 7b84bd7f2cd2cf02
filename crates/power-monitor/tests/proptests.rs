//! Property-based tests for the monitor's data structures.

use fluxpm_flux::JobId;
use fluxpm_monitor::{
    AggregateFilter, NodeStats, PowerRecord, RelayDeltaBatch, RelayPlane, RingBuffer,
    SubscriptionFilter, SubtreeStats, TelemetryDelta,
};
use fluxpm_variorum::NodePowerSample;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// An operation against the ring buffer / model pair.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        9 => any::<u32>().prop_map(Op::Push),
        1 => Just(Op::Clear),
    ]
}

/// An operation against a sample ring as the FPP epoch loop drives it:
/// pushes, outage gaps (`note_loss`, as the node agent records while its
/// host is down), and fail/recover cycles that drop the buffered history.
#[derive(Debug, Clone)]
enum SampleOp {
    Push(f64),
    NoteLoss(u64),
    FailRecover,
}

fn sample_op_strategy() -> impl Strategy<Value = SampleOp> {
    prop_oneof![
        12 => (50.0f64..600.0).prop_map(SampleOp::Push),
        2 => (1u64..30).prop_map(SampleOp::NoteLoss),
        1 => Just(SampleOp::FailRecover),
    ]
}

/// Watts with exactly the three decimals the Variorum JSON carries.
fn milliwatts() -> impl Strategy<Value = f64> {
    (0u64..4_000_000).prop_map(|mw| mw as f64 / 1000.0)
}

/// A sample of either machine's shape: Lassen reports node and memory
/// power, two sockets and four GPUs; Tioga one socket, four OAM readings
/// and neither of the other two.
fn sample_strategy() -> impl Strategy<Value = NodePowerSample> {
    (
        any::<bool>(),
        0u64..1_000_000_000_000,
        prop::collection::vec(milliwatts(), 8),
    )
        .prop_map(|(lassen, timestamp_us, w)| {
            let sockets = if lassen { 2 } else { 1 };
            NodePowerSample {
                hostname: if lassen { "lassen12" } else { "tioga3" }.into(),
                timestamp_us,
                power_node_watts: lassen.then_some(w[0]),
                power_cpu_watts: w[1..1 + sockets].iter().copied().collect(),
                power_mem_watts: lassen.then_some(w[3]),
                power_gpu_watts: w[4..8].iter().copied().collect(),
            }
        })
}

fn stats_strategy() -> impl Strategy<Value = SubtreeStats> {
    (
        0usize..6,
        0.0f64..500.0,
        0.0f64..500.0,
        0.0f64..500.0,
        any::<bool>(),
    )
        .prop_map(|(samples, mean, a, b, complete)| {
            SubtreeStats::from_node(&NodeStats {
                hostname: "h".into(),
                samples,
                mean_w: mean,
                max_w: a.max(b),
                min_w: a.min(b),
                complete,
            })
        })
}

/// Approximate equality for merged summaries: the integer/bool/extremum
/// fields must match exactly; only `sum_w` (a float sum whose grouping
/// differs between the two merge orders) gets a tolerance — float
/// addition is not exactly associative.
fn assert_stats_close(x: SubtreeStats, y: SubtreeStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(x.nodes, y.nodes);
    prop_assert_eq!(x.samples, y.samples);
    prop_assert_eq!(x.max_w, y.max_w);
    prop_assert_eq!(x.min_w, y.min_w);
    prop_assert_eq!(x.all_complete, y.all_complete);
    let scale = x.sum_w.abs().max(y.sum_w.abs()).max(1.0);
    prop_assert!(
        (x.sum_w - y.sum_w).abs() <= 1e-9 * scale,
        "sum_w diverged: {} vs {}",
        x.sum_w,
        y.sum_w
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ring buffer never exceeds its capacity, keeps FIFO order, and
    /// retains exactly the newest elements; overwrite accounting is
    /// exact.
    #[test]
    fn ring_buffer_invariants(
        capacity in 1usize..64,
        pushes in prop::collection::vec(any::<u32>(), 0..300),
    ) {
        let mut r = RingBuffer::new(capacity);
        for &x in &pushes {
            r.push(x);
            prop_assert!(r.len() <= capacity);
        }
        prop_assert_eq!(r.total_pushed(), pushes.len() as u64);
        let expect_len = pushes.len().min(capacity);
        prop_assert_eq!(r.len(), expect_len);
        prop_assert_eq!(r.overwritten(), (pushes.len() - expect_len) as u64);

        // Contents are exactly the last `expect_len` pushes, in order.
        let got: Vec<u32> = r.iter().copied().collect();
        let want: Vec<u32> = pushes[pushes.len() - expect_len..].to_vec();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(r.oldest(), want.first());
        prop_assert_eq!(r.newest(), want.last());
    }

    /// A window query over stored records returns exactly the records a
    /// naive filter would, and completeness is flagged iff no record
    /// from the window start was lost.
    #[test]
    fn window_query_matches_naive_filter(
        capacity in 4usize..40,
        count in 1usize..120,
        start in 0u64..100,
        width in 1u64..60,
    ) {
        // Timestamps 0, 2, 4, ... (2 s cadence like the monitor).
        let mut r = RingBuffer::new(capacity);
        for i in 0..count {
            r.push((i as u64) * 2);
        }
        let end = start + width;
        let got: Vec<u64> = r
            .iter()
            .copied()
            .filter(|t| (start..=end).contains(t))
            .collect();
        // Naive: the retained window is the last `min(count, capacity)`
        // timestamps.
        let retained: Vec<u64> = (0..count)
            .map(|i| (i as u64) * 2)
            .skip(count.saturating_sub(capacity))
            .collect();
        let want: Vec<u64> = retained
            .iter()
            .copied()
            .filter(|t| (start..=end).contains(t))
            .collect();
        prop_assert_eq!(got, want);

        // Completeness rule (as the node agent computes it). The rule is
        // sound (complete => nothing in the window was lost) and may be
        // conservative: a window starting in the gap between the last
        // overwritten record and the oldest retained one is flagged
        // partial even though no in-window record was lost.
        let complete = match r.oldest() {
            Some(&oldest) => r.overwritten() == 0 || oldest <= start,
            None => false,
        };
        let lost_in_window = (0..count)
            .map(|i| (i as u64) * 2)
            .take(count.saturating_sub(capacity))
            .any(|t| t >= start);
        if complete {
            prop_assert!(!lost_in_window, "complete implies no loss in the window");
        }
        if r.overwritten() == 0 {
            prop_assert!(complete, "nothing lost implies complete");
        }
    }

    /// A retained record decodes, on demand, to the sample it was built
    /// from, and the numbers it keeps beside the JSON are the sample's
    /// own — bit for bit, since queries sum them.
    #[test]
    fn record_decodes_to_the_sample_it_stored(sample in sample_strategy()) {
        let record = PowerRecord::encode(&sample);
        let json = sample.to_json();
        prop_assert_eq!(record.raw_json(), json.as_bytes());
        prop_assert_eq!(record.stored_bytes(), json.len());
        prop_assert_eq!(record.timestamp_us(), sample.timestamp_us);
        prop_assert_eq!(
            record.node_power_estimate().to_bits(),
            sample.node_power_estimate().to_bits()
        );
        prop_assert_eq!(record.node_power_measured(), sample.power_node_watts.is_some());
        prop_assert_eq!(record.cpu_total().to_bits(), sample.cpu_total().to_bits());
        prop_assert_eq!(record.gpu_total().to_bits(), sample.gpu_total().to_bits());
        prop_assert_eq!(record.mem_watts(), sample.power_mem_watts);
        prop_assert_eq!(&record, &PowerRecord::new(sample.clone()));
        prop_assert_eq!(record.sample(), Some(sample.clone()));

        // The node power sits in the handle, not in the JSON's three
        // decimals: it keeps every bit of a finer value — measured
        // (Lassen) or summed from the components (Tioga).
        let mut finer = sample.clone();
        match &mut finer.power_node_watts {
            Some(w) => *w += 1e-7,
            None => finer.power_gpu_watts[0] += 1e-7,
        }
        let fine = PowerRecord::encode(&finer);
        prop_assert_eq!(fine.raw_json(), record.raw_json());
        prop_assert_eq!(
            fine.node_power_estimate().to_bits(),
            finer.node_power_estimate().to_bits()
        );
        prop_assert!(fine.node_power_estimate() != record.node_power_estimate());
        prop_assert!(fine != record, "equal JSON, different node power");
    }

    /// The ring buffer behaves exactly like a capacity-bounded `VecDeque`
    /// under arbitrary interleavings of pushes and clears — contents,
    /// order, endpoints, and the lifetime push counter all agree.
    #[test]
    fn ring_buffer_matches_vecdeque_model(
        capacity in 1usize..48,
        ops in prop::collection::vec(op_strategy(), 0..400),
    ) {
        let mut r = RingBuffer::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut pushed = 0u64;
        for op in &ops {
            match op {
                Op::Push(x) => {
                    let evicted = if model.len() == capacity {
                        model.pop_front()
                    } else {
                        None
                    };
                    model.push_back(*x);
                    pushed += 1;
                    prop_assert_eq!(r.push(*x), evicted);
                }
                Op::Clear => {
                    model.clear();
                    r.clear();
                }
            }
            prop_assert_eq!(r.len(), model.len());
            prop_assert!(r.len() <= capacity);
        }
        let got: Vec<u32> = r.iter().copied().collect();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(r.oldest(), model.front());
        prop_assert_eq!(r.newest(), model.back());
        prop_assert_eq!(r.is_empty(), model.is_empty());
        prop_assert_eq!(r.total_pushed(), pushed);
        prop_assert_eq!(r.capacity(), capacity);
    }

    /// The two-slice view is always exactly the iterated (copied)
    /// contents: chaining `as_slices().0 ++ as_slices().1` equals the
    /// `Vec` a copying reader would materialize, at every step of an
    /// arbitrary interleaving of pushes, `note_loss` gaps, and
    /// fail/recover cycles.
    #[test]
    fn as_slices_matches_copied_vec_under_churn(
        capacity in 1usize..48,
        ops in prop::collection::vec(sample_op_strategy(), 0..300),
    ) {
        let mut r = RingBuffer::new(capacity);
        for op in &ops {
            match op {
                SampleOp::Push(x) => {
                    r.push(*x);
                }
                SampleOp::NoteLoss(n) => r.note_loss(*n),
                SampleOp::FailRecover => r.clear(),
            }
            let copied: Vec<f64> = r.iter().copied().collect();
            let (a, b) = r.as_slices();
            let stitched: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(&stitched, &copied);
            prop_assert_eq!(a.len() + b.len(), r.len());
            // Run boundaries stay consistent with the endpoints.
            if !r.is_empty() {
                let first = if a.is_empty() { b[0] } else { a[0] };
                prop_assert_eq!(Some(&first), r.oldest());
                let last = if b.is_empty() { a[a.len() - 1] } else { b[b.len() - 1] };
                prop_assert_eq!(Some(&last), r.newest());
            }
        }
    }

    /// Analyzing the ring through the zero-copy view gives the same
    /// period estimate, bit for bit, as copying the samples out first —
    /// across wrap-around states produced by arbitrary churn. This is
    /// the contract the FPP hot path relies on when it reads each GPU's
    /// epoch through `as_slices()`.
    #[test]
    fn zero_copy_analysis_matches_copied_path(
        capacity in 16usize..128,
        warm_pushes in 0usize..200,
        period_samples in 4.0f64..20.0,
        gaps in prop::collection::vec((0usize..200, 1u64..10), 0..4),
    ) {
        use fluxpm_fft::{PeriodAnalyzer, Samples};

        let mut r = RingBuffer::new(capacity);
        // Pre-churn: misaligned pushes so the head lands anywhere.
        for i in 0..warm_pushes {
            r.push(i as f64);
        }
        // The epoch's real samples, with note_loss gaps interleaved (gaps
        // touch only the accounting, never the contents).
        let mut gap_iter = gaps.iter().peekable();
        for i in 0..capacity * 2 {
            if let Some((at, n)) = gap_iter.peek() {
                if *at == i {
                    r.note_loss(*n);
                    gap_iter.next();
                }
            }
            r.push(250.0 + 30.0 * (2.0 * std::f64::consts::PI * i as f64 / period_samples).sin());
        }

        let copied: Vec<f64> = r.iter().copied().collect();
        let (head, tail) = r.as_slices();
        let mut analyzer = PeriodAnalyzer::new();
        let via_view = analyzer.estimate_period(Samples::new(head, tail), 1.0);
        let via_copy = analyzer.estimate_period(Samples::contiguous(&copied), 1.0);
        prop_assert_eq!(via_view, via_copy);
    }

    /// `SubtreeStats::merge` is associative and commutative with `empty`
    /// as identity, over randomized summaries — the property the in-tree
    /// reduction relies on to merge child responses in arrival order.
    #[test]
    fn subtree_stats_merge_is_associative(
        a in stats_strategy(),
        b in stats_strategy(),
        c in stats_strategy(),
    ) {
        assert_stats_close(a.merge(b).merge(c), a.merge(b.merge(c)))?;
        assert_stats_close(a.merge(b), b.merge(a))?;
        let e = SubtreeStats::empty();
        prop_assert_eq!(a.merge(e), a);
        prop_assert_eq!(e.merge(a), a);
    }

    /// Folding a whole batch in any grouping yields the same summary as
    /// the canonical left fold — the tree can partition nodes into
    /// subtrees arbitrarily.
    #[test]
    fn subtree_stats_fold_is_grouping_independent(
        batch in prop::collection::vec(stats_strategy(), 1..12),
        split in any::<prop::sample::Index>(),
    ) {
        let whole = batch
            .iter()
            .copied()
            .fold(SubtreeStats::empty(), SubtreeStats::merge);
        let mid = split.index(batch.len());
        let left = batch[..mid]
            .iter()
            .copied()
            .fold(SubtreeStats::empty(), SubtreeStats::merge);
        let right = batch[mid..]
            .iter()
            .copied()
            .fold(SubtreeStats::empty(), SubtreeStats::merge);
        assert_stats_close(whole, left.merge(right))?;
    }
}

// ---------------------------------------------------------------------
// The relay's sharing rule against a model (DESIGN.md §13.3, §15)
// ---------------------------------------------------------------------

/// What one edge's subtree wants.
#[derive(Debug, Clone)]
enum Want {
    Everything,
    Nodes(Vec<u32>),
    Job(u64),
}

impl Want {
    fn aggregate(&self) -> AggregateFilter {
        let mut agg = AggregateFilter::empty();
        agg.insert(&match self {
            Want::Everything => SubscriptionFilter::all(),
            Want::Nodes(nodes) => SubscriptionFilter::all().with_nodes(nodes.clone()),
            Want::Job(job) => SubscriptionFilter::all().with_job(JobId(*job)),
        });
        agg
    }

    fn matches(&self, delta: &TelemetryDelta) -> bool {
        match self {
            Want::Everything => true,
            Want::Nodes(nodes) => nodes.contains(&delta.node),
            Want::Job(job) => delta.job == Some(JobId(*job)),
        }
    }
}

fn want_strategy() -> impl Strategy<Value = Want> {
    prop_oneof![
        3 => Just(Want::Everything),
        1 => prop::collection::vec(0u32..4, 1..4).prop_map(Want::Nodes),
        1 => (0u64..2).prop_map(Want::Job),
    ]
}

/// A tree of up to six relays: node `i > 0` hangs off `parents[i] % i`
/// and its parent's edge to it wants `wants[i]`.
#[derive(Debug, Clone)]
struct TreeSpec {
    parents: Vec<usize>,
    wants: Vec<Want>,
    cap: usize,
}

fn tree_strategy(want: impl Strategy<Value = Want>) -> impl Strategy<Value = TreeSpec> {
    (
        (2usize..7),
        prop::collection::vec(0usize..64, 7),
        prop::collection::vec(want, 7),
        0usize..4,
    )
        .prop_map(|(n, mut parents, mut wants, cap)| {
            parents.truncate(n);
            wants.truncate(n);
            TreeSpec {
                parents,
                wants,
                cap: [1, 2, 3, 8][cap],
            }
        })
}

#[derive(Debug, Clone)]
enum RelayStep {
    /// The root is handed `fresh` new deltas — (node, job) each — behind
    /// the last `stale` it was already handed.
    Publish {
        stale: usize,
        fresh: Vec<(u32, Option<u64>)>,
    },
    /// A seed raised one relay's high-water mark past the next `by`
    /// deltas: they will be skipped there when they arrive.
    Raise { at: usize, by: u64 },
    /// A delta for `node` was staged at one relay and not flushed.
    Leftover { at: usize, node: u32 },
}

fn relay_step_strategy() -> impl Strategy<Value = RelayStep> {
    let delta = (0u32..4, prop::option::of(0u64..2));
    prop_oneof![
        6 => (0usize..3, prop::collection::vec(delta, 1..4))
            .prop_map(|(stale, fresh)| RelayStep::Publish { stale, fresh }),
        1 => (0usize..64, 1u64..3).prop_map(|(at, by)| RelayStep::Raise { at, by }),
        1 => (0usize..64, 0u32..4).prop_map(|(at, node)| RelayStep::Leftover { at, node }),
    ]
}

/// The naive edge: a list, coalesced by rescanning it, no shortcuts.
#[derive(Debug)]
struct ModelEdge {
    child: usize,
    want: Want,
    staged: Vec<(u64, u32)>,
    shed: u64,
}

impl ModelEdge {
    fn stage(&mut self, delta: &TelemetryDelta, cap: usize) {
        if self.staged.len() >= cap {
            let before = self.staged.len();
            let all = self.staged.clone();
            let mut at = 0;
            self.staged.retain(|&(_, node)| {
                at += 1;
                !all[at..].iter().any(|&(_, later)| later == node)
            });
            self.shed += (before - self.staged.len()) as u64;
        }
        if self.staged.len() >= cap {
            self.staged.remove(0);
            self.shed += 1;
        }
        self.staged.push((delta.seq, delta.node));
    }
}

struct RelayNode {
    plane: RelayPlane,
    edges: Vec<ModelEdge>,
    next_ingest: u64,
}

/// A batch in the form it travels in: what a payload is to the relay.
type Wire = Rc<RelayDeltaBatch>;

struct RelayTreeModel {
    nodes: Vec<RelayNode>,
    cap: usize,
    next_seq: u64,
    handed: Vec<Arc<TelemetryDelta>>,
    /// Batches built (as opposed to passed on) so far.
    built: usize,
}

impl RelayTreeModel {
    fn new(spec: &TreeSpec) -> RelayTreeModel {
        let mut nodes: Vec<RelayNode> = (0..spec.parents.len())
            .map(|_| RelayNode {
                plane: RelayPlane::new(spec.cap),
                edges: Vec::new(),
                next_ingest: 0,
            })
            .collect();
        for child in 1..nodes.len() {
            let parent = &mut nodes[spec.parents[child] % child];
            let want = spec.wants[child].clone();
            parent.plane.set_child(child as u32, want.aggregate());
            parent.edges.push(ModelEdge {
                child,
                want,
                staged: Vec::new(),
                shed: 0,
            });
        }
        RelayTreeModel {
            nodes,
            cap: spec.cap,
            next_seq: 0,
            handed: Vec::new(),
            built: 0,
        }
    }

    fn stamp(&mut self, node: u32, job: Option<u64>) -> Arc<TelemetryDelta> {
        self.next_seq += 1;
        Arc::new(TelemetryDelta {
            seq: self.next_seq - 1,
            node,
            timestamp_us: self.next_seq,
            node_w: 1.0,
            job: job.map(JobId),
            link: None,
        })
    }

    /// Stage one delta at `at`, on the plane and on the model.
    fn offer(&mut self, at: usize, delta: &Arc<TelemetryDelta>) {
        let node = &mut self.nodes[at];
        node.plane.offer(delta);
        for edge in &mut node.edges {
            if edge.want.matches(delta) {
                edge.stage(delta, self.cap);
            }
        }
    }

    /// `TelemetryRelay::ingest` of the root agent's hand-offs at the
    /// root, then the end-of-instant flush. Returns what each child was
    /// sent.
    fn hand_off(
        &mut self,
        deltas: &[Arc<TelemetryDelta>],
    ) -> Result<Vec<(usize, Wire)>, TestCaseError> {
        for delta in deltas {
            if delta.seq < self.nodes[0].next_ingest {
                continue;
            }
            self.nodes[0].next_ingest = delta.seq + 1;
            self.offer(0, delta);
        }
        self.flush(0)
    }

    /// `TelemetryRelay::ingest` of a batch off the wire at relay `at`:
    /// what is staged there leaves first, then the batch is passed on,
    /// both checked edge by edge against the model. Returns what each
    /// child was sent.
    fn arrive(&mut self, at: usize, wire: &Wire) -> Result<Vec<(usize, Wire)>, TestCaseError> {
        let mut sent = if self.nodes[at].edges.iter().any(|e| !e.staged.is_empty()) {
            self.flush(at)?
        } else {
            Vec::new()
        };
        let cap = self.cap;
        let node = &mut self.nodes[at];
        let skip = wire.deltas.partition_point(|d| d.seq < node.next_ingest);
        for delta in &wire.deltas[skip..] {
            node.next_ingest = delta.seq + 1;
            for edge in &mut node.edges {
                if edge.want.matches(delta) {
                    edge.stage(delta, cap);
                }
            }
        }
        let mut passed: Vec<(usize, Wire)> = Vec::new();
        let mut built = 0;
        node.plane.pass_on(
            wire,
            wire,
            skip,
            |batch| {
                built += 1;
                Rc::new(batch)
            },
            |child, wire| passed.push((child as usize, wire)),
        );
        self.check(at, &passed, Some(wire), built)?;
        sent.extend(passed);
        Ok(sent)
    }

    /// `TelemetryRelay::flush` at relay `at`, checked edge by edge
    /// against the model. Returns what each child was sent.
    fn flush(&mut self, at: usize) -> Result<Vec<(usize, Wire)>, TestCaseError> {
        let mut sent: Vec<(usize, Wire)> = Vec::new();
        let mut built = 0;
        self.nodes[at].plane.flush_with(
            |batch| {
                built += 1;
                Rc::new(batch)
            },
            |child, wire| sent.push((child as usize, wire)),
        );
        self.check(at, &sent, None, built)?;
        Ok(sent)
    }

    /// Whether what relay `at` just `sent`, having built `built` batches
    /// and been handed `arrived`, is what the naive edges staged.
    fn check(
        &mut self,
        at: usize,
        sent: &[(usize, Wire)],
        arrived: Option<&Wire>,
        built: usize,
    ) -> Result<(), TestCaseError> {
        self.built += built;
        // By value, every edge says what the naive edge says (the model
        // holds a relay's edges in child order, as the plane does).
        let want: Vec<(usize, Vec<u64>, u64)> = self.nodes[at]
            .edges
            .iter_mut()
            .filter(|e| !e.staged.is_empty())
            .map(|e| {
                let seqs = e.staged.drain(..).map(|(seq, _)| seq).collect();
                (e.child, seqs, e.shed)
            })
            .collect();
        let got: Vec<(usize, Vec<u64>, u64)> = sent
            .iter()
            .map(|(c, w)| (*c, w.deltas.iter().map(|d| d.seq).collect(), w.shed))
            .collect();
        prop_assert_eq!(&got, &want, "relay {} sent", at);
        // One allocation, one value — and nothing was built that could
        // have been passed on.
        let mut distinct: Vec<&Wire> = arrived.into_iter().collect();
        for (_, wire) in sent {
            if !distinct.iter().any(|w| Rc::ptr_eq(w, wire)) {
                prop_assert!(!distinct.last().is_some_and(|w| ***w == **wire));
                distinct.push(wire);
            }
        }
        prop_assert_eq!(distinct.len(), built + arrived.iter().count());
        Ok(())
    }

    /// Hand `deltas` to the root and run the batches down the tree.
    fn publish(&mut self, deltas: &[Arc<TelemetryDelta>]) -> Result<Vec<Wire>, TestCaseError> {
        let mut all = Vec::new();
        let mut queue: VecDeque<(usize, Wire)> = self.hand_off(deltas)?.into();
        while let Some((at, wire)) = queue.pop_front() {
            queue.extend(self.arrive(at, &wire)?);
            all.push(wire);
        }
        Ok(all)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mixed aggregates, tight batches, stale and skipped deltas,
    /// leftovers: whatever an edge is sent equals what the naive edge
    /// would have built, `shed` included, and two edges are sent one
    /// allocation only when that is also one value.
    #[test]
    fn relayed_batches_match_the_naive_model(
        spec in tree_strategy(want_strategy()),
        steps in prop::collection::vec(relay_step_strategy(), 1..24),
    ) {
        let mut tree = RelayTreeModel::new(&spec);
        for step in steps {
            match step {
                RelayStep::Publish { stale, fresh } => {
                    let keep = tree.handed.len().saturating_sub(stale);
                    let mut deltas = tree.handed.split_off(keep);
                    for (node, job) in fresh {
                        deltas.push(tree.stamp(node, job));
                    }
                    tree.publish(&deltas)?;
                    tree.handed = deltas;
                }
                RelayStep::Raise { at, by } => {
                    let at = at % tree.nodes.len();
                    let mark = &mut tree.nodes[at].next_ingest;
                    *mark = (*mark).max(tree.next_seq + by);
                }
                RelayStep::Leftover { at, node } => {
                    let at = at % tree.nodes.len();
                    let delta = tree.stamp(node, None);
                    tree.offer(at, &delta);
                }
            }
        }
    }

    /// Match-everything edges and room in the batch: however the tree is
    /// shaped and however many deltas are handed over at once, a publish
    /// builds one batch — at the root — and every relay below passes on
    /// the one it was handed.
    #[test]
    fn a_publish_through_match_everything_edges_builds_one_batch(
        spec in tree_strategy(Just(Want::Everything)),
        publishes in prop::collection::vec(1usize..4, 1..8),
    ) {
        let mut tree = RelayTreeModel::new(&TreeSpec { cap: 8, ..spec });
        for (round, fresh) in publishes.into_iter().enumerate() {
            let deltas: Vec<_> = (0..fresh).map(|i| tree.stamp(i as u32, None)).collect();
            let sent = tree.publish(&deltas)?;
            prop_assert_eq!(sent.len(), tree.nodes.len() - 1, "one message per edge");
            prop_assert!(sent.iter().all(|w| Rc::ptr_eq(w, &sent[0])));
            prop_assert_eq!(sent[0].deltas.len(), fresh);
            prop_assert_eq!(tree.built, round + 1);
        }
    }
}
