//! Run reports: everything an experiment needs to print a paper table or
//! figure series.

use fluxpm_flux::{JobState, World};
use fluxpm_hw::SensorReading;
use fluxpm_variorum::NodePowerSample;
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-job results.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job id within the run.
    pub id: u64,
    /// Application name.
    pub name: String,
    /// Node count.
    pub nnodes: u32,
    /// Indices of the allocated nodes.
    pub nodes: Vec<usize>,
    /// Submission time (s).
    pub submit_s: f64,
    /// Start time (s).
    pub start_s: f64,
    /// End time (s).
    pub end_s: f64,
    /// Execution time (s).
    pub runtime_s: f64,
    /// Average telemetry-derived node power over the job window (W).
    pub avg_node_power_w: f64,
    /// Maximum single-node power sample in the window (W).
    pub max_node_power_w: f64,
    /// Average per-node energy over the window (kJ), from telemetry —
    /// the same estimate the paper's tables report.
    pub energy_per_node_kj: f64,
}

/// The full result of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario label (policy name etc.).
    pub label: String,
    /// Per-job results, in submission order.
    pub jobs: Vec<JobResult>,
    /// Queue makespan (s).
    pub makespan_s: f64,
    /// Peak cluster power across sample instants (W).
    pub cluster_max_w: f64,
    /// Average cluster power over the run (W).
    pub cluster_avg_w: f64,
    /// Timeline sampling period (s).
    pub sample_period_s: f64,
    /// Every node's sensor scans (telemetry view: Tioga omits
    /// node/memory).
    pub timeline: Timeline,
}

impl RunReport {
    /// Collect results from a finished world.
    pub fn collect(
        world: &World,
        label: String,
        sample_period_s: f64,
        timeline: Timeline,
    ) -> RunReport {
        let mut jobs = Vec::new();
        for job in world.jobs.all() {
            debug_assert_eq!(job.state, JobState::Completed);
            let start_s = job.started_at.map(|t| t.as_secs_f64()).unwrap_or(0.0);
            let end_s = job.finished_at.map(|t| t.as_secs_f64()).unwrap_or(start_s);
            let nodes: Vec<usize> = job.nodes.iter().map(|n| n.index()).collect();
            // Telemetry-derived stats over the job window.
            let mut sum = 0.0;
            let mut count = 0usize;
            let mut max = 0.0f64;
            for &ni in &nodes {
                for (timestamp_us, p) in timeline.node_power(ni) {
                    let t = timestamp_us as f64 / 1e6;
                    if t >= start_s && t <= end_s {
                        sum += p;
                        count += 1;
                        max = max.max(p);
                    }
                }
            }
            let avg = if count == 0 { 0.0 } else { sum / count as f64 };
            let runtime_s = end_s - start_s;
            jobs.push(JobResult {
                id: job.id.0,
                name: job.spec.name.clone(),
                nnodes: job.spec.nnodes,
                nodes,
                submit_s: job.submitted_at.as_secs_f64(),
                start_s,
                end_s,
                runtime_s,
                avg_node_power_w: avg,
                max_node_power_w: max,
                energy_per_node_kj: avg * runtime_s / 1e3,
            });
        }

        // Cluster power per scan, summed in node order.
        let mut per_instant = vec![0.0; timeline.timestamps_us.len()];
        for node in 0..timeline.node_count() {
            for (sum, (_, p)) in per_instant.iter_mut().zip(timeline.node_power(node)) {
                *sum += p;
            }
        }
        let cluster_max_w = per_instant.iter().copied().fold(0.0, f64::max);
        let cluster_avg_w = if per_instant.is_empty() {
            0.0
        } else {
            per_instant.iter().sum::<f64>() / per_instant.len() as f64
        };

        RunReport {
            label,
            jobs,
            makespan_s: world.jobs.makespan_seconds().unwrap_or(0.0),
            cluster_max_w,
            cluster_avg_w,
            sample_period_s,
            timeline,
        }
    }

    /// The result for the first job with the given app name.
    pub fn job(&self, name: &str) -> Option<&JobResult> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Per-component averages over one job's window on its nodes:
    /// `(node, cpu, mem, gpu)` watts. Components the machine cannot
    /// measure come back as 0 (Tioga's node value is the conservative
    /// estimate).
    pub fn component_averages(&self, job: &JobResult) -> (f64, f64, f64, f64) {
        let mut node = 0.0;
        let mut cpu = 0.0;
        let mut mem = 0.0;
        let mut gpu = 0.0;
        let mut n = 0usize;
        for &ni in &job.nodes {
            for s in self.timeline.node(ni) {
                let t = s.timestamp_us as f64 / 1e6;
                if t >= job.start_s && t <= job.end_s {
                    node += s.node_power_estimate();
                    cpu += s.cpu_total();
                    mem += s.power_mem_watts.unwrap_or(0.0);
                    gpu += s.gpu_total();
                    n += 1;
                }
            }
        }
        if n == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let k = n as f64;
        (node / k, cpu / k, mem / k, gpu / k)
    }

    /// Render one node's timeline as CSV (`t_s,node_w,cpu_w,mem_w,gpu_w`).
    pub fn node_timeline_csv(&self, node: usize) -> String {
        let mut out = String::from("t_s,node_w,cpu_w,mem_w,gpu_w\n");
        for s in self.timeline.node(node) {
            let _ = writeln!(
                out,
                "{:.1},{:.1},{:.1},{:.1},{:.1}",
                s.timestamp_us as f64 / 1e6,
                s.node_power_estimate(),
                s.cpu_total(),
                s.power_mem_watts.unwrap_or(0.0),
                s.gpu_total(),
            );
        }
        out
    }

    /// Render the per-job summary as CSV.
    pub fn jobs_csv(&self) -> String {
        let mut out = String::from(
            "label,job,app,nnodes,submit_s,start_s,end_s,runtime_s,avg_node_w,max_node_w,energy_per_node_kj\n",
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.1},{:.1},{:.1},{:.2},{:.1},{:.1},{:.2}",
                self.label,
                j.id,
                j.name,
                j.nnodes,
                j.submit_s,
                j.start_s,
                j.end_s,
                j.runtime_s,
                j.avg_node_power_w,
                j.max_node_power_w,
                j.energy_per_node_kj,
            );
        }
        out
    }
}

/// The run's sensor scans, held as columns: one timestamp per scan,
/// shared by every node, and per node a run of values, the same count
/// each scan, in chunks of 64 scans.
///
/// A node's values are laid out scan after scan in the order of a
/// [`NodePowerSample`]: the node reading (if the node has one), one per
/// socket, memory (if it has one), one per GPU group. How many of each
/// is the node's *shape*, fixed by its first reading. A Lassen scan is
/// therefore 8 values, 64 bytes, where a [`NodePowerSample`] is 200.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// When each scan was taken (µs on the simulation clock).
    timestamps_us: Vec<u64>,
    /// One column per node, in node order.
    nodes: Vec<NodeColumn>,
}

/// Scans per chunk of a node's column. A column grows a chunk at a
/// time, so it never copies what it holds and keeps at most one chunk's
/// spare room (4 KiB for a Lassen node) where a doubling `Vec` kept up to
/// half of all it held.
const CHUNK_SCANS: usize = 64;

/// One node's scans.
#[derive(Debug, Clone, PartialEq)]
struct NodeColumn {
    hostname: Arc<str>,
    /// What each of the node's readings holds; `None` until the first.
    shape: Option<Shape>,
    /// `shape.width()` values per scan, [`CHUNK_SCANS`] scans per chunk:
    /// scan `k` is in chunk `k / CHUNK_SCANS`.
    chunks: Vec<Vec<f64>>,
}

/// Which values a node's sensor reading holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Shape {
    node: bool,
    sockets: usize,
    memory: bool,
    gpus: usize,
}

impl Shape {
    fn of(r: &SensorReading) -> Shape {
        Shape {
            node: r.node.is_some(),
            sockets: r.cpu.len(),
            memory: r.memory.is_some(),
            gpus: r.gpu.len(),
        }
    }

    /// Values per scan.
    fn width(self) -> usize {
        usize::from(self.node) + self.sockets + usize::from(self.memory) + self.gpus
    }

    /// The node power a client reports from one scan's values, by the
    /// same expression as [`NodePowerSample::node_power_estimate`].
    fn node_power(self, scan: &[f64]) -> f64 {
        if self.node {
            return scan[0];
        }
        let (cpu, rest) = scan.split_at(self.sockets);
        let gpu = &rest[usize::from(self.memory)..];
        cpu.iter().sum::<f64>() + gpu.iter().sum::<f64>()
    }
}

impl Timeline {
    /// An empty timeline for nodes with these hostnames, in node order.
    pub(crate) fn new(hostnames: impl IntoIterator<Item = Arc<str>>) -> Timeline {
        Timeline {
            timestamps_us: Vec::new(),
            nodes: hostnames
                .into_iter()
                .map(|hostname| NodeColumn {
                    hostname,
                    shape: None,
                    chunks: Vec::new(),
                })
                .collect(),
        }
    }

    /// Append one scan: a reading for every node, in node order.
    ///
    /// Panics when the readings do not cover every node, or when a
    /// node's reading holds other values than its first one did.
    pub(crate) fn record(
        &mut self,
        timestamp_us: u64,
        readings: impl IntoIterator<Item = SensorReading>,
    ) {
        let new_chunk = self.timestamps_us.len().is_multiple_of(CHUNK_SCANS);
        self.timestamps_us.push(timestamp_us);
        let mut count = 0;
        for (column, r) in self.nodes.iter_mut().zip(readings) {
            let shape = Shape::of(&r);
            let first = *column.shape.get_or_insert(shape);
            assert!(
                first == shape,
                "{}: a reading's shape changed mid-run, from {first:?} to {shape:?}",
                column.hostname
            );
            if new_chunk {
                column
                    .chunks
                    .push(Vec::with_capacity(CHUNK_SCANS * shape.width()));
            }
            // invariant: the first scan opens a chunk.
            let values = column.chunks.last_mut().expect("a chunk per scan");
            values.extend(r.node.map(|w| w.get()));
            values.extend(r.cpu.iter().map(|w| w.get()));
            values.extend(r.memory.map(|w| w.get()));
            values.extend(r.gpu.iter().map(|w| w.get()));
            count += 1;
        }
        assert_eq!(count, self.nodes.len(), "a scan reads every node");
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node `i`'s samples, oldest first, each rebuilt from its column.
    pub fn node(&self, i: usize) -> impl ExactSizeIterator<Item = NodePowerSample> + '_ {
        let column = &self.nodes[i];
        let shape = column.shape.unwrap_or_default();
        self.scans(column).map(move |(timestamp_us, scan)| {
            let (node, rest) = scan.split_at(usize::from(shape.node));
            let (cpu, rest) = rest.split_at(shape.sockets);
            let (memory, gpu) = rest.split_at(usize::from(shape.memory));
            NodePowerSample {
                hostname: Arc::clone(&column.hostname),
                timestamp_us,
                power_node_watts: node.first().copied(),
                power_cpu_watts: cpu.iter().copied().collect(),
                power_mem_watts: memory.first().copied(),
                power_gpu_watts: gpu.iter().copied().collect(),
            }
        })
    }

    /// Node `i`'s `(timestamp_us, node power estimate)` per scan.
    fn node_power(&self, i: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let column = &self.nodes[i];
        let shape = column.shape.unwrap_or_default();
        self.scans(column)
            .map(move |(timestamp_us, scan)| (timestamp_us, shape.node_power(scan)))
    }

    /// A column's values cut into scans, each with its timestamp.
    fn scans<'a>(
        &'a self,
        column: &'a NodeColumn,
    ) -> impl ExactSizeIterator<Item = (u64, &'a [f64])> + 'a {
        // A node has a shape from the first scan on: with no scan there
        // is nothing to cut.
        let width = column.shape.unwrap_or_default().width();
        self.timestamps_us.iter().enumerate().map(move |(k, &t)| {
            let at = k % CHUNK_SCANS * width;
            (t, &column.chunks[k / CHUNK_SCANS][at..at + width])
        })
    }
}

/// A minimal fixed-width markdown table builder used by the experiment
/// printers.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Render as aligned markdown.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ");
            format!("| {body} |")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep = (0..cols)
            .map(|i| "-".repeat(widths[i]))
            .collect::<Vec<_>>()
            .join("-|-");
        let _ = writeln!(out, "|-{sep}-|");
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["app", "runtime"]);
        t.row(vec!["GEMM".into(), "548".into()]);
        t.row(vec!["Quicksilver".into(), "348".into()]);
        let s = t.render();
        assert!(s.contains("| app         | runtime |"));
        assert!(s.lines().count() == 4);
        let widths: Vec<usize> = s.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "aligned: {s}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_arity() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }
}

#[cfg(test)]
mod report_tests {
    use crate::scenario::{JobRequest, Scenario};
    use fluxpm_hw::MachineKind;

    fn tiny_report() -> crate::RunReport {
        Scenario::new(MachineKind::Lassen, 2)
            .with_label("report-test")
            .with_job(JobRequest::new("Laghos", 1).with_work_seconds(20.0))
            .run()
    }

    #[test]
    fn jobs_csv_shape() {
        let r = tiny_report();
        let csv = r.jobs_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("label,job,app,nnodes"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("report-test,0,Laghos,1,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn node_timeline_csv_shape() {
        let r = tiny_report();
        let node = r.jobs[0].nodes[0];
        let csv = r.node_timeline_csv(node);
        assert!(csv.starts_with("t_s,node_w,cpu_w,mem_w,gpu_w\n"));
        // ~10 samples over a 20 s job at 2 s cadence.
        assert!(csv.lines().count() >= 9, "{}", csv.lines().count());
        // A busy Laghos sample reads ~490 W.
        let sample_line = csv.lines().nth(2).unwrap();
        let node_w: f64 = sample_line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((node_w - 490.0).abs() < 30.0, "{node_w}");
    }

    #[test]
    fn component_averages_sum_to_estimate() {
        let r = tiny_report();
        let job = r.jobs[0].clone();
        let (node, cpu, mem, gpu) = r.component_averages(&job);
        // Lassen measures node power directly (incl. "other"), so the
        // direct reading exceeds the cpu+mem+gpu sum by ~40 W.
        let parts = cpu + mem + gpu;
        assert!(node > parts, "direct {node} > parts {parts}");
        assert!((node - parts - 40.0).abs() < 15.0, "other ~40 W");
    }

    #[test]
    fn job_lookup_by_name() {
        let r = tiny_report();
        assert!(r.job("Laghos").is_some());
        assert!(r.job("GEMM").is_none());
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::{Timeline, CHUNK_SCANS};
    use fluxpm_hw::{lassen, tioga, NodeArch, NodeHardware, NodeId, SensorReading};
    use fluxpm_variorum::NodePowerSample;
    use std::sync::Arc;

    /// `scans` sensor scans of one node of `arch` (with sensor noise, so
    /// every value differs).
    fn readings(arch: NodeArch, scans: usize) -> Vec<SensorReading> {
        let mut node = NodeHardware::new(NodeId(0), arch, 3);
        (0..scans).map(|_| node.read_sensors()).collect()
    }

    /// A Lassen node and a Tioga node, `scans` scans 2 s apart.
    fn two_nodes(scans: usize) -> (Timeline, [Vec<SensorReading>; 2]) {
        let nodes = [readings(lassen(), scans), readings(tioga(), scans)];
        let mut timeline = Timeline::new(["lassen1", "tioga1"].map(Arc::from));
        for (k, (&a, &b)) in nodes[0].iter().zip(&nodes[1]).enumerate() {
            timeline.record(2_000_000 * (k as u64 + 1), [a, b]);
        }
        (timeline, nodes)
    }

    #[test]
    fn samples_come_back_as_built_from_the_readings() {
        let (timeline, nodes) = two_nodes(5);
        assert_eq!(timeline.node_count(), 2);
        for (i, (hostname, node)) in ["lassen1", "tioga1"].iter().zip(&nodes).enumerate() {
            let want: Vec<NodePowerSample> = node
                .iter()
                .enumerate()
                .map(|(k, r)| {
                    NodePowerSample::from_reading(hostname, 2_000_000 * (k as u64 + 1), r)
                })
                .collect();
            let got: Vec<NodePowerSample> = timeline.node(i).collect();
            assert_eq!(got, want, "{hostname}");
        }
        // Tioga: no node or memory value, four OAM groups.
        let tioga = timeline.node(1).next().unwrap();
        assert_eq!(
            (tioga.power_node_watts, tioga.power_mem_watts),
            (None, None)
        );
        assert_eq!(tioga.power_gpu_watts.len(), 4);
    }

    #[test]
    fn a_lassen_scan_is_eight_values_and_one_timestamp() {
        let (timeline, _) = two_nodes(7);
        assert_eq!(timeline.timestamps_us.len(), 7);
        let values = |i: usize| timeline.nodes[i].chunks.iter().map(Vec::len).sum::<usize>();
        assert_eq!(values(0), 7 * 8, "Lassen");
        // Tioga: one socket and four OAM groups.
        assert_eq!(values(1), 7 * 5, "Tioga");
    }

    #[test]
    fn a_column_grows_a_chunk_at_a_time_and_never_moves() {
        let scans = 2 * CHUNK_SCANS + 3;
        let (timeline, nodes) = two_nodes(scans);
        for (i, width) in [(0, 8), (1, 5)] {
            let chunks = &timeline.nodes[i].chunks;
            assert_eq!(chunks.len(), 3);
            assert!(chunks.iter().all(|c| c.capacity() == CHUNK_SCANS * width));
            assert_eq!(chunks[2].len(), 3 * width, "the last chunk holds the rest");
        }
        // Scans read back across chunk ends as they were recorded.
        let got: Vec<NodePowerSample> = timeline.node(0).collect();
        for (k, (sample, r)) in got.iter().zip(&nodes[0]).enumerate() {
            let want = NodePowerSample::from_reading("lassen1", 2_000_000 * (k as u64 + 1), r);
            assert_eq!(*sample, want, "scan {k}");
        }
        // A new chunk leaves the ones before it where they were.
        let mut timeline = Timeline::new([Arc::from("lassen1")]);
        let lassen = readings(lassen(), CHUNK_SCANS + 1);
        timeline.record(0, [lassen[0]]);
        let first = timeline.nodes[0].chunks[0].as_ptr();
        for (k, &r) in lassen.iter().enumerate().skip(1) {
            timeline.record(k as u64, [r]);
        }
        assert_eq!(timeline.nodes[0].chunks.len(), 2);
        assert_eq!(timeline.nodes[0].chunks[0].as_ptr(), first);
    }

    #[test]
    fn node_power_is_the_sample_estimate() {
        let (timeline, _) = two_nodes(4);
        for i in 0..timeline.node_count() {
            for ((t, p), s) in timeline.node_power(i).zip(timeline.node(i)) {
                assert_eq!(t, s.timestamp_us);
                assert_eq!(p.to_bits(), s.node_power_estimate().to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "lassen1: a reading's shape changed mid-run")]
    fn a_reading_that_changes_shape_is_refused() {
        let mut timeline = Timeline::new([Arc::from("lassen1")]);
        let first = readings(lassen(), 1)[0];
        timeline.record(2_000_000, [first]);
        let no_memory = SensorReading {
            memory: None,
            ..first
        };
        timeline.record(4_000_000, [no_memory]);
    }

    #[test]
    #[should_panic(expected = "a scan reads every node")]
    fn a_scan_that_misses_a_node_is_refused() {
        let mut timeline = Timeline::new(["a", "b"].map(Arc::from));
        timeline.record(2_000_000, readings(lassen(), 1));
    }
}
