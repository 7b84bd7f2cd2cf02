//! Every name the benchmark prints, in one place. `BENCHMARK.json` lists
//! the same names; `tests/check.rs` fails if the two drift apart.

/// An end-to-end metric: what a user of the stack would see. All are
/// "lower is better"; `bound` is the share of the parent's median by
/// which a change may worsen it. `wall_s` and `cpu_s` are yardstick
/// seconds ([`crate::yardstick`]); `setup_s` and `peak_rss_mb` are as
/// read. How each is taken from a run's samples: `Measured::rows`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

impl EndToEnd {
    /// The widest gap `selftest` accepts between two series of runs of
    /// the same code: half the bound, so that a change has the other half
    /// to show in. `setup_s` gets its whole bound, which is also all the
    /// pipeline asks of it: it is one cold start per child, with no
    /// second sample to take inside the process and no yardstick that
    /// faults pages in the way a cold start does.
    pub fn noise_limit(&self) -> f64 {
        if self.name == "setup_s" {
            self.bound
        } else {
            self.bound / 2.0
        }
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
    },
];

/// A per-layer metric of the traced pass.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Counts and ratios where more is better; everything else is a
    /// cost.
    pub higher_is_better: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

/// In the order the table prints them: layer by layer, down the stack.
pub const PER_LAYER: [Layer; 65] = [
    // harness
    cost("harness.build_s", "s"),
    cost("harness.run_s", "s"),
    cost("harness.collect_s", "s"),
    cost("harness.warmup_s", "s"),
    cost("harness.trace_overhead_frac", "ratio"),
    cost("harness.alloc_count", "count"),
    cost("harness.alloc_mb", "MiB"),
    cost("harness.steal_frac", "ratio"),
    // sim-core engine, and the simulated outcome it produced
    cost("sim.events", "count"),
    cost("sim.ns_per_event", "ns"),
    cost("sim.engine_op_ns", "ns"),
    cost("sim.pending_peak", "count"),
    cost("sim.makespan_s", "s"),
    cost("sim.energy_per_node_kj", "kJ"),
    cost("attrib.engine_frac", "ratio"),
    // sim-core::sharded
    cost("sharded.windows", "count"),
    cost("sharded.coord_frac", "ratio"),
    cost("sharded.s2_wall_ratio", "ratio"),
    cost("sharded.s2_boundary_msgs", "count"),
    cost("sharded.s2_busy_max_frac", "ratio"),
    // flux world / tbon
    cost("flux.msgs_delivered", "count"),
    cost("flux.hop_ns", "ns"),
    cost("flux.hop_congested_ns", "ns"),
    cost("flux.rpc_timeouts", "count"),
    cost("flux.rpc_retries", "count"),
    cost("flux.fault_drops", "count"),
    cost("flux.congestion_drops", "count"),
    cost("flux.reparents", "count"),
    cost("flux.topology_epoch", "count"),
    cost("flux.trace_lines", "count"),
    cost("flux.jobs_failed", "count"),
    cost("flux.world_build_us_per_rank", "us"),
    cost("attrib.delivery_frac", "ratio"),
    // flux::state
    cost("state.appends", "count"),
    cost("state.snapshots", "count"),
    cost("state.append_ns", "ns"),
    cost("attrib.statelog_frac", "ratio"),
    // power-monitor, node side
    cost("monitor.sample_ns", "ns"),
    cost("monitor.overhead_host_frac", "ratio"),
    cost("monitor.overhead_sim_pct", "%"),
    // power-monitor, push plane
    cost("monitor.pushes_received", "count"),
    cost("monitor.hub_published", "count"),
    cost("monitor.relay_egress_msgs", "count"),
    cost("monitor.relay_egress_per_delta", "ratio"),
    Layer {
        name: "monitor.poll_deliveries",
        unit: "count",
        higher_is_better: true,
    },
    cost("monitor.sub_dropped", "count"),
    cost("monitor.fanout_ns_per_delivery", "ns"),
    cost("attrib.fanout_frac", "ratio"),
    // power-monitor, pull plane
    Layer {
        name: "monitor.queries_served",
        unit: "count",
        higher_is_better: true,
    },
    cost("monitor.query_host_us", "us"),
    cost("monitor.query_latency_p95_us", "us"),
    cost("monitor.reply_samples", "count"),
    // power-manager
    cost("manager.cluster_peak_frac", "ratio"),
    cost("manager.fpp_host_frac", "ratio"),
    cost("manager.fpp_epoch_ns", "ns"),
    // fft
    cost("fft.estimate_ns", "ns"),
    // variorum
    cost("variorum.json_decodes", "count"),
    cost("variorum.to_json_ns", "ns"),
    cost("variorum.from_json_ns", "ns"),
    cost("attrib.json_frac", "ratio"),
    // hw-models / workloads
    cost("hw.tick_ns", "ns"),
    cost("hw.read_sensors_ns", "ns"),
    cost("hw.ticks", "count"),
    cost("attrib.hw_frac", "ratio"),
    // whole
    cost("attrib.unattributed_frac", "ratio"),
];
