//! The three Variorum entry points used by the Flux power modules.

use crate::error::VariorumError;
use crate::json::NodePowerSample;
use fluxpm_hw::{CapOutcome, NodeHardware, SensorReadCost, Watts};

/// Static power-domain capabilities, as `variorum_get_node_power_domain_info`
/// would report them.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDomainInfo {
    /// Whether a direct node-power dial exists (IBM) or node capping is
    /// best-effort (Intel/AMD).
    pub direct_node_cap: bool,
    /// Whether per-GPU capping is available.
    pub gpu_cap: bool,
    /// Whether capping is enabled for users at all.
    pub capping_enabled: bool,
    /// Node cap settable range, if node capping exists.
    pub node_cap_range: Option<(f64, f64)>,
    /// GPU cap settable range.
    pub gpu_cap_range: (f64, f64),
    /// Number of GPU devices.
    pub num_gpus: usize,
    /// Number of CPU sockets.
    pub num_sockets: usize,
}

/// `variorum_get_node_power_domain_info` — describe what this node's
/// power domains can do.
pub fn get_node_power_domain_info(node: &NodeHardware) -> PowerDomainInfo {
    let c = &node.arch.capping;
    PowerDomainInfo {
        direct_node_cap: c.node_cap,
        gpu_cap: c.gpu_cap,
        capping_enabled: c.user_enabled,
        node_cap_range: c
            .node_cap
            .then(|| (c.min_node_cap.get(), c.max_node_cap.get())),
        gpu_cap_range: (c.min_gpu_cap.get(), c.max_gpu_cap.get()),
        num_gpus: node.arch.gpus,
        num_sockets: node.arch.sockets,
    }
}

/// `variorum_get_node_power_json` — vendor-neutral telemetry.
///
/// Returns the sample plus the host-CPU cost the read incurred; callers
/// that model overhead (the monitor) charge that cost to the co-located
/// application.
pub fn get_node_power_json(
    node: &mut NodeHardware,
    hostname: &str,
    timestamp_us: u64,
) -> (NodePowerSample, SensorReadCost) {
    let mut sample = NodePowerSample {
        hostname: hostname.into(),
        ..NodePowerSample::default()
    };
    let cost = get_node_power_json_into(node, timestamp_us, &mut sample);
    (sample, cost)
}

/// [`get_node_power_json`] into a sample the caller already owns: the
/// measurements are overwritten in place ([`NodePowerSample::refill`];
/// the hostname is the caller's), so a sampler that takes a reading
/// every tick allocates nothing here.
pub fn get_node_power_json_into(
    node: &mut NodeHardware,
    timestamp_us: u64,
    sample: &mut NodePowerSample,
) -> SensorReadCost {
    let cost = node.sensors.read_cost();
    sample.refill(timestamp_us, &node.read_sensors());
    cost
}

/// `variorum_cap_best_effort_node_power_limit` — node-level capping.
///
/// On IBM AC922 this sets the OPAL node cap directly (and OPAL in turn
/// derives conservative GPU caps). On platforms without a node dial,
/// Variorum distributes the budget uniformly across sockets as CPU caps —
/// but on Tioga capping is administratively disabled, so this errors.
///
/// Returns the node cap actually in force (OPAL clamps into its settable
/// range rather than erroring).
pub fn cap_best_effort_node_power_limit(
    node: &mut NodeHardware,
    limit: Watts,
) -> Result<Watts, VariorumError> {
    if limit.get() <= 0.0 {
        return Err(VariorumError::InvalidPowerLimit);
    }
    Ok(node.set_node_cap(limit)?)
}

/// Cap a single GPU (the NVML path the paper's FPP uses for per-GPU,
/// non-uniform capping; Variorum proper exposes the uniform
/// `cap_each_gpu_power_limit`, with device-level dials reached through
/// NVML — modelled here as one call).
pub fn cap_gpu_power_limit(
    node: &mut NodeHardware,
    gpu: usize,
    limit: Watts,
) -> Result<CapOutcome, VariorumError> {
    Ok(node.set_gpu_cap(gpu, limit)?)
}

/// `variorum_cap_each_socket_power_limit` — set the same RAPL-style cap
/// on every CPU socket. This is the dial Variorum drives on Intel/AMD
/// for best-effort node capping, and the one the socket-level FPP
/// variant uses (paper §III-B2: the policy "can be easily extended to be
/// utilized for socket-level or memory-level power capping").
pub fn cap_each_socket_power_limit(
    node: &mut NodeHardware,
    limit: Watts,
) -> Result<Vec<Watts>, VariorumError> {
    if limit.get() <= 0.0 {
        return Err(VariorumError::InvalidPowerLimit);
    }
    let n = node.arch.sockets;
    let mut applied = Vec::with_capacity(n);
    for socket in 0..n {
        applied.push(node.set_socket_cap(socket, limit)?);
    }
    Ok(applied)
}

/// Cap a single CPU socket (the per-device path the socket-level FPP
/// controller uses).
pub fn cap_socket_power_limit(
    node: &mut NodeHardware,
    socket: usize,
    limit: Watts,
) -> Result<Watts, VariorumError> {
    Ok(node.set_socket_cap(socket, limit)?)
}

/// Cap the memory subsystem (DRAM RAPL) — the third device class the
/// paper's FPP names ("socket-level or memory-level power capping").
pub fn cap_memory_power_limit(
    node: &mut NodeHardware,
    limit: Watts,
) -> Result<Watts, VariorumError> {
    if limit.get() <= 0.0 {
        return Err(VariorumError::InvalidPowerLimit);
    }
    Ok(node.set_memory_cap(limit)?)
}

/// `variorum_cap_each_gpu_power_limit` — set the same cap on every GPU.
///
/// Returns the per-GPU outcomes: on Lassen at low node caps, individual
/// GPUs may silently keep a stale cap or reset to the default (paper §V);
/// callers see that here rather than via an error.
pub fn cap_each_gpu_power_limit(
    node: &mut NodeHardware,
    limit: Watts,
) -> Result<Vec<CapOutcome>, VariorumError> {
    let n = node.arch.gpus;
    let mut outcomes = Vec::with_capacity(n);
    for gpu in 0..n {
        outcomes.push(node.set_gpu_cap(gpu, limit)?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_hw::{lassen, tioga, Lanes, NodeId, PowerDemand, Sensors};

    fn lassen_node() -> NodeHardware {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 42);
        n.sensors = Sensors::new(&n.arch, 0).with_noise(0.0);
        n
    }

    fn busy(node: &mut NodeHardware) {
        let arch = node.arch.clone();
        node.set_demand(PowerDemand {
            cpu: Lanes::filled(Watts(150.0), arch.sockets),
            memory: Watts(80.0),
            gpu: Lanes::filled(Watts(260.0), arch.gpus),
            other: arch.other,
        });
    }

    #[test]
    fn telemetry_reports_draw() {
        let mut n = lassen_node();
        busy(&mut n);
        let (sample, cost) = get_node_power_json(&mut n, "lassen0", 4_000_000);
        assert_eq!(&*sample.hostname, "lassen0");
        assert_eq!(sample.timestamp_us, 4_000_000);
        let expect = n.draw().total().get();
        assert!((sample.node_power_estimate() - expect).abs() < 1e-6);
        assert_eq!(cost.cpu_time.as_micros(), 6_000);
    }

    #[test]
    fn refilled_sample_equals_a_fresh_one() {
        let (mut a, mut b) = (lassen_node(), lassen_node());
        busy(&mut a);
        busy(&mut b);
        let (mut reused, _) = get_node_power_json(&mut a, "lassen0", 2_000_000);
        get_node_power_json(&mut b, "lassen0", 2_000_000);
        let cost = get_node_power_json_into(&mut a, 4_000_000, &mut reused);
        let (fresh, fresh_cost) = get_node_power_json(&mut b, "lassen0", 4_000_000);
        assert_eq!(reused, fresh);
        assert_eq!(cost.cpu_time, fresh_cost.cpu_time);
    }

    #[test]
    fn node_cap_applies_and_clamps() {
        let mut n = lassen_node();
        busy(&mut n);
        let set = cap_best_effort_node_power_limit(&mut n, Watts(1200.0)).unwrap();
        assert_eq!(set, Watts(1200.0));
        let draw = n.draw();
        assert!(draw.total().get() <= 1200.0);
        // Below OPAL's soft minimum clamps up.
        let set = cap_best_effort_node_power_limit(&mut n, Watts(100.0)).unwrap();
        assert_eq!(set, Watts(500.0));
    }

    #[test]
    fn non_positive_limit_rejected() {
        let mut n = lassen_node();
        assert_eq!(
            cap_best_effort_node_power_limit(&mut n, Watts(0.0)),
            Err(VariorumError::InvalidPowerLimit)
        );
    }

    #[test]
    fn gpu_caps_apply_uniformly() {
        let mut n = lassen_node();
        busy(&mut n);
        let outcomes = cap_each_gpu_power_limit(&mut n, Watts(150.0)).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.succeeded()));
        let draw = n.draw();
        for g in &draw.gpu {
            assert_eq!(*g, Watts(150.0));
        }
    }

    #[test]
    fn tioga_capping_is_disabled() {
        let mut n = NodeHardware::new(NodeId(0), tioga(), 42);
        assert_eq!(
            cap_best_effort_node_power_limit(&mut n, Watts(500.0)),
            Err(VariorumError::FeatureDisabled)
        );
        assert_eq!(
            cap_each_gpu_power_limit(&mut n, Watts(200.0)),
            Err(VariorumError::FeatureDisabled)
        );
    }

    #[test]
    fn tioga_telemetry_still_works() {
        let mut n = NodeHardware::new(NodeId(0), tioga(), 42);
        n.sensors = Sensors::new(&n.arch, 0).with_noise(0.0);
        let (sample, cost) = get_node_power_json(&mut n, "tioga0", 0);
        assert!(sample.power_node_watts.is_none());
        assert_eq!(sample.power_gpu_watts.len(), 4, "per-OAM");
        assert_eq!(cost.cpu_time.as_micros(), 800);
    }

    #[test]
    fn domain_info_matches_arch() {
        let n = lassen_node();
        let info = get_node_power_domain_info(&n);
        assert!(info.direct_node_cap && info.gpu_cap && info.capping_enabled);
        assert_eq!(info.node_cap_range, Some((500.0, 3050.0)));
        assert_eq!(info.gpu_cap_range, (100.0, 300.0));
        assert_eq!(info.num_gpus, 4);

        let t = NodeHardware::new(NodeId(1), tioga(), 0);
        let info = get_node_power_domain_info(&t);
        assert!(!info.direct_node_cap);
        assert!(!info.capping_enabled);
        assert_eq!(info.num_gpus, 8);
        assert_eq!(info.node_cap_range, None);
    }

    #[test]
    fn gpu_cap_out_of_range_errors() {
        let mut n = lassen_node();
        assert_eq!(
            cap_each_gpu_power_limit(&mut n, Watts(50.0)),
            Err(VariorumError::InvalidPowerLimit)
        );
    }
}
