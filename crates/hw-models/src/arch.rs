//! Node architecture descriptors.
//!
//! A [`NodeArch`] is the static description of a node type: how many
//! sockets and GPU devices it has, their idle/peak power envelopes, what
//! its sensors can see, and what its firmware can cap. The two concrete
//! architectures are the paper's evaluation machines:
//!
//! * [`lassen`] — IBM Power AC922: 2× Power9, 4× NVIDIA V100, OCC sensors
//!   at node/CPU/memory/GPU level, OPAL node capping + NVML GPU capping.
//! * [`tioga`] — HPE Cray EX235a: 1× AMD Trento, 4× MI250X OAMs (8 GCDs),
//!   CPU + per-OAM telemetry only, capping present in hardware but not
//!   enabled for users on the early-access system.

use crate::units::Watts;

/// Which machine a node belongs to (shorthand used across the stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// IBM Power AC922 (Lassen).
    Lassen,
    /// HPE Cray EX235a (Tioga).
    Tioga,
}

impl MachineKind {
    /// Human-readable system name.
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Lassen => "lassen",
            MachineKind::Tioga => "tioga",
        }
    }
}

/// What the node's sensors can measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySupport {
    /// Direct node-level power measurement (includes uncore). True on
    /// Lassen (OCC), false on Tioga.
    pub node_power: bool,
    /// Per-socket CPU power.
    pub cpu_power: bool,
    /// Memory power. True on Lassen only.
    pub memory_power: bool,
    /// GPU-device power. On Lassen this is per GPU; on Tioga it is per
    /// OAM (two GCDs combined), captured by `gpus_per_reading`.
    pub gpu_power: bool,
    /// How many logical GPUs share one power reading (1 on Lassen,
    /// 2 on Tioga: a reading covers one OAM = 2 GCDs).
    pub gpus_per_reading: usize,
    /// Sensor update granularity in microseconds (informational; OCC is
    /// 500 µs).
    pub granularity_us: u64,
}

/// What the node's firmware allows the host to cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CappingSupport {
    /// Direct node-level power capping (OPAL on Lassen). When absent,
    /// Variorum's node capping becomes "best effort" socket distribution.
    pub node_cap: bool,
    /// Per-GPU power capping (NVML on Lassen).
    pub gpu_cap: bool,
    /// Per-socket CPU power capping (RAPL/OCC-style).
    pub socket_cap: bool,
    /// Whether capping is administratively enabled for users at all
    /// (false on the Tioga early-access system).
    pub user_enabled: bool,
    /// Minimum settable node cap (soft; not hardware-guaranteed below
    /// the hard minimum).
    pub min_node_cap: Watts,
    /// Minimum node cap guaranteed by hardware when GPUs are active.
    pub min_node_cap_hard: Watts,
    /// Maximum node cap == nameplate node power.
    pub max_node_cap: Watts,
    /// Per-GPU cap range.
    pub min_gpu_cap: Watts,
    /// Per-GPU maximum power.
    pub max_gpu_cap: Watts,
}

/// Static description of a node type.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeArch {
    /// Which machine this is.
    pub machine: MachineKind,
    /// Marketing/model name.
    pub model: &'static str,
    /// Number of CPU sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Number of logical GPU devices (GCDs on Tioga).
    pub gpus: usize,
    /// Idle power per CPU socket.
    pub cpu_idle: Watts,
    /// Peak power per CPU socket.
    pub cpu_peak: Watts,
    /// Idle power per GPU device.
    pub gpu_idle: Watts,
    /// Peak power per GPU device.
    pub gpu_peak: Watts,
    /// Idle memory-subsystem power (whole node).
    pub mem_idle: Watts,
    /// Peak memory-subsystem power (whole node).
    pub mem_peak: Watts,
    /// Constant "other" power: uncore, fans, NIC, board (whole node).
    pub other: Watts,
    /// Telemetry capability.
    pub telemetry: TelemetrySupport,
    /// Capping capability.
    pub capping: CappingSupport,
}

impl NodeArch {
    /// Idle power of the whole node (all components at their floors).
    pub fn idle_node_power(&self) -> Watts {
        self.cpu_idle * self.sockets as f64
            + self.gpu_idle * self.gpus as f64
            + self.mem_idle
            + self.other
    }

    /// Nameplate (maximum) node power.
    pub fn peak_node_power(&self) -> Watts {
        self.cpu_peak * self.sockets as f64
            + self.gpu_peak * self.gpus as f64
            + self.mem_peak
            + self.other
    }
}

/// The Lassen node architecture (IBM Power AC922).
///
/// Calibration notes: the paper assumes 400 W idle node power; nameplate
/// node cap is 3050 W; V100 GPUs run 100–300 W. Component floors are split
/// so the idle sum is exactly 400 W.
pub fn lassen() -> NodeArch {
    NodeArch {
        machine: MachineKind::Lassen,
        model: "IBM Power AC922",
        sockets: 2,
        cores_per_socket: 22,
        gpus: 4,
        cpu_idle: Watts(60.0),
        cpu_peak: Watts(190.0),
        gpu_idle: Watts(50.0),
        gpu_peak: Watts(300.0),
        mem_idle: Watts(40.0),
        mem_peak: Watts(120.0),
        other: Watts(40.0),
        telemetry: TelemetrySupport {
            node_power: true,
            cpu_power: true,
            memory_power: true,
            gpu_power: true,
            gpus_per_reading: 1,
            granularity_us: 500,
        },
        capping: CappingSupport {
            node_cap: true,
            gpu_cap: true,
            socket_cap: true,
            user_enabled: true,
            min_node_cap: Watts(500.0),
            min_node_cap_hard: Watts(1000.0),
            max_node_cap: Watts(3050.0),
            min_gpu_cap: Watts(100.0),
            max_gpu_cap: Watts(300.0),
        },
    }
}

/// The Tioga node architecture (HPE Cray EX235a).
///
/// 8 logical GPUs (GCDs); telemetry is per OAM (2 GCDs per reading, 560 W
/// OAM peak → 280 W per GCD). No node or memory sensors; capping exists in
/// hardware but is not enabled for users on the early-access system.
pub fn tioga() -> NodeArch {
    NodeArch {
        machine: MachineKind::Tioga,
        model: "HPE Cray EX235a",
        sockets: 1,
        cores_per_socket: 64,
        gpus: 8,
        cpu_idle: Watts(90.0),
        cpu_peak: Watts(280.0),
        gpu_idle: Watts(45.0),
        gpu_peak: Watts(280.0), // per GCD; 560 W per OAM
        mem_idle: Watts(35.0),
        mem_peak: Watts(100.0),
        other: Watts(45.0),
        telemetry: TelemetrySupport {
            node_power: false,
            cpu_power: true,
            memory_power: false,
            gpu_power: true,
            gpus_per_reading: 2,
            granularity_us: 1_000,
        },
        capping: CappingSupport {
            node_cap: false,
            gpu_cap: true,
            socket_cap: true, // present in hardware (HSMP), disabled for users
            user_enabled: false,
            min_node_cap: Watts(0.0),
            min_node_cap_hard: Watts(0.0),
            max_node_cap: Watts(0.0),
            min_gpu_cap: Watts(100.0),
            max_gpu_cap: Watts(280.0),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lassen_idle_matches_paper_assumption() {
        // Paper §IV-C: "We assume an idle node power consumption of 400 W".
        assert_eq!(lassen().idle_node_power(), Watts(400.0));
    }

    #[test]
    fn lassen_caps_match_paper() {
        let a = lassen();
        assert_eq!(a.capping.max_node_cap, Watts(3050.0));
        assert_eq!(a.capping.min_node_cap, Watts(500.0));
        assert_eq!(a.capping.min_node_cap_hard, Watts(1000.0));
        assert_eq!(a.capping.min_gpu_cap, Watts(100.0));
        assert_eq!(a.capping.max_gpu_cap, Watts(300.0));
        assert_eq!(a.gpus, 4);
        assert_eq!(a.sockets, 2);
    }

    #[test]
    fn tioga_telemetry_is_partial() {
        let t = tioga().telemetry;
        assert!(!t.node_power);
        assert!(!t.memory_power);
        assert!(t.cpu_power && t.gpu_power);
        assert_eq!(t.gpus_per_reading, 2, "one reading per OAM");
    }

    #[test]
    fn tioga_capping_disabled_for_users() {
        assert!(!tioga().capping.user_enabled);
        assert_eq!(tioga().gpus, 8, "8 GCDs per node");
    }

    #[test]
    fn tioga_oam_peak_is_560w() {
        let t = tioga();
        // Two GCDs per OAM.
        assert_eq!(t.gpu_peak * 2.0, Watts(560.0));
    }

    #[test]
    fn peak_exceeds_idle() {
        for a in [lassen(), tioga()] {
            assert!(a.peak_node_power() > a.idle_node_power());
        }
    }

    #[test]
    fn lassen_peak_below_nameplate_cap() {
        // Component peaks sum below the 3050 W OPAL maximum.
        let a = lassen();
        assert!(a.peak_node_power().get() <= a.capping.max_node_cap.get());
    }

    #[test]
    fn machine_names() {
        assert_eq!(MachineKind::Lassen.name(), "lassen");
        assert_eq!(MachineKind::Tioga.name(), "tioga");
    }
}
