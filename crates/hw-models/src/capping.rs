//! Capping firmware models.
//!
//! * [`OpalState`] — IBM OPAL node-level power capping as observed on
//!   Lassen, including the **conservative derived GPU cap** the paper
//!   measures in Table III. When a node cap is set, OPAL reserves a fixed
//!   budget for CPU/memory/uncore and splits the remainder across the
//!   GPUs, clamped into the NVML range:
//!
//!   ```text
//!   derived_gpu_cap = clamp((node_cap - RESERVE) / n_gpus, 100 W, 300 W)
//!   ```
//!
//!   with `RESERVE = 936 W` at PSR = 100. This reproduces the paper's
//!   measurements exactly: 1200 → 100, 1800 → 216, 1950 → 253.5, 3050 → 300.
//!
//! * [`NvmlState`] — per-GPU capping through NVML, with the intermittent
//!   failure mode reported in §V: at low node caps the set occasionally
//!   does not take, leaving the previous cap in place or resetting the GPU
//!   to its default maximum.

use crate::arch::NodeArch;
use crate::units::Watts;
use fluxpm_sim::Xoshiro256pp;
use std::fmt;

/// The CPU/memory/uncore budget OPAL reserves before splitting the node
/// cap across GPUs, at PSR = 100. Calibrated against paper Table III.
pub const OPAL_GPU_RESERVE: Watts = Watts(936.0);

/// Errors from capping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapError {
    /// The architecture has no such capping dial.
    Unsupported,
    /// Capping exists but is administratively disabled (Tioga early
    /// access).
    Disabled,
    /// The requested value is outside the settable range.
    OutOfRange,
    /// No such device index.
    NoSuchDevice,
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CapError::Unsupported => "capping not supported on this architecture",
            CapError::Disabled => "capping disabled for users on this system",
            CapError::OutOfRange => "requested cap outside settable range",
            CapError::NoSuchDevice => "no such device",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CapError {}

/// What actually happened when a cap was requested (§V failure modes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapOutcome {
    /// The cap took effect as requested (possibly clamped into range).
    Applied(Watts),
    /// NVML silently kept the previously set cap.
    StalePrevious(Watts),
    /// NVML silently reset to the vendor default maximum.
    ResetToDefault(Watts),
}

impl CapOutcome {
    /// The cap now in force, whatever happened.
    pub fn effective(self) -> Watts {
        match self {
            CapOutcome::Applied(w)
            | CapOutcome::StalePrevious(w)
            | CapOutcome::ResetToDefault(w) => w,
        }
    }

    /// True if the request was honoured.
    pub fn succeeded(self) -> bool {
        matches!(self, CapOutcome::Applied(_))
    }
}

/// IBM OPAL node-capping state for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct OpalState {
    /// The current node power cap, if one has been set.
    node_cap: Option<Watts>,
    /// Power Shifting Ratio, 0–100. 100 (the default in the paper) gives
    /// maximum share to the GPUs.
    psr: u8,
    /// Number of GPUs the derived cap is split across.
    n_gpus: usize,
    /// Settable range.
    min_cap: Watts,
    max_cap: Watts,
    /// NVML clamp range for the derived GPU cap.
    gpu_range: (Watts, Watts),
}

impl OpalState {
    /// Fresh OPAL state for an architecture (uncapped).
    ///
    /// Returns `None` if the architecture has no node-capping firmware
    /// (Tioga).
    pub fn for_arch(arch: &NodeArch) -> Option<OpalState> {
        if !arch.capping.node_cap {
            return None;
        }
        Some(OpalState {
            node_cap: None,
            psr: 100,
            n_gpus: arch.gpus,
            min_cap: arch.capping.min_node_cap,
            max_cap: arch.capping.max_node_cap,
            gpu_range: (arch.capping.min_gpu_cap, arch.capping.max_gpu_cap),
        })
    }

    /// Set the node power cap. Values are clamped into the settable range
    /// (matching OPAL's behaviour of accepting and clamping, rather than
    /// erroring).
    pub fn set_node_cap(&mut self, cap: Watts) -> Watts {
        let clamped = cap.clamp(self.min_cap, self.max_cap);
        self.node_cap = Some(clamped);
        clamped
    }

    /// Remove the node cap (return to nameplate).
    pub fn clear_node_cap(&mut self) {
        self.node_cap = None;
    }

    /// The current node cap, if set.
    pub fn node_cap(&self) -> Option<Watts> {
        self.node_cap
    }

    /// Set the Power Shifting Ratio (0–100).
    pub fn set_psr(&mut self, psr: u8) {
        self.psr = psr.min(100);
    }

    /// Current PSR.
    pub fn psr(&self) -> u8 {
        self.psr
    }

    /// The per-GPU cap OPAL derives from the current node cap.
    ///
    /// `None` when the node is uncapped (GPUs run at their own caps). At
    /// PSR below 100 the reserve grows, shifting power away from the GPUs
    /// (4 W of reserve per PSR point, a documented model choice — the
    /// paper always uses PSR = 100).
    pub fn derived_gpu_cap(&self) -> Option<Watts> {
        let cap = self.node_cap?;
        if self.n_gpus == 0 {
            return None;
        }
        let reserve = OPAL_GPU_RESERVE + Watts(4.0 * (100 - self.psr) as f64);
        let per_gpu = (cap - reserve) / self.n_gpus as f64;
        Some(per_gpu.clamp(self.gpu_range.0, self.gpu_range.1))
    }
}

/// NVML per-GPU capping state for one node.
#[derive(Debug, Clone)]
pub struct NvmlState {
    /// Current per-GPU software caps (None = vendor default / uncapped).
    caps: Vec<Option<Watts>>,
    /// Settable range.
    range: (Watts, Watts),
    /// Vendor default (maximum) power.
    default_cap: Watts,
    /// Probability that a set silently fails (paper §V observed this at
    /// low node caps). Zero by default.
    failure_rate: f64,
    /// Node cap threshold below which the failure rate applies; above it
    /// sets always succeed. The paper saw failures "at a low node-level
    /// power cap (1200 W)".
    failure_below_node_cap: Watts,
    /// Count of failed set operations (for experiment reporting).
    failures: u64,
}

impl NvmlState {
    /// Fresh NVML state (no software caps).
    pub fn for_arch(arch: &NodeArch) -> NvmlState {
        NvmlState {
            caps: vec![None; arch.gpus],
            range: (arch.capping.min_gpu_cap, arch.capping.max_gpu_cap),
            default_cap: arch.capping.max_gpu_cap,
            failure_rate: 0.0,
            failure_below_node_cap: Watts(1200.0),
            failures: 0,
        }
    }

    /// Enable the intermittent-failure model with the given per-set
    /// probability.
    pub fn with_failure_injection(mut self, rate: f64) -> NvmlState {
        self.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Number of GPUs managed.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True if no GPUs (never the case on our architectures).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Request a cap on one GPU. `node_cap_context` is the node-level cap
    /// currently in force (failures only trigger below the threshold).
    pub fn set_gpu_cap(
        &mut self,
        gpu: usize,
        cap: Watts,
        node_cap_context: Option<Watts>,
        rng: &mut Xoshiro256pp,
    ) -> Result<CapOutcome, CapError> {
        if gpu >= self.caps.len() {
            return Err(CapError::NoSuchDevice);
        }
        if cap.get() < self.range.0.get() || cap.get() > self.range.1.get() {
            return Err(CapError::OutOfRange);
        }
        let low_cap_regime = node_cap_context
            .map(|nc| nc.get() <= self.failure_below_node_cap.get())
            .unwrap_or(false);
        if low_cap_regime && self.failure_rate > 0.0 && rng.chance(self.failure_rate) {
            self.failures += 1;
            // Two observed failure modes, equally likely: stale previous
            // cap, or reset to the vendor default.
            return Ok(if rng.chance(0.5) {
                let prev = self.caps[gpu].unwrap_or(self.default_cap);
                CapOutcome::StalePrevious(prev)
            } else {
                self.caps[gpu] = None;
                CapOutcome::ResetToDefault(self.default_cap)
            });
        }
        self.caps[gpu] = Some(cap);
        Ok(CapOutcome::Applied(cap))
    }

    /// Clear the software cap on one GPU.
    pub fn clear_gpu_cap(&mut self, gpu: usize) -> Result<(), CapError> {
        if gpu >= self.caps.len() {
            return Err(CapError::NoSuchDevice);
        }
        self.caps[gpu] = None;
        Ok(())
    }

    /// The software cap on one GPU, if set.
    pub fn gpu_cap(&self, gpu: usize) -> Option<Watts> {
        self.caps.get(gpu).copied().flatten()
    }

    /// All software caps.
    pub fn caps(&self) -> &[Option<Watts>] {
        &self.caps
    }

    /// Total failed set operations so far.
    pub fn failure_count(&self) -> u64 {
        self.failures
    }

    /// The settable range.
    pub fn range(&self) -> (Watts, Watts) {
        self.range
    }
}

/// Per-socket CPU capping state (RAPL on x86, OCC socket limits on
/// Power9, HSMP on AMD). The paper's FPP is "device-agnostic from a
/// logistical perspective" — this is the dial its socket-level variant
/// drives.
#[derive(Debug, Clone, PartialEq)]
pub struct RaplState {
    caps: Vec<Option<Watts>>,
    range: (Watts, Watts),
}

impl RaplState {
    /// Fresh state (no socket caps) for an architecture.
    pub fn for_arch(arch: &NodeArch) -> RaplState {
        RaplState {
            caps: vec![None; arch.sockets],
            // The settable floor is the idle power (firmware cannot cap
            // below leakage) and the ceiling is the socket TDP.
            range: (arch.cpu_idle, arch.cpu_peak),
        }
    }

    /// Number of sockets managed.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True if no sockets (never on our architectures).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Request a cap on one socket (clamped into the settable range, as
    /// RAPL does).
    pub fn set_socket_cap(&mut self, socket: usize, cap: Watts) -> Result<Watts, CapError> {
        if socket >= self.caps.len() {
            return Err(CapError::NoSuchDevice);
        }
        let clamped = cap.clamp(self.range.0, self.range.1);
        self.caps[socket] = Some(clamped);
        Ok(clamped)
    }

    /// Clear the cap on one socket.
    pub fn clear_socket_cap(&mut self, socket: usize) -> Result<(), CapError> {
        if socket >= self.caps.len() {
            return Err(CapError::NoSuchDevice);
        }
        self.caps[socket] = None;
        Ok(())
    }

    /// Current cap on one socket.
    pub fn socket_cap(&self, socket: usize) -> Option<Watts> {
        self.caps.get(socket).copied().flatten()
    }

    /// All socket caps.
    pub fn caps(&self) -> &[Option<Watts>] {
        &self.caps
    }
}

/// Memory-subsystem (DRAM RAPL) capping state. The third device class
/// the paper names for FPP ("socket-level or memory-level power
/// capping", §III-B2).
#[derive(Debug, Clone, PartialEq)]
pub struct DramCapState {
    cap: Option<Watts>,
    range: (Watts, Watts),
}

impl DramCapState {
    /// Fresh state (uncapped) for an architecture.
    pub fn for_arch(arch: &NodeArch) -> DramCapState {
        DramCapState {
            cap: None,
            range: (arch.mem_idle, arch.mem_peak),
        }
    }

    /// Request a memory cap (clamped into the settable range).
    pub fn set_cap(&mut self, cap: Watts) -> Watts {
        let clamped = cap.clamp(self.range.0, self.range.1);
        self.cap = Some(clamped);
        clamped
    }

    /// Clear the memory cap.
    pub fn clear(&mut self) {
        self.cap = None;
    }

    /// Current memory cap, if set.
    pub fn cap(&self) -> Option<Watts> {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{lassen, tioga};

    #[test]
    fn dram_set_clamp_clear() {
        let mut d = DramCapState::for_arch(&lassen());
        assert_eq!(d.cap(), None);
        assert_eq!(d.set_cap(Watts(90.0)), Watts(90.0));
        // Clamped into [mem_idle, mem_peak] = [40, 120].
        assert_eq!(d.set_cap(Watts(10.0)), Watts(40.0));
        assert_eq!(d.set_cap(Watts(500.0)), Watts(120.0));
        d.clear();
        assert_eq!(d.cap(), None);
    }

    #[test]
    fn rapl_set_clamp_clear() {
        let mut r = RaplState::for_arch(&lassen());
        assert_eq!(r.len(), 2);
        assert_eq!(r.set_socket_cap(0, Watts(120.0)), Ok(Watts(120.0)));
        assert_eq!(r.socket_cap(0), Some(Watts(120.0)));
        // Clamped into [idle, peak] = [60, 190].
        assert_eq!(r.set_socket_cap(1, Watts(10.0)), Ok(Watts(60.0)));
        assert_eq!(r.set_socket_cap(1, Watts(500.0)), Ok(Watts(190.0)));
        assert_eq!(
            r.set_socket_cap(5, Watts(100.0)),
            Err(CapError::NoSuchDevice)
        );
        r.clear_socket_cap(0).unwrap();
        assert_eq!(r.socket_cap(0), None);
    }

    #[test]
    fn opal_derivation_matches_paper_table3() {
        let mut opal = OpalState::for_arch(&lassen()).unwrap();
        // Table III: node cap -> derived max GPU cap.
        for (node, gpu) in [
            (3050.0, 300.0),
            (1200.0, 100.0),
            (1800.0, 216.0),
            (1950.0, 253.5),
        ] {
            opal.set_node_cap(Watts(node));
            let got = opal.derived_gpu_cap().unwrap();
            assert!(
                got.approx_eq(Watts(gpu), 0.6),
                "node cap {node}: expected ~{gpu}, got {got}"
            );
        }
    }

    #[test]
    fn opal_uncapped_has_no_derived_cap() {
        let opal = OpalState::for_arch(&lassen()).unwrap();
        assert_eq!(opal.node_cap(), None);
        assert_eq!(opal.derived_gpu_cap(), None);
    }

    #[test]
    fn opal_clamps_into_range() {
        let mut opal = OpalState::for_arch(&lassen()).unwrap();
        assert_eq!(
            opal.set_node_cap(Watts(100.0)),
            Watts(500.0),
            "below soft min"
        );
        assert_eq!(opal.set_node_cap(Watts(9999.0)), Watts(3050.0), "above max");
    }

    #[test]
    fn opal_clear_restores_uncapped() {
        let mut opal = OpalState::for_arch(&lassen()).unwrap();
        opal.set_node_cap(Watts(1200.0));
        opal.clear_node_cap();
        assert_eq!(opal.derived_gpu_cap(), None);
    }

    #[test]
    fn opal_psr_shifts_power_away_from_gpus() {
        let mut opal = OpalState::for_arch(&lassen()).unwrap();
        opal.set_node_cap(Watts(1950.0));
        let at_100 = opal.derived_gpu_cap().unwrap();
        opal.set_psr(50);
        let at_50 = opal.derived_gpu_cap().unwrap();
        assert!(
            at_50 < at_100,
            "lower PSR gives GPUs less: {at_50} vs {at_100}"
        );
    }

    #[test]
    fn opal_absent_on_tioga() {
        assert!(OpalState::for_arch(&tioga()).is_none());
    }

    #[test]
    fn opal_derivation_is_monotone_in_node_cap() {
        let mut opal = OpalState::for_arch(&lassen()).unwrap();
        let mut prev = Watts::ZERO;
        for cap in (500..=3050).step_by(50) {
            opal.set_node_cap(Watts(cap as f64));
            let d = opal.derived_gpu_cap().unwrap();
            assert!(d >= prev, "monotone violated at {cap}");
            assert!((100.0..=300.0).contains(&d.get()));
            prev = d;
        }
    }

    #[test]
    fn nvml_set_and_clear() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut nvml = NvmlState::for_arch(&lassen());
        let out = nvml.set_gpu_cap(2, Watts(150.0), None, &mut rng).unwrap();
        assert_eq!(out, CapOutcome::Applied(Watts(150.0)));
        assert_eq!(nvml.gpu_cap(2), Some(Watts(150.0)));
        assert_eq!(nvml.gpu_cap(0), None);
        nvml.clear_gpu_cap(2).unwrap();
        assert_eq!(nvml.gpu_cap(2), None);
    }

    #[test]
    fn nvml_range_checks() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut nvml = NvmlState::for_arch(&lassen());
        assert_eq!(
            nvml.set_gpu_cap(0, Watts(50.0), None, &mut rng),
            Err(CapError::OutOfRange)
        );
        assert_eq!(
            nvml.set_gpu_cap(0, Watts(301.0), None, &mut rng),
            Err(CapError::OutOfRange)
        );
        assert_eq!(
            nvml.set_gpu_cap(9, Watts(200.0), None, &mut rng),
            Err(CapError::NoSuchDevice)
        );
    }

    #[test]
    fn nvml_failures_only_in_low_cap_regime() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut nvml = NvmlState::for_arch(&lassen()).with_failure_injection(1.0);
        // High node cap: always succeeds.
        let out = nvml
            .set_gpu_cap(0, Watts(200.0), Some(Watts(1950.0)), &mut rng)
            .unwrap();
        assert!(out.succeeded());
        // Low node cap with rate 1.0: always fails.
        let out = nvml
            .set_gpu_cap(0, Watts(150.0), Some(Watts(1200.0)), &mut rng)
            .unwrap();
        assert!(!out.succeeded());
        assert_eq!(nvml.failure_count(), 1);
    }

    #[test]
    fn nvml_failure_modes_are_stale_or_default() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut nvml = NvmlState::for_arch(&lassen()).with_failure_injection(1.0);
        nvml.set_gpu_cap(0, Watts(250.0), None, &mut rng).unwrap(); // succeeds
        let mut saw_stale = false;
        let mut saw_default = false;
        for _ in 0..64 {
            match nvml
                .set_gpu_cap(0, Watts(120.0), Some(Watts(1000.0)), &mut rng)
                .unwrap()
            {
                CapOutcome::StalePrevious(w) => {
                    saw_stale = true;
                    // Stale keeps whatever was in force.
                    assert!(w == Watts(250.0) || w == Watts(300.0));
                }
                CapOutcome::ResetToDefault(w) => {
                    saw_default = true;
                    assert_eq!(w, Watts(300.0));
                }
                CapOutcome::Applied(_) => panic!("rate 1.0 must not apply"),
            }
        }
        assert!(saw_stale && saw_default);
    }

    #[test]
    fn nvml_no_failures_without_injection() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut nvml = NvmlState::for_arch(&lassen());
        for _ in 0..100 {
            let out = nvml
                .set_gpu_cap(1, Watts(100.0), Some(Watts(1000.0)), &mut rng)
                .unwrap();
            assert!(out.succeeded());
        }
        assert_eq!(nvml.failure_count(), 0);
    }

    #[test]
    fn cap_outcome_effective() {
        assert_eq!(CapOutcome::Applied(Watts(1.0)).effective(), Watts(1.0));
        assert_eq!(
            CapOutcome::StalePrevious(Watts(2.0)).effective(),
            Watts(2.0)
        );
        assert!(!CapOutcome::ResetToDefault(Watts(3.0)).succeeded());
    }

    #[test]
    fn cap_error_display() {
        assert!(CapError::Disabled.to_string().contains("disabled"));
    }
}
