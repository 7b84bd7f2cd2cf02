//! Application model parameters.
//!
//! An [`AppModel`] is a pure description — all constants, no state. The
//! runnable job program lives in [`crate::program`].

/// How the application scales with node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Fixed global problem: more nodes → shorter runtime, lower per-node
    /// power (LAMMPS).
    Strong,
    /// Problem grows with node count: runtime and per-node power roughly
    /// constant (GEMM, Quicksilver, Laghos, NQueens).
    Weak,
}

/// The shape of the power-demand signal over time (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhasePattern {
    /// Constant demand (LAMMPS, GEMM, NQueens).
    Flat,
    /// Two-level square wave: `duty` fraction of each period at the high
    /// level, the rest at the low level (Quicksilver).
    Square {
        /// Period in seconds.
        period_s: f64,
        /// Fraction of the period spent in the high-power phase.
        duty: f64,
    },
    /// Small sinusoidal modulation of the CPU demand (Laghos).
    Sine {
        /// Period in seconds.
        period_s: f64,
        /// Relative amplitude (e.g. 0.1 = ±10 % of dynamic CPU power).
        amplitude: f64,
    },
}

impl PhasePattern {
    /// The nominal period of the pattern, if it has one.
    pub fn period_seconds(self) -> Option<f64> {
        match self {
            PhasePattern::Flat => None,
            PhasePattern::Square { period_s, .. } | PhasePattern::Sine { period_s, .. } => {
                Some(period_s)
            }
        }
    }
}

/// Per-machine power/performance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Busy (high-phase) CPU demand per socket, watts.
    pub cpu_w: f64,
    /// Busy (high-phase) demand per GPU device, watts.
    pub gpu_w: f64,
    /// Memory-subsystem demand, watts.
    pub mem_w: f64,
    /// Low-phase CPU demand per socket (== `cpu_w` for flat apps).
    pub low_cpu_w: f64,
    /// Low-phase demand per GPU (== `gpu_w` for flat apps).
    pub low_gpu_w: f64,
    /// Relative execution speed on this machine (1.0 = Lassen reference).
    pub speed: f64,
    /// Work multiplier on this machine (2.0 for weak-scaled apps on Tioga,
    /// whose 8 GCDs double the task count and thus the problem size).
    pub work_mult: f64,
}

impl MachineProfile {
    /// A flat (phase-less) profile.
    pub const fn flat(cpu_w: f64, gpu_w: f64, mem_w: f64, speed: f64, work_mult: f64) -> Self {
        MachineProfile {
            cpu_w,
            gpu_w,
            mem_w,
            low_cpu_w: cpu_w,
            low_gpu_w: gpu_w,
            speed,
            work_mult,
        }
    }
}

/// Full description of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// Application name, as reported in job specs and CSVs.
    pub name: &'static str,
    /// Strong or weak scaling.
    pub scaling: Scaling,
    /// Fraction of execution time bottlenecked on the GPUs.
    pub gpu_frac: f64,
    /// Fraction of execution time bottlenecked on the CPU.
    pub cpu_frac: f64,
    /// Power-throttle knee: dynamic-power ratios at or above this cause
    /// no slowdown (headroom between peak draw and the efficiency point).
    pub knee: f64,
    /// Power-law exponent just below the knee:
    /// `speed = (ratio/knee)^alpha`. Real accelerators respond gently to
    /// small power cuts (voltage/frequency headroom) and harshly to deep
    /// ones; `break_ratio`/`alpha_low` model the harsh regime.
    pub alpha: f64,
    /// Throttle ratio below which the steep regime starts (0 disables
    /// the second regime).
    pub break_ratio: f64,
    /// Power-law exponent in the steep regime below `break_ratio`.
    pub alpha_low: f64,
    /// Reference runtime in seconds, unconstrained, on `ref_nodes` Lassen
    /// nodes with the Table I inputs.
    pub base_work: f64,
    /// Node count the reference runtime was measured at.
    pub ref_nodes: u32,
    /// Strong-scaling exponent: `runtime(n) = base * (ref/n)^strong_exp`
    /// (0 for weak scaling).
    pub strong_exp: f64,
    /// Strong-scaling per-node GPU power decline exponent:
    /// `gpu_w(n) = gpu_w * (ref/n)^power_scale_exp`.
    pub power_scale_exp: f64,
    /// Weak-scaling runtime growth per node-count doubling (communication
    /// overhead), e.g. 0.066 = +6.6 % per doubling.
    pub weak_growth: f64,
    /// Demand signal shape.
    pub phase: PhasePattern,
    /// Lassen profile.
    pub lassen: MachineProfile,
    /// Tioga profile.
    pub tioga: MachineProfile,
    /// Machine this application crashes on (paper §V: "Kripke execution
    /// failed on the Tioga system").
    pub crashes_on: Option<fluxpm_hw::MachineKind>,
}

impl AppModel {
    /// The machine profile for a machine kind.
    pub fn profile(&self, machine: fluxpm_hw::MachineKind) -> &MachineProfile {
        match machine {
            fluxpm_hw::MachineKind::Lassen => &self.lassen,
            fluxpm_hw::MachineKind::Tioga => &self.tioga,
        }
    }

    /// Total work (reference-speed seconds) for a run on `n` nodes of the
    /// given machine, before any work-scale override.
    pub fn work_for(&self, machine: fluxpm_hw::MachineKind, n: u32) -> f64 {
        let p = self.profile(machine);
        let base = self.base_work * p.work_mult;
        match self.scaling {
            Scaling::Strong => base * (self.ref_nodes as f64 / n as f64).powf(self.strong_exp),
            Scaling::Weak => {
                let doublings = (n as f64 / self.ref_nodes as f64).log2();
                base * (1.0 + self.weak_growth * doublings.max(0.0))
            }
        }
    }

    /// Per-GPU busy demand at node count `n` (strong-scaled apps use
    /// their GPUs less per node as the local problem shrinks).
    pub fn gpu_demand_at(&self, machine: fluxpm_hw::MachineKind, n: u32) -> f64 {
        let p = self.profile(machine);
        match self.scaling {
            Scaling::Strong => {
                p.gpu_w * (self.ref_nodes as f64 / n as f64).powf(self.power_scale_exp)
            }
            Scaling::Weak => p.gpu_w,
        }
    }

    /// Component speed under a dynamic-power throttle ratio in `[0, 1]`.
    ///
    /// Above the knee the component runs at full speed (real silicon has
    /// voltage/frequency headroom near peak power); between `break_ratio`
    /// and the knee a gentle power law applies (`alpha`); below
    /// `break_ratio` a steeper one (`alpha_low`), continuous at the
    /// break.
    pub fn component_speed(&self, throttle: f64) -> f64 {
        let t = throttle.clamp(0.0, 1.0);
        if t >= self.knee {
            return 1.0;
        }
        if self.break_ratio > 0.0 && t < self.break_ratio {
            let at_break = (self.break_ratio / self.knee).powf(self.alpha);
            return (at_break * (t / self.break_ratio).powf(self.alpha_low)).max(1e-3);
        }
        (t / self.knee).powf(self.alpha).max(1e-3)
    }

    /// Application speed given per-component throttles (Amdahl-style time
    /// composition: each bottleneck fraction is slowed by its component's
    /// throttle response).
    pub fn app_speed(&self, gpu_throttle: f64, cpu_throttle: f64) -> f64 {
        let sg = self.component_speed(gpu_throttle);
        let sc = self.component_speed(cpu_throttle);
        let serial = (1.0 - self.gpu_frac - self.cpu_frac).max(0.0);
        1.0 / (self.gpu_frac / sg + self.cpu_frac / sc + serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{gemm, lammps, quicksilver};
    use fluxpm_hw::MachineKind;

    #[test]
    fn strong_scaling_reduces_work() {
        let l = lammps();
        let w4 = l.work_for(MachineKind::Lassen, 4);
        let w8 = l.work_for(MachineKind::Lassen, 8);
        assert!(w8 < w4);
        // Paper Table II: 77.17 s @ 4 nodes -> 46.33 s @ 8 nodes.
        assert!((w4 / w8 - 77.17 / 46.33).abs() < 0.05, "ratio {}", w4 / w8);
    }

    #[test]
    fn weak_scaling_roughly_constant() {
        let g = gemm();
        let w1 = g.work_for(MachineKind::Lassen, 1);
        let w32 = g.work_for(MachineKind::Lassen, 32);
        assert!((w32 - w1) / w1 < 0.10, "weak growth bounded");
    }

    #[test]
    fn tioga_task_doubling_doubles_work() {
        let q = quicksilver();
        let wl = q.work_for(MachineKind::Lassen, 4);
        let wt = q.work_for(MachineKind::Tioga, 4);
        assert!(wt > 1.9 * wl, "Tioga runs 2x tasks (and the HIP anomaly)");
    }

    #[test]
    fn component_speed_knee_behaviour() {
        let g = gemm();
        assert_eq!(g.component_speed(1.0), 1.0);
        assert_eq!(g.component_speed(g.knee), 1.0);
        assert_eq!(g.component_speed(g.knee + 0.05), 1.0);
        let s = g.component_speed(g.knee / 2.0);
        assert!(s < 1.0 && s > 0.0);
        // Monotone below the knee.
        assert!(g.component_speed(0.2) < g.component_speed(0.4));
    }

    #[test]
    fn app_speed_composition() {
        let g = gemm();
        // Unthrottled: full speed.
        assert!((g.app_speed(1.0, 1.0) - 1.0).abs() < 1e-12);
        // GPU-bound app barely notices CPU throttling.
        let cpu_only = g.app_speed(1.0, 0.3);
        assert!(cpu_only > 0.9, "GEMM is GPU-bound: {cpu_only}");
        // ... but suffers under GPU throttling.
        let gpu_hit = g.app_speed(0.3, 1.0);
        assert!(gpu_hit < 0.7, "{gpu_hit}");
    }

    #[test]
    fn phase_periods() {
        assert_eq!(PhasePattern::Flat.period_seconds(), None);
        assert_eq!(
            PhasePattern::Square {
                period_s: 10.0,
                duty: 0.2
            }
            .period_seconds(),
            Some(10.0)
        );
    }

    #[test]
    fn strong_scaling_power_decline() {
        let l = lammps();
        let g4 = l.gpu_demand_at(MachineKind::Lassen, 4);
        let g8 = l.gpu_demand_at(MachineKind::Lassen, 8);
        assert!(g8 < g4, "per-GPU power falls as LAMMPS scales out");
        let q = quicksilver();
        assert_eq!(
            q.gpu_demand_at(MachineKind::Lassen, 4),
            q.gpu_demand_at(MachineKind::Lassen, 8),
            "weak apps keep per-node power"
        );
    }
}
