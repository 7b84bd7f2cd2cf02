//! Power demand → draw resolution.
//!
//! A workload expresses what each component *wants* to draw
//! ([`PowerDemand`]); the capping state determines what it *actually*
//! draws ([`PowerDraw`]) and how much each component was throttled
//! ([`Throttle`]). Throttle factors are the coupling point between power
//! management and application performance: the workload model slows its
//! progress according to its bottleneck component's throttle.
//!
//! Resolution order mirrors the AC922 with PSR = 100 (maximum share to the
//! GPUs): GPUs are clamped to their effective caps first; then, if a node
//! cap is still violated, the CPU sockets are throttled down to fit (never
//! below idle — firmware cannot stop the silicon from leaking).

use crate::arch::NodeArch;
use crate::lanes::Lanes;
use crate::units::Watts;

/// Requested (uncapped) power per component, for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDemand {
    /// Per-socket CPU demand.
    pub cpu: Lanes<Watts>,
    /// Whole-node memory-subsystem demand.
    pub memory: Watts,
    /// Per-GPU demand.
    pub gpu: Lanes<Watts>,
    /// Constant board/uncore power.
    pub other: Watts,
}

impl PowerDemand {
    /// The all-idle demand for an architecture.
    pub fn idle(arch: &NodeArch) -> PowerDemand {
        PowerDemand {
            cpu: Lanes::filled(arch.cpu_idle, arch.sockets),
            memory: arch.mem_idle,
            gpu: Lanes::filled(arch.gpu_idle, arch.gpus),
            other: arch.other,
        }
    }

    /// Total demanded power.
    pub fn total(&self) -> Watts {
        self.cpu.iter().copied().sum::<Watts>()
            + self.gpu.iter().copied().sum::<Watts>()
            + self.memory
            + self.other
    }

    /// Clamp every component into the architecture's physical envelope
    /// (idle floor, peak ceiling). Demands outside the envelope are a
    /// workload-model bug in debug builds, silently clamped in release.
    pub fn clamp_to_envelope(mut self, arch: &NodeArch) -> PowerDemand {
        for c in &mut self.cpu {
            *c = c.clamp(arch.cpu_idle, arch.cpu_peak);
        }
        for g in &mut self.gpu {
            *g = g.clamp(arch.gpu_idle, arch.gpu_peak);
        }
        self.memory = self.memory.clamp(arch.mem_idle, arch.mem_peak);
        self.other = arch.other;
        self
    }
}

/// Per-component throttle factors in `(0, 1]`: the ratio of granted to
/// demanded *dynamic* power (above idle). 1.0 means unthrottled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throttle {
    /// CPU throttle (uniform across sockets).
    pub cpu: f64,
    /// Worst-case GPU throttle across the node's GPUs.
    pub gpu_min: f64,
    /// Per-GPU throttle factors are in `PowerDraw::gpu_throttle`.
    pub mean_gpu: f64,
}

impl Throttle {
    /// No throttling anywhere.
    pub const NONE: Throttle = Throttle {
        cpu: 1.0,
        gpu_min: 1.0,
        mean_gpu: 1.0,
    };
}

/// Actual power drawn per component after capping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDraw {
    /// Per-socket CPU draw.
    pub cpu: Lanes<Watts>,
    /// Memory draw.
    pub memory: Watts,
    /// Per-GPU draw.
    pub gpu: Lanes<Watts>,
    /// Board/uncore draw.
    pub other: Watts,
    /// Per-GPU throttle factor (granted/demanded dynamic power).
    pub gpu_throttle: Lanes<f64>,
    /// Summary throttle factors.
    pub throttle: Throttle,
}

impl PowerDraw {
    /// Total node draw.
    pub fn total(&self) -> Watts {
        self.cpu.iter().copied().sum::<Watts>()
            + self.gpu.iter().copied().sum::<Watts>()
            + self.memory
            + self.other
    }
}

/// Resolve a demand against effective caps (without socket caps).
///
/// See [`resolve_with_sockets`]; this keeps the common no-socket-cap call
/// sites terse.
pub fn resolve(
    arch: &NodeArch,
    demand: &PowerDemand,
    gpu_caps: &[Option<Watts>],
    node_cap: Option<Watts>,
) -> PowerDraw {
    let socket_caps = Lanes::filled(None, arch.sockets);
    resolve_with_sockets(arch, demand, gpu_caps, &socket_caps, node_cap)
}

/// Resolve a demand against effective caps.
///
/// * `gpu_caps` — the effective per-GPU cap (min of NVML cap and the
///   OPAL-derived GPU cap), one per GPU; `None` means uncapped.
/// * `socket_caps` — per-socket CPU power caps (RAPL-style), one per
///   socket; `None` means uncapped.
/// * `node_cap` — the OPAL node cap, if set and supported.
///
/// Throttle factors are computed on *dynamic* power (above the idle
/// floor): a GPU idling at 50 W under a 100 W cap is not "throttled".
pub fn resolve_with_sockets(
    arch: &NodeArch,
    demand: &PowerDemand,
    gpu_caps: &[Option<Watts>],
    socket_caps: &[Option<Watts>],
    node_cap: Option<Watts>,
) -> PowerDraw {
    debug_assert_eq!(demand.cpu.len(), arch.sockets);
    debug_assert_eq!(demand.gpu.len(), arch.gpus);
    debug_assert_eq!(gpu_caps.len(), arch.gpus);
    debug_assert_eq!(socket_caps.len(), arch.sockets);
    let demand = demand.clamp_to_envelope(arch);

    // Pass 1: clamp each GPU to its effective cap.
    let mut gpu_draw = Lanes::new();
    let mut gpu_throttle = Lanes::new();
    for (d, cap) in demand.gpu.iter().zip(gpu_caps.iter()) {
        let granted = match cap {
            Some(c) => d.min(c.max(arch.gpu_idle)),
            None => *d,
        };
        gpu_draw.push(granted);
        gpu_throttle.push(dynamic_ratio(granted, *d, arch.gpu_idle));
    }

    // Memory and other are not cappable; they draw what they demand.
    let memory = demand.memory;
    let other = demand.other;

    // Pass 2: clamp each socket to its RAPL-style cap.
    let mut cpu_draw: Lanes<Watts> = demand
        .cpu
        .iter()
        .zip(socket_caps.iter())
        .map(|(d, cap)| match cap {
            Some(c) => d.min(c.max(arch.cpu_idle)),
            None => *d,
        })
        .collect();

    // Pass 3: if a node cap applies, fit the CPU into what remains.
    if let Some(cap) = node_cap {
        let gpu_total: Watts = gpu_draw.iter().copied().sum();
        let fixed = gpu_total + memory + other;
        let cpu_budget = (cap - fixed).max(arch.cpu_idle * arch.sockets as f64);
        // Scale from the (possibly socket-capped) draw, not raw demand.
        let cpu_demand_total: Watts = cpu_draw.iter().copied().sum();
        if cpu_demand_total > cpu_budget {
            // Uniform scaling of the dynamic share.
            let idle_total = arch.cpu_idle * arch.sockets as f64;
            let dyn_budget = (cpu_budget - idle_total).max(Watts::ZERO);
            let dyn_demand = cpu_demand_total - idle_total;
            let scale = if dyn_demand.get() > 0.0 {
                (dyn_budget / dyn_demand).clamp(0.0, 1.0)
            } else {
                1.0
            };
            for c in &mut cpu_draw {
                let dynamic = (*c - arch.cpu_idle).max(Watts::ZERO);
                *c = arch.cpu_idle + dynamic * scale;
            }
        }
    }

    let cpu_throttle = {
        let granted: Watts = cpu_draw.iter().copied().sum();
        let wanted: Watts = demand.cpu.iter().copied().sum();
        dynamic_ratio_total(granted, wanted, arch.cpu_idle * arch.sockets as f64)
    };

    let gpu_min = gpu_throttle.iter().copied().fold(1.0f64, f64::min);
    let mean_gpu = if gpu_throttle.is_empty() {
        1.0
    } else {
        gpu_throttle.iter().sum::<f64>() / gpu_throttle.len() as f64
    };

    PowerDraw {
        cpu: cpu_draw,
        memory,
        gpu: gpu_draw,
        other,
        gpu_throttle,
        throttle: Throttle {
            cpu: cpu_throttle,
            gpu_min,
            mean_gpu,
        },
    }
}

/// Ratio of granted to demanded dynamic power for one device.
fn dynamic_ratio(granted: Watts, demanded: Watts, idle: Watts) -> f64 {
    let dyn_demand = (demanded - idle).get();
    if dyn_demand <= 1e-9 {
        return 1.0;
    }
    ((granted - idle).get() / dyn_demand).clamp(0.0, 1.0)
}

/// Ratio of granted to demanded dynamic power for a component group.
fn dynamic_ratio_total(granted: Watts, demanded: Watts, idle_total: Watts) -> f64 {
    let dyn_demand = (demanded - idle_total).get();
    if dyn_demand <= 1e-9 {
        return 1.0;
    }
    ((granted - idle_total).get() / dyn_demand).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::lassen;

    fn demand(cpu: f64, gpu: f64) -> PowerDemand {
        let a = lassen();
        PowerDemand {
            cpu: Lanes::filled(Watts(cpu), a.sockets),
            memory: Watts(80.0),
            gpu: Lanes::filled(Watts(gpu), a.gpus),
            other: a.other,
        }
    }

    #[test]
    fn uncapped_draw_equals_demand() {
        let a = lassen();
        let d = demand(150.0, 260.0);
        let draw = resolve(&a, &d, &[None; 4], None);
        assert_eq!(draw.total(), d.total());
        assert_eq!(draw.throttle, Throttle::NONE);
    }

    #[test]
    fn gpu_cap_clamps_gpu_only() {
        let a = lassen();
        let d = demand(150.0, 260.0);
        let caps = [Some(Watts(100.0)); 4];
        let draw = resolve(&a, &d, &caps, None);
        for g in &draw.gpu {
            assert_eq!(*g, Watts(100.0));
        }
        assert_eq!(draw.cpu[0], Watts(150.0), "CPU untouched");
        // Dynamic throttle: (100-50)/(260-50) ≈ 0.238.
        assert!((draw.throttle.gpu_min - 50.0 / 210.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_cap_above_demand_is_noop() {
        let a = lassen();
        let d = demand(150.0, 120.0);
        let draw = resolve(&a, &d, &[Some(Watts(300.0)); 4], None);
        assert_eq!(draw.gpu[0], Watts(120.0));
        assert_eq!(draw.throttle.gpu_min, 1.0);
    }

    #[test]
    fn node_cap_throttles_cpu_after_gpus() {
        let a = lassen();
        let d = demand(190.0, 260.0); // total = 380 + 1040 + 80 + 40 = 1540
                                      // Cap at 1200 with GPUs already clamped to 100 (draw 400): fixed =
                                      // 400 + 80 + 40 = 520, CPU budget = 680 > demand 380 => untouched.
        let draw = resolve(&a, &d, &[Some(Watts(100.0)); 4], Some(Watts(1200.0)));
        assert!(draw.total().get() <= 1200.0 + 1e-9);
        assert_eq!(draw.cpu[0], Watts(190.0));

        // Tighter: GPUs at 260 demand uncapped per-GPU, node cap 1200 =>
        // fixed = 1040+80+40 = 1160, CPU budget max(40, 120) = idle floor.
        let draw = resolve(&a, &d, &[None; 4], Some(Watts(1200.0)));
        let cpu_total: Watts = draw.cpu.iter().copied().sum();
        assert_eq!(cpu_total, Watts(120.0), "CPU pinned to idle floor");
        assert!(draw.throttle.cpu < 0.01);
    }

    #[test]
    fn node_cap_partial_cpu_throttle() {
        let a = lassen();
        let d = demand(190.0, 100.0); // gpu under its own idle+dyn
                                      // fixed = 400 (gpu) + 80 + 40 = 520; cap 800 => cpu budget 280.
        let draw = resolve(&a, &d, &[None; 4], Some(Watts(800.0)));
        let cpu_total: Watts = draw.cpu.iter().copied().sum();
        assert!(cpu_total.approx_eq(Watts(280.0), 1e-6));
        // Dynamic ratio: (280-120)/(380-120) = 160/260.
        assert!((draw.throttle.cpu - 160.0 / 260.0).abs() < 1e-9);
        assert!(draw.total().get() <= 800.0 + 1e-9);
    }

    #[test]
    fn idle_demand_never_throttled() {
        let a = lassen();
        let d = PowerDemand::idle(&a);
        let draw = resolve(&a, &d, &[Some(Watts(100.0)); 4], Some(Watts(500.0)));
        assert_eq!(draw.throttle, Throttle::NONE);
        assert_eq!(draw.total(), a.idle_node_power());
    }

    #[test]
    fn demand_clamped_to_envelope() {
        let a = lassen();
        let mut d = demand(150.0, 260.0);
        d.gpu[0] = Watts(999.0); // beyond V100 peak
        d.cpu[0] = Watts(10.0); // below idle floor
        let draw = resolve(&a, &d, &[None; 4], None);
        assert_eq!(draw.gpu[0], Watts(300.0));
        assert_eq!(draw.cpu[0], Watts(60.0));
    }

    #[test]
    fn per_gpu_caps_are_independent() {
        let a = lassen();
        let d = demand(150.0, 260.0);
        let caps = [
            Some(Watts(100.0)),
            Some(Watts(200.0)),
            None,
            Some(Watts(300.0)),
        ];
        let draw = resolve(&a, &d, &caps, None);
        assert_eq!(draw.gpu[0], Watts(100.0));
        assert_eq!(draw.gpu[1], Watts(200.0));
        assert_eq!(draw.gpu[2], Watts(260.0));
        assert_eq!(draw.gpu[3], Watts(260.0));
        assert!(draw.gpu_throttle[0] < draw.gpu_throttle[1]);
        assert_eq!(draw.gpu_throttle[2], 1.0);
    }

    #[test]
    fn gpu_cap_below_idle_floors_at_idle() {
        let a = lassen();
        let d = demand(150.0, 260.0);
        let draw = resolve(&a, &d, &[Some(Watts(10.0)); 4], None);
        assert_eq!(draw.gpu[0], Watts(50.0), "cannot cap below idle");
    }

    #[test]
    fn total_demand_accounting() {
        let d = demand(150.0, 260.0);
        assert_eq!(d.total(), Watts(2.0 * 150.0 + 4.0 * 260.0 + 80.0 + 40.0));
    }
}
