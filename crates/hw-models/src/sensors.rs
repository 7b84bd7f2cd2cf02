//! In-band power sensors.
//!
//! Lassen's OCC exposes node, per-socket CPU, memory, and per-GPU power;
//! Tioga exposes per-socket CPU and per-OAM (2-GCD) power only — no node
//! or memory telemetry, which is why the paper's Tioga "node power" is a
//! conservative sum of CPU + 4 OAMs.
//!
//! Reads have two costs modelled here:
//!
//! * **noise** — sensors report the true draw perturbed by a small
//!   relative Gaussian error,
//! * **CPU time** — an in-band read steals host CPU cycles from the
//!   application. This is the physical source of `flux-power-monitor`'s
//!   overhead (paper Fig. 3): OCC reads on Lassen are far more expensive
//!   than MSR reads on Tioga.

use crate::arch::NodeArch;
use crate::lanes::Lanes;
use crate::power::PowerDraw;
use crate::units::Watts;
use fluxpm_sim::{SimDuration, Xoshiro256pp};

/// Cost of a full node power read (all components), charged to the host
/// CPU and therefore to any application sharing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorReadCost {
    /// Host CPU time consumed by one full read.
    pub cpu_time: SimDuration,
}

impl SensorReadCost {
    /// Per-architecture read cost, calibrated so a 2-second sampling loop
    /// produces the overheads measured in the paper (≈0.3 % steady-state
    /// on Lassen, ≈0.04 % on Tioga).
    pub fn for_arch(arch: &NodeArch) -> SensorReadCost {
        use crate::arch::MachineKind::*;
        let cpu_time = match arch.machine {
            // OCC access goes through the service processor path: ~6 ms.
            Lassen => SimDuration::from_micros(6_000),
            // MSR/E-SMI reads are sub-millisecond.
            Tioga => SimDuration::from_micros(800),
        };
        SensorReadCost { cpu_time }
    }
}

/// One full sensor scan of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Directly measured node power, if the hardware reports it
    /// (Lassen: yes, includes uncore; Tioga: no).
    pub node: Option<Watts>,
    /// Per-socket CPU power.
    pub cpu: Lanes<Watts>,
    /// Memory power, if measurable.
    pub memory: Option<Watts>,
    /// GPU power readings. One entry per *reading group*: per GPU on
    /// Lassen, per OAM (sum of 2 GCDs) on Tioga.
    pub gpu: Lanes<Watts>,
}

impl SensorReading {
    /// The node power as a client would compute it: the direct measurement
    /// when available, otherwise the conservative sum of what is visible
    /// (CPU + GPU readings — the Tioga case from the paper).
    pub fn node_power_estimate(&self) -> Watts {
        match self.node {
            Some(w) => w,
            None => {
                self.cpu.iter().copied().sum::<Watts>() + self.gpu.iter().copied().sum::<Watts>()
            }
        }
    }

    /// Sum of GPU readings.
    pub fn gpu_total(&self) -> Watts {
        self.gpu.iter().copied().sum()
    }

    /// Sum of CPU readings.
    pub fn cpu_total(&self) -> Watts {
        self.cpu.iter().copied().sum()
    }
}

/// The sensor complex of one node.
#[derive(Debug, Clone)]
pub struct Sensors {
    /// Relative 1-sigma read noise (e.g. 0.005 = 0.5 %).
    noise_rel: f64,
    /// Per-read host CPU cost.
    cost: SensorReadCost,
    /// Dedicated noise stream (decoupled from every other stochastic
    /// model so enabling/disabling sensors never perturbs them).
    rng: Xoshiro256pp,
}

impl Sensors {
    /// Build the sensor complex for an architecture. `seed` decorrelates
    /// nodes from each other.
    pub fn new(arch: &NodeArch, seed: u64) -> Sensors {
        Sensors {
            noise_rel: 0.005,
            cost: SensorReadCost::for_arch(arch),
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0x5E45_0125_u64.wrapping_mul(31)),
        }
    }

    /// Override the relative read noise (tests use 0 for exactness).
    pub fn with_noise(mut self, rel: f64) -> Sensors {
        self.noise_rel = rel.max(0.0);
        self
    }

    /// The host-CPU cost of one full read.
    pub fn read_cost(&self) -> SensorReadCost {
        self.cost
    }

    /// Perform a full sensor scan against the true draw.
    pub fn read(&mut self, arch: &NodeArch, draw: &PowerDraw) -> SensorReading {
        let t = &arch.telemetry;
        let node = if t.node_power {
            Some(self.perturb(draw.total()))
        } else {
            None
        };
        let cpu = if t.cpu_power {
            draw.cpu.iter().map(|w| self.perturb(*w)).collect()
        } else {
            Lanes::new()
        };
        let memory = if t.memory_power {
            Some(self.perturb(draw.memory))
        } else {
            None
        };
        let gpu = if t.gpu_power {
            // Group GCDs into reading units (1 on Lassen, 2 on Tioga).
            let group = t.gpus_per_reading.max(1);
            draw.gpu
                .chunks(group)
                .map(|chunk| self.perturb(chunk.iter().copied().sum()))
                .collect()
        } else {
            Lanes::new()
        };
        SensorReading {
            node,
            cpu,
            memory,
            gpu,
        }
    }

    fn perturb(&mut self, w: Watts) -> Watts {
        if self.noise_rel == 0.0 {
            return w;
        }
        let factor = 1.0 + self.noise_rel * self.rng.gaussian();
        Watts((w.get() * factor).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{lassen, tioga};
    use crate::power::{resolve, PowerDemand};

    fn draw_for(arch: &NodeArch) -> PowerDraw {
        let d = PowerDemand {
            cpu: Lanes::filled(Watts(150.0), arch.sockets),
            memory: Watts(80.0),
            gpu: Lanes::filled(Watts(200.0), arch.gpus),
            other: arch.other,
        };
        let caps = vec![None; arch.gpus];
        resolve(arch, &d, &caps, None)
    }

    #[test]
    fn lassen_reads_everything() {
        let arch = lassen();
        let mut s = Sensors::new(&arch, 1).with_noise(0.0);
        let r = s.read(&arch, &draw_for(&arch));
        assert!(r.node.is_some());
        assert!(r.memory.is_some());
        assert_eq!(r.cpu.len(), 2);
        assert_eq!(r.gpu.len(), 4);
        assert_eq!(r.node.unwrap(), draw_for(&arch).total());
    }

    #[test]
    fn tioga_reads_cpu_and_oam_only() {
        let arch = tioga();
        let mut s = Sensors::new(&arch, 1).with_noise(0.0);
        let r = s.read(&arch, &draw_for(&arch));
        assert!(r.node.is_none(), "no node sensor");
        assert!(r.memory.is_none(), "no memory sensor");
        assert_eq!(r.cpu.len(), 1);
        assert_eq!(r.gpu.len(), 4, "8 GCDs grouped into 4 OAM readings");
        // Each OAM reading covers two 200 W GCDs.
        assert_eq!(r.gpu[0], Watts(400.0));
    }

    #[test]
    fn tioga_node_estimate_is_conservative() {
        let arch = tioga();
        let mut s = Sensors::new(&arch, 1).with_noise(0.0);
        let draw = draw_for(&arch);
        let r = s.read(&arch, &draw);
        let est = r.node_power_estimate();
        assert!(
            est < draw.total(),
            "estimate {est} must undercount true {} (misses mem+other)",
            draw.total()
        );
        assert_eq!(est, r.cpu_total() + r.gpu_total());
    }

    #[test]
    fn lassen_node_estimate_is_direct() {
        let arch = lassen();
        let mut s = Sensors::new(&arch, 1).with_noise(0.0);
        let draw = draw_for(&arch);
        let r = s.read(&arch, &draw);
        assert_eq!(r.node_power_estimate(), draw.total());
    }

    #[test]
    fn noise_is_small_and_unbiased() {
        let arch = lassen();
        let mut s = Sensors::new(&arch, 7).with_noise(0.005);
        let draw = draw_for(&arch);
        let truth = draw.total().get();
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| s.read(&arch, &draw).node.unwrap().get())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - truth).abs() / truth < 0.002,
            "bias: {mean} vs {truth}"
        );
    }

    #[test]
    fn read_cost_ordering_matches_paper() {
        let l = SensorReadCost::for_arch(&lassen());
        let t = SensorReadCost::for_arch(&tioga());
        assert!(
            l.cpu_time > t.cpu_time,
            "OCC reads cost more than MSR reads"
        );
        // 6 ms per 2 s sample = 0.3 % steady-state overhead on Lassen.
        assert_eq!(l.cpu_time.as_micros(), 6_000);
        assert_eq!(t.cpu_time.as_micros(), 800);
    }

    #[test]
    fn readings_are_deterministic_per_seed() {
        let arch = lassen();
        let draw = draw_for(&arch);
        let mut a = Sensors::new(&arch, 9);
        let mut b = Sensors::new(&arch, 9);
        for _ in 0..10 {
            assert_eq!(a.read(&arch, &draw), b.read(&arch, &draw));
        }
    }
}
