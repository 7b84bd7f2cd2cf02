//! Per-component energy integration.
//!
//! The experiment harness reports per-node and per-job energy (paper
//! Tables II–IV); this meter integrates piecewise-constant power draw over
//! simulated time.

use crate::power::PowerDraw;
use crate::units::{Joules, Watts};

/// Accumulated energy per component group, plus peak-power tracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// Total node energy.
    pub total: Joules,
    /// CPU (all sockets).
    pub cpu: Joules,
    /// Memory subsystem.
    pub memory: Joules,
    /// GPUs (all devices).
    pub gpu: Joules,
    /// Board/uncore.
    pub other: Joules,
    /// Seconds integrated so far.
    pub elapsed_seconds: f64,
    /// Highest instantaneous node draw seen.
    pub peak: Watts,
}

impl EnergyMeter {
    /// A fresh meter.
    pub fn new() -> EnergyMeter {
        EnergyMeter::default()
    }

    /// Integrate `draw` held constant for `dt_seconds`.
    pub fn accumulate(&mut self, draw: &PowerDraw, dt_seconds: f64) {
        if dt_seconds <= 0.0 {
            return;
        }
        let cpu: Watts = draw.cpu.iter().copied().sum();
        let gpu: Watts = draw.gpu.iter().copied().sum();
        self.cpu += cpu.over_seconds(dt_seconds);
        self.gpu += gpu.over_seconds(dt_seconds);
        self.memory += draw.memory.over_seconds(dt_seconds);
        self.other += draw.other.over_seconds(dt_seconds);
        let total = draw.total();
        self.total += total.over_seconds(dt_seconds);
        self.elapsed_seconds += dt_seconds;
        self.peak = self.peak.max(total);
    }

    /// Average node power over the integrated interval.
    pub fn average_power(&self) -> Watts {
        self.total.average_over(self.elapsed_seconds)
    }

    /// Reset all accumulators.
    pub fn reset(&mut self) {
        *self = EnergyMeter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::lassen;
    use crate::power::{resolve, PowerDemand};

    fn draw(cpu: f64, gpu: f64) -> PowerDraw {
        let a = lassen();
        let d = PowerDemand {
            cpu: [Watts(cpu); 2].into(),
            memory: Watts(80.0),
            gpu: [Watts(gpu); 4].into(),
            other: a.other,
        };
        resolve(&a, &d, &[None; 4], None)
    }

    #[test]
    fn component_sums_match_total() {
        let mut m = EnergyMeter::new();
        m.accumulate(&draw(150.0, 260.0), 10.0);
        let parts = m.cpu + m.gpu + m.memory + m.other;
        assert!((parts.get() - m.total.get()).abs() < 1e-9);
        assert_eq!(m.elapsed_seconds, 10.0);
    }

    #[test]
    fn average_power_is_energy_over_time() {
        let mut m = EnergyMeter::new();
        let d = draw(150.0, 260.0);
        m.accumulate(&d, 5.0);
        m.accumulate(&d, 5.0);
        assert!(m.average_power().approx_eq(d.total(), 1e-9));
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut m = EnergyMeter::new();
        m.accumulate(&draw(100.0, 150.0), 1.0);
        let high = draw(190.0, 300.0);
        m.accumulate(&high, 1.0);
        m.accumulate(&draw(60.0, 50.0), 1.0);
        assert_eq!(m.peak, high.total());
    }

    #[test]
    fn zero_or_negative_dt_ignored() {
        let mut m = EnergyMeter::new();
        m.accumulate(&draw(150.0, 260.0), 0.0);
        m.accumulate(&draw(150.0, 260.0), -1.0);
        assert_eq!(m, EnergyMeter::new());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = EnergyMeter::new();
        m.accumulate(&draw(150.0, 260.0), 3.0);
        m.reset();
        assert_eq!(m.total, Joules::ZERO);
        assert_eq!(m.peak, Watts::ZERO);
    }
}
