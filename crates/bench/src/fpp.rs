//! The FPP analytics rigs stackbench (`benchmark/`) prices
//! `fft.estimate_ns` and `manager.fpp_epoch_ns` with: epoch buffers
//! analyzed by one shared [`PeriodAnalyzer`] (cached plans + scratch
//! arena).
//!
//! The per-epoch rig mirrors production shape: one node manager's
//! per-GPU controllers running single-window period detection over a
//! 90 s epoch at 1 Hz sampling, ring-backed buffers read through
//! two-slice [`Samples`] views, batched through a single analyzer.

use fluxpm_fft::{PeriodAnalyzer, Samples};
use fluxpm_monitor::RingBuffer;

/// FPP's production sampling rate: 1 Hz (`sample_period_s = 1.0`).
pub const SAMPLE_RATE_HZ: f64 = 1.0;

/// Deterministic noisy square wave — the signal class FPP sees from
/// iteration-periodic GPU workloads, LCG-seeded.
pub fn epoch_signal(n: usize, period_s: f64, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|t| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            let base = if (t as f64 / period_s).fract() < 0.3 {
                150.0
            } else {
                60.0
            };
            base + 4.0 * noise
        })
        .collect()
}

/// One planned `estimate_period` call through a shared analyzer.
pub fn planned_estimate(analyzer: &mut PeriodAnalyzer, samples: &[f64]) -> Option<f64> {
    analyzer
        .estimate_period(Samples::from(samples), SAMPLE_RATE_HZ)
        .map(|e| e.period_seconds)
}

/// Per-epoch FPP analysis rig: one node's worth of per-GPU epoch
/// buffers, wrapped `RingBuffer`s written past one full revolution so
/// every read is a genuine two-slice view.
#[derive(Debug)]
pub struct FppEpochRig {
    rings: Vec<RingBuffer<f64>>,
    analyzer: PeriodAnalyzer,
}

impl FppEpochRig {
    /// `gpus` buffers of `n` samples each.
    pub fn new(gpus: usize, n: usize, seed: u64) -> FppEpochRig {
        let mut rings = Vec::with_capacity(gpus);
        for gpu in 0..gpus {
            // Distinct period per GPU: plans for several lengths stay
            // hot at once, as in a real mixed-job node.
            let period = 9.0 + gpu as f64 * 1.5;
            let v = epoch_signal(n, period, seed.wrapping_add(gpu as u64));
            let mut ring = RingBuffer::new(n);
            // Fill 1.5 revolutions so the view wraps mid-buffer.
            for &s in v.iter().take(n / 2) {
                ring.push(s);
            }
            for &s in &v {
                ring.push(s);
            }
            rings.push(ring);
        }
        FppEpochRig {
            rings,
            analyzer: PeriodAnalyzer::new(),
        }
    }

    /// Per-epoch analysis, as `FppController::on_epoch` runs it: one
    /// `estimate_period` per GPU on a zero-copy ring view through the one
    /// shared analyzer. Returns the number of GPUs with a detected
    /// period.
    pub fn planned_epoch(&mut self) -> usize {
        let analyzer = &mut self.analyzer;
        self.rings
            .iter()
            .filter(|ring| {
                let (head, tail) = ring.as_slices();
                analyzer
                    .estimate_period(Samples::new(head, tail), SAMPLE_RATE_HZ)
                    .is_some()
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_rig_detects_every_gpu_at_the_probe_shape() {
        // stackbench's `manager.fpp_epoch_ns` shape: 4 GPUs x 90 samples.
        let mut rig = FppEpochRig::new(4, 90, 7);
        assert_eq!(rig.planned_epoch(), 4, "rig signals must be detectable");
    }
}
