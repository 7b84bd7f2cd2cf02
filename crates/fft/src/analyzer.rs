//! `FINDPERIOD`: the FPP analysis front-end, one planner + scratch +
//! spectrum set reused across every GPU and every epoch.
//!
//! [`PeriodAnalyzer`] bundles everything the per-epoch FPP analysis
//! needs — an `FftPlanner` (cached twiddle/bit-reversal/chirp/window
//! tables), an `FftScratch` arena, and a reusable `Periodogram` output —
//! behind `estimate_period`, reading from a zero-copy [`Samples`] view.
//! The node-level managers hold one analyzer per thread and walk every
//! node's 4–8 GPU controllers through it each epoch, so every analysis
//! after the first hits warm plan caches and warm buffers: the steady
//! state performs **zero allocations** (`tests/alloc_free.rs`).
//!
//! The tests check the estimate against the oracle's
//! (`tests/oracle/mod.rs`; `plan.rs` has the accuracy contract).

use crate::period::{peak_estimate, PeriodEstimate};
use crate::periodogram::Periodogram;
use crate::plan::{FftPlanner, FftScratch};
use crate::samples::Samples;

/// Reusable planned-analysis state: planner, scratch arena, and spectrum
/// buffers. Create once, share across all per-GPU analyses.
///
/// ```
/// use fluxpm_fft::{PeriodAnalyzer, Samples};
///
/// let mut analyzer = PeriodAnalyzer::new();
/// let samples: Vec<f64> = (0..120)
///     .map(|i| 250.0 + 30.0 * (2.0 * std::f64::consts::PI * (i as f64 * 0.5) / 10.0).sin())
///     .collect();
/// let est = analyzer
///     .estimate_period(Samples::contiguous(&samples), 2.0)
///     .expect("periodic signal");
/// assert!((est.period_seconds - 10.0).abs() < 0.5);
/// ```
#[derive(Debug, Default)]
pub struct PeriodAnalyzer {
    planner: FftPlanner,
    scratch: FftScratch,
    psd: Periodogram,
}

impl PeriodAnalyzer {
    /// A fresh analyzer with empty caches; everything warms on first use.
    pub fn new() -> PeriodAnalyzer {
        PeriodAnalyzer::default()
    }

    /// The dominant period of `samples` captured at `sample_rate_hz`:
    /// Hann-windowed periodogram peak with parabolic refinement, read
    /// from `samples` without copying it.
    ///
    /// Returns `None` when the signal is too short (< 8 samples), has no
    /// variance, or holds a NaN or infinite sample; when the rate is not
    /// a finite number above 0; or when the spectral peak is too weak to
    /// be meaningful (concentration below 5 %).
    pub fn estimate_period(
        &mut self,
        samples: Samples<'_>,
        sample_rate_hz: f64,
    ) -> Option<PeriodEstimate> {
        if samples.len() < 8 {
            return None;
        }
        if !Periodogram::compute_into(
            samples,
            sample_rate_hz,
            &mut self.planner,
            &mut self.scratch,
            &mut self.psd,
        ) {
            return None;
        }
        peak_estimate(&self.psd)
    }

    /// Number of distinct transform plans currently cached.
    #[cfg(test)]
    fn plans_cached(&self) -> usize {
        self.planner.plans_cached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn noisy_sine(n: usize, rate: f64, period_s: f64, noise: f64, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..n)
            .map(|i| {
                250.0
                    + 30.0 * (2.0 * std::f64::consts::PI * (i as f64 / rate) / period_s).sin()
                    + noise * next()
            })
            .collect()
    }

    #[test]
    fn planned_estimate_matches_unplanned_closely() {
        let mut a = PeriodAnalyzer::new();
        for (n, rate, period) in [(30usize, 1.0, 10.0), (90, 1.0, 12.0), (120, 2.0, 8.0)] {
            let x = noisy_sine(n, rate, period, 2.0, 42);
            let old = oracle::estimate_period(&x, rate);
            let new = a.estimate_period(Samples::contiguous(&x), rate);
            match (old, new) {
                (Some(o), Some(p)) => {
                    assert!(
                        (o.period_seconds - p.period_seconds).abs() < 1e-9,
                        "n={n}: {} vs {}",
                        o.period_seconds,
                        p.period_seconds
                    );
                    assert!((o.confidence - p.confidence).abs() < 1e-9);
                }
                (o, p) => panic!("divergent options: {o:?} vs {p:?}"),
            }
        }
    }

    #[test]
    fn wrapped_view_matches_contiguous() {
        let mut a = PeriodAnalyzer::new();
        let x = noisy_sine(90, 1.0, 9.0, 1.0, 3);
        let whole = a
            .estimate_period(Samples::contiguous(&x), 1.0)
            .expect("periodic");
        for split in [1usize, 17, 45, 89] {
            // Same logical sequence presented as two runs.
            let head = &x[..split];
            let tail = &x[split..];
            let est = a
                .estimate_period(Samples::new(head, tail), 1.0)
                .expect("periodic");
            assert_eq!(est.period_seconds.to_bits(), whole.period_seconds.to_bits());
            assert_eq!(est.confidence.to_bits(), whole.confidence.to_bits());
        }
    }

    #[test]
    fn gates_match_unplanned() {
        let mut a = PeriodAnalyzer::new();
        let x = noisy_sine(64, 2.0, 8.0, 0.0, 1);
        // Too short, flat, and every rate that is not finite and > 0.
        let mut cases = vec![(&[1.0; 6][..], 2.0), (&[300.0; 64], 2.0)];
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            cases.push((&x[..], rate));
        }
        for (samples, rate) in cases {
            assert!(oracle::estimate_period(samples, rate).is_none(), "{rate}");
            assert!(a
                .estimate_period(Samples::contiguous(samples), rate)
                .is_none());
        }
    }

    #[test]
    fn a_non_finite_sample_has_no_period() {
        let mut a = PeriodAnalyzer::new();
        let square: Vec<f64> = (0..90)
            .map(|t| {
                if (t as f64 / 10.0).fract() < 0.3 {
                    140.0
                } else {
                    55.0
                }
            })
            .collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // One bad sample in the head and in the tail of a wrapped view.
            for at in [17, 70] {
                let mut x = square.clone();
                x[at] = bad;
                let view = Samples::new(&x[..45], &x[45..]);
                assert!(a.estimate_period(view, 1.0).is_none(), "{bad} at {at}");
            }
        }
        assert!(a
            .estimate_period(Samples::contiguous(&square), 1.0)
            .is_some());
    }

    #[test]
    fn plan_cache_stops_growing() {
        let mut a = PeriodAnalyzer::new();
        let x = noisy_sine(90, 1.0, 10.0, 1.0, 5);
        a.estimate_period(Samples::contiguous(&x), 1.0);
        let after_first = a.plans_cached();
        for _ in 0..10 {
            a.estimate_period(Samples::contiguous(&x), 1.0);
        }
        assert_eq!(a.plans_cached(), after_first);
    }
}
