//! Dominant-period estimation — the `FINDPERIOD` primitive of FPP: the
//! periodogram peak with parabolic interpolation between bins, extracted
//! here from a spectrum and run by
//! [`crate::PeriodAnalyzer::estimate_period`].
//!
//! Aperiodic (flat or monotone) signals return `None`; FPP interprets that
//! as "no detectable phase" and leaves the power cap alone.

use crate::periodogram::Periodogram;

/// Result of period estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodEstimate {
    /// Estimated dominant period, seconds.
    pub period_seconds: f64,
    /// Estimated dominant frequency, Hz.
    pub frequency_hz: f64,
    /// Fraction of non-DC spectral energy in the peak neighbourhood
    /// (0..=1); higher means a cleaner phase signal.
    pub confidence: f64,
}

/// Extract a [`PeriodEstimate`] from a computed spectrum: dominant bin,
/// concentration gate (`None` below 5 %), and parabolic interpolation
/// over log-power of the three bins around the peak to refine the
/// frequency beyond bin resolution.
pub(crate) fn peak_estimate(p: &Periodogram) -> Option<PeriodEstimate> {
    let k = p.dominant_bin()?;
    let confidence = p.peak_concentration(k);
    if confidence < 0.05 {
        return None;
    }

    let refined_k = if k > 1 && k + 1 < p.power.len() {
        let eps = 1e-30;
        let l = (p.power[k - 1] + eps).ln();
        let c = (p.power[k] + eps).ln();
        let r = (p.power[k + 1] + eps).ln();
        let denom = l - 2.0 * c + r;
        if denom.abs() > 1e-12 {
            let delta = 0.5 * (l - r) / denom;
            k as f64 + delta.clamp(-0.5, 0.5)
        } else {
            k as f64
        }
    } else {
        k as f64
    };

    let frequency_hz = p.freq_hz(refined_k);
    if frequency_hz <= 0.0 {
        return None;
    }
    Some(PeriodEstimate {
        period_seconds: 1.0 / frequency_hz,
        frequency_hz,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeriodAnalyzer, Samples};

    fn estimate(x: &[f64], rate: f64) -> Option<PeriodEstimate> {
        PeriodAnalyzer::new().estimate_period(Samples::contiguous(x), rate)
    }

    fn square_wave(n: usize, rate: f64, period_s: f64, hi: f64, lo: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                if (t / period_s).fract() < 0.5 {
                    hi
                } else {
                    lo
                }
            })
            .collect()
    }

    fn sine(n: usize, rate: f64, period_s: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                250.0 + 30.0 * (2.0 * std::f64::consts::PI * (i as f64 / rate) / period_s).sin()
            })
            .collect()
    }

    #[test]
    fn sine_period_recovered() {
        for period in [5.0, 10.0, 15.0] {
            let x = sine(120, 2.0, period);
            let est = estimate(&x, 2.0).expect("periodic");
            assert!(
                (est.period_seconds - period).abs() / period < 0.1,
                "expected {period}, got {}",
                est.period_seconds
            );
        }
    }

    #[test]
    fn square_wave_period_recovered() {
        // Quicksilver-like: square wave power swings.
        let x = square_wave(120, 2.0, 12.0, 550.0, 420.0);
        let est = estimate(&x, 2.0).expect("periodic");
        assert!(
            (est.period_seconds - 12.0).abs() < 2.0,
            "got {}",
            est.period_seconds
        );
    }

    #[test]
    fn short_fpp_window_works() {
        // FPP's real window: 30 s at 0.5 Hz internal sampling = 15 samples
        // is too coarse; FPP samples at 1 Hz inside the manager => 30
        // samples. A 10 s period must be detectable.
        let x = sine(30, 1.0, 10.0);
        let est = estimate(&x, 1.0).expect("periodic");
        assert!(
            (est.period_seconds - 10.0).abs() < 1.5,
            "got {}",
            est.period_seconds
        );
    }

    #[test]
    fn flat_signal_returns_none() {
        let x = vec![300.0; 64];
        assert!(estimate(&x, 2.0).is_none());
    }

    #[test]
    fn noisy_flat_signal_low_confidence_or_random() {
        // White noise: whatever peak exists should have low concentration.
        let mut state = 0x12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x: Vec<f64> = (0..128).map(|_| 300.0 + 2.0 * next()).collect();
        if let Some(est) = estimate(&x, 2.0) {
            assert!(est.confidence < 0.5, "noise should not look confident");
        }
    }

    #[test]
    fn noisy_periodic_signal_still_detected() {
        let mut state = 0x98765u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x: Vec<f64> = sine(120, 2.0, 10.0)
            .into_iter()
            .map(|v| v + 3.0 * next())
            .collect();
        let est = estimate(&x, 2.0).expect("period survives noise");
        assert!(
            (est.period_seconds - 10.0).abs() < 1.5,
            "got {}",
            est.period_seconds
        );
    }

    #[test]
    fn too_short_returns_none() {
        let x = sine(6, 2.0, 3.0);
        assert!(estimate(&x, 2.0).is_none());
    }

    #[test]
    fn confidence_orders_clean_vs_noisy() {
        let clean = sine(120, 2.0, 10.0);
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let noisy: Vec<f64> = clean.iter().map(|v| v + 20.0 * next()).collect();
        let c_clean = estimate(&clean, 2.0).unwrap().confidence;
        let c_noisy = estimate(&noisy, 2.0).map(|e| e.confidence).unwrap_or(0.0);
        assert!(c_clean > c_noisy, "clean {c_clean} vs noisy {c_noisy}");
    }
}
