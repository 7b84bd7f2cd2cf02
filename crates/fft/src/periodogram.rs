//! Periodogram: single-window power spectral density estimate.
//!
//! The estimator removes the sample mean (power signals have a huge DC
//! component — a GPU drawing 250 W with a ±30 W swing would otherwise bury
//! the phase peak under DC leakage), applies the Hann taper, runs the real
//! FFT, and exposes the one-sided power spectrum.

use crate::plan::{FftPlanner, FftScratch};
use crate::samples::Samples;

/// One-sided power spectrum of a real signal.
#[derive(Debug, Clone, Default)]
pub(crate) struct Periodogram {
    /// Power at each retained bin (`k = 0 ..= n/2`).
    pub(crate) power: Vec<f64>,
    /// Sample rate the signal was captured at.
    pub(crate) sample_rate_hz: f64,
    /// Length of the analysis window in samples.
    pub(crate) n: usize,
}

impl Periodogram {
    /// The periodogram of `samples` captured at `sample_rate_hz`, into a
    /// reusable output, reading straight from a (possibly two-run)
    /// [`Samples`] view.
    ///
    /// The mean is subtracted before the Hann taper, and the power is
    /// normalized so the taper does not scale a sinusoid's peak power:
    /// `|X_k|²` divided by `(n · coherent gain)²`, interior
    /// bins doubled (one-sided spectrum). Returns `false` (leaving `out`
    /// unspecified) for fewer than 4 samples or a rate that is not a
    /// finite number above 0.
    pub(crate) fn compute_into(
        samples: Samples<'_>,
        sample_rate_hz: f64,
        planner: &mut FftPlanner,
        scratch: &mut FftScratch,
        out: &mut Periodogram,
    ) -> bool {
        let n = samples.len();
        if n < 4 || !(sample_rate_hz.is_finite() && sample_rate_hz > 0.0) {
            return false;
        }
        let mean = samples.mean();

        // Mean-remove and taper into the reusable real buffer.
        let window = planner.window(n);
        let mut re = std::mem::take(&mut scratch.re);
        re.clear();
        re.extend(
            samples
                .iter()
                .zip(window.coeffs().iter())
                .map(|(x, &c)| (x - mean) * c),
        );
        let mut spec = std::mem::take(&mut scratch.spec);
        planner.rfft_into(&re, &mut spec, scratch);
        scratch.re = re;

        let half = n / 2;
        let gain = window.coherent_gain() * n as f64;
        out.power.clear();
        out.power.reserve(half + 1);
        for (k, z) in spec.iter().take(half + 1).enumerate() {
            let mut p = z.norm_sqr() / (gain * gain);
            if k != 0 && !(n.is_multiple_of(2) && k == half) {
                p *= 2.0;
            }
            out.power.push(p);
        }
        out.sample_rate_hz = sample_rate_hz;
        out.n = n;
        scratch.spec = spec;
        true
    }

    /// The frequency (Hz) of the possibly fractional bin `k`.
    pub(crate) fn freq_hz(&self, k: f64) -> f64 {
        k * self.sample_rate_hz / self.n as f64
    }

    /// Index of the strongest non-DC bin (the last of equals), or `None`
    /// if the spectrum is essentially flat (signal had no variance) or
    /// not finite (a NaN or infinite sample).
    pub(crate) fn dominant_bin(&self) -> Option<usize> {
        self.non_dc_energy()?;
        // Every bin is finite here, so `total_cmp` is the numeric order.
        self.power
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
    }

    /// Fraction of (non-DC) spectral energy concentrated in the given bin
    /// and its immediate neighbours — a crude peak-significance measure;
    /// 0 for a flat or non-finite spectrum.
    pub(crate) fn peak_concentration(&self, bin: usize) -> f64 {
        let Some(total) = self.non_dc_energy() else {
            return 0.0;
        };
        let lo = bin.saturating_sub(1).max(1);
        let hi = (bin + 1).min(self.power.len() - 1);
        self.power[lo..=hi].iter().sum::<f64>() / total
    }

    /// Total non-DC power, when it is finite and above `f64::EPSILON`.
    fn non_dc_energy(&self) -> Option<f64> {
        let total: f64 = self.power.iter().skip(1).sum();
        (total.is_finite() && total > f64::EPSILON).then_some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The periodogram through a fresh planner, `None` where
    /// `compute_into` declines.
    fn compute(samples: &[f64], rate: f64) -> Option<Periodogram> {
        let mut out = Periodogram::default();
        let (mut planner, mut scratch) = (FftPlanner::default(), FftScratch::default());
        let view = Samples::contiguous(samples);
        Periodogram::compute_into(view, rate, &mut planner, &mut scratch, &mut out).then_some(out)
    }

    fn sine(n: usize, rate: f64, period_s: f64, amp: f64, dc: f64) -> Vec<f64> {
        (0..n)
            .map(|i| dc + amp * (2.0 * std::f64::consts::PI * (i as f64 / rate) / period_s).sin())
            .collect()
    }

    #[test]
    fn finds_sine_frequency() {
        // 10 s period at 2 Hz sampling, 128 samples (64 s).
        let x = sine(128, 2.0, 10.0, 30.0, 250.0);
        let p = compute(&x, 2.0).unwrap();
        let k = p.dominant_bin().unwrap();
        let f = p.freq_hz(k as f64);
        assert!((f - 0.1).abs() < 0.02, "expected ~0.1 Hz, got {f}");
    }

    #[test]
    fn dc_heavy_signal_still_resolves() {
        let x = sine(64, 2.0, 8.0, 1.0, 1000.0);
        let p = compute(&x, 2.0).unwrap();
        let k = p.dominant_bin().unwrap();
        assert!((p.freq_hz(k as f64) - 0.125).abs() < 0.03);
    }

    #[test]
    fn flat_signal_has_no_dominant_bin() {
        let x = vec![300.0; 32];
        let p = compute(&x, 2.0).unwrap();
        assert!(p.dominant_bin().is_none());
    }

    #[test]
    fn too_short_returns_none() {
        assert!(compute(&[1.0, 2.0, 3.0], 2.0).is_none());
        assert!(compute(&[1.0; 10], 0.0).is_none());
    }

    #[test]
    fn bin_frequencies_are_linear() {
        let x = sine(50, 4.0, 5.0, 1.0, 0.0);
        let p = compute(&x, 4.0).unwrap();
        assert_eq!(p.freq_hz(0.0), 0.0);
        assert!((p.freq_hz(1.0) - 4.0 / 50.0).abs() < 1e-12);
        let last = (p.power.len() - 1) as f64;
        assert!((p.freq_hz(last) - 2.0).abs() < 0.1);
    }

    #[test]
    fn peak_power_roughly_amplitude_squared_over_four() {
        // For a pure sine of amplitude A on an exact bin, the coherent-gain
        // normalizer puts close to A^2/2 in that bin under the Hann taper.
        let n = 64;
        let rate = 2.0;
        // Choose a period that lands exactly on a bin: bin 8 -> f = 0.25 Hz.
        let x = sine(n, rate, 4.0, 6.0, 100.0);
        let p = compute(&x, rate).unwrap();
        let k = p.dominant_bin().unwrap();
        assert!((p.power[k] - 18.0).abs() < 1.0, "got {}", p.power[k]);
    }

    #[test]
    fn peak_concentration_high_for_pure_tone() {
        let x = sine(128, 2.0, 8.0, 5.0, 0.0);
        let p = compute(&x, 2.0).unwrap();
        let k = p.dominant_bin().unwrap();
        assert!(p.peak_concentration(k) > 0.9);
    }
}
