//! Periodogram: single-window power spectral density estimate.
//!
//! The estimator removes the sample mean (power signals have a huge DC
//! component — a GPU drawing 250 W with a ±30 W swing would otherwise bury
//! the phase peak under DC leakage), applies a taper, runs the real FFT,
//! and exposes the one-sided power spectrum with physical frequencies.

use crate::plan::{FftPlanner, FftScratch};
use crate::samples::Samples;
use crate::window::Window;

/// One-sided power spectrum of a real signal.
#[derive(Debug, Clone, Default)]
pub struct Periodogram {
    /// Power at each retained bin (`k = 0 ..= n/2`).
    pub power: Vec<f64>,
    /// Frequency (Hz) of each bin.
    pub freq_hz: Vec<f64>,
    /// Sample rate the signal was captured at.
    pub sample_rate_hz: f64,
    /// Length of the analysis window in samples.
    pub n: usize,
}

impl Periodogram {
    /// An empty spectrum, for use as the reusable output of
    /// [`Periodogram::compute_into`] — its vectors grow on first use and
    /// keep their capacity across calls.
    pub fn empty() -> Periodogram {
        Periodogram {
            power: Vec::new(),
            freq_hz: Vec::new(),
            sample_rate_hz: 0.0,
            n: 0,
        }
    }

    /// The periodogram of `samples` captured at `sample_rate_hz`, into a
    /// reusable output, reading straight from a (possibly two-run)
    /// [`Samples`] view.
    ///
    /// The mean is subtracted before windowing, and the power is
    /// normalized so a unit-amplitude sinusoid yields window-independent
    /// peak power: `|X_k|²` divided by `(n · coherent gain)²`, interior
    /// bins doubled (one-sided spectrum). Returns `false` (leaving `out`
    /// unspecified) for fewer than 4 samples or a rate ≤ 0.
    pub fn compute_into(
        samples: Samples<'_>,
        sample_rate_hz: f64,
        window: Window,
        planner: &mut FftPlanner,
        scratch: &mut FftScratch,
        out: &mut Periodogram,
    ) -> bool {
        let n = samples.len();
        if n < 4 || sample_rate_hz <= 0.0 {
            return false;
        }
        let mean = samples.mean();

        // Mean-remove and window into the reusable real buffer.
        let mut re = std::mem::take(&mut scratch.re);
        re.clear();
        if matches!(window, Window::Rectangular) {
            re.extend(samples.iter().map(|x| x - mean));
        } else {
            let table = planner.window(window, n);
            re.extend(
                samples
                    .iter()
                    .zip(table.coeffs().iter())
                    .map(|(x, &c)| (x - mean) * c),
            );
        }
        let mut spec = std::mem::take(&mut scratch.spec);
        planner.rfft_into(&re, &mut spec, scratch);
        scratch.re = re;

        let half = n / 2;
        let gain = planner.window(window, n).coherent_gain() * n as f64;
        out.power.clear();
        out.freq_hz.clear();
        out.power.reserve(half + 1);
        out.freq_hz.reserve(half + 1);
        for (k, z) in spec.iter().take(half + 1).enumerate() {
            let mut p = z.norm_sqr() / (gain * gain);
            if k != 0 && !(n.is_multiple_of(2) && k == half) {
                p *= 2.0;
            }
            out.power.push(p);
            out.freq_hz.push(k as f64 * sample_rate_hz / n as f64);
        }
        out.sample_rate_hz = sample_rate_hz;
        out.n = n;
        scratch.spec = spec;
        true
    }

    /// Index of the strongest non-DC bin (the last of equals), or `None`
    /// if the spectrum is essentially flat (signal had no variance) or
    /// not finite (a NaN or infinite sample).
    pub fn dominant_bin(&self) -> Option<usize> {
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
    pub fn peak_concentration(&self, bin: usize) -> f64 {
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
    fn compute(samples: &[f64], rate: f64, window: Window) -> Option<Periodogram> {
        let mut out = Periodogram::empty();
        let (mut planner, mut scratch) = (FftPlanner::new(), FftScratch::new());
        let view = Samples::contiguous(samples);
        Periodogram::compute_into(view, rate, window, &mut planner, &mut scratch, &mut out)
            .then_some(out)
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
        let p = compute(&x, 2.0, Window::Hann).unwrap();
        let k = p.dominant_bin().unwrap();
        let f = p.freq_hz[k];
        assert!((f - 0.1).abs() < 0.02, "expected ~0.1 Hz, got {f}");
    }

    #[test]
    fn dc_heavy_signal_still_resolves() {
        let x = sine(64, 2.0, 8.0, 1.0, 1000.0);
        let p = compute(&x, 2.0, Window::Hann).unwrap();
        let k = p.dominant_bin().unwrap();
        assert!((p.freq_hz[k] - 0.125).abs() < 0.03);
    }

    #[test]
    fn flat_signal_has_no_dominant_bin() {
        let x = vec![300.0; 32];
        let p = compute(&x, 2.0, Window::Hann).unwrap();
        assert!(p.dominant_bin().is_none());
    }

    #[test]
    fn too_short_returns_none() {
        assert!(compute(&[1.0, 2.0, 3.0], 2.0, Window::Hann).is_none());
        assert!(compute(&[1.0; 10], 0.0, Window::Hann).is_none());
    }

    #[test]
    fn bin_frequencies_are_linear() {
        let x = sine(50, 4.0, 5.0, 1.0, 0.0);
        let p = compute(&x, 4.0, Window::Rectangular).unwrap();
        assert_eq!(p.freq_hz[0], 0.0);
        assert!((p.freq_hz[1] - 4.0 / 50.0).abs() < 1e-12);
        assert!((p.freq_hz.last().unwrap() - 2.0).abs() < 0.1);
    }

    #[test]
    fn peak_power_roughly_amplitude_squared_over_four() {
        // For a pure sine of amplitude A, the one-sided peak power should
        // be close to A^2/2 spread over the peak bins; with an exact bin
        // hit and rectangular window it is exactly A^2/2... our normalizer
        // gives A^2/2 at the bin.
        let n = 64;
        let rate = 2.0;
        // Choose a period that lands exactly on a bin: bin 8 -> f = 0.25 Hz.
        let x = sine(n, rate, 4.0, 6.0, 100.0);
        let p = compute(&x, rate, Window::Rectangular).unwrap();
        let k = p.dominant_bin().unwrap();
        assert!((p.power[k] - 18.0).abs() < 1.0, "got {}", p.power[k]);
    }

    #[test]
    fn peak_concentration_high_for_pure_tone() {
        let x = sine(128, 2.0, 8.0, 5.0, 0.0);
        let p = compute(&x, 2.0, Window::Hann).unwrap();
        let k = p.dominant_bin().unwrap();
        assert!(p.peak_concentration(k) > 0.9);
    }
}
