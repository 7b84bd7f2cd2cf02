//! Welch's method: averaged periodogram over overlapping segments.
//!
//! FPP's single-window periodogram is exact for clean signals; on noisy
//! power traces (shared-node jitter, sensor noise) averaging overlapped,
//! windowed segments trades frequency resolution for variance reduction.
//! [`crate::PeriodAnalyzer::welch_estimate_period`] is the drop-in
//! alternative to [`crate::PeriodAnalyzer::estimate_period`] that the
//! policy layer can select.

use crate::periodogram::Periodogram;
use crate::plan::{FftPlanner, FftScratch};
use crate::samples::Samples;
use crate::window::Window;

/// Welch PSD estimate into a reusable accumulator: segments of
/// `segment_len` samples with 50 % overlap, Hann-windowed, periodograms
/// averaged bin-wise.
///
/// `out` receives the averaged spectrum; `seg` is a second reusable
/// periodogram used as the per-segment workspace. Returns `false` (leaving
/// `out` unspecified) when fewer than one full segment of at least 8
/// samples is available or the rate is ≤ 0.
pub fn welch_into(
    samples: Samples<'_>,
    sample_rate_hz: f64,
    segment_len: usize,
    planner: &mut FftPlanner,
    scratch: &mut FftScratch,
    seg: &mut Periodogram,
    out: &mut Periodogram,
) -> bool {
    if segment_len < 8 || samples.len() < segment_len || sample_rate_hz <= 0.0 {
        return false;
    }
    let hop = (segment_len / 2).max(1);
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= samples.len() {
        let piece = samples.segment(start, segment_len);
        if segments == 0 {
            if !Periodogram::compute_into(
                piece,
                sample_rate_hz,
                Window::Hann,
                planner,
                scratch,
                out,
            ) {
                return false;
            }
        } else {
            if !Periodogram::compute_into(
                piece,
                sample_rate_hz,
                Window::Hann,
                planner,
                scratch,
                seg,
            ) {
                return false;
            }
            for (dst, src) in out.power.iter_mut().zip(seg.power.iter()) {
                *dst += *src;
            }
        }
        segments += 1;
        start += hop;
    }
    if segments == 0 {
        return false;
    }
    let k = segments as f64;
    for p in &mut out.power {
        *p /= k;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::PeriodEstimate;
    use crate::{PeriodAnalyzer, Samples};

    fn estimate(x: &[f64], rate: f64) -> Option<PeriodEstimate> {
        PeriodAnalyzer::new().estimate_period(Samples::contiguous(x), rate)
    }

    fn welch_estimate(x: &[f64], rate: f64, seg: usize) -> Option<PeriodEstimate> {
        PeriodAnalyzer::new().welch_estimate_period(Samples::contiguous(x), rate, seg)
    }

    /// The averaged spectrum through a fresh planner, `None` where
    /// `welch_into` declines.
    fn welch_psd(x: &[f64], rate: f64, segment_len: usize) -> Option<Periodogram> {
        let (mut planner, mut scratch) = (FftPlanner::new(), FftScratch::new());
        let (mut seg, mut out) = (Periodogram::empty(), Periodogram::empty());
        let view = Samples::contiguous(x);
        welch_into(
            view,
            rate,
            segment_len,
            &mut planner,
            &mut scratch,
            &mut seg,
            &mut out,
        )
        .then_some(out)
    }

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
    fn welch_finds_clean_period() {
        let x = noisy_sine(256, 2.0, 10.0, 0.0, 1);
        let est = welch_estimate(&x, 2.0, 64).expect("periodic");
        assert!(
            (est.period_seconds - 10.0).abs() < 1.0,
            "{}",
            est.period_seconds
        );
    }

    #[test]
    fn welch_tracks_noisy_period() {
        // Heavy noise: 40 W on a 30 W swing.
        let x = noisy_sine(512, 2.0, 10.0, 40.0, 7);
        let est = welch_estimate(&x, 2.0, 128).expect("recovered");
        assert!(
            (est.period_seconds - 10.0).abs() < 1.5,
            "{}",
            est.period_seconds
        );
    }

    #[test]
    fn welch_confidence_beats_single_window_under_noise() {
        // Averaged segments concentrate the peak relative to a single
        // noisy window.
        let x = noisy_sine(512, 2.0, 10.0, 40.0, 11);
        let w = welch_estimate(&x, 2.0, 128).expect("welch");
        // (A None here means the single window failed outright while
        // Welch succeeded — also a pass.)
        if let Some(s) = estimate(&x, 2.0) {
            assert!(
                w.confidence >= s.confidence * 0.9,
                "welch {} vs single {}",
                w.confidence,
                s.confidence
            );
        }
    }

    #[test]
    fn welch_short_input_rejected() {
        let x = noisy_sine(32, 2.0, 10.0, 0.0, 1);
        assert!(welch_psd(&x, 2.0, 64).is_none());
        assert!(welch_psd(&x, 2.0, 4).is_none(), "segment floor");
        assert!(welch_psd(&x, 0.0, 16).is_none());
    }

    #[test]
    fn welch_flat_signal_no_period() {
        let x = vec![300.0; 256];
        assert!(welch_estimate(&x, 2.0, 64).is_none());
    }

    #[test]
    fn segment_count_reduces_variance() {
        // Peak bin power of the averaged spectrum should be more stable
        // across seeds than single windows: compare spreads.
        fn cv(xs: &[f64]) -> f64 {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var.sqrt() / mean
        }
        let welch_peaks: Vec<f64> = (0..8u64)
            .map(|seed| {
                let x = noisy_sine(512, 2.0, 10.0, 30.0, seed + 100);
                let p = welch_psd(&x, 2.0, 64).unwrap();
                let k = p.dominant_bin().unwrap();
                p.power[k]
            })
            .collect();
        let single_peaks: Vec<f64> = (0..8u64)
            .map(|seed| {
                let x = noisy_sine(512, 2.0, 10.0, 30.0, seed + 100);
                let (mut planner, mut scratch) = (FftPlanner::new(), FftScratch::new());
                let mut p = Periodogram::empty();
                let view = Samples::contiguous(&x);
                assert!(Periodogram::compute_into(
                    view,
                    2.0,
                    Window::Hann,
                    &mut planner,
                    &mut scratch,
                    &mut p
                ));
                let k = p.dominant_bin().unwrap();
                p.power[k]
            })
            .collect();
        let cv_welch = cv(&welch_peaks);
        let cv_single = cv(&single_peaks);
        assert!(
            cv_welch <= cv_single * 1.5,
            "welch cv {cv_welch} vs single {cv_single}"
        );
    }
}
