//! The test oracle for the one FFT path: the DFT and FPP's
//! `FINDPERIOD` written down the slow, obvious way, with nothing of the
//! planned kernels in it.
//!
//! * [`dft`] — O(n²), each phase indexed exactly (`k·t mod n` into a
//!   phasor table) and each bin summed with Kahan compensation: accurate
//!   enough to be ground truth at n = 4096;
//! * [`periodogram`], [`peak`] and [`estimate_period`] — the period
//!   estimate on top of it: mean removed, Hann taper, one-sided power,
//!   strongest non-DC bin, the share of energy around it, parabolic
//!   refinement over log power, and the 5 % gate ([`period_peak`]: before
//!   the gate).
//!
//! `fluxpm-fft`'s unit tests, its integration tests and
//! `fluxpm-manager`'s `fpp_equivalence.rs` include this file with
//! `#[path]`; each brings `Complex64` into scope, which the oracle reads
//! as `super::Complex64`.

#![allow(dead_code)] // every includer uses a different part

use super::Complex64;
use std::f64::consts::PI;

/// The DFT of `x`; `inverse` conjugates the phasors and scales by 1/n.
pub fn dft(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let table: Vec<Complex64> = (0..n)
        .map(|j| Complex64::cis(sign * 2.0 * PI * j as f64 / n as f64))
        .collect();
    (0..n)
        .map(|k| {
            let (mut re, mut im, mut c_re, mut c_im) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (t, &v) in x.iter().enumerate() {
                let z = v * table[k * t % n];
                // Kahan: y = z - c; s = sum + y; c = (s - sum) - y.
                let y = z.re - c_re;
                let s = re + y;
                c_re = (s - re) - y;
                re = s;
                let y = z.im - c_im;
                let s = im + y;
                c_im = (s - im) - y;
                im = s;
            }
            if inverse {
                Complex64::new(re / n as f64, im / n as f64)
            } else {
                Complex64::new(re, im)
            }
        })
        .collect()
}

/// One-sided power of `x` captured at `rate` Hz: mean removed, Hann
/// taper, `|X_k|²` over the squared taper sum, interior bins doubled.
/// `None` below 4 samples or at a rate that is not a finite number
/// above 0.
pub fn periodogram(x: &[f64], rate: f64) -> Option<Vec<f64>> {
    let n = x.len();
    if n < 4 || !(rate.is_finite() && rate > 0.0) {
        return None;
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    let hann = |i: usize| 0.5 - 0.5 * (2.0 * PI * i as f64 / (n - 1) as f64).cos();
    let tapered: Vec<Complex64> = x
        .iter()
        .enumerate()
        .map(|(i, v)| Complex64::real((v - mean) * hann(i)))
        .collect();
    let gain: f64 = (0..n).map(hann).sum();
    let spectrum = dft(&tapered, false);
    let power = (0..=n / 2).map(|k| {
        let p = spectrum[k].norm_sqr() / (gain * gain);
        if k == 0 || 2 * k == n {
            p
        } else {
            2.0 * p
        }
    });
    Some(power.collect())
}

/// A spectrum's dominant period.
#[derive(Debug, Clone, Copy)]
pub struct Peak {
    /// Seconds.
    pub period_seconds: f64,
    /// Share of the non-DC energy in the peak bin and its neighbours.
    pub confidence: f64,
}

/// FPP's confidence gate: a peak with less of the energy is no period.
pub const MIN_CONFIDENCE: f64 = 0.05;

/// The peak of a one-sided `power` spectrum of `n` samples at `rate`
/// Hz, before the confidence gate; `None` when the non-DC energy is not
/// a finite amount above `f64::EPSILON`.
pub fn peak(power: &[f64], n: usize, rate: f64) -> Option<Peak> {
    let total: f64 = power[1..].iter().sum();
    if !total.is_finite() || total <= f64::EPSILON {
        return None;
    }
    // The strongest non-DC bin, the last of equals.
    let k = (1..power.len()).fold(1, |best, i| if power[i] >= power[best] { i } else { best });
    let (lo, hi) = ((k - 1).max(1), (k + 1).min(power.len() - 1));
    let confidence = power[lo..=hi].iter().sum::<f64>() / total;
    let ln = |i: usize| (power[i] + 1e-30).ln();
    let mut bin = k as f64;
    if k > 1 && k + 1 < power.len() {
        let denom = ln(k - 1) - 2.0 * ln(k) + ln(k + 1);
        if denom.abs() > 1e-12 {
            bin += (0.5 * (ln(k - 1) - ln(k + 1)) / denom).clamp(-0.5, 0.5);
        }
    }
    Some(Peak {
        period_seconds: n as f64 / (bin * rate),
        confidence,
    })
}

/// The peak of one window's periodogram, from 8 samples up.
pub fn period_peak(x: &[f64], rate: f64) -> Option<Peak> {
    if x.len() < 8 {
        return None;
    }
    peak(&periodogram(x, rate)?, x.len(), rate)
}

/// `FINDPERIOD` on one window: [`period_peak`] through the gate.
pub fn estimate_period(x: &[f64], rate: f64) -> Option<Peak> {
    period_peak(x, rate).filter(|p| p.confidence >= MIN_CONFIDENCE)
}
