//! FFT accuracy regression: the radix-2 kernel's precomputed twiddle
//! tables keep it within 4e-16 of the exact DFT (relative to the largest
//! bin) at n = 1024 and 4096; it measures ~1e-16.
//!
//! Accumulating each stage's twiddle as `w *= wlen` instead compounds
//! roughly one ulp per butterfly across a stage, and at these lengths
//! that is measurable — 7e-16 at n = 1024, 2e-15 at 4096 — so the pin
//! below fails if a regression brings the accumulation back (or a table
//! is built sloppily).
//!
//! The reference is the test oracle's O(n²) DFT (`oracle/mod.rs`): exact
//! phase indexing and Kahan-compensated sums, so its own rounding error
//! at n = 4096 does not swamp what is measured.

mod oracle;

use fluxpm_fft::{Complex64, FftPlanner, FftScratch};

fn signal(n: usize) -> Vec<Complex64> {
    // Deterministic, broadband, power-trace-like: DC offset plus several
    // incommensurate tones plus LCG noise.
    let mut state = 0x5DEECE66Du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (0..n)
        .map(|i| {
            let t = i as f64;
            let re = 250.0 + 30.0 * (t * 0.0721).sin() + 11.0 * (t * 0.3117).cos() + 4.0 * next();
            let im = 2.0 * next();
            Complex64::new(re, im)
        })
        .collect()
}

/// Max absolute bin error against the reference, normalized by the
/// largest reference bin magnitude.
fn max_rel_error(got: &[Complex64], want: &[Complex64]) -> f64 {
    let scale = want.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
    got.iter()
        .zip(want.iter())
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max)
        / scale
}

#[test]
fn planned_radix2_is_tighter_than_incremental_twiddles() {
    let mut planner = FftPlanner::new();
    let mut scratch = FftScratch::new();
    let mut planned = Vec::new();
    for n in [1024usize, 4096] {
        let x = signal(n);
        planner.fft_into(&x, &mut planned, &mut scratch);
        let err_planned = max_rel_error(&planned, &oracle::dft(&x, false));
        assert!(
            err_planned < 4e-16,
            "n={n}: planned error {err_planned:.3e} exceeds pin"
        );
    }
}

#[test]
fn reference_dft_self_check() {
    // The oracle against spectra known in closed form: an impulse at t0
    // is a pure phase ramp, two tones on exact bins are two spikes, and
    // the inverse undoes the forward.
    let n = 64;
    let mut impulse = vec![Complex64::ZERO; n];
    impulse[3] = Complex64::ONE;
    for (k, z) in oracle::dft(&impulse, false).iter().enumerate() {
        let want = Complex64::cis(-2.0 * std::f64::consts::PI * (3 * k) as f64 / n as f64);
        assert!((*z - want).abs() < 1e-13, "impulse bin {k}");
    }
    let tones: Vec<Complex64> = (0..n)
        .map(|t| {
            let phase = |k: usize| 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            Complex64::cis(phase(5)).scale(2.0) + Complex64::cis(phase(40))
        })
        .collect();
    for (k, z) in oracle::dft(&tones, false).iter().enumerate() {
        let want = match k {
            5 => 2.0 * n as f64,
            40 => n as f64,
            _ => 0.0,
        };
        assert!((*z - Complex64::real(want)).abs() < 1e-12, "tone bin {k}");
    }
    let x = signal(n);
    let back = oracle::dft(&oracle::dft(&x, false), true);
    assert!(max_rel_error(&back, &x) < 1e-14);
}
