//! DFT properties of the planned transform FPP runs — the forward real
//! FFT (`FftPlanner::rfft_into`: radix-2 or Bluestein) and the radix-2
//! passes under it — on their own and against the test oracle
//! (`tests/oracle/mod.rs`).

use crate::plan::{FftPlanner, FftScratch};
use crate::Complex64;

/// The forward real FFT through a fresh planner.
fn rfft(x: &[f64]) -> Vec<Complex64> {
    let mut out = Vec::new();
    FftPlanner::default().rfft_into(x, &mut out, &mut FftScratch::default());
    out
}

mod tests {
    use super::rfft;
    use crate::oracle;
    use crate::plan::Radix2Plan;
    use crate::Complex64;

    /// The radix-2 passes over a complex power-of-two-length input:
    /// forward, or inverse scaled by 1/n.
    fn radix2(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let mut buf = x.to_vec();
        Radix2Plan::new(x.len()).process(&mut buf, inverse);
        if inverse {
            let inv_n = 1.0 / x.len() as f64;
            buf.iter_mut().for_each(|z| *z = z.scale(inv_n));
        }
        buf
    }

    fn as_complex(x: &[f64]) -> Vec<Complex64> {
        x.iter().map(|&v| Complex64::real(v)).collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "bin {i}: {x:?} vs {y:?} (|diff|={})",
                (*x - *y).abs()
            );
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin() + 0.3, (i as f64 * 1.3).cos()))
            .collect()
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.3 + (i as f64 * 1.3).cos())
            .collect()
    }

    /// Deterministic, broadband, power-trace-like: DC offset plus several
    /// incommensurate tones plus LCG noise.
    fn power_like_signal(n: usize) -> Vec<Complex64> {
        let mut state = 0x5DEECE66Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..n)
            .map(|i| {
                let t = i as f64;
                let re =
                    250.0 + 30.0 * (t * 0.0721).sin() + 11.0 * (t * 0.3117).cos() + 4.0 * next();
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
    fn impulse_has_flat_spectrum() {
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        for z in rfft(&x) {
            assert!((z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let spec = rfft(&[2.0; 16]);
        assert!((spec[0] - Complex64::real(32.0)).abs() < 1e-9);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_hits_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        for (k, z) in radix2(&x, false).iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f64).abs() < 1e-8);
            } else {
                assert!(z.abs() < 1e-8, "leak in bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn round_trip_power_of_two() {
        let x = signal(128);
        let back = radix2(&radix2(&x, false), true);
        assert_close(&back, &x, 1e-10);
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        let x = real_signal(32);
        assert_close(&rfft(&x), &oracle::dft(&as_complex(&x), false), 1e-9);
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [6usize, 15, 21, 50, 90] {
            let x = real_signal(n);
            assert_close(&rfft(&x), &oracle::dft(&as_complex(&x), false), 1e-8);
        }
    }

    #[test]
    fn linearity() {
        let x = real_signal(24);
        let y: Vec<f64> = x.iter().map(|v| 0.5 * v + 1.0).collect();
        let lhs: Vec<f64> = x.iter().zip(y.iter()).map(|(a, b)| 2.0 * a + b).collect();
        let expect: Vec<Complex64> = rfft(&x)
            .iter()
            .zip(rfft(&y).iter())
            .map(|(a, b)| a.scale(2.0) + *b)
            .collect();
        assert_close(&rfft(&lhs), &expect, 1e-8);
    }

    #[test]
    fn parseval_energy_conservation() {
        for n in [16usize, 30] {
            let x = real_signal(n);
            let time_energy: f64 = x.iter().map(|v| v * v).sum();
            let freq_energy: f64 = rfft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
        }
    }

    #[test]
    fn rfft_conjugate_symmetry() {
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin() + 1.0).collect();
        let spec = rfft(&x);
        let n = spec.len();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).abs() < 1e-8, "bin {k} not conjugate-symmetric");
        }
    }

    #[test]
    fn tiny_inputs() {
        assert!(rfft(&[]).is_empty());
        let one = rfft(&[3.0]);
        assert_eq!(one.len(), 1);
        assert!((one[0] - Complex64::real(3.0)).abs() < 1e-12);
        let one = radix2(&[Complex64::new(3.0, 1.0)], true);
        assert_eq!(one.len(), 1);
        assert!((one[0] - Complex64::new(3.0, 1.0)).abs() < 1e-12);
    }

    /// The radix-2 kernel's precomputed twiddle tables keep it within
    /// 4e-16 of the exact DFT (relative to the largest bin) at n = 1024
    /// and 4096; it measures ~1e-16. Accumulating each stage's twiddle as
    /// `w *= wlen` instead compounds roughly one ulp per butterfly across
    /// a stage, and at these lengths that is measurable — 7e-16 at
    /// n = 1024, 2e-15 at 4096 — so the pin fails if a regression brings
    /// the accumulation back (or a table is built sloppily). The oracle's
    /// exact phase indexing and Kahan-compensated sums keep its own
    /// rounding error at n = 4096 from swamping what is measured.
    #[test]
    fn planned_radix2_is_tighter_than_incremental_twiddles() {
        for n in [1024usize, 4096] {
            let x = power_like_signal(n);
            let err_planned = max_rel_error(&radix2(&x, false), &oracle::dft(&x, false));
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
        let x = power_like_signal(n);
        let back = oracle::dft(&oracle::dft(&x, false), true);
        assert!(max_rel_error(&back, &x) < 1e-14);
    }
}

mod proptests {
    use super::rfft;
    use crate::oracle;
    use crate::plan::{FftPlanner, FftScratch, Radix2Plan};
    use crate::Complex64;
    use proptest::prelude::*;

    fn real_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1e3f64..1e3, 1..max_len)
    }

    fn complex_vec(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
        prop::collection::vec(
            (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex64::new(re, im)),
            1..max_len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The real transform agrees with the O(n^2) DFT.
        #[test]
        fn matches_naive(xs in real_vec(96)) {
            let fast = rfft(&xs);
            let complex: Vec<Complex64> = xs.iter().map(|&v| Complex64::real(v)).collect();
            let slow = oracle::dft(&complex, false);
            let scale = xs.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
            for (a, b) in fast.iter().zip(slow.iter()) {
                prop_assert!((*a - *b).abs() < 1e-8 * scale, "{a:?} vs {b:?}");
            }
        }

        /// Parseval: time-domain energy equals frequency-domain energy / n.
        #[test]
        fn parseval(xs in real_vec(150)) {
            let n = xs.len() as f64;
            let te: f64 = xs.iter().map(|v| v * v).sum();
            let fe: f64 = rfft(&xs).iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
            prop_assert!((te - fe).abs() <= 1e-7 * te.max(1.0));
        }

        /// The radix-2 passes agree with the oracle in both directions
        /// (the inverse is unscaled: Bluestein folds 1/m into its kernel)
        /// for arbitrary values, at the largest power-of-two length that
        /// fits the drawn vector.
        #[test]
        fn planned_fft_matches_unplanned(x in complex_vec(160)) {
            let x = &x[..1 << x.len().ilog2()];
            let n = x.len() as f64;
            let plan = Radix2Plan::new(x.len());
            let scale = x.iter().map(|z| z.abs()).sum::<f64>().max(1.0);

            let mut out = x.to_vec();
            plan.process(&mut out, false);
            for (a, b) in out.iter().zip(oracle::dft(x, false).iter()) {
                prop_assert!((*a - *b).abs() < 1e-12 * scale, "fwd {a:?} vs {b:?}");
            }
            let mut out = x.to_vec();
            plan.process(&mut out, true);
            for (a, b) in out.iter().zip(oracle::dft(x, true).iter()) {
                prop_assert!((a.scale(1.0 / n) - *b).abs() < 1e-12 * scale, "inv {a:?} vs {b:?}");
            }
        }

        /// The real-input transform agrees with the oracle, on one planner
        /// whose caches serve every length.
        #[test]
        fn planned_rfft_matches_unplanned(xs in real_vec(200)) {
            let mut planner = FftPlanner::default();
            let mut scratch = FftScratch::default();
            let mut out = Vec::new();
            let scale = xs.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
            planner.rfft_into(&xs, &mut out, &mut scratch);
            let complex: Vec<Complex64> = xs.iter().map(|&v| Complex64::real(v)).collect();
            for (a, b) in out.iter().zip(oracle::dft(&complex, false).iter()) {
                prop_assert!((*a - *b).abs() < 1e-12 * scale, "{a:?} vs {b:?}");
            }
        }
    }
}
