//! DFT properties of [`crate::FftPlanner`]'s transforms, on their own
//! and against the test oracle (`tests/oracle/mod.rs`).

mod tests {
    use crate::oracle;
    use crate::{Complex64, FftPlanner, FftScratch};

    fn fft(x: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        FftPlanner::new().fft_into(x, &mut out, &mut FftScratch::new());
        out
    }

    fn ifft(x: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        FftPlanner::new().ifft_into(x, &mut out, &mut FftScratch::new());
        out
    }

    fn rfft(x: &[f64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        FftPlanner::new().rfft_into(x, &mut out, &mut FftScratch::new());
        out
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

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let spec = fft(&x);
        for z in spec {
            assert!((z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let x = vec![Complex64::real(2.0); 16];
        let spec = fft(&x);
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
        let spec = fft(&x);
        for (k, z) in spec.iter().enumerate() {
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
        let back = ifft(&fft(&x));
        assert_close(&back, &x, 1e-10);
    }

    #[test]
    fn round_trip_arbitrary_lengths() {
        for n in [3usize, 5, 7, 12, 15, 30, 100, 117] {
            let x = signal(n);
            let back = ifft(&fft(&x));
            assert_close(&back, &x, 1e-8);
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        let x = signal(32);
        assert_close(&fft(&x), &oracle::dft(&x, false), 1e-9);
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [6usize, 15, 21, 50] {
            let x = signal(n);
            assert_close(&fft(&x), &oracle::dft(&x, false), 1e-8);
        }
    }

    #[test]
    fn linearity() {
        let x = signal(24);
        let y: Vec<Complex64> = signal(24)
            .iter()
            .map(|z| z.scale(0.5) + Complex64::I)
            .collect();
        let lhs: Vec<Complex64> = x
            .iter()
            .zip(y.iter())
            .map(|(a, b)| a.scale(2.0) + *b)
            .collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let expect: Vec<Complex64> = fx
            .iter()
            .zip(fy.iter())
            .map(|(a, b)| a.scale(2.0) + *b)
            .collect();
        assert_close(&fft(&lhs), &expect, 1e-8);
    }

    #[test]
    fn parseval_energy_conservation() {
        for n in [16usize, 30] {
            let x = signal(n);
            let spec = fft(&x);
            let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
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
        assert!(ifft(&[]).is_empty());
        assert!(rfft(&[]).is_empty());
        let one = ifft(&[Complex64::new(3.0, 1.0)]);
        assert_eq!(one.len(), 1);
        assert!((one[0] - Complex64::new(3.0, 1.0)).abs() < 1e-12);
        let one = rfft(&[3.0]);
        assert_eq!(one.len(), 1);
        assert!((one[0] - Complex64::real(3.0)).abs() < 1e-12);
    }
}
