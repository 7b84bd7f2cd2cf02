//! Property-based tests for the FFT crate, on its own and against the
//! test oracle (`oracle/mod.rs`).

mod oracle;

use fluxpm_fft::{Complex64, FftPlanner, FftScratch, PeriodAnalyzer, Samples};
use proptest::prelude::*;

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

fn complex_vec(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex64::new(re, im)),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ifft(fft(x)) == x for arbitrary lengths and values.
    #[test]
    fn round_trip(x in complex_vec(200)) {
        let back = ifft(&fft(&x));
        let scale = x.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        for (a, b) in back.iter().zip(x.iter()) {
            prop_assert!((*a - *b).abs() < 1e-7 * scale);
        }
    }

    /// The fast path agrees with the O(n^2) DFT.
    #[test]
    fn matches_naive(x in complex_vec(96)) {
        let fast = fft(&x);
        let slow = oracle::dft(&x, false);
        let scale = x.iter().map(|z| z.abs()).sum::<f64>().max(1.0);
        for (a, b) in fast.iter().zip(slow.iter()) {
            prop_assert!((*a - *b).abs() < 1e-8 * scale, "{a:?} vs {b:?}");
        }
    }

    /// Parseval: time-domain energy equals frequency-domain energy / n.
    #[test]
    fn parseval(x in complex_vec(150)) {
        let n = x.len() as f64;
        let spec = fft(&x);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
        prop_assert!((te - fe).abs() <= 1e-7 * te.max(1.0));
    }

    /// DFT of conj-reversed input equals conj of DFT (symmetry property).
    #[test]
    fn conjugation_symmetry(x in complex_vec(64)) {
        let conj_x: Vec<Complex64> = x.iter().map(|z| z.conj()).collect();
        let lhs = fft(&conj_x);
        let rhs_spec = ifft(&x);
        // fft(conj(x))[k] == conj(ifft(x)[k]) * n
        let n = x.len() as f64;
        let scale = x.iter().map(|z| z.abs()).sum::<f64>().max(1.0);
        for (a, b) in lhs.iter().zip(rhs_spec.iter()) {
            prop_assert!((*a - b.conj().scale(n)).abs() < 1e-7 * scale);
        }
    }

    /// A pure sinusoid with a period between 4 samples and n/3 samples is
    /// recovered to within 15 %.
    #[test]
    fn period_recovery(
        period_samples in 4.0f64..20.0,
        n in 64usize..256,
        amp in 1.0f64..100.0,
        dc in 0.0f64..1000.0,
    ) {
        prop_assume!(period_samples < n as f64 / 3.0);
        let rate = 2.0; // Hz
        let xs: Vec<f64> = (0..n)
            .map(|i| dc + amp * (2.0 * std::f64::consts::PI * i as f64 / period_samples).sin())
            .collect();
        let est = PeriodAnalyzer::new().estimate_period(Samples::contiguous(&xs), rate);
        prop_assert!(est.is_some());
        let got = est.unwrap().period_seconds;
        let want = period_samples / rate;
        prop_assert!((got - want).abs() / want < 0.15, "want {want}, got {got}");
    }

    /// Both directions agree with the oracle to within the documented
    /// tolerance, for arbitrary lengths and values, on one planner whose
    /// caches serve every length.
    #[test]
    fn planned_fft_matches_unplanned(x in complex_vec(160)) {
        let mut planner = FftPlanner::new();
        let mut scratch = FftScratch::new();
        let mut out = Vec::new();
        let scale = x.iter().map(|z| z.abs()).sum::<f64>().max(1.0);

        planner.fft_into(&x, &mut out, &mut scratch);
        for (a, b) in out.iter().zip(oracle::dft(&x, false).iter()) {
            prop_assert!((*a - *b).abs() < 1e-12 * scale, "fwd {a:?} vs {b:?}");
        }
        planner.ifft_into(&x, &mut out, &mut scratch);
        for (a, b) in out.iter().zip(oracle::dft(&x, true).iter()) {
            prop_assert!((*a - *b).abs() < 1e-12 * scale, "inv {a:?} vs {b:?}");
        }
    }

    /// The real-input transform agrees with the oracle.
    #[test]
    fn planned_rfft_matches_unplanned(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut planner = FftPlanner::new();
        let mut scratch = FftScratch::new();
        let mut out = Vec::new();
        let scale = xs.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        planner.rfft_into(&xs, &mut out, &mut scratch);
        let complex: Vec<Complex64> = xs.iter().map(|&v| Complex64::real(v)).collect();
        for (a, b) in out.iter().zip(oracle::dft(&complex, false).iter()) {
            prop_assert!((*a - *b).abs() < 1e-12 * scale, "{a:?} vs {b:?}");
        }
    }

    /// The analyzer and the oracle agree on the period estimate
    /// (presence and value) for arbitrary periodic signals, with the
    /// samples presented through an arbitrarily split two-run view.
    #[test]
    fn planned_estimator_matches_unplanned(
        period_samples in 4.0f64..20.0,
        n in 16usize..256,
        amp in 0.0f64..100.0,
        dc in 0.0f64..1000.0,
        split_frac in 0.0f64..1.0,
    ) {
        let rate = 1.0;
        let xs: Vec<f64> = (0..n)
            .map(|i| dc + amp * (2.0 * std::f64::consts::PI * i as f64 / period_samples).sin())
            .collect();
        let split = ((n as f64 * split_frac) as usize).min(n);
        let view = Samples::new(&xs[..split], &xs[split..]);
        let mut analyzer = PeriodAnalyzer::new();

        let old = oracle::estimate_period(&xs, rate);
        let new = analyzer.estimate_period(view, rate);
        prop_assert_eq!(old.is_some(), new.is_some(), "gate divergence: {:?} vs {:?}", old, new);
        if let (Some(o), Some(p)) = (old, new) {
            prop_assert!((o.period_seconds - p.period_seconds).abs() <= 1e-6 * o.period_seconds.abs().max(1.0));
            prop_assert!((o.confidence - p.confidence).abs() <= 1e-6);
        }

        let seg = (n / 2).max(8);
        let old_w = oracle::welch_estimate_period(&xs, rate, seg);
        let new_w = analyzer.welch_estimate_period(view, rate, seg);
        prop_assert_eq!(old_w.is_some(), new_w.is_some(), "welch gate divergence");
        if let (Some(o), Some(p)) = (old_w, new_w) {
            prop_assert!((o.period_seconds - p.period_seconds).abs() <= 1e-6 * o.period_seconds.abs().max(1.0));
            prop_assert!((o.confidence - p.confidence).abs() <= 1e-6);
        }
    }
}
