//! Property-based tests of `FINDPERIOD` through the crate's public
//! surface, on its own and against the test oracle (`oracle/mod.rs`).
//! The transform's own properties are unit tests (`src/fft.rs`).

mod oracle;

use fluxpm_fft::{Complex64, PeriodAnalyzer, Samples};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
    }
}
