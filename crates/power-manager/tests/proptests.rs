//! Property-based tests for the manager's pure decision logic.

use fluxpm_fft::PeriodAnalyzer;
use fluxpm_flux::JobId;
use fluxpm_hw::Watts;
use fluxpm_manager::{FppConfig, FppController, ProportionalAllocator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The proportional allocator never exceeds the global bound, keeps
    /// the per-node allocation uniform, and reclaims monotonically,
    /// under arbitrary admit/release sequences.
    #[test]
    fn allocator_invariants(
        bound in 2_000.0f64..50_000.0,
        ops in prop::collection::vec((1u32..16, any::<bool>()), 1..60),
    ) {
        let peak = Watts(3050.0);
        let mut a = ProportionalAllocator::new(Watts(bound), peak);
        let mut live: Vec<(JobId, u32)> = Vec::new();
        let mut next = 0u64;
        for (nnodes, release) in ops {
            if release && !live.is_empty() {
                let before = a.per_node_limit();
                let (gone, _) = live.remove(0);
                let after = a.release(gone);
                // Reclaim never shrinks the per-node share.
                prop_assert!(after >= before - Watts(1e-9));
            } else {
                let id = JobId(next);
                next += 1;
                let before = a.per_node_limit();
                let after = a.admit(id, nnodes);
                // Admission never grows the per-node share.
                prop_assert!(after <= before + Watts(1e-9));
                live.push((id, nnodes));
            }
            prop_assert!(a.total_allocated().get() <= bound + 1e-6);
            let per = a.per_node_limit();
            prop_assert!(per <= peak && per.get() > 0.0);
            // Uniformity: every job's limit is per-node * nnodes.
            for &(id, n) in &live {
                let limit = a.job_limit(id).expect("live job has a limit");
                prop_assert!(limit.approx_eq(per * n as f64, 1e-6));
            }
        }
    }

    /// The FPP controller's cap always stays inside the device bounds
    /// and below the derived limit envelope, for arbitrary signals.
    #[test]
    fn fpp_cap_always_in_bounds(
        power_lim in 80.0f64..400.0,
        signals in prop::collection::vec(0.0f64..400.0, 90 * 4..90 * 6),
    ) {
        let cfg = FppConfig::default();
        let mut c = FppController::new(cfg, Watts(power_lim));
        let mut analyzer = PeriodAnalyzer::new();
        for chunk in signals.chunks(90) {
            for &w in chunk {
                c.store_power_sample(Watts(w));
            }
            c.on_epoch(&mut analyzer);
            let cap = c.cap().get();
            prop_assert!((100.0..=300.0).contains(&cap), "cap {cap}");
        }
    }

    /// A stable periodic signal always converges within 3 epochs, and
    /// the converged cap never exceeds the starting cap.
    #[test]
    fn fpp_converges_on_stable_signals(
        period in 6.0f64..25.0,
        hi in 120.0f64..260.0,
        lo in 50.0f64..110.0,
    ) {
        prop_assume!(hi > lo + 30.0);
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        let mut analyzer = PeriodAnalyzer::new();
        let start = c.cap();
        for _ in 0..3 {
            for t in 0..90 {
                let w = if (t as f64 / period).fract() < 0.3 { hi } else { lo };
                c.store_power_sample(Watts(w.min(c.cap().get())));
            }
            c.on_epoch(&mut analyzer);
        }
        prop_assert!(c.converged(), "stable signal must converge");
        prop_assert!(c.cap() <= start + Watts(1e-9));
    }

    /// Rebase never pushes the cap outside the new limit envelope.
    #[test]
    fn fpp_rebase_respects_limit(
        lim1 in 100.0f64..300.0,
        lim2 in 100.0f64..300.0,
    ) {
        let mut c = FppController::new(FppConfig::default(), Watts(lim1));
        c.rebase(Watts(lim2));
        let env = 300.0f64.min(lim2).max(100.0);
        prop_assert!(c.cap().get() <= env + 1e-9, "cap {} vs env {env}", c.cap());
    }
}
