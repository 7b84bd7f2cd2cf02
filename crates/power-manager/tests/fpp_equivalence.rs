//! FPP against the test oracle: on every epoch a controller analyzes,
//! the period estimate it decides on (the shared `PeriodAnalyzer`, over
//! the same samples) must agree with the oracle's
//! (`fluxpm-fft/tests/oracle`) to [`AGREE`], and every threshold FPP
//! compares an estimate against — |Δ| against `converge_th` and
//! `change_th`, the peak's confidence against the 5 % gate — must be
//! cleared by more than [`MARGIN`]. Together the two mean a controller
//! deciding on the oracle's estimates would take every decision it
//! takes here. Scenarios: chaos-soak-style seeded signals, the §IV-E
//! queue restore loop, and the decision-space battery.

#[path = "../../fft/tests/oracle/mod.rs"]
mod oracle;

use fluxpm_fft::{Complex64, PeriodAnalyzer, PeriodEstimate, Samples};
use fluxpm_hw::Watts;
use fluxpm_manager::{FppConfig, FppController, FppDecision};

/// How close each estimate must be to the oracle's, in seconds (period)
/// and as a share of energy (confidence).
const AGREE: f64 = 1e-9;
/// How far every threshold comparison must sit from its threshold.
const MARGIN: f64 = 1e-6;

/// One controller on its analyzer, checked against the oracle.
struct Checked {
    label: String,
    config: FppConfig,
    controller: FppController,
    analyzer: PeriodAnalyzer,
    /// The controller's `T_prev`, mirrored from the oracle's estimates.
    t_prev: Option<f64>,
}

impl Checked {
    fn new(label: &str, config: FppConfig, power_lim: Watts) -> Checked {
        let controller = FppController::new(config.clone(), power_lim);
        Checked::with(label, config, controller)
    }

    fn with(label: &str, config: FppConfig, controller: FppController) -> Checked {
        Checked {
            label: label.to_owned(),
            config,
            controller,
            analyzer: PeriodAnalyzer::new(),
            t_prev: None,
        }
    }

    /// Feed one epoch's samples, check what the controller will analyze,
    /// and return its decision.
    fn epoch(&mut self, samples: &[f64]) -> FppDecision {
        let epoch = self.controller.epochs();
        for &s in samples {
            self.controller.store_power_sample(Watts(s));
        }
        // A converged controller keeps its cap without looking.
        if !self.controller.converged() {
            let t_cur = self.check_estimate(epoch, samples);
            if epoch > 0 {
                if let (Some(prev), Some(cur)) = (self.t_prev, t_cur) {
                    let abs = (cur - prev).abs();
                    for th in [self.config.converge_th_s, self.config.change_th_s] {
                        assert!(
                            (abs - th).abs() > MARGIN,
                            "{}: epoch {epoch}: |Δ| = {abs} within {MARGIN} of {th}",
                            self.label
                        );
                    }
                }
            }
            // The first epoch records its estimate as the baseline.
            self.t_prev = if epoch == 0 {
                t_cur
            } else {
                t_cur.or(self.t_prev)
            };
        }
        let decision = self.controller.on_epoch(&mut self.analyzer);
        assert_eq!(self.controller.buffered(), 0, "{}: reset", self.label);
        decision
    }

    /// The estimate the controller's epoch computes against the
    /// oracle's. Returns the oracle's period.
    fn check_estimate(&mut self, epoch: u64, x: &[f64]) -> Option<f64> {
        let rate = 1.0 / self.config.sample_period_s;
        let view = Samples::contiguous(x);
        let planned = self.analyzer.estimate_period(view, rate);
        self.agree(epoch, planned, oracle::period_peak(x, rate))
    }

    /// One estimate against the oracle's peak: the gate's margin, then
    /// presence and value. Returns the oracle's period if it passes the
    /// gate.
    fn agree(
        &self,
        epoch: u64,
        planned: Option<PeriodEstimate>,
        peak: Option<oracle::Peak>,
    ) -> Option<f64> {
        let label = &self.label;
        if let Some(p) = peak {
            assert!(
                (p.confidence - oracle::MIN_CONFIDENCE).abs() > MARGIN,
                "{label}: epoch {epoch}: confidence {} within {MARGIN} of the gate",
                p.confidence
            );
        }
        let truth = peak.filter(|p| p.confidence >= oracle::MIN_CONFIDENCE);
        match (planned, truth) {
            (None, None) => None,
            (Some(p), Some(o)) => {
                assert!(
                    (p.period_seconds - o.period_seconds).abs() <= AGREE
                        && (p.confidence - o.confidence).abs() <= AGREE,
                    "{label}: epoch {epoch}: {p:?} vs oracle {o:?}"
                );
                Some(o.period_seconds)
            }
            (p, o) => panic!("{label}: epoch {epoch}: {p:?} vs oracle {o:?}"),
        }
    }
}

/// Drive one controller through `epochs` epochs of `feed(epoch)`.
fn run_checked(
    label: &str,
    config: FppConfig,
    power_lim: Watts,
    epochs: usize,
    mut feed: impl FnMut(usize) -> Vec<f64>,
) {
    let mut c = Checked::new(label, config, power_lim);
    for epoch in 0..epochs {
        c.epoch(&feed(epoch));
    }
}

fn square_wave(n: usize, period_s: f64, hi: f64, lo: f64) -> Vec<f64> {
    (0..n)
        .map(|t| {
            if (t as f64 / period_s).fract() < 0.3 {
                hi
            } else {
                lo
            }
        })
        .collect()
}

fn lcg_noise(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

#[test]
fn quicksilver_like_probe_then_converge() {
    run_checked("quicksilver", FppConfig::default(), Watts(253.5), 4, |_| {
        square_wave(90, 10.0, 140.0, 55.0)
    });
}

#[test]
fn gemm_like_binding_give_back() {
    // Flat draw pinned at whatever the cap is: probe, binding fallback,
    // instant restore, then hold.
    let caps = std::cell::Cell::new(253.5);
    run_checked(
        "gemm-binding",
        FppConfig::default(),
        Watts(253.5),
        4,
        |epoch| {
            // Epoch 0 at the initial cap, epoch 1 at the probe cap.
            let level = if epoch == 0 { 253.5 } else { caps.get() };
            caps.set(203.5);
            vec![level; 90]
        },
    );
}

#[test]
fn period_stretch_give_back() {
    run_checked("stretch", FppConfig::default(), Watts(300.0), 3, |epoch| {
        let period = if epoch == 0 { 10.0 } else { 18.0 };
        square_wave(90, period, 290.0, 100.0)
    });
}

#[test]
fn mild_shrink_reduces_further() {
    run_checked("shrink", FppConfig::default(), Watts(300.0), 3, |epoch| {
        let period = if epoch == 0 { 14.0 } else { 11.0 };
        square_wave(90, period, 200.0, 80.0)
    });
}

#[test]
fn chaos_seed_style_signals() {
    // The chaos-soak harness drives node demand from small-integer
    // seeds; mirror that here: per-seed LCG noise over drifting square
    // waves, long horizon.
    for seed in [11u64, 29, 47] {
        let mut noise = lcg_noise(seed);
        run_checked(
            &format!("chaos seed {seed}"),
            FppConfig::default(),
            Watts(253.5),
            8,
            move |epoch| {
                let period = 8.0 + (seed % 7) as f64 + (epoch % 3) as f64;
                square_wave(90, period, 150.0, 60.0)
                    .into_iter()
                    .map(|v| v + 5.0 * noise())
                    .collect()
            },
        );
    }
}

#[test]
fn staged_give_back_restore_ladder() {
    // The §IV-E queue scenario (`epochs_to_restore`): flat draw pinned
    // at the current cap keeps the binding fallback firing; staged mode
    // climbs the level ladder over several epochs.
    for staged in [false, true] {
        let cfg = FppConfig {
            staged_give_back: staged,
            ..FppConfig::default()
        };
        let pre_probe = 253.5;
        let mut c = Checked::new(&format!("queue staged={staged}"), cfg, Watts(pre_probe));
        for _ in 0..8 {
            let draw = c.controller.cap().get();
            c.epoch(&[draw; 90]);
        }
        assert!(c.controller.converged());
        let cap = c.controller.cap().get();
        assert!((cap - pre_probe).abs() < 1e-9, "restored");
    }
}

#[test]
fn no_samples_and_short_epochs() {
    // Degenerate feeds: empty epochs, then too-short epochs — the
    // binding fallback and gates must agree.
    run_checked("empty", FppConfig::default(), Watts(300.0), 3, |_| vec![]);
    run_checked("short", FppConfig::default(), Watts(300.0), 3, |_| {
        vec![120.0; 5]
    });
}

#[test]
fn socket_bounds_variant() {
    // Device-agnostic form with non-GPU bounds (socket-level FPP).
    let cfg = FppConfig::default();
    let controller =
        FppController::with_bounds(cfg.clone(), Watts(180.0), Watts(60.0), Watts(200.0));
    let mut c = Checked::with("socket", cfg, controller);
    for _ in 0..5 {
        c.epoch(&square_wave(90, 12.0, 170.0, 70.0));
    }
}

#[test]
fn rebase_mid_flight_stays_identical() {
    let mut c = Checked::new("rebase", FppConfig::default(), Watts(300.0));
    for epoch in 0..6 {
        if epoch == 2 {
            c.controller.rebase(Watts(260.0));
        }
        c.epoch(&square_wave(90, 10.0, 240.0, 90.0));
    }
}
