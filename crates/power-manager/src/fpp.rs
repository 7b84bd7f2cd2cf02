//! The FFT-based dynamic power policy (FPP), paper Algorithm 1.
//!
//! Per GPU, FPP runs an epoch loop (every `powercap_time` = 90 s):
//!
//! 1. `FFT-GET-PERIOD`: estimate the dominant period of the GPU's power
//!    signal over the epoch's samples,
//! 2. `GET-GPU-CAP`: compare against the previous epoch's period and
//!    move the cap —
//!    * |Δ| ≤ 2 s (`converge_th`): the application is unaffected at the
//!      current cap → **converge** (stop adjusting),
//!    * Δ < 0 and 2 s < |Δ| < 5 s (`change_th`): still unaffected →
//!      **reduce** by `P_reduce` = 50 W,
//!    * otherwise: the application *is* affected → **give the power
//!      back** (paper: "FPP first tries to reduce power but sees that
//!      the period doubles and instantly gives back the power") and
//!      converge.
//!
//! The first epoch measures a baseline and issues the initial downward
//! probe. For applications with *no* detectable period (flat-power codes
//! like GEMM under a binding cap), the controller falls back to a
//! cap-binding test: if the GPU's mean draw sits at the cap, the cap is
//! binding and the power is given back — the same outcome the paper
//! describes via the period-doubling observation.

use fluxpm_fft::{PeriodAnalyzer, Samples};
use fluxpm_hw::Watts;
use fluxpm_monitor::RingBuffer;

/// FPP tuning constants (paper Algorithm 1 defaults; "these values are
/// customizable").
#[derive(Debug, Clone, PartialEq)]
pub struct FppConfig {
    /// Epoch length: how often the cap is reconsidered (line 32: 90 s).
    pub powercap_time_s: f64,
    /// Sampling period for the per-GPU power buffer (1 s).
    pub sample_period_s: f64,
    /// Convergence threshold on the period delta (line 12: 2 s).
    pub converge_th_s: f64,
    /// Change threshold on the period delta (line 13: 5 s).
    pub change_th_s: f64,
    /// Downward probe step (line 14: 50 W).
    pub p_reduce: Watts,
    /// Upward step levels (line 16: [10, 15, 25] W).
    pub powercap_levels: [Watts; 3],
    /// Vendor maximum GPU cap (line 35: 300 W for a Volta-class GPU).
    pub max_gpu_cap: Watts,
    /// Vendor minimum GPU cap (100 W).
    pub min_gpu_cap: Watts,
    /// Mean-draw-to-cap distance below which the cap counts as binding
    /// (the no-period fallback).
    pub binding_margin: Watts,
    /// Restore the pre-probe cap gradually — one level-scaled step from
    /// `powercap_levels` per epoch — instead of jumping straight back.
    /// Off by default: the paper's observed behavior is "instantly gives
    /// back the power".
    pub staged_give_back: bool,
}

impl Default for FppConfig {
    fn default() -> Self {
        FppConfig {
            powercap_time_s: 90.0,
            sample_period_s: 1.0,
            converge_th_s: 2.0,
            change_th_s: 5.0,
            p_reduce: Watts(50.0),
            powercap_levels: [Watts(10.0), Watts(15.0), Watts(25.0)],
            max_gpu_cap: Watts(300.0),
            min_gpu_cap: Watts(100.0),
            binding_margin: Watts(5.0),
            staged_give_back: false,
        }
    }
}

/// What the controller decided at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FppDecision {
    /// Keep the current cap (already converged, or first-epoch baseline
    /// not yet complete).
    Keep(Watts),
    /// Set a new cap.
    Set(Watts),
}

impl FppDecision {
    /// The cap in force after the decision.
    pub fn cap(self) -> Watts {
        match self {
            FppDecision::Keep(w) | FppDecision::Set(w) => w,
        }
    }
}

/// Per-GPU FPP controller state (Algorithm 1's MAIN loop state).
///
/// ```
/// use fluxpm_fft::PeriodAnalyzer;
/// use fluxpm_manager::{FppConfig, FppController, FppDecision};
/// use fluxpm_hw::Watts;
///
/// // A GPU limited to 253.5 W (the 1950 W node cap derivation).
/// let mut ctl = FppController::new(FppConfig::default(), Watts(253.5));
/// let mut analyzer = PeriodAnalyzer::new();
///
/// // Epoch 1: measure the baseline, then probe 50 W down.
/// for t in 0..90 {
///     let w = if (t as f64 / 10.0).fract() < 0.3 { 140.0 } else { 55.0 };
///     ctl.store_power_sample(Watts(w));
/// }
/// assert_eq!(ctl.on_epoch(&mut analyzer), FppDecision::Set(Watts(203.5)));
///
/// // Epoch 2: the period is unchanged — converge at the reduced cap.
/// for t in 0..90 {
///     let w = if (t as f64 / 10.0).fract() < 0.3 { 140.0 } else { 55.0 };
///     ctl.store_power_sample(Watts(w));
/// }
/// ctl.on_epoch(&mut analyzer);
/// assert!(ctl.converged());
/// ```
#[derive(Debug, Clone)]
pub struct FppController {
    config: FppConfig,
    /// Device cap bounds (vendor min/max for the controlled device —
    /// GPU or CPU socket; FPP is device-agnostic, paper §III-B2).
    min_cap: Watts,
    max_cap_bound: Watts,
    /// `GPU_Power_Lim`: the cap derived from the node-level limit.
    power_lim: Watts,
    /// `P_cap_cur`.
    cap: Watts,
    /// `P_cap_prev`.
    prev_cap: Option<Watts>,
    /// `T_prev` (seconds), if a period was measurable.
    t_prev: Option<f64>,
    /// `F_converge`.
    converged: bool,
    /// In-flight staged give-back: `(target, per_epoch_step)`. Each
    /// epoch steps the cap toward `target`, converging on arrival.
    restoring: Option<(Watts, Watts)>,
    /// Epochs completed.
    epochs: u64,
    /// Power samples for the current epoch (reset each epoch, line 42).
    ///
    /// A ring, not a `Vec`: per-GPU memory is bounded even if the epoch
    /// timer stalls (the capacity is 4× the expected samples per epoch,
    /// so a healthy epoch never wraps), and the analysis reads it
    /// through a two-slice zero-copy view.
    buffer: RingBuffer<f64>,
}

impl FppController {
    /// New GPU controller. `power_lim` is the GPU cap derived from the
    /// node-level power limit (line 36); the starting cap is
    /// `min(Max_GPU_Cap, GPU_Power_Lim)` (line 37).
    pub fn new(config: FppConfig, power_lim: Watts) -> FppController {
        let (min, max) = (config.min_gpu_cap, config.max_gpu_cap);
        FppController::with_bounds(config, power_lim, min, max)
    }

    /// New controller over an arbitrary device cap range — the
    /// device-agnostic form (paper: FPP "can be easily extended to be
    /// utilized for socket-level or memory-level power capping").
    pub fn with_bounds(
        config: FppConfig,
        power_lim: Watts,
        min_cap: Watts,
        max_cap_bound: Watts,
    ) -> FppController {
        assert!(min_cap <= max_cap_bound);
        let cap = max_cap_bound.min(power_lim).max(min_cap);
        // 4× the expected epoch sample count: generous enough that a
        // healthy epoch never wraps, while bounding per-device memory if
        // the epoch timer stalls.
        let expected = if config.sample_period_s > 0.0 && config.powercap_time_s.is_finite() {
            (config.powercap_time_s / config.sample_period_s).ceil() as usize
        } else {
            128
        };
        let capacity = expected.saturating_mul(4).max(64);
        FppController {
            config,
            min_cap,
            max_cap_bound,
            power_lim,
            cap,
            prev_cap: None,
            t_prev: None,
            converged: false,
            restoring: None,
            epochs: 0,
            buffer: RingBuffer::new(capacity),
        }
    }

    /// The cap currently requested by the controller.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Whether the controller has converged (line 22–24).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Record one power sample (called on the node manager's sampling
    /// timer; line 4 `STOREPOWERDATA`). A NaN or infinite reading is a
    /// sensor glitch and is dropped, so it voids neither the epoch's
    /// period nor its mean.
    pub fn store_power_sample(&mut self, gpu_draw: Watts) {
        if gpu_draw.get().is_finite() {
            self.buffer.push(gpu_draw.get());
        }
    }

    /// Finite samples collected in the current epoch.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The node limit changed (proportional sharing reallocation): track
    /// the new derived limit. A converged controller follows the new
    /// limit directly; an in-flight one re-clamps.
    pub fn rebase(&mut self, power_lim: Watts) {
        let new_start = self.max_cap_bound.min(power_lim).max(self.min_cap);
        if self.converged {
            // Keep any probe savings: never above the previous converged
            // cap relative to the old limit, but follow limit increases
            // when the old cap was limit-bound.
            let old_start = self.max_cap_bound.min(self.power_lim).max(self.min_cap);
            if self.cap >= old_start {
                self.cap = new_start;
            } else {
                self.cap = self.cap.min(new_start);
            }
        } else {
            self.cap = self.cap.min(new_start);
        }
        self.power_lim = power_lim;
    }

    /// Epoch boundary (line 38): estimate the period from the buffered
    /// samples, run `GET-GPU-CAP`, reset the buffer, and return the
    /// decision.
    ///
    /// The samples are read through a two-slice zero-copy view of the
    /// ring and the period estimate runs on `analyzer` — zero
    /// steady-state allocation. One analyzer is meant to serve many
    /// controllers (its plan caches are keyed by length, so every GPU
    /// feeding the same epoch geometry shares one warm plan set); the
    /// node managers share one per thread.
    pub fn on_epoch(&mut self, analyzer: &mut PeriodAnalyzer) -> FppDecision {
        if let Some(d) = self.epoch_shortcut() {
            return d;
        }
        let rate = 1.0 / self.config.sample_period_s;
        let (head, tail) = self.buffer.as_slices();
        let view = Samples::new(head, tail);
        let t_cur = analyzer
            .estimate_period(view, rate)
            .map(|e| e.period_seconds);
        let mean = view.mean();
        self.buffer.clear();
        self.decide(t_cur, mean)
    }

    /// Epoch entry: bump the epoch counter and handle the two states
    /// that never look at the samples (already converged; staged
    /// give-back in flight). Returns `Some(decision)` on those paths —
    /// with the buffer reset, as every epoch boundary must — and `None`
    /// when the caller should analyze the buffered samples.
    fn epoch_shortcut(&mut self) -> Option<FppDecision> {
        self.epochs += 1;
        if self.converged {
            self.buffer.clear();
            return Some(FppDecision::Keep(self.cap));
        }
        // Staged give-back in flight: keep climbing toward the pre-probe
        // cap, one step per epoch, and converge on arrival. The period
        // estimate is irrelevant while restoring — the decision to give
        // the power back has already been made.
        if let Some((target, step)) = self.restoring {
            self.buffer.clear();
            self.cap = (self.cap + step).min(target);
            if self.cap >= target {
                self.restoring = None;
                self.converged = true;
            }
            return Some(FppDecision::Set(self.cap));
        }
        None
    }

    /// `GET-GPU-CAP` (Algorithm 1 lines 10–31): given this epoch's period
    /// estimate and mean draw, move the cap.
    fn decide(&mut self, t_cur: Option<f64>, mean: f64) -> FppDecision {
        let binding = mean >= self.cap.get() - self.config.binding_margin.get();

        // First epoch: record the baseline and issue the downward probe
        // (P_cap_prev was None — line 19 keeps the cap; the probe is the
        // transition into the adjustment loop).
        if self.epochs == 1 {
            self.t_prev = t_cur;
            self.prev_cap = Some(self.cap);
            let probed = (self.cap - self.config.p_reduce).max(self.min_cap);
            if probed < self.cap {
                self.cap = probed;
                return FppDecision::Set(self.cap);
            }
            // Already at the floor: nothing to probe.
            self.converged = true;
            return FppDecision::Keep(self.cap);
        }

        let decision = match (self.t_prev, t_cur) {
            (Some(prev), Some(cur)) => {
                let delta = cur - prev;
                let abs = delta.abs();
                if abs <= self.config.converge_th_s {
                    // Line 22: unaffected — converge at the (reduced) cap.
                    self.converged = true;
                    FppDecision::Keep(self.cap)
                } else if delta < 0.0 && abs < self.config.change_th_s {
                    // Line 25: still headroom — reduce further.
                    self.prev_cap = Some(self.cap);
                    self.cap = (self.cap - self.config.p_reduce).max(self.min_cap);
                    FppDecision::Set(self.cap)
                } else {
                    // Line 27: affected — give power back and converge.
                    self.give_back(abs)
                }
            }
            // No period measurable: fall back to the binding test.
            _ => {
                if binding {
                    self.give_back(self.config.change_th_s)
                } else {
                    // Cap is slack and the app shows no phase signal: the
                    // probe is harmless; converge where we are.
                    self.converged = true;
                    FppDecision::Keep(self.cap)
                }
            }
        };
        self.t_prev = t_cur.or(self.t_prev);
        decision
    }

    /// Give the power back toward the pre-probe cap. The step size is
    /// scaled by how badly the application was affected (`delta_abs`
    /// against `change_th` picks one of `powercap_levels`). By default
    /// the cap jumps straight to the target — the paper's "instantly
    /// gives back the power" — and converges; with `staged_give_back`
    /// the cap climbs one step per epoch and converges on arrival.
    fn give_back(&mut self, delta_abs: f64) -> FppDecision {
        let target = self
            .prev_cap
            .unwrap_or(self.cap)
            .min(self.max_cap_bound.min(self.power_lim).max(self.min_cap));
        let level = ((delta_abs / self.config.change_th_s) as usize).min(2);
        let step = self.config.powercap_levels[level];
        let stepped = self.cap + step;
        if stepped >= target || !self.config.staged_give_back {
            self.cap = target;
            self.restoring = None;
            self.converged = true;
        } else {
            self.cap = stepped;
            self.restoring = Some((target, step));
        }
        FppDecision::Set(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_square(c: &mut FppController, period_s: f64, hi: f64, lo: f64, secs: usize) {
        for t in 0..secs {
            let pos = (t as f64 / period_s).fract();
            let w = if pos < 0.3 { hi } else { lo };
            c.store_power_sample(Watts(w));
        }
    }

    fn feed_flat(c: &mut FppController, w: f64, secs: usize) {
        for _ in 0..secs {
            c.store_power_sample(Watts(w));
        }
    }

    /// An epoch boundary on a cold analyzer.
    fn epoch(c: &mut FppController) -> FppDecision {
        c.on_epoch(&mut PeriodAnalyzer::new())
    }

    #[test]
    fn initial_cap_is_min_of_max_and_limit() {
        let c = FppController::new(FppConfig::default(), Watts(253.5));
        assert_eq!(c.cap(), Watts(253.5));
        let c = FppController::new(FppConfig::default(), Watts(400.0));
        assert_eq!(c.cap(), Watts(300.0), "clamped to vendor max");
        let c = FppController::new(FppConfig::default(), Watts(80.0));
        assert_eq!(c.cap(), Watts(100.0), "clamped to vendor min");
    }

    #[test]
    fn first_epoch_probes_downward() {
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        feed_square(&mut c, 10.0, 140.0, 55.0, 90);
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Set(Watts(203.5)));
        assert!(!c.converged());
    }

    #[test]
    fn periodic_unaffected_app_converges_at_reduced_cap() {
        // Quicksilver-like: the probe does not bind (demand < cap), the
        // period is unchanged, FPP converges early (paper §IV-D).
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        feed_square(&mut c, 10.0, 140.0, 55.0, 90);
        epoch(&mut c); // probe to 203.5
        feed_square(&mut c, 10.0, 140.0, 55.0, 90); // unchanged signal
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Keep(Watts(203.5)));
        assert!(c.converged());
    }

    #[test]
    fn flat_app_with_binding_cap_gets_power_back() {
        // GEMM-like: no period; after the probe the GPU sits at the cap —
        // give the power back and converge (paper: "instantly gives
        // back").
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        feed_flat(&mut c, 253.5, 90); // clipped at the initial cap
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Set(Watts(203.5)), "probe");
        feed_flat(&mut c, 203.5, 90); // clipped at the probe cap
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Set(Watts(253.5)), "restored");
        assert!(c.converged());
    }

    #[test]
    fn flat_app_with_slack_cap_keeps_probe_savings() {
        // NQueens-like: GPUs idle far below any cap.
        let mut c = FppController::new(FppConfig::default(), Watts(300.0));
        feed_flat(&mut c, 50.0, 90);
        epoch(&mut c); // probe to 250
        feed_flat(&mut c, 50.0, 90);
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Keep(Watts(250.0)));
        assert!(c.converged());
    }

    #[test]
    fn period_stretch_triggers_give_back() {
        // App whose period visibly stretches when capped (strongly
        // affected): Δ = +8 s ≥ change_th.
        let mut c = FppController::new(FppConfig::default(), Watts(300.0));
        feed_square(&mut c, 10.0, 290.0, 100.0, 90);
        epoch(&mut c); // probe to 250
        feed_square(&mut c, 18.0, 250.0, 100.0, 90); // period nearly doubled
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Set(Watts(300.0)));
        assert!(c.converged());
    }

    #[test]
    fn mild_negative_delta_reduces_further() {
        // Period got slightly *shorter* (Δ in (-5, -2)): the pseudocode
        // reduces power again (line 25-26).
        let mut c = FppController::new(FppConfig::default(), Watts(300.0));
        feed_square(&mut c, 14.0, 200.0, 80.0, 90);
        epoch(&mut c); // probe to 250
        feed_square(&mut c, 11.0, 200.0, 80.0, 90); // Δ = -3
        let d = epoch(&mut c);
        assert_eq!(d, FppDecision::Set(Watts(200.0)));
        assert!(!c.converged());
    }

    #[test]
    fn converged_controller_holds() {
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        feed_square(&mut c, 10.0, 140.0, 55.0, 90);
        epoch(&mut c);
        feed_square(&mut c, 10.0, 140.0, 55.0, 90);
        epoch(&mut c);
        assert!(c.converged());
        let cap = c.cap();
        for _ in 0..5 {
            feed_square(&mut c, 10.0, 140.0, 55.0, 90);
            assert_eq!(epoch(&mut c), FppDecision::Keep(cap));
        }
    }

    #[test]
    fn probe_respects_floor() {
        let mut c = FppController::new(FppConfig::default(), Watts(100.0));
        assert_eq!(c.cap(), Watts(100.0));
        feed_flat(&mut c, 100.0, 90);
        let d = epoch(&mut c);
        assert_eq!(
            d,
            FppDecision::Keep(Watts(100.0)),
            "no probe below the floor"
        );
        assert!(c.converged());
    }

    #[test]
    fn rebase_follows_limit_increase_when_converged_at_limit() {
        // GEMM on a prop-share node: converge back at 253.5 (limit-bound),
        // then Quicksilver finishes and the node limit rises.
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        feed_flat(&mut c, 253.5, 90);
        epoch(&mut c);
        feed_flat(&mut c, 203.5, 90);
        epoch(&mut c);
        assert_eq!(c.cap(), Watts(253.5));
        c.rebase(Watts(300.0));
        assert_eq!(c.cap(), Watts(300.0), "follows the raised limit");
    }

    #[test]
    fn rebase_keeps_probe_savings_when_converged_below_limit() {
        let mut c = FppController::new(FppConfig::default(), Watts(300.0));
        feed_flat(&mut c, 50.0, 90);
        epoch(&mut c); // probe 250
        feed_flat(&mut c, 50.0, 90);
        epoch(&mut c); // converge at 250
        c.rebase(Watts(280.0));
        assert_eq!(c.cap(), Watts(250.0), "savings kept under the new limit");
    }

    #[test]
    fn rebase_tightens_inflight_cap() {
        let mut c = FppController::new(FppConfig::default(), Watts(300.0));
        assert_eq!(c.cap(), Watts(300.0));
        c.rebase(Watts(200.0));
        assert_eq!(c.cap(), Watts(200.0));
    }

    #[test]
    fn staged_give_back_climbs_one_level_per_epoch() {
        // Same GEMM-like scenario as the instant-restore test, but with
        // the staged path enabled: the binding fallback fires with
        // delta = change_th (5 s) -> level 1 -> 15 W steps from 203.5
        // back up to 253.5, converging on arrival.
        let cfg = FppConfig {
            staged_give_back: true,
            ..FppConfig::default()
        };
        let mut c = FppController::new(cfg, Watts(253.5));
        feed_flat(&mut c, 253.5, 90);
        assert_eq!(epoch(&mut c), FppDecision::Set(Watts(203.5)), "probe");
        feed_flat(&mut c, 203.5, 90);
        assert_eq!(epoch(&mut c), FppDecision::Set(Watts(218.5)), "step 1");
        assert!(!c.converged(), "still restoring");
        for expect in [233.5, 248.5] {
            feed_flat(&mut c, expect - 15.0, 90);
            assert_eq!(epoch(&mut c), FppDecision::Set(Watts(expect)));
            assert!(!c.converged());
        }
        feed_flat(&mut c, 248.5, 90);
        // Final step clamps at the pre-probe target.
        assert_eq!(epoch(&mut c), FppDecision::Set(Watts(253.5)));
        assert!(c.converged(), "converged on arrival");
        // Converged: further epochs hold.
        feed_flat(&mut c, 253.5, 90);
        assert_eq!(epoch(&mut c), FppDecision::Keep(Watts(253.5)));
    }

    #[test]
    fn staged_give_back_jumps_when_one_step_covers_the_gap() {
        // With a probe smaller than the selected restore level, a single
        // step already reaches the target: jump and converge immediately
        // even in staged mode.
        let cfg = FppConfig {
            staged_give_back: true,
            p_reduce: Watts(20.0),
            ..FppConfig::default()
        };
        let mut c = FppController::new(cfg, Watts(300.0));
        feed_square(&mut c, 10.0, 290.0, 100.0, 90);
        assert_eq!(epoch(&mut c), FppDecision::Set(Watts(280.0)), "probe");
        // Period more than doubles (both periods sit on exact FFT bins
        // of a 90-sample epoch): delta = 12.5 s -> level 2 -> 25 W step,
        // 280 + 25 >= 300.
        feed_square(&mut c, 22.5, 280.0, 100.0, 90);
        assert_eq!(epoch(&mut c), FppDecision::Set(Watts(300.0)));
        assert!(c.converged());
    }

    #[test]
    fn default_give_back_is_instant() {
        // The default config restores the full pre-probe cap in a single
        // epoch (the paper's observed behavior).
        let c = FppConfig::default();
        assert!(!c.staged_give_back);
        let mut c = FppController::new(FppConfig::default(), Watts(253.5));
        feed_flat(&mut c, 253.5, 90);
        epoch(&mut c);
        feed_flat(&mut c, 203.5, 90);
        assert_eq!(epoch(&mut c), FppDecision::Set(Watts(253.5)), "one jump");
        assert!(c.converged());
    }

    #[test]
    fn a_nan_or_infinite_sample_is_dropped() {
        let mut clean = FppController::new(FppConfig::default(), Watts(253.5));
        let mut glitched = clean.clone();
        for _ in 0..2 {
            feed_square(&mut clean, 10.0, 140.0, 55.0, 90);
            for t in 0..90 {
                match t {
                    17 => glitched.store_power_sample(Watts(f64::NAN)),
                    60 => glitched.store_power_sample(Watts(f64::INFINITY)),
                    _ => {}
                }
                let w = if (t as f64 / 10.0).fract() < 0.3 {
                    140.0
                } else {
                    55.0
                };
                glitched.store_power_sample(Watts(w));
            }
            assert_eq!(glitched.buffered(), 90, "only finite samples count");
            assert_eq!(epoch(&mut glitched), epoch(&mut clean));
        }
        assert!(glitched.converged() && clean.converged());
    }

    #[test]
    fn buffer_resets_each_epoch() {
        let mut c = FppController::new(FppConfig::default(), Watts(300.0));
        feed_flat(&mut c, 100.0, 90);
        assert_eq!(c.buffered(), 90);
        epoch(&mut c);
        assert_eq!(c.buffered(), 0);
    }
}
