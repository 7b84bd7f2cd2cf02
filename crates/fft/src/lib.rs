//! # fluxpm-fft — from-scratch spectral analysis for the FPP power policy
//!
//! The paper's FPP algorithm (Algorithm 1) detects the *period* of an
//! application's power signal: `FINDPERIOD(buf)` runs an FFT over a window
//! of power samples and reports the dominant period. This crate implements
//! the whole signal path with no external dependencies:
//!
//! * [`Complex64`] — a minimal complex number type,
//! * [`plan`] — the transforms: [`FftPlanner::fft_into`] /
//!   [`FftPlanner::ifft_into`] / [`FftPlanner::rfft_into`], radix-2 for
//!   power-of-two lengths and Bluestein chirp-z for the rest, on cached
//!   per-length plans and an allocation-free [`FftScratch`] arena,
//! * [`window`] — Hann / Hamming / rectangular tapers,
//! * [`Periodogram`] and [`welch_into`] — power spectral density
//!   estimates,
//! * [`Samples`] — a two-run zero-copy view so ring-buffered traces are
//!   analyzed in place,
//! * [`PeriodAnalyzer`] — `FINDPERIOD`: the dominant period with
//!   parabolic peak interpolation, reused per GPU per epoch,
//! * [`autocorr_period`] — an autocorrelation estimate, a different
//!   algorithm kept for policy experiments and cross-checks.
//!
//! The tests check the transforms and the estimate against an O(n²) DFT
//! oracle that lives in `tests/oracle/mod.rs`.
//!
//! ```
//! use fluxpm_fft::{PeriodAnalyzer, Samples};
//!
//! // A 10-second period sampled at 2 Hz for 60 seconds.
//! let samples: Vec<f64> = (0..120)
//!     .map(|i| (2.0 * std::f64::consts::PI * (i as f64 * 0.5) / 10.0).sin())
//!     .collect();
//! let est = PeriodAnalyzer::new()
//!     .estimate_period(Samples::contiguous(&samples), 2.0)
//!     .expect("periodic signal");
//! assert!((est.period_seconds - 10.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod analyzer;
pub mod complex;
#[cfg(test)]
mod fft;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
pub mod period;
pub mod periodogram;
pub mod plan;
pub mod samples;
pub mod welch;
pub mod window;

pub use analyzer::PeriodAnalyzer;
pub use complex::Complex64;
pub use period::{autocorr_period, PeriodEstimate};
pub use periodogram::Periodogram;
pub use plan::{BluesteinPlan, FftPlanner, FftScratch, Radix2Plan, WindowTable};
pub use samples::Samples;
pub use welch::welch_into;
pub use window::Window;
