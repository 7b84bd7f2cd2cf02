//! # fluxpm-fft — from-scratch spectral analysis for the FPP power policy
//!
//! The paper's FPP algorithm (Algorithm 1) detects the *period* of an
//! application's power signal: `FINDPERIOD(buf)` runs an FFT over a window
//! of power samples and reports the dominant period. This crate implements
//! the whole signal path with no external dependencies:
//!
//! * [`Complex64`] — a minimal complex number type,
//! * [`fft()`]/[`ifft`] — iterative radix-2 FFT for power-of-two lengths and
//!   a Bluestein chirp-z fallback for arbitrary lengths,
//! * [`rfft`] — real-input convenience wrapper,
//! * [`window`] — Hann / Hamming / rectangular tapers,
//! * [`Periodogram`] — power spectral density estimate,
//! * [`period`] — dominant-period estimation with parabolic peak
//!   interpolation, plus an autocorrelation cross-check used by the test
//!   suite and by FPP's "am I confident?" heuristic,
//! * [`plan`] — cached per-length FFT plans ([`FftPlanner`]) and the
//!   [`FftScratch`] arena behind the allocation-free `_into` variants,
//! * [`Samples`] — a two-run zero-copy view so ring-buffered traces are
//!   analyzed in place,
//! * [`PeriodAnalyzer`] — the planned, reusable front-end the FPP hot
//!   path calls per GPU per epoch.
//!
//! The free functions above are the simple reference paths; hot paths use
//! the planned stack, which is cross-checked against them by unit,
//! property, and accuracy-regression tests.
//!
//! ```
//! use fluxpm_fft::period::estimate_period;
//!
//! // A 10-second period sampled at 2 Hz for 60 seconds.
//! let samples: Vec<f64> = (0..120)
//!     .map(|i| (2.0 * std::f64::consts::PI * (i as f64 * 0.5) / 10.0).sin())
//!     .collect();
//! let est = estimate_period(&samples, 2.0).expect("periodic signal");
//! assert!((est.period_seconds - 10.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod analyzer;
pub mod complex;
pub mod fft;
pub mod period;
pub mod periodogram;
pub mod plan;
pub mod samples;
pub mod welch;
pub mod window;

pub use analyzer::PeriodAnalyzer;
pub use complex::Complex64;
pub use fft::{fft, fft_inplace, ifft, rfft};
pub use period::{autocorr_period, estimate_period, PeriodEstimate};
pub use periodogram::Periodogram;
pub use plan::{BluesteinPlan, FftPlanner, FftScratch, Radix2Plan, WindowTable};
pub use samples::Samples;
pub use welch::{welch, welch_estimate_period, welch_into};
pub use window::Window;
