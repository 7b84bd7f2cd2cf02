//! # fluxpm-fft — from-scratch spectral analysis for the FPP power policy
//!
//! The paper's FPP algorithm (Algorithm 1) detects the *period* of an
//! application's power signal: `FINDPERIOD(buf)` runs an FFT over a window
//! of power samples and reports the dominant period. This crate is that
//! one chain, with no external dependencies: mean removal, a Hann taper,
//! a forward real FFT (radix-2 for power-of-two lengths, Bluestein
//! chirp-z for the rest, such as a 90-sample epoch), the one-sided
//! periodogram, its strongest non-DC bin refined by parabolic
//! interpolation, and a 5 % peak-concentration gate.
//!
//! The public surface is what FPP calls:
//!
//! * [`PeriodAnalyzer`] — `FINDPERIOD`, reused per GPU per epoch on
//!   cached per-length plans and an allocation-free scratch arena,
//! * [`Samples`] — a two-run zero-copy view so ring-buffered traces are
//!   analyzed in place,
//! * [`PeriodEstimate`] — the result,
//! * [`Complex64`] — the minimal complex type the transforms (and the
//!   test oracle) compute in.
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
mod analyzer;
mod complex;
#[cfg(test)]
mod fft;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
mod period;
mod periodogram;
mod plan;
mod samples;
mod window;

pub use analyzer::PeriodAnalyzer;
pub use complex::Complex64;
pub use period::PeriodEstimate;
pub use samples::Samples;
