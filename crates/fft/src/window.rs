//! Window (taper) functions.
//!
//! FPP's 30-second analysis windows are short, so spectral leakage from the
//! rectangular window would smear the phase peak; the period estimator
//! defaults to Hann.

/// A window function applied to a sample buffer before the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// No taper (all ones).
    Rectangular,
    /// Hann: `0.5 - 0.5 cos(2 pi n / (N-1))`. The default.
    #[default]
    Hann,
    /// Hamming: `0.54 - 0.46 cos(2 pi n / (N-1))`.
    Hamming,
}

impl Window {
    /// The window coefficient at index `i` of an `n`-point window.
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_identity() {
        for i in 0..3 {
            assert_eq!(Window::Rectangular.coefficient(i, 3), 1.0);
        }
    }

    #[test]
    fn hann_endpoints_are_zero_and_symmetric() {
        let n = 33;
        let w: Vec<f64> = (0..n).map(|i| Window::Hann.coefficient(i, n)).collect();
        assert!(w[0].abs() < 1e-12);
        assert!(w[n - 1].abs() < 1e-12);
        assert!((w[n / 2] - 1.0).abs() < 1e-12, "peak at center");
        for i in 0..n {
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn hamming_endpoints_nonzero() {
        let w0 = Window::Hamming.coefficient(0, 21);
        assert!((w0 - 0.08).abs() < 1e-9);
    }

    #[test]
    fn coherent_gain_in_unit_interval() {
        let mut planner = crate::FftPlanner::new();
        for w in [Window::Rectangular, Window::Hann, Window::Hamming] {
            let g = planner.window(w, 64).coherent_gain();
            assert!(g > 0.0 && g <= 1.0, "{w:?}: {g}");
        }
        assert_eq!(planner.window(Window::Rectangular, 64).coherent_gain(), 1.0);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(Window::Hann.coefficient(0, 0), 1.0);
        assert_eq!(Window::Hann.coefficient(0, 1), 1.0);
    }
}
