//! The Hann taper.
//!
//! FPP's analysis windows are short, so spectral leakage from an untapered
//! window would smear the phase peak; the periodogram applies Hann.

/// The Hann coefficient at index `i` of an `n`-point window:
/// `0.5 - 0.5 cos(2 pi i / (n-1))`, and 1 for `n <= 1`.
pub(crate) fn hann(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    let x = 2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64;
    0.5 - 0.5 * x.cos()
}

/// A cached `n`-point Hann coefficient table plus its coherent gain, the
/// mean coefficient.
#[derive(Debug)]
pub(crate) struct WindowTable {
    coeffs: Vec<f64>,
    coherent_gain: f64,
}

impl WindowTable {
    pub(crate) fn new(n: usize) -> WindowTable {
        let coeffs: Vec<f64> = (0..n).map(|i| hann(i, n)).collect();
        let coherent_gain = coeffs.iter().sum::<f64>() / n.max(1) as f64;
        WindowTable {
            coeffs,
            coherent_gain,
        }
    }

    /// Coefficient vector (`len() == n`).
    pub(crate) fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Mean coefficient: what normalizes a windowed spectrum's amplitude.
    pub(crate) fn coherent_gain(&self) -> f64 {
        self.coherent_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_endpoints_are_zero_and_symmetric() {
        let n = 33;
        let w: Vec<f64> = (0..n).map(|i| hann(i, n)).collect();
        assert!(w[0].abs() < 1e-12);
        assert!(w[n - 1].abs() < 1e-12);
        assert!((w[n / 2] - 1.0).abs() < 1e-12, "peak at center");
        for i in 0..n {
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn coherent_gain_in_unit_interval() {
        for n in [15usize, 64, 90] {
            let g = WindowTable::new(n).coherent_gain();
            assert!(g > 0.0 && g <= 1.0, "n={n}: {g}");
        }
        assert_eq!(WindowTable::new(1).coherent_gain(), 1.0);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(hann(0, 0), 1.0);
        assert_eq!(hann(0, 1), 1.0);
    }
}
