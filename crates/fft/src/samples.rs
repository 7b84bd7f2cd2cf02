//! Zero-copy sample views over (possibly wrapped) ring storage.
//!
//! The FPP hot path reads each GPU's epoch buffer straight out of a
//! circular buffer. A wrapped ring exposes its contents as two
//! contiguous runs; [`Samples`] stitches them back into one logical
//! sequence so the planned analytics ([`crate::PeriodAnalyzer`]) can
//! window and reduce the trace without materializing a `Vec` per GPU
//! per epoch.
//!
//! Iteration order is oldest → newest (`head` first, then `tail`), and
//! every reduction ([`Samples::mean`], the windowed copy in
//! `Periodogram::compute_into`) visits elements in exactly
//! that order — so results are bit-identical to the same computation
//! over a contiguous copy.

/// A read-only view of a sample sequence stored as (up to) two
/// contiguous slices, in logical order `head ++ tail`.
///
/// ```
/// use fluxpm_fft::Samples;
///
/// // A wrapped ring holding logically [1., 2., 3., 4.]:
/// let v = Samples::new(&[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(v.len(), 4);
/// assert_eq!(v.iter().collect::<Vec<_>>(), [1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(v.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Samples<'a> {
    head: &'a [f64],
    tail: &'a [f64],
}

impl<'a> Samples<'a> {
    /// View over two runs in logical order (`head` oldest).
    pub fn new(head: &'a [f64], tail: &'a [f64]) -> Samples<'a> {
        Samples { head, tail }
    }

    /// View over one contiguous slice.
    pub fn contiguous(samples: &'a [f64]) -> Samples<'a> {
        Samples {
            head: samples,
            tail: &[],
        }
    }

    /// Total sample count.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// True when the view holds no samples.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.head.iter().chain(self.tail.iter()).copied()
    }

    /// Arithmetic mean over the view, summed oldest → newest — the same
    /// association order as `slice.iter().sum()` over a contiguous copy,
    /// so the result is bit-identical to the copied path. Returns 0 for
    /// an empty view (matching the FPP controller's convention).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.iter().sum();
        sum / self.len() as f64
    }
}

impl<'a> From<&'a [f64]> for Samples<'a> {
    fn from(samples: &'a [f64]) -> Samples<'a> {
        Samples::contiguous(samples)
    }
}

impl<'a> From<(&'a [f64], &'a [f64])> for Samples<'a> {
    fn from((head, tail): (&'a [f64], &'a [f64])) -> Samples<'a> {
        Samples::new(head, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_order_spans_both_runs() {
        let v = Samples::new(&[1.0, 2.0, 3.0], &[4.0, 5.0]);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        let collected: Vec<f64> = v.iter().collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn contiguous_has_empty_tail() {
        let xs = [7.0, 8.0];
        let v = Samples::contiguous(&xs);
        assert_eq!((v.head, v.tail), (&xs[..], &[][..]));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn mean_matches_contiguous_sum_bitwise() {
        let xs: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 251.0).collect();
        for split in 0..xs.len() {
            let v = Samples::new(&xs[split..], &xs[..split]);
            let rotated: Vec<f64> = v.iter().collect();
            let copied = rotated.iter().sum::<f64>() / rotated.len() as f64;
            assert_eq!(v.mean(), copied, "split {split}");
        }
    }

    #[test]
    fn empty_view_mean_is_zero() {
        let v = Samples::new(&[], &[]);
        assert!(v.is_empty());
        assert_eq!(v.mean(), 0.0);
    }
}
