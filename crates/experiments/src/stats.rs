//! Small descriptive-statistics helpers shared by the experiment
//! printers (repetition summaries, box plots, overhead percentages).

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than 2 samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Linear-interpolated percentile, `p` in `[0, 100]`; a NaN sample
/// ranks above every number. Panics on empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let frac = rank - lo as f64;
        s[lo] * (1.0 - frac) + s[hi] * frac
    }
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Five-number box-plot summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxSummary {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxSummary {
    /// Summarize a sample (panics on empty input).
    pub fn of(xs: &[f64]) -> BoxSummary {
        BoxSummary {
            min: percentile(xs, 0.0),
            q1: percentile(xs, 25.0),
            median: percentile(xs, 50.0),
            q3: percentile(xs, 75.0),
            max: percentile(xs, 100.0),
        }
    }

    /// Relative spread `(max - min) / min`, the paper's Fig. 4 metric.
    pub fn spread(&self) -> f64 {
        if self.min == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 6.0]);
        assert!((sd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 25.0), 1.75);
        // Order-independence.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(median(&shuffled), 2.5);
    }

    #[test]
    fn box_summary() {
        let xs = [10.0, 12.0, 11.0, 13.0, 14.0, 10.5];
        let b = BoxSummary::of(&xs);
        assert_eq!(b.min, 10.0);
        assert_eq!(b.max, 14.0);
        assert!(b.q1 <= b.median && b.median <= b.q3);
        assert!((b.spread() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_percentile_panics() {
        percentile(&[], 50.0);
    }
}
