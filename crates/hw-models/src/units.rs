//! Physical units as thin newtypes.
//!
//! Watts and joules flow through every layer of the stack; newtypes keep
//! "is this a power or an energy?" mistakes out of the policy code without
//! runtime cost.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Instantaneous power, watts.
///
/// ```
/// use fluxpm_hw::{Joules, Watts};
///
/// let draw = Watts(1200.0);
/// let energy: Joules = draw.over_seconds(60.0);
/// assert_eq!(energy.kilojoules(), 72.0);
/// assert_eq!(energy.average_over(60.0), draw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy, joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Raw value.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Kilowatts.
    pub fn kilowatts(self) -> f64 {
        self.0 / 1e3
    }

    /// Component-wise minimum.
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: Watts, hi: Watts) -> Watts {
        Watts(self.0.clamp(lo.0, hi.0))
    }

    /// Energy accrued by drawing this power for `seconds`.
    pub fn over_seconds(self, seconds: f64) -> Joules {
        Joules(self.0 * seconds)
    }

    /// True if within `tol` watts of `other`.
    pub fn approx_eq(self, other: Watts, tol: f64) -> bool {
        (self.0 - other.0).abs() <= tol
    }
}

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Raw value.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Kilojoules.
    pub fn kilojoules(self) -> f64 {
        self.0 / 1e3
    }

    /// Average power over `seconds` (zero for non-positive spans).
    pub fn average_over(self, seconds: f64) -> Watts {
        if seconds <= 0.0 {
            Watts::ZERO
        } else {
            Watts(self.0 / seconds)
        }
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Div<Watts> for Watts {
    /// Ratio of two powers (dimensionless).
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Watts {
    type Output = Watts;
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} W", self.0)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Watts(100.0) + Watts(50.0), Watts(150.0));
        assert_eq!(Watts(100.0) - Watts(50.0), Watts(50.0));
        assert_eq!(Watts(100.0) * 2.0, Watts(200.0));
        assert_eq!(Watts(100.0) / 4.0, Watts(25.0));
        assert_eq!(Watts(100.0) / Watts(50.0), 2.0);
    }

    #[test]
    fn power_to_energy() {
        assert_eq!(Watts(500.0).over_seconds(10.0), Joules(5000.0));
        assert_eq!(Joules(5000.0).average_over(10.0), Watts(500.0));
        assert_eq!(Joules(5000.0).average_over(0.0), Watts::ZERO);
    }

    #[test]
    fn clamp_and_minmax() {
        assert_eq!(Watts(350.0).clamp(Watts(100.0), Watts(300.0)), Watts(300.0));
        assert_eq!(Watts(50.0).clamp(Watts(100.0), Watts(300.0)), Watts(100.0));
        assert_eq!(Watts(10.0).min(Watts(20.0)), Watts(10.0));
        assert_eq!(Watts(10.0).max(Watts(20.0)), Watts(20.0));
    }

    #[test]
    fn sums() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
        let e: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(e, Joules(3.0));
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Watts(1500.0).kilowatts(), 1.5);
        assert_eq!(Joules(2500.0).kilojoules(), 2.5);
        assert_eq!(Watts(123.456).to_string(), "123.5 W");
    }

    #[test]
    fn approx_eq() {
        assert!(Watts(100.0).approx_eq(Watts(100.4), 0.5));
        assert!(!Watts(100.0).approx_eq(Watts(101.0), 0.5));
    }
}
