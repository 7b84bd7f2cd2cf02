//! Simulated time.
//!
//! Time is tracked in integer microseconds so that event ordering is exact
//! (no floating-point comparison hazards) while still resolving the finest
//! granularity the paper cares about (the IBM OCC samples at 500 µs).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds, saturating at the top of the clock.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(MICROS_PER_SEC))
    }

    /// Construct from whole milliseconds, saturating at the top of the
    /// clock.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Seconds as a float (for plotting / CSV output).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds, saturating at [`SimDuration::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(MICROS_PER_SEC))
    }

    /// Construct from whole milliseconds, saturating at
    /// [`SimDuration::MAX`].
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// The longest representable duration — the saturation bound for
    /// lossy float conversions and for saturating time arithmetic.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Degenerate inputs saturate instead of wrapping
    /// through the float→int cast: negative values, `-0.0`, and NaN
    /// clamp to [`SimDuration::ZERO`]; values beyond the representable
    /// range (including `+∞`) clamp to [`SimDuration::MAX`].
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let micros = (secs * MICROS_PER_SEC as f64).round();
        if micros >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        SimDuration(micros as u64)
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer multiple of this duration, saturating at
    /// [`SimDuration::MAX`].
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

// Additions (and the constructors' unit conversions) saturate at the top
// of the clock rather than wrapping or panicking: a saturated duration
// (e.g. a degenerate `from_secs_f64` input) then pins the instant at the
// far future — which an ordering comparison or horizon check catches —
// instead of aborting the simulation or wrapping back into valid-looking
// small times.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Write `micros` as seconds with six decimals, byte-for-byte what
/// `format!("{:.6}s", micros as f64 / 1e6)` prints (the string trace and
/// its hashes pin that), without the float formatter. Below 2^52 µs the
/// quotient's rounding error is under half a microsecond, so the float
/// path prints exactly the integer digits; above, it does not, and the
/// float path stays.
fn fmt_micros(micros: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if micros < 1 << 52 {
        let (secs, frac) = (micros / MICROS_PER_SEC, micros % MICROS_PER_SEC);
        write!(f, "{secs}.{frac:06}s")
    } else {
        write!(f, "{:.6}s", micros as f64 / MICROS_PER_SEC as f64)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_micros(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_micros(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        // Saturating subtraction never underflows.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(4);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-7).as_micros(), 0);
    }

    #[test]
    fn from_secs_f64_rejects_degenerate_inputs() {
        // NaN slips past a plain `<= 0.0` guard (all NaN comparisons
        // are false) and the raw `as u64` cast would turn it into 0 —
        // or +inf into u64::MAX — silently. Both must clamp instead.
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_secs_f64(-0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        // Values overflowing the microsecond clock saturate at MAX, not
        // at a wrapped small number.
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(u64::MAX as f64),
            SimDuration::MAX
        );
        // The largest finite conversions stay monotone.
        let nearly = SimDuration::from_secs_f64(1e13);
        assert!(nearly < SimDuration::MAX);
        assert_eq!(nearly.as_micros(), 1e19 as u64);
    }

    #[test]
    fn saturated_durations_pin_instants_without_wrapping() {
        let t = SimTime::from_secs(10);
        // Adding a saturated duration used to overflow-panic (debug) or
        // wrap (release); now it pins at the far future.
        assert_eq!(t + SimDuration::MAX, SimTime(u64::MAX));
        let mut t2 = SimTime::from_secs(1);
        t2 += SimDuration::MAX;
        assert_eq!(t2, SimTime(u64::MAX));
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(SimDuration::MAX.mul(3), SimDuration::MAX);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(20).to_string(), "0.000020s");
    }

    #[test]
    fn constructors_saturate_like_the_additions() {
        let big = u64::MAX / 1_000;
        assert_eq!(SimTime::from_secs(big), SimTime(u64::MAX));
        assert_eq!(SimTime::from_millis(big + 1), SimTime(u64::MAX));
        assert_eq!(SimDuration::from_secs(big), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(big + 1), SimDuration::MAX);
        // The largest exact conversions are untouched.
        assert_eq!(SimTime::from_millis(big).as_micros(), big * 1_000);
        let secs = u64::MAX / MICROS_PER_SEC;
        assert_eq!(
            SimDuration::from_secs(secs).as_micros(),
            secs * MICROS_PER_SEC
        );
    }

    /// The integer `Display` path against the float formatter it
    /// replaced, the way `push_fixed3` is held to `format!("{v:.3}")`.
    #[test]
    fn display_matches_the_float_formatter() {
        let check = |us: u64| {
            let want = format!("{:.6}s", us as f64 / MICROS_PER_SEC as f64);
            assert_eq!(SimTime(us).to_string(), want, "SimTime({us})");
            assert_eq!(SimDuration(us).to_string(), want, "SimDuration({us})");
        };
        // Dense low range: every microsecond of the first 2.1 s.
        (0..2_100_000).for_each(check);
        // Around every power of two and of ten, including the guard at
        // 2^52 and the top of the clock.
        for p in 0..64 {
            let b = 1u64 << p;
            (b.saturating_sub(3)..=b.saturating_add(3)).for_each(check);
        }
        let mut d = 1u64;
        while let Some(next) = d.checked_mul(10) {
            (d - 1..=d + 1).for_each(check);
            (d * 5 - 1..=d * 5 + 1).for_each(check);
            d = next;
        }
        check(u64::MAX);
        // Random, uniform in the exponent so every magnitude is drawn.
        let mut rng = crate::rng::Xoshiro256pp::seed_from_u64(52);
        for _ in 0..400_000 {
            let bits = 1 + rng.below(64) as u32;
            check(rng.next_u64() >> (64 - bits));
        }
    }
}
