//! Virtual time for the simulation.
//!
//! All of AN2's quantitative claims are latency claims — 2 µs cut-through,
//! <200 ms reconfiguration, `p * (2f + l)` guaranteed-traffic delay — so the
//! kernel keeps time at nanosecond resolution in a `u64`, which covers about
//! 584 years of simulated time: far more than any experiment needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, measured in nanoseconds since the start of the
/// simulation.
///
/// `SimTime` is totally ordered and cheap to copy. Construct instants by
/// adding a [`SimDuration`] to [`SimTime::ZERO`] or to another instant.
///
/// ```
/// use an2_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(2);
/// assert_eq!(t.as_nanos(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from a raw nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the start of the simulation.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the simulation.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the start of the simulation.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the start of the simulation, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; elapsed time in a
    /// monotonically-ordered simulation can never be negative, so this
    /// indicates a bug in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// `duration_since` that saturates to zero instead of panicking.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of virtual time, in nanoseconds.
///
/// ```
/// use an2_sim::SimDuration;
/// let slot = SimDuration::from_nanos(680); // one ATM cell slot at 622 Mb/s
/// assert_eq!((slot * 1024).as_micros(), 696); // ~0.7 ms frame
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<SimDuration> for u64 {
    type Output = SimDuration;
    fn mul(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self * rhs.0)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    /// How many times `rhs` fits in `self` (integer division).
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimTime::from_nanos(1234).as_nanos(), 1234);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(5);
        let t2 = t1 + SimDuration::from_micros(7);
        assert_eq!(t2 - t0, SimDuration::from_micros(12));
        assert_eq!(t2.duration_since(t1), SimDuration::from_micros(7));
        assert_eq!(t0.saturating_duration_since(t2), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_future() {
        let t1 = SimTime::from_nanos(10);
        let t2 = SimTime::from_nanos(20);
        let _ = t1.duration_since(t2);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!(a + b, SimDuration::from_nanos(140));
        assert_eq!(a - b, SimDuration::from_nanos(60));
        assert_eq!(a * 3, SimDuration::from_nanos(300));
        assert_eq!(3 * a, SimDuration::from_nanos(300));
        assert_eq!(a / 4, SimDuration::from_nanos(25));
        assert_eq!(a / b, 2);
        assert_eq!(a.checked_sub(b), Some(SimDuration::from_nanos(60)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }

    #[test]
    fn display_picks_coarsest_unit() {
        assert_eq!(SimDuration::ZERO.to_string(), "0ns");
        assert_eq!(SimDuration::from_nanos(680).to_string(), "680ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2us");
        assert_eq!(SimDuration::from_millis(200).to_string(), "200ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimTime::from_nanos(5_000).to_string(), "5us");
    }

    #[test]
    fn float_conversions() {
        assert!((SimDuration::from_millis(500).as_secs_f64() - 0.5).abs() < 1e-12);
        assert!((SimTime::from_nanos(1_500_000_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
