//! Simulated time and clock-frequency types.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in (or span of) simulated time, stored as integer picoseconds.
///
/// Integer picoseconds give exact arithmetic for every clock in the modelled
/// system (a 600 MHz cycle is exactly 1666 ps + remainder handled by
/// [`Frequency::cycles_to_time`], which accumulates in femtosecond-free exact
/// math by multiplying first). A `u64` of picoseconds covers ~213 days of
/// simulated time, far beyond any NPU experiment in the paper.
///
/// # Example
///
/// ```
/// use desim::SimTime;
/// let t = SimTime::from_us(10) + SimTime::from_ns(500);
/// assert_eq!(t.as_ps(), 10_500_000);
/// assert!((t.as_us() - 10.5).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero, the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from a floating-point number of microseconds,
    /// rounding to the nearest picosecond.
    #[must_use]
    pub fn from_us_f64(us: f64) -> Self {
        SimTime((us * 1e6).round().max(0.0) as u64)
    }

    /// Raw picosecond count.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// This time expressed in microseconds (the unit used by NePSim trace
    /// `time` annotations).
    #[must_use]
    pub fn as_us(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Saturating subtraction: returns [`SimTime::ZERO`] rather than
    /// underflowing.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.6}s", self.as_secs())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_secs() * 1e3)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock frequency, stored in kilohertz for exact integer conversion of
/// the frequencies used by the IXP1200/XScale model (600 MHz, 550 MHz, ...).
///
/// # Example
///
/// ```
/// use desim::{Frequency, SimTime};
/// let f = Frequency::from_mhz(600);
/// // 600 MHz: 6e8 cycles per second; 6000 cycles take exactly 10 us.
/// assert_eq!(f.cycles_to_time(6000), SimTime::from_us(10));
/// assert_eq!(f.time_to_cycles(SimTime::from_us(10)), 6000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero — a zero-frequency clock would make
    /// cycle/time conversions divide by zero.
    #[must_use]
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be positive");
        Frequency(mhz * 1_000)
    }

    /// The frequency in megahertz (fractional if not a whole number).
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Raw kilohertz value.
    #[must_use]
    pub const fn as_khz(self) -> u64 {
        self.0
    }

    /// Exact duration of `cycles` clock cycles.
    ///
    /// Computed as `cycles * 1e12 / hz` with the multiplication first in
    /// `u128`, so no precision is lost for any realistic cycle count.
    #[must_use]
    pub fn cycles_to_time(self, cycles: u64) -> SimTime {
        let hz = self.0 as u128 * 1_000;
        let ps = (cycles as u128 * 1_000_000_000_000) / hz;
        SimTime::from_ps(ps as u64)
    }

    /// Number of *complete* cycles of this clock in the span `t`.
    #[must_use]
    pub fn time_to_cycles(self, t: SimTime) -> u64 {
        let hz = self.0 as u128 * 1_000;
        ((t.as_ps() as u128 * hz) / 1_000_000_000_000) as u64
    }

    /// The period of one clock cycle.
    #[must_use]
    pub fn period(self) -> SimTime {
        self.cycles_to_time(1)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.as_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_us_f64(2.5).as_ps(), 2_500_000);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ps(), 14_000);
        assert_eq!((a - b).as_ps(), 6_000);
        assert_eq!((a * 3).as_ps(), 30_000);
        assert_eq!((a / 2).as_ps(), 5_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn simtime_sum_and_display() {
        let total: SimTime = [SimTime::from_ns(1), SimTime::from_ns(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(3));
        assert_eq!(format!("{}", SimTime::from_ps(500)), "500ps");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimTime::from_ms(7)), "7.000ms");
        assert_eq!(format!("{}", SimTime::from_ms(1500)), "1.500000s");
    }

    #[test]
    fn frequency_cycle_conversions_are_exact_for_model_clocks() {
        for mhz in [400u64, 450, 500, 550, 600, 232] {
            let f = Frequency::from_mhz(mhz);
            // Round-tripping whole numbers of cycles must be lossless for
            // counts that produce integral picosecond durations.
            let cycles = mhz * 1_000_000; // exactly one second of cycles
            assert_eq!(f.cycles_to_time(cycles), SimTime::from_ms(1000));
            assert_eq!(f.time_to_cycles(SimTime::from_ms(1000)), cycles);
        }
    }

    #[test]
    fn frequency_penalty_example_from_paper() {
        // The paper's 10us VF-switch penalty equals 6000 cycles at 600 MHz.
        let f = Frequency::from_mhz(600);
        assert_eq!(f.time_to_cycles(SimTime::from_us(10)), 6000);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_mhz(0);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
        assert_eq!(
            SimTime::from_ps(1).checked_add(SimTime::from_ps(2)),
            Some(SimTime::from_ps(3))
        );
    }
}
