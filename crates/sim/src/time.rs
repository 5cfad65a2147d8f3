//! Simulated time and clock-frequency types.
//!
//! All timing inside the virtual platform is expressed as [`SimTime`], an
//! integer number of picoseconds. Picosecond resolution is fine enough that
//! every clock used by the platform (200 MHz AHB/CPU, DDR2-800, ONFI 166 MT/s,
//! SATA 3 Gb/s, PCIe 5 GT/s) has an exact integer period, so no rounding error
//! accumulates across long simulations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, stored as integer picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the two
/// interpretations share the same arithmetic, mirroring `sc_time` in SystemC.
///
/// # Example
///
/// ```
/// use ssdx_sim::SimTime;
/// let t = SimTime::from_us(60) + SimTime::from_ns(500);
/// assert_eq!(t.as_ns(), 60_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from a (possibly fractional) number of nanoseconds,
    /// rounding to the nearest picosecond.
    ///
    /// Negative inputs saturate to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((ns * 1_000.0).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Time expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Time expressed as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time expressed as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns `true` if the time is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Multiplies a duration by a floating-point scale factor (e.g. a
    /// compression ratio), rounding to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimTime(round_non_negative(self.0 as f64 * factor))
    }
}

/// Rounds a non-negative `x` to the nearest integer, halves away from zero,
/// exactly as `x.round() as u64` does (saturating at `u64::MAX` for values
/// of 2^64 and above, and for infinity), without the call into a software
/// `round` that `f64::round` compiles to on the baseline x86-64 target.
#[inline]
fn round_non_negative(x: f64) -> u64 {
    // Every f64 from 2^52 up is already an integer.
    if x >= 4_503_599_627_370_496.0 {
        return x as u64;
    }
    let whole = x as u64;
    // Exact: `whole as f64` is exact below 2^52, and `x` lies within a
    // factor of two of it (or `whole` is zero), so the difference is exact.
    whole + (x - whole as f64 >= 0.5) as u64
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
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
        let ps = self.0;
        if ps == 0 {
            return write!(f, "0 s");
        }
        // Exact multiples print as integers in the largest exact unit;
        // everything else prints with three decimals in a readable unit.
        if ps % 1_000_000_000_000 == 0 {
            write!(f, "{} s", ps / 1_000_000_000_000)
        } else if ps % 1_000_000_000 == 0 {
            write!(f, "{} ms", ps / 1_000_000_000)
        } else if ps % 1_000_000 == 0 {
            write!(f, "{} us", ps / 1_000_000)
        } else if ps % 1_000 == 0 {
            write!(f, "{} ns", ps / 1_000)
        } else if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", ps as f64 / 1e12)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

/// A clock frequency, used to convert between cycle counts and [`SimTime`].
///
/// # Example
///
/// ```
/// use ssdx_sim::Frequency;
/// let cpu = Frequency::from_mhz(200);
/// assert_eq!(cpu.cycles_to_time(1).as_ns(), 5);
/// assert_eq!(cpu.cycles_to_time(200_000_000).as_ms(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency { hz }
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Frequency in hertz.
    #[inline]
    pub fn as_hz(self) -> u64 {
        self.hz
    }

    /// Duration of `cycles` clock cycles.
    #[inline]
    pub fn cycles_to_time(self, cycles: u64) -> SimTime {
        // Multiply first in u128 to avoid losing sub-period remainders.
        let ps = (cycles as u128 * 1_000_000_000_000u128) / self.hz as u128;
        SimTime::from_ps(ps as u64)
    }

    /// Number of whole clock cycles elapsed in `time` (truncating).
    #[inline]
    pub fn time_to_cycles(self, time: SimTime) -> u64 {
        ((time.as_ps() as u128 * self.hz as u128) / 1_000_000_000_000u128) as u64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz % 1_000_000_000 == 0 {
            write!(f, "{} GHz", self.hz / 1_000_000_000)
        } else if self.hz % 1_000_000 == 0 {
            write!(f, "{} MHz", self.hz / 1_000_000)
        } else if self.hz % 1_000 == 0 {
            write!(f, "{} kHz", self.hz / 1_000)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

/// Computes the time needed to move `bytes` at a sustained bandwidth of
/// `bytes_per_sec`, rounding up to the next picosecond.
///
/// # Panics
///
/// Panics if `bytes_per_sec` is zero.
#[inline]
pub fn transfer_time(bytes: u64, bytes_per_sec: u64) -> SimTime {
    assert!(bytes_per_sec > 0, "bandwidth must be non-zero");
    let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bytes_per_sec as u128);
    SimTime::from_ps(ps as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_accessors_round_trip() {
        assert_eq!(SimTime::from_ns(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_us(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_ms(), 1_000);
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!((a + b).as_ns(), 140);
        assert_eq!((a - b).as_ns(), 60);
        assert_eq!((a * 3).as_ns(), 300);
        assert_eq!((a / 4).as_ns(), 25);
    }

    #[test]
    fn saturating_sub_does_not_underflow() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(20);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_ns(), 10);
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(SimTime::from_ms(3).to_string(), "3 ms");
        assert_eq!(SimTime::from_us(7).to_string(), "7 us");
        assert_eq!(SimTime::from_ns(9).to_string(), "9 ns");
        assert_eq!(SimTime::from_ps(11).to_string(), "11 ps");
        assert_eq!(SimTime::ZERO.to_string(), "0 s");
    }

    #[test]
    fn display_uses_decimals_for_inexact_values() {
        assert_eq!(SimTime::from_ps(1_234_567).to_string(), "1.235 us");
        assert_eq!(SimTime::from_ps(403_211_536_814).to_string(), "403.212 ms");
        assert_eq!(SimTime::from_ps(1_500).to_string(), "1.500 ns");
    }

    #[test]
    fn frequency_period_is_exact_for_platform_clocks() {
        assert_eq!(Frequency::from_mhz(200).cycles_to_time(1).as_ps(), 5_000);
        assert_eq!(Frequency::from_mhz(400).cycles_to_time(1).as_ps(), 2_500);
        assert_eq!(Frequency::from_mhz(1_000).cycles_to_time(1).as_ps(), 1_000);
    }

    #[test]
    fn cycles_round_trip() {
        let f = Frequency::from_mhz(200);
        let t = f.cycles_to_time(12345);
        assert_eq!(f.time_to_cycles(t), 12345);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 300 MB/s moving 3 MB takes 10 ms.
        let t = transfer_time(3_000_000, 300_000_000);
        assert_eq!(t.as_ms(), 10);
    }

    #[test]
    fn scale_rounds_to_nearest_ps() {
        let t = SimTime::from_ns(100);
        assert_eq!(t.scale(0.5).as_ps(), 50_000);
        assert_eq!(t.scale(1.0), t);
        assert_eq!(t.scale(0.0), SimTime::ZERO);
    }

    /// `scale` against `f64::round`, on the product it rounds.
    fn scale_matches_round(ps: u64, factor: f64) -> Result<(), String> {
        let got = SimTime::from_ps(ps).scale(factor).as_ps();
        let want = (ps as f64 * factor).round() as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("{ps} ps x {factor:e}: {got} != {want}"))
        }
    }

    #[test]
    fn scale_rounds_ties_and_extremes_like_f64_round() {
        let two_52 = 1u64 << 52;
        let cases: &[(u64, f64)] = &[
            // Ties at k + 0.5 round away from zero; just below them, down.
            (1, 0.5),
            (3, 0.5),
            (5, 0.5),
            (2_000_001, 0.5),
            (1, 0.499_999_999_999_999_94),
            (1, 1.5),
            (1, 2.5),
            // Either side of 2^52, where f64 stops holding fractions.
            (two_52 - 1, 1.0),
            (two_52 - 1, 1.5),
            (two_52 + 1, 1.0),
            (two_52 - 3, 0.5),
            (2 * two_52 + 1, 0.5),
            (1 << 53, 1.0),
            (1 << 63, 1.0),
            (u64::MAX, 1.0),
            // At and above 2^64, and up to infinity: `as u64` saturates.
            (1 << 63, 2.0),
            (u64::MAX, 3.0),
            (u64::MAX, f64::MAX),
            // Subnormal products and factors, and a negative zero factor.
            (1, f64::MIN_POSITIVE / 4.0),
            (u64::MAX, 5e-324),
            (0, f64::MAX),
            (7, -0.0),
            (0, 0.0),
        ];
        for &(ps, factor) in cases {
            scale_matches_round(ps, factor).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn scale_rounds_like_f64_round(
            ps in any::<u64>(),
            small in 0u64..1_000_000,
            factor in 0.0f64..4.0,
            bits in any::<u64>(),
            twice in 0u64..(1 << 54),
        ) {
            // Ordinary factors, on large and small durations.
            prop_assert_eq!(scale_matches_round(ps, factor), Ok(()));
            prop_assert_eq!(scale_matches_round(small, factor), Ok(()));
            // Every non-negative finite factor, subnormals included.
            let any = f64::from_bits(bits >> 1);
            if any.is_finite() {
                prop_assert_eq!(scale_matches_round(small, any), Ok(()));
                prop_assert_eq!(scale_matches_round(ps, any), Ok(()));
            }
            // Exact halves up to 2^53: every tie there rounds up.
            prop_assert_eq!(scale_matches_round(twice, 0.5), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_rejects_negative() {
        let _ = SimTime::from_ns(1).scale(-1.0);
    }

    #[test]
    fn from_ns_f64_saturates_negative_to_zero() {
        assert_eq!(SimTime::from_ns_f64(-4.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(2.5).as_ps(), 2_500);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [
            SimTime::from_ns(1),
            SimTime::from_ns(2),
            SimTime::from_ns(3),
        ]
        .into_iter()
        .sum();
        assert_eq!(total.as_ns(), 6);
    }
}
