//! Time, frequency and voltage quantities used throughout the simulator.
//!
//! All wall-clock times are expressed in nanoseconds (`TimeNs`), frequencies in
//! megahertz (`MegaHertz`) and voltages in volts (`Volts`). The newtypes keep the
//! units straight across the domain-crossing arithmetic in the timing model.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) wall-clock time, in nanoseconds.
///
/// The baseline MCD processor runs at 1 GHz, so one baseline cycle is exactly
/// 1 ns; a 250 MHz domain cycle is 4 ns.
///
/// ```
/// use mcd_sim::time::TimeNs;
/// let a = TimeNs::new(2.0);
/// let b = TimeNs::new(3.5);
/// assert_eq!((a + b).as_ns(), 5.5);
/// assert!(b > a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimeNs(f64);

impl TimeNs {
    /// Time zero.
    pub const ZERO: TimeNs = TimeNs(0.0);

    /// Creates a time value from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `ns` is NaN.
    pub fn new(ns: f64) -> Self {
        debug_assert!(!ns.is_nan(), "time must not be NaN");
        TimeNs(ns)
    }

    /// Creates a time value from microseconds.
    pub fn from_us(us: f64) -> Self {
        TimeNs::new(us * 1_000.0)
    }

    /// Creates a time value from picoseconds.
    pub fn from_ps(ps: f64) -> Self {
        TimeNs::new(ps / 1_000.0)
    }

    /// Returns the value in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0
    }

    /// Returns the value in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Returns the value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-9
    }

    /// Returns the larger of two times.
    pub fn max(self, other: TimeNs) -> TimeNs {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: TimeNs) -> TimeNs {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: TimeNs) -> TimeNs {
        TimeNs((self.0 - other.0).max(0.0))
    }

    /// True if this time span is (numerically) zero or negative.
    pub fn is_zero(self) -> bool {
        self.0 <= 0.0
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;
    fn sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimeNs {
    type Output = TimeNs;
    fn mul(self, rhs: f64) -> TimeNs {
        TimeNs(self.0 * rhs)
    }
}

impl Div<f64> for TimeNs {
    type Output = TimeNs;
    fn div(self, rhs: f64) -> TimeNs {
        TimeNs(self.0 / rhs)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.0)
    }
}

/// A clock frequency in megahertz.
///
/// The MCD domains scale between 250 MHz and 1000 MHz (1 GHz).
///
/// ```
/// use mcd_sim::time::MegaHertz;
/// let f = MegaHertz::new(500.0);
/// assert_eq!(f.period().as_ns(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MegaHertz(f64);

impl MegaHertz {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `mhz` is not strictly positive.
    pub fn new(mhz: f64) -> Self {
        debug_assert!(mhz > 0.0, "frequency must be positive, got {mhz}");
        MegaHertz(mhz)
    }

    /// Returns the value in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0
    }

    /// Returns the period of one cycle at this frequency.
    pub fn period(self) -> TimeNs {
        TimeNs::new(1_000.0 / self.0)
    }

    /// Converts a number of cycles at this frequency into wall-clock time.
    pub fn cycles_to_time(self, cycles: f64) -> TimeNs {
        TimeNs::new(cycles * 1_000.0 / self.0)
    }

    /// Converts a wall-clock span into (fractional) cycles at this frequency.
    pub fn time_to_cycles(self, time: TimeNs) -> f64 {
        time.as_ns() * self.0 / 1_000.0
    }

    /// Returns the larger of two frequencies.
    pub fn max(self, other: MegaHertz) -> MegaHertz {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two frequencies.
    pub fn min(self, other: MegaHertz) -> MegaHertz {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Clamps the frequency into `[lo, hi]`.
    pub fn clamp(self, lo: MegaHertz, hi: MegaHertz) -> MegaHertz {
        MegaHertz(self.0.clamp(lo.0, hi.0))
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.0)
    }
}

/// A supply voltage in volts.
///
/// ```
/// use mcd_sim::time::Volts;
/// let v = Volts::new(1.2);
/// let half = Volts::new(0.6);
/// assert!((half.squared_ratio(v) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(f64);

impl Volts {
    /// Creates a voltage from volts.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is not strictly positive.
    pub fn new(v: f64) -> Self {
        debug_assert!(v > 0.0, "voltage must be positive, got {v}");
        Volts(v)
    }

    /// Returns the value in volts.
    pub fn as_volts(self) -> f64 {
        self.0
    }

    /// Returns `(self / reference)^2`, the dynamic-energy scaling factor of
    /// running at this voltage relative to `reference`.
    pub fn squared_ratio(self, reference: Volts) -> f64 {
        let r = self.0 / reference.0;
        r * r
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

/// Energy in arbitrary but consistent units (normalized nanojoules).
///
/// The power model is relative: the absolute scale cancels in every metric the
/// paper reports (energy savings, energy·delay improvement), so we keep a simple
/// linear unit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy value.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `units` is NaN.
    pub fn new(units: f64) -> Self {
        debug_assert!(!units.is_nan(), "energy must not be NaN");
        Energy(units)
    }

    /// Returns the raw value.
    pub fn as_units(self) -> f64 {
        self.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} units", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let a = TimeNs::new(10.0);
        let b = TimeNs::new(4.0);
        assert_eq!((a + b).as_ns(), 14.0);
        assert_eq!((a - b).as_ns(), 6.0);
        assert_eq!((a * 2.0).as_ns(), 20.0);
        assert_eq!((a / 2.0).as_ns(), 5.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn time_saturating_sub_never_negative() {
        let a = TimeNs::new(1.0);
        let b = TimeNs::new(5.0);
        assert_eq!(a.saturating_sub(b), TimeNs::ZERO);
        assert_eq!(b.saturating_sub(a).as_ns(), 4.0);
    }

    #[test]
    fn time_conversions() {
        assert_eq!(TimeNs::from_us(1.0).as_ns(), 1000.0);
        assert_eq!(TimeNs::from_ps(500.0).as_ns(), 0.5);
        assert!((TimeNs::new(2.0).as_us() - 0.002).abs() < 1e-12);
        assert!((TimeNs::new(1.0).as_secs() - 1e-9).abs() < 1e-20);
    }

    #[test]
    fn frequency_period_roundtrip() {
        let f = MegaHertz::new(1000.0);
        assert_eq!(f.period().as_ns(), 1.0);
        let f = MegaHertz::new(250.0);
        assert_eq!(f.period().as_ns(), 4.0);
        assert_eq!(f.cycles_to_time(10.0).as_ns(), 40.0);
        assert!((f.time_to_cycles(TimeNs::new(40.0)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_clamp() {
        let lo = MegaHertz::new(250.0);
        let hi = MegaHertz::new(1000.0);
        assert_eq!(MegaHertz::new(100.0).clamp(lo, hi), lo);
        assert_eq!(MegaHertz::new(2000.0).clamp(lo, hi), hi);
        assert_eq!(MegaHertz::new(700.0).clamp(lo, hi), MegaHertz::new(700.0));
    }

    #[test]
    fn voltage_squared_ratio() {
        let vref = Volts::new(1.2);
        let v = Volts::new(0.65);
        let expect = (0.65f64 / 1.2).powi(2);
        assert!((v.squared_ratio(vref) - expect).abs() < 1e-12);
        assert!((vref.squared_ratio(vref) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_accumulates() {
        let mut e = Energy::ZERO;
        e += Energy::new(2.5);
        e += Energy::new(1.5);
        assert_eq!(e.as_units(), 4.0);
        assert_eq!((e * 2.0).as_units(), 8.0);
        assert_eq!((e - Energy::new(1.0)).as_units(), 3.0);
    }

    #[test]
    fn display_is_not_empty() {
        assert!(!format!("{}", TimeNs::ZERO).is_empty());
        assert!(!format!("{}", MegaHertz::new(1000.0)).is_empty());
        assert!(!format!("{}", Volts::new(1.2)).is_empty());
        assert!(!format!("{}", Energy::ZERO).is_empty());
    }
}
