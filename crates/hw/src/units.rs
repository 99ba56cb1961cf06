//! Time and energy quantities.
//!
//! Newtypes keep microseconds and microjoules from being confused with each
//! other or with raw `f64`s across the hardware models.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A duration, stored in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Latency(f64);

impl Latency {
    /// Zero latency.
    pub const ZERO: Latency = Latency(0.0);

    /// From microseconds.
    pub fn from_us(us: f64) -> Self {
        Self(us)
    }

    /// From milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Self(ms * 1e3)
    }

    /// From nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        Self(ns * 1e-3)
    }

    /// From seconds.
    pub fn from_s(s: f64) -> Self {
        Self(s * 1e6)
    }

    /// From a cycle count at a clock frequency in GHz.
    pub fn from_cycles(cycles: u64, freq_ghz: f64) -> Self {
        Self(cycles as f64 / (freq_ghz * 1e3))
    }

    /// In microseconds.
    pub fn us(&self) -> f64 {
        self.0
    }

    /// In milliseconds.
    pub fn ms(&self) -> f64 {
        self.0 / 1e3
    }

    /// In seconds.
    pub fn s(&self) -> f64 {
        self.0 / 1e6
    }

    /// Element-wise maximum (for parallel stages).
    pub fn max(self, other: Latency) -> Latency {
        Latency(self.0.max(other.0))
    }
}

/// An energy, stored in microjoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// From millijoules.
    pub fn from_mj(mj: f64) -> Self {
        Self(mj * 1e3)
    }

    /// From nanojoules.
    pub fn from_nj(nj: f64) -> Self {
        Self(nj * 1e-3)
    }

    /// From picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Self(pj * 1e-6)
    }

    /// Power (watts) sustained for a duration.
    pub fn from_power(watts: f64, t: Latency) -> Self {
        Self(watts * t.us()) // W·µs = µJ
    }

    /// In microjoules.
    pub fn uj(&self) -> f64 {
        self.0
    }

    /// In millijoules.
    pub fn mj(&self) -> f64 {
        self.0 / 1e3
    }

    /// In joules.
    pub fn j(&self) -> f64 {
        self.0 / 1e6
    }
}

macro_rules! quantity_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl AddAssign for $t {
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            fn mul(self, k: f64) -> $t {
                $t(self.0 * k)
            }
        }
        impl Div<$t> for $t {
            type Output = f64;
            fn div(self, rhs: $t) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                iter.fold($t(0.0), |a, b| a + b)
            }
        }
    };
}

quantity_ops!(Latency);
quantity_ops!(Energy);

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.2} ms", self.ms())
        } else {
            write!(f, "{:.2} µs", self.0)
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.2} mJ", self.mj())
        } else {
            write!(f, "{:.2} µJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let t = Latency::from_ms(2.5);
        assert!((t.us() - 2500.0).abs() < 1e-9);
        assert!((t.s() - 0.0025).abs() < 1e-12);
        let e = Energy::from_mj(1.0);
        assert!((e.uj() - 1000.0).abs() < 1e-9);
        assert!((e.j() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn cycles_at_frequency() {
        // 1000 cycles at 1 GHz = 1 µs.
        let t = Latency::from_cycles(1000, 1.0);
        assert!((t.us() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        // 50 mW for 2 ms = 100 µJ.
        let e = Energy::from_power(0.05, Latency::from_ms(2.0));
        assert!((e.uj() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Latency = [Latency::from_us(1.0), Latency::from_us(2.0)]
            .into_iter()
            .sum();
        assert!((total.us() - 3.0).abs() < 1e-12);
        assert!(((total * 2.0).us() - 6.0).abs() < 1e-12);
        assert!((Latency::from_us(4.0) / Latency::from_us(2.0) - 2.0).abs() < 1e-12);
        assert_eq!(
            Latency::from_us(1.0).max(Latency::from_us(5.0)),
            Latency::from_us(5.0)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Latency::from_us(12.0).to_string(), "12.00 µs");
        assert_eq!(Latency::from_ms(3.0).to_string(), "3.00 ms");
        assert_eq!(Energy::from_mj(9.8).to_string(), "9.80 mJ");
    }
}
