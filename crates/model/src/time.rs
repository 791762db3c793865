//! Simulated time.
//!
//! The marketplace simulator is a deterministic discrete-event system; all
//! timestamps are integer **ticks** where one tick is one simulated second.
//! Integer time keeps event ordering total and reproducible across
//! platforms (no floating-point agenda keys).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (seconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier` is
    /// in the future (clock skew cannot occur in the simulator, but callers
    /// should not panic on malformed traces).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600)
    }

    /// Construct from whole days (24h).
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400)
    }

    /// Length in seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Length in (fractional) hours, for wage computations.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Saturating duration addition.
    pub(crate) fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Scale a duration by a non-negative factor, rounding to nearest.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        SimDuration((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

/// Shared `D+HH:MM:SS` formatting for both time types.
macro_rules! fmt_hms {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let total = self.0;
            let days = total / 86_400;
            let h = (total % 86_400) / 3600;
            let m = (total % 3600) / 60;
            let s = total % 60;
            if days > 0 {
                write!(f, "{days}d{h:02}:{m:02}:{s:02}")
            } else {
                write!(f, "{h:02}:{m:02}:{s:02}")
            }
        }
    };
}

impl fmt::Display for SimTime {
    fmt_hms!();
}

impl fmt::Display for SimDuration {
    fmt_hms!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_secs(100);
        let t1 = t0 + SimDuration::from_secs(50);
        assert_eq!(t1.as_secs(), 150);
        assert_eq!((t1 - t0).as_secs(), 50);
        // saturating: earlier.since(later) == 0
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn constructors() {
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3600);
        assert_eq!(SimDuration::from_days(1).as_secs(), 86_400);
    }

    #[test]
    fn hours_f64() {
        assert!((SimDuration::from_mins(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3723).to_string(), "01:02:03");
        assert_eq!(
            (SimTime::from_secs(90_000)).to_string(),
            "1d01:00:00".to_string()
        );
        assert_eq!(SimDuration::from_secs(59).to_string(), "00:00:59");
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::from_secs(10).mul_f64(1.26).as_secs(), 13);
        assert_eq!(SimDuration::from_secs(10).mul_f64(0.0).as_secs(), 0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(5),
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1);
        assert_eq!(v[2].as_secs(), 5);
    }
}
