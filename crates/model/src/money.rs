//! Fixed-point money.
//!
//! Rewards (`d_t` in the paper) and every ledger movement are expressed in
//! [`Credits`]: a signed 64-bit count of **millicents** (1/1000 of a cent).
//! Crowd micro-payments are routinely fractions of a cent, and floating
//! point money is how ledgers stop balancing, so all arithmetic here is
//! integer, checked in debug builds and saturating in release.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Millicents per cent.
const MILLIS_PER_CENT: i64 = 1_000;
/// Millicents per dollar.
const MILLIS_PER_DOLLAR: i64 = 100_000;

/// A signed amount of money in millicents (1/1000 cent).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Credits(pub i64);

impl Credits {
    /// Zero money.
    pub const ZERO: Credits = Credits(0);

    /// Construct from raw millicents.
    pub const fn from_millicents(mc: i64) -> Self {
        Credits(mc)
    }

    /// Construct from whole cents.
    pub const fn from_cents(c: i64) -> Self {
        Credits(c * MILLIS_PER_CENT)
    }

    /// Construct from whole dollars.
    pub const fn from_dollars(d: i64) -> Self {
        Credits(d * MILLIS_PER_DOLLAR)
    }

    /// Raw millicents.
    pub const fn millicents(self) -> i64 {
        self.0
    }

    /// Value in (fractional) dollars — for statistics only, never for
    /// ledger arithmetic.
    pub fn as_dollars_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_DOLLAR as f64
    }

    /// True when the amount is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// True when the amount is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative factor, rounding half away from zero.
    /// Used by quality-adjusted compensation schemes.
    pub fn mul_f64(self, factor: f64) -> Credits {
        debug_assert!(factor.is_finite(), "scale factor must be finite");
        let v = self.0 as f64 * factor;
        Credits(round_half_away(v))
    }

    /// Divide into `n` equal shares; the remainder millicents are
    /// distributed to the first `rem` shares so the sum of shares is exact.
    /// Returns an empty vec when `n == 0`.
    pub fn split_evenly(self, n: usize) -> Vec<Credits> {
        if n == 0 {
            return Vec::new();
        }
        let n_i = n as i64;
        let base = self.0.div_euclid(n_i);
        let rem = self.0.rem_euclid(n_i);
        (0..n_i)
            .map(|i| Credits(base + i64::from(i < rem)))
            .collect()
    }

    /// Absolute difference between two amounts.
    pub fn abs_diff(self, rhs: Credits) -> Credits {
        Credits((self.0 - rhs.0).abs())
    }

    /// The larger of two amounts.
    pub fn max(self, rhs: Credits) -> Credits {
        Credits(self.0.max(rhs.0))
    }

    /// The smaller of two amounts.
    pub fn min(self, rhs: Credits) -> Credits {
        Credits(self.0.min(rhs.0))
    }
}

fn round_half_away(v: f64) -> i64 {
    if v >= 0.0 {
        (v + 0.5).floor() as i64
    } else {
        (v - 0.5).ceil() as i64
    }
}

impl Add for Credits {
    type Output = Credits;
    fn add(self, rhs: Credits) -> Credits {
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "credits addition overflow"
        );
        Credits(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Credits {
    fn add_assign(&mut self, rhs: Credits) {
        *self = *self + rhs;
    }
}

impl Sub for Credits {
    type Output = Credits;
    fn sub(self, rhs: Credits) -> Credits {
        debug_assert!(
            self.0.checked_sub(rhs.0).is_some(),
            "credits subtraction overflow"
        );
        Credits(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Credits {
    fn sub_assign(&mut self, rhs: Credits) {
        *self = *self - rhs;
    }
}

impl Neg for Credits {
    type Output = Credits;
    fn neg(self) -> Credits {
        Credits(-self.0)
    }
}

impl Sum for Credits {
    fn sum<I: Iterator<Item = Credits>>(iter: I) -> Credits {
        iter.fold(Credits::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let dollars = abs / MILLIS_PER_DOLLAR as u64;
        let sub_dollar = abs % MILLIS_PER_DOLLAR as u64;
        let cents = sub_dollar / MILLIS_PER_CENT as u64;
        let millis = sub_dollar % MILLIS_PER_CENT as u64;
        if millis == 0 {
            write!(f, "{sign}${dollars}.{cents:02}")
        } else {
            write!(f, "{sign}${dollars}.{cents:02}{millis:03}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_units() {
        assert_eq!(Credits::from_cents(5).millicents(), 5_000);
        assert_eq!(Credits::from_dollars(2).millicents(), 200_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Credits::from_cents(5).to_string(), "$0.05");
        assert_eq!(Credits::from_dollars(12).to_string(), "$12.00");
        assert_eq!(Credits::from_millicents(1_234_567).to_string(), "$12.34567");
        assert_eq!(Credits::from_cents(-250).to_string(), "-$2.50");
    }

    #[test]
    fn split_evenly_is_exact() {
        let total = Credits::from_millicents(10);
        let shares = total.split_evenly(3);
        assert_eq!(shares.len(), 3);
        assert_eq!(shares.iter().copied().sum::<Credits>(), total);
        // max spread between shares is one millicent
        let max = shares.iter().max().unwrap().0;
        let min = shares.iter().min().unwrap().0;
        assert!(max - min <= 1);
        assert!(total.split_evenly(0).is_empty());
    }

    #[test]
    fn mul_f64_rounds_half_away() {
        assert_eq!(Credits::from_millicents(10).mul_f64(0.25).0, 3); // 2.5 -> 3
        assert_eq!(Credits::from_millicents(-10).mul_f64(0.25).0, -3);
        assert_eq!(Credits::from_cents(10).mul_f64(0.8), Credits::from_cents(8));
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = Credits::from_cents(10);
        let b = Credits::from_cents(3);
        assert_eq!(a + b, Credits::from_cents(13));
        assert_eq!(a - b, Credits::from_cents(7));
        assert_eq!(-b, Credits::from_cents(-3));
        let v = vec![a, b, Credits::from_cents(7)];
        assert_eq!(v.into_iter().sum::<Credits>(), Credits::from_cents(20));
    }

    #[test]
    fn comparisons() {
        assert!(Credits::from_cents(5) > Credits::from_cents(4));
        assert_eq!(
            Credits::from_cents(5).abs_diff(Credits::from_cents(8)),
            Credits::from_cents(3)
        );
        assert_eq!(
            Credits::from_cents(5).max(Credits::from_cents(8)),
            Credits::from_cents(8)
        );
    }
}
