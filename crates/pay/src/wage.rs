//! Effective wages and wage-inequality statistics.
//!
//! The transparency tools the paper surveys (Crowd-Workers \[3\], Turkbench
//! \[6\]) exist to disclose **expected hourly wages**; the fairness
//! literature it cites (\[2\], \[17\]) frames wage discrimination as the core
//! harm. This module computes effective hourly wages from payments and
//! invested time, and inequality indices over the resulting distribution.

use faircrowd_model::money::Credits;
use faircrowd_model::stats;
use faircrowd_model::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Effective hourly wage: earnings divided by invested time. `None` when
/// no time was invested (a wage is meaningless without work).
///
/// The division is **exact integer arithmetic**: `earned × 3600 / secs`
/// in millicents, widened through `i128` and rounded half away from
/// zero. The earlier implementation multiplied by an `f64` reciprocal
/// (`earned · (1/hours)`), which rounds twice — once forming the
/// reciprocal, once converting back — and misstates wages by a
/// millicent on amounts the disclosure tools then report as fact.
pub fn hourly_wage(earned: Credits, worked: SimDuration) -> Option<Credits> {
    let secs = worked.as_secs();
    if secs == 0 {
        return None;
    }
    let num = i128::from(earned.millicents()) * 3600;
    let den = i128::from(secs);
    Some(Credits::from_millicents(
        div_round_half_away(num, den) as i64
    ))
}

/// `num / den` rounded half away from zero, exactly. `den` must be
/// positive (durations are unsigned).
fn div_round_half_away(num: i128, den: i128) -> i128 {
    debug_assert!(den > 0, "durations are positive");
    let q = num.div_euclid(den);
    let r = num.rem_euclid(den); // 0 <= r < den
                                 // Round the non-negative remainder: up when it is at least half —
                                 // for negative `num` this is "away from zero" exactly when the
                                 // remainder strictly exceeds half, so compare against parity.
    if num >= 0 {
        if 2 * r >= den {
            q + 1
        } else {
            q
        }
    } else if 2 * r > den {
        q + 1
    } else {
        q
    }
}

/// Distribution statistics over a set of wages (dollars/hour as `f64` for
/// the indices; exact money stays in [`Credits`] upstream).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WageStats {
    /// Number of workers measured (always ≥ 1; see [`WageStats::from_wages`]).
    pub n: usize,
    /// Mean hourly wage in dollars.
    pub mean: f64,
    /// Median hourly wage in dollars.
    pub median: f64,
    /// 10th percentile (the "worst-off worker" view fairness cares about).
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Gini coefficient of the wage distribution.
    pub gini: f64,
    /// Theil T index.
    pub theil: f64,
    /// Jain's fairness index.
    pub jain: f64,
}

faircrowd_model::record!(WageStats {
    n: usize,
    mean: f64,
    median: f64,
    p10: f64,
    p90: f64,
    gini: f64,
    theil: f64,
    jain: f64,
});

impl WageStats {
    /// Compute statistics from per-worker hourly wages.
    ///
    /// Returns `None` for an empty distribution: with nobody measured
    /// there is no inequality to report, and the previous behaviour —
    /// `gini: 0.0, jain: 1.0`, i.e. *perfect fairness* — fabricated
    /// evidence that sweep folds then averaged into cell aggregates.
    /// Callers fold wage statistics only over runs that actually paid
    /// someone.
    pub fn from_wages(wages: &[Credits]) -> Option<WageStats> {
        if wages.is_empty() {
            return None;
        }
        let xs: Vec<f64> = wages.iter().map(|c| c.as_dollars_f64()).collect();
        Some(WageStats {
            n: xs.len(),
            mean: stats::mean(&xs),
            median: stats::median(&xs),
            p10: stats::percentile(&xs, 10.0),
            p90: stats::percentile(&xs, 90.0),
            gini: stats::gini(&xs),
            theil: stats::theil(&xs),
            jain: stats::jain_index(&xs),
        })
    }

    /// Compute statistics from (earned, worked) pairs, skipping workers
    /// with no invested time. `None` when no worker invested any time.
    pub fn from_earnings(pairs: &[(Credits, SimDuration)]) -> Option<WageStats> {
        let wages: Vec<Credits> = pairs
            .iter()
            .filter_map(|&(earned, worked)| hourly_wage(earned, worked))
            .collect();
        Self::from_wages(&wages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_wage_basic() {
        // 30 cents for 15 minutes -> $1.20/h
        let w = hourly_wage(Credits::from_cents(30), SimDuration::from_mins(15)).unwrap();
        assert_eq!(w, Credits::from_cents(120));
        assert!(hourly_wage(Credits::from_cents(30), SimDuration::ZERO).is_none());
    }

    #[test]
    fn hourly_wage_is_exactly_rounded() {
        // 1 millicent over 7 seconds -> 3600/7 = 514.28… -> 514
        assert_eq!(
            hourly_wage(Credits::from_millicents(1), SimDuration::from_secs(7)),
            Some(Credits::from_millicents(514))
        );
        // 1 millicent over 2400 s -> 1.5 -> rounds half away to 2
        assert_eq!(
            hourly_wage(Credits::from_millicents(1), SimDuration::from_secs(2400)),
            Some(Credits::from_millicents(2))
        );
        // Negative amounts (clawbacks) round away from zero too.
        assert_eq!(
            hourly_wage(Credits::from_millicents(-1), SimDuration::from_secs(2400)),
            Some(Credits::from_millicents(-2))
        );
        // The f64-reciprocal path this replaces got large values wrong;
        // the integer path is exact even near i64 scale.
        let big = Credits::from_millicents(3_000_000_000_000_037);
        let w = hourly_wage(big, SimDuration::from_hours(1)).unwrap();
        assert_eq!(w, big);
    }

    #[test]
    fn stats_on_equal_wages() {
        let wages = vec![Credits::from_dollars(6); 5];
        let s = WageStats::from_wages(&wages).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean - 6.0).abs() < 1e-9);
        assert!((s.gini).abs() < 1e-9);
        assert!((s.jain - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_detect_inequality() {
        let unequal = vec![
            Credits::from_dollars(1),
            Credits::from_dollars(1),
            Credits::from_dollars(20),
        ];
        let s = WageStats::from_wages(&unequal).unwrap();
        assert!(s.gini > 0.3);
        assert!(s.jain < 0.7);
        assert!(s.theil > 0.0);
        assert!(s.p90 > s.p10);
    }

    #[test]
    fn from_earnings_skips_zero_time() {
        let pairs = vec![
            (Credits::from_cents(60), SimDuration::from_mins(30)), // $1.20/h
            (Credits::from_cents(100), SimDuration::ZERO),         // skipped
        ];
        let s = WageStats::from_earnings(&pairs).unwrap();
        assert_eq!(s.n, 1);
        assert!((s.mean - 1.2).abs() < 1e-9);
    }

    #[test]
    fn empty_distribution_has_no_stats() {
        // The regression this pins: an empty wage set must NOT score as
        // perfectly fair (gini 0 / jain 1) — it has no score at all.
        assert_eq!(WageStats::from_wages(&[]), None);
        assert_eq!(
            WageStats::from_earnings(&[(Credits::from_cents(9), SimDuration::ZERO)]),
            None
        );
    }
}
