//! Compensation schemes.
//!
//! A [`CompensationScheme`] decides what a submission earns given the task
//! reward and the platform's quality estimate for the contribution. The
//! paper's §2.1 surveys quality-based reward schemes (Wang, Ipeirotis,
//! Provost \[21\]) where "compensation depends on the quality of a worker's
//! contribution"; §3.1.1 lists the failure modes (wrongful rejection,
//! reneged bonuses, unequal pay in collaborative tasks) that the schemes
//! and splits here let experiments reproduce and the Axiom-3 checker
//! detect.

use faircrowd_model::money::Credits;
use faircrowd_model::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Everything a scheme may consult when pricing one submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayContext {
    /// The task's advertised reward `d_t`.
    pub task_reward: Credits,
    /// Platform estimate of this contribution's quality in `[0, 1]`.
    pub quality: f64,
    /// Time the worker invested.
    pub work_duration: SimDuration,
}

/// A rule mapping a submission to a payment. Implementations must be pure:
/// same context, same payout — that determinism is what makes Axiom-3
/// audits meaningful.
pub trait CompensationScheme {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// The payment for a submission. `Credits::ZERO` means rejection
    /// without pay.
    fn payout(&self, ctx: &PayContext) -> Credits;
}

/// Pay the advertised reward to every approved contribution — the
/// piecework baseline of AMT-style platforms. Fair by construction under
/// Axiom 3 (identical pay for all contributions to a task).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedPrice;

impl CompensationScheme for FixedPrice {
    fn name(&self) -> &'static str {
        "fixed-price"
    }

    fn payout(&self, ctx: &PayContext) -> Credits {
        ctx.task_reward
    }
}

/// Quality-based pricing after Wang–Ipeirotis–Provost: contributions below
/// a quality floor earn nothing; above it, pay ramps linearly and reaches
/// the full reward at `full_quality`.
///
/// Because the platform's quality *estimate* is noisy, two objectively
/// similar contributions can straddle the floor and be paid differently —
/// the Axiom-3 tension E2 measures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityBased {
    /// Quality below this earns nothing.
    pub floor: f64,
    /// Quality at or above this earns the full reward.
    pub full_quality: f64,
}

impl Default for QualityBased {
    fn default() -> Self {
        QualityBased {
            floor: 0.5,
            full_quality: 0.9,
        }
    }
}

impl CompensationScheme for QualityBased {
    fn name(&self) -> &'static str {
        "quality-based"
    }

    fn payout(&self, ctx: &PayContext) -> Credits {
        let q = ctx.quality.clamp(0.0, 1.0);
        if q < self.floor {
            return Credits::ZERO;
        }
        if q >= self.full_quality || self.full_quality <= self.floor {
            return ctx.task_reward;
        }
        let frac = (q - self.floor) / (self.full_quality - self.floor);
        ctx.task_reward.mul_f64(frac)
    }
}

/// A bonus promise attached to task completion: workers whose quality
/// reaches `quality_threshold` are *promised* `amount` on top of base pay.
/// Whether the promise is honoured is the requester's choice — reneging is
/// the §3.1.1 scenario "a requester promises to provide a bonus … but does
/// not do so in the end".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BonusPolicy {
    /// The bonus amount promised.
    pub amount: Credits,
    /// Quality needed to qualify for the bonus.
    pub quality_threshold: f64,
    /// Whether the requester actually pays promised bonuses.
    pub honoured: bool,
}

impl BonusPolicy {
    /// Does this context qualify for the bonus promise?
    pub fn qualifies(&self, ctx: &PayContext) -> bool {
        ctx.quality >= self.quality_threshold
    }
}

/// Split a collaborative task's reward into `n` equal shares (exact: the
/// shares sum to `total`).
pub fn split_equal(total: Credits, n: usize) -> Vec<Credits> {
    total.split_evenly(n)
}

/// Split a collaborative task's reward proportionally to non-negative
/// contribution weights, using the largest-remainder method so shares are
/// exact to the millicent and sum to `total`. All-zero weights fall back
/// to an equal split.
pub fn split_proportional(total: Credits, weights: &[f64]) -> Vec<Credits> {
    assert!(
        weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
        "weights must be non-negative and finite"
    );
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return split_equal(total, n);
    }
    let raw: Vec<f64> = weights
        .iter()
        .map(|&w| total.millicents() as f64 * (w / sum))
        .collect();
    let mut shares: Vec<i64> = raw.iter().map(|&r| r.floor() as i64).collect();
    let assigned: i64 = shares.iter().sum();
    let mut leftover = total.millicents() - assigned;
    // distribute leftover millicents by largest fractional remainder,
    // breaking ties by index for determinism
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa).expect("NaN remainder").then(a.cmp(&b))
    });
    let mut k = 0;
    while leftover > 0 {
        shares[order[k % n]] += 1;
        leftover -= 1;
        k += 1;
    }
    shares.into_iter().map(Credits::from_millicents).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(reward_cents: i64, quality: f64) -> PayContext {
        PayContext {
            task_reward: Credits::from_cents(reward_cents),
            quality,
            work_duration: SimDuration::from_mins(5),
        }
    }

    #[test]
    fn fixed_price_ignores_quality() {
        let s = FixedPrice;
        assert_eq!(s.payout(&ctx(10, 0.1)), Credits::from_cents(10));
        assert_eq!(s.payout(&ctx(10, 0.99)), Credits::from_cents(10));
        assert_eq!(s.name(), "fixed-price");
    }

    #[test]
    fn quality_based_ramp() {
        let s = QualityBased {
            floor: 0.5,
            full_quality: 0.9,
        };
        assert_eq!(s.payout(&ctx(100, 0.3)), Credits::ZERO);
        assert_eq!(s.payout(&ctx(100, 0.95)), Credits::from_dollars(1));
        // midpoint of the ramp: 0.7 -> 50%
        assert_eq!(s.payout(&ctx(100, 0.7)), Credits::from_cents(50));
        // exactly at floor: 0%
        assert_eq!(s.payout(&ctx(100, 0.5)), Credits::ZERO);
        // quality clamped
        assert_eq!(s.payout(&ctx(100, 1.5)), Credits::from_dollars(1));
    }

    #[test]
    fn quality_based_degenerate_ramp() {
        let s = QualityBased {
            floor: 0.5,
            full_quality: 0.5,
        };
        assert_eq!(s.payout(&ctx(100, 0.49)), Credits::ZERO);
        assert_eq!(s.payout(&ctx(100, 0.5)), Credits::from_dollars(1));
    }

    #[test]
    fn bonus_policy_honoured_and_reneged() {
        let honest = BonusPolicy {
            amount: Credits::from_cents(50),
            quality_threshold: 0.8,
            honoured: true,
        };
        let reneger = BonusPolicy {
            honoured: false,
            ..honest
        };
        let good = ctx(10, 0.9);
        let bad = ctx(10, 0.5);
        assert!(honest.qualifies(&good));
        assert!(!honest.qualifies(&bad));
        assert!(reneger.qualifies(&good), "promise still made");
    }

    #[test]
    fn equal_split_is_exact() {
        let shares = split_equal(Credits::from_millicents(100), 3);
        assert_eq!(
            shares.iter().copied().sum::<Credits>(),
            Credits::from_millicents(100)
        );
    }

    #[test]
    fn proportional_split_follows_weights() {
        let shares = split_proportional(Credits::from_cents(100), &[3.0, 1.0]);
        assert_eq!(shares[0], Credits::from_cents(75));
        assert_eq!(shares[1], Credits::from_cents(25));
    }

    #[test]
    fn proportional_split_is_exact_with_awkward_weights() {
        let total = Credits::from_millicents(1000);
        let shares = split_proportional(total, &[1.0, 1.0, 1.0]);
        assert_eq!(shares.iter().copied().sum::<Credits>(), total);
        let spread = shares.iter().map(|s| s.millicents()).max().unwrap()
            - shares.iter().map(|s| s.millicents()).min().unwrap();
        assert!(spread <= 1);

        let odd = split_proportional(Credits::from_millicents(7), &[0.2, 0.3, 0.5]);
        assert_eq!(
            odd.iter().copied().sum::<Credits>(),
            Credits::from_millicents(7)
        );
    }

    #[test]
    fn proportional_split_zero_weights_fall_back_to_equal() {
        let shares = split_proportional(Credits::from_cents(30), &[0.0, 0.0, 0.0]);
        assert_eq!(shares, vec![Credits::from_cents(10); 3]);
        assert!(split_proportional(Credits::from_cents(30), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = split_proportional(Credits::from_cents(10), &[1.0, -1.0]);
    }
}
