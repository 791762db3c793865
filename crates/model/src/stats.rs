//! Statistical helpers shared across the workspace.
//!
//! The validation protocol (§4.1) asks for *objective measures* of fairness
//! and transparency. The inequality indices here (Gini, Atkinson, Theil,
//! Jain) quantify how unevenly exposure, wages or rewards are distributed;
//! the summary helpers support every experiment table.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// [`mean`] over values pushed one at a time, without keeping them. The
/// sum folds left to right from `-0.0`, the start value `Iterator::sum`
/// folds floats from, so pushing `xs` in order gives `mean(xs)` bit for
/// bit.
#[derive(Debug, Clone, Copy)]
pub struct RunningMean {
    sum: f64,
    len: usize,
}

impl Default for RunningMean {
    fn default() -> Self {
        RunningMean { sum: -0.0, len: 0 }
    }
}

impl RunningMean {
    /// Add one value.
    pub fn push(&mut self, x: f64) {
        self.sum += x;
        self.len += 1;
    }

    /// How many values were pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mean so far; 0.0 before the first push, as [`mean`] of `[]`.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.sum / self.len as f64
    }
}

/// Population standard deviation; 0.0 for fewer than two values.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// p-th percentile (0–100) by linear interpolation; 0.0 for empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Gini coefficient of a non-negative distribution, in `[0, 1]`.
/// 0 = perfectly equal; →1 = maximally concentrated. Returns 0.0 for
/// empty input or an all-zero distribution (nothing to distribute equals
/// "equally nothing").
pub fn gini(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    debug_assert!(
        xs.iter().all(|&x| x >= 0.0),
        "gini needs non-negative input"
    );
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in gini input"));
    let total: f64 = v.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    // G = (2 Σ i·x_i) / (n Σ x_i) - (n+1)/n  with 1-based i over sorted x
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted / (n as f64 * total) - (n as f64 + 1.0) / n as f64).clamp(0.0, 1.0)
}

/// Atkinson inequality index with aversion parameter `eps > 0` (≠ 1 uses
/// the power form, 1.0 uses the geometric-mean form). 0 = equal.
pub fn atkinson(xs: &[f64], eps: f64) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    debug_assert!(eps > 0.0, "atkinson aversion must be positive");
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    if (eps - 1.0).abs() < 1e-12 {
        // 1 - geometric mean / mean; zero incomes push the index to 1.
        if xs.iter().any(|&x| x <= 0.0) {
            return 1.0;
        }
        let log_mean = xs.iter().map(|&x| x.ln()).sum::<f64>() / n as f64;
        (1.0 - log_mean.exp() / m).clamp(0.0, 1.0)
    } else {
        let s = xs
            .iter()
            .map(|&x| (x / m).max(0.0).powf(1.0 - eps))
            .sum::<f64>()
            / n as f64;
        (1.0 - s.powf(1.0 / (1.0 - eps))).clamp(0.0, 1.0)
    }
}

/// Theil T index (≥ 0; 0 = equal). Zero values contribute zero (x·ln x → 0).
pub fn theil(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    let s: f64 = xs
        .iter()
        .filter(|&&x| x > 0.0)
        .map(|&x| (x / m) * (x / m).ln())
        .sum();
    (s / n as f64).max(0.0)
}

/// Jain's fairness index in `(0, 1]`; 1 = perfectly equal allocation.
/// Returns 1.0 for empty or all-zero input.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|&x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Five-number summary plus mean, used by experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Summarise a sample; an empty sample yields all zeros.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                min: 0.0,
                p25: 0.0,
                median: 0.0,
                p75: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Summary {
            n: v.len(),
            min: v[0],
            p25: percentile(&v, 25.0),
            median: percentile(&v, 50.0),
            p75: percentile(&v, 75.0),
            max: v[v.len() - 1],
            mean: mean(&v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        // population stddev of 2,4,4,4,5,5,7,9 is 2
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_mean_is_mean_bit_for_bit() {
        // Sums that round differently by order, and signed zeros, which
        // only agree when both start from the same value.
        let cases: [&[f64]; 5] = [
            &[],
            &[-0.0],
            &[-0.0, -0.0],
            &[0.1, 0.2, 0.3, 1e16, -1e16, 0.7],
            &[1.0 / 3.0, 2.0 / 3.0, 0.0, 1.0, 0.25],
        ];
        for xs in cases {
            let mut m = RunningMean::default();
            xs.iter().for_each(|&x| m.push(x));
            assert_eq!(m.len(), xs.len());
            assert_eq!(m.mean().to_bits(), mean(xs).to_bits(), "{xs:?}");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert!((gini(&[1.0, 1.0, 1.0, 1.0])).abs() < 1e-12);
        // one person has everything among n: G = (n-1)/n
        let g = gini(&[0.0, 0.0, 0.0, 10.0]);
        assert!((g - 0.75).abs() < 1e-12);
        // order must not matter
        assert!((gini(&[3.0, 1.0, 2.0]) - gini(&[1.0, 2.0, 3.0])).abs() < 1e-12);
    }

    #[test]
    fn gini_monotone_under_concentration() {
        let even = gini(&[5.0, 5.0, 5.0, 5.0]);
        let mild = gini(&[4.0, 5.0, 5.0, 6.0]);
        let harsh = gini(&[1.0, 2.0, 3.0, 14.0]);
        assert!(even <= mild && mild < harsh);
    }

    #[test]
    fn atkinson_behaviour() {
        assert!((atkinson(&[2.0, 2.0, 2.0], 0.5)).abs() < 1e-12);
        let a = atkinson(&[1.0, 9.0], 0.5);
        assert!(a > 0.0 && a < 1.0);
        // eps = 1 branch with a zero income saturates
        assert_eq!(atkinson(&[0.0, 5.0], 1.0), 1.0);
        let a1 = atkinson(&[2.0, 8.0], 1.0);
        assert!(a1 > 0.0 && a1 < 1.0);
        assert_eq!(atkinson(&[], 0.5), 0.0);
    }

    #[test]
    fn theil_behaviour() {
        assert!((theil(&[3.0, 3.0, 3.0])).abs() < 1e-12);
        assert!(theil(&[1.0, 999.0]) > theil(&[400.0, 600.0]));
        assert_eq!(theil(&[]), 0.0);
        assert_eq!(theil(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn jain_behaviour() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // one of n gets everything -> 1/n
        assert!((jain_index(&[0.0, 0.0, 0.0, 8.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.mean - 2.5).abs() < 1e-12);
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
    }
}
