//! Pluggable similarity configuration.
//!
//! The paper is explicit that similarity is a *parameter* of the axioms:
//! "Similarity can be platform-dependent and ranges from perfect equality
//! to threshold-based similarity" (Axiom 1), "skill similarity can be
//! computed using different measures such as cosine similarity" (Axiom 2),
//! and contribution similarity is kind-dependent (Axiom 3). This module
//! packages those choices so an audit can be run under different
//! similarity regimes (the E1 ablation).

use crate::skills::SkillVector;
use serde::{Deserialize, Serialize};

/// Which kernel to use when comparing two skill vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkillMeasure {
    /// Perfect equality (similarity is 1.0 or 0.0).
    Exact,
    /// Cosine over the Boolean vectors (the paper's Axiom 2 suggestion).
    Cosine,
    /// Jaccard set overlap.
    Jaccard,
    /// Dice coefficient.
    Dice,
}

impl SkillMeasure {
    /// Apply the kernel.
    pub fn score(self, a: &SkillVector, b: &SkillVector) -> f64 {
        match self {
            SkillMeasure::Exact => f64::from(a == b),
            SkillMeasure::Cosine => a.cosine(b),
            SkillMeasure::Jaccard => a.jaccard(b),
            SkillMeasure::Dice => a.dice(b),
        }
    }

    /// Can two vectors with the given set-bit counts possibly score at
    /// least `threshold` under this kernel? This is the **sound blocking
    /// predicate** the audit index uses to prune candidate pairs before
    /// the exact kernel runs: it may admit pairs that score below the
    /// threshold (they are re-checked exactly), but it never rejects a
    /// pair that could reach it, so blocked audits stay bit-identical to
    /// exhaustive ones.
    ///
    /// The bounds follow from `|A ∩ B| ≤ min(|A|, |B|)`:
    /// cosine `≤ √(min/max)`, Jaccard `≤ min/max`, Dice `≤ 2min/(min+max)`.
    pub fn count_admissible(self, a: usize, b: usize, threshold: f64) -> bool {
        if threshold <= 0.0 {
            return true; // every score is ≥ 0
        }
        let (min, max) = (a.min(b), a.max(b));
        if max == 0 {
            return true; // both empty: every kernel scores 1.0
        }
        if min == 0 {
            return false; // one empty: every kernel scores 0.0 < threshold
        }
        // Small slack so float rounding can only over-admit, never prune
        // a pair sitting exactly on the bound.
        const SLACK: f64 = 1e-9;
        let ratio_floor = match self {
            SkillMeasure::Exact => return a == b,
            SkillMeasure::Cosine => threshold * threshold,
            SkillMeasure::Jaccard => threshold,
            SkillMeasure::Dice => threshold / (2.0 - threshold),
        };
        min as f64 >= ratio_floor * max as f64 - SLACK
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SkillMeasure::Exact => "exact",
            SkillMeasure::Cosine => "cosine",
            SkillMeasure::Jaccard => "jaccard",
            SkillMeasure::Dice => "dice",
        }
    }
}

/// The similarity regime an audit runs under: one threshold per axiom
/// quantifier, plus the skill kernel. Defaults follow the paper's
/// discussion (cosine for skills, threshold-based elsewhere).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Kernel for skill-vector comparison.
    pub skill_measure: SkillMeasure,
    /// Two workers are "similar" (Axiom 1) when their composite similarity
    /// is at least this.
    pub worker_threshold: f64,
    /// Two tasks' skill requirements are "similar" (Axiom 2) at or above
    /// this score.
    pub task_skill_threshold: f64,
    /// Two rewards are "comparable" (Axiom 2) within this relative
    /// tolerance.
    pub reward_tolerance: f64,
    /// Two contributions are "similar" (Axiom 3) at or above this score.
    pub contribution_threshold: f64,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            skill_measure: SkillMeasure::Cosine,
            worker_threshold: 0.9,
            task_skill_threshold: 0.9,
            reward_tolerance: 0.1,
            contribution_threshold: 0.85,
        }
    }
}

impl SimilarityConfig {
    /// The strictest regime: perfect equality everywhere. Under this
    /// config the axioms only constrain *identical* workers/tasks — the
    /// weakest fairness demand.
    pub fn exact() -> Self {
        SimilarityConfig {
            skill_measure: SkillMeasure::Exact,
            worker_threshold: 1.0,
            task_skill_threshold: 1.0,
            reward_tolerance: 0.0,
            contribution_threshold: 1.0,
        }
    }

    /// A lenient regime that groups broadly (more pairs are "similar", so
    /// fairness is harder to satisfy).
    pub fn lenient() -> Self {
        SimilarityConfig {
            skill_measure: SkillMeasure::Cosine,
            worker_threshold: 0.7,
            task_skill_threshold: 0.7,
            reward_tolerance: 0.25,
            contribution_threshold: 0.7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEASURES: [SkillMeasure; 4] = [
        SkillMeasure::Exact,
        SkillMeasure::Cosine,
        SkillMeasure::Jaccard,
        SkillMeasure::Dice,
    ];

    fn v(bits: &[u8]) -> SkillVector {
        SkillVector::from_bools(bits.iter().map(|&b| b == 1))
    }

    #[test]
    fn exact_measure_is_equality() {
        let a = v(&[1, 0, 1]);
        let b = v(&[1, 0, 1]);
        let c = v(&[1, 1, 1]);
        assert_eq!(SkillMeasure::Exact.score(&a, &b), 1.0);
        assert_eq!(SkillMeasure::Exact.score(&a, &c), 0.0);
    }

    #[test]
    fn kernels_agree_on_identical_inputs() {
        let a = v(&[1, 1, 0, 1]);
        for m in MEASURES {
            assert!(
                (m.score(&a, &a) - 1.0).abs() < 1e-12,
                "{} should be 1 on identical vectors",
                m.name()
            );
        }
    }

    #[test]
    fn kernels_are_bounded_and_symmetric() {
        let xs = [v(&[1, 0, 0]), v(&[1, 1, 0]), v(&[0, 0, 0]), v(&[1, 1, 1])];
        for m in MEASURES {
            for a in &xs {
                for b in &xs {
                    let s = m.score(a, b);
                    assert!((0.0..=1.0).contains(&s));
                    assert!((s - m.score(b, a)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn count_admissibility_never_prunes_reachable_pairs() {
        // Exhaustive over 6-bit vectors: whenever the kernel score
        // reaches the threshold, the count predicate must admit the pair.
        let vecs: Vec<SkillVector> = (0u8..64)
            .map(|x| {
                v(&[
                    x & 1,
                    (x >> 1) & 1,
                    (x >> 2) & 1,
                    (x >> 3) & 1,
                    (x >> 4) & 1,
                    (x >> 5) & 1,
                ])
            })
            .collect();
        for m in MEASURES {
            for t in [0.0, 0.3, 0.7, 0.85, 0.9, 1.0] {
                for a in &vecs {
                    for b in &vecs {
                        if m.score(a, b) >= t {
                            assert!(
                                m.count_admissible(a.count(), b.count(), t),
                                "{} pruned a pair scoring ≥ {t}",
                                m.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_admissibility_prunes_something() {
        // 1 bit vs 6 bits cannot reach cosine 0.9.
        assert!(!SkillMeasure::Cosine.count_admissible(1, 6, 0.9));
        assert!(!SkillMeasure::Jaccard.count_admissible(2, 6, 0.9));
        assert!(!SkillMeasure::Dice.count_admissible(2, 6, 0.9));
        assert!(!SkillMeasure::Exact.count_admissible(2, 3, 0.5));
        // Zero thresholds admit everything; empty-vs-empty is similar.
        assert!(SkillMeasure::Cosine.count_admissible(0, 9, 0.0));
        assert!(SkillMeasure::Cosine.count_admissible(0, 0, 1.0));
        assert!(!SkillMeasure::Cosine.count_admissible(0, 3, 0.5));
    }

    #[test]
    fn default_config_is_threshold_based() {
        let c = SimilarityConfig::default();
        assert_eq!(c.skill_measure, SkillMeasure::Cosine);
        assert!(c.worker_threshold < 1.0);
        assert!(c.reward_tolerance > 0.0);
    }

    #[test]
    fn exact_config_is_strictest() {
        let e = SimilarityConfig::exact();
        let l = SimilarityConfig::lenient();
        assert!(e.worker_threshold >= l.worker_threshold);
        assert!(e.reward_tolerance <= l.reward_tolerance);
        assert_eq!(e.skill_measure, SkillMeasure::Exact);
    }
}
