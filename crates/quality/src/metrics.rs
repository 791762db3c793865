//! Detection and aggregation metrics.
//!
//! E3 evaluates detectors by precision/recall/F1 against the simulator's
//! ground-truth spammer set and by the accuracy of aggregated answers
//! before/after filtering; E6 uses label accuracy as its contribution-
//! quality measure (§4.1).

use faircrowd_model::ids::{TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Binary-classification counts for a detector run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionCounts {
    /// Malicious workers correctly flagged.
    pub(crate) true_positives: usize,
    /// Honest workers wrongly flagged.
    pub(crate) false_positives: usize,
    /// Malicious workers missed.
    pub(crate) false_negatives: usize,
    /// Honest workers correctly left alone.
    pub(crate) true_negatives: usize,
}

impl DetectionCounts {
    /// Compare a flagged set against ground truth over a worker universe.
    pub fn evaluate(
        flagged: &BTreeSet<WorkerId>,
        malicious: &BTreeSet<WorkerId>,
        universe: &BTreeSet<WorkerId>,
    ) -> Self {
        let mut c = DetectionCounts::default();
        for w in universe {
            match (flagged.contains(w), malicious.contains(w)) {
                (true, true) => c.true_positives += 1,
                (true, false) => c.false_positives += 1,
                (false, true) => c.false_negatives += 1,
                (false, false) => c.true_negatives += 1,
            }
        }
        c
    }

    /// Precision; 1.0 when nothing was flagged (no false alarms).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall; 1.0 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall); 0.0 when both
    /// are zero.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Fraction of tasks whose aggregated label matches the truth, over the
/// tasks present in `truth`; 1.0 when `truth` is empty. Tasks missing from
/// `predicted` count as wrong (the aggregator failed to answer them).
pub fn label_accuracy(predicted: &BTreeMap<TaskId, u8>, truth: &BTreeMap<TaskId, u8>) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let correct = truth
        .iter()
        .filter(|(t, &l)| predicted.get(t) == Some(&l))
        .count();
    correct as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u32) -> WorkerId {
        WorkerId::new(i)
    }
    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }
    fn ws(ids: &[u32]) -> BTreeSet<WorkerId> {
        ids.iter().map(|&i| w(i)).collect()
    }

    #[test]
    fn detection_counts_partition_universe() {
        let c = DetectionCounts::evaluate(&ws(&[0, 1]), &ws(&[1, 2]), &ws(&[0, 1, 2, 3]));
        assert_eq!(c.true_positives, 1); // w1
        assert_eq!(c.false_positives, 1); // w0
        assert_eq!(c.false_negatives, 1); // w2
        assert_eq!(c.true_negatives, 1); // w3
        assert!((c.precision() - 0.5).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_precision_recall() {
        let none_flagged = DetectionCounts::evaluate(&ws(&[]), &ws(&[1]), &ws(&[0, 1]));
        assert_eq!(none_flagged.precision(), 1.0);
        assert_eq!(none_flagged.recall(), 0.0);
        let nothing_to_find = DetectionCounts::evaluate(&ws(&[]), &ws(&[]), &ws(&[0, 1]));
        assert_eq!(nothing_to_find.recall(), 1.0);
        assert_eq!(nothing_to_find.f1(), 1.0);
    }

    #[test]
    fn label_accuracy_counts_matches() {
        let mut pred = BTreeMap::new();
        pred.insert(t(0), 1u8);
        pred.insert(t(1), 0u8);
        let mut truth = BTreeMap::new();
        truth.insert(t(0), 1u8);
        truth.insert(t(1), 1u8);
        truth.insert(t(2), 0u8); // missing from pred -> wrong
        assert!((label_accuracy(&pred, &truth) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(label_accuracy(&pred, &BTreeMap::new()), 1.0);
    }
}
