//! Gold-question screening.
//!
//! The oldest detection mechanism in crowdsourcing: seed the task stream
//! with questions whose answers are known ("gold" / honeypots) and score
//! each worker by her accuracy on them. Workers below threshold are
//! flagged. Gold screening is requester-side detection — exactly the
//! capability Axiom 4 demands the platform support.

use crate::answers::AnswerSet;
use faircrowd_model::ids::{TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A set of tasks with known answers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GoldSet {
    truth: BTreeMap<TaskId, u8>,
}

/// A worker's performance on gold questions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoldScore {
    /// Gold questions the worker answered.
    pub(crate) answered: usize,
    /// Of those, answered correctly.
    pub(crate) correct: usize,
}

impl GoldScore {
    /// Accuracy on gold; 1.0 when no gold was answered (no evidence).
    pub fn accuracy(&self) -> f64 {
        if self.answered == 0 {
            1.0
        } else {
            self.correct as f64 / self.answered as f64
        }
    }
}

impl GoldSet {
    /// An empty gold set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a gold task and its true label.
    pub fn insert(&mut self, task: TaskId, label: u8) {
        self.truth.insert(task, label);
    }

    /// The true label of a gold task.
    pub(crate) fn label(&self, task: TaskId) -> Option<u8> {
        self.truth.get(&task).copied()
    }

    /// Score an inferred consensus against the gold truth: of all gold
    /// tasks, how many carry the correct consensus label. Undecided gold
    /// tasks (absent from `labels`) count as answered-but-wrong, so the
    /// score penalises lost coverage — the currency the parity-constrained
    /// aggregator pays in.
    pub fn score_labels(&self, labels: &BTreeMap<TaskId, u8>) -> GoldScore {
        let correct = self
            .truth
            .iter()
            .filter(|(task, truth)| labels.get(task) == Some(truth))
            .count();
        GoldScore {
            answered: self.truth.len(),
            correct,
        }
    }

    /// Score every worker who answered at least one gold question.
    pub(crate) fn score_workers(&self, answers: &AnswerSet) -> BTreeMap<WorkerId, GoldScore> {
        let mut scores: BTreeMap<WorkerId, GoldScore> = BTreeMap::new();
        for a in answers.answers() {
            if let Some(truth) = self.label(a.task) {
                let s = scores.entry(a.worker).or_insert(GoldScore {
                    answered: 0,
                    correct: 0,
                });
                s.answered += 1;
                if a.label == truth {
                    s.correct += 1;
                }
            }
        }
        scores
    }

    /// Workers flagged as suspicious: answered at least `min_answered`
    /// gold questions with accuracy strictly below `threshold`.
    pub fn flag_workers(
        &self,
        answers: &AnswerSet,
        threshold: f64,
        min_answered: usize,
    ) -> Vec<WorkerId> {
        self.score_workers(answers)
            .into_iter()
            .filter(|(_, s)| s.answered >= min_answered && s.accuracy() < threshold)
            .map(|(w, _)| w)
            .collect()
    }
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

    fn gold3() -> GoldSet {
        let mut g = GoldSet::new();
        for (i, label) in [(0, 1), (1, 0), (2, 1)] {
            g.insert(t(i), label);
        }
        g
    }

    #[test]
    fn scores_count_correct_answers() {
        let g = gold3();
        let mut s = AnswerSet::new(2);
        // worker 0: all correct; worker 1: 1 of 3 correct
        for (ti, l) in [(0, 1), (1, 0), (2, 1)] {
            s.record(w(0), t(ti), l);
        }
        for (ti, l) in [(0, 0), (1, 0), (2, 0)] {
            s.record(w(1), t(ti), l);
        }
        // non-gold answers don't count
        s.record(w(0), t(9), 0);
        let scores = g.score_workers(&s);
        assert_eq!(scores[&w(0)].answered, 3);
        assert!((scores[&w(0)].accuracy() - 1.0).abs() < 1e-12);
        assert_eq!(scores[&w(1)].correct, 1);
        assert!((scores[&w(1)].accuracy() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flagging_respects_threshold_and_minimum() {
        let g = gold3();
        let mut s = AnswerSet::new(2);
        for (ti, l) in [(0, 0), (1, 1), (2, 0)] {
            s.record(w(1), t(ti), l); // 0/3 correct
        }
        s.record(w(2), t(0), 0); // 0/1 correct but below min_answered
        let flagged = g.flag_workers(&s, 0.6, 2);
        assert_eq!(flagged, vec![w(1)]);
    }

    #[test]
    fn consensus_scoring_penalises_missing_labels() {
        let g = gold3();
        // Correct on t0, wrong on t1, undecided on t2.
        let labels = BTreeMap::from([(t(0), 1), (t(1), 1)]);
        let score = g.score_labels(&labels);
        assert_eq!(score.answered, 3);
        assert_eq!(score.correct, 1);
        // Empty gold set: vacuous perfect accuracy.
        let empty = GoldSet::new().score_labels(&labels);
        assert_eq!(empty.answered, 0);
        assert_eq!(empty.accuracy(), 1.0);
    }

    #[test]
    fn worker_with_no_gold_answers_is_unscored() {
        let g = gold3();
        let mut s = AnswerSet::new(2);
        s.record(w(5), t(9), 1);
        assert!(g.score_workers(&s).is_empty());
    }

    #[test]
    fn no_evidence_means_perfect_accuracy() {
        let score = GoldScore {
            answered: 0,
            correct: 0,
        };
        assert_eq!(score.accuracy(), 1.0);
    }

    #[test]
    fn set_accessors() {
        let g = gold3();
        assert_eq!(g.label(t(1)), Some(0));
        assert_eq!(g.label(t(7)), None);
    }
}
