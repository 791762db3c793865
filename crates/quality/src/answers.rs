//! The answer matrix.
//!
//! Every truth-inference and detection algorithm in this crate consumes the
//! same sparse worker×task label matrix. Labels are small categorical
//! values (`u8`), matching [`faircrowd_model::Contribution::Label`].

use faircrowd_model::ids::{TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One worker's label for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Answer {
    /// The answering worker.
    pub worker: WorkerId,
    /// The answered task.
    pub task: TaskId,
    /// The categorical label given.
    pub label: u8,
}

/// A sparse worker×task answer matrix over `classes` label classes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnswerSet {
    classes: u8,
    answers: Vec<Answer>,
}

impl AnswerSet {
    /// An empty set over `classes` label classes (must be ≥ 2 to carry
    /// any information).
    pub fn new(classes: u8) -> Self {
        assert!(classes >= 2, "need at least two label classes");
        AnswerSet {
            classes,
            answers: Vec::new(),
        }
    }

    /// Number of label classes.
    pub(crate) fn classes(&self) -> u8 {
        self.classes
    }

    /// Record an answer. Panics when the label is out of range — the
    /// caller constructed an impossible answer.
    pub fn record(&mut self, worker: WorkerId, task: TaskId, label: u8) {
        assert!(label < self.classes, "label {label} out of range");
        self.answers.push(Answer {
            worker,
            task,
            label,
        });
    }

    /// All answers in insertion order.
    pub fn answers(&self) -> &[Answer] {
        &self.answers
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when no answers are recorded.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Answers grouped by task (task order is deterministic).
    pub fn by_task(&self) -> BTreeMap<TaskId, Vec<Answer>> {
        let mut map: BTreeMap<TaskId, Vec<Answer>> = BTreeMap::new();
        for &a in &self.answers {
            map.entry(a.task).or_default().push(a);
        }
        map
    }

    /// Answers grouped by worker.
    pub(crate) fn by_worker(&self) -> BTreeMap<WorkerId, Vec<Answer>> {
        let mut map: BTreeMap<WorkerId, Vec<Answer>> = BTreeMap::new();
        for &a in &self.answers {
            map.entry(a.worker).or_default().push(a);
        }
        map
    }

    /// Distinct tasks answered, ascending.
    pub fn tasks(&self) -> Vec<TaskId> {
        self.by_task().into_keys().collect()
    }

    /// Distinct workers who answered, ascending.
    pub(crate) fn workers(&self) -> Vec<WorkerId> {
        self.by_worker().into_keys().collect()
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

    #[test]
    fn record_and_group() {
        let mut s = AnswerSet::new(3);
        s.record(w(0), t(0), 1);
        s.record(w(1), t(0), 1);
        s.record(w(0), t(1), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.classes(), 3);
        assert_eq!(s.by_task()[&t(0)].len(), 2);
        assert_eq!(s.by_worker()[&w(0)].len(), 2);
        assert_eq!(s.tasks(), vec![t(0), t(1)]);
        assert_eq!(s.workers(), vec![w(0), w(1)]);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_label_panics() {
        let mut s = AnswerSet::new(2);
        s.record(w(0), t(0), 5);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_class_rejected() {
        let _ = AnswerSet::new(1);
    }
}
