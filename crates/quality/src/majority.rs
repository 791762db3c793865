//! Majority-vote aggregation.
//!
//! The baseline truth-inference scheme: each task's answer is the label
//! most workers gave. The weighted variant scales each worker's vote by a
//! reliability weight (e.g. a gold-question accuracy or a Dawid–Skene
//! estimate), which is how detection feeds back into aggregation in E3.

use crate::answers::AnswerSet;
use faircrowd_model::ids::{TaskId, WorkerId};
use std::collections::BTreeMap;

/// Plain majority vote. **Tie rule:** a task whose top tally is shared
/// by two or more labels has *no consensus* and is absent from the
/// result — the same as a task with no answers. The previous behaviour
/// silently resolved ties toward the lowest label index, biasing
/// consensus toward label 0 on every evenly-split task; downstream
/// consumers (agreement rates, Dawid–Skene initialisation, detection
/// accuracy) inherited that bias as if it were evidence.
pub fn majority_vote(answers: &AnswerSet) -> BTreeMap<TaskId, u8> {
    weighted_majority_vote(answers, &BTreeMap::new())
}

/// Majority vote with per-worker weights; missing workers weigh 1.0.
/// Non-positive weights silence a worker entirely. The tie rule of
/// [`majority_vote`] applies: a tied top tally means no consensus, so
/// the task is absent from the result.
pub fn weighted_majority_vote(
    answers: &AnswerSet,
    weights: &BTreeMap<WorkerId, f64>,
) -> BTreeMap<TaskId, u8> {
    let classes = answers.classes() as usize;
    let mut tallies: BTreeMap<TaskId, Vec<f64>> = BTreeMap::new();
    for a in answers.answers() {
        let weight = weights.get(&a.worker).copied().unwrap_or(1.0);
        if weight <= 0.0 {
            continue;
        }
        let tally = tallies.entry(a.task).or_insert_with(|| vec![0.0; classes]);
        tally[a.label as usize] += weight;
    }
    tallies
        .into_iter()
        .filter_map(|(task, tally)| {
            let best = unique_argmax(&tally)?;
            // A task whose every answer was silenced has an all-zero tally
            // and carries no information.
            if tally[best] <= 0.0 {
                return None;
            }
            Some((task, best as u8))
        })
        .collect()
}

/// Index of the **strict** maximum; `None` on empty input or when the
/// maximum is attained by more than one element (a tie carries no
/// consensus, and deciding it would need a rule the voters never
/// agreed to).
fn unique_argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    let mut tied = false;
    for (i, &x) in xs.iter().enumerate() {
        match best {
            Some((_, bx)) if x == bx => tied = true,
            Some((_, bx)) if x < bx => {}
            _ => {
                best = Some((i, x));
                tied = false;
            }
        }
    }
    match best {
        Some((i, _)) if !tied => Some(i),
        _ => None,
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

    fn set(rows: &[(u32, u32, u8)], classes: u8) -> AnswerSet {
        let mut s = AnswerSet::new(classes);
        for &(wi, ti, l) in rows {
            s.record(w(wi), t(ti), l);
        }
        s
    }

    #[test]
    fn simple_majority() {
        let s = set(&[(0, 0, 1), (1, 0, 1), (2, 0, 0)], 2);
        let mv = majority_vote(&s);
        assert_eq!(mv[&t(0)], 1);
    }

    #[test]
    fn tie_yields_no_consensus() {
        // One vote each way: the old rule silently declared label 0 the
        // winner; the documented rule is "tie ⇒ no consensus".
        let s = set(&[(0, 0, 1), (1, 0, 0)], 2);
        assert!(!majority_vote(&s).contains_key(&t(0)));
        // Three-way tie across three classes behaves the same.
        let s3 = set(&[(0, 0, 0), (1, 0, 1), (2, 0, 2)], 3);
        assert!(majority_vote(&s3).is_empty());
        // A tie among *leaders* is still a tie even with a trailing label.
        let partial = set(&[(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 2), (4, 0, 0)], 3);
        assert!(!majority_vote(&partial).contains_key(&t(0)));
        // An extra vote breaks the tie and restores consensus.
        let s = set(&[(0, 0, 1), (1, 0, 0), (2, 0, 1)], 2);
        assert_eq!(majority_vote(&s)[&t(0)], 1);
    }

    #[test]
    fn weighted_tie_yields_no_consensus_and_weights_break_it() {
        let s = set(&[(0, 0, 1), (1, 0, 0)], 2);
        // Equal weights: still tied, still no consensus.
        let mut weights = BTreeMap::new();
        weights.insert(w(0), 2.0);
        weights.insert(w(1), 2.0);
        assert!(weighted_majority_vote(&s, &weights).is_empty());
        // Unequal weights resolve it — in either direction.
        weights.insert(w(1), 3.0);
        assert_eq!(weighted_majority_vote(&s, &weights)[&t(0)], 0);
        weights.insert(w(0), 5.0);
        assert_eq!(weighted_majority_vote(&s, &weights)[&t(0)], 1);
    }

    #[test]
    fn weights_can_flip_the_outcome() {
        let s = set(&[(0, 0, 1), (1, 0, 0), (2, 0, 0)], 2);
        assert_eq!(majority_vote(&s)[&t(0)], 0);
        let mut weights = BTreeMap::new();
        weights.insert(w(0), 5.0);
        assert_eq!(weighted_majority_vote(&s, &weights)[&t(0)], 1);
    }

    #[test]
    fn zero_weight_silences_worker() {
        let s = set(&[(0, 0, 1), (1, 0, 0)], 2);
        let mut weights = BTreeMap::new();
        weights.insert(w(0), 0.0);
        assert_eq!(weighted_majority_vote(&s, &weights)[&t(0)], 0);
        // silencing everyone drops the task
        weights.insert(w(1), 0.0);
        assert!(weighted_majority_vote(&s, &weights).is_empty());
    }

    #[test]
    fn empty_answerset_yields_empty_result() {
        let s = AnswerSet::new(2);
        assert!(majority_vote(&s).is_empty());
    }

    #[test]
    fn unique_argmax_edge_cases() {
        assert_eq!(unique_argmax(&[]), None);
        assert_eq!(unique_argmax(&[1.0]), Some(0));
        assert_eq!(unique_argmax(&[1.0, 3.0, 2.0]), Some(1));
        // Tied maxima — anywhere in the slice — yield no winner.
        assert_eq!(unique_argmax(&[1.0, 3.0, 3.0]), None);
        assert_eq!(unique_argmax(&[3.0, 1.0, 3.0]), None);
        // A tie among non-leaders is not a tie.
        assert_eq!(unique_argmax(&[2.0, 2.0, 3.0]), Some(2));
    }
}
