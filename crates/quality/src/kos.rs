//! Karger–Oh–Shah iterative decoding.
//!
//! The inference half of the budget-optimal crowdsourcing scheme the paper
//! cites as \[11\] (Karger, Oh, Shah — *Budget-optimal task allocation for
//! reliable crowdsourcing systems*, Operations Research 2014). For binary
//! tasks, answers `A_ij ∈ {±1}` on the worker–task bipartite graph are
//! decoded by belief-propagation-style message passing:
//!
//! ```text
//! x_{i→j} = Σ_{j'∈∂i\j} A_{ij'} · y_{j'→i}     (task-to-worker)
//! y_{j→i} = Σ_{i'∈∂j\i} A_{i'j} · x_{i'→j}     (worker-to-task)
//! label_i = sign( Σ_{j∈∂i} A_{ij} · y_{j→i} )
//! ```
//!
//! The allocation half ((l,r)-regular random graphs) lives in
//! `faircrowd_assign::kos`; this decoder works on any answer graph.

use crate::answers::AnswerSet;
use faircrowd_model::ids::{TaskId, WorkerId};
use std::collections::BTreeMap;

/// Result of KOS decoding.
#[derive(Debug, Clone)]
pub struct KosResult {
    /// Decoded label per task (binary: 0 or 1).
    pub labels: BTreeMap<TaskId, u8>,
}

/// Decode a binary answer set with `iters` rounds of message passing.
///
/// Panics if the answer set has more than 2 classes — KOS is a binary
/// decoder; use Dawid–Skene for multiclass.
pub fn decode(answers: &AnswerSet, iters: usize) -> KosResult {
    assert!(
        answers.classes() == 2,
        "KOS decoding requires binary tasks (got {} classes)",
        answers.classes()
    );
    let tasks = answers.tasks();
    let workers = answers.workers();
    let t_index: BTreeMap<TaskId, usize> = tasks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let w_index: BTreeMap<WorkerId, usize> =
        workers.iter().enumerate().map(|(i, &w)| (w, i)).collect();

    // Edge list with spin answers (+1 for label 1, -1 for label 0).
    struct Edge {
        task: usize,
        worker: usize,
        spin: f64,
    }
    let edges: Vec<Edge> = answers
        .answers()
        .iter()
        .map(|a| Edge {
            task: t_index[&a.task],
            worker: w_index[&a.worker],
            spin: if a.label == 1 { 1.0 } else { -1.0 },
        })
        .collect();

    let mut edges_of_task: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut edges_of_worker: Vec<Vec<usize>> = vec![Vec::new(); workers.len()];
    for (ei, e) in edges.iter().enumerate() {
        edges_of_task[e.task].push(ei);
        edges_of_worker[e.worker].push(ei);
    }

    // Deterministic initialisation: all worker-to-task messages start at 1
    // (the standard choice when reproducibility matters more than
    // symmetry-breaking; ties then resolve toward label 0).
    let mut y = vec![1.0f64; edges.len()];
    let mut x = vec![0.0f64; edges.len()];

    for _ in 0..iters {
        // Task-to-worker update.
        for (ti, es) in edges_of_task.iter().enumerate() {
            let total: f64 = es.iter().map(|&ei| edges[ei].spin * y[ei]).sum();
            for &ei in es {
                debug_assert_eq!(edges[ei].task, ti);
                x[ei] = total - edges[ei].spin * y[ei];
            }
        }
        // Worker-to-task update.
        for es in edges_of_worker.iter() {
            let total: f64 = es.iter().map(|&ei| edges[ei].spin * x[ei]).sum();
            for &ei in es {
                y[ei] = total - edges[ei].spin * x[ei];
            }
        }
        // Normalise message magnitude to keep values bounded across
        // iterations (scale-invariant decision rule).
        let max_mag = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if max_mag > 0.0 {
            for v in &mut y {
                *v /= max_mag;
            }
        }
    }

    let mut labels = BTreeMap::new();
    for (ti, es) in edges_of_task.iter().enumerate() {
        let decision: f64 = es.iter().map(|&ei| edges[ei].spin * y[ei]).sum();
        labels.insert(tasks[ti], u8::from(decision > 0.0));
    }

    KosResult { labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn w(i: u32) -> WorkerId {
        WorkerId::new(i)
    }
    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }

    #[test]
    fn unanimous_answers_decode_trivially() {
        let mut s = AnswerSet::new(2);
        for wi in 0..3 {
            s.record(w(wi), t(0), 1);
            s.record(w(wi), t(1), 0);
        }
        let res = decode(&s, 5);
        assert_eq!(res.labels[&t(0)], 1);
        assert_eq!(res.labels[&t(1)], 0);
    }

    #[test]
    fn downweights_contrarian_worker() {
        // 3 workers agree across 10 tasks, 1 worker always disagrees.
        let mut rng = StdRng::seed_from_u64(2);
        let truth: Vec<u8> = (0..10).map(|_| rng.gen_range(0..2u8)).collect();
        let mut s = AnswerSet::new(2);
        for (ti, &tl) in truth.iter().enumerate() {
            for wi in 0..3 {
                s.record(w(wi), t(ti as u32), tl);
            }
            s.record(w(3), t(ti as u32), 1 - tl);
        }
        let res = decode(&s, 10);
        for (ti, &tl) in truth.iter().enumerate() {
            assert_eq!(res.labels[&t(ti as u32)], tl);
        }
    }

    #[test]
    fn accuracy_beats_chance_with_noisy_crowd() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 60u32;
        let truth: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        let mut s = AnswerSet::new(2);
        for ti in 0..n {
            for wi in 0..7u32 {
                let acc = if wi < 5 { 0.8 } else { 0.5 };
                let label = if rng.gen_bool(acc) {
                    truth[ti as usize]
                } else {
                    1 - truth[ti as usize]
                };
                s.record(w(wi), t(ti), label);
            }
        }
        let res = decode(&s, 10);
        let correct = truth
            .iter()
            .enumerate()
            .filter(|(i, &tl)| res.labels[&t(*i as u32)] == tl)
            .count();
        assert!(correct as f64 / n as f64 > 0.85, "{correct}/{n}");
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn multiclass_is_rejected() {
        let s = AnswerSet::new(3);
        let _ = decode(&s, 3);
    }

    #[test]
    fn empty_input() {
        let res = decode(&AnswerSet::new(2), 5);
        assert!(res.labels.is_empty());
    }
}
