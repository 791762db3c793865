//! Dawid–Skene truth inference.
//!
//! The classic EM algorithm for aggregating noisy categorical labels:
//! alternately estimate (E-step) a posterior distribution over each task's
//! true label given per-worker confusion matrices, and (M-step) re-estimate
//! each worker's confusion matrix and the class priors given the
//! posteriors. The per-worker reliability it produces is the platform's
//! `quality_estimate` computed attribute and one of the E3 detectors.
//!
//! Laplace smoothing keeps confusion matrices strictly positive, which
//! guarantees well-defined posteriors for any input.

use crate::answers::AnswerSet;
use crate::majority::majority_vote;
use faircrowd_model::ids::{TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dawid–Skene configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub(crate) max_iters: usize,
    /// Convergence threshold on the max absolute posterior change.
    pub(crate) tolerance: f64,
    /// Laplace smoothing pseudo-count for confusion rows and priors.
    pub(crate) smoothing: f64,
}

impl Default for DawidSkene {
    fn default() -> Self {
        DawidSkene {
            max_iters: 100,
            tolerance: 1e-6,
            smoothing: 0.01,
        }
    }
}

/// The output of a Dawid–Skene run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DawidSkeneResult {
    /// Posterior distribution over labels per task.
    pub posteriors: BTreeMap<TaskId, Vec<f64>>,
    /// MAP label per task.
    pub labels: BTreeMap<TaskId, u8>,
    /// Per-worker reliability: prior-weighted diagonal mass of the
    /// estimated confusion matrix (probability the worker reports the true
    /// label).
    pub reliability: BTreeMap<WorkerId, f64>,
    /// Estimated class priors.
    pub priors: Vec<f64>,
}

impl DawidSkene {
    /// Run EM on an answer set. Returns an empty result for an empty set.
    pub fn run(&self, answers: &AnswerSet) -> DawidSkeneResult {
        let k = answers.classes() as usize;
        let tasks = answers.tasks();
        let workers = answers.workers();
        if tasks.is_empty() || workers.is_empty() {
            return DawidSkeneResult {
                posteriors: BTreeMap::new(),
                labels: BTreeMap::new(),
                reliability: BTreeMap::new(),
                priors: vec![1.0 / k as f64; k],
            };
        }

        let task_index: BTreeMap<TaskId, usize> =
            tasks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let worker_index: BTreeMap<WorkerId, usize> =
            workers.iter().enumerate().map(|(i, &w)| (w, i)).collect();
        // flat answer list in index space
        let flat: Vec<(usize, usize, usize)> = answers
            .answers()
            .iter()
            .map(|a| {
                (
                    worker_index[&a.worker],
                    task_index[&a.task],
                    a.label as usize,
                )
            })
            .collect();
        let answers_by_task: Vec<Vec<(usize, usize)>> = {
            let mut v = vec![Vec::new(); tasks.len()];
            for &(w, t, l) in &flat {
                v[t].push((w, l));
            }
            v
        };

        // Initialise posteriors from majority vote (hard assignment,
        // slightly softened so EM cannot start from a degenerate point).
        let mv = majority_vote(answers);
        let mut posteriors: Vec<Vec<f64>> = tasks
            .iter()
            .map(|t| {
                let mut p = vec![0.1 / (k as f64 - 1.0).max(1.0); k];
                let lab = mv.get(t).copied().unwrap_or(0) as usize;
                p[lab] = 0.9;
                normalize(&mut p);
                p
            })
            .collect();

        let mut confusion = vec![vec![vec![0.0; k]; k]; workers.len()];
        let mut priors = vec![1.0 / k as f64; k];

        for _ in 0..self.max_iters {
            // M-step: priors and confusion matrices from posteriors.
            for p in priors.iter_mut() {
                *p = self.smoothing;
            }
            for post in &posteriors {
                for (j, &pj) in post.iter().enumerate() {
                    priors[j] += pj;
                }
            }
            normalize(&mut priors);

            for w_conf in confusion.iter_mut() {
                for row in w_conf.iter_mut() {
                    for cell in row.iter_mut() {
                        *cell = self.smoothing;
                    }
                }
            }
            for &(w, t, l) in &flat {
                for (j, &pj) in posteriors[t].iter().enumerate() {
                    confusion[w][j][l] += pj;
                }
            }
            for w_conf in confusion.iter_mut() {
                for row in w_conf.iter_mut() {
                    normalize(row);
                }
            }

            // E-step: posteriors from priors and confusion matrices, in
            // log space for numerical stability.
            let mut max_delta = 0.0f64;
            for (t, group) in answers_by_task.iter().enumerate() {
                let mut logp: Vec<f64> = priors.iter().map(|&p| p.ln()).collect();
                for &(w, l) in group {
                    for (j, lp) in logp.iter_mut().enumerate() {
                        *lp += confusion[w][j][l].ln();
                    }
                }
                let mut p = softmax(&logp);
                std::mem::swap(&mut posteriors[t], &mut p);
                for (a, b) in posteriors[t].iter().zip(&p) {
                    max_delta = max_delta.max((a - b).abs());
                }
            }
            if max_delta < self.tolerance {
                break;
            }
        }

        // Reliability: prior-weighted diagonal of each confusion matrix.
        let reliability: BTreeMap<WorkerId, f64> = workers
            .iter()
            .enumerate()
            .map(|(wi, &w)| {
                let r: f64 = (0..k).map(|j| priors[j] * confusion[wi][j][j]).sum();
                (w, r)
            })
            .collect();

        let labels: BTreeMap<TaskId, u8> = tasks
            .iter()
            .enumerate()
            .map(|(ti, &t)| {
                let best = posteriors[ti]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("posterior NaN"))
                    .map(|(i, _)| i as u8)
                    .unwrap_or(0);
                (t, best)
            })
            .collect();

        DawidSkeneResult {
            posteriors: tasks
                .iter()
                .enumerate()
                .map(|(ti, &t)| (t, posteriors[ti].clone()))
                .collect(),
            labels,
            reliability,
            priors,
        }
    }
}

fn normalize(p: &mut [f64]) {
    let s: f64 = p.iter().sum();
    if s > 0.0 {
        for x in p.iter_mut() {
            *x /= s;
        }
    } else if !p.is_empty() {
        let u = 1.0 / p.len() as f64;
        for x in p.iter_mut() {
            *x = u;
        }
    }
}

fn softmax(logp: &[f64]) -> Vec<f64> {
    let m = logp.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut p: Vec<f64> = logp.iter().map(|&l| (l - m).exp()).collect();
    normalize(&mut p);
    p
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

    /// Synthetic crowd: `good` accurate workers and `bad` random spammers
    /// label `n_tasks` binary tasks.
    fn synthetic(n_tasks: u32, good: u32, bad: u32, acc: f64, seed: u64) -> (AnswerSet, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<u8> = (0..n_tasks).map(|_| rng.gen_range(0..2u8)).collect();
        let mut s = AnswerSet::new(2);
        for ti in 0..n_tasks {
            for wi in 0..good {
                let correct = rng.gen_bool(acc);
                let label = if correct {
                    truth[ti as usize]
                } else {
                    1 - truth[ti as usize]
                };
                s.record(w(wi), t(ti), label);
            }
            for wi in 0..bad {
                s.record(w(good + wi), t(ti), rng.gen_range(0..2u8));
            }
        }
        (s, truth)
    }

    #[test]
    fn recovers_truth_on_clean_data() {
        let (s, truth) = synthetic(40, 5, 0, 0.95, 7);
        let res = DawidSkene::default().run(&s);
        let correct = truth
            .iter()
            .enumerate()
            .filter(|(i, &tl)| res.labels[&t(*i as u32)] == tl)
            .count();
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn separates_reliable_from_spammers() {
        let (s, _) = synthetic(60, 6, 4, 0.9, 11);
        let res = DawidSkene::default().run(&s);
        let good_mean: f64 = (0..6).map(|i| res.reliability[&w(i)]).sum::<f64>() / 6.0;
        let bad_mean: f64 = (6..10).map(|i| res.reliability[&w(i)]).sum::<f64>() / 4.0;
        assert!(
            good_mean > bad_mean + 0.2,
            "good {good_mean:.3} vs bad {bad_mean:.3}"
        );
    }

    #[test]
    fn beats_majority_under_random_spam() {
        // 4 good at 0.85 vs 5 unbiased random spammers: DS learns to
        // downweight the spammers and should not lose to plain majority.
        // (Note: *coordinated* uniform spammers who outnumber honest
        // workers defeat both MV and MV-initialised EM — that
        // information-theoretic limit is exercised in E3, not asserted
        // away here.)
        let mut rng = StdRng::seed_from_u64(3);
        let n = 80u32;
        let truth: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        let mut s = AnswerSet::new(2);
        for ti in 0..n {
            for wi in 0..4u32 {
                let label = if rng.gen_bool(0.85) {
                    truth[ti as usize]
                } else {
                    1 - truth[ti as usize]
                };
                s.record(w(wi), t(ti), label);
            }
            for wi in 4..9u32 {
                s.record(w(wi), t(ti), rng.gen_range(0..2u8));
            }
        }
        let ds = DawidSkene::default().run(&s);
        let mv = majority_vote(&s);
        let acc = |labels: &BTreeMap<TaskId, u8>| {
            truth
                .iter()
                .enumerate()
                .filter(|(i, &tl)| labels.get(&t(*i as u32)) == Some(&tl))
                .count() as f64
                / n as f64
        };
        let ds_acc = acc(&ds.labels);
        let mv_acc = acc(&mv);
        assert!(
            ds_acc >= mv_acc,
            "DS {ds_acc:.3} should not lose to MV {mv_acc:.3}"
        );
        assert!(ds_acc > 0.75, "DS accuracy too low: {ds_acc:.3}");
    }

    #[test]
    fn empty_input_is_fine() {
        let res = DawidSkene::default().run(&AnswerSet::new(2));
        assert!(res.labels.is_empty());
        assert_eq!(res.priors.len(), 2);
    }

    #[test]
    fn posteriors_are_distributions() {
        let (s, _) = synthetic(20, 4, 2, 0.9, 5);
        let res = DawidSkene::default().run(&s);
        for p in res.posteriors.values() {
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        for &r in res.reliability.values() {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn softmax_normalizes_extreme_logits() {
        let p = softmax(&[-1000.0, 0.0, -1000.0]);
        assert!((p[1] - 1.0).abs() < 1e-9);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
