//! Spam scoring and the spammer taxonomy.
//!
//! Vuurens, de Vries and Eickhoff (*How much spam can you take?*, SIGIR
//! CIR 2011 — cited as \[20\] in the paper) analysed crowdsourced relevance
//! judgements, found ~40% of answers came from malicious users, and
//! classified workers into behavioural archetypes. This module implements
//! both sides of that study:
//!
//! * [`WorkerArchetype`] — the taxonomy, used by the simulator to generate
//!   ground-truth behaviour;
//! * [`SpamDetector`] — agreement-, repetition- and speed-based spam
//!   scores, combined into a single suspicion score per worker.

use crate::answers::AnswerSet;
use faircrowd_model::arena::{ArenaKey, DenseIdMap};
use faircrowd_model::ids::{TaskId, WorkerId};
use faircrowd_model::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Behavioural worker archetypes, after Vuurens et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkerArchetype {
    /// Works carefully; high accuracy.
    Diligent,
    /// Works carelessly; mediocre accuracy, but in good faith.
    Sloppy,
    /// Answers uniformly at random.
    RandomSpammer,
    /// Always gives the same answer (first label / first option).
    UniformSpammer,
    /// Answers properly sometimes, randomly otherwise, to evade detection.
    SemiRandomSpammer,
}

impl WorkerArchetype {
    /// Whether the archetype is malicious in the Axiom-4 sense. Sloppy
    /// workers are low-quality but in good faith.
    pub fn is_malicious(self) -> bool {
        matches!(
            self,
            WorkerArchetype::RandomSpammer
                | WorkerArchetype::UniformSpammer
                | WorkerArchetype::SemiRandomSpammer
        )
    }
}

/// The component and combined suspicion scores for one worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpamScore {
    /// 1 − leave-one-out agreement with consensus (high = disagreeing).
    pub disagreement: f64,
    /// Label-repetition score: 1 − normalised answer entropy (high =
    /// always the same answer — the uniform-spammer signature).
    pub repetition: f64,
    /// Fraction of answers submitted implausibly fast (< 20% of the
    /// estimated honest duration). 0 when timing data is unavailable.
    pub speed: f64,
    /// Weighted combination in `[0, 1]`.
    pub combined: f64,
    /// Answers observed for this worker.
    pub(crate) answers: usize,
}

/// Agreement/repetition/speed spam detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpamDetector {
    /// Weight of the disagreement component.
    pub w_disagreement: f64,
    /// Weight of the repetition component.
    pub w_repetition: f64,
    /// Weight of the speed component.
    pub w_speed: f64,
    /// Combined score at or above this flags the worker.
    pub threshold: f64,
    /// Ignore workers with fewer answers than this (not enough evidence).
    pub min_answers: usize,
}

impl Default for SpamDetector {
    fn default() -> Self {
        SpamDetector {
            w_disagreement: 0.6,
            w_repetition: 0.25,
            w_speed: 0.15,
            threshold: 0.5,
            min_answers: 3,
        }
    }
}

impl SpamDetector {
    /// Score every worker with enough answers. `durations` optionally maps
    /// workers to (actual, estimated-honest) duration pairs for the speed
    /// signal.
    pub fn score(
        &self,
        answers: &AnswerSet,
        durations: Option<&BTreeMap<WorkerId, Vec<(SimDuration, SimDuration)>>>,
    ) -> BTreeMap<WorkerId, SpamScore> {
        let classes = answers.classes() as usize;
        // Label histograms per task and per worker: `classes` counts per
        // dense slot, slots numbered in first-seen order.
        let mut task_slots: DenseIdMap<TaskId, usize> = DenseIdMap::new();
        let mut worker_slots: DenseIdMap<WorkerId, usize> = DenseIdMap::new();
        let mut task_hist: Vec<u32> = Vec::new();
        let mut worker_hist: Vec<u32> = Vec::new();
        for a in answers.answers() {
            let t = slot(&mut task_slots, &mut task_hist, classes, a.task);
            task_hist[t * classes + a.label as usize] += 1;
            let w = slot(&mut worker_slots, &mut worker_hist, classes, a.worker);
            worker_hist[w * classes + a.label as usize] += 1;
        }

        // Leave-one-out agreement per worker slot: (agreeing, compared).
        let mut agreement = vec![(0u32, 0u32); worker_slots.len()];
        for a in answers.answers() {
            let t = *task_slots.get(a.task).expect("every task has a slot");
            let hist = &task_hist[t * classes..][..classes];
            if hist.iter().sum::<u32>() < 2 {
                continue; // no peers to compare against
            }
            // consensus of the *other* workers: the task's histogram
            // minus this answer, read in place
            let label = a.label as usize;
            let peers = |c: usize| hist[c] - u32::from(c == label);
            let peer_best = (0..classes)
                .max_by(|&x, &y| peers(x).cmp(&peers(y)).then(y.cmp(&x)))
                .unwrap_or(0);
            let w = *worker_slots.get(a.worker).expect("every worker has a slot");
            let (agreeing, compared) = &mut agreement[w];
            *compared += 1;
            if label == peer_best {
                *agreeing += 1;
            }
        }

        let mut out = BTreeMap::new();
        for (worker, &w) in worker_slots.iter() {
            let hist = &worker_hist[w * classes..][..classes];
            let answered = hist.iter().sum::<u32>() as usize;
            if answered < self.min_answers {
                continue;
            }
            let disagreement = match agreement[w] {
                (agreeing, compared) if compared > 0 => {
                    1.0 - f64::from(agreeing) / f64::from(compared)
                }
                _ => 0.0, // never had peers: no agreement evidence
            };

            // Repetition: 1 - H(answer distribution)/log2(classes)
            let n = answered as f64;
            let entropy: f64 = hist
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = f64::from(c) / n;
                    -p * p.log2()
                })
                .sum();
            let max_entropy = (classes as f64).log2();
            let repetition = if max_entropy > 0.0 {
                (1.0 - entropy / max_entropy).clamp(0.0, 1.0)
            } else {
                0.0
            };

            let speed = durations
                .and_then(|d| d.get(&worker))
                .map(|pairs| {
                    if pairs.is_empty() {
                        0.0
                    } else {
                        let fast = pairs
                            .iter()
                            .filter(|(actual, est)| actual.as_secs() * 5 < est.as_secs())
                            .count();
                        fast as f64 / pairs.len() as f64
                    }
                })
                .unwrap_or(0.0);

            let wsum = self.w_disagreement + self.w_repetition + self.w_speed;
            let combined = if wsum > 0.0 {
                ((self.w_disagreement * disagreement
                    + self.w_repetition * repetition
                    + self.w_speed * speed)
                    / wsum)
                    .clamp(0.0, 1.0)
            } else {
                0.0
            };

            out.insert(
                worker,
                SpamScore {
                    disagreement,
                    repetition,
                    speed,
                    combined,
                    answers: answered,
                },
            );
        }
        out
    }

    /// Workers whose combined score reaches the threshold.
    pub fn flag(
        &self,
        answers: &AnswerSet,
        durations: Option<&BTreeMap<WorkerId, Vec<(SimDuration, SimDuration)>>>,
    ) -> Vec<WorkerId> {
        self.score(answers, durations)
            .into_iter()
            .filter(|(_, s)| s.combined >= self.threshold)
            .map(|(w, _)| w)
            .collect()
    }
}

/// `id`'s slot in `hist`, giving a first-seen id the next slot of
/// `classes` zeroed counts.
fn slot<K: ArenaKey>(
    slots: &mut DenseIdMap<K, usize>,
    hist: &mut Vec<u32>,
    classes: usize,
    id: K,
) -> usize {
    if let Some(&at) = slots.get(id) {
        return at;
    }
    let at = slots.len();
    slots.insert(id, at);
    hist.resize((at + 1) * classes, 0);
    at
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

    /// 5 diligent (90%), 1 random spammer, 1 uniform spammer over n tasks.
    fn mixed_crowd(n: u32, seed: u64) -> AnswerSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = AnswerSet::new(2);
        for ti in 0..n {
            let truth: u8 = rng.gen_range(0..2);
            for wi in 0..5u32 {
                let label = if rng.gen_bool(0.9) { truth } else { 1 - truth };
                s.record(w(wi), t(ti), label);
            }
            s.record(w(5), t(ti), rng.gen_range(0..2u8)); // random
            s.record(w(6), t(ti), 0); // uniform
        }
        s
    }

    #[test]
    fn spammers_score_higher_than_diligent() {
        let s = mixed_crowd(60, 9);
        let scores = SpamDetector::default().score(&s, None);
        let diligent_max = (0..5)
            .map(|i| scores[&w(i)].combined)
            .fold(0.0f64, f64::max);
        assert!(scores[&w(5)].combined > diligent_max);
        assert!(scores[&w(6)].combined > diligent_max);
    }

    #[test]
    fn uniform_spammer_has_high_repetition() {
        let s = mixed_crowd(60, 10);
        let scores = SpamDetector::default().score(&s, None);
        assert!(scores[&w(6)].repetition > 0.9);
        assert!(scores[&w(0)].repetition < 0.5);
    }

    #[test]
    fn flagging_catches_spammers_not_diligent() {
        let s = mixed_crowd(80, 11);
        let flagged = SpamDetector::default().flag(&s, None);
        assert!(flagged.contains(&w(5)) || flagged.contains(&w(6)));
        for i in 0..5 {
            assert!(!flagged.contains(&w(i)), "diligent w{i} wrongly flagged");
        }
    }

    #[test]
    fn speed_signal_counts_fast_answers() {
        let mut s = AnswerSet::new(2);
        for ti in 0..5 {
            s.record(w(0), t(ti), 0);
            s.record(w(1), t(ti), 0);
        }
        let mut durations = BTreeMap::new();
        let est = SimDuration::from_mins(5);
        durations.insert(
            w(0),
            vec![(SimDuration::from_secs(10), est); 5], // implausibly fast
        );
        durations.insert(w(1), vec![(SimDuration::from_mins(4), est); 5]);
        let det = SpamDetector::default();
        let scores = det.score(&s, Some(&durations));
        assert!((scores[&w(0)].speed - 1.0).abs() < 1e-12);
        assert_eq!(scores[&w(1)].speed, 0.0);
        assert!(scores[&w(0)].combined > scores[&w(1)].combined);
    }

    #[test]
    fn min_answers_gates_scoring() {
        let mut s = AnswerSet::new(2);
        s.record(w(0), t(0), 0);
        s.record(w(1), t(0), 0);
        let scores = SpamDetector::default().score(&s, None);
        assert!(scores.is_empty(), "one answer each is not enough evidence");
    }

    #[test]
    fn lone_worker_has_no_disagreement_evidence() {
        let mut s = AnswerSet::new(2);
        for ti in 0..5 {
            s.record(w(0), t(ti), 1);
        }
        let scores = SpamDetector::default().score(&s, None);
        assert_eq!(scores[&w(0)].disagreement, 0.0);
        // repetition still fires (always answers 1)
        assert!(scores[&w(0)].repetition > 0.9);
    }

    #[test]
    fn archetype_taxonomy() {
        assert!(!WorkerArchetype::Diligent.is_malicious());
        assert!(!WorkerArchetype::Sloppy.is_malicious());
        assert!(WorkerArchetype::RandomSpammer.is_malicious());
        assert!(WorkerArchetype::UniformSpammer.is_malicious());
        assert!(WorkerArchetype::SemiRandomSpammer.is_malicious());
    }

    #[test]
    fn scores_are_bounded() {
        let s = mixed_crowd(40, 13);
        for score in SpamDetector::default().score(&s, None).values() {
            for v in [
                score.disagreement,
                score.repetition,
                score.speed,
                score.combined,
            ] {
                assert!((0.0..=1.0).contains(&v), "score out of bounds: {v}");
            }
        }
    }
}
