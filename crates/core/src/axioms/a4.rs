//! Axiom 4 — requester fairness in task completion.
//!
//! *"Requesters must be able to detect workers behaving maliciously during
//! task completion."*
//!
//! This axiom is about platform **capability**: did the platform run any
//! detection at all, and did it work? The checker reads the
//! `WorkerFlagged` audit events (did detection run, whom did it flag) and
//! — because effectiveness cannot be judged without knowing who actually
//! misbehaved — scores the flags against the trace's evaluation-only
//! ground truth by F1. A platform with no detection events while
//! malicious workers were active scores 0: its requesters had no means to
//! defend themselves (the Vuurens 40%-spam scenario of §2.1).

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::index::TraceIndex;
use faircrowd_model::ids::WorkerId;
use faircrowd_model::similarity::SimilarityConfig;
use std::collections::BTreeSet;

/// Checker for Axiom 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaliceDetection;

impl Axiom for MaliceDetection {
    fn id(&self) -> AxiomId {
        AxiomId::A4MaliceDetection
    }

    fn check(
        &self,
        ix: &TraceIndex<'_>,
        _cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        let trace = ix.trace();
        let flagged = ix.flagged();
        let malicious = &trace.ground_truth.malicious_workers;
        // Only workers who actually submitted can be detected or need to be.
        let active = ix.submitters();
        let active_malicious: BTreeSet<WorkerId> =
            malicious.intersection(active).copied().collect();

        if active_malicious.is_empty() {
            let mut report =
                AxiomReport::vacuous(self.id(), "no active malicious workers in the trace");
            if !flagged.is_empty() {
                report.notes.push(format!(
                    "{} worker(s) flagged despite a clean workforce (false alarms)",
                    flagged.len()
                ));
                report.score = 1.0 - flagged.len() as f64 / active.len().max(1) as f64;
            }
            return report;
        }

        let mut collector = ViolationCollector::new(self.id(), max_witnesses);
        if flagged.is_empty() {
            collector.push(
                1.0,
                format!(
                    "platform emitted no detection events while {} malicious worker(s) \
                     were active",
                    active_malicious.len()
                ),
            );
            return AxiomReport {
                axiom: self.id(),
                score: 0.0,
                checked: active.len(),
                violation_count: collector.total,
                truncated: false,
                violations: collector.items,
                notes: vec!["requesters had no means of detection".to_owned()],
            };
        }

        let tp = active_malicious
            .iter()
            .filter(|&&w| flagged.contains(w))
            .count();
        let fp = flagged.iter().filter(|w| !malicious.contains(w)).count();
        let fn_ = active_malicious.len() - tp;
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };

        for w in active_malicious.iter().filter(|&&w| !flagged.contains(w)) {
            collector.push(0.8, format!("malicious worker {w} was never flagged"));
        }
        for w in flagged.iter().filter(|w| !malicious.contains(w)) {
            collector.push(0.4, format!("honest worker {w} was wrongly flagged"));
        }

        AxiomReport {
            axiom: self.id(),
            score: f1,
            checked: active.len(),
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes: vec![format!(
                "detection precision {precision:.2}, recall {recall:.2} over {} active \
                 malicious of {} active workers",
                active_malicious.len(),
                active.len()
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use faircrowd_model::contribution::Contribution;
    use faircrowd_model::event::EventKind;
    use faircrowd_model::time::SimTime;
    use faircrowd_model::trace::Trace;

    fn cfg() -> SimilarityConfig {
        SimilarityConfig::default()
    }

    fn flag(trace: &mut Trace, at: u64, worker_id: u32, score: f64) {
        trace.events.push(
            SimTime::from_secs(at),
            EventKind::WorkerFlagged {
                worker: w(worker_id),
                score,
                detector: Box::new("test".into()),
            },
        );
    }

    /// Trace with workers 0..4 submitting; 2 and 3 malicious.
    fn spam_trace() -> Trace {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.workers = (0..4).map(|i| worker(i, &[1, 1])).collect();
        for i in 0..4 {
            submit(&mut trace, 100 + i as u64, 0, i, Contribution::Label(0));
        }
        trace.ground_truth.malicious_workers = [w(2), w(3)].into_iter().collect();
        trace
    }

    #[test]
    fn perfect_detection_scores_one() {
        let mut trace = spam_trace();
        flag(&mut trace, 200, 2, 0.9);
        flag(&mut trace, 200, 3, 0.8);
        let r = MaliceDetection.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
        assert!(r.holds());
    }

    #[test]
    fn no_detection_capability_scores_zero() {
        let trace = spam_trace();
        let r = MaliceDetection.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.score, 0.0);
        assert_eq!(r.violation_count, 1);
        assert!(r.violations[0].description.contains("no detection events"));
    }

    #[test]
    fn missed_and_false_flags_lower_the_score() {
        let mut trace = spam_trace();
        flag(&mut trace, 200, 2, 0.9); // true positive
        flag(&mut trace, 200, 0, 0.7); // false positive
                                       // w3 missed
        let r = MaliceDetection.check_trace(&trace, &cfg(), 10);
        // precision 1/2, recall 1/2 -> F1 = 1/2
        assert!((r.score - 0.5).abs() < 1e-9);
        assert_eq!(r.violation_count, 2);
    }

    #[test]
    fn clean_workforce_is_vacuous() {
        let mut trace = spam_trace();
        trace.ground_truth.malicious_workers.clear();
        let r = MaliceDetection.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.score, 1.0);
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn false_alarms_on_clean_workforce_penalised() {
        let mut trace = spam_trace();
        trace.ground_truth.malicious_workers.clear();
        flag(&mut trace, 200, 0, 0.9);
        let r = MaliceDetection.check_trace(&trace, &cfg(), 10);
        assert!(r.score < 1.0);
        assert!(r.notes.iter().any(|n| n.contains("false alarms")));
    }

    #[test]
    fn inactive_malicious_workers_dont_count() {
        let mut trace = spam_trace();
        // w9 is malicious but never submitted anything
        trace.workers.push(worker(9, &[1, 1]));
        trace.ground_truth.malicious_workers.insert(w(9));
        flag(&mut trace, 200, 2, 0.9);
        flag(&mut trace, 200, 3, 0.8);
        let r = MaliceDetection.check_trace(&trace, &cfg(), 10);
        assert!(
            (r.score - 1.0).abs() < 1e-12,
            "only active spammers need detecting: {}",
            r.score
        );
    }
}
