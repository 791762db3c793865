//! Objective fairness and transparency measures (§4.1).
//!
//! "Objective measures such as quality of worker contribution and worker
//! retention can be used in controlled experiments to quantify the level
//! of fairness and transparency of a system as well as its effectiveness."
//! These are those measures, computed from an indexed trace: build one
//! [`TraceIndex`] per trace and take every measure off it, instead of
//! re-replaying the event log once per measure.

use crate::index::TraceIndex;
use faircrowd_model::contribution::Contribution;
use faircrowd_model::ids::WorkerId;
use faircrowd_model::money::Credits;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::stats;
use faircrowd_model::time::SimDuration;
use faircrowd_pay::wage::WageStats;
use std::collections::BTreeMap;

/// Gini coefficient of the exposure distribution — the headline
/// exposure-inequality number in E1.
pub fn exposure_gini(ix: &TraceIndex<'_>) -> f64 {
    let counts: Vec<f64> = ix.visibility().values().map(|t| t.len() as f64).collect();
    stats::gini(&counts)
}

/// Mean access disparity among similar worker pairs: `1 − mean Jaccard
/// overlap` of their qualified access sets (0 = perfectly equal access).
/// Returns 0.0 when the trace has no similar pairs.
pub fn access_disparity(ix: &TraceIndex<'_>, cfg: &SimilarityConfig) -> f64 {
    let report = crate::axioms::a1::WorkerAssignmentFairness.check_for_disparity(ix, cfg);
    1.0 - report
}

/// Worker retention: `1 − quits / active workers` (1.0 with no activity).
pub fn retention(ix: &TraceIndex<'_>) -> f64 {
    let active = ix.session_workers().len();
    if active == 0 {
        1.0
    } else {
        1.0 - ix.quits().len() as f64 / active as f64
    }
}

/// Mean objective quality of label submissions against ground truth
/// (the §4.1 contribution-quality measure); `None` with no label work.
pub fn label_quality(ix: &TraceIndex<'_>) -> Option<f64> {
    let trace = ix.trace();
    let mut sum = 0.0;
    let mut n = 0usize;
    for s in &trace.submissions {
        if let Contribution::Label(l) = &s.contribution {
            if let Some(truth) = trace.ground_truth.true_labels.get(&s.task) {
                sum += f64::from(l == truth);
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Effective hourly-wage statistics across workers: total earnings (pay +
/// bonuses) over total invested time (submission durations plus
/// interrupted invested time). `None` when no worker invested any time —
/// an empty wage distribution has no statistics (in particular it is
/// *not* "perfectly fair"), and sweep folds skip it instead of averaging
/// in fabricated gini-0/jain-1 values.
pub fn wage_stats(ix: &TraceIndex<'_>) -> Option<WageStats> {
    let earnings = ix.earnings();
    let mut worked: BTreeMap<WorkerId, u64> = BTreeMap::new();
    for s in &ix.trace().submissions {
        *worked.entry(s.worker).or_insert(0) += s.work_duration().as_secs();
    }
    for intr in ix.interruptions() {
        *worked.entry(intr.worker).or_insert(0) += intr.invested.as_secs();
    }
    let pairs: Vec<(Credits, SimDuration)> = worked
        .into_iter()
        .map(|(w, secs)| {
            (
                earnings.get(w).copied().unwrap_or(Credits::ZERO),
                SimDuration::from_secs(secs),
            )
        })
        .collect();
    WageStats::from_earnings(&pairs)
}

/// Total amount the requesters spent (payments plus honoured bonuses).
pub fn total_payout(ix: &TraceIndex<'_>) -> Credits {
    // Earnings aggregate exactly the payment and bonus events, per worker.
    ix.earnings().values().copied().sum()
}

/// Unpaid invested time across interruptions (the worker-harm measure
/// of E4), in seconds.
pub fn unpaid_interrupted_seconds(ix: &TraceIndex<'_>) -> u64 {
    ix.interruptions()
        .iter()
        .filter(|i| !i.compensated)
        .map(|i| i.invested.as_secs())
        .sum()
}

impl crate::axioms::a1::WorkerAssignmentFairness {
    /// Mean access overlap among similar pairs (1.0 with no pairs) —
    /// shared with [`access_disparity`].
    pub(crate) fn check_for_disparity(&self, ix: &TraceIndex<'_>, cfg: &SimilarityConfig) -> f64 {
        use crate::axiom::Axiom;
        let report = self.check(ix, cfg, 0);
        if report.checked == 0 {
            1.0
        } else {
            report.score
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_model::attributes::DeclaredAttrs;
    use faircrowd_model::event::{EventKind, QuitReason};
    use faircrowd_model::ids::{RequesterId, SubmissionId, TaskId};
    use faircrowd_model::skills::SkillVector;
    use faircrowd_model::task::TaskBuilder;
    use faircrowd_model::time::SimTime;
    use faircrowd_model::trace::Trace;
    use faircrowd_model::worker::Worker;

    fn trace_with_exposure() -> Trace {
        let mut trace = Trace::default();
        for i in 0..3 {
            trace.workers.push(Worker::new(
                WorkerId::new(i),
                DeclaredAttrs::new(),
                SkillVector::with_len(2),
            ));
        }
        for i in 0..4 {
            trace.tasks.push(
                TaskBuilder::new(
                    TaskId::new(i),
                    RequesterId::new(0),
                    SkillVector::with_len(2),
                    Credits::from_cents(10),
                )
                .build(),
            );
        }
        // w0 sees all 4, w1 sees 2, w2 sees none
        for t in 0..4u32 {
            trace.events.push(
                SimTime::from_secs(1),
                EventKind::TaskVisible {
                    task: TaskId::new(t),
                    worker: WorkerId::new(0),
                },
            );
        }
        for t in 0..2u32 {
            trace.events.push(
                SimTime::from_secs(1),
                EventKind::TaskVisible {
                    task: TaskId::new(t),
                    worker: WorkerId::new(1),
                },
            );
        }
        trace
    }

    #[test]
    fn exposure_counts_and_indices() {
        let trace = trace_with_exposure();
        let ix = TraceIndex::new(&trace);
        let g = exposure_gini(&ix);
        assert!(g > 0.3, "uneven exposure must show in gini: {g}");
    }

    #[test]
    fn access_disparity_detects_exclusion() {
        let trace = trace_with_exposure();
        let d = access_disparity(&TraceIndex::new(&trace), &SimilarityConfig::default());
        assert!(d > 0.3, "identical workers, unequal access: {d}");
        // empty trace has no pairs -> no disparity
        let empty = Trace::default();
        assert_eq!(
            access_disparity(&TraceIndex::new(&empty), &SimilarityConfig::default()),
            0.0
        );
    }

    #[test]
    fn retention_counts_quits() {
        let mut trace = Trace::default();
        for i in 0..4u32 {
            trace.events.push(
                SimTime::from_secs(1),
                EventKind::SessionStarted {
                    worker: WorkerId::new(i),
                },
            );
        }
        trace.events.push(
            SimTime::from_secs(2),
            EventKind::WorkerQuit {
                worker: WorkerId::new(0),
                reason: QuitReason::Frustration,
            },
        );
        assert!((retention(&TraceIndex::new(&trace)) - 0.75).abs() < 1e-12);
        let empty = Trace::default();
        assert_eq!(retention(&TraceIndex::new(&empty)), 1.0);
    }

    #[test]
    fn label_quality_against_truth() {
        let mut trace = trace_with_exposure();
        trace.ground_truth.true_labels.insert(TaskId::new(0), 1);
        trace.ground_truth.true_labels.insert(TaskId::new(1), 0);
        trace
            .submissions
            .push(faircrowd_model::contribution::Submission {
                id: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                contribution: Contribution::Label(1),
                started_at: SimTime::ZERO,
                submitted_at: SimTime::from_secs(60),
            });
        trace
            .submissions
            .push(faircrowd_model::contribution::Submission {
                id: SubmissionId::new(1),
                task: TaskId::new(1),
                worker: WorkerId::new(1),
                contribution: Contribution::Label(1),
                started_at: SimTime::ZERO,
                submitted_at: SimTime::from_secs(60),
            });
        assert!((label_quality(&TraceIndex::new(&trace)).unwrap() - 0.5).abs() < 1e-12);
        let empty = Trace::default();
        assert!(label_quality(&TraceIndex::new(&empty)).is_none());
    }

    #[test]
    fn payout_and_unpaid_time() {
        let mut trace = trace_with_exposure();
        trace
            .submissions
            .push(faircrowd_model::contribution::Submission {
                id: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                contribution: Contribution::Label(1),
                started_at: SimTime::ZERO,
                submitted_at: SimTime::from_secs(600),
            });
        trace.events.push(
            SimTime::from_secs(700),
            EventKind::PaymentIssued {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                amount: Credits::from_cents(20),
            },
        );
        trace.events.push(
            SimTime::from_secs(800),
            EventKind::WorkInterrupted {
                task: TaskId::new(1),
                worker: WorkerId::new(1),
                invested: SimDuration::from_mins(5),
                compensated: false,
            },
        );
        let ix = TraceIndex::new(&trace);
        assert_eq!(total_payout(&ix), Credits::from_cents(20));
        assert_eq!(unpaid_interrupted_seconds(&ix), 300);
        let ws = wage_stats(&ix).expect("two workers invested time");
        // w0 earned $0.20 in 10 minutes -> $1.20/h; w1 earned 0 in 5 min
        assert_eq!(ws.n, 2);
        assert!(ws.mean > 0.0);
    }

    #[test]
    fn wage_stats_of_idle_trace_are_absent() {
        // No submissions, no interruptions — nobody invested time, so
        // there is no wage distribution to score (and certainly not a
        // "perfectly fair" one).
        let trace = trace_with_exposure();
        assert_eq!(wage_stats(&TraceIndex::new(&trace)), None);
    }
}
