//! Trace summaries.
//!
//! The §4.1 objective measures read straight off a trace: worker retention
//! (survivors / workers who ever participated), contribution quality
//! (mean objective quality of label submissions vs ground truth), plus
//! the money and frustration bookkeeping every experiment table shares.

use faircrowd_model::contribution::Contribution;
use faircrowd_model::event::{EventKind, QuitReason};
use faircrowd_model::ids::WorkerId;
use faircrowd_model::money::Credits;
use faircrowd_model::trace::{EventIndex, LogTally, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Headline numbers for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Workers who had at least one session.
    pub(crate) active_workers: usize,
    /// Workers who quit before the horizon.
    pub(crate) quits: usize,
    /// Of those, quits attributed to frustration.
    pub(crate) frustration_quits: usize,
    /// Retention = 1 − quits / active workers (1.0 when nobody was active).
    pub retention: f64,
    /// Submissions received.
    pub submissions: usize,
    /// Mean objective quality of label submissions against ground truth.
    pub label_quality: f64,
    /// Approval rate across all judged submissions.
    pub approval_rate: f64,
    /// Total paid out (payments + bonuses).
    pub total_paid: Credits,
    /// Interrupted work items.
    pub(crate) interruptions: usize,
    /// Interrupted work items that went uncompensated.
    pub(crate) uncompensated_interruptions: usize,
}

/// The event counts a summary is made of, however they were counted.
#[derive(Default)]
struct Counts {
    active_workers: usize,
    quits: usize,
    frustration_quits: usize,
    interruptions: usize,
    uncompensated_interruptions: usize,
    tally: LogTally,
}

impl TraceSummary {
    /// Summarise a trace in a pass over the log of its own: the
    /// reference [`TraceSummary::from_index`] must equal.
    pub fn of(trace: &Trace) -> TraceSummary {
        let mut active: BTreeSet<WorkerId> = BTreeSet::new();
        let mut counts = Counts::default();
        for e in &trace.events {
            match &e.kind {
                EventKind::SessionStarted { worker } => {
                    active.insert(*worker);
                }
                EventKind::WorkerQuit { reason, .. } => {
                    counts.quits += 1;
                    if *reason == QuitReason::Frustration {
                        counts.frustration_quits += 1;
                    }
                }
                EventKind::SubmissionApproved { .. } => counts.tally.approved += 1,
                EventKind::SubmissionRejected { .. } => counts.tally.rejected += 1,
                EventKind::PaymentIssued { amount, .. } | EventKind::BonusPaid { amount, .. } => {
                    counts.tally.paid += *amount;
                }
                EventKind::WorkInterrupted { compensated, .. } => {
                    counts.interruptions += 1;
                    if !compensated {
                        counts.uncompensated_interruptions += 1;
                    }
                }
                _ => {}
            }
        }
        counts.active_workers = active.len();
        Self::from_counts(trace, counts)
    }

    /// Summarise a trace whose log was already replayed into `events`
    /// and `tally` ([`Trace::event_index_tallied`]), without another
    /// pass over the log.
    pub fn from_index(trace: &Trace, events: &EventIndex, tally: LogTally) -> TraceSummary {
        Self::from_counts(
            trace,
            Counts {
                active_workers: events.session_workers.len(),
                quits: events.quits.len(),
                frustration_quits: events
                    .quits
                    .iter()
                    .filter(|(_, reason, _)| *reason == QuitReason::Frustration)
                    .count(),
                interruptions: events.interruptions.len(),
                uncompensated_interruptions: events
                    .interruptions
                    .iter()
                    .filter(|i| !i.compensated)
                    .count(),
                tally,
            },
        )
    }

    /// The summary of `counts`, with label quality scored from the
    /// submissions against the ground truth.
    fn from_counts(trace: &Trace, counts: Counts) -> TraceSummary {
        let mut quality_sum = 0.0;
        let mut quality_n = 0usize;
        for s in &trace.submissions {
            if let Contribution::Label(l) = &s.contribution {
                if let Some(truth) = trace.ground_truth.true_labels.get(&s.task) {
                    quality_sum += f64::from(l == truth);
                    quality_n += 1;
                }
            }
        }

        let Counts {
            active_workers,
            quits,
            frustration_quits,
            interruptions,
            uncompensated_interruptions,
            tally,
        } = counts;
        let judged = tally.approved + tally.rejected;
        TraceSummary {
            active_workers,
            quits,
            frustration_quits,
            retention: if active_workers == 0 {
                1.0
            } else {
                1.0 - quits as f64 / active_workers as f64
            },
            submissions: trace.submissions.len(),
            label_quality: if quality_n == 0 {
                0.0
            } else {
                quality_sum / quality_n as f64
            },
            approval_rate: if judged == 0 {
                1.0
            } else {
                tally.approved as f64 / judged as f64
            },
            total_paid: tally.paid,
            interruptions,
            uncompensated_interruptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CampaignSpec, ScenarioConfig, WorkerPopulation};
    use crate::Simulation;

    fn trace() -> Trace {
        Simulation::new(ScenarioConfig {
            seed: 11,
            rounds: 24,
            workers: vec![WorkerPopulation::diligent(10)],
            campaigns: vec![CampaignSpec::labeling("acme", 15, 10)],
            ..Default::default()
        })
        .run()
    }

    #[test]
    fn summary_of_healthy_run() {
        let s = TraceSummary::of(&trace());
        assert!(s.active_workers > 0);
        assert!(s.submissions > 0);
        assert!(s.retention > 0.5, "healthy market keeps workers");
        assert!(
            s.label_quality > 0.8,
            "diligent-only crowd labels well: {}",
            s.label_quality
        );
        assert!(s.approval_rate > 0.7);
        assert!(s.total_paid.is_positive());
        assert_eq!(s.interruptions, 0);
    }

    #[test]
    fn summary_of_empty_trace() {
        let s = TraceSummary::of(&Trace::default());
        assert_eq!(s.active_workers, 0);
        assert_eq!(s.retention, 1.0);
        assert_eq!(s.label_quality, 0.0);
        assert_eq!(s.approval_rate, 1.0);
        assert_eq!(s.total_paid, Credits::ZERO);
    }
}
