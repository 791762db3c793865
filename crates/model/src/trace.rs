//! Platform traces.
//!
//! A [`Trace`] is the complete observable record of a platform run: the
//! entity tables (workers, tasks, requesters) in their final state, every
//! submission, the audit [`EventLog`], the [`DisclosureSet`] the platform
//! operated under, and — for *evaluation only* — the simulator's ground
//! truth. The audit engine in `faircrowd-core` consumes traces; the
//! simulator in `faircrowd-sim` produces them; hand-built traces drive the
//! axiom unit tests.

use crate::arena::{DenseIdMap, IdSet};
use crate::contribution::Submission;
use crate::disclosure::DisclosureSet;
use crate::event::{Event, EventKind, EventLog, LogDefect, QuitReason};
use crate::ids::{SubmissionId, TaskId, WorkerId};
use crate::money::Credits;
use crate::requester::Requester;
use crate::task::Task;
use crate::time::{SimDuration, SimTime};
use crate::worker::Worker;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Evaluation-only ground truth carried alongside a trace.
///
/// A real platform does not know which workers are malicious or what the
/// true labels are; the simulator does, and experiments use this to score
/// detector precision/recall (E3) and contribution quality (E6). Axiom
/// checkers never read it except where the experiment explicitly evaluates
/// detection effectiveness.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Workers that behaved maliciously by construction.
    pub malicious_workers: BTreeSet<WorkerId>,
    /// True labels for labeling tasks.
    pub true_labels: BTreeMap<TaskId, u8>,
}

/// One `WorkInterrupted` audit event, in log order — the Axiom 5 witness
/// record kept by [`EventIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interruption {
    /// The cancelled task.
    pub task: TaskId,
    /// The interrupted worker.
    pub worker: WorkerId,
    /// Time the worker had already invested.
    pub invested: SimDuration,
    /// Whether the partial work was compensated.
    pub compensated: bool,
}

/// Every event-derived structure the audit layer quantifies over, built
/// in **one pass** over the [`EventLog`] by [`Trace::event_index`].
///
/// [`Trace::payment_by_submission`] delegates here, and `faircrowd-core`'s
/// `TraceIndex` embeds one so the seven axiom checkers and the objective
/// metrics all share a single replay of the log instead of re-deriving
/// their own maps. `faircrowd-core`'s `LiveAuditor` keeps one up to
/// date event by event instead.
/// The entity-keyed tables are [`DenseIdMap`] arenas, not tree maps:
/// the audit hot paths probe them once per event, and the dense integer
/// ids make that an array index instead of a hash or pointer chase. The
/// access sets are [`IdSet`] bit rows, so a `TaskVisible` event sets
/// two bits. Iteration stays in ascending id order, so everything
/// downstream that encodes or renders from the index is byte-identical
/// to the tree form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventIndex {
    /// Per worker, the tasks made visible to her (Axiom 1 access sets).
    /// Every known worker appears, even with an empty set — "no access
    /// at all" is the strongest discrimination signal.
    pub visibility: DenseIdMap<WorkerId, IdSet<TaskId>>,
    /// Per task, the workers it was shown to (the Axiom 2 inversion).
    pub audience: DenseIdMap<TaskId, IdSet<WorkerId>>,
    /// Total amount actually paid per submission (Axiom 3).
    pub payments: DenseIdMap<SubmissionId, Credits>,
    /// Total earnings per worker: payments plus honoured bonuses. Every
    /// known worker appears, possibly at zero.
    pub earnings: DenseIdMap<WorkerId, Credits>,
    /// Workers flagged by any detector (Axiom 4).
    pub flagged: IdSet<WorkerId>,
    /// Workers who had at least one session (Axiom 7, retention).
    pub session_workers: IdSet<WorkerId>,
    /// Workers who were shown at least one disclosure (Axiom 7).
    pub informed_workers: IdSet<WorkerId>,
    /// Number of `WorkStarted` events (the Axiom 5 quantifier domain).
    pub work_started: usize,
    /// Every interruption, in log order (Axiom 5 witnesses).
    pub interruptions: Vec<Interruption>,
    /// Workers who quit, with reasons, in log order.
    pub quits: Vec<(WorkerId, QuitReason, SimTime)>,
}

impl EventIndex {
    /// Fold one event into the index: the step [`Trace::event_index`]
    /// replays and the live auditor takes per ingested event. Returns
    /// whether the event is a fresh access: false only for a
    /// `TaskVisible` repeating an exposure already recorded.
    #[inline]
    pub fn apply(&mut self, e: &Event) -> bool {
        match &e.kind {
            EventKind::TaskVisible { task, worker } => {
                let fresh = self.visibility.entry(*worker).insert(*task);
                self.audience.entry(*task).insert(*worker);
                return fresh;
            }
            EventKind::PaymentIssued {
                submission,
                worker,
                amount,
                ..
            } => {
                *self.payments.entry(*submission) += *amount;
                *self.earnings.entry(*worker) += *amount;
            }
            EventKind::BonusPaid { worker, amount, .. } => {
                *self.earnings.entry(*worker) += *amount;
            }
            EventKind::WorkerFlagged { worker, .. } => {
                self.flagged.insert(*worker);
            }
            EventKind::SessionStarted { worker } => {
                self.session_workers.insert(*worker);
            }
            EventKind::DisclosureShown { worker, .. } => {
                self.informed_workers.insert(*worker);
            }
            EventKind::WorkStarted { .. } => self.work_started += 1,
            EventKind::WorkInterrupted {
                task,
                worker,
                invested,
                compensated,
            } => self.interruptions.push(Interruption {
                task: *task,
                worker: *worker,
                invested: *invested,
                compensated: *compensated,
            }),
            EventKind::WorkerQuit { worker, reason } => {
                self.quits.push((*worker, *reason, e.time));
            }
            _ => {}
        }
        true
    }
}

/// What a trace summary counts in the log beyond the [`EventIndex`]:
/// judged submissions and the money paid out, tallied in the index
/// build's own pass by [`Trace::event_index_tallied`]. The index keeps
/// none of it, since the index is also the live auditor's checkpointed
/// mirror.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogTally {
    /// `SubmissionApproved` events.
    pub approved: usize,
    /// `SubmissionRejected` events.
    pub rejected: usize,
    /// Payments plus honoured bonuses, added in log order (the money
    /// add saturates, so another order could differ at the limits).
    pub paid: Credits,
}

/// The complete observable record of a platform run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workers in their end-of-run state.
    pub workers: Vec<Worker>,
    /// All tasks ever posted.
    pub tasks: Vec<Task>,
    /// Requesters in their end-of-run state.
    pub requesters: Vec<Requester>,
    /// Every submission received.
    pub submissions: Vec<Submission>,
    /// The audit log.
    pub events: EventLog,
    /// The disclosure configuration the platform ran under.
    pub disclosure: DisclosureSet,
    /// Simulation end time.
    pub horizon: SimTime,
    /// Evaluation-only ground truth.
    pub ground_truth: GroundTruth,
}

impl Trace {
    /// Look up a task by id.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Look up a submission by id.
    pub fn submission(&self, id: SubmissionId) -> Option<&Submission> {
        self.submissions.iter().find(|s| s.id == id)
    }

    /// Build every event-derived structure in one pass over the log —
    /// the shared builder the per-map accessors below delegate to.
    pub fn event_index(&self) -> EventIndex {
        self.event_index_tallied().0
    }

    /// [`Trace::event_index`], with the [`LogTally`] counted in the
    /// same pass.
    pub fn event_index_tallied(&self) -> (EventIndex, LogTally) {
        let mut ix = EventIndex::default();
        for w in &self.workers {
            ix.visibility.entry(w.id);
            ix.earnings.entry(w.id);
        }
        for t in &self.tasks {
            ix.audience.entry(t.id);
        }
        let mut tally = LogTally::default();
        for e in &self.events {
            ix.apply(e);
            match &e.kind {
                EventKind::SubmissionApproved { .. } => tally.approved += 1,
                EventKind::SubmissionRejected { .. } => tally.rejected += 1,
                EventKind::PaymentIssued { amount, .. } | EventKind::BonusPaid { amount, .. } => {
                    tally.paid += *amount;
                }
                _ => {}
            }
        }
        (ix, tally)
    }

    /// Total amount actually paid per submission.
    pub fn payment_by_submission(&self) -> BTreeMap<SubmissionId, Credits> {
        self.event_index().payments.to_btree_map()
    }

    /// Submissions grouped by task, in submission order.
    pub fn submissions_by_task(&self) -> BTreeMap<TaskId, Vec<&Submission>> {
        let mut map: BTreeMap<TaskId, Vec<&Submission>> = BTreeMap::new();
        for s in &self.submissions {
            map.entry(s.task).or_default().push(s);
        }
        map
    }

    /// Events of one kind, via a filter-map projection.
    pub(crate) fn events_where<'a, T, F>(&'a self, f: F) -> Vec<T>
    where
        F: Fn(&'a Event) -> Option<T> + 'a,
    {
        self.events.iter().filter_map(f).collect()
    }

    /// Workers who quit, with reasons.
    pub fn quits(&self) -> Vec<(WorkerId, crate::event::QuitReason, SimTime)> {
        self.events_where(|e| match e.kind {
            EventKind::WorkerQuit { worker, reason } => Some((worker, reason, e.time)),
            _ => None,
        })
    }

    /// Internal consistency checks a well-formed trace must satisfy:
    /// log integrity, submissions referencing known workers/tasks, and
    /// payment events referencing known submissions. Returns a list of
    /// human-readable problems (empty = consistent).
    pub fn validate(&self) -> Vec<String> {
        let worker_ids: IdSet<WorkerId> = self.workers.iter().map(|w| w.id).collect();
        let task_ids: IdSet<TaskId> = self.tasks.iter().map(|t| t.id).collect();
        let sub_ids: IdSet<SubmissionId> = self.submissions.iter().map(|s| s.id).collect();
        // One walk over the log finds both its first integrity defect
        // and every payment for an unknown submission.
        let mut defect = None;
        let mut previous = SimTime::ZERO;
        let mut unknown_payments = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if defect.is_none() {
                defect = LogDefect::of_entry(i, e, previous);
                previous = e.time;
            }
            if let EventKind::PaymentIssued { submission, .. } = e.kind {
                if !sub_ids.contains(submission) {
                    unknown_payments.push(format!("payment for unknown submission {submission}"));
                }
            }
        }
        let mut problems = Vec::new();
        if let Some(defect) = defect {
            problems.push(format!(
                "event log integrity violated at index {}: {defect}",
                defect.index()
            ));
        }
        for s in &self.submissions {
            if !worker_ids.contains(s.worker) {
                problems.push(format!(
                    "submission {} from unknown worker {}",
                    s.id, s.worker
                ));
            }
            if !task_ids.contains(s.task) {
                problems.push(format!("submission {} for unknown task {}", s.id, s.task));
            }
            if s.submitted_at < s.started_at {
                problems.push(format!("submission {} finishes before it starts", s.id));
            }
        }
        problems.extend(unknown_payments);
        problems
    }

    /// [`Trace::validate`] as a `Result`: `Ok` for a well-formed trace,
    /// [`crate::error::FaircrowdError::InvalidTrace`] carrying the
    /// problems otherwise.
    pub fn ensure_valid(&self) -> Result<(), crate::error::FaircrowdError> {
        let problems = self.validate();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(crate::error::FaircrowdError::InvalidTrace { problems })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::DeclaredAttrs;
    use crate::contribution::Contribution;
    use crate::ids::RequesterId;
    use crate::skills::SkillVector;
    use crate::task::TaskBuilder;

    fn tiny_trace() -> Trace {
        let mut trace = Trace::default();
        let w0 = Worker::new(
            WorkerId::new(0),
            DeclaredAttrs::new(),
            SkillVector::with_len(2),
        );
        let w1 = Worker::new(
            WorkerId::new(1),
            DeclaredAttrs::new(),
            SkillVector::with_len(2),
        );
        trace.workers = vec![w0, w1];
        trace.tasks = vec![TaskBuilder::new(
            TaskId::new(0),
            RequesterId::new(0),
            SkillVector::with_len(2),
            Credits::from_cents(10),
        )
        .build()];
        trace.requesters = vec![Requester::new(RequesterId::new(0), "acme")];
        trace.submissions = vec![Submission {
            id: SubmissionId::new(0),
            task: TaskId::new(0),
            worker: WorkerId::new(0),
            contribution: Contribution::Label(1),
            started_at: SimTime::from_secs(10),
            submitted_at: SimTime::from_secs(70),
        }];
        trace.events.push(
            SimTime::from_secs(0),
            EventKind::TaskPosted {
                task: TaskId::new(0),
                requester: RequesterId::new(0),
            },
        );
        trace.events.push(
            SimTime::from_secs(1),
            EventKind::TaskVisible {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
        );
        trace.events.push(
            SimTime::from_secs(80),
            EventKind::PaymentIssued {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                amount: Credits::from_cents(10),
            },
        );
        trace.horizon = SimTime::from_secs(100);
        trace
    }

    #[test]
    fn visibility_includes_unexposed_workers() {
        let vis = tiny_trace().event_index().visibility;
        assert_eq!(vis.len(), 2);
        assert_eq!(vis.get(WorkerId::new(0)).map(IdSet::len), Some(1));
        assert!(
            vis.get(WorkerId::new(1)).is_some_and(IdSet::is_empty),
            "w1 saw nothing"
        );
    }

    #[test]
    fn audience_inverts_visibility() {
        let aud = tiny_trace().event_index().audience;
        let shown = aud.get(TaskId::new(0)).expect("every task has a row");
        assert!(shown.contains(WorkerId::new(0)));
        assert!(!shown.contains(WorkerId::new(1)));
    }

    #[test]
    fn payments_aggregate() {
        let trace = tiny_trace();
        let pay = trace.payment_by_submission();
        assert_eq!(pay[&SubmissionId::new(0)], Credits::from_cents(10));
        let earn = trace.event_index().earnings.to_btree_map();
        assert_eq!(earn[&WorkerId::new(0)], Credits::from_cents(10));
        assert_eq!(earn[&WorkerId::new(1)], Credits::ZERO);
    }

    #[test]
    fn lookups_work() {
        let trace = tiny_trace();
        assert!(trace.task(TaskId::new(0)).is_some());
        assert!(trace.submission(SubmissionId::new(0)).is_some());
    }

    #[test]
    fn valid_trace_validates() {
        assert!(tiny_trace().validate().is_empty());
    }

    #[test]
    fn validation_catches_dangling_references() {
        let mut trace = tiny_trace();
        trace.submissions.push(Submission {
            id: SubmissionId::new(9),
            task: TaskId::new(42),
            worker: WorkerId::new(42),
            contribution: Contribution::Label(0),
            started_at: SimTime::from_secs(5),
            submitted_at: SimTime::from_secs(2),
        });
        let problems = trace.validate();
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn validation_catches_payment_to_unknown_submission() {
        let mut trace = tiny_trace();
        trace.events.push(
            SimTime::from_secs(99),
            EventKind::PaymentIssued {
                submission: SubmissionId::new(77),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                amount: Credits::from_cents(1),
            },
        );
        assert_eq!(trace.validate().len(), 1);
    }

    #[test]
    fn event_index_matches_individual_accessors() {
        let mut trace = tiny_trace();
        trace.events.push(
            SimTime::from_secs(81),
            EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
        );
        trace.events.push(
            SimTime::from_secs(82),
            EventKind::WorkStarted {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
        );
        trace.events.push(
            SimTime::from_secs(83),
            EventKind::WorkInterrupted {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                invested: crate::time::SimDuration::from_mins(2),
                compensated: false,
            },
        );
        let ix = trace.event_index();
        assert_eq!(ix.payments.to_btree_map(), trace.payment_by_submission());
        assert_eq!(ix.session_workers.len(), 1);
        assert_eq!(ix.work_started, 1);
        assert_eq!(ix.interruptions.len(), 1);
        assert!(!ix.interruptions[0].compensated);
        assert!(ix.flagged.is_empty());
    }

    #[test]
    fn submissions_by_task_groups() {
        let trace = tiny_trace();
        let by_task = trace.submissions_by_task();
        assert_eq!(by_task[&TaskId::new(0)].len(), 1);
    }
}
