//! The audit-log event vocabulary.
//!
//! Every fairness axiom in the paper quantifies over *observable platform
//! behaviour*: which tasks were shown to whom (Axioms 1–2), who was paid
//! what for which contribution (Axiom 3), whether malicious behaviour could
//! be detected (Axiom 4), who was interrupted mid-task (Axiom 5), and what
//! was disclosed (Axioms 6–7). The simulator emits this log; the audit
//! engine replays it. An auditable platform is precisely one that keeps
//! such a log.

use crate::disclosure::DisclosureItem;
use crate::ids::{RequesterId, SubmissionId, TaskId, WorkerId};
use crate::money::Credits;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a task was cancelled before all assignments completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CancelReason {
    /// The requester reached the target number of acceptable responses
    /// (the survey-overposting scenario of §3.1.1).
    TargetReached,
    /// The campaign budget ran out.
    BudgetExhausted,
    /// The requester withdrew the task for other reasons.
    Withdrawn,
}

/// Why a worker left the platform for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuitReason {
    /// Accumulated frustration with unfair/opaque treatment (the retention
    /// mechanism of §1 and §4.1).
    Frustration,
    /// Unrelated natural churn.
    NaturalChurn,
}

/// One entry in the audit log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A requester posted a task.
    TaskPosted {
        /// The task.
        task: TaskId,
        /// The posting requester.
        requester: RequesterId,
    },
    /// The platform made a task visible to a worker (exposure). Axioms 1–2
    /// quantify over exactly these events.
    TaskVisible {
        /// The task shown.
        task: TaskId,
        /// The worker it was shown to.
        worker: WorkerId,
    },
    /// A worker accepted (claimed) a task assignment.
    TaskAccepted {
        /// The task.
        task: TaskId,
        /// The accepting worker.
        worker: WorkerId,
    },
    /// A worker began working.
    WorkStarted {
        /// The task.
        task: TaskId,
        /// The worker.
        worker: WorkerId,
    },
    /// A worker submitted a contribution.
    SubmissionReceived {
        /// The submission.
        submission: SubmissionId,
        /// The task answered.
        task: TaskId,
        /// The submitting worker.
        worker: WorkerId,
    },
    /// The requester approved a submission.
    SubmissionApproved {
        /// The submission.
        submission: SubmissionId,
        /// The task.
        task: TaskId,
        /// The worker.
        worker: WorkerId,
    },
    /// The requester rejected a submission. `feedback` carries the
    /// explanation if one was given — rejections without feedback are the
    /// requester-opacity scenario of §3.1.2. The text is boxed, as is
    /// `WorkerFlagged`'s detector, so that the rare heavy payloads do not
    /// widen every event (see `events_stay_forty_bytes`).
    SubmissionRejected {
        /// The submission.
        submission: SubmissionId,
        /// The task.
        task: TaskId,
        /// The worker.
        worker: WorkerId,
        /// The explanation given to the worker, if any.
        feedback: Option<Box<String>>,
    },
    /// Money actually moved to a worker.
    PaymentIssued {
        /// The paid submission.
        submission: SubmissionId,
        /// The task.
        task: TaskId,
        /// The paid worker.
        worker: WorkerId,
        /// The amount paid.
        amount: Credits,
    },
    /// A requester promised a bonus.
    BonusPromised {
        /// The worker promised to.
        worker: WorkerId,
        /// The promising requester.
        requester: RequesterId,
        /// The promised amount.
        amount: Credits,
    },
    /// A promised bonus was paid.
    BonusPaid {
        /// The worker paid.
        worker: WorkerId,
        /// The paying requester.
        requester: RequesterId,
        /// The amount.
        amount: Credits,
    },
    /// A promised bonus was *not* paid (the reneging scenario of §3.1.1).
    BonusReneged {
        /// The stiffed worker.
        worker: WorkerId,
        /// The reneging requester.
        requester: RequesterId,
        /// The amount promised but withheld.
        amount: Credits,
    },
    /// A task was cancelled.
    TaskCanceled {
        /// The task.
        task: TaskId,
        /// Why.
        reason: CancelReason,
    },
    /// A worker's in-progress work was cut off by a cancellation — the
    /// Axiom 5 violation witness.
    WorkInterrupted {
        /// The task.
        task: TaskId,
        /// The interrupted worker.
        worker: WorkerId,
        /// Time the worker had already invested.
        invested: SimDuration,
        /// Whether the worker was compensated for the partial work.
        compensated: bool,
    },
    /// A detection mechanism flagged a worker as suspicious (Axiom 4).
    WorkerFlagged {
        /// The flagged worker.
        worker: WorkerId,
        /// Suspicion score in `[0, 1]`.
        score: f64,
        /// Which detector fired.
        detector: Box<String>,
    },
    /// The platform showed a disclosure item to a worker.
    DisclosureShown {
        /// The viewing worker.
        worker: WorkerId,
        /// What was shown.
        item: DisclosureItem,
    },
    /// A worker came online.
    SessionStarted {
        /// The worker.
        worker: WorkerId,
    },
    /// A worker went offline.
    SessionEnded {
        /// The worker.
        worker: WorkerId,
    },
    /// A worker left the platform permanently.
    WorkerQuit {
        /// The worker.
        worker: WorkerId,
        /// Why.
        reason: QuitReason,
    },
}

/// The first integrity defect found in an event log: *which* entry broke
/// the log invariants, and how. Streaming consumers (the live auditor,
/// `faircrowd watch`) surface these as they ingest, so an operator sees
/// the offending seq — not just "the log is bad somewhere".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogDefect {
    /// The entry at `index` does not carry the dense sequence number the
    /// log invariant requires (a gap, a duplicate, or out-of-order
    /// arrival).
    SparseSeq {
        /// Log position (0-based) of the offending entry.
        index: usize,
        /// The sequence number a dense log must carry there.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// The entry at `index` is timestamped earlier than its predecessor.
    TimeRegression {
        /// Log position (0-based) of the offending entry.
        index: usize,
        /// That entry's sequence number.
        seq: u64,
        /// The predecessor's timestamp.
        previous: SimTime,
        /// The regressing timestamp found.
        found: SimTime,
    },
}

impl LogDefect {
    /// The defect of `event` at log position `index`, following an entry
    /// timestamped `previous` (`SimTime::ZERO` for the first): a seq
    /// other than the dense `index`, or a time before `previous`. The
    /// one step that batch validation and arrival-order checks share.
    pub fn of_entry(index: usize, event: &Event, previous: SimTime) -> Option<LogDefect> {
        if event.seq != index as u64 {
            Some(LogDefect::SparseSeq {
                index,
                expected: index as u64,
                found: event.seq,
            })
        } else if event.time < previous {
            Some(LogDefect::TimeRegression {
                index,
                seq: event.seq,
                previous,
                found: event.time,
            })
        } else {
            None
        }
    }

    /// Log position (0-based) of the offending entry.
    pub(crate) fn index(&self) -> usize {
        match self {
            LogDefect::SparseSeq { index, .. } | LogDefect::TimeRegression { index, .. } => *index,
        }
    }
}

impl fmt::Display for LogDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogDefect::SparseSeq {
                index,
                expected,
                found,
            } => write!(
                f,
                "event at log position {index} carries seq {found}, expected the dense seq \
                 {expected}"
            ),
            LogDefect::TimeRegression {
                index,
                seq,
                previous,
                found,
            } => write!(
                f,
                "event seq {seq} at log position {index} is timestamped {found}, regressing \
                 behind the preceding {previous}"
            ),
        }
    }
}

/// A timestamped, sequence-numbered audit-log entry. The sequence number
/// makes ordering total even within one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// When the event happened.
    pub time: SimTime,
    /// Monotonic sequence number within the log.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only audit log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event; the log assigns the sequence number.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.events.len() as u64;
        self.events.push(Event { time, seq, kind });
    }

    /// Rebuild a log from fully-formed events — the deserialisation
    /// path. Sequence numbers are taken **as given**, not re-assigned,
    /// so a persisted log that was tampered with (or truncated in the
    /// middle) still fails [`EventLog::validate`] instead of
    /// being silently repaired.
    pub fn from_events(events: Vec<Event>) -> Self {
        EventLog { events }
    }

    /// Append one fully-formed event **as given** — the streaming
    /// ingestion path. Like [`EventLog::from_events`], the carried
    /// sequence number is kept, not re-assigned; callers that want the
    /// invariants enforced at arrival (the live auditor does) check
    /// [`EventLog::validate`]-style conditions before pushing.
    pub fn push_event(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate in log order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// All events as a slice.
    pub fn as_slice(&self) -> &[Event] {
        &self.events
    }

    /// Count events whose kind matches a predicate.
    pub fn count_where<F: Fn(&EventKind) -> bool>(&self, pred: F) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Verify the log invariants — sequence numbers dense and timestamps
    /// non-decreasing — and report the first defect **with its position,
    /// seq and timestamps** ([`LogDefect`]), so streaming consumers can
    /// say exactly which entry broke monotonicity.
    pub fn validate(&self) -> Result<(), LogDefect> {
        let mut previous = SimTime::ZERO;
        for (i, e) in self.events.iter().enumerate() {
            if let Some(defect) = LogDefect::of_entry(i, e, previous) {
                return Err(defect);
            }
            previous = e.time;
        }
        Ok(())
    }
}

impl IntoIterator for EventLog {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(kinds: Vec<EventKind>) -> EventLog {
        let mut log = EventLog::new();
        for (i, k) in kinds.into_iter().enumerate() {
            log.push(SimTime::from_secs(i as u64), k);
        }
        log
    }

    #[test]
    fn push_assigns_dense_seq() {
        let log = log_with(vec![
            EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
            EventKind::SessionEnded {
                worker: WorkerId::new(0),
            },
        ]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.as_slice()[0].seq, 0);
        assert_eq!(log.as_slice()[1].seq, 1);
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn integrity_detects_time_regression() {
        let mut log = EventLog::new();
        log.push(
            SimTime::from_secs(10),
            EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
        );
        log.push(
            SimTime::from_secs(5),
            EventKind::SessionEnded {
                worker: WorkerId::new(0),
            },
        );
        let defect = log.validate().unwrap_err();
        assert_eq!(defect.index(), 1);
        assert_eq!(
            defect,
            LogDefect::TimeRegression {
                index: 1,
                seq: 1,
                previous: SimTime::from_secs(10),
                found: SimTime::from_secs(5),
            }
        );
        let text = defect.to_string();
        assert!(text.contains("seq 1"), "{text}");
        assert!(text.contains("position 1"), "{text}");
    }

    #[test]
    fn validate_names_the_sparse_seq() {
        let mut log = EventLog::new();
        log.push(
            SimTime::from_secs(1),
            EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
        );
        // A sparse seq arriving mid-stream, as a tampered/truncated log
        // or an out-of-order producer would deliver it.
        log.push_event(Event {
            time: SimTime::from_secs(2),
            seq: 7,
            kind: EventKind::SessionEnded {
                worker: WorkerId::new(0),
            },
        });
        let defect = log.validate().unwrap_err();
        assert_eq!(
            defect,
            LogDefect::SparseSeq {
                index: 1,
                expected: 1,
                found: 7,
            }
        );
        let text = defect.to_string();
        assert!(text.contains("seq 7"), "{text}");
        assert!(text.contains("expected the dense seq 1"), "{text}");
        assert_eq!(defect.index(), 1);
    }

    #[test]
    fn push_event_keeps_the_carried_seq() {
        let mut log = EventLog::new();
        log.push_event(Event {
            time: SimTime::from_secs(0),
            seq: 0,
            kind: EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
        });
        assert_eq!(log.len(), 1);
        assert!(log.validate().is_ok());
    }

    #[test]
    fn count_where_filters() {
        let log = log_with(vec![
            EventKind::TaskVisible {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
            EventKind::TaskVisible {
                task: TaskId::new(0),
                worker: WorkerId::new(1),
            },
            EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
        ]);
        assert_eq!(
            log.count_where(|k| matches!(k, EventKind::TaskVisible { .. })),
            2
        );
        assert_eq!(log.count_where(|k| k.tag() == "session_started"), 1);
    }

    /// Most of a log is `TaskVisible` events, two `u32` ids each, so
    /// the widest variant sets the memory of every event a replay holds.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn events_stay_forty_bytes() {
        let hint = "an event variant grew: box its heavy payload, as \
                    `SubmissionRejected::feedback` and `WorkerFlagged::detector` are";
        assert_eq!(std::mem::size_of::<EventKind>(), 24, "{hint}");
        assert_eq!(std::mem::size_of::<Event>(), 40, "{hint}");
    }

    #[test]
    fn tags_are_stable() {
        let k = EventKind::WorkInterrupted {
            task: TaskId::new(0),
            worker: WorkerId::new(0),
            invested: SimDuration::from_mins(3),
            compensated: false,
        };
        assert_eq!(k.tag(), "work_interrupted");
    }
}
