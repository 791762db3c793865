//! Hand-built traces with known violations, shared by the axiom tests.

use faircrowd_model::attributes::DeclaredAttrs;
use faircrowd_model::contribution::{Contribution, Submission};
use faircrowd_model::event::EventKind;
use faircrowd_model::ids::{RequesterId, SubmissionId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::requester::Requester;
use faircrowd_model::skills::SkillVector;
use faircrowd_model::task::{Task, TaskBuilder};
use faircrowd_model::time::SimTime;
use faircrowd_model::trace::Trace;
use faircrowd_model::worker::Worker;

pub(crate) fn w(i: u32) -> WorkerId {
    WorkerId::new(i)
}
pub(crate) fn t(i: u32) -> TaskId {
    TaskId::new(i)
}
pub(crate) fn sub(i: u32) -> SubmissionId {
    SubmissionId::new(i)
}

/// A worker with the given skill bits (identical declared/computed attrs).
pub(crate) fn worker(i: u32, bits: &[u8]) -> Worker {
    Worker::new(
        w(i),
        DeclaredAttrs::new(),
        SkillVector::from_bools(bits.iter().map(|&b| b == 1)),
    )
}

/// A basic labeling task.
pub(crate) fn task(i: u32, requester: u32, bits: &[u8], reward_cents: i64) -> Task {
    TaskBuilder::new(
        t(i),
        RequesterId::new(requester),
        SkillVector::from_bools(bits.iter().map(|&b| b == 1)),
        Credits::from_cents(reward_cents),
    )
    .build()
}

/// A trace skeleton with two identical workers, two requesters and the
/// given tasks; tests then append the events they need.
pub(crate) fn skeleton(tasks: Vec<Task>) -> Trace {
    Trace {
        workers: vec![worker(0, &[1, 1]), worker(1, &[1, 1])],
        tasks,
        requesters: vec![
            Requester::new(RequesterId::new(0), "r0"),
            Requester::new(RequesterId::new(1), "r1"),
        ],
        ..Trace::default()
    }
}

/// Append a visibility event.
pub(crate) fn show(trace: &mut Trace, at: u64, task_id: u32, worker_id: u32) {
    trace.events.push(
        SimTime::from_secs(at),
        EventKind::TaskVisible {
            task: t(task_id),
            worker: w(worker_id),
        },
    );
}

/// Append a submission record plus its received event; returns the id.
pub(crate) fn submit(
    trace: &mut Trace,
    at: u64,
    task_id: u32,
    worker_id: u32,
    contribution: Contribution,
) -> SubmissionId {
    let id = sub(trace.submissions.len() as u32);
    trace.submissions.push(Submission {
        id,
        task: t(task_id),
        worker: w(worker_id),
        contribution,
        started_at: SimTime::from_secs(at.saturating_sub(60)),
        submitted_at: SimTime::from_secs(at),
    });
    trace.events.push(
        SimTime::from_secs(at),
        EventKind::SubmissionReceived {
            submission: id,
            task: t(task_id),
            worker: w(worker_id),
        },
    );
    id
}

/// Append a payment event.
pub(crate) fn pay(
    trace: &mut Trace,
    at: u64,
    submission: SubmissionId,
    worker_id: u32,
    cents: i64,
) {
    let task = trace
        .submissions
        .iter()
        .find(|s| s.id == submission)
        .map(|s| s.task)
        .unwrap_or(t(0));
    trace.events.push(
        SimTime::from_secs(at),
        EventKind::PaymentIssued {
            submission,
            task,
            worker: w(worker_id),
            amount: Credits::from_cents(cents),
        },
    );
}
