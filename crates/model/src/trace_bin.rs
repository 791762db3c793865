//! The binary on-disk encoding for [`Trace`] — `.fcb` files.
//!
//! JSON keeps the audit trail human-readable, but its codec runs an
//! order of magnitude under the hardware; a platform retaining months
//! of event logs (the premise of the paper's transparency axioms —
//! audits run over *recorded* traces) needs a wire format that decodes
//! at memory speed. This module is that format: length-prefixed,
//! varint-packed, columnar where it pays.
//!
//! ## Layout
//!
//! ```text
//! magic            8 bytes: 89 'F' 'C' 'B' 0D 0A 1A 0A
//! schema name      varint length + UTF-8 ("faircrowd-trace")
//! schema version   varint
//! horizon          varint seconds
//! workers          varint count, then one record each
//! tasks            varint count, then one record each
//! requesters       varint count, then one record each
//! submissions      varint count, then one record each
//! events           varint count, then three columns (times, seqs,
//!                  kind tags) followed by the per-event payload stream
//! disclosure       varint count of (item, audience) index pairs
//! ground truth     malicious workers + true labels
//! <end>            decoding past this point is "trailing garbage"
//! ```
//!
//! The PNG-style magic (high bit set, embedded CRLF and ^Z) makes a
//! binary trace unmistakable to the text sniffers and catches newline
//! translation corruption in the first eight bytes. Ids are raw-`u32`
//! varints, money is zigzag-varint millicents, instants and durations
//! are varint seconds, floats are their IEEE-754 bits little-endian —
//! exactly the JSON schema's value conventions, re-spelled in binary,
//! so the two formats decode to identical [`Trace`]s and share
//! [`SCHEMA_NAME`]/`SCHEMA_VERSION`.
//!
//! The primitives live in [`crate::codec`], shared with the daemon's
//! checkpoint format. Decoding never panics and never trusts a length:
//! every read is bounds-checked against the remaining input and every
//! defect surfaces as a [`FaircrowdError::Persist`] naming the
//! offending byte offset (truncation, foreign magic, an unknown tag, a
//! varint running past ten bytes, an id overflowing `u32`). Referential integrity is left
//! to [`Trace::ensure_valid`], run by the file loader in
//! `faircrowd-core::persist` — the same three-gate contract as the JSON
//! path.

use crate::attributes::{AttrValue, ComputedAttrs, DeclaredAttrs};
use crate::codec::{put_credits, put_f64, put_i64, put_str, put_u64, Cursor};
use crate::contribution::{Contribution, Submission};
use crate::disclosure::{Audience, DisclosureItem, DisclosureSet};
use crate::error::FaircrowdError;
use crate::event::{CancelReason, Event, EventKind, EventLog, QuitReason};
use crate::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};
use crate::requester::Requester;
use crate::skills::SkillVector;
use crate::task::{Task, TaskConditions, TaskKind};
use crate::time::SimTime;
use crate::trace::{GroundTruth, Trace};
use crate::trace_io::{SCHEMA_NAME, SCHEMA_VERSION};
use crate::worker::Worker;

/// The eight bytes every `.fcb` file starts with.
pub const MAGIC: [u8; 8] = [0x89, b'F', b'C', b'B', 0x0D, 0x0A, 0x1A, 0x0A];

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encode a trace into the binary form.
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    put_str(&mut out, SCHEMA_NAME);
    put_u64(&mut out, SCHEMA_VERSION);
    put_u64(&mut out, trace.horizon.as_secs());
    put_u64(&mut out, trace.workers.len() as u64);
    for w in &trace.workers {
        put_worker(&mut out, w);
    }
    put_u64(&mut out, trace.tasks.len() as u64);
    for t in &trace.tasks {
        put_task(&mut out, t);
    }
    put_u64(&mut out, trace.requesters.len() as u64);
    for r in &trace.requesters {
        put_requester(&mut out, r);
    }
    put_u64(&mut out, trace.submissions.len() as u64);
    for s in &trace.submissions {
        put_submission(&mut out, s);
    }
    put_events(&mut out, &trace.events);
    put_disclosure(&mut out, &trace.disclosure);
    put_ground_truth(&mut out, &trace.ground_truth);
    out
}

fn put_skills(out: &mut Vec<u8>, s: &SkillVector) {
    let n = s.len();
    put_u64(out, n as u64);
    let mut byte = 0u8;
    for i in 0..n {
        if s.get(SkillId::new(i as u32)) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
}

fn put_worker(out: &mut Vec<u8>, w: &Worker) {
    put_u64(out, u64::from(w.id.raw()));
    put_u64(out, w.declared.len() as u64);
    for (key, value) in w.declared.iter() {
        put_str(out, key);
        match value {
            AttrValue::Bool(b) => {
                out.push(0);
                out.push(u8::from(*b));
            }
            AttrValue::Int(i) => {
                out.push(1);
                put_i64(out, *i);
            }
            AttrValue::Real(r) => {
                out.push(2);
                put_f64(out, *r);
            }
            AttrValue::Text(t) => {
                out.push(3);
                put_str(out, t);
            }
        }
    }
    let c = &w.computed;
    put_f64(out, c.acceptance_ratio);
    put_u64(out, c.tasks_approved);
    put_u64(out, c.tasks_rejected);
    put_u64(out, c.tasks_submitted);
    put_f64(out, c.quality_estimate);
    put_u64(out, c.mean_approval_latency.as_secs());
    put_credits(out, c.total_earnings);
    put_u64(out, c.sessions);
    put_u64(out, c.extra.len() as u64);
    for (key, value) in &c.extra {
        put_str(out, key);
        put_f64(out, *value);
    }
    put_skills(out, &w.skills);
}

fn put_task(out: &mut Vec<u8>, t: &Task) {
    put_u64(out, u64::from(t.id.raw()));
    put_u64(out, u64::from(t.requester.raw()));
    put_u64(out, u64::from(t.campaign.raw()));
    put_skills(out, &t.skills);
    put_credits(out, t.reward);
    match t.kind {
        TaskKind::Labeling { classes } => {
            out.push(0);
            out.push(classes);
        }
        TaskKind::FreeText => out.push(1),
        TaskKind::Ranking { items } => {
            out.push(2);
            out.push(items);
        }
        TaskKind::Survey => out.push(3),
    }
    put_u64(out, u64::from(t.assignments_wanted));
    put_u64(out, t.est_duration.as_secs());
    let c = &t.conditions;
    let mask = u8::from(c.stated_hourly_wage.is_some())
        | u8::from(c.stated_payment_delay.is_some()) << 1
        | u8::from(c.recruitment_criteria.is_some()) << 2
        | u8::from(c.rejection_criteria.is_some()) << 3
        | u8::from(c.evaluation_scheme.is_some()) << 4;
    out.push(mask);
    if let Some(wage) = c.stated_hourly_wage {
        put_credits(out, wage);
    }
    if let Some(delay) = c.stated_payment_delay {
        put_u64(out, delay.as_secs());
    }
    for text in [
        &c.recruitment_criteria,
        &c.rejection_criteria,
        &c.evaluation_scheme,
    ]
    .into_iter()
    .flatten()
    {
        put_str(out, text);
    }
}

fn put_requester(out: &mut Vec<u8>, r: &Requester) {
    put_u64(out, u64::from(r.id.raw()));
    put_str(out, &r.name);
    put_u64(out, r.approved);
    put_u64(out, r.rejected);
    put_u64(out, r.rejections_with_feedback);
    put_u64(out, r.mean_decision_latency.as_secs());
    put_u64(out, r.bonuses_promised);
    put_u64(out, r.bonuses_paid);
}

fn put_submission(out: &mut Vec<u8>, s: &Submission) {
    put_u64(out, u64::from(s.id.raw()));
    put_u64(out, u64::from(s.task.raw()));
    put_u64(out, u64::from(s.worker.raw()));
    match &s.contribution {
        Contribution::Label(l) => {
            out.push(0);
            out.push(*l);
        }
        Contribution::Text(t) => {
            out.push(1);
            put_str(out, t);
        }
        Contribution::Ranking(r) => {
            out.push(2);
            put_u64(out, r.len() as u64);
            for &item in r {
                put_u64(out, u64::from(item));
            }
        }
        Contribution::Numeric(n) => {
            out.push(3);
            put_f64(out, *n);
        }
    }
    put_u64(out, s.started_at.as_secs());
    put_u64(out, s.submitted_at.as_secs());
}

/// Event-kind wire tags, in [`EventKind`] declaration order.
fn kind_tag(kind: &EventKind) -> u8 {
    match kind {
        EventKind::TaskPosted { .. } => 0,
        EventKind::TaskVisible { .. } => 1,
        EventKind::TaskAccepted { .. } => 2,
        EventKind::WorkStarted { .. } => 3,
        EventKind::SubmissionReceived { .. } => 4,
        EventKind::SubmissionApproved { .. } => 5,
        EventKind::SubmissionRejected { .. } => 6,
        EventKind::PaymentIssued { .. } => 7,
        EventKind::BonusPromised { .. } => 8,
        EventKind::BonusPaid { .. } => 9,
        EventKind::BonusReneged { .. } => 10,
        EventKind::TaskCanceled { .. } => 11,
        EventKind::WorkInterrupted { .. } => 12,
        EventKind::WorkerFlagged { .. } => 13,
        EventKind::DisclosureShown { .. } => 14,
        EventKind::SessionStarted { .. } => 15,
        EventKind::SessionEnded { .. } => 16,
        EventKind::WorkerQuit { .. } => 17,
    }
}

fn put_events(out: &mut Vec<u8>, log: &EventLog) {
    put_u64(out, log.len() as u64);
    // Three scalar columns first: same-shaped values compress the
    // varint stream (deltas of times/seqs are short) and let a decoder
    // run tight per-column loops before touching the payload stream.
    for e in log.iter() {
        put_u64(out, e.time.as_secs());
    }
    for e in log.iter() {
        put_u64(out, e.seq);
    }
    for e in log.iter() {
        out.push(kind_tag(&e.kind));
    }
    for e in log.iter() {
        put_event_payload(out, &e.kind);
    }
}

fn put_event_payload(out: &mut Vec<u8>, kind: &EventKind) {
    match kind {
        EventKind::TaskPosted { task, requester } => {
            put_u64(out, u64::from(task.raw()));
            put_u64(out, u64::from(requester.raw()));
        }
        EventKind::TaskVisible { task, worker }
        | EventKind::TaskAccepted { task, worker }
        | EventKind::WorkStarted { task, worker } => {
            put_u64(out, u64::from(task.raw()));
            put_u64(out, u64::from(worker.raw()));
        }
        EventKind::SubmissionReceived {
            submission,
            task,
            worker,
        }
        | EventKind::SubmissionApproved {
            submission,
            task,
            worker,
        } => {
            put_u64(out, u64::from(submission.raw()));
            put_u64(out, u64::from(task.raw()));
            put_u64(out, u64::from(worker.raw()));
        }
        EventKind::SubmissionRejected {
            submission,
            task,
            worker,
            feedback,
        } => {
            put_u64(out, u64::from(submission.raw()));
            put_u64(out, u64::from(task.raw()));
            put_u64(out, u64::from(worker.raw()));
            match feedback {
                Some(text) => {
                    out.push(1);
                    put_str(out, text);
                }
                None => out.push(0),
            }
        }
        EventKind::PaymentIssued {
            submission,
            task,
            worker,
            amount,
        } => {
            put_u64(out, u64::from(submission.raw()));
            put_u64(out, u64::from(task.raw()));
            put_u64(out, u64::from(worker.raw()));
            put_credits(out, *amount);
        }
        EventKind::BonusPromised {
            worker,
            requester,
            amount,
        }
        | EventKind::BonusPaid {
            worker,
            requester,
            amount,
        }
        | EventKind::BonusReneged {
            worker,
            requester,
            amount,
        } => {
            put_u64(out, u64::from(worker.raw()));
            put_u64(out, u64::from(requester.raw()));
            put_credits(out, *amount);
        }
        EventKind::TaskCanceled { task, reason } => {
            put_u64(out, u64::from(task.raw()));
            out.push(match reason {
                CancelReason::TargetReached => 0,
                CancelReason::BudgetExhausted => 1,
                CancelReason::Withdrawn => 2,
            });
        }
        EventKind::WorkInterrupted {
            task,
            worker,
            invested,
            compensated,
        } => {
            put_u64(out, u64::from(task.raw()));
            put_u64(out, u64::from(worker.raw()));
            put_u64(out, invested.as_secs());
            out.push(u8::from(*compensated));
        }
        EventKind::WorkerFlagged {
            worker,
            score,
            detector,
        } => {
            put_u64(out, u64::from(worker.raw()));
            put_f64(out, *score);
            put_str(out, detector);
        }
        EventKind::DisclosureShown { worker, item } => {
            put_u64(out, u64::from(worker.raw()));
            out.push(item_index(*item));
        }
        EventKind::SessionStarted { worker } | EventKind::SessionEnded { worker } => {
            put_u64(out, u64::from(worker.raw()));
        }
        EventKind::WorkerQuit { worker, reason } => {
            put_u64(out, u64::from(worker.raw()));
            out.push(match reason {
                QuitReason::Frustration => 0,
                QuitReason::NaturalChurn => 1,
            });
        }
    }
}

fn item_index(item: DisclosureItem) -> u8 {
    DisclosureItem::ALL
        .iter()
        .position(|&i| i == item)
        .expect("every DisclosureItem appears in ALL") as u8
}

fn audience_index(audience: Audience) -> u8 {
    Audience::ALL
        .iter()
        .position(|&a| a == audience)
        .expect("every Audience appears in ALL") as u8
}

fn put_disclosure(out: &mut Vec<u8>, set: &DisclosureSet) {
    put_u64(out, set.len() as u64);
    for (item, audience) in set.iter() {
        out.push(item_index(item));
        out.push(audience_index(audience));
    }
}

fn put_ground_truth(out: &mut Vec<u8>, gt: &GroundTruth) {
    put_u64(out, gt.malicious_workers.len() as u64);
    for w in &gt.malicious_workers {
        put_u64(out, u64::from(w.raw()));
    }
    put_u64(out, gt.true_labels.len() as u64);
    for (t, l) in &gt.true_labels {
        put_u64(out, u64::from(t.raw()));
        out.push(*l);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decode a trace from its binary form, checking the magic, schema name
/// and version first. Every malformed shape — truncation, an unknown
/// tag, a varint past ten bytes — surfaces as a
/// [`FaircrowdError::Persist`] naming the byte offset; referential
/// integrity is left to [`Trace::ensure_valid`].
pub fn trace_from_bytes(bytes: &[u8]) -> Result<Trace, FaircrowdError> {
    let mut cur = Cursor::new(bytes, "binary trace");
    cur.magic(&MAGIC)?;
    let name = cur.string("schema name")?;
    if name != SCHEMA_NAME {
        return Err(FaircrowdError::persist(format!(
            "binary trace declares schema `{name}`, not `{SCHEMA_NAME}`"
        )));
    }
    let version = cur.u64("schema version")?;
    if version != SCHEMA_VERSION {
        return Err(FaircrowdError::persist(format!(
            "unsupported schema version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    let mut trace = Trace {
        horizon: SimTime::from_secs(cur.u64("horizon")?),
        ..Trace::default()
    };
    let n = cur.count("worker count")?;
    trace.workers.reserve(n.min(cur.remaining()));
    for i in 0..n {
        trace
            .workers
            .push(cur.worker().map_err(|e| in_record("worker", i, e))?);
    }
    let n = cur.count("task count")?;
    trace.tasks.reserve(n.min(cur.remaining()));
    for i in 0..n {
        trace
            .tasks
            .push(cur.task().map_err(|e| in_record("task", i, e))?);
    }
    let n = cur.count("requester count")?;
    trace.requesters.reserve(n.min(cur.remaining()));
    for i in 0..n {
        trace
            .requesters
            .push(cur.requester().map_err(|e| in_record("requester", i, e))?);
    }
    let n = cur.count("submission count")?;
    trace.submissions.reserve(n.min(cur.remaining()));
    for i in 0..n {
        trace.submissions.push(
            cur.submission()
                .map_err(|e| in_record("submission", i, e))?,
        );
    }
    trace.events = cur.events()?;
    trace.disclosure = cur.disclosure()?;
    trace.ground_truth = cur.ground_truth()?;
    cur.finish()?;
    Ok(trace)
}

/// Does this byte buffer start with the `.fcb` magic? (The sniff the
/// loaders use before routing to [`trace_from_bytes`] — a binary trace
/// can never be confused with UTF-8 JSON because the first byte has
/// its high bit set.)
pub fn sniff_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

/// Tag a decode error with the record it happened in — paid only on the
/// error path, so the per-record hot loop never formats context.
fn in_record(kind: &str, i: usize, e: FaircrowdError) -> FaircrowdError {
    FaircrowdError::persist(format!("{e} (in {kind} record {i})"))
}

impl Cursor<'_> {
    fn skills(&mut self, what: &str) -> Result<SkillVector, FaircrowdError> {
        let n = self.count(what)?;
        let packed = self.take(n.div_ceil(8), what)?;
        Ok(SkillVector::from_bools(
            (0..n).map(|i| packed[i / 8] >> (i % 8) & 1 == 1),
        ))
    }

    fn worker(&mut self) -> Result<Worker, FaircrowdError> {
        let id = WorkerId::new(self.id32("worker id")?);
        let mut declared = DeclaredAttrs::new();
        let attrs = self.count("declared attr count")?;
        for _ in 0..attrs {
            let key = self.string("declared attr key")?;
            let value = match self.u8tag("declared attr", 4)? {
                0 => AttrValue::Bool(self.bool("declared bool")?),
                1 => AttrValue::Int(self.i64("declared int")?),
                2 => AttrValue::Real(self.f64("declared real")?),
                _ => AttrValue::Text(self.string("declared text")?),
            };
            declared.set(&key, value);
        }
        let computed = ComputedAttrs {
            acceptance_ratio: self.f64("acceptance_ratio")?,
            tasks_approved: self.u64("tasks_approved")?,
            tasks_rejected: self.u64("tasks_rejected")?,
            tasks_submitted: self.u64("tasks_submitted")?,
            quality_estimate: self.f64("quality_estimate")?,
            mean_approval_latency: self.duration("mean_approval_latency")?,
            total_earnings: self.credits("total_earnings")?,
            sessions: self.u64("sessions")?,
            extra: {
                let n = self.count("extra attr count")?;
                let mut extra = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let key = self.string("extra attr key")?;
                    extra.insert(key, self.f64("extra attr value")?);
                }
                extra
            },
        };
        let skills = self.skills("worker skills")?;
        Ok(Worker {
            id,
            declared,
            computed,
            skills,
        })
    }

    fn task(&mut self) -> Result<Task, FaircrowdError> {
        let id = TaskId::new(self.id32("task id")?);
        let requester = RequesterId::new(self.id32("task requester")?);
        let campaign = CampaignId::new(self.id32("task campaign")?);
        let skills = self.skills("task skills")?;
        let reward = self.credits("task reward")?;
        let kind = match self.u8tag("task kind", 4)? {
            0 => TaskKind::Labeling {
                classes: self.byte("labeling classes")?,
            },
            1 => TaskKind::FreeText,
            2 => TaskKind::Ranking {
                items: self.byte("ranking items")?,
            },
            _ => TaskKind::Survey,
        };
        let assignments_wanted = self.id32("assignments_wanted")?;
        let est_duration = self.duration("est_duration")?;
        let mask = self.u8tag("task-conditions mask", 1 << 5)?;
        let conditions = TaskConditions {
            stated_hourly_wage: (mask & 1 != 0)
                .then(|| self.credits("stated_hourly_wage"))
                .transpose()?,
            stated_payment_delay: (mask & 2 != 0)
                .then(|| self.duration("stated_payment_delay"))
                .transpose()?,
            recruitment_criteria: (mask & 4 != 0)
                .then(|| self.string("recruitment_criteria"))
                .transpose()?,
            rejection_criteria: (mask & 8 != 0)
                .then(|| self.string("rejection_criteria"))
                .transpose()?,
            evaluation_scheme: (mask & 16 != 0)
                .then(|| self.string("evaluation_scheme"))
                .transpose()?,
        };
        Ok(Task {
            id,
            requester,
            campaign,
            skills,
            reward,
            kind,
            assignments_wanted,
            est_duration,
            conditions,
        })
    }

    fn requester(&mut self) -> Result<Requester, FaircrowdError> {
        Ok(Requester {
            id: RequesterId::new(self.id32("requester id")?),
            name: self.string("requester name")?,
            approved: self.u64("approved")?,
            rejected: self.u64("rejected")?,
            rejections_with_feedback: self.u64("rejections_with_feedback")?,
            mean_decision_latency: self.duration("mean_decision_latency")?,
            bonuses_promised: self.u64("bonuses_promised")?,
            bonuses_paid: self.u64("bonuses_paid")?,
        })
    }

    fn submission(&mut self) -> Result<Submission, FaircrowdError> {
        let id = SubmissionId::new(self.id32("submission id")?);
        let task = TaskId::new(self.id32("submission task")?);
        let worker = WorkerId::new(self.id32("submission worker")?);
        let contribution =
            match self.u8tag("contribution", 4)? {
                0 => Contribution::Label(self.byte("label")?),
                1 => Contribution::Text(self.string("contribution text")?),
                2 => {
                    let n = self.count("ranking length")?;
                    let mut ranking = Vec::with_capacity(n.min(self.remaining()));
                    for _ in 0..n {
                        let v = self.u64("ranking item")?;
                        ranking.push(u16::try_from(v).map_err(|_| {
                            self.err(format_args!("ranking item {v} overflows u16"))
                        })?);
                    }
                    Contribution::Ranking(ranking)
                }
                _ => Contribution::Numeric(self.f64("numeric contribution")?),
            };
        Ok(Submission {
            id,
            task,
            worker,
            contribution,
            started_at: self.secs("started_at")?,
            submitted_at: self.secs("submitted_at")?,
        })
    }

    fn events(&mut self) -> Result<EventLog, FaircrowdError> {
        let n = self.count("event count")?;
        let cap = n.min(self.remaining());
        let mut times = Vec::with_capacity(cap);
        for _ in 0..n {
            times.push(self.secs("event time column")?);
        }
        let mut seqs = Vec::with_capacity(cap);
        for _ in 0..n {
            seqs.push(self.u64("event seq column")?);
        }
        let tags = self.take(n, "event kind column")?;
        let mut events = Vec::with_capacity(cap);
        for (&tag, (time, seq)) in tags.iter().zip(times.into_iter().zip(seqs)) {
            let kind = self.event_kind(tag)?;
            events.push(Event { time, seq, kind });
        }
        Ok(EventLog::from_events(events))
    }

    fn event_kind(&mut self, tag: u8) -> Result<EventKind, FaircrowdError> {
        let task = |cur: &mut Self| Ok(TaskId::new(cur.id32("event task id")?));
        let worker = |cur: &mut Self| Ok(WorkerId::new(cur.id32("event worker id")?));
        let submission = |cur: &mut Self| Ok(SubmissionId::new(cur.id32("event submission id")?));
        Ok(match tag {
            0 => EventKind::TaskPosted {
                task: task(self)?,
                requester: RequesterId::new(self.id32("event requester id")?),
            },
            1 => EventKind::TaskVisible {
                task: task(self)?,
                worker: worker(self)?,
            },
            2 => EventKind::TaskAccepted {
                task: task(self)?,
                worker: worker(self)?,
            },
            3 => EventKind::WorkStarted {
                task: task(self)?,
                worker: worker(self)?,
            },
            4 => EventKind::SubmissionReceived {
                submission: submission(self)?,
                task: task(self)?,
                worker: worker(self)?,
            },
            5 => EventKind::SubmissionApproved {
                submission: submission(self)?,
                task: task(self)?,
                worker: worker(self)?,
            },
            6 => EventKind::SubmissionRejected {
                submission: submission(self)?,
                task: task(self)?,
                worker: worker(self)?,
                feedback: match self.bool("feedback flag")? {
                    true => Some(self.string("rejection feedback")?),
                    false => None,
                },
            },
            7 => EventKind::PaymentIssued {
                submission: submission(self)?,
                task: task(self)?,
                worker: worker(self)?,
                amount: self.credits("payment amount")?,
            },
            8..=10 => {
                let w = worker(self)?;
                let requester = RequesterId::new(self.id32("event requester id")?);
                let amount = self.credits("bonus amount")?;
                match tag {
                    8 => EventKind::BonusPromised {
                        worker: w,
                        requester,
                        amount,
                    },
                    9 => EventKind::BonusPaid {
                        worker: w,
                        requester,
                        amount,
                    },
                    _ => EventKind::BonusReneged {
                        worker: w,
                        requester,
                        amount,
                    },
                }
            }
            11 => EventKind::TaskCanceled {
                task: task(self)?,
                reason: match self.u8tag("cancel reason", 3)? {
                    0 => CancelReason::TargetReached,
                    1 => CancelReason::BudgetExhausted,
                    _ => CancelReason::Withdrawn,
                },
            },
            12 => EventKind::WorkInterrupted {
                task: task(self)?,
                worker: worker(self)?,
                invested: self.duration("invested")?,
                compensated: self.bool("compensated")?,
            },
            13 => EventKind::WorkerFlagged {
                worker: worker(self)?,
                score: self.f64("flag score")?,
                detector: self.string("flag detector")?,
            },
            14 => EventKind::DisclosureShown {
                worker: worker(self)?,
                item: self.item()?,
            },
            15 => EventKind::SessionStarted {
                worker: worker(self)?,
            },
            16 => EventKind::SessionEnded {
                worker: worker(self)?,
            },
            17 => EventKind::WorkerQuit {
                worker: worker(self)?,
                reason: match self.u8tag("quit reason", 2)? {
                    0 => QuitReason::Frustration,
                    _ => QuitReason::NaturalChurn,
                },
            },
            _ => {
                return Err(self.err(format_args!("unknown event kind tag {tag}")));
            }
        })
    }

    fn item(&mut self) -> Result<DisclosureItem, FaircrowdError> {
        let limit = DisclosureItem::ALL.len() as u8;
        let ix = self.u8tag("disclosure item", limit)?;
        Ok(DisclosureItem::ALL[usize::from(ix)])
    }

    fn disclosure(&mut self) -> Result<DisclosureSet, FaircrowdError> {
        let n = self.count("disclosure count")?;
        let mut set = DisclosureSet::default();
        for _ in 0..n {
            let item = self.item()?;
            let limit = Audience::ALL.len() as u8;
            let audience = Audience::ALL[usize::from(self.u8tag("audience", limit)?)];
            set.grant(item, audience);
        }
        Ok(set)
    }

    fn ground_truth(&mut self) -> Result<GroundTruth, FaircrowdError> {
        let mut gt = GroundTruth::default();
        let n = self.count("malicious worker count")?;
        for _ in 0..n {
            gt.malicious_workers
                .insert(WorkerId::new(self.id32("malicious worker")?));
        }
        let n = self.count("true label count")?;
        for _ in 0..n {
            let task = TaskId::new(self.id32("true label task")?);
            gt.true_labels.insert(task, self.byte("true label")?);
        }
        Ok(gt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::default();
        let bytes = trace_to_bytes(&trace);
        assert!(sniff_binary(&bytes));
        let back = trace_from_bytes(&bytes).expect("decodes");
        assert_eq!(back, trace);
    }

    #[test]
    fn skills_pack_to_bits_and_back() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let v = SkillVector::from_bools((0..n).map(|i| i % 3 == 0));
            let mut buf = Vec::new();
            put_skills(&mut buf, &v);
            assert_eq!(buf.len(), varint_len(n as u64) + n.div_ceil(8));
            let mut cur = Cursor::new(&buf, "probe");
            assert_eq!(cur.skills("probe").expect("valid"), v);
        }
    }

    fn varint_len(v: u64) -> usize {
        let mut buf = Vec::new();
        put_u64(&mut buf, v);
        buf.len()
    }

    #[test]
    fn foreign_magic_is_named() {
        let err = trace_from_bytes(b"PK\x03\x04not a trace").expect_err("zip magic");
        assert!(err.to_string().contains("magic"), "got: {err}");
        let err = trace_from_bytes(b"\x89FCB").expect_err("short file");
        assert!(err.to_string().contains("shorter"), "got: {err}");
    }

    #[test]
    fn future_version_is_rejected_by_name() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_str(&mut bytes, SCHEMA_NAME);
        put_u64(&mut bytes, SCHEMA_VERSION + 41);
        let err = trace_from_bytes(&bytes).expect_err("future version");
        assert!(
            err.to_string()
                .contains("unsupported schema version 42 (this build reads version 1)"),
            "got: {err}"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = trace_to_bytes(&Trace::default());
        bytes.extend_from_slice(b"oops");
        let err = trace_from_bytes(&bytes).expect_err("trailing bytes");
        assert!(err.to_string().contains("trailing garbage"), "got: {err}");
    }

    #[test]
    fn hostile_counts_do_not_preallocate() {
        // A tiny file claiming u64::MAX workers must fail on truncation,
        // not abort allocating a zettabyte vector.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_str(&mut bytes, SCHEMA_NAME);
        put_u64(&mut bytes, SCHEMA_VERSION);
        put_u64(&mut bytes, 0); // horizon
        put_u64(&mut bytes, u64::MAX); // worker count
        let err = trace_from_bytes(&bytes).expect_err("no workers follow");
        assert!(err.to_string().contains("unexpected end"), "got: {err}");
    }
}
