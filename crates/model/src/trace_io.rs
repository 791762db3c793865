//! The versioned on-disk schema for [`Trace`].
//!
//! The paper's transparency program presumes audits run over *recorded*
//! platform logs — Turkbench and Crowd-Workers disclose wages computed
//! from real traces, not from a simulator bound into the auditor. This
//! module gives [`Trace`] a stable, versioned interchange form so a
//! trace can leave the process that produced it and be audited later,
//! elsewhere, by `faircrowd-core`'s replay path.
//!
//! Two encodings share one schema version:
//!
//! * **JSON** — the whole trace as a single object, human-readable
//!   ([`trace_to_json`] / [`trace_from_json`]);
//! * **JSONL** — a header line (schema, horizon, disclosure set, ground
//!   truth) followed by one compact record per entity/submission/event
//!   ([`trace_to_jsonl`] / [`trace_from_jsonl`]), the append-friendly
//!   form a platform would actually log into.
//!
//! Schema conventions: ids are raw `u32`s, money is `i64` **millicents**
//! ([`Credits`]), instants and durations are `u64` **seconds**
//! ([`SimTime`]/[`SimDuration`]), skill vectors are `0`/`1` strings, and
//! enum-like values use their existing canonical names
//! ([`EventKind::tag`], [`DisclosureItem::name`], [`Audience::name`],
//! `TaskKind::name`). Floats print in Rust's shortest round-trip form,
//! so encode → decode → encode is byte-identical — the invariant the
//! replay tests pin.
//!
//! Decoding never panics: every malformed shape surfaces as a
//! [`FaircrowdError::Persist`] naming the record and field. Referential
//! integrity (dangling worker/task/submission ids) is *not* checked
//! here — that is [`Trace::ensure_valid`]'s job, which the file loader
//! in `faircrowd-core::persist` runs after decoding.

use crate::attributes::{AttrValue, ComputedAttrs, DeclaredAttrs};
use crate::contribution::{Contribution, Submission};
use crate::disclosure::{Audience, DisclosureItem, DisclosureSet};
use crate::error::FaircrowdError;
use crate::event::{CancelReason, Event, EventKind, EventLog, QuitReason};
use crate::fields::{
    arr_field, bool_field, credits_field, duration_field, f64_field, require, str_field, u32_field,
    u64_field, u8_field,
};
use crate::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};
use crate::json::Json;
use crate::money::Credits;
use crate::requester::Requester;
use crate::skills::SkillVector;
use crate::task::{Task, TaskConditions, TaskKind};
use crate::time::{SimDuration, SimTime};
use crate::trace::{GroundTruth, Trace};
use crate::worker::Worker;
use std::fmt;

/// The schema identifier every trace file carries.
pub const SCHEMA_NAME: &str = "faircrowd-trace";

/// The schema version this build writes and reads.
pub(crate) const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encode a trace as one JSON object (the whole-file form).
pub fn trace_to_json(trace: &Trace) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_NAME)),
        ("version".into(), Json::uint(SCHEMA_VERSION)),
        ("horizon".into(), Json::uint(trace.horizon.as_secs())),
        (
            "workers".into(),
            Json::Arr(trace.workers.iter().map(worker_to_json).collect()),
        ),
        (
            "tasks".into(),
            Json::Arr(trace.tasks.iter().map(task_to_json).collect()),
        ),
        (
            "requesters".into(),
            Json::Arr(trace.requesters.iter().map(requester_to_json).collect()),
        ),
        (
            "submissions".into(),
            Json::Arr(trace.submissions.iter().map(submission_to_json).collect()),
        ),
        (
            "events".into(),
            Json::Arr(trace.events.iter().map(event_to_json).collect()),
        ),
        ("disclosure".into(), disclosure_to_json(&trace.disclosure)),
        (
            "ground_truth".into(),
            ground_truth_to_json(&trace.ground_truth),
        ),
    ])
}

/// Encode a trace as JSONL: a header line carrying the scalars, then
/// one compact record per worker, task, requester, submission and
/// event, in that order. Ends with a trailing newline.
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let header = Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_NAME)),
        ("version".into(), Json::uint(SCHEMA_VERSION)),
        ("format".into(), Json::str("jsonl")),
        ("horizon".into(), Json::uint(trace.horizon.as_secs())),
        ("disclosure".into(), disclosure_to_json(&trace.disclosure)),
        (
            "ground_truth".into(),
            ground_truth_to_json(&trace.ground_truth),
        ),
    ]);
    let mut out = header.to_compact();
    out.push('\n');
    let mut record = |tag: &str, value: Json| {
        out.push_str(&Json::Obj(vec![(tag.to_owned(), value)]).to_compact());
        out.push('\n');
    };
    for w in &trace.workers {
        record("worker", worker_to_json(w));
    }
    for t in &trace.tasks {
        record("task", task_to_json(t));
    }
    for r in &trace.requesters {
        record("requester", requester_to_json(r));
    }
    for s in &trace.submissions {
        record("submission", submission_to_json(s));
    }
    for e in &trace.events {
        record("event", event_to_json(e));
    }
    out
}

fn worker_to_json(w: &Worker) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::uint(u64::from(w.id.raw()))),
        ("declared".into(), declared_to_json(&w.declared)),
        ("computed".into(), computed_to_json(&w.computed)),
        ("skills".into(), skills_to_json(&w.skills)),
    ])
}

fn declared_to_json(attrs: &DeclaredAttrs) -> Json {
    Json::Obj(
        attrs
            .iter()
            .map(|(k, v)| (k.to_owned(), attr_value_to_json(v)))
            .collect(),
    )
}

fn attr_value_to_json(v: &AttrValue) -> Json {
    match v {
        AttrValue::Bool(b) => Json::Obj(vec![("bool".into(), Json::Bool(*b))]),
        AttrValue::Int(i) => Json::Obj(vec![("int".into(), Json::int(*i))]),
        AttrValue::Real(r) => Json::Obj(vec![("real".into(), Json::float(*r))]),
        AttrValue::Text(s) => Json::Obj(vec![("text".into(), Json::str(s.clone()))]),
    }
}

fn computed_to_json(c: &ComputedAttrs) -> Json {
    Json::Obj(vec![
        ("acceptance_ratio".into(), Json::float(c.acceptance_ratio)),
        ("tasks_approved".into(), Json::uint(c.tasks_approved)),
        ("tasks_rejected".into(), Json::uint(c.tasks_rejected)),
        ("tasks_submitted".into(), Json::uint(c.tasks_submitted)),
        ("quality_estimate".into(), Json::float(c.quality_estimate)),
        (
            "mean_approval_latency".into(),
            Json::uint(c.mean_approval_latency.as_secs()),
        ),
        (
            "total_earnings".into(),
            Json::int(c.total_earnings.millicents()),
        ),
        ("sessions".into(), Json::uint(c.sessions)),
        (
            "extra".into(),
            Json::Obj(
                c.extra
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::float(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn skills_to_json(s: &SkillVector) -> Json {
    let bits: String = (0..s.len())
        .map(|i| {
            if s.get(SkillId::new(i as u32)) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    Json::Str(bits)
}

fn task_to_json(t: &Task) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::uint(u64::from(t.id.raw()))),
        ("requester".into(), Json::uint(u64::from(t.requester.raw()))),
        ("campaign".into(), Json::uint(u64::from(t.campaign.raw()))),
        ("skills".into(), skills_to_json(&t.skills)),
        ("reward".into(), Json::int(t.reward.millicents())),
        ("kind".into(), kind_to_json(t.kind)),
        (
            "assignments_wanted".into(),
            Json::uint(u64::from(t.assignments_wanted)),
        ),
        ("est_duration".into(), Json::uint(t.est_duration.as_secs())),
        ("conditions".into(), conditions_to_json(&t.conditions)),
    ])
}

fn kind_to_json(kind: TaskKind) -> Json {
    let mut members = vec![("name".to_owned(), Json::str(kind.name()))];
    match kind {
        TaskKind::Labeling { classes } => {
            members.push(("classes".into(), Json::uint(u64::from(classes))));
        }
        TaskKind::Ranking { items } => {
            members.push(("items".into(), Json::uint(u64::from(items))));
        }
        TaskKind::FreeText | TaskKind::Survey => {}
    }
    Json::Obj(members)
}

fn conditions_to_json(c: &TaskConditions) -> Json {
    let mut members = Vec::new();
    if let Some(wage) = c.stated_hourly_wage {
        members.push((
            "stated_hourly_wage".to_owned(),
            Json::int(wage.millicents()),
        ));
    }
    if let Some(delay) = c.stated_payment_delay {
        members.push((
            "stated_payment_delay".to_owned(),
            Json::uint(delay.as_secs()),
        ));
    }
    for (key, value) in [
        ("recruitment_criteria", &c.recruitment_criteria),
        ("rejection_criteria", &c.rejection_criteria),
        ("evaluation_scheme", &c.evaluation_scheme),
    ] {
        if let Some(text) = value {
            members.push((key.to_owned(), Json::str(text.clone())));
        }
    }
    Json::Obj(members)
}

fn requester_to_json(r: &Requester) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::uint(u64::from(r.id.raw()))),
        ("name".into(), Json::str(r.name.clone())),
        ("approved".into(), Json::uint(r.approved)),
        ("rejected".into(), Json::uint(r.rejected)),
        (
            "rejections_with_feedback".into(),
            Json::uint(r.rejections_with_feedback),
        ),
        (
            "mean_decision_latency".into(),
            Json::uint(r.mean_decision_latency.as_secs()),
        ),
        ("bonuses_promised".into(), Json::uint(r.bonuses_promised)),
        ("bonuses_paid".into(), Json::uint(r.bonuses_paid)),
    ])
}

fn submission_to_json(s: &Submission) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::uint(u64::from(s.id.raw()))),
        ("task".into(), Json::uint(u64::from(s.task.raw()))),
        ("worker".into(), Json::uint(u64::from(s.worker.raw()))),
        ("contribution".into(), contribution_to_json(&s.contribution)),
        ("started_at".into(), Json::uint(s.started_at.as_secs())),
        ("submitted_at".into(), Json::uint(s.submitted_at.as_secs())),
    ])
}

fn contribution_to_json(c: &Contribution) -> Json {
    match c {
        Contribution::Label(l) => Json::Obj(vec![("label".into(), Json::uint(u64::from(*l)))]),
        Contribution::Text(t) => Json::Obj(vec![("text".into(), Json::str(t.clone()))]),
        Contribution::Ranking(r) => Json::Obj(vec![(
            "ranking".into(),
            Json::Arr(r.iter().map(|&i| Json::uint(u64::from(i))).collect()),
        )]),
        Contribution::Numeric(n) => Json::Obj(vec![("numeric".into(), Json::float(*n))]),
    }
}

fn event_to_json(e: &Event) -> Json {
    let mut members = vec![
        ("time".to_owned(), Json::uint(e.time.as_secs())),
        ("seq".to_owned(), Json::uint(e.seq)),
        ("kind".to_owned(), Json::str(e.kind.tag())),
    ];
    let mut put = |key: &str, value: Json| members.push((key.to_owned(), value));
    match &e.kind {
        EventKind::TaskPosted { task, requester } => {
            put("task", id32(task.raw()));
            put("requester", id32(requester.raw()));
        }
        EventKind::TaskVisible { task, worker }
        | EventKind::TaskAccepted { task, worker }
        | EventKind::WorkStarted { task, worker } => {
            put("task", id32(task.raw()));
            put("worker", id32(worker.raw()));
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
            put("submission", id32(submission.raw()));
            put("task", id32(task.raw()));
            put("worker", id32(worker.raw()));
        }
        EventKind::SubmissionRejected {
            submission,
            task,
            worker,
            feedback,
        } => {
            put("submission", id32(submission.raw()));
            put("task", id32(task.raw()));
            put("worker", id32(worker.raw()));
            if let Some(text) = feedback {
                put("feedback", Json::str(text.clone()));
            }
        }
        EventKind::PaymentIssued {
            submission,
            task,
            worker,
            amount,
        } => {
            put("submission", id32(submission.raw()));
            put("task", id32(task.raw()));
            put("worker", id32(worker.raw()));
            put("amount", Json::int(amount.millicents()));
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
            put("worker", id32(worker.raw()));
            put("requester", id32(requester.raw()));
            put("amount", Json::int(amount.millicents()));
        }
        EventKind::TaskCanceled { task, reason } => {
            put("task", id32(task.raw()));
            put("reason", Json::str(cancel_reason_name(*reason)));
        }
        EventKind::WorkInterrupted {
            task,
            worker,
            invested,
            compensated,
        } => {
            put("task", id32(task.raw()));
            put("worker", id32(worker.raw()));
            put("invested", Json::uint(invested.as_secs()));
            put("compensated", Json::Bool(*compensated));
        }
        EventKind::WorkerFlagged {
            worker,
            score,
            detector,
        } => {
            put("worker", id32(worker.raw()));
            put("score", Json::float(*score));
            put("detector", Json::str(detector.clone()));
        }
        EventKind::DisclosureShown { worker, item } => {
            put("worker", id32(worker.raw()));
            put("item", Json::str(item.name()));
        }
        EventKind::SessionStarted { worker }
        | EventKind::SessionEnded { worker }
        | EventKind::WorkerQuit {
            worker,
            reason: QuitReason::NaturalChurn,
        }
        | EventKind::WorkerQuit {
            worker,
            reason: QuitReason::Frustration,
        } => {
            put("worker", id32(worker.raw()));
            if let EventKind::WorkerQuit { reason, .. } = &e.kind {
                put("reason", Json::str(quit_reason_name(*reason)));
            }
        }
    }
    Json::Obj(members)
}

fn id32(raw: u32) -> Json {
    Json::uint(u64::from(raw))
}

fn cancel_reason_name(r: CancelReason) -> &'static str {
    match r {
        CancelReason::TargetReached => "target_reached",
        CancelReason::BudgetExhausted => "budget_exhausted",
        CancelReason::Withdrawn => "withdrawn",
    }
}

fn quit_reason_name(r: QuitReason) -> &'static str {
    match r {
        QuitReason::Frustration => "frustration",
        QuitReason::NaturalChurn => "natural_churn",
    }
}

fn disclosure_to_json(set: &DisclosureSet) -> Json {
    Json::Arr(
        set.iter()
            .map(|(item, audience)| {
                Json::Arr(vec![Json::str(item.name()), Json::str(audience.name())])
            })
            .collect(),
    )
}

fn ground_truth_to_json(gt: &GroundTruth) -> Json {
    Json::Obj(vec![
        (
            "malicious_workers".into(),
            Json::Arr(gt.malicious_workers.iter().map(|w| id32(w.raw())).collect()),
        ),
        (
            "true_labels".into(),
            Json::Arr(
                gt.true_labels
                    .iter()
                    .map(|(t, l)| Json::Arr(vec![id32(t.raw()), Json::uint(u64::from(*l))]))
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decode a trace from its whole-file JSON form, checking the schema
/// name and version first. Shape problems surface as
/// [`FaircrowdError::Persist`] with the offending record and field
/// named; referential integrity is left to [`Trace::ensure_valid`].
pub fn trace_from_json(json: &Json) -> Result<Trace, FaircrowdError> {
    check_schema(json)?;
    let mut trace = Trace {
        horizon: SimTime::from_secs(u64_field(json, "horizon", "trace")?),
        disclosure: disclosure_from_json(require(json, "disclosure", "trace")?)?,
        ground_truth: ground_truth_from_json(require(json, "ground_truth", "trace")?)?,
        ..Trace::default()
    };
    for (i, w) in arr_field(json, "workers", "trace")?.iter().enumerate() {
        trace
            .workers
            .push(worker_from_json(w, RecordCtx::Index("worker", i))?);
    }
    for (i, t) in arr_field(json, "tasks", "trace")?.iter().enumerate() {
        trace
            .tasks
            .push(task_from_json(t, RecordCtx::Index("task", i))?);
    }
    for (i, r) in arr_field(json, "requesters", "trace")?.iter().enumerate() {
        trace
            .requesters
            .push(requester_from_json(r, RecordCtx::Index("requester", i))?);
    }
    for (i, s) in arr_field(json, "submissions", "trace")?.iter().enumerate() {
        trace
            .submissions
            .push(submission_from_json(s, RecordCtx::Index("submission", i))?);
    }
    let mut events = Vec::new();
    for (i, e) in arr_field(json, "events", "trace")?.iter().enumerate() {
        events.push(event_from_json(e, RecordCtx::Index("event", i))?);
    }
    trace.events = EventLog::from_events(events);
    Ok(trace)
}

/// The scalar fields a JSONL trace stream declares up front, decoded
/// from its header line.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlHeader {
    /// Simulation end time.
    pub horizon: SimTime,
    /// The disclosure configuration the platform ran under.
    pub disclosure: DisclosureSet,
    /// Evaluation-only ground truth.
    pub ground_truth: GroundTruth,
}

/// One decoded JSONL record — everything a line after the header can
/// carry.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonlRecord {
    /// A worker entity record.
    Worker(Worker),
    /// A task entity record.
    Task(Task),
    /// A requester entity record.
    Requester(Requester),
    /// A submission record.
    Submission(Submission),
    /// An audit-log event record.
    Event(Event),
}

/// An incremental, line-at-a-time JSONL trace decoder — the streaming
/// half of this module.
///
/// [`trace_from_jsonl`] drains a complete in-memory file through one of
/// these; the live-audit path (`faircrowd watch`, tailing a file that
/// is still being appended to) feeds lines as they arrive and hands
/// each decoded [`JsonlRecord`] to the auditor without ever
/// materialising the whole trace. The first non-empty line fed must be
/// the schema header; it is checked (name + version) and retained as
/// [`JsonlReader::header`].
///
/// Errors name the (1-based) line they occurred on, counting **every**
/// fed line (blank lines too), so positions match the file an operator
/// opens.
///
/// A record line in exactly the bytes [`trace_to_jsonl`] writes (its
/// member order, no whitespace, no escaped string) decodes straight
/// from the borrowed `&str`, without building a [`Json`] tree. The
/// header line and any other valid JSONL line decode through the tree
/// parser, with identical results and identical errors.
#[derive(Debug, Default)]
pub struct JsonlReader {
    lineno: usize,
    header: Option<JsonlHeader>,
}

impl JsonlReader {
    /// A reader that has seen no lines yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A reader resuming mid-stream: the header was already decoded (in
    /// an earlier process life) and `lines_consumed` physical lines of
    /// the source file — header and blank lines included — have already
    /// been fed. Subsequent [`feed_line`](Self::feed_line) errors carry
    /// absolute line numbers in the original file, so a checkpointed
    /// tailer that skips the consumed prefix still reports positions an
    /// operator can open.
    pub fn resume(header: JsonlHeader, lines_consumed: usize) -> Self {
        Self {
            lineno: lines_consumed,
            header: Some(header),
        }
    }

    /// The decoded header, once the header line has been fed.
    pub fn header(&self) -> Option<&JsonlHeader> {
        self.header.as_ref()
    }

    /// Consume the reader, keeping the decoded header (if one arrived).
    pub(crate) fn into_header(self) -> Option<JsonlHeader> {
        self.header
    }

    /// Number of lines fed so far (blank lines included).
    pub fn lines_fed(&self) -> usize {
        self.lineno
    }

    /// Feed one line (without its trailing newline; a trailing `\r`
    /// left by a CRLF-ended file is tolerated and stripped). Returns the
    /// decoded record, or `None` for blank lines and the header line.
    pub fn feed_line(&mut self, line: &str) -> Result<Option<JsonlRecord>, FaircrowdError> {
        self.lineno += 1;
        let lineno = self.lineno;
        // A file written with CRLF line endings (Windows export, or a
        // trace piped through a CRLF-normalizing tool) hands callers
        // that split on `\n` alone a line with one `\r` still attached;
        // it must decode identically, not fail mid-line.
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            return Ok(None);
        }
        if self.header.is_none() {
            let header = Json::parse(line)
                .map_err(|e| FaircrowdError::persist(format!("line {lineno} (header): {e}")))?;
            check_schema(&header)?;
            // A whole-file JSON trace minified onto one line carries the
            // same schema name and version but no `format` marker; it
            // must be rejected here, not silently read as a header whose
            // entity arrays are ignored (an empty market with a clean
            // report would be a wrong verdict, not an error).
            match header.get("format").and_then(Json::as_str) {
                Some("jsonl") => {}
                other => {
                    return Err(FaircrowdError::persist(format!(
                        "line {lineno} (header): `format` is {}, expected \"jsonl\" — \
                         whole-file JSON traces are read by `trace_from_json` \
                         (CLI: `faircrowd replay`)",
                        other.map_or("missing".to_owned(), |f| format!("`{f}`"))
                    )))
                }
            }
            self.header = Some(JsonlHeader {
                horizon: SimTime::from_secs(u64_field(&header, "horizon", "header")?),
                disclosure: disclosure_from_json(require(&header, "disclosure", "header")?)?,
                ground_truth: ground_truth_from_json(require(&header, "ground_truth", "header")?)?,
            });
            return Ok(None);
        }
        match canonical_record(line) {
            Some(record) => Ok(Some(record)),
            None => record_from_tree(line, lineno).map(Some),
        }
    }
}

/// Decode record line `lineno` through the JSON tree: the route for
/// every line [`canonical_record`] declines, and the reference it must
/// agree with.
fn record_from_tree(line: &str, lineno: usize) -> Result<JsonlRecord, FaircrowdError> {
    let record =
        Json::parse(line).map_err(|e| FaircrowdError::persist(format!("line {lineno}: {e}")))?;
    let members = record.as_obj().ok_or_else(|| {
        FaircrowdError::persist(format!("line {lineno}: record is not an object"))
    })?;
    let [(tag, value)] = members else {
        return Err(FaircrowdError::persist(format!(
            "line {lineno}: expected one `{{\"<record-type>\": …}}` member, got {}",
            members.len()
        )));
    };
    Ok(match tag.as_str() {
        "worker" => {
            JsonlRecord::Worker(worker_from_json(value, RecordCtx::Line(lineno, "worker"))?)
        }
        "task" => JsonlRecord::Task(task_from_json(value, RecordCtx::Line(lineno, "task"))?),
        "requester" => JsonlRecord::Requester(requester_from_json(
            value,
            RecordCtx::Line(lineno, "requester"),
        )?),
        "submission" => JsonlRecord::Submission(submission_from_json(
            value,
            RecordCtx::Line(lineno, "submission"),
        )?),
        "event" => JsonlRecord::Event(event_from_json(value, RecordCtx::Line(lineno, "event"))?),
        other => {
            return Err(FaircrowdError::persist(format!(
                "line {lineno}: unknown record type `{other}` \
                 (expected worker | task | requester | submission | event)"
            )))
        }
    })
}

/// Decode a trace from its JSONL form: a header line, then one tagged
/// record per line — the whole-file convenience over [`JsonlReader`].
/// Errors name the (1-based) line they occurred on.
pub fn trace_from_jsonl(text: &str) -> Result<Trace, FaircrowdError> {
    let mut reader = JsonlReader::new();
    let mut trace = Trace::default();
    let mut events = Vec::new();
    for line in text.lines() {
        match reader.feed_line(line)? {
            None => {}
            Some(JsonlRecord::Worker(w)) => trace.workers.push(w),
            Some(JsonlRecord::Task(t)) => trace.tasks.push(t),
            Some(JsonlRecord::Requester(r)) => trace.requesters.push(r),
            Some(JsonlRecord::Submission(s)) => trace.submissions.push(s),
            Some(JsonlRecord::Event(e)) => events.push(e),
        }
    }
    let header = reader
        .into_header()
        .ok_or_else(|| FaircrowdError::persist("empty file (no JSONL header line)"))?;
    trace.horizon = header.horizon;
    trace.disclosure = header.disclosure;
    trace.ground_truth = header.ground_truth;
    trace.events = EventLog::from_events(events);
    Ok(trace)
}

fn check_schema(json: &Json) -> Result<(), FaircrowdError> {
    if json.as_obj().is_none() {
        return Err(FaircrowdError::persist("top-level value is not an object"));
    }
    let schema = json.get("schema").and_then(Json::as_str).ok_or_else(|| {
        FaircrowdError::persist("missing `schema` field — not a faircrowd trace file")
    })?;
    if schema != SCHEMA_NAME {
        return Err(FaircrowdError::persist(format!(
            "schema is `{schema}`, expected `{SCHEMA_NAME}`"
        )));
    }
    let version = u64_field(json, "version", "trace")?;
    if version != SCHEMA_VERSION {
        return Err(FaircrowdError::persist(format!(
            "unsupported schema version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

// ---- record decoders ------------------------------------------------

/// Where a record sits, as its decode errors name it. Formatted only
/// when an error is built, never for a record that decodes.
#[derive(Clone, Copy)]
enum RecordCtx {
    /// `line N (<type> record)`: a JSONL line.
    Line(usize, &'static str),
    /// `<type> record I`: an element of a whole-file JSON array.
    Index(&'static str, usize),
}

impl fmt::Display for RecordCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordCtx::Line(lineno, kind) => write!(f, "line {lineno} ({kind} record)"),
            RecordCtx::Index(kind, i) => write!(f, "{kind} record {i}"),
        }
    }
}

fn worker_from_json(json: &Json, ctx: RecordCtx) -> Result<Worker, FaircrowdError> {
    Ok(Worker {
        id: WorkerId::new(u32_field(json, "id", ctx)?),
        declared: declared_from_json(require(json, "declared", ctx)?, ctx)?,
        computed: computed_from_json(require(json, "computed", ctx)?, ctx)?,
        skills: skills_from_json(require(json, "skills", ctx)?, ctx)?,
    })
}

fn declared_from_json(json: &Json, ctx: RecordCtx) -> Result<DeclaredAttrs, FaircrowdError> {
    let members = json.as_obj().ok_or_else(|| {
        FaircrowdError::persist(format!("{ctx}: declared attributes should be an object"))
    })?;
    let mut attrs = DeclaredAttrs::new();
    for (key, value) in members {
        attrs.set(key, attr_value_from_json(value, ctx, key)?);
    }
    Ok(attrs)
}

fn attr_value_from_json(
    json: &Json,
    ctx: RecordCtx,
    key: &str,
) -> Result<AttrValue, FaircrowdError> {
    let members = json.as_obj().unwrap_or(&[]);
    match members {
        [(tag, v)] => match (tag.as_str(), v) {
            ("bool", v) => v.as_bool().map(AttrValue::Bool),
            ("int", v) => v.as_i64().map(AttrValue::Int),
            ("real", v) => v.as_f64().map(AttrValue::Real),
            ("text", v) => v.as_str().map(|s| AttrValue::Text(s.to_owned())),
            _ => None,
        }
        .ok_or_else(|| {
            FaircrowdError::persist(format!("{ctx}: attribute `{key}` has a malformed value"))
        }),
        _ => Err(FaircrowdError::persist(format!(
            "{ctx}: attribute `{key}` should be one `{{\"bool\"|\"int\"|\"real\"|\"text\": …}}` member"
        ))),
    }
}

fn computed_from_json(json: &Json, ctx: RecordCtx) -> Result<ComputedAttrs, FaircrowdError> {
    let mut extra = std::collections::BTreeMap::new();
    if let Some(members) = require(json, "extra", ctx)?.as_obj() {
        for (key, value) in members {
            let v = value.as_f64().ok_or_else(|| {
                FaircrowdError::persist(format!("{ctx}: extra attribute `{key}` is not a number"))
            })?;
            extra.insert(key.clone(), v);
        }
    } else {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: field `extra` should be an object"
        )));
    }
    Ok(ComputedAttrs {
        acceptance_ratio: f64_field(json, "acceptance_ratio", ctx)?,
        tasks_approved: u64_field(json, "tasks_approved", ctx)?,
        tasks_rejected: u64_field(json, "tasks_rejected", ctx)?,
        tasks_submitted: u64_field(json, "tasks_submitted", ctx)?,
        quality_estimate: f64_field(json, "quality_estimate", ctx)?,
        mean_approval_latency: duration_field(json, "mean_approval_latency", ctx)?,
        total_earnings: credits_field(json, "total_earnings", ctx)?,
        sessions: u64_field(json, "sessions", ctx)?,
        extra,
    })
}

fn skills_from_json(json: &Json, ctx: RecordCtx) -> Result<SkillVector, FaircrowdError> {
    let bits = json.as_str().ok_or_else(|| {
        FaircrowdError::persist(format!("{ctx}: skill vector should be a 0/1 string"))
    })?;
    let mut bools = Vec::with_capacity(bits.len());
    for c in bits.chars() {
        match c {
            '0' => bools.push(false),
            '1' => bools.push(true),
            other => {
                return Err(FaircrowdError::persist(format!(
                    "{ctx}: skill vector has invalid character `{other}`"
                )))
            }
        }
    }
    Ok(SkillVector::from_bools(bools))
}

fn task_from_json(json: &Json, ctx: RecordCtx) -> Result<Task, FaircrowdError> {
    Ok(Task {
        id: TaskId::new(u32_field(json, "id", ctx)?),
        requester: RequesterId::new(u32_field(json, "requester", ctx)?),
        campaign: CampaignId::new(u32_field(json, "campaign", ctx)?),
        skills: skills_from_json(require(json, "skills", ctx)?, ctx)?,
        reward: credits_field(json, "reward", ctx)?,
        kind: kind_from_json(require(json, "kind", ctx)?, ctx)?,
        assignments_wanted: u32_field(json, "assignments_wanted", ctx)?,
        est_duration: duration_field(json, "est_duration", ctx)?,
        conditions: conditions_from_json(require(json, "conditions", ctx)?, ctx)?,
    })
}

fn kind_from_json(json: &Json, ctx: RecordCtx) -> Result<TaskKind, FaircrowdError> {
    match str_field(json, "name", ctx)? {
        "labeling" => Ok(TaskKind::Labeling {
            classes: u8_field(json, "classes", ctx)?,
        }),
        "free-text" => Ok(TaskKind::FreeText),
        "ranking" => Ok(TaskKind::Ranking {
            items: u8_field(json, "items", ctx)?,
        }),
        "survey" => Ok(TaskKind::Survey),
        other => Err(FaircrowdError::persist(format!(
            "{ctx}: unknown task kind `{other}`"
        ))),
    }
}

fn conditions_from_json(json: &Json, ctx: RecordCtx) -> Result<TaskConditions, FaircrowdError> {
    if json.as_obj().is_none() {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: conditions should be an object"
        )));
    }
    let opt_str = |key: &str| -> Result<Option<String>, FaircrowdError> {
        match json.get(key) {
            None => Ok(None),
            Some(_) => Ok(Some(str_field(json, key, ctx)?.to_owned())),
        }
    };
    Ok(TaskConditions {
        stated_hourly_wage: match json.get("stated_hourly_wage") {
            None => None,
            Some(_) => Some(credits_field(json, "stated_hourly_wage", ctx)?),
        },
        stated_payment_delay: match json.get("stated_payment_delay") {
            None => None,
            Some(_) => Some(duration_field(json, "stated_payment_delay", ctx)?),
        },
        recruitment_criteria: opt_str("recruitment_criteria")?,
        rejection_criteria: opt_str("rejection_criteria")?,
        evaluation_scheme: opt_str("evaluation_scheme")?,
    })
}

fn requester_from_json(json: &Json, ctx: RecordCtx) -> Result<Requester, FaircrowdError> {
    Ok(Requester {
        id: RequesterId::new(u32_field(json, "id", ctx)?),
        name: str_field(json, "name", ctx)?.to_owned(),
        approved: u64_field(json, "approved", ctx)?,
        rejected: u64_field(json, "rejected", ctx)?,
        rejections_with_feedback: u64_field(json, "rejections_with_feedback", ctx)?,
        mean_decision_latency: duration_field(json, "mean_decision_latency", ctx)?,
        bonuses_promised: u64_field(json, "bonuses_promised", ctx)?,
        bonuses_paid: u64_field(json, "bonuses_paid", ctx)?,
    })
}

fn submission_from_json(json: &Json, ctx: RecordCtx) -> Result<Submission, FaircrowdError> {
    Ok(Submission {
        id: SubmissionId::new(u32_field(json, "id", ctx)?),
        task: TaskId::new(u32_field(json, "task", ctx)?),
        worker: WorkerId::new(u32_field(json, "worker", ctx)?),
        contribution: contribution_from_json(require(json, "contribution", ctx)?, ctx)?,
        started_at: SimTime::from_secs(u64_field(json, "started_at", ctx)?),
        submitted_at: SimTime::from_secs(u64_field(json, "submitted_at", ctx)?),
    })
}

fn contribution_from_json(json: &Json, ctx: RecordCtx) -> Result<Contribution, FaircrowdError> {
    let members = json.as_obj().unwrap_or(&[]);
    let [(tag, value)] = members else {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: contribution should be one `{{\"label\"|\"text\"|\"ranking\"|\"numeric\": …}}` member"
        )));
    };
    match (tag.as_str(), value) {
        ("label", v) => v
            .as_u64()
            .and_then(|l| u8::try_from(l).ok())
            .map(Contribution::Label),
        ("text", v) => v.as_str().map(|s| Contribution::Text(s.to_owned())),
        ("ranking", v) => v.as_arr().and_then(|items| {
            items
                .iter()
                .map(|i| i.as_u64().and_then(|i| u16::try_from(i).ok()))
                .collect::<Option<Vec<u16>>>()
                .map(Contribution::Ranking)
        }),
        ("numeric", v) => v.as_f64().map(Contribution::Numeric),
        _ => None,
    }
    .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: malformed `{tag}` contribution")))
}

fn event_from_json(json: &Json, ctx: RecordCtx) -> Result<Event, FaircrowdError> {
    let time = SimTime::from_secs(u64_field(json, "time", ctx)?);
    let seq = u64_field(json, "seq", ctx)?;
    let tag = str_field(json, "kind", ctx)?;
    let worker = |key: &str| Ok::<_, FaircrowdError>(WorkerId::new(u32_field(json, key, ctx)?));
    let task = || Ok::<_, FaircrowdError>(TaskId::new(u32_field(json, "task", ctx)?));
    let submission =
        || Ok::<_, FaircrowdError>(SubmissionId::new(u32_field(json, "submission", ctx)?));
    let requester =
        || Ok::<_, FaircrowdError>(RequesterId::new(u32_field(json, "requester", ctx)?));
    let kind = match tag {
        "task_posted" => EventKind::TaskPosted {
            task: task()?,
            requester: requester()?,
        },
        "task_visible" => EventKind::TaskVisible {
            task: task()?,
            worker: worker("worker")?,
        },
        "task_accepted" => EventKind::TaskAccepted {
            task: task()?,
            worker: worker("worker")?,
        },
        "work_started" => EventKind::WorkStarted {
            task: task()?,
            worker: worker("worker")?,
        },
        "submission_received" => EventKind::SubmissionReceived {
            submission: submission()?,
            task: task()?,
            worker: worker("worker")?,
        },
        "submission_approved" => EventKind::SubmissionApproved {
            submission: submission()?,
            task: task()?,
            worker: worker("worker")?,
        },
        "submission_rejected" => EventKind::SubmissionRejected {
            submission: submission()?,
            task: task()?,
            worker: worker("worker")?,
            feedback: match json.get("feedback") {
                None => None,
                Some(_) => Some(str_field(json, "feedback", ctx)?.to_owned()),
            },
        },
        "payment_issued" => EventKind::PaymentIssued {
            submission: submission()?,
            task: task()?,
            worker: worker("worker")?,
            amount: credits_field(json, "amount", ctx)?,
        },
        "bonus_promised" => EventKind::BonusPromised {
            worker: worker("worker")?,
            requester: requester()?,
            amount: credits_field(json, "amount", ctx)?,
        },
        "bonus_paid" => EventKind::BonusPaid {
            worker: worker("worker")?,
            requester: requester()?,
            amount: credits_field(json, "amount", ctx)?,
        },
        "bonus_reneged" => EventKind::BonusReneged {
            worker: worker("worker")?,
            requester: requester()?,
            amount: credits_field(json, "amount", ctx)?,
        },
        "task_canceled" => EventKind::TaskCanceled {
            task: task()?,
            reason: match str_field(json, "reason", ctx)? {
                "target_reached" => CancelReason::TargetReached,
                "budget_exhausted" => CancelReason::BudgetExhausted,
                "withdrawn" => CancelReason::Withdrawn,
                other => {
                    return Err(FaircrowdError::persist(format!(
                        "{ctx}: unknown cancel reason `{other}`"
                    )))
                }
            },
        },
        "work_interrupted" => EventKind::WorkInterrupted {
            task: task()?,
            worker: worker("worker")?,
            invested: duration_field(json, "invested", ctx)?,
            compensated: bool_field(json, "compensated", ctx)?,
        },
        "worker_flagged" => EventKind::WorkerFlagged {
            worker: worker("worker")?,
            score: f64_field(json, "score", ctx)?,
            detector: str_field(json, "detector", ctx)?.to_owned(),
        },
        "disclosure_shown" => EventKind::DisclosureShown {
            worker: worker("worker")?,
            item: {
                let name = str_field(json, "item", ctx)?;
                DisclosureItem::from_name(name).ok_or_else(|| {
                    FaircrowdError::persist(format!("{ctx}: unknown disclosure item `{name}`"))
                })?
            },
        },
        "session_started" => EventKind::SessionStarted {
            worker: worker("worker")?,
        },
        "session_ended" => EventKind::SessionEnded {
            worker: worker("worker")?,
        },
        "worker_quit" => EventKind::WorkerQuit {
            worker: worker("worker")?,
            reason: match str_field(json, "reason", ctx)? {
                "frustration" => QuitReason::Frustration,
                "natural_churn" => QuitReason::NaturalChurn,
                other => {
                    return Err(FaircrowdError::persist(format!(
                        "{ctx}: unknown quit reason `{other}`"
                    )))
                }
            },
        },
        other => {
            return Err(FaircrowdError::persist(format!(
                "{ctx}: unknown event kind `{other}`"
            )))
        }
    };
    Ok(Event { time, seq, kind })
}

fn disclosure_from_json(json: &Json) -> Result<DisclosureSet, FaircrowdError> {
    let grants = json.as_arr().ok_or_else(|| {
        FaircrowdError::persist("disclosure set should be an array of [item, audience] pairs")
    })?;
    let mut set = DisclosureSet::opaque();
    for (i, grant) in grants.iter().enumerate() {
        let pair = grant.as_arr().unwrap_or(&[]);
        let [item, audience] = pair else {
            return Err(FaircrowdError::persist(format!(
                "disclosure grant {i} should be an [item, audience] pair"
            )));
        };
        let item_name = item.as_str().unwrap_or("");
        let audience_name = audience.as_str().unwrap_or("");
        let item = DisclosureItem::from_name(item_name).ok_or_else(|| {
            FaircrowdError::persist(format!("disclosure grant {i}: unknown item `{item_name}`"))
        })?;
        let audience = Audience::from_name(audience_name).ok_or_else(|| {
            FaircrowdError::persist(format!(
                "disclosure grant {i}: unknown audience `{audience_name}`"
            ))
        })?;
        set.grant(item, audience);
    }
    Ok(set)
}

fn ground_truth_from_json(json: &Json) -> Result<GroundTruth, FaircrowdError> {
    let ctx = "ground truth";
    let mut gt = GroundTruth::default();
    for (i, w) in arr_field(json, "malicious_workers", ctx)?
        .iter()
        .enumerate()
    {
        let raw = w
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| {
                FaircrowdError::persist(format!("{ctx}: malicious worker {i} is not an id"))
            })?;
        gt.malicious_workers.insert(WorkerId::new(raw));
    }
    for (i, pair) in arr_field(json, "true_labels", ctx)?.iter().enumerate() {
        let items = pair.as_arr().unwrap_or(&[]);
        let [t, l] = items else {
            return Err(FaircrowdError::persist(format!(
                "{ctx}: true label {i} should be a [task, label] pair"
            )));
        };
        let task = t.as_u64().and_then(|v| u32::try_from(v).ok());
        let label = l.as_u64().and_then(|v| u8::try_from(v).ok());
        let (Some(task), Some(label)) = (task, label) else {
            return Err(FaircrowdError::persist(format!(
                "{ctx}: true label {i} has a malformed task id or label"
            )));
        };
        gt.true_labels.insert(TaskId::new(task), label);
    }
    Ok(gt)
}

// ---------------------------------------------------------------------
// Canonical record lines
// ---------------------------------------------------------------------

/// Decode a record line that is byte for byte what [`trace_to_jsonl`]
/// writes: members in the writer's order, no whitespace, strings with
/// no `\` escape and no control byte, nothing after the closing `}}`.
/// Any other line, malformed ones included, gives `None`, and
/// [`JsonlReader::feed_line`] decodes it through the tree parser, which
/// owns every error text. Numbers are cut by the tree parser's own
/// grammar and converted by the same `str::parse` its accessors use, so
/// a line decoded here equals its tree decode.
fn canonical_record(line: &str) -> Option<JsonlRecord> {
    let mut c = Cursor { line, pos: 0 };
    let record = if c.eat(r#"{"event":"#) {
        JsonlRecord::Event(c.event()?)
    } else if c.eat(r#"{"worker":"#) {
        JsonlRecord::Worker(c.worker()?)
    } else if c.eat(r#"{"task":"#) {
        JsonlRecord::Task(c.task()?)
    } else if c.eat(r#"{"requester":"#) {
        JsonlRecord::Requester(c.requester()?)
    } else if c.eat(r#"{"submission":"#) {
        JsonlRecord::Submission(c.submission()?)
    } else {
        return None;
    };
    (c.eat("}}") && c.pos == line.len()).then_some(record)
}

/// A byte cursor over one canonical record line. Every read returns
/// `None` at the first byte that departs from the writer's layout.
/// The record readers list struct fields in the writer's member order:
/// Rust evaluates a struct literal's fields in source order, so that
/// order is the byte layout they read.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    /// Step over `text` if it comes next.
    fn eat(&mut self, text: &str) -> bool {
        let hit = self.rest().starts_with(text.as_bytes());
        if hit {
            self.pos += text.len();
        }
        hit
    }

    /// Step over `text`, which must come next: punctuation, or the
    /// bytes that open a member up to its value (`{"id":`, `,"seq":`).
    fn lit(&mut self, text: &str) -> Option<&mut Self> {
        self.eat(text).then_some(self)
    }

    /// The optional member `key` (bare name) next: its value, read by
    /// `value`, or `None` inside when the member is absent. `first` is
    /// true until a member of this object has been read; after that a
    /// `,` must precede the next one.
    fn opt<T>(
        &mut self,
        first: &mut bool,
        key: &str,
        value: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Option<T>> {
        let start = self.pos;
        if (*first || self.eat(",")) && self.eat("\"") && self.eat(key) && self.eat("\":") {
            *first = false;
            return value(self).map(Some);
        }
        self.pos = start;
        Some(None)
    }

    /// An object of free-form keys, `{}` or `{m,m,…}`, each member read
    /// by `member`.
    fn members(&mut self, mut member: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.lit("{")?;
        if self.eat("}") {
            return Some(());
        }
        loop {
            member(self)?;
            if self.eat("}") {
                return Some(());
            }
            self.lit(",")?;
        }
    }

    /// A number token, parsed as `T`.
    fn number<T: std::str::FromStr>(&mut self) -> Option<T> {
        let len = crate::json::number_len(self.rest())?;
        let token = &self.line[self.pos..self.pos + len];
        self.pos += len;
        token.parse().ok()
    }

    /// An unsigned integer that fits `T` (read as `u64`, then narrowed,
    /// as the tree path's field accessors do).
    fn uint<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.number::<u64>()?).ok()
    }

    fn int(&mut self) -> Option<i64> {
        self.number()
    }

    /// A float: a number token, or a non-finite spelling of
    /// [`Json::float`].
    fn float(&mut self) -> Option<f64> {
        if !self.rest().starts_with(b"\"") {
            return self.number();
        }
        match self.string()? {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        }
    }

    /// A string without escapes or control bytes, borrowed from the
    /// line. (`"` and `\` never occur inside a multi-byte UTF-8
    /// character, so the byte scan cannot split one.)
    fn string(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let len = self
            .rest()
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if self.rest()[len] != b'"' {
            return None;
        }
        let text = &self.line[self.pos..self.pos + len];
        self.pos += len + 1;
        Some(text)
    }

    fn owned(&mut self) -> Option<String> {
        self.string().map(str::to_owned)
    }

    fn boolean(&mut self) -> Option<bool> {
        if self.eat("true") {
            Some(true)
        } else if self.eat("false") {
            Some(false)
        } else {
            None
        }
    }

    fn skills(&mut self) -> Option<SkillVector> {
        let bits = self.string()?;
        bits.bytes()
            .all(|b| b == b'0' || b == b'1')
            .then(|| SkillVector::from_bools(bits.bytes().map(|b| b == b'1')))
    }

    fn worker_id(&mut self) -> Option<WorkerId> {
        self.lit(r#","worker":"#)?.uint().map(WorkerId::new)
    }

    fn task_id(&mut self) -> Option<TaskId> {
        self.lit(r#","task":"#)?.uint().map(TaskId::new)
    }

    fn submission_id(&mut self) -> Option<SubmissionId> {
        self.lit(r#","submission":"#)?.uint().map(SubmissionId::new)
    }

    fn requester_id(&mut self) -> Option<RequesterId> {
        self.lit(r#","requester":"#)?.uint().map(RequesterId::new)
    }

    fn amount(&mut self) -> Option<Credits> {
        self.lit(r#","amount":"#)?
            .int()
            .map(Credits::from_millicents)
    }

    fn worker(&mut self) -> Option<Worker> {
        Some(Worker {
            id: WorkerId::new(self.lit(r#"{"id":"#)?.uint()?),
            declared: self.lit(r#","declared":"#)?.declared()?,
            computed: self.lit(r#","computed":"#)?.computed()?,
            skills: self.lit(r#","skills":"#)?.skills()?,
        })
    }

    fn declared(&mut self) -> Option<DeclaredAttrs> {
        let mut attrs = DeclaredAttrs::new();
        self.members(|c| {
            let key = c.string()?;
            let value = if c.eat(r#":{"bool":"#) {
                AttrValue::Bool(c.boolean()?)
            } else if c.eat(r#":{"int":"#) {
                AttrValue::Int(c.int()?)
            } else if c.eat(r#":{"real":"#) {
                AttrValue::Real(c.float()?)
            } else if c.eat(r#":{"text":"#) {
                AttrValue::Text(c.owned()?)
            } else {
                return None;
            };
            attrs.set(key, value);
            c.lit("}")?;
            Some(())
        })?;
        Some(attrs)
    }

    fn computed(&mut self) -> Option<ComputedAttrs> {
        let computed = ComputedAttrs {
            acceptance_ratio: self.lit(r#"{"acceptance_ratio":"#)?.float()?,
            tasks_approved: self.lit(r#","tasks_approved":"#)?.uint()?,
            tasks_rejected: self.lit(r#","tasks_rejected":"#)?.uint()?,
            tasks_submitted: self.lit(r#","tasks_submitted":"#)?.uint()?,
            quality_estimate: self.lit(r#","quality_estimate":"#)?.float()?,
            mean_approval_latency: SimDuration::from_secs(
                self.lit(r#","mean_approval_latency":"#)?.uint()?,
            ),
            total_earnings: Credits::from_millicents(self.lit(r#","total_earnings":"#)?.int()?),
            sessions: self.lit(r#","sessions":"#)?.uint()?,
            extra: {
                let mut extra = std::collections::BTreeMap::new();
                self.lit(r#","extra":"#)?.members(|c| {
                    let key = c.owned()?;
                    extra.insert(key, c.lit(":")?.float()?);
                    Some(())
                })?;
                extra
            },
        };
        self.lit("}")?;
        Some(computed)
    }

    fn task(&mut self) -> Option<Task> {
        Some(Task {
            id: TaskId::new(self.lit(r#"{"id":"#)?.uint()?),
            requester: self.requester_id()?,
            campaign: CampaignId::new(self.lit(r#","campaign":"#)?.uint()?),
            skills: self.lit(r#","skills":"#)?.skills()?,
            reward: Credits::from_millicents(self.lit(r#","reward":"#)?.int()?),
            kind: {
                let kind = match self.lit(r#","kind":{"name":"#)?.string()? {
                    "labeling" => TaskKind::Labeling {
                        classes: self.lit(r#","classes":"#)?.uint()?,
                    },
                    "free-text" => TaskKind::FreeText,
                    "ranking" => TaskKind::Ranking {
                        items: self.lit(r#","items":"#)?.uint()?,
                    },
                    "survey" => TaskKind::Survey,
                    _ => return None,
                };
                self.lit("}")?;
                kind
            },
            assignments_wanted: self.lit(r#","assignments_wanted":"#)?.uint()?,
            est_duration: SimDuration::from_secs(self.lit(r#","est_duration":"#)?.uint()?),
            conditions: self.lit(r#","conditions":{"#)?.conditions()?,
        })
    }

    /// The members of a task's conditions, each optional, then `}`.
    fn conditions(&mut self) -> Option<TaskConditions> {
        let first = &mut true;
        let conditions = TaskConditions {
            stated_hourly_wage: self.opt(first, "stated_hourly_wage", |c| {
                c.int().map(Credits::from_millicents)
            })?,
            stated_payment_delay: self.opt(first, "stated_payment_delay", |c| {
                c.uint().map(SimDuration::from_secs)
            })?,
            recruitment_criteria: self.opt(first, "recruitment_criteria", Self::owned)?,
            rejection_criteria: self.opt(first, "rejection_criteria", Self::owned)?,
            evaluation_scheme: self.opt(first, "evaluation_scheme", Self::owned)?,
        };
        self.lit("}")?;
        Some(conditions)
    }

    fn requester(&mut self) -> Option<Requester> {
        Some(Requester {
            id: RequesterId::new(self.lit(r#"{"id":"#)?.uint()?),
            name: self.lit(r#","name":"#)?.owned()?,
            approved: self.lit(r#","approved":"#)?.uint()?,
            rejected: self.lit(r#","rejected":"#)?.uint()?,
            rejections_with_feedback: self.lit(r#","rejections_with_feedback":"#)?.uint()?,
            mean_decision_latency: SimDuration::from_secs(
                self.lit(r#","mean_decision_latency":"#)?.uint()?,
            ),
            bonuses_promised: self.lit(r#","bonuses_promised":"#)?.uint()?,
            bonuses_paid: self.lit(r#","bonuses_paid":"#)?.uint()?,
        })
    }

    fn submission(&mut self) -> Option<Submission> {
        Some(Submission {
            id: SubmissionId::new(self.lit(r#"{"id":"#)?.uint()?),
            task: self.task_id()?,
            worker: self.worker_id()?,
            contribution: self.lit(r#","contribution":"#)?.contribution()?,
            started_at: SimTime::from_secs(self.lit(r#","started_at":"#)?.uint()?),
            submitted_at: SimTime::from_secs(self.lit(r#","submitted_at":"#)?.uint()?),
        })
    }

    fn contribution(&mut self) -> Option<Contribution> {
        let contribution = if self.eat(r#"{"label":"#) {
            Contribution::Label(self.uint()?)
        } else if self.eat(r#"{"text":"#) {
            Contribution::Text(self.owned()?)
        } else if self.eat(r#"{"ranking":["#) {
            let mut items = Vec::new();
            if !self.eat("]") {
                loop {
                    items.push(self.uint()?);
                    if self.eat("]") {
                        break;
                    }
                    self.lit(",")?;
                }
            }
            Contribution::Ranking(items)
        } else if self.eat(r#"{"numeric":"#) {
            Contribution::Numeric(self.float()?)
        } else {
            return None;
        };
        self.lit("}")?;
        Some(contribution)
    }

    fn event(&mut self) -> Option<Event> {
        let time = SimTime::from_secs(self.lit(r#"{"time":"#)?.uint()?);
        let seq = self.lit(r#","seq":"#)?.uint()?;
        let kind = match self.lit(r#","kind":"#)?.string()? {
            "task_posted" => EventKind::TaskPosted {
                task: self.task_id()?,
                requester: self.requester_id()?,
            },
            "task_visible" => EventKind::TaskVisible {
                task: self.task_id()?,
                worker: self.worker_id()?,
            },
            "task_accepted" => EventKind::TaskAccepted {
                task: self.task_id()?,
                worker: self.worker_id()?,
            },
            "work_started" => EventKind::WorkStarted {
                task: self.task_id()?,
                worker: self.worker_id()?,
            },
            "submission_received" => EventKind::SubmissionReceived {
                submission: self.submission_id()?,
                task: self.task_id()?,
                worker: self.worker_id()?,
            },
            "submission_approved" => EventKind::SubmissionApproved {
                submission: self.submission_id()?,
                task: self.task_id()?,
                worker: self.worker_id()?,
            },
            "submission_rejected" => EventKind::SubmissionRejected {
                submission: self.submission_id()?,
                task: self.task_id()?,
                worker: self.worker_id()?,
                feedback: self.opt(&mut false, "feedback", Self::owned)?,
            },
            "payment_issued" => EventKind::PaymentIssued {
                submission: self.submission_id()?,
                task: self.task_id()?,
                worker: self.worker_id()?,
                amount: self.amount()?,
            },
            "bonus_promised" => EventKind::BonusPromised {
                worker: self.worker_id()?,
                requester: self.requester_id()?,
                amount: self.amount()?,
            },
            "bonus_paid" => EventKind::BonusPaid {
                worker: self.worker_id()?,
                requester: self.requester_id()?,
                amount: self.amount()?,
            },
            "bonus_reneged" => EventKind::BonusReneged {
                worker: self.worker_id()?,
                requester: self.requester_id()?,
                amount: self.amount()?,
            },
            "task_canceled" => EventKind::TaskCanceled {
                task: self.task_id()?,
                reason: match self.lit(r#","reason":"#)?.string()? {
                    "target_reached" => CancelReason::TargetReached,
                    "budget_exhausted" => CancelReason::BudgetExhausted,
                    "withdrawn" => CancelReason::Withdrawn,
                    _ => return None,
                },
            },
            "work_interrupted" => EventKind::WorkInterrupted {
                task: self.task_id()?,
                worker: self.worker_id()?,
                invested: SimDuration::from_secs(self.lit(r#","invested":"#)?.uint()?),
                compensated: self.lit(r#","compensated":"#)?.boolean()?,
            },
            "worker_flagged" => EventKind::WorkerFlagged {
                worker: self.worker_id()?,
                score: self.lit(r#","score":"#)?.float()?,
                detector: self.lit(r#","detector":"#)?.owned()?,
            },
            "disclosure_shown" => EventKind::DisclosureShown {
                worker: self.worker_id()?,
                item: DisclosureItem::from_name(self.lit(r#","item":"#)?.string()?)?,
            },
            "session_started" => EventKind::SessionStarted {
                worker: self.worker_id()?,
            },
            "session_ended" => EventKind::SessionEnded {
                worker: self.worker_id()?,
            },
            "worker_quit" => EventKind::WorkerQuit {
                worker: self.worker_id()?,
                reason: match self.lit(r#","reason":"#)?.string()? {
                    "frustration" => QuitReason::Frustration,
                    "natural_churn" => QuitReason::NaturalChurn,
                    _ => return None,
                },
            },
            _ => return None,
        };
        Some(Event { time, seq, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Credits;
    use crate::task::TaskBuilder;
    use crate::time::SimDuration;

    /// A trace touching every encoder branch: all four contribution
    /// kinds, optional fields present and absent, every reason enum,
    /// computed extras, disclosures and ground truth.
    fn full_trace() -> Trace {
        let mut trace = Trace::default();
        let mut w0 = Worker::new(
            WorkerId::new(0),
            DeclaredAttrs::new()
                .with("country", AttrValue::Text("PH".into()))
                .with("adult", AttrValue::Bool(true))
                .with("age", AttrValue::Int(34))
                .with("hours", AttrValue::Real(12.5)),
            SkillVector::from_bools([true, false, true]),
        );
        w0.computed.tasks_approved = 3;
        w0.computed.acceptance_ratio = 0.75;
        w0.computed.total_earnings = Credits::from_millicents(1_234_567);
        w0.computed.extra.insert("hits_today".into(), 7.0);
        let w1 = Worker::new(
            WorkerId::new(1),
            DeclaredAttrs::new(),
            SkillVector::with_len(3),
        );
        trace.workers = vec![w0, w1];
        trace.requesters = vec![Requester::new(RequesterId::new(0), "acme")];
        trace.tasks = vec![
            TaskBuilder::new(
                TaskId::new(0),
                RequesterId::new(0),
                SkillVector::from_bools([true, false, false]),
                Credits::from_cents(10),
            )
            .kind(TaskKind::Labeling { classes: 3 })
            .conditions(TaskConditions::fully_disclosed(
                Credits::from_dollars(6),
                SimDuration::from_days(1),
            ))
            .build(),
            TaskBuilder::new(
                TaskId::new(1),
                RequesterId::new(0),
                SkillVector::with_len(3),
                Credits::from_cents(20),
            )
            .kind(TaskKind::Ranking { items: 5 })
            .build(),
        ];
        for (i, contribution) in [
            Contribution::Label(2),
            Contribution::Text("quick \"brown\" fox\nüber".into()),
            Contribution::Ranking(vec![2, 0, 1]),
            Contribution::Numeric(0.25),
        ]
        .into_iter()
        .enumerate()
        {
            trace.submissions.push(Submission {
                id: SubmissionId::new(i as u32),
                task: TaskId::new((i % 2) as u32),
                worker: WorkerId::new((i % 2) as u32),
                contribution,
                started_at: SimTime::from_secs(10 + i as u64),
                submitted_at: SimTime::from_secs(100 + i as u64),
            });
        }
        let kinds = vec![
            EventKind::TaskPosted {
                task: TaskId::new(0),
                requester: RequesterId::new(0),
            },
            EventKind::TaskVisible {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
            EventKind::TaskAccepted {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
            EventKind::SessionStarted {
                worker: WorkerId::new(0),
            },
            EventKind::WorkStarted {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
            EventKind::SubmissionReceived {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
            EventKind::SubmissionApproved {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
            EventKind::SubmissionRejected {
                submission: SubmissionId::new(1),
                task: TaskId::new(1),
                worker: WorkerId::new(1),
                feedback: Some("too slow".into()),
            },
            EventKind::SubmissionRejected {
                submission: SubmissionId::new(2),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                feedback: None,
            },
            EventKind::PaymentIssued {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                amount: Credits::from_millicents(10_500),
            },
            EventKind::BonusPromised {
                worker: WorkerId::new(0),
                requester: RequesterId::new(0),
                amount: Credits::from_cents(5),
            },
            EventKind::BonusPaid {
                worker: WorkerId::new(0),
                requester: RequesterId::new(0),
                amount: Credits::from_cents(5),
            },
            EventKind::BonusReneged {
                worker: WorkerId::new(1),
                requester: RequesterId::new(0),
                amount: Credits::from_cents(7),
            },
            EventKind::TaskCanceled {
                task: TaskId::new(1),
                reason: CancelReason::BudgetExhausted,
            },
            EventKind::WorkInterrupted {
                task: TaskId::new(1),
                worker: WorkerId::new(1),
                invested: SimDuration::from_mins(4),
                compensated: false,
            },
            EventKind::WorkerFlagged {
                worker: WorkerId::new(1),
                score: 0.875,
                detector: "spam".into(),
            },
            EventKind::DisclosureShown {
                worker: WorkerId::new(0),
                item: DisclosureItem::WorkerEarnings,
            },
            EventKind::SessionEnded {
                worker: WorkerId::new(0),
            },
            EventKind::WorkerQuit {
                worker: WorkerId::new(1),
                reason: QuitReason::NaturalChurn,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            trace.events.push(SimTime::from_secs(i as u64), kind);
        }
        trace.disclosure = DisclosureSet::opaque()
            .with(DisclosureItem::HourlyWage, Audience::Workers)
            .with(DisclosureItem::WorkerEarnings, Audience::Subject);
        trace
            .ground_truth
            .malicious_workers
            .insert(WorkerId::new(1));
        trace.ground_truth.true_labels.insert(TaskId::new(0), 2);
        trace.horizon = SimTime::from_secs(1000);
        trace
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let trace = full_trace();
        let json = trace_to_json(&trace);
        for text in [json.to_pretty(), json.to_compact()] {
            let back = trace_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, trace);
        }
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let back = trace_from_jsonl(&lines).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn jsonl_decodes_crlf_endings_byte_identically() {
        let trace = full_trace();
        let lf = trace_to_jsonl(&trace);
        let crlf = lf.replace('\n', "\r\n");
        // Whole-file decoder: the CRLF file yields the same trace, and
        // re-encoding it reproduces the original LF bytes exactly.
        let back = trace_from_jsonl(&crlf).unwrap();
        assert_eq!(back, trace);
        assert_eq!(trace_to_jsonl(&back), lf);
        // Streaming decoder fed `\r`-terminated lines (what a caller
        // splitting on `\n` alone sees): identical records, identical
        // header, and blank CRLF lines still count into positions.
        let mut plain = JsonlReader::new();
        let mut carried = JsonlReader::new();
        for line in lf.lines() {
            let with_cr = format!("{line}\r");
            assert_eq!(
                carried.feed_line(&with_cr).unwrap(),
                plain.feed_line(line).unwrap()
            );
        }
        assert_eq!(carried.header(), plain.header());
        assert_eq!(carried.lines_fed(), plain.lines_fed());
    }

    #[test]
    fn resumed_reader_reports_absolute_line_numbers() {
        let trace = full_trace();
        let lines: Vec<&str> = trace_to_jsonl(&trace).leak().lines().collect();
        let mut fresh = JsonlReader::new();
        for line in &lines[..3] {
            fresh.feed_line(line).unwrap();
        }
        let mut resumed = JsonlReader::resume(fresh.header().unwrap().clone(), 3);
        assert_eq!(resumed.lines_fed(), 3);
        assert_eq!(
            resumed.feed_line(lines[3]).unwrap(),
            fresh.feed_line(lines[3]).unwrap()
        );
        let err = resumed.feed_line("{oops").unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
    }

    #[test]
    fn encoding_is_deterministic() {
        let trace = full_trace();
        assert_eq!(
            trace_to_json(&trace).to_pretty(),
            trace_to_json(&trace).to_pretty()
        );
        // encode → decode → encode is byte-identical
        let text = trace_to_json(&trace).to_pretty();
        let back = trace_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(trace_to_json(&back).to_pretty(), text);
        let lines = trace_to_jsonl(&trace);
        assert_eq!(trace_to_jsonl(&trace_from_jsonl(&lines).unwrap()), lines);
    }

    #[test]
    fn wrong_schema_name_is_rejected() {
        let err = trace_from_json(&Json::parse(r#"{"schema":"other","version":1}"#).unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("faircrowd-trace"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut json = trace_to_json(&full_trace());
        if let Json::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "version" {
                    *v = Json::uint(99);
                }
            }
        }
        let err = trace_from_json(&json).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("version 99"), "{text}");
        assert!(text.contains("version 1"), "{text}");
    }

    #[test]
    fn missing_schema_field_is_rejected() {
        let err = trace_from_json(&Json::parse(r#"{"version":1}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn malformed_records_name_the_field() {
        let mut trace = full_trace();
        trace.workers.truncate(1);
        let mut json = trace_to_json(&trace);
        // Corrupt the worker's id into a string.
        if let Json::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "workers" {
                    if let Json::Arr(workers) = v {
                        if let Json::Obj(fields) = &mut workers[0] {
                            fields[0].1 = Json::str("zero");
                        }
                    }
                }
            }
        }
        let err = trace_from_json(&json).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("worker record 0"), "{text}");
        assert!(text.contains("`id`"), "{text}");
    }

    #[test]
    fn jsonl_record_errors_name_the_line_not_an_index() {
        // A malformed field inside a JSONL record must point at the
        // file line (like the parse errors do), not at a JSON-mode
        // array index the operator can't count to in the file.
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let mut broken: Vec<String> = lines.lines().map(str::to_owned).collect();
        // Line 2 is the first worker record; corrupt its id.
        assert!(broken[1].starts_with("{\"worker\""));
        broken[1] = broken[1].replacen("\"id\":0", "\"id\":\"zero\"", 1);
        let err = trace_from_jsonl(&broken.join("\n")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2 (worker record)"), "{text}");
        assert!(text.contains("`id`"), "{text}");
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let mut broken: Vec<&str> = lines.lines().collect();
        broken[3] = r#"{"martian": {}}"#;
        let err = trace_from_jsonl(&broken.join("\n")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 4"), "{text}");
        assert!(text.contains("martian"), "{text}");
    }

    #[test]
    fn streaming_reader_yields_records_in_file_order() {
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let mut reader = JsonlReader::new();
        let mut back = Trace::default();
        let mut events = Vec::new();
        for line in lines.lines() {
            match reader.feed_line(line).unwrap() {
                None => {}
                Some(JsonlRecord::Worker(w)) => back.workers.push(w),
                Some(JsonlRecord::Task(t)) => back.tasks.push(t),
                Some(JsonlRecord::Requester(r)) => back.requesters.push(r),
                Some(JsonlRecord::Submission(s)) => back.submissions.push(s),
                Some(JsonlRecord::Event(e)) => events.push(e),
            }
        }
        let header = reader.into_header().expect("header line was fed");
        back.horizon = header.horizon;
        back.disclosure = header.disclosure;
        back.ground_truth = header.ground_truth;
        back.events = EventLog::from_events(events);
        assert_eq!(back, trace, "streaming decode must equal the batch decode");
    }

    #[test]
    fn streaming_reader_counts_blank_lines_into_positions() {
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let mut reader = JsonlReader::new();
        reader.feed_line("").unwrap();
        reader.feed_line("   ").unwrap();
        let mut fed = 2;
        let mut broke = None;
        for line in lines.lines() {
            fed += 1;
            if fed == 5 {
                broke = Some(reader.feed_line("{ not json").unwrap_err());
                break;
            }
            reader.feed_line(line).unwrap();
        }
        let text = broke.expect("line 5 must error").to_string();
        assert!(text.contains("line 5"), "{text}");
        assert_eq!(reader.lines_fed(), 5);
    }

    #[test]
    fn streaming_reader_rejects_minified_whole_file_json() {
        // Same schema name/version, no `format` marker: reading it as a
        // JSONL header would silently drop every entity array on the
        // line and report an empty (clean!) market.
        let compact = trace_to_json(&full_trace()).to_compact();
        let err = trace_from_jsonl(&compact).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("`format` is missing"), "{text}");
        assert!(text.contains("trace_from_json"), "{text}");
        let mut reader = JsonlReader::new();
        assert!(reader.feed_line(&compact).is_err());
        assert!(reader.header().is_none());
    }

    #[test]
    fn streaming_reader_reports_sparse_seq_position_via_validate() {
        // A JSONL stream whose event seqs go sparse mid-stream decodes
        // record by record (the reader does not guess at repair), and
        // the log-level validation then names exactly which seq broke —
        // the contract `faircrowd watch` builds its line-tagged ingest
        // errors on.
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let mut broken: Vec<String> = lines.lines().map(str::to_owned).collect();
        let target = broken
            .iter()
            .position(|l| l.contains("\"seq\":3"))
            .expect("event with seq 3 exists");
        broken[target] = broken[target].replacen("\"seq\":3", "\"seq\":9", 1);
        let back = trace_from_jsonl(&broken.join("\n")).unwrap();
        let defect = back.events.as_slice();
        assert_eq!(defect[3].seq, 9, "the sparse seq survives decoding");
        let err = back.events.validate().unwrap_err();
        assert_eq!(
            err,
            crate::event::LogDefect::SparseSeq {
                index: 3,
                expected: 3,
                found: 9,
            }
        );
        assert!(err.to_string().contains("seq 9"), "{err}");
    }

    #[test]
    fn streaming_reader_reports_time_regression_position_via_validate() {
        let trace = full_trace();
        let lines = trace_to_jsonl(&trace);
        let mut broken: Vec<String> = lines.lines().map(str::to_owned).collect();
        let target = broken
            .iter()
            .position(|l| l.contains("\"time\":5,\"seq\":5"))
            .expect("event at t=5s exists");
        broken[target] = broken[target].replacen("\"time\":5", "\"time\":2", 1);
        let back = trace_from_jsonl(&broken.join("\n")).unwrap();
        let err = back.events.validate().unwrap_err();
        assert!(
            matches!(
                err,
                crate::event::LogDefect::TimeRegression {
                    index: 5,
                    seq: 5,
                    ..
                }
            ),
            "{err:?}"
        );
        let text = err.to_string();
        assert!(text.contains("seq 5"), "{text}");
        assert!(text.contains("regressing"), "{text}");
    }

    #[test]
    fn tampered_seq_numbers_survive_decoding_for_validate_to_catch() {
        // from_events must not silently repair sequence numbers: a log
        // whose seqs were tampered with decodes, then fails validate().
        let trace = full_trace();
        let mut json = trace_to_json(&trace);
        if let Json::Obj(members) = &mut json {
            for (k, v) in members.iter_mut() {
                if k == "events" {
                    if let Json::Arr(events) = v {
                        if let Json::Obj(fields) = &mut events[0] {
                            for (fk, fv) in fields.iter_mut() {
                                if fk == "seq" {
                                    *fv = Json::uint(42);
                                }
                            }
                        }
                    }
                }
            }
        }
        let back = trace_from_json(&json).unwrap();
        assert!(
            !back.validate().is_empty(),
            "tampered seq must fail validation"
        );
    }

    /// `full_trace` plus what it leaves out: the remaining reasons and
    /// task kinds, partial conditions, and the edges of every number
    /// and string type. Only its lines matter, not its validity.
    fn edge_trace() -> Trace {
        let mut trace = full_trace();
        let mut worker = Worker::new(
            WorkerId::new(u32::MAX),
            DeclaredAttrs::new()
                .with("bio", AttrValue::Text("say \"hi\"\t\u{1} — über 🎉".into()))
                .with("plain", AttrValue::Text("Ωmega".into()))
                .with("nan", AttrValue::Real(f64::NAN))
                .with("zero", AttrValue::Real(-0.0))
                .with("min", AttrValue::Int(i64::MIN))
                .with("off", AttrValue::Bool(false)),
            SkillVector::with_len(0),
        );
        worker.computed.acceptance_ratio = f64::INFINITY;
        worker.computed.quality_estimate = f64::NEG_INFINITY;
        worker.computed.tasks_submitted = u64::MAX;
        worker.computed.mean_approval_latency = SimDuration::from_secs(u64::MAX);
        worker.computed.total_earnings = Credits::from_millicents(i64::MIN);
        worker.computed.extra.insert("nan".into(), f64::NAN);
        worker.computed.extra.insert("tiny".into(), 1e-300);
        worker.computed.extra.insert("huge".into(), -1.5e300);
        trace.workers.push(worker);
        trace
            .requesters
            .push(Requester::new(RequesterId::new(u32::MAX), "Ωmega \\ corp"));
        let partial = TaskConditions {
            stated_payment_delay: Some(SimDuration::from_secs(u64::MAX)),
            rejection_criteria: Some("gold fails".into()),
            ..TaskConditions::default()
        };
        for (id, kind) in [
            TaskKind::FreeText,
            TaskKind::Survey,
            TaskKind::Labeling { classes: u8::MAX },
            TaskKind::Ranking { items: 0 },
        ]
        .into_iter()
        .enumerate()
        {
            trace.tasks.push(
                TaskBuilder::new(
                    TaskId::new(u32::MAX - id as u32),
                    RequesterId::new(u32::MAX),
                    SkillVector::from_bools([true; 9]),
                    Credits::from_millicents(-7),
                )
                .kind(kind)
                .conditions(partial.clone())
                .build(),
            );
        }
        for contribution in [
            Contribution::Label(u8::MAX),
            Contribution::Text(String::new()),
            Contribution::Text("tab\there ünï".into()),
            Contribution::Ranking(Vec::new()),
            Contribution::Ranking(vec![u16::MAX, 0]),
            Contribution::Numeric(f64::NAN),
            Contribution::Numeric(f64::NEG_INFINITY),
            Contribution::Numeric(-0.0),
        ] {
            trace.submissions.push(Submission {
                id: SubmissionId::new(u32::MAX),
                task: TaskId::new(u32::MAX),
                worker: WorkerId::new(u32::MAX),
                contribution,
                started_at: SimTime::from_secs(0),
                submitted_at: SimTime::from_secs(u64::MAX),
            });
        }
        let top = WorkerId::new(u32::MAX);
        let mut events = trace.events.as_slice().to_vec();
        for kind in [
            EventKind::TaskCanceled {
                task: TaskId::new(u32::MAX),
                reason: CancelReason::TargetReached,
            },
            EventKind::TaskCanceled {
                task: TaskId::new(0),
                reason: CancelReason::Withdrawn,
            },
            EventKind::WorkerQuit {
                worker: top,
                reason: QuitReason::Frustration,
            },
            EventKind::PaymentIssued {
                submission: SubmissionId::new(u32::MAX),
                task: TaskId::new(u32::MAX),
                worker: top,
                amount: Credits::from_millicents(i64::MIN),
            },
            EventKind::BonusPaid {
                worker: top,
                requester: RequesterId::new(u32::MAX),
                amount: Credits::from_millicents(-1),
            },
            EventKind::SubmissionRejected {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: top,
                feedback: Some("\"late\" \\ \u{7f} ✓".into()),
            },
            EventKind::SubmissionRejected {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: top,
                feedback: Some("Ωk".into()),
            },
            EventKind::WorkerFlagged {
                worker: top,
                score: f64::NAN,
                detector: "spam→bot".into(),
            },
            EventKind::WorkerFlagged {
                worker: top,
                score: f64::INFINITY,
                detector: String::new(),
            },
            EventKind::WorkerFlagged {
                worker: top,
                score: -2.5e-8,
                detector: "x".into(),
            },
            EventKind::WorkInterrupted {
                task: TaskId::new(0),
                worker: top,
                invested: SimDuration::from_secs(u64::MAX),
                compensated: true,
            },
        ] {
            events.push(Event {
                time: SimTime::from_secs(u64::MAX),
                seq: u64::MAX,
                kind,
            });
        }
        trace.events = EventLog::from_events(events);
        trace
    }

    /// Each variant of `value` with one object somewhere inside it
    /// re-membered: two neighbours swapped, one member dropped, or one
    /// member doubled.
    fn reshaped(value: &Json) -> Vec<Json> {
        let mut out = Vec::new();
        match value {
            Json::Obj(members) => {
                for i in 0..members.len() {
                    let mut dropped = members.clone();
                    dropped.remove(i);
                    out.push(Json::Obj(dropped));
                    let mut doubled = members.clone();
                    doubled.insert(i, members[i].clone());
                    out.push(Json::Obj(doubled));
                    if i + 1 < members.len() {
                        let mut swapped = members.clone();
                        swapped.swap(i, i + 1);
                        out.push(Json::Obj(swapped));
                    }
                    for inner in reshaped(&members[i].1) {
                        let mut changed = members.clone();
                        changed[i].1 = inner;
                        out.push(Json::Obj(changed));
                    }
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    for inner in reshaped(item) {
                        let mut changed = items.clone();
                        changed[i] = inner;
                        out.push(Json::Arr(changed));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// The ways the differential test bends a record line: member order
    /// and count, spacing, number spellings, escapes and trailers.
    fn mutants(line: &str) -> Vec<String> {
        let mut out: Vec<String> = reshaped(&Json::parse(line).unwrap())
            .iter()
            .map(Json::to_compact)
            .collect();
        let bytes = line.as_bytes();
        for i in (1..bytes.len()).filter(|&i| line.is_char_boundary(i)) {
            let (head, tail) = line.split_at(i);
            if matches!(bytes[i - 1], b':' | b',') {
                out.push(format!("{head} {tail}"));
            }
            if bytes[i - 1] == b'"' && bytes[i].is_ascii_alphabetic() {
                out.push(format!("{head}\\u{:04x}{}", bytes[i], &tail[1..]));
            }
            let Some(len) = crate::json::number_len(&bytes[i..])
                .filter(|_| matches!(bytes[i - 1], b':' | b',' | b'['))
            else {
                continue;
            };
            let (token, rest) = tail.split_at(len);
            let (sign, digits) = token.split_at(usize::from(token.starts_with('-')));
            for respelled in [
                format!("{sign}0{digits}"),
                "-0".to_owned(),
                format!("{token}9"),
                format!("{token}99999999999999999999"),
                format!("{token}.0"),
                format!("{token}e0"),
            ] {
                out.push(format!("{head}{respelled}{rest}"));
            }
        }
        for trailer in ["x", " ", "}", ",", "\r", "\r\r"] {
            out.push(format!("{line}{trailer}"));
        }
        out
    }

    #[test]
    fn canonical_lines_decode_exactly_as_the_tree_does() {
        let text = trace_to_jsonl(&edge_trace());
        let mut lines = text.lines();
        let mut reader = JsonlReader::new();
        assert_eq!(reader.feed_line(lines.next().unwrap()).unwrap(), None);
        let header = reader.into_header().unwrap();
        let (mut direct, mut checked) = (0, 0);
        for (i, line) in lines.enumerate() {
            // Line 1 is the header; this is line `i + 2`.
            let lineno = i + 2;
            // What `feed_line` gave before the canonical decoder existed.
            let reference = |line: &str| {
                let line = line.strip_suffix('\r').unwrap_or(line);
                let decoded = if line.trim().is_empty() {
                    Ok(None)
                } else {
                    record_from_tree(line, lineno).map(Some)
                };
                format!("{:?}", decoded.map_err(|e| e.to_string()))
            };
            let fed = |line: &str| {
                let decoded = JsonlReader::resume(header.clone(), lineno - 1).feed_line(line);
                format!("{:?}", decoded.map_err(|e| e.to_string()))
            };
            // The writer escapes only quotes, backslashes and control
            // characters; every other line it writes is canonical.
            if !line.contains('\\') {
                let record = canonical_record(line)
                    .unwrap_or_else(|| panic!("line {lineno} is canonical: {line}"));
                let ok: Result<_, String> = Ok(Some(record));
                assert_eq!(format!("{ok:?}"), reference(line), "line {lineno}");
                direct += 1;
            }
            for mutant in mutants(line) {
                assert_eq!(fed(&mutant), reference(&mutant), "line {lineno}: {mutant}");
                checked += 1;
            }
        }
        assert!(direct >= 45, "{direct} canonical lines");
        assert!(checked >= 4_000, "{checked} mutants");
    }
}
