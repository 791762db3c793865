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
//! Every record's layout — its members, their order and their value
//! spellings — is declared once, in the crate's private `schema`
//! module, which derives this module's encoder, its tree decoder and
//! its canonical-line cursor as well as the `.fcb` codec of
//! [`crate::trace_bin`]. This module assembles records into traces.
//!
//! Schema conventions: ids are raw `u32`s, money is `i64` **millicents**
//! ([`Credits`](crate::money::Credits)), instants and durations are
//! `u64` **seconds** ([`SimTime`]/[`SimDuration`](crate::time::SimDuration)),
//! skill vectors are `0`/`1` strings, and enum-like values use their
//! canonical names ([`EventKind::tag`](crate::event::EventKind::tag),
//! [`DisclosureItem::name`](crate::disclosure::DisclosureItem::name),
//! [`Audience::name`](crate::disclosure::Audience::name)). Floats print
//! in Rust's shortest round-trip form, so encode → decode → encode is
//! byte-identical — the invariant the replay tests pin.
//!
//! Decoding never panics: every malformed shape surfaces as a
//! [`FaircrowdError::Persist`] naming the record and field. Referential
//! integrity (dangling worker/task/submission ids) is *not* checked
//! here — that is [`Trace::ensure_valid`]'s job, which the file loader
//! in `faircrowd-core::persist` runs after decoding.

use crate::contribution::Submission;
use crate::disclosure::DisclosureSet;
use crate::error::FaircrowdError;
use crate::event::{Event, EventLog};
use crate::fields::{At, Field, Member, RecordCtx, Scan};
use crate::json::Json;
use crate::requester::Requester;
use crate::schema::{event_from_json, event_to_json, scan_event};
use crate::task::Task;
use crate::time::SimTime;
use crate::trace::{GroundTruth, Trace};
use crate::worker::Worker;

/// The schema identifier every trace file carries.
pub const SCHEMA_NAME: &str = "faircrowd-trace";

/// The schema version this build writes and reads.
pub(crate) const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encode a trace as one JSON object (the whole-file form).
pub fn trace_to_json(trace: &Trace) -> Json {
    fn arr<T>(items: &[T], to_json: impl Fn(&T) -> Json) -> Json {
        Json::Arr(items.iter().map(to_json).collect())
    }
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_NAME)),
        ("version".into(), Json::uint(SCHEMA_VERSION)),
        ("horizon".into(), trace.horizon.to_json()),
        ("workers".into(), arr(&trace.workers, Worker::to_json)),
        ("tasks".into(), arr(&trace.tasks, Task::to_json)),
        (
            "requesters".into(),
            arr(&trace.requesters, Requester::to_json),
        ),
        (
            "submissions".into(),
            arr(&trace.submissions, Submission::to_json),
        ),
        ("events".into(), arr(trace.events.as_slice(), event_to_json)),
        ("disclosure".into(), trace.disclosure.to_json()),
        ("ground_truth".into(), trace.ground_truth.to_json()),
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
        ("horizon".into(), trace.horizon.to_json()),
        ("disclosure".into(), trace.disclosure.to_json()),
        ("ground_truth".into(), trace.ground_truth.to_json()),
    ]);
    let mut out = header.to_compact();
    out.push('\n');
    let mut record = |tag: &str, value: Json| {
        out.push_str(&Json::Obj(vec![(tag.to_owned(), value)]).to_compact());
        out.push('\n');
    };
    for w in &trace.workers {
        record("worker", w.to_json());
    }
    for t in &trace.tasks {
        record("task", t.to_json());
    }
    for r in &trace.requesters {
        record("requester", r.to_json());
    }
    for s in &trace.submissions {
        record("submission", s.to_json());
    }
    for e in &trace.events {
        record("event", event_to_json(e));
    }
    out
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
    fn records<T>(
        json: &Json,
        key: &str,
        kind: &'static str,
        decode: impl Fn(&Json, RecordCtx) -> Result<T, FaircrowdError>,
    ) -> Result<Vec<T>, FaircrowdError> {
        let at = At {
            ctx: RecordCtx::Section("trace"),
            key,
        };
        let items = at.member(json)?;
        let items = items.as_arr().ok_or_else(|| at.shape("an array", items))?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| decode(v, RecordCtx::Index(kind, i)))
            .collect()
    }
    let JsonlHeader {
        horizon,
        disclosure,
        ground_truth,
    } = decode_record(json, RecordCtx::Section("trace"))?;
    Ok(Trace {
        horizon,
        disclosure,
        ground_truth,
        workers: records(json, "workers", "worker", decode_record)?,
        tasks: records(json, "tasks", "task", decode_record)?,
        requesters: records(json, "requesters", "requester", decode_record)?,
        submissions: records(json, "submissions", "submission", decode_record)?,
        events: EventLog::from_events(records(json, "events", "event", event_from_json)?),
    })
}

/// Decode one record value; `ctx` names it in errors.
fn decode_record<T: Field>(json: &Json, ctx: RecordCtx) -> Result<T, FaircrowdError> {
    let key = match ctx {
        RecordCtx::Line(_, kind) | RecordCtx::Index(kind, _) | RecordCtx::Section(kind) => kind,
    };
    T::from_json(json, At { ctx, key })
}

/// The scalar fields a JSONL trace stream declares up front, decoded
/// from its header line (a whole-file trace carries the same members).
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
            self.header = Some(decode_record(&header, RecordCtx::Section("header"))?);
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
    let ctx = |kind| RecordCtx::Line(lineno, kind);
    Ok(match tag.as_str() {
        "worker" => JsonlRecord::Worker(decode_record(value, ctx("worker"))?),
        "task" => JsonlRecord::Task(decode_record(value, ctx("task"))?),
        "requester" => JsonlRecord::Requester(decode_record(value, ctx("requester"))?),
        "submission" => JsonlRecord::Submission(decode_record(value, ctx("submission"))?),
        "event" => JsonlRecord::Event(event_from_json(value, ctx("event"))?),
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
    let at = At {
        ctx: RecordCtx::Section("trace"),
        key: "version",
    };
    let version = u64::member_from_json(json, at)?;
    if version != SCHEMA_VERSION {
        return Err(FaircrowdError::persist(format!(
            "unsupported schema version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Canonical record lines
// ---------------------------------------------------------------------

/// Decode a record line that is byte for byte what [`trace_to_jsonl`]
/// writes: members in the writer's order, no whitespace, strings with
/// no `\` escape and no control byte, nothing after the closing `}}`.
/// Any other line, malformed ones included, gives `None`, and
/// [`JsonlReader::feed_line`] decodes it through the tree parser, which
/// owns every error text.
fn canonical_record(line: &str) -> Option<JsonlRecord> {
    let mut s = Scan::new(line);
    let record = if s.eat(r#"{"event":"#) {
        JsonlRecord::Event(scan_event(&mut s)?)
    } else if s.eat(r#"{"worker":"#) {
        JsonlRecord::Worker(Worker::scan(&mut s)?)
    } else if s.eat(r#"{"task":"#) {
        JsonlRecord::Task(Task::scan(&mut s)?)
    } else if s.eat(r#"{"requester":"#) {
        JsonlRecord::Requester(Requester::scan(&mut s)?)
    } else if s.eat(r#"{"submission":"#) {
        JsonlRecord::Submission(Submission::scan(&mut s)?)
    } else {
        return None;
    };
    (s.eat("}") && s.at_end()).then_some(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrValue, DeclaredAttrs};
    use crate::contribution::Contribution;
    use crate::disclosure::{Audience, DisclosureItem};
    use crate::event::{CancelReason, EventKind, QuitReason};
    use crate::ids::{RequesterId, SubmissionId, TaskId, WorkerId};
    use crate::money::Credits;
    use crate::skills::SkillVector;
    use crate::task::{TaskBuilder, TaskConditions, TaskKind};
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
                feedback: Some(Box::new("too slow".into())),
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
                detector: Box::new("spam".into()),
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
                feedback: Some(Box::new("\"late\" \\ \u{7f} ✓".into())),
            },
            EventKind::SubmissionRejected {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: top,
                feedback: Some(Box::new("Ωk".into())),
            },
            EventKind::WorkerFlagged {
                worker: top,
                score: f64::NAN,
                detector: Box::new("spam→bot".into()),
            },
            EventKind::WorkerFlagged {
                worker: top,
                score: f64::INFINITY,
                detector: Box::default(),
            },
            EventKind::WorkerFlagged {
                worker: top,
                score: -2.5e-8,
                detector: Box::new("x".into()),
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

    /// FNV-1a 64 of `edge_trace` in each format: every event kind and
    /// every optional field, so a drifted pin is a changed codec.
    #[test]
    fn edge_trace_keeps_its_bytes_in_every_format() {
        use crate::codec::fnv1a64;
        let trace = edge_trace();
        let computed = [
            fnv1a64(trace_to_json(&trace).to_pretty().as_bytes()),
            fnv1a64(trace_to_jsonl(&trace).as_bytes()),
            fnv1a64(&crate::trace_bin::trace_to_bytes(&trace)),
        ];
        assert_eq!(
            computed,
            [
                0x70b6_5cf1_389f_b2db,
                0x5f45_c2e2_d862_9bf4,
                0xec18_e464_1d5f_3d76,
            ],
            "json, jsonl, fcb (computed {computed:#018x?})"
        );
    }
}
