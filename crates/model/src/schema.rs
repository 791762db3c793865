//! The trace schema, declared once.
//!
//! Each record type's layout — its fields, in wire order — is one table
//! in the first section below, written with the field tables of
//! [`crate::fields`], and every trace codec is derived from it: the JSON
//! encoder and tree decoder and the canonical-line cursor of
//! [`crate::trace_io`], and the `.fcb` encoder and decoder of
//! [`crate::trace_bin`]. The second section spells the value types the
//! trace records hold. An enum with fields is its variant's name plus
//! the variant's fields in JSON, and a one-byte tag plus those fields in
//! `.fcb` (an event's tag sits in the trace's kind column instead).
//!
//! The event index a checkpoint carries ([`EventIndex`], with its
//! [`Interruption`] rows) and a trace nested in another record (a
//! checkpoint's event-less world) are declared here too, beside the
//! types they spell.
//!
//! Every codec function here is `#[inline]`, so that `trace_io` and
//! `trace_bin` compile their own copies and a record's field reads
//! inline into their loops, as the hand-written codecs' did in their
//! own module. Without it, `.fcb` event decode ran 40% slower in a
//! same-process comparison on a 2-vCPU host.

use crate::arena::{DenseIdMap, IdSet};
use crate::attributes::{AttrValue, ComputedAttrs, DeclaredAttrs};
use crate::codec::{put_str, put_u64, Cursor, Named};
use crate::contribution::{Contribution, Submission};
use crate::disclosure::{Audience, DisclosureItem, DisclosureSet};
use crate::error::FaircrowdError;
use crate::event::{CancelReason, Event, EventKind, QuitReason};
use crate::fields::{At, Field, Member, RecordCtx, Scan, Seq};
use crate::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};
use crate::json::Json;
use crate::money::Credits;
use crate::requester::Requester;
use crate::skills::SkillVector;
use crate::task::{Task, TaskConditions, TaskKind};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventIndex, GroundTruth, Interruption, Trace};
use crate::trace_io::JsonlHeader;
use crate::worker::Worker;
use crate::{named_fields, record, variants};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// The declarations
// ---------------------------------------------------------------------

record!(Worker {
    id: WorkerId,
    declared: DeclaredAttrs,
    computed: ComputedAttrs,
    skills: SkillVector,
});

record!(ComputedAttrs {
    acceptance_ratio: f64,
    tasks_approved: u64,
    tasks_rejected: u64,
    tasks_submitted: u64,
    quality_estimate: f64,
    mean_approval_latency: SimDuration,
    total_earnings: Credits,
    sessions: u64,
    extra: BTreeMap<String, f64>,
});

record!(Task {
    id: TaskId,
    requester: RequesterId,
    campaign: CampaignId,
    skills: SkillVector,
    reward: Credits,
    kind: TaskKind,
    assignments_wanted: u32,
    est_duration: SimDuration,
    conditions: TaskConditions,
});

record!(TaskConditions {
    stated_hourly_wage: Option<Credits>,
    stated_payment_delay: Option<SimDuration>,
    recruitment_criteria: Option<String>,
    rejection_criteria: Option<String>,
    evaluation_scheme: Option<String>,
});

record!(Requester {
    id: RequesterId,
    name: String,
    approved: u64,
    rejected: u64,
    rejections_with_feedback: u64,
    mean_decision_latency: SimDuration,
    bonuses_promised: u64,
    bonuses_paid: u64,
});

record!(Submission {
    id: SubmissionId,
    task: TaskId,
    worker: WorkerId,
    contribution: Contribution,
    started_at: SimTime,
    submitted_at: SimTime,
});

record!(GroundTruth {
    malicious_workers: BTreeSet<WorkerId>,
    true_labels: BTreeMap<TaskId, u8>,
});

record!(JsonlHeader {
    horizon: SimTime,
    disclosure: DisclosureSet,
    ground_truth: GroundTruth,
});

record!(EventIndex {
    visibility: DenseIdMap<WorkerId, IdSet<TaskId>>,
    audience: DenseIdMap<TaskId, IdSet<WorkerId>>,
    payments: DenseIdMap<SubmissionId, Credits>,
    earnings: DenseIdMap<WorkerId, Credits>,
    flagged: IdSet<WorkerId>,
    session_workers: IdSet<WorkerId>,
    informed_workers: IdSet<WorkerId>,
    work_started: usize,
    interruptions: Vec<Interruption>,
    quits: Vec<(WorkerId, QuitReason, SimTime)>,
});

record!(Interruption {
    task: TaskId,
    worker: WorkerId,
    invested: SimDuration,
    compensated: bool,
});

variants!(TaskKind, "task kind", pub(crate) fn name {
    0 Labeling "labeling" { classes: u8 },
    1 FreeText "free-text" {},
    2 Ranking "ranking" { items: u8 },
    3 Survey "survey" {},
});

variants!(EventKind, "event kind", pub fn tag {
    0 TaskPosted "task_posted" { task: TaskId, requester: RequesterId },
    1 TaskVisible "task_visible" { task: TaskId, worker: WorkerId },
    2 TaskAccepted "task_accepted" { task: TaskId, worker: WorkerId },
    3 WorkStarted "work_started" { task: TaskId, worker: WorkerId },
    4 SubmissionReceived "submission_received" {
        submission: SubmissionId, task: TaskId, worker: WorkerId,
    },
    5 SubmissionApproved "submission_approved" {
        submission: SubmissionId, task: TaskId, worker: WorkerId,
    },
    6 SubmissionRejected "submission_rejected" {
        submission: SubmissionId, task: TaskId, worker: WorkerId, feedback: Option<Box<String>>,
    },
    7 PaymentIssued "payment_issued" {
        submission: SubmissionId, task: TaskId, worker: WorkerId, amount: Credits,
    },
    8 BonusPromised "bonus_promised" { worker: WorkerId, requester: RequesterId, amount: Credits },
    9 BonusPaid "bonus_paid" { worker: WorkerId, requester: RequesterId, amount: Credits },
    10 BonusReneged "bonus_reneged" { worker: WorkerId, requester: RequesterId, amount: Credits },
    11 TaskCanceled "task_canceled" { task: TaskId, reason: CancelReason },
    12 WorkInterrupted "work_interrupted" {
        task: TaskId, worker: WorkerId, invested: SimDuration, compensated: bool,
    },
    13 WorkerFlagged "worker_flagged" { worker: WorkerId, score: f64, detector: Box<String> },
    14 DisclosureShown "disclosure_shown" { worker: WorkerId, item: DisclosureItem },
    15 SessionStarted "session_started" { worker: WorkerId },
    16 SessionEnded "session_ended" { worker: WorkerId },
    17 WorkerQuit "worker_quit" { worker: WorkerId, reason: QuitReason },
});

one_of!(AttrValue, "attribute" {
    0 Bool "bool" (bool),
    1 Int "int" (i64),
    2 Real "real" (f64),
    3 Text "text" (String),
});

one_of!(Contribution, "contribution" {
    0 Label "label" (u8),
    1 Text "text" (String),
    2 Ranking "ranking" (Vec<u16>),
    3 Numeric "numeric" (f64),
});

names!(CancelReason, "cancel reason" {
    TargetReached "target_reached",
    BudgetExhausted "budget_exhausted",
    Withdrawn "withdrawn",
});

names!(QuitReason, "quit reason" {
    Frustration "frustration",
    NaturalChurn "natural_churn",
});

impl Named for DisclosureItem {
    const ALL: &'static [Self] = &DisclosureItem::ALL;
    const WHAT: &'static str = "disclosure item";
    #[inline]
    fn name(self) -> &'static str {
        DisclosureItem::name(self)
    }
    #[inline]
    fn from_name(name: &str) -> Option<Self> {
        DisclosureItem::from_name(name)
    }
}

impl Named for Audience {
    const ALL: &'static [Self] = &Audience::ALL;
    const WHAT: &'static str = "audience";
    #[inline]
    fn name(self) -> &'static str {
        Audience::name(self)
    }
}

/// A JSON event: `time`, `seq`, the kind's name under `kind`, then the
/// kind's fields. (In `.fcb` the three lead fields are columns.)
#[inline]
pub(crate) fn event_to_json(e: &Event) -> Json {
    let mut members = Vec::with_capacity(7);
    e.time.put_member("time", &mut members);
    e.seq.put_member("seq", &mut members);
    members.push(("kind".to_owned(), Json::str(e.kind.tag())));
    e.kind.put_members(&mut members);
    Json::Obj(members)
}

/// The tree decode of [`event_to_json`].
#[inline]
pub(crate) fn event_from_json(json: &Json, ctx: RecordCtx) -> Result<Event, FaircrowdError> {
    let at = |key| At { ctx, key };
    Ok(Event {
        time: SimTime::member_from_json(json, at("time"))?,
        seq: u64::member_from_json(json, at("seq"))?,
        kind: EventKind::members_from_json(at("kind").str(json)?, json, ctx)?,
    })
}

/// The canonical-line decode of [`event_to_json`].
#[inline]
pub(crate) fn scan_event(s: &mut Scan<'_>) -> Option<Event> {
    let first = &mut true;
    let event = Event {
        time: SimTime::scan_member(s, r#","time":"#, first)?,
        seq: u64::scan_member(s, r#","seq":"#, first)?,
        kind: EventKind::scan_members(s.lit(r#","kind":"#)?.string()?, s)?,
    };
    s.lit("}")?;
    Some(event)
}

// ---------------------------------------------------------------------
// Value spellings
// ---------------------------------------------------------------------

/// Types spelled as a wrapped primitive: money as `i64` millicents,
/// instants and durations as `u64` seconds, ids as their raw `u32`.
macro_rules! via {
    ($($ty:ty => $inner:ty: $to:path, $from:path;)+) => {$(
        impl Field for $ty {
            #[inline]
            fn to_json(&self) -> Json {
                $to(*self).to_json()
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                <$inner>::from_json(json, at).map($from)
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                <$inner>::scan(s).map($from)
            }
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $to(*self).put(out);
            }
            #[inline]
            fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
                <$inner>::get(cur, what).map($from)
            }
        }
    )+};
}

via! {
    Credits => i64: Credits::millicents, Credits::from_millicents;
    SimTime => u64: SimTime::as_secs, SimTime::from_secs;
    SimDuration => u64: SimDuration::as_secs, SimDuration::from_secs;
    WorkerId => u32: WorkerId::raw, WorkerId::new;
    TaskId => u32: TaskId::raw, TaskId::new;
    SubmissionId => u32: SubmissionId::raw, SubmissionId::new;
    RequesterId => u32: RequesterId::raw, RequesterId::new;
    CampaignId => u32: CampaignId::raw, CampaignId::new;
}

/// A `0`/`1` string in JSON; in `.fcb` a varint length, then the bits
/// packed eight to a byte, least significant first.
impl Field for SkillVector {
    #[inline]
    fn to_json(&self) -> Json {
        let bit = |i: usize| {
            if self.get(SkillId::new(i as u32)) {
                '1'
            } else {
                '0'
            }
        };
        Json::Str((0..self.len()).map(bit).collect())
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let bits = json
            .as_str()
            .ok_or_else(|| at.shape("a 0/1 string", json))?;
        if let Some(other) = bits.chars().find(|c| !matches!(c, '0' | '1')) {
            return Err(at.err(format_args!("has invalid character `{other}`")));
        }
        Ok(SkillVector::from_bools(bits.bytes().map(|b| b == b'1')))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        let bits = s.string()?;
        bits.bytes()
            .all(|b| b == b'0' || b == b'1')
            .then(|| SkillVector::from_bools(bits.bytes().map(|b| b == b'1')))
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let n = self.len();
        put_u64(out, n as u64);
        let mut byte = 0u8;
        for i in 0..n {
            if self.get(SkillId::new(i as u32)) {
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
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let n = cur.count(what)?;
        let packed = cur.take(n.div_ceil(8), what)?;
        Ok(SkillVector::from_bools(
            (0..n).map(|i| packed[i / 8] >> (i % 8) & 1 == 1),
        ))
    }
}

/// The ids in ascending order, each in full (not gap-coded).
impl Seq for BTreeSet<WorkerId> {
    type Item = WorkerId;
    #[inline]
    fn each(&self, f: impl FnMut(&WorkerId)) {
        self.iter().for_each(f);
    }
    #[inline]
    fn push(&mut self, item: WorkerId) {
        self.insert(item);
    }
}

impl Seq for BTreeMap<TaskId, u8> {
    type Item = (TaskId, u8);
    #[inline]
    fn each(&self, mut f: impl FnMut(&(TaskId, u8))) {
        self.iter().for_each(|(&task, &label)| f(&(task, label)));
    }
    #[inline]
    fn push(&mut self, (task, label): (TaskId, u8)) {
        self.insert(task, label);
    }
}

/// The grants, as `[item, audience]` pairs.
impl Seq for DisclosureSet {
    type Item = (DisclosureItem, Audience);
    #[inline]
    fn each(&self, mut f: impl FnMut(&(DisclosureItem, Audience))) {
        self.iter().for_each(|grant| f(&grant));
    }
    #[inline]
    fn push(&mut self, (item, audience): (DisclosureItem, Audience)) {
        self.grant(item, audience);
    }
}

/// A trace nested in a record (a checkpoint's event-less world): its
/// JSON document; in `.fcb` its bytes behind a varint length. A decode
/// error inside the blob is reported at the blob's first byte.
impl Field for Trace {
    fn to_json(&self) -> Json {
        crate::trace_io::trace_to_json(self)
    }
    fn from_json(json: &Json, _at: At<'_>) -> Result<Self, FaircrowdError> {
        crate::trace_io::trace_from_json(json)
    }
    fn put(&self, out: &mut Vec<u8>) {
        let bytes = crate::trace_bin::trace_to_bytes(self);
        put_u64(out, bytes.len() as u64);
        out.extend_from_slice(&bytes);
    }
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let len = cur.count(what)?;
        let at = cur.pos();
        let blob = cur.take(len, what)?;
        crate::trace_bin::trace_from_bytes(blob).map_err(|e| match e {
            FaircrowdError::Persist { message, .. } => FaircrowdError::persist(format!(
                "{}: {what} blob at byte {at}: {message}",
                cur.label()
            )),
            other => other,
        })
    }
}

/// A map with free-form string keys: a JSON object; in `.fcb` a varint
/// count, then each key and value.
trait StrMap: Default {
    type Value: Field;
    fn entries(&self) -> impl Iterator<Item = (&str, &Self::Value)>;
    fn insert(&mut self, key: &str, value: Self::Value);
}

impl StrMap for DeclaredAttrs {
    type Value = AttrValue;
    #[inline]
    fn entries(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.iter()
    }
    #[inline]
    fn insert(&mut self, key: &str, value: AttrValue) {
        self.set(key, value);
    }
}

impl StrMap for BTreeMap<String, f64> {
    type Value = f64;
    #[inline]
    fn entries(&self) -> impl Iterator<Item = (&str, &f64)> {
        self.iter().map(|(key, value)| (key.as_str(), value))
    }
    #[inline]
    fn insert(&mut self, key: &str, value: f64) {
        self.insert(key.to_owned(), value);
    }
}

macro_rules! str_map_fields {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            #[inline]
            fn to_json(&self) -> Json {
                Json::Obj(
                    self.entries()
                        .map(|(key, value)| (key.to_owned(), value.to_json()))
                        .collect(),
                )
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                let mut map = Self::default();
                for (key, value) in json.as_obj().ok_or_else(|| at.shape("an object", json))? {
                    let at = At { ctx: at.ctx, key };
                    StrMap::insert(&mut map, key, Field::from_json(value, at)?);
                }
                Ok(map)
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                let mut map = Self::default();
                s.lit("{")?;
                if s.eat("}") {
                    return Some(map);
                }
                loop {
                    let key = s.string()?;
                    StrMap::insert(&mut map, key, Field::scan(s.lit(":")?)?);
                    if s.eat("}") {
                        return Some(map);
                    }
                    s.lit(",")?;
                }
            }
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                put_u64(out, self.entries().count() as u64);
                for (key, value) in self.entries() {
                    put_str(out, key);
                    value.put(out);
                }
            }
            #[inline]
            fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
                let mut map = Self::default();
                for _ in 0..cur.count(what)? {
                    let key = cur.string(what)?;
                    StrMap::insert(&mut map, &key, Field::get(cur, what)?);
                }
                Ok(map)
            }
        }
    )+};
}

str_map_fields!(DeclaredAttrs, BTreeMap<String, f64>);

named_fields!(CancelReason, QuitReason, DisclosureItem, Audience);

/// A task kind: `{"name": …, <fields>}` in JSON; its tag, then its
/// fields, in `.fcb`.
impl Field for TaskKind {
    #[inline]
    fn to_json(&self) -> Json {
        let mut members = vec![("name".to_owned(), Json::str(self.name()))];
        self.put_members(&mut members);
        Json::Obj(members)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let name = At { key: "name", ..at }.str(json)?;
        TaskKind::members_from_json(name, json, at.ctx)
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        let kind = TaskKind::scan_members(s.lit(r#"{"name":"#)?.string()?, s)?;
        s.lit("}")?;
        Some(kind)
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.wire_tag());
        self.put_payload(out);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, _what: &str) -> Result<Self, FaircrowdError> {
        // Checked here, not by `get_payload`, so an unknown tag is
        // reported at its own offset. The kinds are tagged 0–3.
        let tag = cur.u8tag("task kind", 4)?;
        TaskKind::get_payload(tag, cur)
    }
}

/// An enum of one-value variants: `{"<name>": value}` in JSON; its tag,
/// then the value, in `.fcb`.
macro_rules! one_of {
    ($ty:ident, $what:literal { $($tag:literal $v:ident $name:literal ($t:ty)),+ $(,)? }) => {
        impl Field for $ty {
            #[inline]
            fn to_json(&self) -> Json {
                let (name, value) = match self {
                    $($ty::$v(value) => ($name, value.to_json()),)+
                };
                Json::Obj(vec![(name.to_owned(), value)])
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                if let Some([(name, value)]) = json.as_obj() {
                    let inner = At { ctx: at.ctx, key: name };
                    match name.as_str() {
                        $($name => return <$t>::from_json(value, inner).map($ty::$v),)+
                        _ => {}
                    }
                }
                let names: Vec<String> = [$($name),+].iter().map(|n| format!("\"{n}\"")).collect();
                Err(at.err(format_args!("should be one `{{{}: …}}` member", names.join("|"))))
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                let value = $(if s.eat(concat!("{\"", $name, "\":")) {
                    $ty::$v(<$t>::scan(s)?)
                } else)+ {
                    return None;
                };
                s.lit("}")?;
                Some(value)
            }
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v(value) => {
                        out.push($tag);
                        value.put(out);
                    })+
                }
            }
            #[inline]
            fn get(cur: &mut Cursor<'_>, _what: &str) -> Result<Self, FaircrowdError> {
                let tag = cur.u8tag($what, [$($tag),+].len() as u8)?;
                Ok(match tag {
                    $($tag => $ty::$v(<$t>::get(cur, $name)?),)+
                    _ => return Err(cur.err(format_args!("unknown {} tag {tag}", $what))),
                })
            }
        }
    };
}
use one_of;

/// A fieldless enum whose values are spelled by name ([`Named`]).
macro_rules! names {
    ($ty:ident, $what:literal { $($v:ident $name:literal),+ $(,)? }) => {
        impl Named for $ty {
            const ALL: &'static [Self] = &[$($ty::$v),+];
            const WHAT: &'static str = $what;
            #[inline]
            fn name(self) -> &'static str {
                match self {
                    $($ty::$v => $name,)+
                }
            }
        }
    };
}
use names;
