//! The trace schema, declared once.
//!
//! Each record type's layout — its fields, in wire order — is one table
//! in the first section below, and every trace codec is derived from
//! it: the JSON encoder and tree decoder and the canonical-line cursor
//! of [`crate::trace_io`], and the `.fcb` encoder and decoder of
//! [`crate::trace_bin`]. A [`Field`] impl per value type gives that
//! value's five spellings; a record's codecs are its fields' spellings
//! in declaration order.
//!
//! Conventions every format shares:
//!
//! * a JSON member's key is the Rust field name;
//! * an `Option` field is an omitted member in JSON and, in `.fcb`, a
//!   bit of one presence byte written before the record's first
//!   optional field (bit *i* for its *i*-th optional field);
//! * a [`Named`] value is its name in JSON and its index in
//!   [`Named::ALL`] as one byte in `.fcb`;
//! * an enum with fields is its variant's name plus the variant's fields
//!   in JSON, and a one-byte tag plus those fields in `.fcb` (an event's
//!   tag sits in the trace's kind column instead).
//!
//! Every codec function here is `#[inline]`, so that `trace_io` and
//! `trace_bin` compile their own copies and a record's field reads
//! inline into their loops, as the hand-written codecs' did in their
//! own module. Without it, `.fcb` event decode ran 40% slower in a
//! same-process comparison on a 2-vCPU host.

use crate::attributes::{AttrValue, ComputedAttrs, DeclaredAttrs};
use crate::codec::{put_f64, put_i64, put_named, put_str, put_u64, Cursor, Named};
use crate::contribution::{Contribution, Submission};
use crate::disclosure::{Audience, DisclosureItem, DisclosureSet};
use crate::error::FaircrowdError;
use crate::event::{CancelReason, Event, EventKind, QuitReason};
use crate::fields::str_field;
use crate::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};
use crate::json::Json;
use crate::money::Credits;
use crate::requester::Requester;
use crate::skills::SkillVector;
use crate::task::{Task, TaskConditions, TaskKind};
use crate::time::{SimDuration, SimTime};
use crate::trace::GroundTruth;
use crate::worker::Worker;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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
        kind: EventKind::members_from_json(str_field(json, "kind", ctx)?, json, ctx)?,
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

/// One value type's five spellings: JSON value, JSON tree decode,
/// canonical-line decode, `.fcb` bytes and `.fcb` decode.
pub(crate) trait Field: Sized {
    /// The JSON value.
    fn to_json(&self) -> Json;
    /// Decode a JSON tree value; `at` names the record and field in
    /// errors.
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError>;
    /// Decode the value next on a canonical line; `None` at the first
    /// byte off the writer's layout.
    fn scan(s: &mut Scan<'_>) -> Option<Self>;
    /// Append the `.fcb` bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Read the `.fcb` bytes; `what` names the value in errors.
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError>;
}

/// How a field sits in a record: every [`Field`] as a required member,
/// and `Option<Field>` as one that may be absent.
pub(crate) trait Member: Sized {
    /// Whether the member may be absent.
    const OPTIONAL: bool;
    /// `Some(present)` for an optional member, `None` for a required one.
    fn presence(&self) -> Option<bool>;
    /// Append the JSON member `key`.
    fn put_member(&self, key: &str, members: &mut Vec<(String, Json)>);
    /// Decode member `at.key` of the JSON object `record`.
    fn member_from_json(record: &Json, at: At<'_>) -> Result<Self, FaircrowdError>;
    /// Scan the member; `key` is its `,"name":` prefix, whose comma a
    /// record's first member goes without (`first` tracks that).
    fn scan_member(s: &mut Scan<'_>, key: &'static str, first: &mut bool) -> Option<Self>;
    /// Append the member's `.fcb` bytes; the record's presence byte
    /// `mask` goes out before its first optional member.
    fn put_in(&self, out: &mut Vec<u8>, mask: &mut Option<u8>);
    /// Read the member's `.fcb` bytes.
    fn get_in(cur: &mut Cursor<'_>, what: &str, mask: &mut Mask) -> Result<Self, FaircrowdError>;
}

impl<T: Field> Member for T {
    const OPTIONAL: bool = false;

    #[inline]
    fn presence(&self) -> Option<bool> {
        None
    }

    #[inline]
    fn put_member(&self, key: &str, members: &mut Vec<(String, Json)>) {
        members.push((key.to_owned(), self.to_json()));
    }

    #[inline]
    fn member_from_json(record: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let json = record.get(at.key).ok_or_else(|| {
            FaircrowdError::persist(format!("{}: missing field `{}`", at.ctx, at.key))
        })?;
        T::from_json(json, at)
    }

    #[inline]
    fn scan_member(s: &mut Scan<'_>, key: &'static str, first: &mut bool) -> Option<Self> {
        T::scan(s.key(key, first)?)
    }

    #[inline]
    fn put_in(&self, out: &mut Vec<u8>, _mask: &mut Option<u8>) {
        self.put(out);
    }

    #[inline]
    fn get_in(cur: &mut Cursor<'_>, what: &str, _mask: &mut Mask) -> Result<Self, FaircrowdError> {
        T::get(cur, what)
    }
}

impl<T: Field> Member for Option<T> {
    const OPTIONAL: bool = true;

    #[inline]
    fn presence(&self) -> Option<bool> {
        Some(self.is_some())
    }

    #[inline]
    fn put_member(&self, key: &str, members: &mut Vec<(String, Json)>) {
        if let Some(value) = self {
            value.put_member(key, members);
        }
    }

    #[inline]
    fn member_from_json(record: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        record
            .get(at.key)
            .map(|json| T::from_json(json, at))
            .transpose()
    }

    #[inline]
    fn scan_member(s: &mut Scan<'_>, key: &'static str, first: &mut bool) -> Option<Self> {
        match s.key(key, first) {
            Some(s) => T::scan(s).map(Some),
            None => Some(None),
        }
    }

    #[inline]
    fn put_in(&self, out: &mut Vec<u8>, mask: &mut Option<u8>) {
        if let Some(bits) = mask.take() {
            out.push(bits);
        }
        if let Some(value) = self {
            value.put(out);
        }
    }

    #[inline]
    fn get_in(cur: &mut Cursor<'_>, what: &str, mask: &mut Mask) -> Result<Self, FaircrowdError> {
        match mask.next(cur)? {
            true => T::get(cur, what).map(Some),
            false => Ok(None),
        }
    }
}

/// The presence byte of a record's members, or `None` for a record with
/// no optional member.
#[inline]
fn mask_of(presence: &[Option<bool>]) -> Option<u8> {
    let mut mask = None;
    for (bit, present) in presence.iter().flatten().enumerate() {
        *mask.get_or_insert(0) |= u8::from(*present) << bit;
    }
    mask
}

/// A record's presence byte on the read side, read at its first
/// optional member.
pub(crate) struct Mask {
    optionals: u8,
    bits: Option<u8>,
    next: u8,
}

impl Mask {
    /// The mask of a record with `optionals` optional members.
    #[inline]
    fn new(optionals: u8) -> Self {
        Mask {
            optionals,
            bits: None,
            next: 0,
        }
    }

    /// Whether the next optional member is present.
    #[inline]
    fn next(&mut self, cur: &mut Cursor<'_>) -> Result<bool, FaircrowdError> {
        let bits = match self.bits {
            Some(bits) => bits,
            None => *self
                .bits
                .insert(cur.u8tag("presence mask", 1 << self.optionals)?),
        };
        self.next += 1;
        Ok(bits >> (self.next - 1) & 1 == 1)
    }
}

impl Field for u64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::uint(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_u64()
            .ok_or_else(|| at.shape("an unsigned integer", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        s.number()
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.u64(what)
    }
}

/// The unsigned integers narrower than `u64`: JSON numbers and, in
/// `.fcb`, varints, read as `u64` and then narrowed — except `u8`,
/// which is one raw byte.
macro_rules! narrow_uint {
    ($($t:ty, $fits:literal, |$cur:ident, $what:ident| $get:expr, |$v:ident, $out:ident| $put:expr;)+) => {$(
        impl Field for $t {
            #[inline]
            fn to_json(&self) -> Json {
                Json::uint(u64::from(*self))
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                let raw = u64::from_json(json, at)?;
                <$t>::try_from(raw)
                    .map_err(|_| at.err(format_args!("= {raw} does not fit {}", $fits)))
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                <$t>::try_from(s.number::<u64>()?).ok()
            }
            #[inline]
            fn put(&self, $out: &mut Vec<u8>) {
                let $v = *self;
                $put
            }
            #[inline]
            fn get($cur: &mut Cursor<'_>, $what: &str) -> Result<Self, FaircrowdError> {
                $get
            }
        }
    )+};
}

narrow_uint! {
    u32, "an id", |cur, what| cur.id32(what), |v, out| put_u64(out, u64::from(v));
    u16, "u16", |cur, what| {
        let raw = cur.u64(what)?;
        u16::try_from(raw).map_err(|_| cur.err(format_args!("{what} {raw} overflows u16")))
    }, |v, out| put_u64(out, u64::from(v));
    u8, "a byte", |cur, what| cur.byte(what), |v, out| out.push(v);
}

impl Field for i64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::int(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_i64().ok_or_else(|| at.shape("an integer", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        s.number()
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_i64(out, *self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.i64(what)
    }
}

impl Field for f64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::float(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_f64().ok_or_else(|| at.shape("a number", json))
    }
    /// A number token, or a non-finite spelling of [`Json::float`].
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        if !s.rest().starts_with(b"\"") {
            return s.number();
        }
        match s.string()? {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        }
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.f64(what)
    }
}

impl Field for bool {
    #[inline]
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_bool().ok_or_else(|| at.shape("a boolean", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        if s.eat("true") {
            Some(true)
        } else {
            s.eat("false").then_some(false)
        }
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.bool(what)
    }
}

impl Field for String {
    #[inline]
    fn to_json(&self) -> Json {
        Json::str(self.clone())
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| at.shape("a string", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        s.string().map(str::to_owned)
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.string(what)
    }
}

/// A boxed string (an event's rare text payload) is spelled as the
/// string. `Box<str>` would be a fat pointer, two words, and widen the
/// event it sits in.
impl Field for Box<String> {
    #[inline]
    fn to_json(&self) -> Json {
        String::to_json(self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        String::from_json(json, at).map(Box::new)
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        String::scan(s).map(Box::new)
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        String::put(self, out);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        String::get(cur, what).map(Box::new)
    }
}

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

/// A pair: a two-element JSON array; in `.fcb` the two values in turn.
impl<A: Field, B: Field> Field for (A, B) {
    #[inline]
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        match json.as_arr() {
            Some([a, b]) => Ok((A::from_json(a, at)?, B::from_json(b, at)?)),
            _ => Err(at.shape("a two-element array", json)),
        }
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        let a = A::scan(s.lit("[")?)?;
        let b = B::scan(s.lit(",")?)?;
        s.lit("]")?;
        Some((a, b))
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        Ok((A::get(cur, what)?, B::get(cur, what)?))
    }
}

/// A collection of `Copy` items: a JSON array; in `.fcb` a varint count,
/// then the items.
trait Seq: Default {
    type Item: Field + Copy;
    fn items(&self) -> impl Iterator<Item = Self::Item>;
    fn push(&mut self, item: Self::Item);
}

impl<S: Seq> Field for S {
    #[inline]
    fn to_json(&self) -> Json {
        Json::Arr(self.items().map(|item| item.to_json()).collect())
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let mut seq = S::default();
        for item in json.as_arr().ok_or_else(|| at.shape("an array", json))? {
            seq.push(S::Item::from_json(item, at)?);
        }
        Ok(seq)
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        let mut seq = S::default();
        s.lit("[")?;
        if s.eat("]") {
            return Some(seq);
        }
        loop {
            seq.push(S::Item::scan(s)?);
            if s.eat("]") {
                return Some(seq);
            }
            s.lit(",")?;
        }
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.items().count() as u64);
        for item in self.items() {
            item.put(out);
        }
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let mut seq = S::default();
        for _ in 0..cur.count(what)? {
            seq.push(S::Item::get(cur, what)?);
        }
        Ok(seq)
    }
}

impl<T: Field + Copy> Seq for Vec<T> {
    type Item = T;
    #[inline]
    fn items(&self) -> impl Iterator<Item = T> {
        self.iter().copied()
    }
    #[inline]
    fn push(&mut self, item: T) {
        self.push(item);
    }
}

impl Seq for BTreeSet<WorkerId> {
    type Item = WorkerId;
    #[inline]
    fn items(&self) -> impl Iterator<Item = WorkerId> {
        self.iter().copied()
    }
    #[inline]
    fn push(&mut self, item: WorkerId) {
        self.insert(item);
    }
}

impl Seq for BTreeMap<TaskId, u8> {
    type Item = (TaskId, u8);
    #[inline]
    fn items(&self) -> impl Iterator<Item = (TaskId, u8)> {
        self.iter().map(|(&task, &label)| (task, label))
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
    fn items(&self) -> impl Iterator<Item = (DisclosureItem, Audience)> {
        self.iter()
    }
    #[inline]
    fn push(&mut self, (item, audience): (DisclosureItem, Audience)) {
        self.grant(item, audience);
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

/// A [`Named`] value: its name in JSON, its index as one `.fcb` byte.
macro_rules! named_fields {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            #[inline]
            fn to_json(&self) -> Json {
                Json::str(Named::name(*self))
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                let name = json.as_str().ok_or_else(|| at.shape("a string", json))?;
                <$ty as Named>::from_name(name).ok_or_else(|| {
                    FaircrowdError::persist(format!(
                        "{}: unknown {} `{name}`",
                        at.ctx,
                        <$ty as Named>::WHAT
                    ))
                })
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                <$ty as Named>::from_name(s.string()?)
            }
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                put_named(out, *self);
            }
            #[inline]
            fn get(cur: &mut Cursor<'_>, _what: &str) -> Result<Self, FaircrowdError> {
                cur.named()
            }
        }
    )+};
}

named_fields!(CancelReason, QuitReason, DisclosureItem, Audience);

// ---------------------------------------------------------------------
// The table macros
// ---------------------------------------------------------------------

/// A struct whose fields are members of a JSON object, and in `.fcb`
/// follow one another.
macro_rules! record {
    ($ty:ident { $($f:ident: $t:ty),+ $(,)? }) => {
        impl Field for $ty {
            #[inline]
            fn to_json(&self) -> Json {
                let mut members = Vec::new();
                $(Member::put_member(&self.$f, stringify!($f), &mut members);)+
                Json::Obj(members)
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                if json.as_obj().is_none() {
                    return Err(at.shape("an object", json));
                }
                let ctx = at.ctx;
                Ok($ty {
                    $($f: <$t as Member>::member_from_json(json, At { ctx, key: stringify!($f) })?,)+
                })
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                let first = &mut true;
                let record = $ty {
                    $($f: <$t as Member>::scan_member(
                        s,
                        concat!(",\"", stringify!($f), "\":"),
                        first,
                    )?,)+
                };
                s.lit(if *first { "{}" } else { "}" })?;
                Some(record)
            }
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                let mask = &mut mask_of(&[$(Member::presence(&self.$f)),+]);
                $(Member::put_in(&self.$f, out, mask);)+
            }
            #[inline]
            fn get(cur: &mut Cursor<'_>, _what: &str) -> Result<Self, FaircrowdError> {
                let mask = &mut Mask::new(0 $(+ u8::from(<$t as Member>::OPTIONAL))+);
                Ok($ty {
                    $($f: <$t as Member>::get_in(cur, stringify!($f), mask)?,)+
                })
            }
        }
    };
}
use record;

/// An enum of struct-like variants, each declared as its `.fcb` tag,
/// name and fields. Generates the name accessor `$name_fn` and the
/// per-variant field codecs; the enclosing layout (where the name and
/// tag go) is the caller's.
macro_rules! variants {
    ($ty:ident, $what:literal, $vis:vis fn $name_fn:ident {
        $($tag:literal $v:ident $name:literal { $($f:ident: $t:ty),* $(,)? }),+ $(,)?
    }) => {
        impl $ty {
            /// The variant's name: its JSON spelling, also used in
            /// reports and counts.
            $vis fn $name_fn(&self) -> &'static str {
                match self {
                    $($ty::$v { .. } => $name,)+
                }
            }

            /// The variant's one-byte `.fcb` tag.
            #[inline]
            pub(crate) fn wire_tag(&self) -> u8 {
                match self {
                    $($ty::$v { .. } => $tag,)+
                }
            }

            /// Append the variant's fields as JSON members.
            #[inline]
            fn put_members(&self, members: &mut Vec<(String, Json)>) {
                match self {
                    $($ty::$v { $($f),* } => {
                        $(Member::put_member($f, stringify!($f), members);)*
                    })+
                }
            }

            /// Decode the fields of the variant called `name` from the
            /// JSON object `json`.
            #[inline]
            fn members_from_json(
                name: &str,
                json: &Json,
                ctx: RecordCtx,
            ) -> Result<Self, FaircrowdError> {
                let _at = |key| At { ctx, key };
                Ok(match name {
                    $($name => $ty::$v {
                        $($f: <$t as Member>::member_from_json(json, _at(stringify!($f)))?,)*
                    },)+
                    other => {
                        return Err(FaircrowdError::persist(format!(
                            "{ctx}: unknown {} `{other}`",
                            $what
                        )))
                    }
                })
            }

            /// Scan the fields of the variant called `name`, each after
            /// a comma.
            #[inline]
            fn scan_members(name: &str, s: &mut Scan<'_>) -> Option<Self> {
                let _first = &mut false;
                Some(match name {
                    $($name => $ty::$v {
                        $($f: <$t as Member>::scan_member(
                            s,
                            concat!(",\"", stringify!($f), "\":"),
                            _first,
                        )?,)*
                    },)+
                    _ => return None,
                })
            }

            /// Append the variant's fields' `.fcb` bytes.
            #[inline]
            pub(crate) fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v { $($f),* } => {
                        let _mask = &mut mask_of(&[$(Member::presence($f)),*]);
                        $(Member::put_in($f, out, _mask);)*
                    })+
                }
            }

            /// Read the fields of the variant tagged `tag`.
            #[inline]
            pub(crate) fn get_payload(
                tag: u8,
                cur: &mut Cursor<'_>,
            ) -> Result<Self, FaircrowdError> {
                Ok(match tag {
                    $($tag => {
                        let _mask = &mut Mask::new(0 $(+ u8::from(<$t as Member>::OPTIONAL))*);
                        $ty::$v {
                            $($f: <$t as Member>::get_in(cur, stringify!($f), _mask)?,)*
                        }
                    })+
                    _ => return Err(cur.err(format_args!("unknown {} tag {tag}", $what))),
                })
            }
        }
    };
}
use variants;

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
        TaskKind::members_from_json(str_field(json, "name", at.ctx)?, json, at.ctx)
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

// ---------------------------------------------------------------------
// Error context and the canonical-line cursor
// ---------------------------------------------------------------------

/// Where a record sits, as its decode errors name it. Formatted only
/// when an error is built, never for a record that decodes.
#[derive(Clone, Copy)]
pub(crate) enum RecordCtx {
    /// `line N (<type> record)`: a JSONL line.
    Line(usize, &'static str),
    /// `<type> record I`: an element of a whole-file JSON array.
    Index(&'static str, usize),
    /// A trace's scalar section: `trace` or `header`.
    Section(&'static str),
}

impl fmt::Display for RecordCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordCtx::Line(lineno, kind) => write!(f, "line {lineno} ({kind} record)"),
            RecordCtx::Index(kind, i) => write!(f, "{kind} record {i}"),
            RecordCtx::Section(name) => f.write_str(name),
        }
    }
}

/// One field of a record, as a decode error names it.
#[derive(Clone, Copy)]
pub(crate) struct At<'k> {
    pub(crate) ctx: RecordCtx,
    pub(crate) key: &'k str,
}

impl At<'_> {
    /// `<ctx>: field `<key>` <what>`.
    fn err(self, what: impl fmt::Display) -> FaircrowdError {
        FaircrowdError::persist(format!("{}: field `{}` {what}", self.ctx, self.key))
    }

    /// The field is not `shape`.
    fn shape(self, shape: &str, got: &Json) -> FaircrowdError {
        self.err(format_args!("should be {shape}, got {}", got.kind()))
    }
}

/// A byte cursor over one canonical JSONL record line: one in exactly
/// the bytes [`crate::trace_io::trace_to_jsonl`] writes (its member
/// order, no whitespace, no escaped string). Every read returns `None`
/// at the first byte that departs from that layout. Numbers are cut by
/// the tree parser's own grammar and converted by the same `str::parse`
/// its accessors use, so a value read here equals its tree decode.
pub(crate) struct Scan<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    /// A cursor at the start of `line`.
    #[inline]
    pub(crate) fn new(line: &'a str) -> Self {
        Scan { line, pos: 0 }
    }

    /// Whether every byte was read.
    #[inline]
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.line.len()
    }

    #[inline]
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    /// Step over `text` if it comes next.
    #[inline]
    pub(crate) fn eat(&mut self, text: &str) -> bool {
        let hit = self.rest().starts_with(text.as_bytes());
        if hit {
            self.pos += text.len();
        }
        hit
    }

    /// Step over `text`, which must come next.
    #[inline]
    fn lit(&mut self, text: &str) -> Option<&mut Self> {
        self.eat(text).then_some(self)
    }

    /// Step over a member's `,"name":` prefix, whose comma is the
    /// record's opening `{` while `first` holds.
    #[inline]
    fn key(&mut self, key: &str, first: &mut bool) -> Option<&mut Self> {
        let (rest, key) = (self.rest(), key.as_bytes());
        let lead = if *first { b'{' } else { b',' };
        if rest.len() < key.len() || rest[0] != lead || rest[1..key.len()] != key[1..] {
            return None;
        }
        self.pos += key.len();
        *first = false;
        Some(self)
    }

    /// A number token, parsed as `T`.
    #[inline]
    fn number<T: std::str::FromStr>(&mut self) -> Option<T> {
        let len = crate::json::number_len(self.rest())?;
        let token = &self.line[self.pos..self.pos + len];
        self.pos += len;
        token.parse().ok()
    }

    /// A string without escapes or control bytes, borrowed from the
    /// line. (`"` and `\` never occur inside a multi-byte UTF-8
    /// character, so the byte scan cannot split one.)
    #[inline]
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
}
