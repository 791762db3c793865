//! Checkpoints: durable snapshots of a [`LiveAuditor`]'s incremental
//! state, so a restarted audit process resumes a stream from its last
//! checkpoint seq **without replaying the log**.
//!
//! The paper's transparency machinery is platform-resident: fairness
//! state must survive process restarts the way any other operational
//! state does. The audit daemon keeps its checkpoints as records of one
//! append-only checkpoint journal per target (see [`crate::daemon`]);
//! each record's body is exactly the bytes [`encode`] writes, and
//! [`load`] reads the same bytes from a file of their own. A
//! [`Checkpoint`] captures everything
//! [`LiveAuditor::checkpoint`] accumulated — the event-less world
//! (entity tables + header scalars), the incremental [`EventIndex`]
//! mirror, lazy qualification rows, A1/A2 partner caches, fired-pair
//! and emitted-set dedup state, and the findings so far — in a
//! versioned binary schema (`faircrowd-checkpoint` v2) behind the same
//! three never-panicking load gates as trace files ([`crate::persist`]):
//!
//! 1. **Parse** — every read is bounds-checked by
//!    [`faircrowd_model::codec::Cursor`], so a truncated or corrupt
//!    file names the field it was reading and the byte where it broke,
//!    and no length is trusted
//!    before the bytes behind it exist; the embedded world goes
//!    through the `.fcb` trace decoder's own gates;
//! 2. **Schema** — foreign magic, a foreign schema name or an
//!    unsupported version is rejected before the body is decoded. A
//!    file that is not a checkpoint but is one of ours is named: a
//!    `.fcb` trace, a JSON trace, or a version 1 (JSON) checkpoint
//!    from before this format;
//! 3. **Integrity** — [`Checkpoint::ensure_valid`] cross-checks the
//!    monitor state against the entity tables (row and cache lengths,
//!    partner/pair index bounds, the retired pair-counter lists empty,
//!    finding seqs against the header seq),
//!    and [`decode`] rejects a header `seq` that disagrees with the
//!    body's `events_seen` — a snapshot stitched from two different
//!    moments must fail loudly, not resume into silent drift.
//!
//! ## Layout
//!
//! A file is the eight [`MAGIC`] bytes, the schema name
//! ([`SCHEMA_NAME`], a varint length and UTF-8) and the version (a
//! varint, 2), then the body. The body's layout is its declaration,
//! `record!(Checkpoint { … })` below: its fields in wire order, each
//! spelled by its type through [`faircrowd_model::fields`], whose
//! primitives `.fcb` traces share. What the table leaves to the types:
//!
//! * `events_seen` is a `HeaderSeq`: eight little-endian bytes (the
//!   header seq), then the same number as a varint, and the two must
//!   agree;
//! * the two stream flags are one byte, `policy_scanned | finalized <<
//!   1` (`Flags`);
//! * the world is an event-less `.fcb` trace behind a varint length,
//!   whose errors are reported as `world blob at byte N`;
//! * id sets ([`IdSet`]) and id-keyed maps (the mirror's
//!   [`DenseIdMap`](faircrowd_model::arena::DenseIdMap)s) store each id
//!   as its gap past the previous one, so a dense set costs a byte per
//!   member;
//! * a finding's origin is a tag byte 0–3 (see its `Field` impl) and its
//!   axiom is the axiom's index in [`AxiomId::ALL`].
//!
//! Every other list is a varint count followed by its entries, and
//! decoding past the last field is "trailing garbage".
//!
//! Restoring through [`LiveAuditor::resume`] and finishing the stream
//! is bit-identical — findings, final report, wages — to never having
//! stopped (pinned by the route harness, `tests/routes.rs`, across the
//! scenario catalog and random checkpoint seqs).

use crate::axiom::AxiomId;
#[cfg(doc)]
use crate::live::LiveAuditor;
use crate::live::{FindingOrigin, LiveFinding};
use crate::Violation;
use faircrowd_model::arena::IdSet;
use faircrowd_model::codec::{put_str, put_u64, put_u64_le, Cursor};
use faircrowd_model::error::{FaircrowdError, PersistFormat};
use faircrowd_model::fields::{At, Field};
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::json::Json;
use faircrowd_model::record;
use faircrowd_model::time::SimTime;
use faircrowd_model::trace::{EventIndex, Trace};
use faircrowd_model::trace_bin;
use faircrowd_model::trace_io::{self, JsonlHeader};
use std::collections::BTreeSet;
use std::path::Path;

/// The eight bytes every checkpoint file starts with (the `.fcb`
/// magic's shape, with `K` for checkpoint).
pub const MAGIC: [u8; 8] = [0x89, b'F', b'C', b'K', 0x0D, 0x0A, 0x1A, 0x0A];
/// Schema name stamped into every checkpoint file.
pub const SCHEMA_NAME: &str = "faircrowd-checkpoint";
/// Schema version this build writes and reads.
pub(crate) const SCHEMA_VERSION: u64 = 2;

/// A durable snapshot of one [`LiveAuditor`]'s incremental state.
///
/// Produced by [`LiveAuditor::checkpoint`], serialised by [`encode`],
/// loaded back through the gates of [`load`]/[`decode`], and turned
/// back into a running auditor by
/// [`LiveAuditor::resume`]. The struct is opaque outside the crate;
/// the accessors below expose what resuming callers need.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Events consumed (the checkpoint seq: the next event's seq).
    pub(crate) events_seen: HeaderSeq,
    /// Physical source lines consumed from the backing JSONL file.
    pub(crate) source_lines: u64,
    pub(crate) last_time: SimTime,
    pub(crate) flags: Flags,
    pub(crate) max_findings: usize,
    pub(crate) suppressed: u64,
    /// The world as declared up to the checkpoint — entity tables and
    /// header scalars, with an **empty** event log (the mirror stands
    /// in for the log's derived state; the log itself is never
    /// replayed).
    pub(crate) world: Trace,
    /// The incremental [`EventIndex`] mirror at the checkpoint seq.
    pub(crate) mirror: EventIndex,
    /// Per worker: (tasks folded in, qualified task ids).
    pub(crate) qual_tasks: Vec<(usize, IdSet<TaskId>)>,
    /// Per task: (workers folded in, qualified worker ids).
    pub(crate) qual_workers: Vec<(usize, IdSet<WorkerId>)>,
    /// Per worker: (workers folded in, similar partner positions).
    pub(crate) similar_partners: Vec<(usize, Vec<usize>)>,
    /// Per task: (tasks folded in, comparable partner positions).
    pub(crate) comparable_partners: Vec<(usize, Vec<usize>)>,
    /// Per-pair A1 counters `[i, j, left, right, inter]`: always empty;
    /// kept so v2 bytes hold.
    pub(crate) a1_pairs: Vec<[u64; 5]>,
    /// Per-pair A2 counters, like `a1_pairs`: always empty; kept so v2
    /// bytes hold.
    pub(crate) a2_pairs: Vec<[u64; 5]>,
    /// Worker position pairs `(i, j)`, `i < j`, whose A1 finding fired.
    pub(crate) a1_emitted: Vec<(u64, u64)>,
    /// Task position pairs whose A2 finding fired.
    pub(crate) a2_emitted: Vec<(u64, u64)>,
    pub(crate) a3_emitted: Vec<(SubmissionId, SubmissionId)>,
    pub(crate) a4_emitted: IdSet<WorkerId>,
    pub(crate) a6_emitted: IdSet<TaskId>,
    pub(crate) findings: Vec<LiveFinding>,
}

impl Checkpoint {
    /// The checkpoint seq: events consumed so far, which is the seq the
    /// next ingested event must carry.
    pub fn seq(&self) -> u64 {
        self.events_seen.0
    }

    /// Physical lines of the backing JSONL file already consumed
    /// (header, blank and entity lines included) — how far a resumed
    /// tailer skips before feeding fresh lines. Zero for auditors not
    /// fed from a line stream.
    pub fn source_lines(&self) -> u64 {
        self.source_lines
    }

    /// The findings retained up to the checkpoint, in emission order.
    pub fn findings(&self) -> &[LiveFinding] {
        &self.findings
    }

    /// How a resume from this checkpoint reads in a notice:
    /// `checkpoint seq N (skipping L line(s))`, plus how many findings
    /// were not restored when the retention cap dropped some.
    pub(crate) fn resume_note(&self) -> String {
        let mut note = format!(
            "checkpoint seq {} (skipping {} line(s)",
            self.seq(),
            self.source_lines
        );
        if self.suppressed > 0 {
            note += &format!(
                "; {} finding(s) past the retention cap of {} were not restored",
                self.suppressed, self.max_findings
            );
        }
        note + ")"
    }

    /// The stream header a resumed [`trace_io::JsonlReader`] should
    /// carry, reconstructed from the checkpointed world.
    pub fn jsonl_header(&self) -> JsonlHeader {
        JsonlHeader {
            horizon: self.world.horizon,
            disclosure: self.world.disclosure.clone(),
            ground_truth: self.world.ground_truth.clone(),
        }
    }

    /// Gate 3: cross-check the monitor state against the entity tables.
    /// Every inconsistency a tampered or truncated-and-patched file
    /// could smuggle past the parser is collected and reported — never
    /// a panic, and never a silent resume into drifted state.
    pub fn ensure_valid(&self) -> Result<(), FaircrowdError> {
        let mut problems = Vec::new();
        let n_workers = self.world.workers.len();
        let n_tasks = self.world.tasks.len();
        if !self.world.events.is_empty() {
            problems.push(format!(
                "world carries {} event(s); a checkpoint's world must be event-less \
                 (the mirror stands in for the log)",
                self.world.events.len()
            ));
        }
        let lens = [
            ("qual_tasks", self.qual_tasks.len(), n_workers, "worker"),
            ("qual_workers", self.qual_workers.len(), n_tasks, "task"),
            (
                "similar_partners",
                self.similar_partners.len(),
                n_workers,
                "worker",
            ),
            (
                "comparable_partners",
                self.comparable_partners.len(),
                n_tasks,
                "task",
            ),
        ];
        for (name, got, want, table) in lens {
            if got != want {
                problems.push(format!(
                    "`{name}` has {got} row(s) but the world declares {want} {table}(s)"
                ));
            }
        }
        let known_tasks: BTreeSet<TaskId> = self.world.tasks.iter().map(|t| t.id).collect();
        let known_workers: BTreeSet<WorkerId> = self.world.workers.iter().map(|w| w.id).collect();
        for (wi, (seen, ids)) in self.qual_tasks.iter().enumerate() {
            if *seen > n_tasks {
                problems.push(format!(
                    "`qual_tasks` row {wi} claims {seen} tasks folded in, world has {n_tasks}"
                ));
            }
            if let Some(id) = ids.iter().find(|id| !known_tasks.contains(id)) {
                problems.push(format!("`qual_tasks` row {wi} names unknown task {id}"));
            }
        }
        for (ti, (seen, ids)) in self.qual_workers.iter().enumerate() {
            if *seen > n_workers {
                problems.push(format!(
                    "`qual_workers` row {ti} claims {seen} workers folded in, world has {n_workers}"
                ));
            }
            if let Some(id) = ids.iter().find(|id| !known_workers.contains(id)) {
                problems.push(format!("`qual_workers` row {ti} names unknown worker {id}"));
            }
        }
        let caches = [
            ("similar_partners", &self.similar_partners, n_workers),
            ("comparable_partners", &self.comparable_partners, n_tasks),
        ];
        for (name, cache, bound) in caches {
            for (i, (seen, partners)) in cache.iter().enumerate() {
                if *seen > bound {
                    problems.push(format!(
                        "`{name}` entry {i} claims {seen} entities folded in, world has {bound}"
                    ));
                }
                if let Some(p) = partners.iter().find(|&&p| p >= bound) {
                    problems.push(format!(
                        "`{name}` entry {i} names partner position {p}, world has {bound}"
                    ));
                }
            }
        }
        // No build writes pair counters (a pair fires at its first
        // qualifying exposure), so rows here are state this build cannot
        // resume; the market replays instead.
        for (name, rows) in [("a1_pairs", &self.a1_pairs), ("a2_pairs", &self.a2_pairs)] {
            if !rows.is_empty() {
                problems.push(format!(
                    "`{name}` holds {} pair counter row(s); this build keeps none",
                    rows.len()
                ));
            }
        }
        let emitted_sets = [
            ("a1_emitted", &self.a1_emitted, n_workers),
            ("a2_emitted", &self.a2_emitted, n_tasks),
        ];
        for (name, pairs, bound) in emitted_sets {
            for &(i, j) in pairs.iter() {
                if i >= j || j >= bound as u64 {
                    problems.push(format!(
                        "`{name}` pair ({i}, {j}) is not an ordered pair of positions below {bound}"
                    ));
                }
            }
        }
        for (i, f) in self.findings.iter().enumerate() {
            let bad_seq = match f.origin {
                FindingOrigin::Event { seq, .. } => seq >= self.seq(),
                FindingOrigin::EndOfStream {
                    last_seq: Some(seq),
                } => seq >= self.seq(),
                _ => false,
            };
            if bad_seq {
                problems.push(format!(
                    "finding {i} is attributed past the checkpoint seq {}",
                    self.seq()
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(FaircrowdError::persist(format!(
                "checkpoint failed integrity checks: {}",
                problems.join("; ")
            ))
            .reading(PersistFormat::Checkpoint))
        }
    }
}

// ---- the body's declaration ------------------------------------------

record!(Checkpoint {
    events_seen: HeaderSeq,
    source_lines: u64,
    last_time: SimTime,
    flags: Flags,
    max_findings: usize,
    suppressed: u64,
    world: Trace,
    mirror: EventIndex,
    qual_tasks: Vec<(usize, IdSet<TaskId>)>,
    qual_workers: Vec<(usize, IdSet<WorkerId>)>,
    similar_partners: Vec<(usize, Vec<usize>)>,
    comparable_partners: Vec<(usize, Vec<usize>)>,
    a1_pairs: Vec<[u64; 5]>,
    a2_pairs: Vec<[u64; 5]>,
    a1_emitted: Vec<(u64, u64)>,
    a2_emitted: Vec<(u64, u64)>,
    a3_emitted: Vec<(SubmissionId, SubmissionId)>,
    a4_emitted: IdSet<WorkerId>,
    a6_emitted: IdSet<TaskId>,
    findings: Vec<LiveFinding>,
});

record!(LiveFinding {
    origin: FindingOrigin,
    violation: Violation,
});

record!(Violation {
    axiom: AxiomId,
    severity: f64,
    description: String,
});

/// The checkpoint seq, written twice: as the header's eight
/// little-endian bytes, then as the body's `events_seen` varint.
/// Reading refuses a pair that disagrees — a snapshot stitched from
/// two different moments must fail loudly, not resume into drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeaderSeq(pub(crate) u64);

impl Field for HeaderSeq {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        u64::from_json(json, at).map(HeaderSeq)
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_u64_le(out, self.0);
        self.0.put(out);
    }
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let seq = cur.u64_le("header seq")?;
        let events_seen = cur.u64(what)?;
        if seq != events_seen {
            return Err(FaircrowdError::persist(format!(
                "header seq {seq} disagrees with the mirror's events_seen {events_seen} — \
                 the checkpoint was stitched from two different moments"
            )));
        }
        Ok(HeaderSeq(seq))
    }
}

/// The auditor's two stream flags as one byte:
/// `policy_scanned | finalized << 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Flags {
    pub(crate) policy_scanned: bool,
    pub(crate) finalized: bool,
}

impl Flags {
    fn byte(self) -> u8 {
        u8::from(self.policy_scanned) | u8::from(self.finalized) << 1
    }

    fn of(byte: u8) -> Self {
        Flags {
            policy_scanned: byte & 1 != 0,
            finalized: byte & 2 != 0,
        }
    }
}

impl Field for Flags {
    fn to_json(&self) -> Json {
        self.byte().to_json()
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        match u8::from_json(json, at)? {
            byte @ 0..4 => Ok(Flags::of(byte)),
            byte => Err(at.err(format_args!("= {byte} sets an unknown flag"))),
        }
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.byte());
    }
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.u8tag(what, 4).map(Flags::of)
    }
}

impl FindingOrigin {
    /// The origin's tag and the values that follow it: 0 setup, 1 an
    /// event (its seq, then its time in seconds), 2 the end of a stream
    /// with no events, 3 the end of a stream (its last seq).
    fn parts(self) -> (u8, Option<u64>, Option<u64>) {
        match self {
            FindingOrigin::Setup => (0, None, None),
            FindingOrigin::Event { seq, time } => (1, Some(seq), Some(time.as_secs())),
            FindingOrigin::EndOfStream { last_seq: None } => (2, None, None),
            FindingOrigin::EndOfStream { last_seq } => (3, last_seq, None),
        }
    }

    /// The origin tagged `tag`, its values read from `next`; `None` for
    /// an unknown tag.
    fn from_parts(
        tag: u64,
        mut next: impl FnMut() -> Result<u64, FaircrowdError>,
    ) -> Result<Option<Self>, FaircrowdError> {
        Ok(Some(match tag {
            0 => FindingOrigin::Setup,
            1 => FindingOrigin::Event {
                seq: next()?,
                time: SimTime::from_secs(next()?),
            },
            2 => FindingOrigin::EndOfStream { last_seq: None },
            3 => FindingOrigin::EndOfStream {
                last_seq: Some(next()?),
            },
            _ => return Ok(None),
        }))
    }
}

/// A finding's origin (see `FindingOrigin::parts`): in binary the tag as
/// one byte and its values as varints; in JSON one array of the tag and
/// the values.
impl Field for FindingOrigin {
    fn to_json(&self) -> Json {
        let (tag, a, b) = self.parts();
        let parts = [Some(u64::from(tag)), a, b].into_iter().flatten();
        Json::Arr(parts.map(Json::uint).collect())
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let bad = || at.shape("a [tag, values…] array", json);
        let mut parts = Vec::<u64>::from_json(json, at)?.into_iter();
        let tag = parts.next().ok_or_else(bad)?;
        FindingOrigin::from_parts(tag, || parts.next().ok_or_else(bad))?.ok_or_else(bad)
    }
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, a, b) = self.parts();
        out.push(tag);
        a.into_iter().chain(b).for_each(|value| value.put(out));
    }
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let tag = cur.u8tag("finding origin", 4)?;
        FindingOrigin::from_parts(tag.into(), || cur.u64(what))?
            .ok_or_else(|| cur.err("unknown finding origin"))
    }
}

// ---- encode and decode ----------------------------------------------

/// Encode a checkpoint: the magic, the schema name and version, then
/// the body as its table declares it. Deterministic: the same snapshot
/// always encodes to the same bytes (hash-keyed state was already
/// sorted by [`LiveAuditor::checkpoint`]).
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(ckpt, &mut out);
    out
}

/// [`encode`], appended to `out` — how a journal record frames a
/// checkpoint without copying it.
pub(crate) fn encode_into(ckpt: &Checkpoint, out: &mut Vec<u8>) {
    // A page up front: a small market's whole checkpoint fits it, so its
    // body is written without regrowing the buffer (a 3.7 KB checkpoint
    // encoded ≈15% slower without this, same-process, 2 vCPU).
    out.reserve(4096);
    out.extend_from_slice(&MAGIC);
    put_str(out, SCHEMA_NAME);
    put_u64(out, SCHEMA_VERSION);
    ckpt.put(out);
}

/// Decode a checkpoint: gate 1 (every read bounds-checked, errors
/// naming the field and the byte offset; the world blob through the
/// `.fcb` trace gates) and gate 2 (magic, schema name, version), plus
/// the header-vs-body seq cross-check. Gate 3
/// ([`Checkpoint::ensure_valid`]) runs in [`load`], the path untrusted
/// files come through. Every error reads as a checkpoint's, the
/// embedded world's included.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, FaircrowdError> {
    decode_file(bytes).map_err(|e| e.reading(PersistFormat::Checkpoint))
}

fn decode_file(bytes: &[u8]) -> Result<Checkpoint, FaircrowdError> {
    let mut cur = Cursor::new(bytes, "binary checkpoint");
    cur.magic(&MAGIC)
        .map_err(|e| identify_foreign(bytes).unwrap_or(e))?;
    let name = cur.string("schema name")?;
    if name != SCHEMA_NAME {
        return Err(FaircrowdError::persist(format!(
            "binary checkpoint declares schema `{name}`, expected `{SCHEMA_NAME}`"
        )));
    }
    let version = cur.u64("schema version")?;
    if version != SCHEMA_VERSION {
        return Err(FaircrowdError::persist(format!(
            "unsupported checkpoint version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    let ckpt = Checkpoint::get(&mut cur, "checkpoint")?;
    cur.finish()?;
    Ok(ckpt)
}

/// Name what a file without the checkpoint magic is, when it is one of
/// ours: a binary trace, or a JSON document — a version 1 checkpoint
/// (the JSON era), a JSON trace, or a foreign schema.
fn identify_foreign(bytes: &[u8]) -> Option<FaircrowdError> {
    if trace_bin::sniff_binary(bytes) {
        return Some(FaircrowdError::persist(format!(
            "schema is `{}` (a binary trace), expected `{SCHEMA_NAME}`",
            trace_io::SCHEMA_NAME
        )));
    }
    let json = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    Some(FaircrowdError::persist(
        match json.get("schema").and_then(Json::as_str) {
            None => "missing `schema` field — not a faircrowd checkpoint file".to_owned(),
            Some(SCHEMA_NAME) => format!(
                "checkpoint version {} (JSON) is no longer readable; this build reads \
                 version {SCHEMA_VERSION} (binary)",
                json.get("version").map_or("?".to_owned(), Json::to_string)
            ),
            Some(schema) => format!("schema is `{schema}`, expected `{SCHEMA_NAME}`"),
        },
    ))
}

// ---- load ---------------------------------------------------------

/// Load and **validate** a checkpoint file at `path` (the bytes of
/// [`encode`], alone in their file): read, decode under
/// the schema gates, then run [`Checkpoint::ensure_valid`]. Every
/// failure mode — truncated file, foreign schema, future version, a
/// version 1 JSON checkpoint, a header seq disagreeing with its
/// mirror, dangling positions — is a descriptive [`FaircrowdError`]
/// carrying the path, never a panic.
pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, FaircrowdError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| FaircrowdError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let ckpt = decode(&bytes).map_err(|e| e.at_path(path.display()))?;
    ckpt.ensure_valid().map_err(|e| e.at_path(path.display()))?;
    Ok(ckpt)
}
