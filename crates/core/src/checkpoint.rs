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
//! mirror, lazy qualification rows, A1/A2 partner caches and overlap
//! counters, emitted-set dedup state, and the findings so far — in a
//! versioned binary schema (`faircrowd-checkpoint` v2) behind the same
//! three never-panicking load gates as trace files ([`crate::persist`]):
//!
//! 1. **Parse** — every read is bounds-checked by
//!    [`faircrowd_model::codec::Cursor`], so a truncated or corrupt
//!    file names the byte where it broke and no length is trusted
//!    before the bytes behind it exist; the embedded world goes
//!    through the `.fcb` trace decoder's own gates;
//! 2. **Schema** — foreign magic, a foreign schema name or an
//!    unsupported version is rejected before the body is decoded. A
//!    file that is not a checkpoint but is one of ours is named: a
//!    `.fcb` trace, a JSON trace, or a version 1 (JSON) checkpoint
//!    from before this format;
//! 3. **Integrity** — [`Checkpoint::ensure_valid`] cross-checks the
//!    monitor state against the entity tables (row and cache lengths,
//!    partner/pair index bounds, finding seqs against the header seq),
//!    and [`decode`] rejects a header `seq` that disagrees with the
//!    body's `events_seen` — a snapshot stitched from two different
//!    moments must fail loudly, not resume into silent drift.
//!
//! ## Layout
//!
//! ```text
//! magic            8 bytes: 89 'F' 'C' 'K' 0D 0A 1A 0A
//! schema name      varint length + UTF-8 ("faircrowd-checkpoint")
//! schema version   varint (2)
//! seq              8 bytes little-endian: the header seq
//! scalars          events_seen, source_lines, last_time (varints),
//!                  flags byte (policy_scanned | finalized << 1),
//!                  max_findings, suppressed (varints)
//! world            varint length + an event-less `.fcb` trace blob
//! mirror           visibility, audience (id → id set), payments,
//!                  earnings (id → zigzag millicents), flagged,
//!                  session and informed worker sets, work_started,
//!                  interruptions, quits
//! monitor rows     qual_tasks, qual_workers (seen + id set),
//!                  similar_partners, comparable_partners (seen +
//!                  partner positions)
//! pair tables      a1_pairs, a2_pairs: five varints per pair
//! emitted sets     a1/a2 position pairs, a3 submission pairs, a4
//!                  worker set, a6 task set
//! findings         origin tag (+ seq/time), axiom index, severity
//!                  as f64 bits, description
//! <end>            decoding past this point is "trailing garbage"
//! ```
//!
//! Every list is a varint count followed by its entries. Sets and
//! id-keyed maps store each id as its gap past the previous one (see
//! `Gaps`), so a dense set costs a byte per member. The primitives are
//! [`faircrowd_model::codec`]'s, shared with `.fcb` traces.
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
use faircrowd_model::arena::{ArenaKey, DenseIdMap, IdSet};
use faircrowd_model::codec::{
    put_credits, put_f64, put_named, put_str, put_u64, put_u64_le, Cursor,
};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::json::Json;
use faircrowd_model::money::Credits;
use faircrowd_model::time::SimTime;
use faircrowd_model::trace::{EventIndex, Interruption, Trace};
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
    /// The world as declared up to the checkpoint — entity tables and
    /// header scalars, with an **empty** event log (the mirror stands
    /// in for the log's derived state; the log itself is never
    /// replayed).
    pub(crate) world: Trace,
    /// The incremental [`EventIndex`] mirror at the checkpoint seq.
    pub(crate) mirror: EventIndex,
    /// Events consumed (the checkpoint seq: the next event's seq).
    pub(crate) events_seen: u64,
    /// Physical source lines consumed from the backing JSONL file.
    pub(crate) source_lines: u64,
    pub(crate) last_time: SimTime,
    pub(crate) policy_scanned: bool,
    pub(crate) finalized: bool,
    pub(crate) max_findings: usize,
    pub(crate) suppressed: u64,
    /// Per worker: (tasks folded in, qualified task ids).
    pub(crate) qual_tasks: Vec<(usize, Vec<TaskId>)>,
    /// Per task: (workers folded in, qualified worker ids).
    pub(crate) qual_workers: Vec<(usize, Vec<WorkerId>)>,
    /// Per worker: (workers folded in, similar partner positions).
    pub(crate) similar_partners: Vec<(usize, Vec<usize>)>,
    /// Per task: (tasks folded in, comparable partner positions).
    pub(crate) comparable_partners: Vec<(usize, Vec<usize>)>,
    /// `[i, j, left, right, inter]` per monitored worker pair, sorted.
    pub(crate) a1_pairs: Vec<[u64; 5]>,
    /// `[i, j, left, right, inter]` per monitored task pair, sorted.
    pub(crate) a2_pairs: Vec<[u64; 5]>,
    pub(crate) a1_emitted: Vec<(u64, u64)>,
    pub(crate) a2_emitted: Vec<(u64, u64)>,
    pub(crate) a3_emitted: Vec<(SubmissionId, SubmissionId)>,
    pub(crate) a4_emitted: Vec<WorkerId>,
    pub(crate) a6_emitted: Vec<TaskId>,
    pub(crate) findings: Vec<LiveFinding>,
}

impl Checkpoint {
    /// The checkpoint seq: events consumed so far, which is the seq the
    /// next ingested event must carry.
    pub fn seq(&self) -> u64 {
        self.events_seen
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
            self.events_seen, self.source_lines
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
        let pair_sets = [
            ("a1_pairs", &self.a1_pairs, n_workers),
            ("a2_pairs", &self.a2_pairs, n_tasks),
        ];
        for (name, pairs, bound) in pair_sets {
            for &[i, j, ..] in pairs.iter() {
                if i >= j || j >= bound as u64 {
                    problems.push(format!(
                        "`{name}` pair ({i}, {j}) is not an ordered pair of positions below {bound}"
                    ));
                }
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
                FindingOrigin::Event { seq, .. } => seq >= self.events_seen,
                FindingOrigin::EndOfStream {
                    last_seq: Some(seq),
                } => seq >= self.events_seen,
                _ => false,
            };
            if bad_seq {
                problems.push(format!(
                    "finding {i} is attributed past the checkpoint seq {}",
                    self.events_seen
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(FaircrowdError::persist(format!(
                "checkpoint failed integrity checks: {}",
                problems.join("; ")
            )))
        }
    }
}

// ---- encode ---------------------------------------------------------

/// Encode a checkpoint in the binary layout of the module docs.
/// Deterministic: the same snapshot always encodes to the same bytes
/// (hash-keyed state was already sorted by [`LiveAuditor::checkpoint`]).
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(ckpt, &mut out);
    out
}

/// [`encode`], appended to `out` — how a journal record frames a
/// checkpoint without copying it.
pub(crate) fn encode_into(ckpt: &Checkpoint, out: &mut Vec<u8>) {
    let world = trace_bin::trace_to_bytes(&ckpt.world);
    out.reserve(world.len() + 4096);
    out.extend_from_slice(&MAGIC);
    put_str(out, SCHEMA_NAME);
    put_u64(out, SCHEMA_VERSION);
    put_u64_le(out, ckpt.events_seen);
    put_u64(out, ckpt.events_seen);
    put_u64(out, ckpt.source_lines);
    put_u64(out, ckpt.last_time.as_secs());
    out.push(u8::from(ckpt.policy_scanned) | u8::from(ckpt.finalized) << 1);
    put_u64(out, ckpt.max_findings as u64);
    put_u64(out, ckpt.suppressed);
    put_u64(out, world.len() as u64);
    out.extend_from_slice(&world);

    let m = &ckpt.mirror;
    put_set_map(out, &m.visibility);
    put_set_map(out, &m.audience);
    put_credit_map(out, &m.payments);
    put_credit_map(out, &m.earnings);
    for set in [&m.flagged, &m.session_workers, &m.informed_workers] {
        put_ids(out, set.iter().copied());
    }
    put_u64(out, m.work_started as u64);
    put_u64(out, m.interruptions.len() as u64);
    for i in &m.interruptions {
        put_u64(out, u64::from(i.task.raw()));
        put_u64(out, u64::from(i.worker.raw()));
        put_u64(out, i.invested.as_secs());
        out.push(u8::from(i.compensated));
    }
    put_u64(out, m.quits.len() as u64);
    for (w, reason, time) in &m.quits {
        put_u64(out, u64::from(w.raw()));
        put_named(out, *reason);
        put_u64(out, time.as_secs());
    }

    put_rows(out, &ckpt.qual_tasks);
    put_rows(out, &ckpt.qual_workers);
    for caches in [&ckpt.similar_partners, &ckpt.comparable_partners] {
        put_u64(out, caches.len() as u64);
        for (seen, partners) in caches {
            put_u64(out, *seen as u64);
            put_u64(out, partners.len() as u64);
            for &p in partners {
                put_u64(out, p as u64);
            }
        }
    }
    for pairs in [&ckpt.a1_pairs, &ckpt.a2_pairs] {
        put_u64(out, pairs.len() as u64);
        for &v in pairs.iter().flatten() {
            put_u64(out, v);
        }
    }
    for pairs in [&ckpt.a1_emitted, &ckpt.a2_emitted] {
        put_u64(out, pairs.len() as u64);
        for &(i, j) in pairs.iter() {
            put_u64(out, i);
            put_u64(out, j);
        }
    }
    put_u64(out, ckpt.a3_emitted.len() as u64);
    for (a, b) in &ckpt.a3_emitted {
        put_u64(out, u64::from(a.raw()));
        put_u64(out, u64::from(b.raw()));
    }
    put_ids(out, ckpt.a4_emitted.iter().copied());
    put_ids(out, ckpt.a6_emitted.iter().copied());

    put_u64(out, ckpt.findings.len() as u64);
    for f in &ckpt.findings {
        match f.origin {
            FindingOrigin::Setup => out.push(0),
            FindingOrigin::Event { seq, time } => {
                out.push(1);
                put_u64(out, seq);
                put_u64(out, time.as_secs());
            }
            FindingOrigin::EndOfStream { last_seq: None } => out.push(2),
            FindingOrigin::EndOfStream {
                last_seq: Some(seq),
            } => {
                out.push(3);
                put_u64(out, seq);
            }
        }
        let axiom = AxiomId::ALL
            .iter()
            .position(|&a| a == f.violation.axiom)
            .expect("every AxiomId appears in ALL");
        out.push(axiom as u8);
        put_f64(out, f.violation.severity);
        put_str(out, &f.violation.description);
    }
}

/// Strictly ascending ids, each stored as its distance past the
/// previous id plus one: dense sets cost a byte per member, and any
/// decoded sequence is strictly ascending by construction.
#[derive(Default)]
struct Gaps {
    next: u64,
}

impl Gaps {
    fn put(&mut self, out: &mut Vec<u8>, id: u32) {
        debug_assert!(u64::from(id) >= self.next, "ids must be strictly ascending");
        put_u64(out, u64::from(id) - self.next);
        self.next = u64::from(id) + 1;
    }

    fn read(&mut self, cur: &mut Cursor<'_>, what: &str) -> Result<u32, FaircrowdError> {
        let gap = cur.u64(what)?;
        let id = self
            .next
            .checked_add(gap)
            .and_then(|id| u32::try_from(id).ok())
            .ok_or_else(|| cur.err(format_args!("{what} overflows a 32-bit id")))?;
        self.next = u64::from(id) + 1;
        Ok(id)
    }
}

fn put_ids<T: ArenaKey>(out: &mut Vec<u8>, ids: impl ExactSizeIterator<Item = T>) {
    put_u64(out, ids.len() as u64);
    let mut gaps = Gaps::default();
    for id in ids {
        gaps.put(out, id.raw_index());
    }
}

fn put_set_map<K: ArenaKey, V: ArenaKey>(out: &mut Vec<u8>, map: &DenseIdMap<K, IdSet<V>>) {
    put_u64(out, map.len() as u64);
    let mut keys = Gaps::default();
    for (k, set) in map.iter() {
        keys.put(out, k.raw_index());
        put_ids(out, set.iter());
    }
}

fn put_credit_map<K: ArenaKey>(out: &mut Vec<u8>, map: &DenseIdMap<K, Credits>) {
    put_u64(out, map.len() as u64);
    let mut keys = Gaps::default();
    for (k, amount) in map.iter() {
        keys.put(out, k.raw_index());
        put_credits(out, *amount);
    }
}

fn put_rows<T: ArenaKey>(out: &mut Vec<u8>, rows: &[(usize, Vec<T>)]) {
    put_u64(out, rows.len() as u64);
    for (seen, ids) in rows {
        put_u64(out, *seen as u64);
        put_ids(out, ids.iter().copied());
    }
}

// ---- decode ---------------------------------------------------------

/// Decode a checkpoint: gate 1 (every read bounds-checked, errors
/// naming the byte offset; the world blob through the `.fcb` trace
/// gates) and gate 2 (magic, schema name, version), plus the
/// header-vs-body seq cross-check. Gate 3 ([`Checkpoint::ensure_valid`])
/// runs in [`load`], the path untrusted files come through.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, FaircrowdError> {
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
    let seq = cur.u64_le("header seq")?;
    let events_seen = cur.u64("events_seen")?;
    if seq != events_seen {
        return Err(FaircrowdError::persist(format!(
            "header seq {seq} disagrees with the mirror's events_seen {events_seen} — \
             the checkpoint was stitched from two different moments"
        )));
    }
    let source_lines = cur.u64("source_lines")?;
    let last_time = cur.secs("last_time")?;
    let flags = cur.u8tag("flags", 4)?;
    let max_findings = cur.count("max_findings")?;
    let suppressed = cur.u64("suppressed")?;
    let len = cur.count("world length")?;
    let at = cur.pos();
    let world = trace_bin::trace_from_bytes(cur.take(len, "world")?).map_err(|e| match e {
        FaircrowdError::Persist { message, .. } => FaircrowdError::persist(format!(
            "binary checkpoint: world blob at byte {at}: {message}"
        )),
        other => other,
    })?;

    let mut mirror = EventIndex {
        visibility: read_set_map(&mut cur, "visibility")?,
        audience: read_set_map(&mut cur, "audience")?,
        payments: read_credit_map(&mut cur, "payments")?,
        earnings: read_credit_map(&mut cur, "earnings")?,
        flagged: read_set(&mut cur, "flagged")?,
        session_workers: read_set(&mut cur, "session_workers")?,
        informed_workers: read_set(&mut cur, "informed_workers")?,
        work_started: cur.count("work_started")?,
        ..EventIndex::default()
    };
    for _ in 0..cur.count("interruption count")? {
        mirror.interruptions.push(Interruption {
            task: TaskId::new(cur.id32("interrupted task")?),
            worker: WorkerId::new(cur.id32("interrupted worker")?),
            invested: cur.duration("invested")?,
            compensated: cur.bool("compensated")?,
        });
    }
    for _ in 0..cur.count("quit count")? {
        mirror.quits.push((
            WorkerId::new(cur.id32("quit worker")?),
            cur.named()?,
            cur.secs("quit time")?,
        ));
    }

    let qual_tasks = read_rows(&mut cur, "qual_tasks")?;
    let qual_workers = read_rows(&mut cur, "qual_workers")?;
    let similar_partners = read_caches(&mut cur, "similar_partners")?;
    let comparable_partners = read_caches(&mut cur, "comparable_partners")?;
    let a1_pairs = read_pairs(&mut cur, "a1_pairs")?;
    let a2_pairs = read_pairs(&mut cur, "a2_pairs")?;
    let a1_emitted = read_emitted(&mut cur, "a1_emitted")?;
    let a2_emitted = read_emitted(&mut cur, "a2_emitted")?;
    let mut a3_emitted = Vec::new();
    for _ in 0..cur.count("a3_emitted count")? {
        a3_emitted.push((
            SubmissionId::new(cur.id32("a3_emitted submission")?),
            SubmissionId::new(cur.id32("a3_emitted submission")?),
        ));
    }
    let mut a4_emitted = Vec::new();
    read_ids(&mut cur, "a4_emitted", |w| a4_emitted.push(w))?;
    let mut a6_emitted = Vec::new();
    read_ids(&mut cur, "a6_emitted", |t| a6_emitted.push(t))?;

    let mut findings = Vec::new();
    for _ in 0..cur.count("finding count")? {
        let origin = match cur.u8tag("finding origin", 4)? {
            0 => FindingOrigin::Setup,
            1 => FindingOrigin::Event {
                seq: cur.u64("finding seq")?,
                time: cur.secs("finding time")?,
            },
            2 => FindingOrigin::EndOfStream { last_seq: None },
            _ => FindingOrigin::EndOfStream {
                last_seq: Some(cur.u64("finding last_seq")?),
            },
        };
        let axiom = AxiomId::ALL[usize::from(cur.u8tag("axiom", AxiomId::ALL.len() as u8)?)];
        findings.push(LiveFinding {
            origin,
            violation: Violation {
                axiom,
                severity: cur.f64("severity")?,
                description: cur.string("description")?,
            },
        });
    }
    cur.finish()?;

    Ok(Checkpoint {
        world,
        mirror,
        events_seen,
        source_lines,
        last_time,
        policy_scanned: flags & 1 != 0,
        finalized: flags & 2 != 0,
        max_findings,
        suppressed,
        qual_tasks,
        qual_workers,
        similar_partners,
        comparable_partners,
        a1_pairs,
        a2_pairs,
        a1_emitted,
        a2_emitted,
        a3_emitted,
        a4_emitted,
        a6_emitted,
        findings,
    })
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

fn read_ids<T: ArenaKey>(
    cur: &mut Cursor<'_>,
    what: &str,
    mut each: impl FnMut(T),
) -> Result<(), FaircrowdError> {
    let mut gaps = Gaps::default();
    for _ in 0..cur.count(what)? {
        each(T::from_raw_index(gaps.read(cur, what)?));
    }
    Ok(())
}

fn read_set<T: ArenaKey>(cur: &mut Cursor<'_>, what: &str) -> Result<BTreeSet<T>, FaircrowdError> {
    let mut set = BTreeSet::new();
    read_ids(cur, what, |id| {
        set.insert(id);
    })?;
    Ok(set)
}

fn read_set_map<K: ArenaKey, V: ArenaKey>(
    cur: &mut Cursor<'_>,
    what: &str,
) -> Result<DenseIdMap<K, IdSet<V>>, FaircrowdError> {
    let mut map = DenseIdMap::new();
    let mut keys = Gaps::default();
    for _ in 0..cur.count(what)? {
        let key = K::from_raw_index(keys.read(cur, what)?);
        let mut set = IdSet::new();
        read_ids(cur, what, |id| {
            set.insert(id);
        })?;
        map.insert(key, set);
    }
    Ok(map)
}

fn read_credit_map<K: ArenaKey>(
    cur: &mut Cursor<'_>,
    what: &str,
) -> Result<DenseIdMap<K, Credits>, FaircrowdError> {
    let mut map = DenseIdMap::new();
    let mut keys = Gaps::default();
    for _ in 0..cur.count(what)? {
        let key = K::from_raw_index(keys.read(cur, what)?);
        map.insert(key, cur.credits(what)?);
    }
    Ok(map)
}

fn read_rows<T: ArenaKey>(
    cur: &mut Cursor<'_>,
    what: &str,
) -> Result<Vec<(usize, Vec<T>)>, FaircrowdError> {
    let mut rows = Vec::new();
    for _ in 0..cur.count(what)? {
        let seen = cur.count(what)?;
        let mut ids = Vec::new();
        read_ids(cur, what, |id| ids.push(id))?;
        rows.push((seen, ids));
    }
    Ok(rows)
}

fn read_caches(
    cur: &mut Cursor<'_>,
    what: &str,
) -> Result<Vec<(usize, Vec<usize>)>, FaircrowdError> {
    let mut caches = Vec::new();
    for _ in 0..cur.count(what)? {
        let seen = cur.count(what)?;
        let mut partners = Vec::new();
        for _ in 0..cur.count(what)? {
            partners.push(cur.count(what)?);
        }
        caches.push((seen, partners));
    }
    Ok(caches)
}

fn read_pairs(cur: &mut Cursor<'_>, what: &str) -> Result<Vec<[u64; 5]>, FaircrowdError> {
    let mut pairs = Vec::new();
    for _ in 0..cur.count(what)? {
        let mut row = [0u64; 5];
        for v in &mut row {
            *v = cur.u64(what)?;
        }
        pairs.push(row);
    }
    Ok(pairs)
}

fn read_emitted(cur: &mut Cursor<'_>, what: &str) -> Result<Vec<(u64, u64)>, FaircrowdError> {
    let mut pairs = Vec::new();
    for _ in 0..cur.count(what)? {
        pairs.push((cur.u64(what)?, cur.u64(what)?));
    }
    Ok(pairs)
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
