//! The shared audit index: one pass over a trace, consumed by everything.
//!
//! All seven axiom checkers (and the objective metrics) are functions of
//! the same [`Trace`], yet they used to re-derive their own visibility /
//! audience / payment maps and run naive `O(n²)` scans over all worker,
//! task and submission pairs. A [`TraceIndex`] is built **once** per
//! trace and owns every derived structure the audit layer reads:
//!
//! * the log-derived maps ([`faircrowd_model::trace::EventIndex`],
//!   replayed from the event log in a single pass), the access sets
//!   among them as id-keyed bit rows ([`IdSet`]);
//! * submissions grouped by task, and the set of workers who submitted;
//! * the worker ⇄ task qualification relation Axioms 1–2 intersect
//!   against (computed lazily, shared between both axioms);
//! * **candidate pair streams** ([`CandidatePairs`]) for the pairwise
//!   axioms: one admissible-partner bit row per distinct skill-vector
//!   set-bit count, so A1 and A2 only compare pairs whose counts could
//!   clear the configured similarity threshold
//!   ([`SkillMeasure::count_admissible`]); A2's rows also drop the
//!   same-requester partners its quantifier excludes.
//!
//! Blocking here is **lossless**: the count predicate is a necessary
//! condition for the exact kernel to reach the threshold, every
//! surviving candidate is re-checked with the exact kernel, and
//! candidates are walked off the rows in the same `(i, j)` order the
//! naive double loop visits — no pair list is built or sorted. Reports
//! produced through the index are therefore bit-identical to the
//! retained naive reference implementation ([`crate::axioms::naive`]) —
//! pinned by the route harness (`tests/routes.rs`) on random and catalog
//! traces. The rows cost a few words per entity to build, so every trace
//! size takes the same path.
//!
//! For the A1/A2 inner loops the qualification and access relations
//! are **dense bit matrices** (64-entity words, rows per worker/task
//! position), so each surviving candidate pair costs a few word-AND +
//! popcount passes instead of `BTreeSet` intersections — the dominant
//! cost of the naive scan at scale. A pair's score needs no counts when
//! its two restricted access sets are equal (the overlap is exactly
//! 1.0, as in every pair of a fair market), and only `|∩|` and `|∪|`
//! otherwise; the four counts a witness prints are taken only for a
//! violating pair. The qualification matrices are
//! built straight from the entity tables; the access matrices are
//! re-keyed from the event index's id rows to table positions.
//! Precondition shared with the naive path's id-keyed maps:
//! entity ids in `trace.workers` / `trace.tasks` are unique (simulator
//! traces and well-formed hand-built traces always are).
//!
//! [`SkillMeasure::count_admissible`]: faircrowd_model::similarity::SkillMeasure::count_admissible

use faircrowd_model::arena::{ArenaKey, DenseIdMap, IdSet};
use faircrowd_model::contribution::{Contribution, Submission};
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::time::SimTime;
use faircrowd_model::trace::{EventIndex, Interruption, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Below this many items [`contribution_candidates`] returns all pairs
/// directly: grouping a handful of contributions costs more than it
/// prunes.
pub const EXACT_SCAN_MAX: usize = 32;

/// Dense id → position maps for the bit-row scans — arena-backed, so a
/// probe is an array index rather than a tree descent.
#[derive(Debug)]
struct Positions {
    worker: DenseIdMap<WorkerId, usize>,
    task: DenseIdMap<TaskId, usize>,
}

/// The qualification relation as two dense bit matrices (row-major,
/// 64-bit words): per worker a row over task positions, per task a row
/// over worker positions. This is what makes the A1/A2 per-pair work a
/// handful of word-AND + popcount passes instead of `BTreeSet`
/// intersections — the dominant cost of the naive scan at scale.
#[derive(Debug, Clone)]
struct DenseQualified {
    task_width: usize,
    worker_width: usize,
    by_worker: Vec<u64>,
    by_task: Vec<u64>,
}

/// The access relation (visibility / audience) as dense bit matrices
/// with the same layout as [`DenseQualified`]: the event index's id
/// rows, re-keyed to table positions. Event-derived, so never carried
/// across traces.
#[derive(Debug)]
struct DenseAccess {
    visible: Vec<u64>,
    audience: Vec<u64>,
}

/// Overlap counts for one candidate pair, read off the dense bit rows.
/// `left`/`right` are the two access sets restricted to the pair's
/// common qualified entities; `inter` their intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOverlap {
    /// `|qualified(i) ∩ qualified(j)|`.
    pub common: usize,
    /// `|access(i) ∩ common|`.
    pub left: usize,
    /// `|access(j) ∩ common|`.
    pub right: usize,
    /// `|access(i) ∩ access(j) ∩ common|`.
    pub inter: usize,
}

impl AccessOverlap {
    /// Jaccard overlap of the two restricted access sets.
    ///
    /// The empty-set case is **defined**, not derived: when both
    /// restricted access sets are empty, materialising them and dividing
    /// `|∩|` by `|∪|` would be `0/0` — a NaN that every threshold
    /// comparison downstream silently absorbs (NaN compares false, so a
    /// poisoned pair is neither a violation nor a satisfaction and the
    /// mean score goes NaN with it). This method pins that case to
    /// `1.0`: two workers (or tasks) that were both shown *nothing* of
    /// their common-qualified universe received identical — equally
    /// empty — access, which is exactly what Axioms 1–2 ask for. The
    /// result is always finite and in `[0, 1]`; regression-tested
    /// end-to-end through `similar_worker_candidates` with zero-access
    /// worker pairs.
    pub fn jaccard(&self) -> f64 {
        if self.left == 0 && self.right == 0 {
            return 1.0;
        }
        self.inter as f64 / (self.left + self.right - self.inter) as f64
    }
}

/// Candidate pairs `(i, j)`, `i < j`, over the positions of one entity
/// table, streamed in ascending `(i, j)` order — the order of the naive
/// double loop over the surviving pairs — without building a pair list.
///
/// Two row tables, each row `width` words over entity positions: one
/// admissible-partner row per distinct skill-set count (every position
/// whose count [`SkillMeasure::count_admissible`] admits against it), and
/// one excluded-partner row per exclusion group (the group's own
/// positions; a single empty row when nothing is excluded). Row `i` of
/// the stream is its count's row `AND NOT` its group's row, walked from
/// bit `i + 1` up with `trailing_zeros`. The group rows take `g × n`
/// bits: at most `n²` when every task has its own requester, the size
/// of a qualification matrix over a crowd as large as the task table.
///
/// [`SkillMeasure::count_admissible`]: faircrowd_model::similarity::SkillMeasure::count_admissible
#[derive(Debug)]
pub struct CandidatePairs {
    n: usize,
    width: usize,
    /// Per position: its admissible row and its excluded row.
    rows_of: Vec<(u32, u32)>,
    admissible: Vec<u64>,
    excluded: Vec<u64>,
    /// The cursor: current row, word within it, and that word's bits
    /// not yet emitted.
    i: usize,
    k: usize,
    word: u64,
}

impl CandidatePairs {
    /// The stream over positions with set-bit counts `counts`, admitting
    /// a pair when `admit(count_i, count_j)` holds and, when `groups` is
    /// given, `groups[i] != groups[j]`. `groups` holds dense indices
    /// `0..g`, one per position.
    fn new(
        counts: &[usize],
        groups: Option<&[u32]>,
        admit: impl Fn(usize, usize) -> bool,
    ) -> CandidatePairs {
        let n = counts.len();
        let width = n.div_ceil(64);
        let mut distinct = counts.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let class: Vec<u32> = counts
            .iter()
            .map(|c| distinct.binary_search(c).expect("count is present") as u32)
            .collect();
        let members = member_rows(&class, distinct.len(), width);
        let mut admissible = vec![0u64; distinct.len() * width];
        for (a, &ca) in distinct.iter().enumerate() {
            for (b, &cb) in distinct.iter().enumerate() {
                if admit(ca, cb) {
                    let row = &mut admissible[a * width..(a + 1) * width];
                    for (w, m) in row.iter_mut().zip(&members[b * width..(b + 1) * width]) {
                        *w |= m;
                    }
                }
            }
        }
        let (group_of, excluded) = match groups {
            Some(groups) => {
                let g = groups.iter().max().map_or(0, |&m| m as usize + 1);
                (groups.to_vec(), member_rows(groups, g, width))
            }
            None => (vec![0; n], vec![0u64; width]),
        };
        let mut pairs = CandidatePairs {
            n,
            width,
            rows_of: class.into_iter().zip(group_of).collect(),
            admissible,
            excluded,
            i: 0,
            k: 0,
            word: 0,
        };
        pairs.seek_row();
        pairs
    }

    /// Word `k` of row `i`: admissible partners minus excluded ones.
    fn load(&self, i: usize, k: usize) -> u64 {
        let (a, g) = self.rows_of[i];
        self.admissible[a as usize * self.width + k] & !self.excluded[g as usize * self.width + k]
    }

    /// Point the cursor at the first word of row `self.i` holding
    /// partners above `i`.
    fn seek_row(&mut self) {
        let first = self.i + 1;
        self.k = first / 64;
        self.word = if self.k < self.width {
            self.load(self.i, self.k) & (u64::MAX << (first % 64))
        } else {
            0
        };
    }
}

impl Iterator for CandidatePairs {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.i < self.n {
            if self.word != 0 {
                let j = self.k * 64 + self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some((self.i, j));
            }
            self.k += 1;
            if self.k < self.width {
                self.word = self.load(self.i, self.k);
            } else {
                self.i += 1;
                if self.i < self.n {
                    self.seek_row();
                }
            }
        }
        None
    }
}

/// One row per class over positions: the positions in that class.
fn member_rows(class_of: &[u32], classes: usize, width: usize) -> Vec<u64> {
    let mut rows = vec![0u64; classes * width];
    for (p, &c) in class_of.iter().enumerate() {
        rows[c as usize * width + p / 64] |= 1u64 << (p % 64);
    }
    rows
}

/// Every derived structure an audit reads, built once per trace.
///
/// Cheap slices (log replay, submission groupings) are built eagerly in
/// [`TraceIndex::new`]; the quadratic-ish ones (qualification and
/// access bit matrices) are built lazily on first use and shared across
/// the axioms — and across threads, since the audit engine fans the
/// seven checkers out over a scoped pool against one `&TraceIndex`.
#[derive(Debug)]
pub struct TraceIndex<'a> {
    trace: &'a Trace,
    events: EventIndex,
    subs_by_task: BTreeMap<TaskId, Vec<&'a Submission>>,
    submitters: BTreeSet<WorkerId>,
    positions: OnceLock<Positions>,
    dense_qualified: OnceLock<DenseQualified>,
    dense_access: OnceLock<DenseAccess>,
}

impl<'a> TraceIndex<'a> {
    /// Index a trace: one pass over the event log, one over the
    /// submissions. The bit matrices are deferred until an axiom asks
    /// for them.
    pub fn new(trace: &'a Trace) -> TraceIndex<'a> {
        Self::build(trace, trace.event_index())
    }

    /// Index a trace around a **pre-built** event-derived state — the
    /// streaming-audit path. `faircrowd_core::live`'s `LiveAuditor`
    /// maintains an [`EventIndex`] mirror incrementally, one event at a
    /// time; at finalisation it hands that mirror here so the closing
    /// audit never replays the log it already watched. The caller owns
    /// the contract that `events` equals `trace.event_index()` (the
    /// live auditor's ingest rules guarantee it; debug builds
    /// re-derive and assert — only on this handover path, so
    /// [`TraceIndex::new`] never pays for a tautological
    /// self-comparison).
    pub(crate) fn with_event_index(trace: &'a Trace, events: EventIndex) -> TraceIndex<'a> {
        debug_assert_eq!(
            events,
            trace.event_index(),
            "pre-built event index must equal a fresh log replay"
        );
        Self::build(trace, events)
    }

    /// [`with_event_index`](Self::with_event_index) for a **restored**
    /// auditor, whose trace holds only the log tail ingested since its
    /// checkpoint: the mirror covers the full stream, but replaying the
    /// truncated log cannot reproduce it, so the debug assertion of the
    /// uninterrupted handover would be wrong here, not just expensive.
    /// The checkpoint load gates own the integrity contract instead.
    pub(crate) fn with_restored_event_index(
        trace: &'a Trace,
        events: EventIndex,
    ) -> TraceIndex<'a> {
        Self::build(trace, events)
    }

    fn build(trace: &'a Trace, events: EventIndex) -> TraceIndex<'a> {
        let mut subs_by_task: BTreeMap<TaskId, Vec<&'a Submission>> = BTreeMap::new();
        let mut submitters = BTreeSet::new();
        for s in &trace.submissions {
            subs_by_task.entry(s.task).or_default().push(s);
            submitters.insert(s.worker);
        }
        TraceIndex {
            trace,
            events,
            subs_by_task,
            submitters,
            positions: OnceLock::new(),
            dense_qualified: OnceLock::new(),
            dense_access: OnceLock::new(),
        }
    }

    /// Re-index a follow-up trace (the pipeline's enforce → re-audit
    /// pass), carrying over the qualification bit matrices when both
    /// entity tables are unchanged — the one slice that depends on the
    /// tables alone. Log-derived slices are always replayed — comparing
    /// the log costs as much as replaying it.
    pub fn rebuilt_for<'b>(&self, trace: &'b Trace) -> TraceIndex<'b> {
        let ix = TraceIndex::new(trace);
        if self.trace.workers == trace.workers && self.trace.tasks == trace.tasks {
            if let Some(d) = self.dense_qualified.get() {
                let _ = ix.dense_qualified.set(d.clone());
            }
        }
        ix
    }

    /// The indexed trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Per worker, the tasks made visible to her (every worker appears).
    pub fn visibility(&self) -> &DenseIdMap<WorkerId, IdSet<TaskId>> {
        &self.events.visibility
    }

    /// Per task, the workers it was shown to (every task appears).
    pub fn audience(&self) -> &DenseIdMap<TaskId, IdSet<WorkerId>> {
        &self.events.audience
    }

    /// Total amount actually paid per submission.
    pub fn payments(&self) -> &DenseIdMap<SubmissionId, Credits> {
        &self.events.payments
    }

    /// Total earnings per worker (payments plus honoured bonuses).
    pub fn earnings(&self) -> &DenseIdMap<WorkerId, Credits> {
        &self.events.earnings
    }

    /// Workers flagged by any detector.
    pub fn flagged(&self) -> &BTreeSet<WorkerId> {
        &self.events.flagged
    }

    /// Workers who had at least one session.
    pub fn session_workers(&self) -> &BTreeSet<WorkerId> {
        &self.events.session_workers
    }

    /// Workers who were shown at least one disclosure.
    pub fn informed_workers(&self) -> &BTreeSet<WorkerId> {
        &self.events.informed_workers
    }

    /// Number of `WorkStarted` events.
    pub fn work_started(&self) -> usize {
        self.events.work_started
    }

    /// Every interruption, in log order.
    pub fn interruptions(&self) -> &[Interruption] {
        &self.events.interruptions
    }

    /// Workers who quit, with reasons, in log order.
    pub fn quits(&self) -> &[(WorkerId, faircrowd_model::event::QuitReason, SimTime)] {
        &self.events.quits
    }

    /// Submissions grouped by task, in submission order.
    pub fn submissions_by_task(&self) -> &BTreeMap<TaskId, Vec<&'a Submission>> {
        &self.subs_by_task
    }

    /// Workers who submitted at least once (the Axiom 4 "active" set).
    pub fn submitters(&self) -> &BTreeSet<WorkerId> {
        &self.submitters
    }

    fn positions(&self) -> &Positions {
        self.positions.get_or_init(|| Positions {
            worker: self
                .trace
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| (w.id, i))
                .collect(),
            task: self
                .trace
                .tasks
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id, i))
                .collect(),
        })
    }

    fn dense_qualified(&self) -> &DenseQualified {
        self.dense_qualified.get_or_init(|| {
            let workers = &self.trace.workers;
            let tasks = &self.trace.tasks;
            let task_width = tasks.len().div_ceil(64).max(1);
            let worker_width = workers.len().div_ceil(64).max(1);
            let mut by_worker = vec![0u64; workers.len() * task_width];
            let mut by_task = vec![0u64; tasks.len() * worker_width];
            for (wi, w) in workers.iter().enumerate() {
                for (ti, t) in tasks.iter().enumerate() {
                    if w.qualifies_for(t) {
                        by_worker[wi * task_width + ti / 64] |= 1u64 << (ti % 64);
                        by_task[ti * worker_width + wi / 64] |= 1u64 << (wi % 64);
                    }
                }
            }
            DenseQualified {
                task_width,
                worker_width,
                by_worker,
                by_task,
            }
        })
    }

    fn dense_access(&self) -> &DenseAccess {
        self.dense_access.get_or_init(|| {
            let dq = self.dense_qualified();
            let pos = self.positions();
            let mut visible = vec![0u64; self.trace.workers.len() * dq.task_width];
            let mut audience = vec![0u64; self.trace.tasks.len() * dq.worker_width];
            // Rows are filled per entity *position* (looked up by id), so
            // every position sees exactly the access set the id-keyed
            // rows hold. Access events referencing entities outside the
            // tables never survive the intersection with the qualified
            // rows, so dropping them here is exact.
            for (wi, w) in self.trace.workers.iter().enumerate() {
                if let Some(tasks) = self.events.visibility.get(w.id) {
                    let row = &mut visible[wi * dq.task_width..(wi + 1) * dq.task_width];
                    fill_row(row, tasks, &pos.task);
                }
            }
            for (ti, t) in self.trace.tasks.iter().enumerate() {
                if let Some(workers) = self.events.audience.get(t.id) {
                    let row = &mut audience[ti * dq.worker_width..(ti + 1) * dq.worker_width];
                    fill_row(row, workers, &pos.worker);
                }
            }
            DenseAccess { visible, audience }
        })
    }

    /// The Axiom 1 per-pair quantities for workers at positions `i` and
    /// `j`: sizes of the common qualified task set, each worker's
    /// visible tasks restricted to it, and their intersection — four
    /// AND/popcount passes over the dense bit rows, no allocation.
    pub fn worker_access_overlap(&self, i: usize, j: usize) -> AccessOverlap {
        self.worker_rows(i, j).overlap()
    }

    /// [`worker_access_overlap`](Self::worker_access_overlap)`(i, j).jaccard()`,
    /// bit for bit, without counting the sets when they are equal.
    pub fn worker_access_jaccard(&self, i: usize, j: usize) -> f64 {
        self.worker_rows(i, j).jaccard()
    }

    /// The Axiom 2 per-pair quantities for tasks at positions `i` and
    /// `j`: common qualified workers, each task's audience restricted to
    /// them, and the intersection.
    pub fn task_audience_overlap(&self, i: usize, j: usize) -> AccessOverlap {
        self.task_rows(i, j).overlap()
    }

    /// [`task_audience_overlap`](Self::task_audience_overlap)`(i, j).jaccard()`,
    /// bit for bit, without counting the sets when they are equal.
    pub fn task_audience_jaccard(&self, i: usize, j: usize) -> f64 {
        self.task_rows(i, j).jaccard()
    }

    fn worker_rows(&self, i: usize, j: usize) -> PairRows<'_> {
        let (dq, da) = (self.dense_qualified(), self.dense_access());
        PairRows::of(dq.task_width, &dq.by_worker, &da.visible, i, j)
    }

    fn task_rows(&self, i: usize, j: usize) -> PairRows<'_> {
        let (dq, da) = (self.dense_qualified(), self.dense_access());
        PairRows::of(dq.worker_width, &dq.by_task, &da.audience, i, j)
    }

    /// Candidate worker pairs for Axiom 1: every pair whose skill-set
    /// counts could clear `cfg.worker_threshold` under the configured
    /// kernel, ascending. A superset of the truly similar pairs — the
    /// checker still applies the exact composite similarity.
    pub fn similar_worker_candidates(&self, cfg: &SimilarityConfig) -> CandidatePairs {
        let counts: Vec<usize> = self
            .trace
            .workers
            .iter()
            .map(|w| w.skills.count())
            .collect();
        CandidatePairs::new(&counts, None, |a, b| {
            cfg.skill_measure
                .count_admissible(a, b, cfg.worker_threshold)
        })
    }

    /// Candidate task pairs for Axiom 2: pairs of tasks posted by
    /// different requesters, blocked the same way under
    /// `cfg.task_skill_threshold`, ascending. Reward comparability and
    /// the exact kernel stay with the checker.
    pub fn comparable_task_candidates(&self, cfg: &SimilarityConfig) -> CandidatePairs {
        let tasks = &self.trace.tasks;
        let counts: Vec<usize> = tasks.iter().map(|t| t.skills.count()).collect();
        let mut requesters = BTreeMap::new();
        let groups: Vec<u32> = tasks
            .iter()
            .map(|t| {
                let next = requesters.len() as u32;
                *requesters.entry(t.requester).or_insert(next)
            })
            .collect();
        CandidatePairs::new(&counts, Some(&groups), |a, b| {
            cfg.skill_measure
                .count_admissible(a, b, cfg.task_skill_threshold)
        })
    }
}

/// Set the bit of every member's table position in one position row.
fn fill_row<T: ArenaKey>(row: &mut [u64], members: &IdSet<T>, positions: &DenseIdMap<T, usize>) {
    for id in members.iter() {
        if let Some(&p) = positions.get(id) {
            row[p / 64] |= 1u64 << (p % 64);
        }
    }
}

/// The four equal-width bit rows one pair's overlap reads: both
/// entities' qualified rows and access rows.
struct PairRows<'r> {
    qi: &'r [u64],
    qj: &'r [u64],
    ai: &'r [u64],
    aj: &'r [u64],
}

impl<'r> PairRows<'r> {
    /// Rows `i` and `j` of a qualified and an access matrix of `width`
    /// words per row.
    fn of(width: usize, qualified: &'r [u64], access: &'r [u64], i: usize, j: usize) -> Self {
        let row = |rows: &'r [u64], p: usize| &rows[p * width..(p + 1) * width];
        PairRows {
            qi: row(qualified, i),
            qj: row(qualified, j),
            ai: row(access, i),
            aj: row(access, j),
        }
    }

    /// Word `k` of both access rows, restricted to the common qualified
    /// entities.
    fn restricted(&self, k: usize) -> (u64, u64, u64) {
        let common = self.qi[k] & self.qj[k];
        (common, self.ai[k] & common, self.aj[k] & common)
    }

    fn overlap(&self) -> AccessOverlap {
        let mut o = AccessOverlap {
            common: 0,
            left: 0,
            right: 0,
            inter: 0,
        };
        for k in 0..self.qi.len() {
            let (common, l, r) = self.restricted(k);
            o.common += common.count_ones() as usize;
            o.left += l.count_ones() as usize;
            o.right += r.count_ones() as usize;
            o.inter += (l & r).count_ones() as usize;
        }
        o
    }

    /// [`AccessOverlap::jaccard`] of [`overlap`](Self::overlap). Equal
    /// restricted sets (both empty included) score exactly 1.0, so they
    /// are settled by one compare pass with no counting — every pair of
    /// a fair market. Otherwise `|∩| / |∪|` is the same integer quotient
    /// `inter / (left + right - inter)` is.
    fn jaccard(&self) -> f64 {
        let differ = (0..self.qi.len()).any(|k| {
            let (_, l, r) = self.restricted(k);
            l != r
        });
        if !differ {
            return 1.0;
        }
        let (mut inter, mut union) = (0u32, 0u32);
        for k in 0..self.qi.len() {
            let (_, l, r) = self.restricted(k);
            inter += (l & r).count_ones();
            union += (l | r).count_ones();
        }
        f64::from(inter) / f64::from(union)
    }
}

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j));
        }
    }
    pairs
}

/// Candidate item pairs for contribution-similarity scans (Axiom 3, the
/// payment equaliser): pairs that could score at or above `threshold`
/// under [`Contribution::similarity`], ascending. Cross-kind pairs and
/// unequal-label pairs score exactly 0, so for any positive threshold
/// they are pruned without being evaluated; everything else is kept and
/// re-checked exactly by the caller.
pub fn contribution_candidates<T, F>(items: &[T], key: F, threshold: f64) -> Vec<(usize, usize)>
where
    F: Fn(&T) -> &Contribution,
{
    if threshold <= 0.0 || items.len() <= EXACT_SCAN_MAX {
        return all_pairs(items.len());
    }
    // Coarse key: contributions in different groups have similarity 0.
    let coarse = |c: &Contribution| -> (u8, u32) {
        match c {
            Contribution::Label(l) => (0, u32::from(*l)),
            Contribution::Text(_) => (1, 0),
            Contribution::Ranking(_) => (2, 0),
            Contribution::Numeric(_) => (3, 0),
        }
    };
    let mut groups: BTreeMap<(u8, u32), Vec<usize>> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        groups.entry(coarse(key(item))).or_default().push(i);
    }
    let mut pairs = Vec::new();
    for members in groups.values() {
        for (x, &i) in members.iter().enumerate() {
            for &j in &members[x + 1..] {
                pairs.push((i, j));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_model::attributes::DeclaredAttrs;
    use faircrowd_model::event::EventKind;
    use faircrowd_model::ids::{RequesterId, SkillId};
    use faircrowd_model::similarity::SkillMeasure;
    use faircrowd_model::skills::SkillVector;
    use faircrowd_model::task::TaskBuilder;
    use faircrowd_model::worker::Worker;

    fn skills(n_set: usize, len: usize) -> SkillVector {
        let mut v = SkillVector::with_len(len);
        for i in 0..n_set {
            v.set(SkillId::new(i as u32), true);
        }
        v
    }

    fn trace_with_counts(counts: &[usize]) -> Trace {
        let mut trace = Trace::default();
        for (i, &c) in counts.iter().enumerate() {
            trace.workers.push(Worker::new(
                WorkerId::new(i as u32),
                DeclaredAttrs::new(),
                skills(c, 8),
            ));
            trace.tasks.push(
                TaskBuilder::new(
                    TaskId::new(i as u32),
                    RequesterId::new(0),
                    skills(c, 8),
                    Credits::from_cents(10),
                )
                .build(),
            );
        }
        trace
    }

    /// The oracle for both streams: the exhaustive `i < j` double loop,
    /// filtered by the count bound and, when `requesters` is given, by
    /// different requesters.
    fn exhaustive(
        counts: &[usize],
        requesters: Option<&[u32]>,
        measure: SkillMeasure,
        threshold: f64,
    ) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..counts.len() {
            for j in (i + 1)..counts.len() {
                if measure.count_admissible(counts[i], counts[j], threshold)
                    && requesters.is_none_or(|r| r[i] != r[j])
                {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// `n` workers and `n` tasks with scattered skill-set counts, task
    /// `i` posted by requester `requester(i)`.
    fn table(n: usize, requester: impl Fn(usize) -> u32) -> Trace {
        let counts: Vec<usize> = (0..n).map(|i| (i * 7 + i / 5) % 9).collect();
        let mut trace = trace_with_counts(&counts);
        for (i, t) in trace.tasks.iter_mut().enumerate() {
            t.requester = RequesterId::new(requester(i));
        }
        trace
    }

    #[test]
    fn candidate_streams_equal_the_exhaustive_loop() {
        let measures = [
            SkillMeasure::Exact,
            SkillMeasure::Cosine,
            SkillMeasure::Jaccard,
            SkillMeasure::Dice,
        ];
        // Word boundaries (63, 64, 65, 129) and the old exact-scan cut
        // (31, 32, 33).
        for n in [31, 32, 33, 63, 64, 65, 129] {
            let trace = table(n, |i| (i % 3) as u32);
            let ix = TraceIndex::new(&trace);
            let counts: Vec<usize> = trace.workers.iter().map(|w| w.skills.count()).collect();
            let requesters: Vec<u32> = trace.tasks.iter().map(|t| t.requester.raw()).collect();
            for measure in measures {
                for threshold in [0.0, 0.9, 1.0] {
                    let cfg = SimilarityConfig {
                        skill_measure: measure,
                        worker_threshold: threshold,
                        task_skill_threshold: threshold,
                        ..SimilarityConfig::default()
                    };
                    let at = format!("{} ≥ {threshold}, n = {n}", measure.name());
                    let workers: Vec<_> = ix.similar_worker_candidates(&cfg).collect();
                    assert_eq!(
                        workers,
                        exhaustive(&counts, None, measure, threshold),
                        "{at}"
                    );
                    let tasks: Vec<_> = ix.comparable_task_candidates(&cfg).collect();
                    assert_eq!(
                        tasks,
                        exhaustive(&counts, Some(&requesters), measure, threshold),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_requester_leaves_axiom_2_vacuous() {
        use crate::axiom::Axiom;
        let cfg = SimilarityConfig {
            task_skill_threshold: 0.0,
            ..SimilarityConfig::default()
        };
        for n in [1, 33, 129] {
            let trace = table(n, |_| 4);
            let ix = TraceIndex::new(&trace);
            assert_eq!(ix.comparable_task_candidates(&cfg).next(), None, "n = {n}");
            let report = crate::axioms::RequesterAssignmentFairness.check(&ix, &cfg, 10);
            assert_eq!(report.checked, 0, "n = {n}");
        }
    }

    #[test]
    fn own_requesters_exclude_nothing() {
        for n in [0, 1, 2, 65, 129] {
            let trace = table(n, |i| i as u32);
            let ix = TraceIndex::new(&trace);
            let cfg = SimilarityConfig::default();
            let workers: Vec<_> = ix.similar_worker_candidates(&cfg).collect();
            let tasks: Vec<_> = ix.comparable_task_candidates(&cfg).collect();
            assert_eq!(tasks, workers, "n = {n}");
        }
    }

    #[test]
    fn contribution_blocking_prunes_only_zero_similarity_pairs() {
        let items: Vec<Contribution> = (0..40)
            .map(|i| match i % 3 {
                0 => Contribution::Label(u8::from(i % 2 == 0)),
                1 => Contribution::Text(format!("text {i}")),
                _ => Contribution::Numeric(f64::from(i)),
            })
            .collect();
        let candidates = contribution_candidates(&items, |c| c, 0.85);
        let set: BTreeSet<(usize, usize)> = candidates.iter().copied().collect();
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if !set.contains(&(i, j)) {
                    assert_eq!(
                        items[i].similarity(&items[j]),
                        0.0,
                        "pruned pair ({i},{j}) must be provably dissimilar"
                    );
                }
            }
        }
        // Zero threshold means no pruning at all.
        assert_eq!(
            contribution_candidates(&items, |c| c, 0.0).len(),
            items.len() * (items.len() - 1) / 2
        );
    }

    #[test]
    fn rebuilt_for_carries_untouched_slices_over() {
        // The qualification matrices are the one slice a follow-up trace
        // can share: they depend on the entity tables alone.
        let trace = trace_with_counts(&[1, 2, 3, 4]);
        let ix = TraceIndex::new(&trace);
        let _ = ix.worker_access_overlap(0, 1); // force the lazy build
        let mut paid = trace.clone();
        paid.events.push(
            SimTime::from_secs(1),
            EventKind::PaymentIssued {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                amount: Credits::from_cents(5),
            },
        );
        // Entities unchanged: the qualification matrices carry over …
        let reused = ix.rebuilt_for(&paid);
        assert!(reused.dense_qualified.get().is_some());
        assert!(
            reused.dense_access.get().is_none(),
            "access is event-derived"
        );
        // … while the log-derived slices reflect the new event.
        assert_eq!(
            reused.payments().get(SubmissionId::new(0)),
            Some(&Credits::from_cents(5))
        );
        // Touch either entity table and the matrices are rebuilt.
        let mut reworked = trace.clone();
        reworked.workers[0].skills = skills(7, 8);
        assert!(ix.rebuilt_for(&reworked).dense_qualified.get().is_none());
        let mut retasked = trace.clone();
        retasked.tasks[0].skills = skills(7, 8);
        assert!(ix.rebuilt_for(&retasked).dense_qualified.get().is_none());
    }

    #[test]
    fn jaccard_empty_set_semantics_are_pinned() {
        // The 0/0 case must be a defined 1.0 (identical — equally empty —
        // access), never the NaN a literal |∩|/|∪| division would
        // produce: a NaN here compares false against every threshold and
        // silently poisons pair selection and the mean axiom score.
        let o = AccessOverlap {
            common: 0,
            left: 0,
            right: 0,
            inter: 0,
        };
        assert_eq!(o.jaccard(), 1.0);
        let o = AccessOverlap {
            common: 3,
            left: 0,
            right: 0,
            inter: 0,
        };
        assert_eq!(
            o.jaccard(),
            1.0,
            "common-qualified tasks that neither worker saw are equal (empty) access"
        );
        assert!(!o.jaccard().is_nan());
    }

    #[test]
    fn zero_access_pairs_flow_through_candidate_selection_without_nan() {
        // End-to-end regression via `similar_worker_candidates`: a trace
        // of 40 workers where many similar pairs saw nothing at all. Every candidate pair's overlap must be finite,
        // and the all-empty pairs must score exactly 1.0.
        let counts: Vec<usize> = (0..40).map(|i| i % 5).collect();
        let mut trace = trace_with_counts(&counts);
        // Show a single task to a single worker; every other pair's
        // restricted access sets stay empty on both sides.
        trace.events.push(
            SimTime::from_secs(1),
            EventKind::TaskVisible {
                task: TaskId::new(0),
                worker: WorkerId::new(0),
            },
        );
        let ix = TraceIndex::new(&trace);
        let cfg = SimilarityConfig::default();
        let candidates: Vec<_> = ix.similar_worker_candidates(&cfg).collect();
        assert!(!candidates.is_empty());
        let mut saw_empty_pair = false;
        for (i, j) in candidates {
            let o = ix.worker_access_overlap(i, j);
            let jac = o.jaccard();
            assert!(
                jac.is_finite(),
                "pair ({i},{j}) produced a non-finite overlap"
            );
            assert!((0.0..=1.0).contains(&jac));
            if o.left == 0 && o.right == 0 {
                saw_empty_pair = true;
                assert_eq!(jac, 1.0);
            }
        }
        assert!(saw_empty_pair, "fixture must exercise the 0/0 case");
        // The full A1 checker over this trace keeps a finite score too.
        use crate::axiom::Axiom;
        let report = crate::axioms::WorkerAssignmentFairness.check(&ix, &cfg, 10);
        assert!(report.score.is_finite(), "A1 score must never be NaN");
    }

    #[test]
    fn pair_jaccard_is_the_overlap_jaccard_bit_for_bit() {
        // Sparse, dense, equal and disjoint rows over 1–3 words: the
        // compare-first quotient must equal the four-count one exactly.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2_000 {
            let width = 1 + case % 3;
            let mut row = |density: u64| -> Vec<u64> {
                (0..width)
                    .map(|_| (0..density).fold(u64::MAX, |w, _| w & next()))
                    .collect()
            };
            let (qi, qj, ai) = (row(case as u64 % 3), row(1), row(case as u64 % 4));
            let aj = match case % 4 {
                0 => ai.clone(),
                1 => vec![0; width],
                _ => row(case as u64 % 5),
            };
            let rows = PairRows {
                qi: &qi,
                qj: &qj,
                ai: &ai,
                aj: &aj,
            };
            assert_eq!(
                rows.jaccard().to_bits(),
                rows.overlap().jaccard().to_bits(),
                "case {case}"
            );
        }
    }

    #[test]
    fn with_event_index_accepts_the_replayed_state() {
        let trace = trace_with_counts(&[1, 2, 3]);
        let ix = TraceIndex::with_event_index(&trace, trace.event_index());
        assert_eq!(ix.visibility().len(), 3);
    }

    #[test]
    fn qualification_matrices_are_mutually_consistent() {
        let trace = trace_with_counts(&[0, 3, 8]);
        let ix = TraceIndex::new(&trace);
        let dq = ix.dense_qualified();
        let bit = |rows: &[u64], width: usize, row: usize, col: usize| {
            rows[row * width + col / 64] >> (col % 64) & 1 != 0
        };
        for (wi, w) in trace.workers.iter().enumerate() {
            for (ti, t) in trace.tasks.iter().enumerate() {
                let by_worker = bit(&dq.by_worker, dq.task_width, wi, ti);
                assert_eq!(by_worker, bit(&dq.by_task, dq.worker_width, ti, wi));
                assert_eq!(by_worker, w.qualifies_for(t), "worker {wi}, task {ti}");
            }
        }
    }

    #[test]
    fn access_rows_are_the_id_rows_at_table_positions() {
        // Ids out of table order, an outlier id, and an event about an
        // undeclared task: each position row holds exactly its entity's
        // declared accesses.
        let mut trace = trace_with_counts(&[2, 2, 2]);
        trace.workers.reverse();
        trace.tasks[1].id = TaskId::new(4_000_000);
        for (task, worker) in [(4_000_000, 2), (0, 2), (2, 0), (77, 1)] {
            trace.events.push(
                SimTime::from_secs(1),
                EventKind::TaskVisible {
                    task: TaskId::new(task),
                    worker: WorkerId::new(worker),
                },
            );
        }
        let ix = TraceIndex::new(&trace);
        let (dq, da) = (ix.dense_qualified(), ix.dense_access());
        for (wi, w) in trace.workers.iter().enumerate() {
            for (ti, t) in trace.tasks.iter().enumerate() {
                let shown = ix.visibility().get(w.id).is_some_and(|v| v.contains(t.id));
                assert_eq!(
                    shown,
                    ix.audience().get(t.id).is_some_and(|a| a.contains(w.id))
                );
                let visible = da.visible[wi * dq.task_width + ti / 64] >> (ti % 64) & 1 != 0;
                let reached = da.audience[ti * dq.worker_width + wi / 64] >> (wi % 64) & 1 != 0;
                assert_eq!((visible, reached), (shown, shown), "worker {wi}, task {ti}");
            }
        }
        assert_eq!(da.visible.iter().map(|w| w.count_ones()).sum::<u32>(), 3);
    }
}
