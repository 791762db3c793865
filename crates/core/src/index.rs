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
//! * submission groupings by task and by worker;
//! * the worker ⇄ task qualification relation Axioms 1–2 intersect
//!   against (computed lazily, shared between both axioms);
//! * **similarity blocking buckets**: workers and tasks keyed by the
//!   coarse skill-vector signature (set-bit count), so the pairwise
//!   axioms only compare pairs whose buckets could possibly clear the
//!   configured similarity threshold
//!   ([`SkillMeasure::count_admissible`]).
//!
//! Blocking here is **lossless**: the bucket predicate is a necessary
//! condition for the exact kernel to reach the threshold, every
//! surviving candidate is re-checked with the exact kernel, and
//! candidates are emitted in the same `(i, j)` order the naive double
//! loop visits. Reports produced through the index are therefore
//! bit-identical to the retained naive reference implementation
//! ([`crate::axioms::naive`]) — pinned by the route harness
//! (`tests/routes.rs`) on random and catalog traces. Small traces skip
//! the bucket machinery entirely ([`EXACT_SCAN_MAX`]) since an
//! exhaustive scan is cheaper than building buckets for a handful of
//! entities.
//!
//! For the A1/A2 inner loops the qualification and access relations
//! are **dense bit matrices** (64-entity words, rows per worker/task
//! position), so each surviving candidate pair costs a few word-AND +
//! popcount passes instead of `BTreeSet` intersections — the dominant
//! cost of the naive scan at scale. The qualification matrices are
//! built straight from the entity tables; the access matrices are
//! re-keyed from the event index's id rows to table positions.
//! Precondition shared with the naive path's id-keyed maps:
//! entity ids in `trace.workers` / `trace.tasks` are unique (simulator
//! traces and well-formed hand-built traces always are).

use faircrowd_model::arena::{ArenaKey, DenseIdMap, IdSet};
use faircrowd_model::contribution::{Contribution, Submission};
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::similarity::{SimilarityConfig, SkillMeasure};
use faircrowd_model::time::SimTime;
use faircrowd_model::trace::{EventIndex, Interruption, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Below this many entities the pairwise axioms scan all pairs directly:
/// the exact fallback path for small traces, where bucket bookkeeping
/// costs more than it prunes.
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

/// Blocking buckets: entity positions grouped by skill-vector set-bit
/// count, counts ascending, members ascending within a bucket.
#[derive(Debug, Clone)]
struct Buckets(Vec<(usize, Vec<usize>)>);

impl Buckets {
    fn group_by_count<I: Iterator<Item = usize>>(counts: I) -> Buckets {
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, c) in counts.enumerate() {
            map.entry(c).or_default().push(i);
        }
        Buckets(map.into_iter().collect())
    }

    /// Candidate pairs `(i, j)` with `i < j`, restricted to bucket pairs
    /// the kernel could score at or above `threshold`, in ascending
    /// `(i, j)` order — exactly the order of the naive double loop over
    /// the surviving pairs.
    fn admissible_pairs(&self, measure: SkillMeasure, threshold: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (a, (ca, members_a)) in self.0.iter().enumerate() {
            for (cb, members_b) in &self.0[a..] {
                if !measure.count_admissible(*ca, *cb, threshold) {
                    continue;
                }
                if *cb == *ca {
                    for (x, &i) in members_a.iter().enumerate() {
                        for &j in &members_a[x + 1..] {
                            pairs.push((i, j));
                        }
                    }
                } else {
                    for &i in members_a {
                        for &j in members_b {
                            pairs.push((i.min(j), i.max(j)));
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }
}

/// Every derived structure an audit reads, built once per trace.
///
/// Cheap slices (log replay, submission groupings) are built eagerly in
/// [`TraceIndex::new`]; the quadratic-ish ones (qualification and
/// access bit matrices, blocking buckets) are built lazily on first use
/// and shared across the axioms — and across threads, since the audit
/// engine fans the seven checkers out over a scoped pool against one
/// `&TraceIndex`.
#[derive(Debug)]
pub struct TraceIndex<'a> {
    trace: &'a Trace,
    events: EventIndex,
    subs_by_task: BTreeMap<TaskId, Vec<&'a Submission>>,
    subs_by_worker: BTreeMap<WorkerId, Vec<&'a Submission>>,
    positions: OnceLock<Positions>,
    dense_qualified: OnceLock<DenseQualified>,
    dense_access: OnceLock<DenseAccess>,
    worker_buckets: OnceLock<Buckets>,
    task_buckets: OnceLock<Buckets>,
}

impl<'a> TraceIndex<'a> {
    /// Index a trace: one pass over the event log, one over the
    /// submissions. Bit matrices and blocking buckets are deferred until
    /// an axiom asks for them.
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
        let mut subs_by_worker: BTreeMap<WorkerId, Vec<&'a Submission>> = BTreeMap::new();
        for s in &trace.submissions {
            subs_by_task.entry(s.task).or_default().push(s);
            subs_by_worker.entry(s.worker).or_default().push(s);
        }
        TraceIndex {
            trace,
            events,
            subs_by_task,
            subs_by_worker,
            positions: OnceLock::new(),
            dense_qualified: OnceLock::new(),
            dense_access: OnceLock::new(),
            worker_buckets: OnceLock::new(),
            task_buckets: OnceLock::new(),
        }
    }

    /// Re-index a follow-up trace (the pipeline's enforce → re-audit
    /// pass), carrying over every slice the change did not touch: the
    /// qualification bit matrices when both entity tables are unchanged,
    /// and each blocking-bucket family when its entity table is unchanged.
    /// Log-derived slices are always replayed — comparing the log costs
    /// as much as replaying it.
    pub fn rebuilt_for<'b>(&self, trace: &'b Trace) -> TraceIndex<'b> {
        let ix = TraceIndex::new(trace);
        let workers_same = self.trace.workers == trace.workers;
        let tasks_same = self.trace.tasks == trace.tasks;
        if workers_same && tasks_same {
            if let Some(d) = self.dense_qualified.get() {
                let _ = ix.dense_qualified.set(d.clone());
            }
        }
        if workers_same {
            if let Some(b) = self.worker_buckets.get() {
                let _ = ix.worker_buckets.set(b.clone());
            }
        }
        if tasks_same {
            if let Some(b) = self.task_buckets.get() {
                let _ = ix.task_buckets.set(b.clone());
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

    /// Submissions grouped by worker, in submission order.
    pub fn submissions_by_worker(&self) -> &BTreeMap<WorkerId, Vec<&'a Submission>> {
        &self.subs_by_worker
    }

    /// Workers who submitted at least once (the Axiom 4 "active" set).
    pub fn submitters(&self) -> BTreeSet<WorkerId> {
        self.subs_by_worker.keys().copied().collect()
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
        let dq = self.dense_qualified();
        let da = self.dense_access();
        overlap_of(
            dq.task_width,
            &dq.by_worker[i * dq.task_width..(i + 1) * dq.task_width],
            &dq.by_worker[j * dq.task_width..(j + 1) * dq.task_width],
            &da.visible[i * dq.task_width..(i + 1) * dq.task_width],
            &da.visible[j * dq.task_width..(j + 1) * dq.task_width],
        )
    }

    /// The Axiom 2 per-pair quantities for tasks at positions `i` and
    /// `j`: common qualified workers, each task's audience restricted to
    /// them, and the intersection.
    pub fn task_audience_overlap(&self, i: usize, j: usize) -> AccessOverlap {
        let dq = self.dense_qualified();
        let da = self.dense_access();
        overlap_of(
            dq.worker_width,
            &dq.by_task[i * dq.worker_width..(i + 1) * dq.worker_width],
            &dq.by_task[j * dq.worker_width..(j + 1) * dq.worker_width],
            &da.audience[i * dq.worker_width..(i + 1) * dq.worker_width],
            &da.audience[j * dq.worker_width..(j + 1) * dq.worker_width],
        )
    }

    /// Candidate worker pairs for Axiom 1: every pair whose skill-count
    /// buckets could clear `cfg.worker_threshold` under the configured
    /// kernel, ascending. A superset of the truly similar pairs — the
    /// checker still applies the exact composite similarity — and the
    /// full pair set below [`EXACT_SCAN_MAX`] workers.
    pub fn similar_worker_candidates(&self, cfg: &SimilarityConfig) -> Vec<(usize, usize)> {
        let n = self.trace.workers.len();
        if n <= EXACT_SCAN_MAX {
            return all_pairs(n);
        }
        self.worker_buckets
            .get_or_init(|| {
                Buckets::group_by_count(self.trace.workers.iter().map(|w| w.skills.count()))
            })
            .admissible_pairs(cfg.skill_measure, cfg.worker_threshold)
    }

    /// Candidate task pairs for Axiom 2, blocked the same way under
    /// `cfg.task_skill_threshold`. Requester identity and reward
    /// comparability stay with the checker.
    pub fn comparable_task_candidates(&self, cfg: &SimilarityConfig) -> Vec<(usize, usize)> {
        let n = self.trace.tasks.len();
        if n <= EXACT_SCAN_MAX {
            return all_pairs(n);
        }
        self.task_buckets
            .get_or_init(|| {
                Buckets::group_by_count(self.trace.tasks.iter().map(|t| t.skills.count()))
            })
            .admissible_pairs(cfg.skill_measure, cfg.task_skill_threshold)
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

fn overlap_of(width: usize, qi: &[u64], qj: &[u64], ai: &[u64], aj: &[u64]) -> AccessOverlap {
    let mut o = AccessOverlap {
        common: 0,
        left: 0,
        right: 0,
        inter: 0,
    };
    for k in 0..width {
        let common = qi[k] & qj[k];
        o.common += common.count_ones() as usize;
        o.left += (ai[k] & common).count_ones() as usize;
        o.right += (aj[k] & common).count_ones() as usize;
        o.inter += (ai[k] & aj[k] & common).count_ones() as usize;
    }
    o
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

    #[test]
    fn small_traces_use_the_exhaustive_fallback() {
        let trace = trace_with_counts(&[1, 4, 8]);
        let ix = TraceIndex::new(&trace);
        let cfg = SimilarityConfig::default();
        assert_eq!(
            ix.similar_worker_candidates(&cfg),
            vec![(0, 1), (0, 2), (1, 2)]
        );
        assert_eq!(
            ix.comparable_task_candidates(&cfg),
            vec![(0, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn blocking_is_a_superset_of_threshold_pairs_and_sorted() {
        // > EXACT_SCAN_MAX workers with spread-out skill counts.
        let counts: Vec<usize> = (0..40).map(|i| i % 9).collect();
        let trace = trace_with_counts(&counts);
        let ix = TraceIndex::new(&trace);
        let cfg = SimilarityConfig::default();
        let candidates = ix.similar_worker_candidates(&cfg);
        let mut sorted = candidates.clone();
        sorted.sort_unstable();
        assert_eq!(candidates, sorted, "candidates must be in scan order");
        // No pair clearing the kernel threshold may be missing.
        let set: BTreeSet<(usize, usize)> = candidates.iter().copied().collect();
        let mut pruned_any = false;
        for i in 0..trace.workers.len() {
            for j in (i + 1)..trace.workers.len() {
                let score = cfg
                    .skill_measure
                    .score(&trace.workers[i].skills, &trace.workers[j].skills);
                if score >= cfg.worker_threshold {
                    assert!(set.contains(&(i, j)), "blocked a similar pair ({i},{j})");
                } else if !set.contains(&(i, j)) {
                    pruned_any = true;
                }
            }
        }
        assert!(pruned_any, "blocking should prune something at this size");
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
        // Touch the worker table and the matrices are invalidated.
        let mut reworked = trace.clone();
        reworked.workers[0].skills = skills(7, 8);
        let fresh = ix.rebuilt_for(&reworked);
        assert!(fresh.dense_qualified.get().is_none());
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
        // with > EXACT_SCAN_MAX workers where many similar pairs saw
        // nothing at all. Every candidate pair's overlap must be finite,
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
        let candidates = ix.similar_worker_candidates(&cfg);
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
