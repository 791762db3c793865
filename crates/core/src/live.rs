//! The streaming-audit engine: incremental fairness monitoring over a
//! live event stream.
//!
//! Every other audit path in this crate is **batch**: it sees a finished
//! [`Trace`] and builds a [`TraceIndex`] over the whole world before the
//! first axiom runs. A production platform cannot wait for the world to
//! finish — REFORM-style temporal reward computation and online task
//! allocation both demand that fairness be checked *as work arrives*.
//! [`LiveAuditor`] is that path. It ingests [`Event`]s one at a time
//! (from a running simulation via `Pipeline::run_live`, or from an
//! incrementally decoded JSONL trace via
//! [`faircrowd_model::trace_io::JsonlReader`] — the `faircrowd watch`
//! verb), and per event it:
//!
//! 1. **validates arrival order** — a sparse sequence number or a
//!    regressing timestamp halts ingestion with the exact [`LogDefect`]
//!    (which seq, which position), instead of auditing a log that batch
//!    validation would later reject;
//! 2. **updates incremental mirrors** of the [`TraceIndex`] state: the
//!    visibility/audience maps, per-submission payments and per-worker
//!    earnings, the flagged/session/informed worker sets, submission
//!    groupings, and **lazily-dirtied qualification rows** (a new task
//!    marks every worker's qualified-task row stale; rows are extended
//!    only when a monitor actually reads them);
//! 3. **runs monitor forms of the seven axiom checkers** scoped to the
//!    entities the event touched, emitting each fresh [`Violation`] as a
//!    [`LiveFinding`] tagged with the seq at which it *first became
//!    true* — the first-violation attribution a batch audit structurally
//!    cannot give, because by the time it runs, every prefix looks the
//!    same.
//!
//! At end of stream, [`LiveAuditor::finalize`] emits the findings only an
//! end state can decide (a malicious worker *never* flagged, an active
//! worker *never* shown a disclosure), and [`LiveAuditor::final_report`]
//! runs the real axiom checkers over a [`TraceIndex`] built around the
//! incrementally maintained mirror — no second replay of the log — so
//! the closing report is **bit-identical** to
//! [`AuditEngine::run_indexed`] on the same trace (pinned by the route
//! harness, `tests/routes.rs`, across the whole scenario catalog and on
//! random traces).
//!
//! ## Monitor semantics
//!
//! A monitor emits a finding the first time its axiom's condition holds
//! **on the stream prefix seen so far**, and never retracts: a pair of
//! similar workers whose access diverges at seq 17 is reported at seq
//! 17 even if later events re-equalise them. The Axiom 1 and 2 rule is
//! one line: a pair fires at the first fresh exposure of either member
//! to a task (A1) or a worker (A2) that both members qualify for, so a
//! pair holds no counters, only its place in its axiom's fired set.
//!
//! For Axioms 1–3 and 5 the monitors are *prefix-complete* when every
//! entity is declared before the events that touch its pairs — which
//! every JSONL stream guarantees, since entity records precede all
//! events: every violation present in the final batch report was
//! emitted at the event that introduced it, because access overlap
//! changes only at `TaskVisible`, payment equality only at
//! `SubmissionReceived` / `PaymentIssued`, and every interruption is
//! its own witness. On such a stream a pair's first qualifying exposure
//! is its divergence: the other member has not been shown the same
//! task (worker) yet, or that earlier exposure would have fired the
//! pair. When an entity is declared **mid-stream** (a task posted in a
//! later `run_live` round), exposures predating the pair's candidacy are
//! not consulted: such a pair fires at its first exposure after it —
//! possibly later than its true first divergence, and possibly where the
//! other member already had the same exposure, so that access was equal
//! (the closing report, computed from the end state, stays the
//! authority). Axiom 4 "never flagged", Axiom 7 delivery evidence, and
//! Axiom 6 for tasks that never saw a `TaskPosted` event are
//! end-state quantifiers and surface from [`LiveAuditor::finalize`]
//! with [`FindingOrigin::EndOfStream`]; the Axiom 4 wrong-flag monitor
//! fires only once a malicious worker is *active* — the batch
//! checker's quantifier — deferring earlier flags to finalize. Static
//! policy defects (Axiom 7 coverage, Axiom 6 per-task disclosure)
//! carry [`FindingOrigin::Setup`]. Under `Pipeline::run_live`, worker
//! computed attributes still evolve while monitors run, so mid-stream
//! similarity is judged on current knowledge — the final report is
//! always computed from the end state and stays the authority.

use crate::audit::{AuditConfig, AuditEngine, FairnessReport};
use crate::axiom::{AxiomId, Violation};
use crate::axioms::{a1_witness, a2_witness, a6::obligation_coverage, worker_similarity};
use crate::checkpoint::{Checkpoint, Flags, HeaderSeq};
use crate::index::{AccessOverlap, TraceIndex};
use faircrowd_model::arena::{ArenaKey, DenseIdMap, IdSet};
use faircrowd_model::contribution::Submission;
use faircrowd_model::disclosure::{Audience, DisclosureItem, DisclosureSet};
use faircrowd_model::error::{FaircrowdError, PersistFormat};
use faircrowd_model::event::{Event, EventKind, LogDefect};
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::requester::Requester;
use faircrowd_model::task::Task;
use faircrowd_model::time::SimTime;
use faircrowd_model::trace::{EventIndex, GroundTruth, Trace};
use faircrowd_model::trace_io::{JsonlHeader, JsonlRecord};
use faircrowd_model::worker::Worker;
use faircrowd_pay::wage::WageStats;
use std::collections::BTreeSet;

/// Where in the stream a live finding came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingOrigin {
    /// True from stream setup — a static policy or task-conditions
    /// defect that no event introduced.
    Setup,
    /// First became true at this event.
    Event {
        /// Sequence number of the introducing event.
        seq: u64,
        /// Its timestamp.
        time: SimTime,
    },
    /// Only decidable once the stream ended (an end-state quantifier
    /// like "was *never* flagged").
    EndOfStream {
        /// The last ingested seq, if any event arrived at all.
        last_seq: Option<u64>,
    },
}

/// One violation observed live, tagged with the point in the stream at
/// which it first became true.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveFinding {
    /// Where the finding came from.
    pub origin: FindingOrigin,
    /// The violation, in the same shape the batch checkers emit.
    pub violation: Violation,
}

impl LiveFinding {
    /// The introducing seq, when an event (rather than setup or the end
    /// of the stream) made the violation true.
    pub fn seq(&self) -> Option<u64> {
        match self.origin {
            FindingOrigin::Event { seq, .. } => Some(seq),
            FindingOrigin::Setup | FindingOrigin::EndOfStream { .. } => None,
        }
    }
}

impl std::fmt::Display for LiveFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.origin {
            FindingOrigin::Setup => write!(f, "[setup]")?,
            FindingOrigin::Event { seq, time } => write!(f, "[seq {seq} @ {time}]")?,
            FindingOrigin::EndOfStream { .. } => write!(f, "[end-of-stream]")?,
        }
        write!(
            f,
            " {} {}",
            self.violation.axiom.label(),
            self.violation.description
        )
    }
}

/// A qualification row extended lazily: `seen` entities of the opposite
/// table have been folded into `ids`; anything appended since is "dirt"
/// paid for only when a monitor reads the row. Membership is an
/// [`IdSet`] bit row, so the pair scans' per-event probes are one shift
/// and a mask.
#[derive(Debug, Clone)]
struct LazyRow<T: ArenaKey> {
    ids: IdSet<T>,
    seen: usize,
}

impl<T: ArenaKey> Default for LazyRow<T> {
    fn default() -> Self {
        LazyRow {
            ids: IdSet::new(),
            seen: 0,
        }
    }
}

/// An entity's monitor candidates (similar workers / comparable tasks)
/// as table positions, computed on first need and extended
/// incrementally as new entities are declared — so the quadratic
/// similarity scan is paid **once per entity over the stream's
/// lifetime**, not once per event. A partner leaves the list when its
/// pair fires.
#[derive(Debug, Clone, Default)]
struct PartnerCache {
    partners: Vec<usize>,
    seen: usize,
}

/// The streaming auditor. See the [module docs](self) for the contract.
///
/// Feed entity records first (or let [`LiveAuditor::apply_record`] route
/// a decoded JSONL stream), then events through [`LiveAuditor::ingest`];
/// close with [`LiveAuditor::finalize`] and read
/// [`LiveAuditor::final_report`].
#[derive(Debug)]
pub struct LiveAuditor {
    config: AuditConfig,
    /// The world as declared so far (entity tables + accepted events).
    trace: Trace,
    /// Incremental mirror of every log-derived structure the audit
    /// layer reads — [`Trace::event_index`] maintained one event at a
    /// time instead of replayed at the end.
    events: EventIndex,
    /// Submission indices grouped by task (the Axiom 3 quantifier).
    subs_by_task: DenseIdMap<TaskId, Vec<usize>>,
    /// Workers who submitted at least once (the Axiom 4 active set).
    submitters: BTreeSet<WorkerId>,
    worker_pos: DenseIdMap<WorkerId, usize>,
    task_pos: DenseIdMap<TaskId, usize>,
    sub_pos: DenseIdMap<SubmissionId, usize>,
    /// Per worker: the tasks she qualifies for (lazily extended).
    qual_tasks: Vec<LazyRow<TaskId>>,
    /// Per task: the workers qualified for it (lazily extended).
    qual_workers: Vec<LazyRow<WorkerId>>,
    /// Per worker: positions of her similar partners (Axiom 1).
    similar_partners: Vec<PartnerCache>,
    /// Per task: positions of its comparable cross-requester partners
    /// (Axiom 2).
    comparable_partners: Vec<PartnerCache>,
    /// Worker position pairs `(i, j)`, `i < j`, whose Axiom 1 finding
    /// has fired.
    a1_fired: BTreeSet<(usize, usize)>,
    /// Task position pairs whose Axiom 2 finding has fired.
    a2_fired: BTreeSet<(usize, usize)>,
    last_time: SimTime,
    a3_emitted: BTreeSet<(SubmissionId, SubmissionId)>,
    a4_emitted: BTreeSet<WorkerId>,
    a6_emitted: BTreeSet<TaskId>,
    policy_scanned: bool,
    findings: Vec<LiveFinding>,
    suppressed: usize,
    max_findings: usize,
    finalized: bool,
    /// Events consumed before this auditor's own log began — zero for a
    /// fresh auditor, the checkpoint seq for one restored via
    /// [`LiveAuditor::resume`]. The internal log then holds only the
    /// tail ingested since; every absolute position (expected seqs,
    /// end-of-stream attribution, event counts) offsets by this base.
    resumed_events: u64,
}

impl LiveAuditor {
    /// A fresh auditor with nothing ingested. The audit configuration
    /// governs both the monitors' similarity regime and the closing
    /// report (witness caps, axiom fan-out).
    pub fn new(config: AuditConfig) -> Self {
        LiveAuditor {
            config,
            trace: Trace::default(),
            events: EventIndex::default(),
            subs_by_task: DenseIdMap::new(),
            submitters: BTreeSet::new(),
            worker_pos: DenseIdMap::new(),
            task_pos: DenseIdMap::new(),
            sub_pos: DenseIdMap::new(),
            qual_tasks: Vec::new(),
            qual_workers: Vec::new(),
            similar_partners: Vec::new(),
            comparable_partners: Vec::new(),
            a1_fired: BTreeSet::new(),
            a2_fired: BTreeSet::new(),
            last_time: SimTime::ZERO,
            a3_emitted: BTreeSet::new(),
            a4_emitted: BTreeSet::new(),
            a6_emitted: BTreeSet::new(),
            policy_scanned: false,
            findings: Vec::new(),
            suppressed: 0,
            max_findings: 10_000,
            finalized: false,
            resumed_events: 0,
        }
    }

    /// Cap the number of findings retained in memory (the stream still
    /// sees every finding as it is returned from ingestion; findings
    /// beyond the cap only bump [`LiveAuditor::suppressed_findings`]).
    pub fn max_live_findings(mut self, cap: usize) -> Self {
        self.max_findings = cap;
        self
    }

    /// Declare the disclosure configuration the platform runs under.
    /// Must precede ingestion — the Axiom 6/7 monitors read it.
    pub fn set_disclosure(&mut self, disclosure: DisclosureSet) {
        self.trace.disclosure = disclosure;
    }

    /// Declare the evaluation-only ground truth (the Axiom 4 monitor
    /// scores flags against it). Must precede ingestion.
    pub fn set_ground_truth(&mut self, ground_truth: GroundTruth) {
        self.trace.ground_truth = ground_truth;
    }

    /// Declare the stream horizon (end time), carried into the final
    /// trace.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.trace.horizon = horizon;
    }

    /// Adopt a decoded JSONL header: horizon, disclosure set and ground
    /// truth in one call.
    pub fn apply_header(&mut self, header: &JsonlHeader) {
        self.trace.horizon = header.horizon;
        self.trace.disclosure = header.disclosure.clone();
        self.trace.ground_truth = header.ground_truth.clone();
    }

    /// Declare a worker. Seeds her mirror rows (an empty visibility set
    /// and zero earnings — "no access at all" must be visible to the
    /// audit) and a fresh lazy qualification row.
    pub fn add_worker(&mut self, worker: Worker) {
        let id = worker.id;
        self.worker_pos.insert(id, self.trace.workers.len());
        self.trace.workers.push(worker);
        self.qual_tasks.push(LazyRow::default());
        self.similar_partners.push(PartnerCache::default());
        self.events.visibility.entry(id);
        self.events.earnings.entry(id);
    }

    /// Declare a task. Seeds its audience row and dirties every
    /// worker's qualification row (paid for lazily, on first read).
    pub fn add_task(&mut self, task: Task) {
        let id = task.id;
        self.task_pos.insert(id, self.trace.tasks.len());
        self.trace.tasks.push(task);
        self.qual_workers.push(LazyRow::default());
        self.comparable_partners.push(PartnerCache::default());
        self.events.audience.entry(id);
    }

    /// Declare a requester.
    pub fn add_requester(&mut self, requester: Requester) {
        self.trace.requesters.push(requester);
    }

    /// Declare a submission (its `SubmissionReceived` event triggers the
    /// Axiom 3 monitor; the record itself just joins the tables).
    pub fn add_submission(&mut self, submission: Submission) {
        let ix = self.trace.submissions.len();
        self.sub_pos.insert(submission.id, ix);
        self.subs_by_task.entry(submission.task).push(ix);
        self.submitters.insert(submission.worker);
        self.trace.submissions.push(submission);
    }

    /// Route one decoded JSONL record: entity records join the tables,
    /// event records go through [`LiveAuditor::ingest`].
    pub fn apply_record(
        &mut self,
        record: JsonlRecord,
    ) -> Result<Vec<LiveFinding>, FaircrowdError> {
        match record {
            JsonlRecord::Worker(w) => self.add_worker(w),
            JsonlRecord::Task(t) => self.add_task(t),
            JsonlRecord::Requester(r) => self.add_requester(r),
            JsonlRecord::Submission(s) => self.add_submission(s),
            JsonlRecord::Event(e) => return self.ingest(e),
        }
        Ok(Vec::new())
    }

    /// Ingest one event: validate its arrival order, update every
    /// mirror, run the monitors it triggers, and return the findings
    /// that first became true at it.
    ///
    /// Arrival-order validation is the streaming form of
    /// [`faircrowd_model::event::EventLog::validate`]: a sparse seq or a
    /// regressing timestamp is rejected **at the event**, with the
    /// offending seq and position named, rather than accepted into a log
    /// that batch validation would later refuse wholesale.
    pub fn ingest(&mut self, event: Event) -> Result<Vec<LiveFinding>, FaircrowdError> {
        if self.finalized {
            return Err(FaircrowdError::usage(
                "LiveAuditor is finalized; no further events can be ingested",
            ));
        }
        if let Some(defect) = LogDefect::of_entry(self.events_seen(), &event, self.last_time) {
            return Err(FaircrowdError::InvalidTrace {
                problems: vec![format!("streaming ingestion halted: {defect}")],
            });
        }

        let mut out = Vec::new();
        if !self.policy_scanned {
            self.scan_policy(&mut out);
        }

        let fresh = self.events.apply(&event);

        let seq = event.seq;
        let time = event.time;
        let origin = FindingOrigin::Event { seq, time };
        match &event.kind {
            // A repeated show (`!fresh`) changes no access set, so only a
            // first exposure can fire a pair.
            EventKind::TaskVisible { task, worker } if fresh => {
                let (task, worker) = (*task, *worker);
                self.monitor_a1(task, worker, origin, &mut out);
                self.monitor_a2(task, worker, origin, &mut out);
            }
            EventKind::SubmissionReceived {
                submission, task, ..
            }
            | EventKind::PaymentIssued {
                submission, task, ..
            } => {
                let (submission, task) = (*submission, *task);
                self.monitor_a3(task, submission, origin, &mut out);
            }
            EventKind::WorkerFlagged { worker, .. } => {
                let worker = *worker;
                self.monitor_a4_flag(worker, origin, &mut out);
            }
            EventKind::WorkInterrupted { .. } => self.monitor_a5(origin, &mut out),
            EventKind::TaskPosted { task, .. } => {
                let task = *task;
                self.monitor_a6(task, origin, &mut out);
            }
            _ => {}
        }

        self.last_time = time;
        self.trace.events.push_event(event);
        Ok(out)
    }

    /// Convenience: declare a whole recorded trace's header and entity
    /// tables, then ingest its events in order — the in-memory form of
    /// streaming a JSONL file. Does **not** finalize.
    pub fn ingest_trace(&mut self, trace: &Trace) -> Result<Vec<LiveFinding>, FaircrowdError> {
        self.set_horizon(trace.horizon);
        self.set_disclosure(trace.disclosure.clone());
        self.set_ground_truth(trace.ground_truth.clone());
        for w in &trace.workers {
            self.add_worker(w.clone());
        }
        for t in &trace.tasks {
            self.add_task(t.clone());
        }
        for r in &trace.requesters {
            self.add_requester(r.clone());
        }
        for s in &trace.submissions {
            self.add_submission(s.clone());
        }
        let mut out = Vec::new();
        for e in &trace.events {
            out.extend(self.ingest(e.clone())?);
        }
        Ok(out)
    }

    /// Number of events accepted over the stream's whole lifetime —
    /// across every process life, for a restored auditor.
    pub fn events_seen(&self) -> usize {
        self.resumed_events as usize + self.trace.events.len()
    }

    /// The checkpoint seq this auditor resumed from (zero when it has
    /// watched its stream from the beginning).
    pub fn resumed_events(&self) -> u64 {
        self.resumed_events
    }

    /// Every finding retained so far, in emission order.
    pub fn findings(&self) -> &[LiveFinding] {
        &self.findings
    }

    /// Findings dropped past the in-memory cap (they were still returned
    /// to the streaming caller when they fired).
    pub fn suppressed_findings(&self) -> usize {
        self.suppressed
    }

    /// The world as ingested so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consume the auditor, keeping the accumulated trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Replace the entity tables with their **end-of-run** state — the
    /// `Pipeline::run_live` closing step, where worker computed
    /// attributes kept evolving while the monitors watched. The stream
    /// shape (task/submission/event counts) must match what this auditor
    /// ingested; qualification rows are cleared so nothing stale
    /// survives the swap.
    pub fn adopt_end_state(&mut self, end: &Trace) -> Result<(), FaircrowdError> {
        if end.workers.len() != self.trace.workers.len()
            || end.tasks.len() != self.trace.tasks.len()
            || end.submissions.len() != self.trace.submissions.len()
            || end.events.len() != self.events_seen()
        {
            return Err(FaircrowdError::InvalidTrace {
                problems: vec![
                    "end-state trace does not match the stream this auditor ingested".to_owned(),
                ],
            });
        }
        self.trace.workers = end.workers.clone();
        self.trace.tasks = end.tasks.clone();
        self.trace.requesters = end.requesters.clone();
        self.trace.ground_truth = end.ground_truth.clone();
        self.trace.disclosure = end.disclosure.clone();
        self.trace.horizon = end.horizon;
        self.qual_tasks.fill_with(LazyRow::default);
        self.qual_workers.fill_with(LazyRow::default);
        for cache in self
            .similar_partners
            .iter_mut()
            .chain(self.comparable_partners.iter_mut())
        {
            cache.partners.clear();
            cache.seen = 0;
        }
        Ok(())
    }

    /// Close the stream: emit the findings only an end state can decide
    /// (Axiom 4 "never flagged" / no-detection, Axiom 7 delivery
    /// evidence, Axiom 6 for tasks that never saw a `TaskPosted`
    /// event). Idempotent; returns only the newly emitted findings.
    pub fn finalize(&mut self) -> Vec<LiveFinding> {
        if self.finalized {
            return Vec::new();
        }
        self.finalized = true;
        let mut out = Vec::new();
        if !self.policy_scanned {
            self.scan_policy(&mut out);
        }
        let last_seq = self.events_seen().checked_sub(1).map(|i| i as u64);
        let origin = FindingOrigin::EndOfStream { last_seq };

        // Axiom 6: tasks the event stream never announced.
        for ti in 0..self.trace.tasks.len() {
            let id = self.trace.tasks[ti].id;
            if !self.a6_emitted.contains(&id) {
                self.emit_a6(ti, origin, &mut out);
            }
        }

        // Axiom 4 end state, mirroring the batch checker's quantifiers.
        let active_malicious: BTreeSet<WorkerId> = self
            .trace
            .ground_truth
            .malicious_workers
            .intersection(&self.submitters)
            .copied()
            .collect();
        if !active_malicious.is_empty() {
            if self.events.flagged.is_empty() {
                self.record(
                    LiveFinding {
                        origin,
                        violation: Violation {
                            axiom: AxiomId::A4MaliceDetection,
                            severity: 1.0,
                            description: format!(
                                "platform emitted no detection events while {} malicious \
                                 worker(s) were active",
                                active_malicious.len()
                            ),
                        },
                    },
                    &mut out,
                );
            } else {
                let missed: Vec<WorkerId> = active_malicious
                    .iter()
                    .copied()
                    .filter(|&w| !self.events.flagged.contains(w))
                    .collect();
                for w in missed {
                    self.record(
                        LiveFinding {
                            origin,
                            violation: Violation {
                                axiom: AxiomId::A4MaliceDetection,
                                severity: 0.8,
                                description: format!("malicious worker {w} was never flagged"),
                            },
                        },
                        &mut out,
                    );
                }
                let wrong: Vec<WorkerId> = self
                    .events
                    .flagged
                    .iter()
                    .filter(|w| !self.trace.ground_truth.malicious_workers.contains(w))
                    .filter(|w| !self.a4_emitted.contains(w))
                    .collect();
                for w in wrong {
                    self.a4_emitted.insert(w);
                    self.record(
                        LiveFinding {
                            origin,
                            violation: Violation {
                                axiom: AxiomId::A4MaliceDetection,
                                severity: 0.4,
                                description: format!("honest worker {w} was wrongly flagged"),
                            },
                        },
                        &mut out,
                    );
                }
            }
        }

        // Axiom 7 delivery evidence.
        let coverage = self.trace.disclosure.axiom7_coverage();
        let active = &self.events.session_workers;
        if coverage > 0.0 && !active.is_empty() {
            let informed = &self.events.informed_workers;
            let evidence = active.intersection_len(informed) as f64 / active.len() as f64;
            if evidence < 1.0 {
                let uninformed = active.len() - active.intersection_len(informed);
                self.record(
                    LiveFinding {
                        origin,
                        violation: Violation {
                            axiom: AxiomId::A7PlatformTransparency,
                            severity: (1.0 - evidence).min(1.0),
                            description: format!(
                                "{uninformed} active worker(s) never saw any disclosure despite \
                                 a non-empty policy"
                            ),
                        },
                    },
                    &mut out,
                );
            }
        }
        out
    }

    /// The closing audit over all seven axioms — bit-identical to
    /// [`AuditEngine::run_indexed`] on the accumulated trace, because it
    /// *is* that engine, run over a [`TraceIndex`] assembled around the
    /// incrementally maintained event mirror (the log this auditor
    /// already watched is never replayed).
    pub fn final_report(&self) -> FairnessReport {
        self.final_artifacts(&AxiomId::ALL).0
    }

    /// The closing report **and** wage statistics off one shared
    /// mirror-backed index — what the CLI closing paths use, so the
    /// mirror handover and submission groupings are paid once, like the
    /// batch pipeline's single index per trace.
    pub fn final_artifacts(&self, ids: &[AxiomId]) -> (FairnessReport, Option<WageStats>) {
        let ix = self.closing_index();
        let report = AuditEngine::new(self.config.clone()).run_indexed(&ix, ids);
        let wages = crate::metrics::wage_stats(&ix);
        (report, wages)
    }

    /// The mirror-backed index every closing artifact reads. An auditor
    /// that watched its whole stream keeps the debug-asserted handover;
    /// a restored one holds only the log tail, so replaying it could
    /// never equal the full-stream mirror and the assertion-free
    /// constructor is the correct one (the checkpoint load gates own
    /// that integrity contract).
    fn closing_index(&self) -> TraceIndex<'_> {
        if self.resumed_events == 0 {
            TraceIndex::with_event_index(&self.trace, self.events.clone())
        } else {
            TraceIndex::with_restored_event_index(&self.trace, self.events.clone())
        }
    }

    /// Snapshot every incremental structure into a [`Checkpoint`] that
    /// [`LiveAuditor::resume`] can restore without replaying the log.
    /// `source_lines` records how many physical lines of the backing
    /// JSONL file produced the state (header, blank and entity lines
    /// included), so a resumed tailer knows how far to skip; pass `0`
    /// for auditors not fed from a line stream.
    ///
    /// Fired pairs are kept in key order, so the same auditor state
    /// always snapshots to the same checkpoint — byte-identical once
    /// encoded.
    pub fn checkpoint(&self, source_lines: u64) -> Checkpoint {
        // Field by field: cloning the whole trace would copy the event
        // log only to throw it away.
        let t = &self.trace;
        Checkpoint {
            world: Trace {
                workers: t.workers.clone(),
                tasks: t.tasks.clone(),
                requesters: t.requesters.clone(),
                submissions: t.submissions.clone(),
                events: Default::default(),
                disclosure: t.disclosure.clone(),
                horizon: t.horizon,
                ground_truth: t.ground_truth.clone(),
            },
            mirror: self.events.clone(),
            events_seen: HeaderSeq(self.events_seen() as u64),
            source_lines,
            last_time: self.last_time,
            flags: Flags {
                policy_scanned: self.policy_scanned,
                finalized: self.finalized,
            },
            max_findings: self.max_findings,
            suppressed: self.suppressed as u64,
            qual_tasks: self
                .qual_tasks
                .iter()
                .map(|r| (r.seen, r.ids.clone()))
                .collect(),
            qual_workers: self
                .qual_workers
                .iter()
                .map(|r| (r.seen, r.ids.clone()))
                .collect(),
            similar_partners: self
                .similar_partners
                .iter()
                .map(|c| (c.seen, c.partners.clone()))
                .collect(),
            comparable_partners: self
                .comparable_partners
                .iter()
                .map(|c| (c.seen, c.partners.clone()))
                .collect(),
            a1_pairs: Vec::new(),
            a2_pairs: Vec::new(),
            a1_emitted: self
                .a1_fired
                .iter()
                .map(|&(i, j)| (i as u64, j as u64))
                .collect(),
            a2_emitted: self
                .a2_fired
                .iter()
                .map(|&(i, j)| (i as u64, j as u64))
                .collect(),
            a3_emitted: self.a3_emitted.iter().copied().collect(),
            a4_emitted: self.a4_emitted.iter().copied().collect(),
            a6_emitted: self.a6_emitted.iter().copied().collect(),
            findings: self.findings.clone(),
        }
    }

    /// Rebuild an auditor from a [`Checkpoint`], ready to ingest the
    /// event at the checkpoint seq: positional maps and submission
    /// groupings are re-derived from the checkpointed entity tables
    /// (their order is the position), then the incremental mirrors are
    /// restored verbatim. Finishing the stream from here is
    /// bit-identical — findings, final report, wages — to never having
    /// stopped (pinned by the route harness, `tests/routes.rs`).
    ///
    /// The audit configuration is not part of the checkpoint; resuming
    /// under a different similarity regime than the one that produced
    /// the snapshot is the caller's responsibility to avoid.
    pub fn resume(config: AuditConfig, ckpt: &Checkpoint) -> Result<Self, FaircrowdError> {
        let n_workers = ckpt.world.workers.len();
        let n_tasks = ckpt.world.tasks.len();
        if ckpt.qual_tasks.len() != n_workers
            || ckpt.similar_partners.len() != n_workers
            || ckpt.qual_workers.len() != n_tasks
            || ckpt.comparable_partners.len() != n_tasks
        {
            return Err(FaircrowdError::persist(
                "checkpoint monitor state does not cover its entity tables \
                 (was it decoded through `checkpoint::load`?)",
            )
            .reading(PersistFormat::Checkpoint));
        }
        let mut auditor = LiveAuditor::new(config);
        auditor.set_horizon(ckpt.world.horizon);
        auditor.set_disclosure(ckpt.world.disclosure.clone());
        auditor.set_ground_truth(ckpt.world.ground_truth.clone());
        for w in &ckpt.world.workers {
            auditor.add_worker(w.clone());
        }
        for t in &ckpt.world.tasks {
            auditor.add_task(t.clone());
        }
        for r in &ckpt.world.requesters {
            auditor.add_requester(r.clone());
        }
        for s in &ckpt.world.submissions {
            auditor.add_submission(s.clone());
        }
        auditor.events = ckpt.mirror.clone();
        for (row, (seen, ids)) in auditor.qual_tasks.iter_mut().zip(&ckpt.qual_tasks) {
            row.seen = *seen;
            row.ids = ids.clone();
        }
        for (row, (seen, ids)) in auditor.qual_workers.iter_mut().zip(&ckpt.qual_workers) {
            row.seen = *seen;
            row.ids = ids.clone();
        }
        for (cache, (seen, partners)) in auditor
            .similar_partners
            .iter_mut()
            .zip(&ckpt.similar_partners)
        {
            cache.seen = *seen;
            cache.partners = partners.clone();
        }
        for (cache, (seen, partners)) in auditor
            .comparable_partners
            .iter_mut()
            .zip(&ckpt.comparable_partners)
        {
            cache.seen = *seen;
            cache.partners = partners.clone();
        }
        auditor.a1_fired = ckpt
            .a1_emitted
            .iter()
            .map(|&(i, j)| (i as usize, j as usize))
            .collect();
        auditor.a2_fired = ckpt
            .a2_emitted
            .iter()
            .map(|&(i, j)| (i as usize, j as usize))
            .collect();
        auditor.a3_emitted = ckpt.a3_emitted.iter().copied().collect();
        auditor.a4_emitted = ckpt.a4_emitted.iter().collect();
        auditor.a6_emitted = ckpt.a6_emitted.iter().collect();
        auditor.last_time = ckpt.last_time;
        auditor.policy_scanned = ckpt.flags.policy_scanned;
        auditor.finalized = ckpt.flags.finalized;
        auditor.max_findings = ckpt.max_findings;
        auditor.suppressed = ckpt.suppressed as usize;
        auditor.findings = ckpt.findings.clone();
        auditor.resumed_events = ckpt.seq();
        Ok(auditor)
    }

    // ---- internals --------------------------------------------------

    fn record(&mut self, finding: LiveFinding, out: &mut Vec<LiveFinding>) {
        if self.findings.len() < self.max_findings {
            self.findings.push(finding.clone());
        } else {
            self.suppressed += 1;
        }
        out.push(finding);
    }

    /// Extend a worker's qualified-task row over any tasks appended
    /// since it was last read.
    fn ensure_worker_row(&mut self, wi: usize) {
        let row = &mut self.qual_tasks[wi];
        if row.seen == self.trace.tasks.len() {
            return;
        }
        let worker = &self.trace.workers[wi];
        for t in &self.trace.tasks[row.seen..] {
            if worker.qualifies_for(t) {
                row.ids.insert(t.id);
            }
        }
        row.seen = self.trace.tasks.len();
    }

    /// Extend a task's qualified-worker row over any workers appended
    /// since it was last read.
    fn ensure_task_row(&mut self, ti: usize) {
        let row = &mut self.qual_workers[ti];
        if row.seen == self.trace.workers.len() {
            return;
        }
        let task = &self.trace.tasks[ti];
        for w in &self.trace.workers[row.seen..] {
            if w.qualifies_for(task) {
                row.ids.insert(w.id);
            }
        }
        row.seen = self.trace.workers.len();
    }

    /// Extend a worker's similar-partner cache over any workers declared
    /// since it was last read — the one place the monitor pays for
    /// worker-to-worker similarity, once per (ordered) pair over the
    /// stream's whole lifetime.
    fn ensure_similar_partners(&mut self, wi: usize) {
        let seen = self.similar_partners[wi].seen;
        let total = self.trace.workers.len();
        if seen == total {
            return;
        }
        let cfg = &self.config.similarity;
        let me = &self.trace.workers[wi];
        let mut fresh = Vec::new();
        for (j, other) in self.trace.workers.iter().enumerate().skip(seen) {
            if j != wi && worker_similarity(me, other, cfg) >= cfg.worker_threshold {
                fresh.push(j);
            }
        }
        let cache = &mut self.similar_partners[wi];
        cache.partners.extend(fresh);
        cache.seen = total;
    }

    /// Extend a task's comparable-partner cache (different requester,
    /// similar skill requirements, comparable reward) over any tasks
    /// declared since it was last read.
    fn ensure_comparable_partners(&mut self, ti: usize) {
        let seen = self.comparable_partners[ti].seen;
        let total = self.trace.tasks.len();
        if seen == total {
            return;
        }
        let cfg = &self.config.similarity;
        let me = &self.trace.tasks[ti];
        let mut fresh = Vec::new();
        for (j, other) in self.trace.tasks.iter().enumerate().skip(seen) {
            if j != ti
                && me.requester != other.requester
                && cfg.skill_measure.score(&me.skills, &other.skills) >= cfg.task_skill_threshold
                && me.reward_comparable(other, cfg.reward_tolerance)
            {
                fresh.push(j);
            }
        }
        let cache = &mut self.comparable_partners[ti];
        cache.partners.extend(fresh);
        cache.seen = total;
    }

    /// Axiom 1 monitor: a similar pair fires at the first fresh exposure
    /// of either member to a task both qualify for. That exposure is the
    /// pair's divergence — the shown worker holds it, and the partner
    /// cannot yet, or its own exposure would have fired the pair — so
    /// the finding reads one access against none.
    fn monitor_a1(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        origin: FindingOrigin,
        out: &mut Vec<LiveFinding>,
    ) {
        let Some(&wi) = self.worker_pos.get(worker) else {
            return; // monitors skip events about undeclared entities
        };
        self.ensure_worker_row(wi);
        if !self.qual_tasks[wi].ids.contains(task) {
            return; // the shown task is outside every common-qualified set
        }
        self.ensure_similar_partners(wi);
        let mut partners = std::mem::take(&mut self.similar_partners[wi].partners);
        partners.retain(|&wj| {
            self.ensure_worker_row(wj);
            if !self.qual_tasks[wj].ids.contains(task) {
                return true; // outside the pair's common qualified set
            }
            let key = (wi.min(wj), wi.max(wj));
            // A pair already fired from the other side (or before a
            // partner-list rebuild) only leaves the list.
            if !self.a1_fired.insert(key) {
                return false;
            }
            let (a, b) = (&self.trace.workers[key.0], &self.trace.workers[key.1]);
            let sim = worker_similarity(a, b, &self.config.similarity);
            let left = usize::from(wi == key.0);
            let o = AccessOverlap {
                common: self.qual_tasks[key.0]
                    .ids
                    .intersection_len(&self.qual_tasks[key.1].ids),
                left,
                right: 1 - left,
                inter: 0,
            };
            let overlap = o.jaccard();
            let violation = Violation {
                axiom: AxiomId::A1WorkerAssignment,
                severity: 1.0 - overlap,
                description: a1_witness(a.id, b.id, sim, &o, overlap),
            };
            self.record(LiveFinding { origin, violation }, out);
            false
        });
        self.similar_partners[wi].partners = partners;
    }

    /// Axiom 2 monitor: the same rule transposed — a comparable task
    /// pair fires at the first fresh exposure of either task to a worker
    /// qualified for both.
    fn monitor_a2(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        origin: FindingOrigin,
        out: &mut Vec<LiveFinding>,
    ) {
        let Some(&tp) = self.task_pos.get(task) else {
            return;
        };
        self.ensure_task_row(tp);
        if !self.qual_workers[tp].ids.contains(worker) {
            return;
        }
        self.ensure_comparable_partners(tp);
        let mut partners = std::mem::take(&mut self.comparable_partners[tp].partners);
        partners.retain(|&tj| {
            self.ensure_task_row(tj);
            if !self.qual_workers[tj].ids.contains(worker) {
                return true;
            }
            let key = (tp.min(tj), tp.max(tj));
            if !self.a2_fired.insert(key) {
                return false;
            }
            let (a, b) = (&self.trace.tasks[key.0], &self.trace.tasks[key.1]);
            let skill_sim = self
                .config
                .similarity
                .skill_measure
                .score(&a.skills, &b.skills);
            // One audience member against none: overlap 0, severity 1.
            let left = usize::from(tp == key.0);
            let violation = Violation {
                axiom: AxiomId::A2RequesterAssignment,
                severity: 1.0,
                description: a2_witness(a, b, skill_sim, left, 1 - left, 0.0),
            };
            self.record(LiveFinding { origin, violation }, out);
            false
        });
        self.comparable_partners[tp].partners = partners;
    }

    /// Axiom 3 monitor: payment equality of a same-task pair can only
    /// change at the pair's creation (`SubmissionReceived`) or at a
    /// `PaymentIssued` touching one side, so each trigger compares just
    /// the touched submission against its task siblings.
    fn monitor_a3(
        &mut self,
        task: TaskId,
        submission: SubmissionId,
        origin: FindingOrigin,
        out: &mut Vec<LiveFinding>,
    ) {
        let Some(&sp) = self.sub_pos.get(submission) else {
            return;
        };
        let Some(siblings) = self.subs_by_task.get(task) else {
            return;
        };
        let threshold = self.config.similarity.contribution_threshold;
        let mut fresh = Vec::new();
        for &other in siblings {
            if other == sp {
                continue;
            }
            let (a, b) = (&self.trace.submissions[sp], &self.trace.submissions[other]);
            if a.worker == b.worker {
                continue;
            }
            let key = if b.id < a.id {
                (b.id, a.id)
            } else {
                (a.id, b.id)
            };
            if self.a3_emitted.contains(&key) {
                continue;
            }
            let sim = a.contribution.similarity(&b.contribution);
            if sim < threshold {
                continue;
            }
            let pay = |id: SubmissionId| {
                self.events
                    .payments
                    .get(id)
                    .copied()
                    .unwrap_or(Credits::ZERO)
            };
            // Report in submission order, like the batch pair scan.
            let (first, second) = if other < sp { (other, sp) } else { (sp, other) };
            let (sa, sb) = (
                &self.trace.submissions[first],
                &self.trace.submissions[second],
            );
            let (pa, pb) = (pay(sa.id), pay(sb.id));
            if pa == pb {
                continue;
            }
            let max = pa.max(pb).millicents().max(1) as f64;
            let severity = pa.abs_diff(pb).millicents() as f64 / max;
            fresh.push((
                key,
                LiveFinding {
                    origin,
                    violation: Violation {
                        axiom: AxiomId::A3Compensation,
                        severity,
                        description: format!(
                            "task {task}: workers {} and {} made similar contributions \
                             (sim {sim:.2}) but were paid {pa} vs {pb}",
                            sa.worker, sb.worker
                        ),
                    },
                },
            ));
        }
        for (key, finding) in fresh {
            self.a3_emitted.insert(key);
            self.record(finding, out);
        }
    }

    /// Axiom 4 monitor (flag side): an honest worker wrongly flagged is
    /// a violation the moment the flag event lands — but only once a
    /// malicious worker is *active* (has submitted), matching the batch
    /// checker's quantifier exactly (a workforce with no active
    /// malicious workers takes the vacuous branch, where false alarms
    /// are a score note, not a violation). Flags that precede the first
    /// malicious submission are swept up at finalize, where the batch
    /// quantifier is decidable.
    fn monitor_a4_flag(
        &mut self,
        worker: WorkerId,
        origin: FindingOrigin,
        out: &mut Vec<LiveFinding>,
    ) {
        let no_active_malicious = self
            .trace
            .ground_truth
            .malicious_workers
            .intersection(&self.submitters)
            .next()
            .is_none();
        if no_active_malicious
            || self.trace.ground_truth.malicious_workers.contains(&worker)
            || self.a4_emitted.contains(&worker)
        {
            return;
        }
        self.a4_emitted.insert(worker);
        self.record(
            LiveFinding {
                origin,
                violation: Violation {
                    axiom: AxiomId::A4MaliceDetection,
                    severity: 0.4,
                    description: format!("honest worker {worker} was wrongly flagged"),
                },
            },
            out,
        );
    }

    /// Axiom 5 monitor: every `WorkInterrupted` is its own witness; the
    /// mirror has already recorded it, so the newest interruption is the
    /// finding.
    fn monitor_a5(&mut self, origin: FindingOrigin, out: &mut Vec<LiveFinding>) {
        let Some(intr) = self.events.interruptions.last().copied() else {
            return;
        };
        self.record(
            LiveFinding {
                origin,
                violation: Violation {
                    axiom: AxiomId::A5NoInterruption,
                    severity: if intr.compensated { 0.5 } else { 1.0 },
                    description: format!(
                        "worker {} was interrupted on task {} after investing {}{}",
                        intr.worker,
                        intr.task,
                        intr.invested,
                        if intr.compensated {
                            " (partially compensated)"
                        } else {
                            " (unpaid)"
                        }
                    ),
                },
            },
            out,
        );
    }

    /// Axiom 6 monitor: a task's working-conditions disclosure is static
    /// from the moment it is posted, so its obligations are checked at
    /// its `TaskPosted` event (tasks announced by no event are swept at
    /// finalize).
    fn monitor_a6(&mut self, task: TaskId, origin: FindingOrigin, out: &mut Vec<LiveFinding>) {
        let Some(&tp) = self.task_pos.get(task) else {
            return;
        };
        if self.a6_emitted.contains(&task) {
            return;
        }
        self.emit_a6(tp, origin, out);
    }

    fn emit_a6(&mut self, tp: usize, origin: FindingOrigin, out: &mut Vec<LiveFinding>) {
        let task = &self.trace.tasks[tp];
        self.a6_emitted.insert(task.id);
        // The shared coverage helper keeps the monitor and the batch
        // checker agreeing on what a task owes, by construction.
        let (coverage, missing) = obligation_coverage(task, &self.trace.disclosure);
        if missing.is_empty() {
            return;
        }
        let description = format!(
            "task {} (requester {}) does not disclose: {}",
            task.id,
            task.requester,
            missing.join(", ")
        );
        self.record(
            LiveFinding {
                origin,
                violation: Violation {
                    axiom: AxiomId::A6RequesterTransparency,
                    severity: 1.0 - coverage,
                    description,
                },
            },
            out,
        );
    }

    /// Axiom 7 monitor (policy side): the required computed attributes
    /// the disclosure set withholds are defects from stream setup.
    fn scan_policy(&mut self, out: &mut Vec<LiveFinding>) {
        self.policy_scanned = true;
        for item in DisclosureItem::AXIOM7_REQUIRED {
            if !self.trace.disclosure.allows(item, Audience::Subject) {
                self.record(
                    LiveFinding {
                        origin: FindingOrigin::Setup,
                        violation: Violation {
                            axiom: AxiomId::A7PlatformTransparency,
                            severity: 1.0 / DisclosureItem::AXIOM7_REQUIRED.len() as f64,
                            description: format!(
                                "computed attribute {item} is not disclosed to the worker"
                            ),
                        },
                    },
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use faircrowd_model::time::SimDuration;

    fn stream(trace: &Trace) -> (LiveAuditor, Vec<LiveFinding>) {
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        let mut findings = auditor.ingest_trace(trace).expect("well-formed stream");
        findings.extend(auditor.finalize());
        (auditor, findings)
    }

    #[test]
    fn final_report_is_bit_identical_to_batch() {
        use faircrowd_model::contribution::Contribution;
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 10)]);
        show(&mut trace, 1, 0, 0);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        let (auditor, _) = stream(&trace);
        let live = auditor.final_report();
        let batch = AuditEngine::with_defaults().run(&trace);
        assert_eq!(live, batch);
        assert!(batch.total_violations() > 0, "fixture must violate");
    }

    #[test]
    fn a1_finding_fires_at_the_introducing_event() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        // seq 0 shows t0 to w0: w1 (similar, qualified) now lags behind.
        show(&mut trace, 1, 0, 0);
        let (_, findings) = stream(&trace);
        let a1: Vec<&LiveFinding> = findings
            .iter()
            .filter(|f| f.violation.axiom == AxiomId::A1WorkerAssignment)
            .collect();
        assert_eq!(a1.len(), 1);
        assert_eq!(a1[0].seq(), Some(0), "attributed to the introducing event");
        assert!(a1[0].violation.description.contains("w0"));
        assert!(a1[0].violation.description.contains("w1"));
    }

    #[test]
    fn a1_findings_are_not_repeated_per_event() {
        let mut trace = skeleton(vec![
            task(0, 0, &[0, 0], 10),
            task(1, 1, &[0, 0], 10),
            task(2, 0, &[0, 0], 10),
        ]);
        // w0 pulls ahead three times; the pair is reported once, at the
        // first divergence.
        show(&mut trace, 1, 0, 0);
        show(&mut trace, 2, 1, 0);
        show(&mut trace, 3, 2, 0);
        let (_, findings) = stream(&trace);
        let a1_count = findings
            .iter()
            .filter(|f| f.violation.axiom == AxiomId::A1WorkerAssignment)
            .count();
        assert_eq!(a1_count, 1, "one finding per first-violating pair");
    }

    #[test]
    fn a3_finding_fires_at_the_unequal_payment() {
        use faircrowd_model::contribution::Contribution;
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1)); // seq 0
        let _s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1)); // seq 1
        pay(&mut trace, 200, s0, 0, 10); // seq 2 introduces the inequality
        let (_, findings) = stream(&trace);
        let a3: Vec<&LiveFinding> = findings
            .iter()
            .filter(|f| f.violation.axiom == AxiomId::A3Compensation)
            .collect();
        assert_eq!(a3.len(), 1);
        assert_eq!(a3[0].seq(), Some(2), "the payment event introduced it");
        assert!(a3[0].violation.description.contains("paid"));
    }

    #[test]
    fn a5_and_a4_monitors_attribute_seqs() {
        use faircrowd_model::contribution::Contribution;
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.ground_truth.malicious_workers.insert(w(1));
        let _ = submit(&mut trace, 50, 0, 1, Contribution::Label(0)); // seq 0
        trace.events.push(
            SimTime::from_secs(60),
            EventKind::WorkStarted {
                task: t(0),
                worker: w(0),
            },
        ); // seq 1
        trace.events.push(
            SimTime::from_secs(70),
            EventKind::WorkInterrupted {
                task: t(0),
                worker: w(0),
                invested: SimDuration::from_mins(3),
                compensated: false,
            },
        ); // seq 2
        trace.events.push(
            SimTime::from_secs(80),
            EventKind::WorkerFlagged {
                worker: w(0), // honest!
                score: 0.9,
                detector: Box::new("test".into()),
            },
        ); // seq 3
        let (_, findings) = stream(&trace);
        let a5 = findings
            .iter()
            .find(|f| f.violation.axiom == AxiomId::A5NoInterruption)
            .expect("interruption reported");
        assert_eq!(a5.seq(), Some(2));
        let a4_flag = findings
            .iter()
            .find(|f| f.violation.description.contains("wrongly flagged"))
            .expect("wrong flag reported");
        assert_eq!(a4_flag.seq(), Some(3));
        // The malicious w1 was never flagged: an end-of-stream finding.
        let missed = findings
            .iter()
            .find(|f| f.violation.description.contains("never flagged"))
            .expect("missed spammer reported");
        assert_eq!(missed.seq(), None);
        assert!(matches!(
            missed.origin,
            FindingOrigin::EndOfStream { last_seq: Some(3) }
        ));
    }

    #[test]
    fn setup_findings_cover_policy_and_task_conditions() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.events.push(
            SimTime::from_secs(0),
            EventKind::TaskPosted {
                task: t(0),
                requester: faircrowd_model::ids::RequesterId::new(0),
            },
        );
        let (_, findings) = stream(&trace);
        // Opaque platform: every required A7 attribute is a setup defect.
        let a7_policy = findings
            .iter()
            .filter(|f| matches!(f.origin, FindingOrigin::Setup))
            .filter(|f| f.violation.axiom == AxiomId::A7PlatformTransparency)
            .count();
        assert_eq!(a7_policy, DisclosureItem::AXIOM7_REQUIRED.len());
        // The undisclosed task is reported at its TaskPosted event.
        let a6 = findings
            .iter()
            .find(|f| f.violation.axiom == AxiomId::A6RequesterTransparency)
            .expect("opaque task reported");
        assert_eq!(a6.seq(), Some(0));
        assert!(a6.violation.description.contains("does not disclose"));
    }

    #[test]
    fn a2_fires_for_pairs_spanning_mid_stream_task_declarations() {
        // t0 is declared and shown to both workers; comparable t1 is
        // declared only later (a later round) and shown to w0 alone.
        // The pair's counters never saw t0's exposures — that stale
        // history must not suppress the fresh divergence.
        use faircrowd_model::ids::RequesterId;
        use faircrowd_model::requester::Requester;
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        auditor.add_worker(worker(0, &[1, 1]));
        auditor.add_worker(worker(1, &[1, 1]));
        auditor.add_requester(Requester::new(RequesterId::new(0), "r0"));
        auditor.add_requester(Requester::new(RequesterId::new(1), "r1"));
        auditor.add_task(task(0, 0, &[0, 0], 10));
        let mut seq = 0u64;
        let mut send = |auditor: &mut LiveAuditor, kind: EventKind| {
            let out = auditor
                .ingest(Event {
                    time: SimTime::from_secs(seq),
                    seq,
                    kind,
                })
                .unwrap();
            seq += 1;
            out
        };
        send(
            &mut auditor,
            EventKind::TaskPosted {
                task: t(0),
                requester: RequesterId::new(0),
            },
        );
        send(
            &mut auditor,
            EventKind::TaskVisible {
                task: t(0),
                worker: w(0),
            },
        );
        send(
            &mut auditor,
            EventKind::TaskVisible {
                task: t(0),
                worker: w(1),
            },
        );
        // A later "round": the comparable rival enters the market.
        auditor.add_task(task(1, 1, &[0, 0], 10));
        send(
            &mut auditor,
            EventKind::TaskPosted {
                task: t(1),
                requester: RequesterId::new(1),
            },
        );
        let findings = send(
            &mut auditor,
            EventKind::TaskVisible {
                task: t(1),
                worker: w(0),
            },
        );
        let a2 = findings
            .iter()
            .find(|f| f.violation.axiom == AxiomId::A2RequesterAssignment)
            .expect("the cross-declaration pair must fire live");
        assert_eq!(a2.seq(), Some(4));
        auditor.finalize();
        // …and the closing report still equals the batch audit.
        let batch = AuditEngine::with_defaults().run(auditor.trace());
        assert_eq!(auditor.final_report(), batch);
        assert!(
            batch
                .axiom(AxiomId::A2RequesterAssignment)
                .is_some_and(|r| r.violation_count > 0),
            "the batch report confirms the violation"
        );
    }

    #[test]
    fn early_wrong_flag_defers_to_the_batch_quantifier() {
        // An honest worker flagged BEFORE any malicious worker has
        // submitted is not yet a batch A4 violation (the quantifier is
        // over *active* malicious workers); it must surface at finalize
        // — never mid-stream, where it would contradict a batch report
        // whose malicious set stayed inactive.
        use faircrowd_model::contribution::Contribution;
        use faircrowd_model::contribution::Submission;
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.ground_truth.malicious_workers.insert(w(1));
        auditor.set_ground_truth(trace.ground_truth.clone());
        for worker in &trace.workers {
            auditor.add_worker(worker.clone());
        }
        for task in &trace.tasks {
            auditor.add_task(task.clone());
        }
        let flagged_early = auditor
            .ingest(Event {
                time: SimTime::from_secs(0),
                seq: 0,
                kind: EventKind::WorkerFlagged {
                    worker: w(0), // honest
                    score: 0.9,
                    detector: Box::new("test".into()),
                },
            })
            .unwrap();
        assert!(
            !flagged_early
                .iter()
                .any(|f| f.violation.axiom == AxiomId::A4MaliceDetection),
            "no active malicious worker yet: {flagged_early:?}"
        );
        // The malicious worker becomes active afterwards.
        auditor.add_submission(Submission {
            id: sub(0),
            task: t(0),
            worker: w(1),
            contribution: Contribution::Label(0),
            started_at: SimTime::from_secs(1),
            submitted_at: SimTime::from_secs(2),
        });
        auditor
            .ingest(Event {
                time: SimTime::from_secs(2),
                seq: 1,
                kind: EventKind::SubmissionReceived {
                    submission: sub(0),
                    task: t(0),
                    worker: w(1),
                },
            })
            .unwrap();
        let closing = auditor.finalize();
        let wrong = closing
            .iter()
            .find(|f| f.violation.description.contains("wrongly flagged"))
            .expect("the early flag surfaces once the quantifier is decidable");
        assert!(matches!(wrong.origin, FindingOrigin::EndOfStream { .. }));
    }

    #[test]
    fn sparse_seq_is_rejected_at_the_event_with_positions() {
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        auditor
            .ingest(Event {
                time: SimTime::from_secs(1),
                seq: 0,
                kind: EventKind::SessionStarted { worker: w(0) },
            })
            .unwrap();
        let err = auditor
            .ingest(Event {
                time: SimTime::from_secs(2),
                seq: 5, // sparse, arriving mid-stream
                kind: EventKind::SessionEnded { worker: w(0) },
            })
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("seq 5"), "{text}");
        assert!(text.contains("position 1"), "{text}");
        assert!(text.contains("expected the dense seq 1"), "{text}");
        // The stream can continue with the *correct* seq.
        assert!(auditor
            .ingest(Event {
                time: SimTime::from_secs(2),
                seq: 1,
                kind: EventKind::SessionEnded { worker: w(0) },
            })
            .is_ok());
    }

    #[test]
    fn time_regression_is_rejected_at_the_event_with_positions() {
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        auditor
            .ingest(Event {
                time: SimTime::from_secs(10),
                seq: 0,
                kind: EventKind::SessionStarted { worker: w(0) },
            })
            .unwrap();
        let err = auditor
            .ingest(Event {
                time: SimTime::from_secs(4), // regresses mid-stream
                seq: 1,
                kind: EventKind::SessionEnded { worker: w(0) },
            })
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("seq 1"), "{text}");
        assert!(text.contains("regressing"), "{text}");
    }

    #[test]
    fn finalize_is_idempotent_and_seals_ingestion() {
        let trace = skeleton(vec![]);
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        auditor.ingest_trace(&trace).unwrap();
        let first = auditor.finalize();
        assert!(auditor.finalize().is_empty());
        let _ = first;
        let err = auditor
            .ingest(Event {
                time: SimTime::ZERO,
                seq: 0,
                kind: EventKind::SessionStarted { worker: w(0) },
            })
            .unwrap_err();
        assert!(err.to_string().contains("finalized"), "{err}");
    }

    #[test]
    fn findings_cap_suppresses_storage_not_the_stream() {
        let mut trace = skeleton(vec![]);
        trace.workers = (0..6).map(|i| worker(i, &[1, 1])).collect();
        trace.tasks = vec![task(0, 0, &[0, 0], 10)];
        show(&mut trace, 1, 0, 0); // 5 violating pairs at one event
        let mut auditor = LiveAuditor::new(AuditConfig::default()).max_live_findings(2);
        let streamed = auditor.ingest_trace(&trace).unwrap();
        let live_a1 = streamed
            .iter()
            .filter(|f| f.violation.axiom == AxiomId::A1WorkerAssignment)
            .count();
        assert_eq!(live_a1, 5, "the stream sees every finding");
        assert_eq!(auditor.findings().len(), 2, "storage is capped");
        assert!(auditor.suppressed_findings() >= 3);
    }
}
