//! One differential harness: every route to a verdict is one row.
//!
//! The paper's axioms are verdicts over a platform's log, so a verdict
//! must not depend on which route read the log. Each route is a row of
//! the [`trace_rows!`] table: a function from a trace to what that route
//! reports — the report and wages, and for the routes that stream, the
//! finding stream — and each row is a test of its own in `rows::`.
//! Every row must equal the reference on every input: the naive audit
//! for reports, the live auditor fed the whole trace (`live direct`)
//! for findings. The rows drive the library's own routes, the audit
//! daemon included; none is re-implemented here.
//!
//! Inputs ([`cases`], built once for every row): [`RANDOM_CASES`] traces
//! from `common::random_trace`, every catalog scenario (rounds ≤ 12,
//! strategic ones converged first) and the sparse-id trace. Beside the
//! table: the reference stream's own checks, the pipeline runs that
//! made the catalog inputs, several traces as the markets of one
//! daemon, full-length catalog traces through the batch engine, sweep
//! grids with routes of their own, and a check that the random inputs
//! still cover every event kind and verdict. A new route costs one row.

mod common;

use common::{random_trace, run_all_shards, scratch, sparse_id_trace};
use faircrowd::core::checkpoint;
use faircrowd::core::index::EXACT_SCAN_MAX;
use faircrowd::core::metrics::wage_stats;
use faircrowd::core::persist::{self, TraceFormat, TraceFormat::*};
use faircrowd::core::report::render_report;
use faircrowd::core::TraceIndex;
use faircrowd::model::event::EventLog;
use faircrowd::pay::wage::WageStats;
use faircrowd::prelude::*;
use faircrowd::sim::catalog;
use faircrowd::sweep::run_grid;
use faircrowd::sweep::shard::merge_paths;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// One input to the trace rows.
struct Input {
    /// Names the input in failure messages.
    name: String,
    trace: Trace,
    /// The trace as a JSONL stream: what the daemon rows read.
    jsonl: String,
    /// Every row audits under this configuration.
    audit: AuditConfig,
    /// Seeds the rows' own random choices (where to cut a stream).
    seed: u64,
}

impl Input {
    fn new(name: impl Into<String>, trace: Trace, audit: AuditConfig, seed: u64) -> Self {
        let name = name.into();
        assert_eq!(trace.validate(), Vec::<String>::new(), "{name}");
        let jsonl = persist::encode(&trace, Jsonl);
        Input {
            name,
            trace,
            jsonl,
            audit,
            seed,
        }
    }

    /// A random generator for one row's choices, distinct per row.
    fn rng(&self, row: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ row.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Where one row cuts a stream, in `lo..=hi`: on either end a
    /// quarter of the time each, so the first and last positions are
    /// cut too.
    fn cut(&self, row: u64, lo: usize, hi: usize) -> usize {
        let mut rng = self.rng(row);
        match rng.gen_range(0..4u8) {
            0 => lo,
            1 => hi,
            _ => rng.gen_range(lo..=hi),
        }
    }

    fn lines(&self) -> Vec<&str> {
        self.jsonl.lines().collect()
    }

    /// JSONL lines before the first event: the header and every entity.
    fn entity_lines(&self) -> usize {
        let t = &self.trace;
        1 + t.workers.len() + t.tasks.len() + t.requesters.len() + t.submissions.len()
    }

    /// A daemon over the markets found in `dir`, if any, with a
    /// checkpoint after every poll when `journal` names a directory.
    fn daemon(&self, jobs: usize, journal: Option<&Path>, dir: Option<&Path>) -> AuditDaemon {
        let config = DaemonConfig {
            audit: self.audit.clone(),
            jobs,
            checkpoint_dir: journal.map(Path::to_owned),
            checkpoint_every: 1,
        };
        let sources = dir.map_or(Ok(Vec::new()), MarketSource::discover);
        AuditDaemon::open(config, sources.expect("markets discovered"))
    }
}

/// What a route reports.
#[derive(Debug, PartialEq)]
struct Seen {
    report: FairnessReport,
    wages: Option<WageStats>,
    /// The finding stream, for the routes that stream.
    findings: Option<Vec<LiveFinding>>,
    /// The world the route rebuilt from what it read, if it keeps one.
    world: Option<Trace>,
}

impl Seen {
    fn new(
        (report, wages): (FairnessReport, Option<WageStats>),
        findings: Option<Vec<LiveFinding>>,
        world: Option<Trace>,
    ) -> Self {
        Seen {
            report,
            wages,
            findings,
            world,
        }
    }
}

type TraceRow = fn(&Input) -> Seen;

/// The table of routes: one test per row, named in `rows::`, that holds
/// the row to the reference on every input.
macro_rules! trace_rows {
    ($($test:ident: $route:literal => $row:expr,)*) => {
        mod rows {
            use super::*;
            $(
                #[test]
                fn $test() {
                    check_row($route, $row);
                }
            )*
        }
    };
}

// Every route from a trace to a verdict but the reference, `naive`.
trace_rows! {
    indexed_parallel: "indexed, parallel" => |input| indexed(input, true),
    indexed_serial: "indexed, serial" => |input| indexed(input, false),
    index_rebuilt_after_a_payment: "rebuilt index" => rebuilt_index,
    replay_from_json: "replay from JSON" => |input| replay(input, Json),
    replay_from_jsonl: "replay from JSONL" => |input| replay(input, Jsonl),
    replay_from_fcb: "replay from .fcb" => |input| replay(input, Binary),
    live_direct_ingest: "live direct" => live_direct,
    checkpoint_at_a_random_event: "checkpoint at a random event" => checkpoint_cut,
    daemon_fed_lines: "daemon, fed lines" => daemon_fed,
    daemon_tailing_a_jsonl_file: "daemon, tailing a .jsonl file" => daemon_tailing,
    daemon_fcb_recording: "daemon, .fcb recording" => daemon_recording,
    daemon_journal_resume: "daemon, journal resume" => journal_resume,
    daemon_torn_journal: "daemon, torn journal" => torn_journal,
}

fn batch(report: FairnessReport, trace: &Trace) -> Seen {
    Seen::new((report, wage_stats(&TraceIndex::new(trace))), None, None)
}

fn naive(input: &Input) -> Seen {
    let engine = AuditEngine::new(input.audit.clone());
    batch(engine.run_naive(&input.trace, &AxiomId::ALL), &input.trace)
}

fn indexed(input: &Input, parallel: bool) -> Seen {
    let audit = AuditConfig {
        parallel,
        ..input.audit.clone()
    };
    batch(AuditEngine::new(audit).run(&input.trace), &input.trace)
}

/// The index of the trace with one more payment, audited, then rebuilt
/// for the trace itself: a payments-only difference, so the entity
/// slices carry over.
fn rebuilt_index(input: &Input) -> Seen {
    let trace = &input.trace;
    let mut paid = trace.clone();
    if let Some(s) = trace.submissions.first() {
        let (submission, task, worker) = (s.id, s.task, s.worker);
        let amount = Credits::from_cents(3);
        let kind = EventKind::PaymentIssued {
            submission,
            task,
            worker,
            amount,
        };
        paid.events.push(trace.horizon, kind);
    }
    let engine = AuditEngine::new(input.audit.clone());
    let first = TraceIndex::new(&paid);
    engine.run_indexed(&first, &AxiomId::ALL);
    let ix = first.rebuilt_for(trace);
    batch(engine.run_indexed(&ix, &AxiomId::ALL), trace)
}

/// Encode, decode, check that re-encoding gives the same bytes, replay.
fn replay(input: &Input, format: TraceFormat) -> Seen {
    let tag = format!("{} as {format:?}", input.name);
    let bytes = persist::encode_bytes(&input.trace, format);
    let decoded = persist::decode_bytes(&bytes).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let again = persist::encode_bytes(&decoded, format);
    assert!(again == bytes, "{tag}: re-encodes to other bytes");
    let pipeline = Pipeline::new().audit(input.audit.clone());
    let run = pipeline.replay_owned(decoded).expect("replays");
    Seen::new((run.report, run.wages), None, Some(run.trace))
}

fn live_direct(input: &Input) -> Seen {
    let mut auditor = LiveAuditor::new(input.audit.clone()).max_live_findings(usize::MAX);
    let mut findings = auditor.ingest_trace(&input.trace).expect("ingests");
    findings.extend(auditor.finalize());
    assert_eq!(auditor.findings(), findings, "{}: retained", input.name);
    let artifacts = auditor.final_artifacts(&AxiomId::ALL);
    Seen::new(artifacts, Some(findings), Some(auditor.into_trace()))
}

/// Checkpoints at the first event, after the last and at a random cut
/// in between: each route ends where the random one does, which the
/// table holds to the reference.
fn checkpoint_cut(input: &Input) -> Seen {
    let n = input.trace.events.len();
    let seen = checkpoint_at(input, input.cut(1, 0, n));
    for end in [0, n] {
        let tag = format!("{}, cut at event {end}", input.name);
        assert!(checkpoint_at(input, end) == seen, "{tag}: differs");
    }
    seen
}

/// Ingest the events before `cut`, checkpoint, encode, decode, resume,
/// then finish the stream.
fn checkpoint_at(input: &Input, cut: usize) -> Seen {
    let events = input.trace.events.as_slice();
    let tag = format!("{}, cut at event {cut}", input.name);
    let mut prefix = input.trace.clone();
    prefix.events = EventLog::from_events(events[..cut].to_vec());
    let mut first = LiveAuditor::new(input.audit.clone()).max_live_findings(usize::MAX);
    first.ingest_trace(&prefix).expect("prefix ingests");
    let ckpt = first.checkpoint((input.entity_lines() + cut) as u64);
    ckpt.ensure_valid().expect("a fresh checkpoint is valid");
    let bytes = checkpoint::encode(&ckpt);
    let decoded = checkpoint::decode(&bytes).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_eq!(decoded, ckpt, "{tag}: decode(encode(c)) == c");
    assert!(checkpoint::encode(&decoded) == bytes, "{tag}: stable bytes");

    let mut resumed = LiveAuditor::resume(input.audit.clone(), &decoded).expect("resumes");
    assert_eq!(resumed.resumed_events(), cut as u64, "{tag}");
    for e in &events[cut..] {
        resumed.ingest(e.clone()).expect("ingests");
    }
    let tail = resumed.finalize();
    let restored = decoded.findings();
    let mut findings = restored.to_vec();
    findings.extend_from_slice(&resumed.findings()[restored.len()..]);
    let in_history = tail.iter().all(|f| findings.contains(f));
    assert!(in_history, "{tag}: finalize findings in history");
    Seen::new(resumed.final_artifacts(&AxiomId::ALL), Some(findings), None)
}

fn feed(daemon: &mut AuditDaemon, lines: &[&str]) {
    for line in lines {
        daemon.feed_line("m", *line);
    }
}

/// Finish a daemon's life: restore, poll and finalize every market,
/// after the findings it already polled. What it reports, by market;
/// no market may fail.
fn close(daemon: &mut AuditDaemon, polled: Vec<DaemonFinding>) -> BTreeMap<String, Seen> {
    let restored = daemon.restored_findings();
    let mut found: BTreeMap<String, Vec<LiveFinding>> = BTreeMap::new();
    let all = restored.into_iter().chain(polled);
    for f in all.chain(daemon.poll()).chain(daemon.finalize()) {
        found.entry(f.market).or_default().push(f.finding);
    }
    let failed = daemon.failed_markets();
    assert!(failed.is_empty(), "{failed:?}");
    let reports = daemon.reports().expect("markets validate");
    let seen = |r: DaemonReport| {
        let auditor = daemon.auditor(&r.market).expect("registered");
        let world = r.resumed_from.is_none().then(|| auditor.trace().clone());
        let findings = Some(found.remove(&r.market).unwrap_or_default());
        (r.market, Seen::new((r.report, r.wages), findings, world))
    };
    reports.into_iter().map(seen).collect()
}

fn daemon_fed(input: &Input) -> Seen {
    let mut daemon = input.daemon(1, None, None);
    feed(&mut daemon, &input.lines());
    close(&mut daemon, Vec::new()).remove("m").unwrap()
}

/// A `.jsonl` file written up to a random byte, polled, then completed.
fn daemon_tailing(input: &Input) -> Seen {
    let dir = scratch();
    let path = dir.join("m.jsonl");
    let bytes = input.jsonl.as_bytes();
    let (head, rest) = bytes.split_at(input.cut(2, 0, bytes.len()));
    std::fs::write(&path, head).unwrap();
    let mut daemon = input.daemon(1, None, Some(&dir));
    let polled = daemon.poll();
    let mut file = OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(rest).unwrap();
    let seen = close(&mut daemon, polled).remove("m").unwrap();
    std::fs::remove_dir_all(&dir).ok();
    seen
}

fn daemon_recording(input: &Input) -> Seen {
    let dir = scratch();
    let path = dir.join("m.fcb");
    persist::save(&input.trace, &path).unwrap();
    let mut daemon = input.daemon(1, None, Some(&dir));
    let seen = close(&mut daemon, Vec::new()).remove("m").unwrap();
    std::fs::remove_dir_all(&dir).ok();
    seen
}

/// A second daemon life over the whole stream, resumed from `dir`'s
/// journal: the market's verdict and notices, provided it resumed from
/// `seq`, said so, and restored the `before` findings of its first life.
fn resume_at(
    input: &Input,
    dir: &Path,
    jobs: usize,
    (seq, before): (usize, usize),
) -> (Seen, Vec<String>) {
    let mut daemon = input.daemon(jobs, Some(dir), None);
    feed(&mut daemon, &input.lines());
    let restored = daemon.restored_findings().len();
    let seen = close(&mut daemon, Vec::new()).remove("m").unwrap();
    let notices = daemon.take_notices();
    let tag = format!("{}, resumed at seq {seq}: {notices:?}", input.name);
    let resumed = format!("resumed market `m` from checkpoint seq {seq} (");
    let said = notices.iter().any(|n| n.starts_with(&resumed));
    assert_eq!(said, seq > 0, "{tag}");
    let resumed_events = daemon.auditor("m").unwrap().resumed_events();
    assert_eq!(resumed_events, seq as u64, "{tag}");
    assert_eq!(restored, before, "{tag}: restored findings");
    std::fs::remove_dir_all(dir).ok();
    (seen, notices)
}

/// A daemon killed after a random line, restarted from
/// `<dir>/checkpoints.journal` with `jobs` > 1. The first checkpoint
/// comes after the first event.
fn journal_resume(input: &Input) -> Seen {
    let (dir, lines) = (scratch(), input.lines());
    let cut = input.cut(3, 1, lines.len());
    let mut first = input.daemon(3, Some(&dir), None);
    feed(&mut first, &lines[..cut]);
    let before = first.poll().len();
    drop(first);
    let seq = cut.saturating_sub(input.entity_lines());
    resume_at(input, &dir, 3, (seq, if seq > 0 { before } else { 0 })).0
}

/// A daemon that checkpointed twice inside the event region and was
/// killed while writing the second record: the restart cuts the torn
/// record and the market resumes from the first.
fn torn_journal(input: &Input) -> Seen {
    let (dir, lines) = (scratch(), input.lines());
    let first_event = input.entity_lines() + 1;
    if lines.len() <= first_event {
        // Fewer than two events: there is no second record to tear.
        return resume_at(input, &dir, 2, (0, 0)).0;
    }
    let journal = dir.join("checkpoints.journal");
    let mut rng = input.rng(4);
    let cut1 = rng.gen_range(first_event..lines.len());
    let cut2 = rng.gen_range(cut1 + 1..=lines.len());
    let mut first = input.daemon(2, Some(&dir), None);
    feed(&mut first, &lines[..cut1]);
    let before = first.poll().len();
    let start = std::fs::metadata(&journal).unwrap().len();
    feed(&mut first, &lines[cut1..cut2]);
    first.poll();
    drop(first);
    let bytes = std::fs::read(&journal).unwrap();
    let torn = rng.gen_range(start as usize + 1..bytes.len());
    std::fs::write(&journal, &bytes[..torn]).unwrap();
    let seq = cut1 - input.entity_lines();
    let (seen, notices) = resume_at(input, &dir, 2, (seq, before));
    let cut = torn - start as usize;
    let cut = format!("cut {cut} byte(s) of torn or corrupt record at byte {start}");
    let tag = format!("{}, torn at byte {torn}", input.name);
    assert!(notices.iter().any(|n| n.contains(&cut)), "{tag}");
    seen
}

/// Run one row over every input and hold it to the reference.
fn check_row(route: &str, row: TraceRow) {
    for case in cases() {
        let (input, s) = (&case.input, row(&case.input));
        let tag = format!("{} via {route}", input.name);
        assert_verdict(&tag, (&s.report, &s.wages), &case.reference);
        if let Some(f) = &s.findings {
            assert!(
                f == &case.findings,
                "{tag}: findings differ from live direct"
            );
        }
        if let Some(world) = &s.world {
            assert!(world == &input.trace, "{tag}: world differs");
        }
    }
}

/// A route's report, its rendering and its wages equal the reference's.
fn assert_verdict(tag: &str, (report, wages): (&FairnessReport, &Option<WageStats>), want: &Seen) {
    assert_eq!(report, &want.report, "{tag}: report");
    let rendered = render_report(&want.report);
    assert_eq!(render_report(report), rendered, "{tag}: rendered report");
    assert_eq!(wages, &want.wages, "{tag}: wages");
}

/// The finding stream against the batch report: seqs in range and
/// non-decreasing, and prefix-complete — every A1–A3 violation the
/// report counts was announced at an event, and A5 one for one.
fn check_stream(input: &Input, batch: &FairnessReport, findings: &[LiveFinding]) {
    let name = &input.name;
    let seqs: Vec<u64> = findings.iter().filter_map(LiveFinding::seq).collect();
    let n = input.trace.events.len() as u64;
    assert!(seqs.iter().all(|&s| s < n), "{name}: seq in range");
    let ordered = seqs.windows(2).all(|w| w[0] <= w[1]);
    assert!(ordered, "{name}: stream order");
    let live = |id: AxiomId| {
        let at_event = |f: &&LiveFinding| matches!(f.origin, FindingOrigin::Event { .. });
        findings
            .iter()
            .filter(at_event)
            .filter(|f| f.violation.axiom == id)
            .count()
    };
    let counted = |id: AxiomId| batch.axiom(id).map_or(0, |r| r.violation_count);
    use AxiomId::*;
    for id in [A1WorkerAssignment, A2RequesterAssignment, A3Compensation] {
        assert!(live(id) >= counted(id), "{name}: {id} prefix");
    }
    let a5 = A5NoInterruption;
    assert_eq!(live(a5), counted(a5), "{name}: A5 one for one");
}

const RANDOM_CASES: usize = 48;

/// The harness's random inputs, drawn from one fixed seed. Worker and
/// task counts each alternate between the two sides of
/// `EXACT_SCAN_MAX`, every combination in turn, so the exhaustive and
/// the blocked pair scans both run for workers (A1) and tasks (A2).
/// Each case draws its similarity regime and witness cap.
fn random_inputs() -> impl Iterator<Item = Input> {
    let mut rng = StdRng::seed_from_u64(0x0fa1_2c20);
    (0..RANDOM_CASES).map(move |case| {
        let seed = rng.gen_range(0..1_000_000u64);
        let mut count = |blocked: bool, max: usize| match blocked {
            false => rng.gen_range(0..=EXACT_SCAN_MAX),
            true => rng.gen_range(EXACT_SCAN_MAX + 1..max),
        };
        let n_workers = count(case % 2 == 1, 60);
        let n_tasks = count(case / 2 % 2 == 1, 48);
        let n_subs = rng.gen_range(0..70usize);
        let similarity = match rng.gen_range(0..3u8) {
            0 => SimilarityConfig::default(),
            1 => SimilarityConfig::lenient(),
            _ => SimilarityConfig::exact(),
        };
        let max_witnesses = rng.gen_range(0..6usize);
        let audit = AuditConfig {
            similarity,
            max_witnesses,
            ..AuditConfig::default()
        };
        let name = format!("random trace {case} (seed {seed}, {n_workers}w/{n_tasks}t/{n_subs}s)");
        Input::new(
            name,
            random_trace(seed, n_workers, n_tasks, n_subs),
            audit,
            seed,
        )
    })
}

fn sparse_ids() -> Input {
    Input::new("sparse ids", sparse_id_trace(), AuditConfig::default(), 7)
}

/// One input with its references.
struct Case {
    input: Input,
    /// The naive audit's report and wages.
    reference: Seen,
    /// The `live direct` finding stream.
    findings: Vec<LiveFinding>,
    /// For a catalog input, the pipeline runs that made its trace.
    runs: Vec<(&'static str, RunArtifacts)>,
}

impl Case {
    fn new(input: Input, runs: Vec<(&'static str, RunArtifacts)>) -> Self {
        let reference = naive(&input);
        let findings = live_direct(&input).findings.unwrap();
        Case {
            input,
            reference,
            findings,
            runs,
        }
    }
}

/// Every input of the trace rows with its references, built once: the
/// random traces, the catalog scenarios and the sparse-id trace.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let random = random_inputs().map(|input| Case::new(input, Vec::new()));
        let static_names = catalog_cases(&catalog::STATIC_NAMES);
        let strategic = catalog_cases(&catalog::STRATEGIC_NAMES);
        let sparse = Case::new(sparse_ids(), Vec::new());
        random
            .chain(static_names)
            .chain(strategic)
            .chain([sparse])
            .collect()
    })
}

/// Catalog scenarios, rounds capped at 12. Strategic scenarios are
/// converged first; static ones also go through `Pipeline::run_live`,
/// whose artifacts must match `Pipeline::run`'s and the reference.
fn catalog_cases(names: &'static [&'static str]) -> impl Iterator<Item = Case> {
    names.iter().enumerate().map(|(k, &name)| {
        let pipeline = Pipeline::new().scenario_name(name).expect("catalog name");
        let pipeline = pipeline.configure(|c| c.rounds = c.rounds.min(12));
        let runs: Vec<(&str, RunArtifacts)> = if catalog::STRATEGIC_NAMES.contains(&name) {
            vec![("run_converged", pipeline.run_converged().unwrap().artifacts)]
        } else {
            let run = pipeline.clone().run().unwrap().baseline;
            vec![
                ("run", run),
                ("run_live", pipeline.run_live(|_| {}).unwrap().artifacts),
            ]
        };
        let trace = runs[0].1.trace.clone();
        let input = Input::new(name, trace, AuditConfig::default(), k as u64);
        Case::new(input, runs)
    })
}

/// The reference finding stream is prefix-complete against the
/// reference report on every input, and no catalog input is silent.
#[test]
fn the_reference_stream_is_prefix_complete() {
    for case in cases() {
        check_stream(&case.input, &case.reference.report, &case.findings);
        let silent = !case.runs.is_empty() && case.findings.is_empty();
        assert!(
            !silent,
            "{}: a catalog input streams findings",
            case.input.name
        );
    }
}

/// The pipeline runs that made the catalog inputs report what the
/// reference does, over the trace they made, with its summary.
#[test]
fn pipeline_runs_match_the_reference_on_catalog_scenarios() {
    for case in cases() {
        let trace = &case.input.trace;
        for (route, run) in &case.runs {
            let tag = format!("{} via {route}", case.input.name);
            assert_verdict(&tag, (&run.report, &run.wages), &case.reference);
            assert!(&run.trace == trace, "{tag}: trace");
            let summary = TraceSummary::of(trace);
            assert_eq!(run.summary, summary, "{tag}: summary");
        }
    }
}

/// Full-length catalog markets, too long for every row in a debug
/// build, through the batch engine: indexed ≡ naive where the blocking
/// buckets hold the most entities.
#[test]
fn full_length_catalog_traces_audit_like_naive() {
    for (name, scale) in [("baseline", 1.0), ("spam_campaign", 1.0), ("baseline", 2.0)] {
        let config = catalog::get(name).expect("catalog name").at_scale(scale);
        let input = Input::new(
            format!("{name} ×{scale}"),
            Simulation::new(config).run(),
            AuditConfig::default(),
            0,
        );
        let reference = naive(&input);
        for parallel in [true, false] {
            let tag = format!("{}, parallel: {parallel}", input.name);
            assert_eq!(indexed(&input, parallel).report, reference.report, "{tag}");
        }
    }
}

/// Ids far past the dense bound spill out of every arena; the rows show
/// the spill is invisible, and the reference shows the asymmetries
/// across it.
#[test]
fn sparse_ids_show_both_asymmetries() {
    let sparse = cases().iter().find(|c| c.input.name == "sparse ids");
    let report = &sparse.expect("a sparse-id case").reference.report;
    for id in [AxiomId::A1WorkerAssignment, AxiomId::A3Compensation] {
        assert!(
            report.score_of(id) < 1.0,
            "{id}: asymmetry across the spill"
        );
    }
}

/// Several traces as the markets of one daemon, fed line by line in
/// turn: each market's part of the merged stream is its own reference,
/// whatever the job count.
#[test]
fn markets_of_one_daemon_match_their_own_references() {
    let audit = AuditConfig::default();
    let inputs: Vec<Input> = (random_inputs().step_by(4).chain([sparse_ids()]))
        .map(|i| Input {
            audit: audit.clone(),
            ..i
        })
        .collect();
    let references: Vec<Seen> = inputs.iter().map(live_direct).collect();
    let markets: Vec<String> = (0..inputs.len()).map(|k| format!("market{k:02}")).collect();
    for jobs in [1, 4] {
        let mut daemon = inputs[0].daemon(jobs, None, None);
        let mut streams: Vec<_> = inputs.iter().map(|i| i.jsonl.lines()).collect();
        let mut polled = Vec::new();
        for round in 0.. {
            let mut fed = false;
            for (market, lines) in markets.iter().zip(&mut streams) {
                if let Some(line) = lines.next() {
                    daemon.feed_line(market, line);
                    fed = true;
                }
            }
            if !fed {
                break;
            }
            if round % 50 == 49 {
                polled.extend(daemon.poll());
            }
        }
        let mut seen = close(&mut daemon, polled);
        for ((input, want), market) in inputs.iter().zip(&references).zip(&markets) {
            let seen = seen.remove(market).unwrap();
            let tag = format!("{} as {market}, jobs {jobs}", input.name);
            assert_verdict(&tag, (&seen.report, &seen.wages), want);
            assert!(seen.findings == want.findings, "{tag}: findings");
        }
    }
}

/// The table, JSON and CSV a sweep exports.
fn exports(result: &SweepResult) -> [String; 3] {
    [result.render_table(), result.to_json(), result.to_csv()]
}

/// Every route from a sweep grid to its exports must equal `run_grid` on
/// one job, byte for byte: `run_grid` on 8 jobs over every registry
/// policy × 8 seeds × 2 scenarios, and, over a grid of 3-seed groups and
/// enforcement stacks, the grid split over 1, 2, 3, 5 and 8 shards with
/// the parts merged in order and reversed.
#[test]
fn every_route_agrees_on_grids() {
    let policies = faircrowd::assign::registry::NAMES.len();
    let wide = "policy=*;seed=0..8;scenario=baseline,spam_campaign;rounds=8";
    let sharded = "policy=round_robin,kos;seed=1,2,3;rounds=6;enforce=none,grace";
    for (spec, cases, shards) in [
        (wide, policies * 8 * 2, &[][..]),
        (sharded, 12, &[1, 2, 3, 5, 8]),
    ] {
        let grid = SweepGrid::parse(spec).unwrap();
        let single = run_grid(&grid, 1).unwrap();
        assert_eq!(single.cases.len(), cases, "{spec}: cases");
        let reference = exports(&single);
        let mut routes = vec![("8 jobs".to_owned(), run_grid(&grid, 8).unwrap())];
        for &count in shards {
            let dir = scratch();
            let mut parts = run_all_shards(&grid, count, &dir);
            routes.push((format!("{count} shard(s)"), merge_paths(&parts).unwrap()));
            parts.reverse();
            let reversed = merge_paths(&parts).unwrap();
            routes.push((format!("{count} shard(s), reversed"), reversed));
            std::fs::remove_dir_all(&dir).ok();
        }
        for (route, result) in routes {
            let [table, json, csv] = exports(&result);
            assert_eq!(table, reference[0], "{spec} via {route}: table");
            assert_eq!(json, reference[1], "{spec} via {route}: JSON");
            assert_eq!(csv, reference[2], "{spec} via {route}: CSV");
        }
    }
}

/// The random inputs are what the rows need them to be, so a change to
/// the generator cannot quietly weaken a case: every event kind and
/// contribution type occurs, worker and task counts fall on either side
/// of `EXACT_SCAN_MAX` in every combination, and every axiom holds on
/// some trace and fails with at least two violations on another.
#[test]
fn the_random_inputs_cover_every_kind_and_verdict() {
    let inputs: Vec<Input> = random_inputs().collect();
    let traces = || inputs.iter().map(|i| &i.trace);
    let tags: BTreeSet<&str> = traces()
        .flat_map(|t| t.events.iter().map(|e| e.kind.tag()))
        .collect();
    let every_tag = "task_posted task_visible task_accepted work_started submission_received \
                     submission_approved submission_rejected payment_issued bonus_promised \
                     bonus_paid bonus_reneged task_canceled work_interrupted worker_flagged \
                     disclosure_shown session_started session_ended worker_quit";
    assert_eq!(tags, every_tag.split_whitespace().collect(), "event kinds");
    let contributions: BTreeSet<&str> = traces()
        .flat_map(|t| t.submissions.iter().map(|s| s.contribution.kind_name()))
        .collect();
    assert_eq!(
        contributions.len(),
        4,
        "contribution types: {contributions:?}"
    );
    let sizes: BTreeSet<(bool, bool)> = traces()
        .filter(|t| t.workers.len() > 1 && t.tasks.len() > 1)
        .map(|t| (t.workers.len(), t.tasks.len()))
        .map(|(w, t)| (w > EXACT_SCAN_MAX, t > EXACT_SCAN_MAX))
        .collect();
    assert_eq!(sizes.len(), 4, "(workers, tasks) blocked: {sizes:?}");

    let reports: Vec<FairnessReport> = inputs
        .iter()
        .map(|i| AuditEngine::new(i.audit.clone()).run(&i.trace))
        .collect();
    for id in AxiomId::ALL {
        let verdicts = || {
            reports
                .iter()
                .map(|r| r.axiom(id).expect("every axiom reports"))
        };
        let holds = verdicts().any(|a| a.holds() && a.checked > 0);
        assert!(holds, "{id} holds on no random input");
        let fails = verdicts().any(|a| a.violation_count >= 2);
        assert!(fails, "{id} fails with two violations on no random input");
    }
}
