//! The checkpoint/restore acceptance criterion: *checkpoint at any seq
//! → serialize → load → resume → finish the stream* is **bit-identical**
//! to the uninterrupted audit — findings, final report, wages — and
//! therefore (by the PR 5 oracle) to `AuditEngine::run_indexed` over
//! the same trace.
//!
//! Pinned three ways:
//!
//! * deterministically, for **every catalog scenario**, cutting the
//!   JSONL stream at several line positions (just past the header, a
//!   quarter, half, three quarters, and end-of-stream) and pushing each
//!   checkpoint through the full `encode` → `decode` → `ensure_valid`
//!   → `resume` cycle, and re-encoding each decoded checkpoint to the
//!   same bytes;
//! * for the direct ingest path, cutting at raw event boundaries (no
//!   JSONL in the loop), including seq 0 and the final seq;
//! * property-based, over adversarial random traces and random cut
//!   positions.

use faircrowd::core::checkpoint;
use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::core::report::render_report;
use faircrowd::model::trace_io::JsonlReader;
use faircrowd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The uninterrupted reference: stream the whole trace, finalize, and
/// keep everything the cycle must reproduce.
struct Reference {
    findings: Vec<LiveFinding>,
    report: FairnessReport,
    wages: Option<faircrowd::pay::wage::WageStats>,
}

fn reference(trace: &Trace) -> Reference {
    let mut auditor = LiveAuditor::new(AuditConfig::default()).max_live_findings(usize::MAX);
    let mut findings = auditor.ingest_trace(trace).expect("well-formed stream");
    findings.extend(auditor.finalize());
    Reference {
        findings,
        report: auditor.final_report(),
        wages: auditor.final_wages(),
    }
}

/// Feed `lines` into a fresh auditor the way `faircrowd watch` does.
fn stream_prefix(lines: &[&str]) -> (LiveAuditor, JsonlReader) {
    let mut reader = JsonlReader::new();
    let mut auditor = LiveAuditor::new(AuditConfig::default()).max_live_findings(usize::MAX);
    let mut header_applied = false;
    for line in lines {
        match reader.feed_line(line).expect("well-formed line") {
            None => {
                if !header_applied {
                    if let Some(header) = reader.header() {
                        auditor.apply_header(header);
                        header_applied = true;
                    }
                }
            }
            Some(record) => {
                auditor.apply_record(record).expect("well-formed stream");
            }
        }
    }
    (auditor, reader)
}

/// The full cycle at one cut: stream `lines[..cut]`, checkpoint,
/// serialize, load back, resume, stream the rest, finalize — then
/// assert bit-identity against the uninterrupted reference.
fn cycle_at(lines: &[&str], cut: usize, want: &Reference, tag: &str) {
    let (first_life, reader) = stream_prefix(&lines[..cut]);
    let ckpt = first_life.checkpoint(reader.lines_fed() as u64);
    ckpt.ensure_valid().expect("fresh checkpoint is valid");

    // Serialize → parse: the decoded checkpoint is the one we wrote,
    // and it encodes back to the same bytes.
    let bytes = checkpoint::encode(&ckpt);
    let decoded = checkpoint::decode(&bytes).expect("roundtrip decodes");
    assert_eq!(
        decoded, ckpt,
        "{tag}: checkpoint roundtrips bit-identically"
    );
    assert!(
        checkpoint::encode(&decoded) == bytes,
        "{tag}: encode(decode(bytes)) == bytes"
    );

    // Second life: resume and finish the stream. A restarted tailer
    // re-reads the file from the start, so feed ALL lines — the resumed
    // reader's consumed prefix is skipped by count, never re-decoded.
    let mut auditor =
        LiveAuditor::resume(AuditConfig::default(), &decoded).expect("checkpoint resumes");
    assert_eq!(auditor.resumed_events(), decoded.seq(), "{tag}: seq base");
    let mut reader = JsonlReader::resume(decoded.jsonl_header(), decoded.source_lines() as usize);
    let mut header_applied = true;
    for line in &lines[cut..] {
        match reader.feed_line(line).expect("well-formed line") {
            None => {
                if !header_applied {
                    if let Some(header) = reader.header() {
                        auditor.apply_header(header);
                        header_applied = true;
                    }
                }
            }
            Some(record) => {
                auditor.apply_record(record).expect("well-formed stream");
            }
        }
    }
    let tail: Vec<LiveFinding> = auditor.finalize();
    let complete: Vec<LiveFinding> = decoded
        .findings()
        .iter()
        .cloned()
        .chain(
            auditor.findings()[decoded.findings().len()..]
                .iter()
                .cloned(),
        )
        .collect();
    assert_eq!(
        complete, want.findings,
        "{tag}: restored + fresh findings must equal the uninterrupted stream"
    );
    assert!(
        tail.iter().all(|f| complete.contains(f)),
        "{tag}: finalize findings are part of the history"
    );
    assert_eq!(
        auditor.final_report(),
        want.report,
        "{tag}: final report must be bit-identical"
    );
    assert_eq!(
        render_report(&auditor.final_report()),
        render_report(&want.report),
        "{tag}: rendered report must be byte-identical"
    );
    assert_eq!(auditor.final_wages(), want.wages, "{tag}: wages");
}

#[test]
fn every_catalog_scenario_survives_checkpoint_cycles() {
    for name in faircrowd::sim::catalog::NAMES {
        let pipeline = Pipeline::new()
            .scenario_name(name)
            .expect("catalog name resolves")
            .configure(|c| c.rounds = c.rounds.min(12));
        let trace = pipeline.simulate().expect("catalog scenario simulates");
        let batch = AuditEngine::with_defaults().run(&trace);
        let want = reference(&trace);
        assert_eq!(want.report, batch, "{name}: reference equals batch engine");

        let jsonl = persist::encode(&trace, TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        // Just past the header, three interior cuts, and end-of-stream
        // (a restart after the file stopped growing).
        let cuts = [
            1,
            lines.len() / 4,
            lines.len() / 2,
            lines.len() * 3 / 4,
            lines.len(),
        ];
        for cut in cuts {
            cycle_at(&lines, cut.max(1), &want, &format!("{name}@{cut}"));
        }
    }
}

#[test]
fn direct_ingest_checkpoints_at_every_event_boundary_region() {
    // No JSONL in the loop: entities declared up front, a checkpoint
    // taken mid-events, the rest ingested by seq. Covers seq 0 (all
    // entities, no events yet) and the final seq.
    let pipeline = Pipeline::new()
        .scenario_name("spam_campaign")
        .unwrap()
        .configure(|c| c.rounds = c.rounds.min(10));
    let trace = pipeline.simulate().unwrap();
    let want = reference(&trace);
    let n = trace.events.len();
    for cut in [0, 1, n / 3, 2 * n / 3, n.saturating_sub(1), n] {
        let mut first = LiveAuditor::new(AuditConfig::default()).max_live_findings(usize::MAX);
        first.set_horizon(trace.horizon);
        first.set_disclosure(trace.disclosure.clone());
        first.set_ground_truth(trace.ground_truth.clone());
        for w in &trace.workers {
            first.add_worker(w.clone());
        }
        for t in &trace.tasks {
            first.add_task(t.clone());
        }
        for r in &trace.requesters {
            first.add_requester(r.clone());
        }
        for s in &trace.submissions {
            first.add_submission(s.clone());
        }
        for e in trace.events.iter().take(cut) {
            first.ingest(e.clone()).unwrap();
        }
        let ckpt = first.checkpoint(0);
        let decoded = checkpoint::decode(&checkpoint::encode(&ckpt)).unwrap();
        let mut second = LiveAuditor::resume(AuditConfig::default(), &decoded).unwrap();
        for e in trace.events.iter().skip(cut) {
            second.ingest(e.clone()).unwrap();
        }
        second.finalize();
        assert_eq!(second.final_report(), want.report, "cut {cut}");
        assert_eq!(second.final_wages(), want.wages, "cut {cut}");
        assert_eq!(second.findings().len(), want.findings.len(), "cut {cut}");
    }
}

/// The `live_stream` random-trace generator, reduced: enough event-kind
/// and contribution coverage to stress every mirror the checkpoint
/// serializes.
fn random_trace(seed: u64, n_workers: usize, n_tasks: usize, n_subs: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace {
        disclosure: match rng.gen_range(0..3u8) {
            0 => DisclosureSet::fully_transparent(),
            1 => DisclosureSet::opaque(),
            _ => faircrowd::core::enforce::minimal_transparent_set(),
        },
        ..Trace::default()
    };
    let n_skills = 4;
    for i in 0..n_workers {
        let mut skills = SkillVector::with_len(n_skills);
        for s in 0..n_skills {
            if rng.gen_bool(0.45) {
                skills.set(SkillId::new(s as u32), true);
            }
        }
        trace.workers.push(Worker::new(
            WorkerId::new(i as u32),
            DeclaredAttrs::new(),
            skills,
        ));
        if rng.gen_bool(0.15) {
            trace
                .ground_truth
                .malicious_workers
                .insert(WorkerId::new(i as u32));
        }
    }
    for i in 0..2u32 {
        trace
            .requesters
            .push(Requester::new(RequesterId::new(i), format!("r{i}")));
    }
    for i in 0..n_tasks {
        let mut skills = SkillVector::with_len(n_skills);
        for s in 0..n_skills {
            if rng.gen_bool(0.3) {
                skills.set(SkillId::new(s as u32), true);
            }
        }
        trace.tasks.push(
            faircrowd::model::task::TaskBuilder::new(
                TaskId::new(i as u32),
                RequesterId::new(rng.gen_range(0..2u32)),
                skills,
                Credits::from_cents(rng.gen_range(1..30i64)),
            )
            .build(),
        );
    }
    let mut clock = 0u64;
    let mut tick = |rng: &mut StdRng| {
        clock += rng.gen_range(0..5u64);
        SimTime::from_secs(clock)
    };
    if n_workers > 0 && n_tasks > 0 {
        let any_worker = |rng: &mut StdRng| WorkerId::new(rng.gen_range(0..n_workers) as u32);
        let any_task = |rng: &mut StdRng| TaskId::new(rng.gen_range(0..n_tasks) as u32);
        for _ in 0..(n_workers * 2) {
            let (worker, task) = (any_worker(&mut rng), any_task(&mut rng));
            let t = tick(&mut rng);
            trace
                .events
                .push(t, EventKind::TaskVisible { task, worker });
        }
        for i in 0..n_subs {
            let (worker, task) = (any_worker(&mut rng), any_task(&mut rng));
            let contribution = match rng.gen_range(0..3u8) {
                0 => Contribution::Label(rng.gen_range(0..3u8)),
                1 => Contribution::Text("the quick brown fox".into()),
                _ => Contribution::Numeric(f64::from(rng.gen_range(0..100u32)) / 7.0),
            };
            let start = tick(&mut rng);
            let id = SubmissionId::new(i as u32);
            trace.submissions.push(Submission {
                id,
                task,
                worker,
                contribution,
                started_at: start,
                submitted_at: SimTime::from_secs(start.as_secs() + rng.gen_range(30..600u64)),
            });
            let t = tick(&mut rng);
            trace.events.push(
                t,
                EventKind::SubmissionReceived {
                    submission: id,
                    task,
                    worker,
                },
            );
            if rng.gen_bool(0.4) {
                let t = tick(&mut rng);
                trace.events.push(
                    t,
                    EventKind::PaymentIssued {
                        submission: id,
                        task,
                        worker,
                        amount: Credits::from_millicents(rng.gen_range(0..20_000i64)),
                    },
                );
            }
        }
        let w = any_worker(&mut rng);
        let t0 = any_task(&mut rng);
        let extras = vec![
            EventKind::SessionStarted { worker: w },
            EventKind::WorkStarted {
                task: t0,
                worker: w,
            },
            EventKind::WorkInterrupted {
                task: t0,
                worker: w,
                invested: SimDuration::from_secs(rng.gen_range(1..500u64)),
                compensated: rng.gen_bool(0.5),
            },
            EventKind::WorkerFlagged {
                worker: w,
                score: f64::from(rng.gen_range(0..100u32)) / 100.0,
                detector: "spam".into(),
            },
            EventKind::SessionEnded { worker: w },
            EventKind::WorkerQuit {
                worker: w,
                reason: faircrowd::model::event::QuitReason::NaturalChurn,
            },
        ];
        for kind in extras {
            let t = tick(&mut rng);
            trace.events.push(t, kind);
        }
    }
    trace.horizon = SimTime::from_secs(clock + 1);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpointing any legal stream at any line survives the full
    /// serialize → load → resume cycle bit-identically.
    #[test]
    fn random_checkpoint_cuts_are_bit_identical(
        seed in 0u64..1_000_000,
        n_workers in 1usize..15,
        n_tasks in 1usize..10,
        n_subs in 0usize..20,
        cut_frac in 0.0f64..1.0,
    ) {
        let trace = random_trace(seed, n_workers, n_tasks, n_subs);
        prop_assert!(trace.validate().is_empty(), "generator must emit valid traces");
        let want = reference(&trace);
        let jsonl = persist::encode(&trace, TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let cut = ((lines.len() as f64 * cut_frac) as usize).clamp(1, lines.len());
        cycle_at(&lines, cut, &want, &format!("seed {seed} cut {cut}"));
    }
}
