//! The one random-trace generator of the integration suites, the
//! sparse-id trace — the inputs `routes.rs` drives through every route
//! to a verdict — and the scratch directories and sharded-sweep runs
//! that `routes.rs` and `sweep_shard.rs` share.
//!
//! [`random_trace`] is adversarial on purpose, broader than the
//! simulator's output: every event kind and contribution type the
//! schema encodes, and enough structure for every axiom's quantifier
//! domain to be non-trivial. Every trace it makes passes
//! `Trace::validate()`, so the replay and daemon routes accept it.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use faircrowd::model::event::{CancelReason, QuitReason};
use faircrowd::model::task::{TaskBuilder, TaskConditions};
use faircrowd::prelude::*;
use faircrowd::sweep::shard::{run_shard, ShardSpec};
use faircrowd::sweep::SweepGrid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const N_SKILLS: usize = 6;

/// Near-duplicate and unrelated texts, so A3's contribution similarity
/// has both kinds of pair to judge.
const TEXTS: [&str; 3] = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumped over the lazy dogs",
    "completely unrelated gibberish zzz qqq xyzzy",
];

/// A messy random trace. What each part is for:
/// - task rewards from {10, 11, 12, 50} cents and payments from
///   {0, 5, 10, 10, 10} cents, so equal work meets equal and unequal
///   pay (A3);
/// - at most one `TaskPosted` per task, so some tasks are posted and
///   some never are (A6);
/// - sessions and disclosures per worker (A7);
/// - repeated `WorkInterrupted`, `WorkerFlagged` and `WorkerQuit`
///   events (A4, A5);
/// - one of every other event kind, so every encoder arm runs.
pub fn random_trace(seed: u64, n_workers: usize, n_tasks: usize, n_subs: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace {
        disclosure: match rng.gen_range(0..3u8) {
            0 => DisclosureSet::fully_transparent(),
            1 => DisclosureSet::opaque(),
            _ => faircrowd::core::enforce::minimal_transparent_set(),
        },
        ..Trace::default()
    };
    let skills = |rng: &mut StdRng, p: f64| {
        let mut skills = SkillVector::with_len(N_SKILLS);
        for s in 0..N_SKILLS {
            if rng.gen_bool(p) {
                skills.set(SkillId::new(s as u32), true);
            }
        }
        skills
    };

    for i in 0..n_workers {
        let declared = DeclaredAttrs::new()
            .with(
                "region",
                AttrValue::Text(["north", "south"][rng.gen_range(0..2usize)].into()),
            )
            .with("age", AttrValue::Int(rng.gen_range(18..70i64)))
            .with("adult", AttrValue::Bool(true))
            .with(
                "hours",
                AttrValue::Real(f64::from(rng.gen_range(1..40u32)) / 2.0),
            );
        let skills = skills(&mut rng, 0.4);
        let mut worker = Worker::new(WorkerId::new(i as u32), declared, skills);
        worker.computed.tasks_submitted = rng.gen_range(0..200u64);
        worker.computed.quality_estimate = f64::from(rng.gen_range(0..100u32)) / 100.0;
        worker.computed.total_earnings = Credits::from_millicents(rng.gen_range(0..1_000_000i64));
        if rng.gen_bool(0.2) {
            worker.computed.extra.insert("hits".into(), 3.5);
        }
        trace.workers.push(worker);
        if rng.gen_bool(0.15) {
            trace
                .ground_truth
                .malicious_workers
                .insert(WorkerId::new(i as u32));
        }
    }
    for i in 0..3u32 {
        let mut r = Requester::new(RequesterId::new(i), format!("r{i}"));
        r.approved = rng.gen_range(0..50u64);
        r.rejected = rng.gen_range(0..20u64);
        trace.requesters.push(r);
    }
    for i in 0..n_tasks {
        let skills = skills(&mut rng, 0.3);
        let kind = match rng.gen_range(0..4u8) {
            0 => TaskKind::Labeling { classes: 3 },
            1 => TaskKind::FreeText,
            2 => TaskKind::Ranking { items: 4 },
            _ => TaskKind::Survey,
        };
        let conditions = if rng.gen_bool(0.5) {
            TaskConditions::fully_disclosed(Credits::from_dollars(6), SimDuration::from_days(1))
        } else {
            TaskConditions::default()
        };
        let reward = [10i64, 11, 12, 50][rng.gen_range(0..4usize)];
        trace.tasks.push(
            TaskBuilder::new(
                TaskId::new(i as u32),
                RequesterId::new(rng.gen_range(0..3u32)),
                skills,
                Credits::from_cents(reward),
            )
            .campaign(CampaignId::new(rng.gen_range(0..3u32)))
            .kind(kind)
            .conditions(conditions)
            .build(),
        );
        if rng.gen_bool(0.7) {
            trace
                .ground_truth
                .true_labels
                .insert(TaskId::new(i as u32), rng.gen_range(0..3u8));
        }
    }

    let mut clock = 0u64;
    let mut tick = |rng: &mut StdRng| {
        clock += rng.gen_range(0..5u64);
        SimTime::from_secs(clock)
    };
    if n_workers > 0 && n_tasks > 0 {
        let log = &mut trace.events;
        let any_worker = |rng: &mut StdRng| WorkerId::new(rng.gen_range(0..n_workers) as u32);
        let any_task = |rng: &mut StdRng| TaskId::new(rng.gen_range(0..n_tasks) as u32);
        for task in &trace.tasks {
            if rng.gen_bool(0.85) {
                let (task, requester) = (task.id, task.requester);
                log.push(tick(&mut rng), EventKind::TaskPosted { task, requester });
            }
        }
        for _ in 0..(n_workers * 3) {
            let (worker, task) = (any_worker(&mut rng), any_task(&mut rng));
            log.push(tick(&mut rng), EventKind::TaskVisible { task, worker });
        }
        for i in 0..n_workers {
            let worker = WorkerId::new(i as u32);
            if rng.gen_bool(0.8) {
                log.push(tick(&mut rng), EventKind::SessionStarted { worker });
                if rng.gen_bool(0.6) {
                    let item = DisclosureItem::WorkerAcceptanceRatio;
                    log.push(tick(&mut rng), EventKind::DisclosureShown { worker, item });
                }
            }
        }
        for _ in 0..n_workers {
            let (worker, task) = (any_worker(&mut rng), any_task(&mut rng));
            log.push(tick(&mut rng), EventKind::WorkStarted { task, worker });
            if rng.gen_bool(0.25) {
                let invested = SimDuration::from_secs(rng.gen_range(1..600u64));
                let compensated = rng.gen_bool(0.5);
                let kind = EventKind::WorkInterrupted {
                    task,
                    worker,
                    invested,
                    compensated,
                };
                log.push(tick(&mut rng), kind);
            }
        }
        for i in 0..n_subs {
            let (worker, task) = (any_worker(&mut rng), any_task(&mut rng));
            let contribution = match rng.gen_range(0..5u8) {
                0 | 1 => Contribution::Label(rng.gen_range(0..3u8)),
                2 => Contribution::Text(TEXTS[rng.gen_range(0..TEXTS.len())].to_owned()),
                3 => Contribution::Ranking(vec![0, 2, 1, 3]),
                _ => Contribution::Numeric(f64::from(rng.gen_range(0..5u32))),
            };
            let submission = SubmissionId::new(i as u32);
            let start = tick(&mut rng);
            trace.submissions.push(Submission {
                id: submission,
                task,
                worker,
                contribution,
                started_at: start,
                submitted_at: SimTime::from_secs(start.as_secs() + rng.gen_range(30..600u64)),
            });
            let received = EventKind::SubmissionReceived {
                submission,
                task,
                worker,
            };
            log.push(tick(&mut rng), received);
            match rng.gen_range(0..5u8) {
                0..=2 => {
                    if rng.gen_bool(0.5) {
                        let approved = EventKind::SubmissionApproved {
                            submission,
                            task,
                            worker,
                        };
                        log.push(tick(&mut rng), approved);
                    }
                    let amount =
                        Credits::from_cents([0i64, 5, 10, 10, 10][rng.gen_range(0..5usize)]);
                    let paid = EventKind::PaymentIssued {
                        submission,
                        task,
                        worker,
                        amount,
                    };
                    log.push(tick(&mut rng), paid);
                }
                3 => {
                    let feedback = rng.gen_bool(0.5).then(|| "too noisy".to_owned());
                    let rejected = EventKind::SubmissionRejected {
                        submission,
                        task,
                        worker,
                        feedback,
                    };
                    log.push(tick(&mut rng), rejected);
                }
                _ => {}
            }
        }
        // A perfect detector now and then, so A4 can hold.
        let flagged: Vec<WorkerId> = if rng.gen_bool(0.25) {
            trace
                .ground_truth
                .malicious_workers
                .iter()
                .copied()
                .collect()
        } else {
            (0..=n_workers / 4).map(|_| any_worker(&mut rng)).collect()
        };
        for worker in flagged {
            let score = f64::from(rng.gen_range(0..100u32)) / 100.0;
            let kind = EventKind::WorkerFlagged {
                worker,
                score,
                detector: "spam".to_owned(),
            };
            log.push(tick(&mut rng), kind);
        }
        for _ in 0..=(n_workers / 6) {
            let worker = any_worker(&mut rng);
            let reason =
                [QuitReason::Frustration, QuitReason::NaturalChurn][rng.gen_range(0..2usize)];
            log.push(tick(&mut rng), EventKind::WorkerQuit { worker, reason });
        }
        // One of every other kind, so every encoder arm runs.
        let (worker, task) = (any_worker(&mut rng), any_task(&mut rng));
        let requester = RequesterId::new(0);
        for kind in [
            EventKind::TaskAccepted { task, worker },
            EventKind::BonusPromised {
                worker,
                requester,
                amount: Credits::from_cents(3),
            },
            EventKind::BonusPaid {
                worker,
                requester,
                amount: Credits::from_cents(3),
            },
            EventKind::BonusReneged {
                worker,
                requester,
                amount: Credits::from_cents(2),
            },
            EventKind::TaskCanceled {
                task,
                reason: CancelReason::Withdrawn,
            },
            EventKind::SessionEnded { worker },
        ] {
            log.push(tick(&mut rng), kind);
        }
    }
    trace.horizon = SimTime::from_secs(clock + 1);
    trace
}

/// A valid trace whose entity ids are hostile to arena-backed rows:
/// most ids are dense, a few land far past the dense bound and must
/// spill. Exposure and pay asymmetries straddle the dense/spill
/// boundary, so the pair scans compare spilled entities against dense
/// ones and A1 and A3 both fail.
pub fn sparse_id_trace() -> Trace {
    let mut trace = Trace {
        disclosure: DisclosureSet::fully_transparent(),
        ..Trace::default()
    };
    let wids = [0u32, 3, 70_000, 1_000_000, 1_000_007];
    let tids = [1u32, 5, 90_000, 2_000_000];
    let mut skills = SkillVector::with_len(4);
    skills.set(SkillId::new(0), true);
    for &w in &wids {
        let declared = DeclaredAttrs::new().with("region", AttrValue::Text("north".to_owned()));
        trace
            .workers
            .push(Worker::new(WorkerId::new(w), declared, skills.clone()));
    }
    for i in 0..2 {
        trace
            .requesters
            .push(Requester::new(RequesterId::new(i), format!("r{i}")));
    }
    for (i, &t) in tids.iter().enumerate() {
        trace.tasks.push(
            TaskBuilder::new(
                TaskId::new(t),
                RequesterId::new((i % 2) as u32),
                skills.clone(),
                Credits::from_cents(10),
            )
            .build(),
        );
        trace.ground_truth.true_labels.insert(TaskId::new(t), 1);
    }
    let mut clock = 0u64;
    // Dense workers see every task, spilled workers only the first:
    // similar workers with divergent exposure on both sides.
    for (i, &w) in wids.iter().enumerate() {
        let seen = if i < 2 { tids.len() } else { 1 };
        for &t in tids.iter().take(seen) {
            clock += 1;
            trace.events.push(
                SimTime::from_secs(clock),
                EventKind::TaskVisible {
                    task: TaskId::new(t),
                    worker: WorkerId::new(w),
                },
            );
        }
    }
    // Equal work from a dense and a spilled worker; only the dense one
    // is paid.
    for (i, (w, paid)) in [(wids[0], true), (wids[3], false)].iter().enumerate() {
        let id = SubmissionId::new(i as u32);
        let task = TaskId::new(tids[0]);
        let worker = WorkerId::new(*w);
        clock += 1;
        trace.submissions.push(Submission {
            id,
            task,
            worker,
            contribution: Contribution::Label(1),
            started_at: SimTime::from_secs(clock),
            submitted_at: SimTime::from_secs(clock + 60),
        });
        clock += 100;
        trace.events.push(
            SimTime::from_secs(clock),
            EventKind::SubmissionReceived {
                submission: id,
                task,
                worker,
            },
        );
        if *paid {
            clock += 1;
            trace.events.push(
                SimTime::from_secs(clock),
                EventKind::PaymentIssued {
                    submission: id,
                    task,
                    worker,
                    amount: Credits::from_cents(10),
                },
            );
        }
    }
    trace.horizon = SimTime::from_secs(clock + 1);
    trace
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per use, so concurrent tests and proptest
/// iterations never share files.
pub fn scratch() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("fc_{}_{}_{n}", env!("CARGO_CRATE_NAME"), std::process::id());
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run every shard of `grid` split `count` ways into `dir`, on two
/// jobs each: the part paths, in shard order.
pub fn run_all_shards(grid: &SweepGrid, count: usize, dir: &Path) -> Vec<PathBuf> {
    let shard = |index| {
        let path = dir.join(format!("part-{index}.json"));
        run_shard(grid, ShardSpec { index, count }, &path, 2).unwrap();
        path
    };
    (1..=count).map(shard).collect()
}
