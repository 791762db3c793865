//! The naive reference audit — the executable specification.
//!
//! These are the original, pre-index checker implementations: each one
//! re-derives the maps it needs straight from the [`Trace`] and scans
//! **all** worker/task/submission pairs with no blocking. They are kept
//! (not test-gated) as the **correctness oracle**: the
//! `index_equivalence` property tests assert that the indexed, blocked,
//! parallel audit in [`crate::audit::AuditEngine`] produces
//! bit-identical [`AxiomReport`]s to this path on arbitrary traces.
//!
//! Nothing else should call these: they are intentionally `O(n²)` and
//! re-derive per axiom. To stay a faithful *pre-refactor* baseline they
//! build their own per-axiom maps with the original single-purpose
//! loops below, rather than going through `Trace::event_index` (whose
//! one-pass builder materialises every derived structure at once).

use crate::axiom::{AxiomId, AxiomReport, ViolationCollector};
use crate::axioms::{set_jaccard, worker_similarity};
use faircrowd_model::contribution::Submission;
use faircrowd_model::disclosure::{Audience, DisclosureItem};
use faircrowd_model::event::EventKind;
use faircrowd_model::ids::{SubmissionId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::stats;
use faircrowd_model::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};

/// The pre-refactor `Trace::visibility_map` loop.
fn visibility_map(trace: &Trace) -> BTreeMap<WorkerId, BTreeSet<TaskId>> {
    let mut map: BTreeMap<WorkerId, BTreeSet<TaskId>> = BTreeMap::new();
    for w in &trace.workers {
        map.entry(w.id).or_default();
    }
    for e in &trace.events {
        if let EventKind::TaskVisible { task, worker } = e.kind {
            map.entry(worker).or_default().insert(task);
        }
    }
    map
}

/// The pre-refactor `Trace::audience_map` loop.
fn audience_map(trace: &Trace) -> BTreeMap<TaskId, BTreeSet<WorkerId>> {
    let mut map: BTreeMap<TaskId, BTreeSet<WorkerId>> = BTreeMap::new();
    for t in &trace.tasks {
        map.entry(t.id).or_default();
    }
    for e in &trace.events {
        if let EventKind::TaskVisible { task, worker } = e.kind {
            map.entry(task).or_default().insert(worker);
        }
    }
    map
}

/// The pre-refactor `Trace::payment_by_submission` loop.
fn payment_by_submission(trace: &Trace) -> BTreeMap<SubmissionId, Credits> {
    let mut map: BTreeMap<SubmissionId, Credits> = BTreeMap::new();
    for e in &trace.events {
        if let EventKind::PaymentIssued {
            submission, amount, ..
        } = e.kind
        {
            *map.entry(submission).or_insert(Credits::ZERO) += amount;
        }
    }
    map
}

/// The pre-refactor `Trace::submissions_by_task` grouping.
fn submissions_by_task(trace: &Trace) -> BTreeMap<TaskId, Vec<&Submission>> {
    let mut map: BTreeMap<TaskId, Vec<&Submission>> = BTreeMap::new();
    for s in &trace.submissions {
        map.entry(s.task).or_default().push(s);
    }
    map
}

/// Check one axiom the naive way. Same contract as
/// [`crate::axiom::Axiom::check`], minus the index.
pub fn check(
    id: AxiomId,
    trace: &Trace,
    cfg: &SimilarityConfig,
    max_witnesses: usize,
) -> AxiomReport {
    match id {
        AxiomId::A1WorkerAssignment => a1(trace, cfg, max_witnesses),
        AxiomId::A2RequesterAssignment => a2(trace, cfg, max_witnesses),
        AxiomId::A3Compensation => a3(trace, cfg, max_witnesses),
        AxiomId::A4MaliceDetection => a4(trace, max_witnesses),
        AxiomId::A5NoInterruption => a5(trace, max_witnesses),
        AxiomId::A6RequesterTransparency => a6(trace, max_witnesses),
        AxiomId::A7PlatformTransparency => a7(trace, max_witnesses),
    }
}

fn a1(trace: &Trace, cfg: &SimilarityConfig, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A1WorkerAssignment;
    let visibility = visibility_map(trace);
    let qualified: Vec<BTreeSet<TaskId>> = trace
        .workers
        .iter()
        .map(|w| {
            trace
                .tasks
                .iter()
                .filter(|t| w.qualifies_for(t))
                .map(|t| t.id)
                .collect()
        })
        .collect();

    let mut overlaps = Vec::new();
    let mut collector = ViolationCollector::new(id, max_witnesses);
    for i in 0..trace.workers.len() {
        for j in (i + 1)..trace.workers.len() {
            let (wi, wj) = (&trace.workers[i], &trace.workers[j]);
            let sim = worker_similarity(wi, wj, cfg);
            if sim < cfg.worker_threshold {
                continue;
            }
            let common: BTreeSet<TaskId> =
                qualified[i].intersection(&qualified[j]).copied().collect();
            let empty = BTreeSet::new();
            let ai: BTreeSet<TaskId> = visibility
                .get(&wi.id)
                .unwrap_or(&empty)
                .intersection(&common)
                .copied()
                .collect();
            let aj: BTreeSet<TaskId> = visibility
                .get(&wj.id)
                .unwrap_or(&empty)
                .intersection(&common)
                .copied()
                .collect();
            let overlap = set_jaccard(&ai, &aj);
            overlaps.push(overlap);
            if overlap < 1.0 - 1e-9 {
                collector.push(
                    1.0 - overlap,
                    format!(
                        "workers {} and {} are similar (sim {:.2}) but saw different \
                         tasks: {} vs {} of {} common-qualified (overlap {:.2})",
                        wi.id,
                        wj.id,
                        sim,
                        ai.len(),
                        aj.len(),
                        common.len(),
                        overlap
                    ),
                );
            }
        }
    }

    if overlaps.is_empty() {
        return AxiomReport::vacuous(id, "no similar worker pairs in the trace");
    }
    AxiomReport {
        axiom: id,
        score: stats::mean(&overlaps),
        checked: overlaps.len(),
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes: vec![format!(
            "similarity: skills via {}, threshold {:.2}",
            cfg.skill_measure.name(),
            cfg.worker_threshold
        )],
    }
}

fn a2(trace: &Trace, cfg: &SimilarityConfig, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A2RequesterAssignment;
    let audience = audience_map(trace);
    let qualified: Vec<BTreeSet<WorkerId>> = trace
        .tasks
        .iter()
        .map(|t| {
            trace
                .workers
                .iter()
                .filter(|w| w.qualifies_for(t))
                .map(|w| w.id)
                .collect()
        })
        .collect();

    let mut overlaps = Vec::new();
    let mut collector = ViolationCollector::new(id, max_witnesses);
    for i in 0..trace.tasks.len() {
        for j in (i + 1)..trace.tasks.len() {
            let (ti, tj) = (&trace.tasks[i], &trace.tasks[j]);
            if ti.requester == tj.requester {
                continue;
            }
            let skill_sim = cfg.skill_measure.score(&ti.skills, &tj.skills);
            if skill_sim < cfg.task_skill_threshold
                || !ti.reward_comparable(tj, cfg.reward_tolerance)
            {
                continue;
            }
            let common: BTreeSet<WorkerId> =
                qualified[i].intersection(&qualified[j]).copied().collect();
            let empty = BTreeSet::new();
            let ai: BTreeSet<WorkerId> = audience
                .get(&ti.id)
                .unwrap_or(&empty)
                .intersection(&common)
                .copied()
                .collect();
            let aj: BTreeSet<WorkerId> = audience
                .get(&tj.id)
                .unwrap_or(&empty)
                .intersection(&common)
                .copied()
                .collect();
            let overlap = set_jaccard(&ai, &aj);
            overlaps.push(overlap);
            if overlap < 1.0 - 1e-9 {
                collector.push(
                    1.0 - overlap,
                    format!(
                        "tasks {} ({}) and {} ({}) are comparable (skill sim {:.2}, \
                         rewards {} vs {}) but reached different audiences \
                         ({} vs {} workers, overlap {:.2})",
                        ti.id,
                        ti.requester,
                        tj.id,
                        tj.requester,
                        skill_sim,
                        ti.reward,
                        tj.reward,
                        ai.len(),
                        aj.len(),
                        overlap
                    ),
                );
            }
        }
    }

    if overlaps.is_empty() {
        return AxiomReport::vacuous(id, "no comparable cross-requester task pairs in the trace");
    }
    AxiomReport {
        axiom: id,
        score: stats::mean(&overlaps),
        checked: overlaps.len(),
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes: vec![format!(
            "skill kernel {} ≥ {:.2}, reward tolerance {:.0}%",
            cfg.skill_measure.name(),
            cfg.task_skill_threshold,
            cfg.reward_tolerance * 100.0
        )],
    }
}

fn a3(trace: &Trace, cfg: &SimilarityConfig, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A3Compensation;
    let payments = payment_by_submission(trace);
    let by_task = submissions_by_task(trace);

    let mut pairs = 0usize;
    let mut satisfied = 0usize;
    let mut collector = ViolationCollector::new(id, max_witnesses);

    for (task, subs) in by_task {
        for i in 0..subs.len() {
            for j in (i + 1)..subs.len() {
                let (si, sj) = (subs[i], subs[j]);
                if si.worker == sj.worker {
                    continue;
                }
                let sim = si.contribution.similarity(&sj.contribution);
                if sim < cfg.contribution_threshold {
                    continue;
                }
                pairs += 1;
                let pi = payments.get(&si.id).copied().unwrap_or(Credits::ZERO);
                let pj = payments.get(&sj.id).copied().unwrap_or(Credits::ZERO);
                if pi == pj {
                    satisfied += 1;
                } else {
                    let max = pi.max(pj).millicents().max(1) as f64;
                    let severity = pi.abs_diff(pj).millicents() as f64 / max;
                    collector.push(
                        severity,
                        format!(
                            "task {task}: workers {} and {} made similar contributions \
                             (sim {:.2}) but were paid {} vs {}",
                            si.worker, sj.worker, sim, pi, pj
                        ),
                    );
                }
            }
        }
    }

    if pairs == 0 {
        return AxiomReport::vacuous(id, "no similar same-task contribution pairs in the trace");
    }
    AxiomReport {
        axiom: id,
        score: satisfied as f64 / pairs as f64,
        checked: pairs,
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes: vec![format!(
            "contribution similarity threshold {:.2} (kind-specific measures)",
            cfg.contribution_threshold
        )],
    }
}

fn a4(trace: &Trace, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A4MaliceDetection;
    let flagged: BTreeSet<WorkerId> = trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::WorkerFlagged { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect();
    let malicious = &trace.ground_truth.malicious_workers;
    let active: BTreeSet<WorkerId> = trace.submissions.iter().map(|s| s.worker).collect();
    let active_malicious: BTreeSet<WorkerId> = malicious.intersection(&active).copied().collect();

    if active_malicious.is_empty() {
        let mut report = AxiomReport::vacuous(id, "no active malicious workers in the trace");
        if !flagged.is_empty() {
            report.notes.push(format!(
                "{} worker(s) flagged despite a clean workforce (false alarms)",
                flagged.len()
            ));
            report.score = 1.0 - flagged.len() as f64 / active.len().max(1) as f64;
        }
        return report;
    }

    let mut collector = ViolationCollector::new(id, max_witnesses);
    if flagged.is_empty() {
        collector.push(
            1.0,
            format!(
                "platform emitted no detection events while {} malicious worker(s) \
                 were active",
                active_malicious.len()
            ),
        );
        return AxiomReport {
            axiom: id,
            score: 0.0,
            checked: active.len(),
            violation_count: collector.total,
            truncated: false,
            violations: collector.items,
            notes: vec!["requesters had no means of detection".to_owned()],
        };
    }

    let tp = flagged.intersection(&active_malicious).count();
    let fp = flagged.difference(malicious).count();
    let fn_ = active_malicious.difference(&flagged).count();
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };

    for w in active_malicious.difference(&flagged) {
        collector.push(0.8, format!("malicious worker {w} was never flagged"));
    }
    for w in flagged.difference(malicious) {
        collector.push(0.4, format!("honest worker {w} was wrongly flagged"));
    }

    AxiomReport {
        axiom: id,
        score: f1,
        checked: active.len(),
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes: vec![format!(
            "detection precision {precision:.2}, recall {recall:.2} over {} active \
             malicious of {} active workers",
            active_malicious.len(),
            active.len()
        )],
    }
}

fn a5(trace: &Trace, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A5NoInterruption;
    let started = trace
        .events
        .count_where(|k| matches!(k, EventKind::WorkStarted { .. }));
    if started == 0 {
        return AxiomReport::vacuous(id, "no work was started in the trace");
    }

    let mut collector = ViolationCollector::new(id, max_witnesses);
    let mut weighted = 0.0f64;
    let mut uncompensated = 0usize;
    let mut compensated = 0usize;
    for e in &trace.events {
        if let EventKind::WorkInterrupted {
            task,
            worker,
            invested,
            compensated: comp,
        } = &e.kind
        {
            let severity = if *comp {
                compensated += 1;
                0.5
            } else {
                uncompensated += 1;
                1.0
            };
            weighted += severity;
            collector.push(
                severity,
                format!(
                    "worker {worker} was interrupted on task {task} after investing \
                     {invested}{}",
                    if *comp {
                        " (partially compensated)"
                    } else {
                        " (unpaid)"
                    }
                ),
            );
        }
    }

    AxiomReport {
        axiom: id,
        score: (1.0 - weighted / started as f64).clamp(0.0, 1.0),
        checked: started,
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes: vec![format!(
            "{started} work items started; {uncompensated} interrupted unpaid, \
             {compensated} interrupted with partial pay"
        )],
    }
}

fn a6(trace: &Trace, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A6RequesterTransparency;
    if trace.tasks.is_empty() {
        return AxiomReport::vacuous(id, "no tasks in the trace");
    }
    let mut coverages = Vec::with_capacity(trace.tasks.len());
    let mut collector = ViolationCollector::new(id, max_witnesses);
    for task in &trace.tasks {
        let mut missing = Vec::new();
        let mut met = 0usize;
        for (item, task_level) in super::a6::obligations(task) {
            if task_level || trace.disclosure.allows(item, Audience::Workers) {
                met += 1;
            } else {
                missing.push(item.name());
            }
        }
        let coverage = met as f64 / 5.0;
        coverages.push(coverage);
        if !missing.is_empty() {
            collector.push(
                1.0 - coverage,
                format!(
                    "task {} (requester {}) does not disclose: {}",
                    task.id,
                    task.requester,
                    missing.join(", ")
                ),
            );
        }
    }
    AxiomReport {
        axiom: id,
        score: stats::mean(&coverages),
        checked: trace.tasks.len(),
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes: vec![
            "an obligation is met by task-level conditions or a platform-wide grant".to_owned(),
        ],
    }
}

fn a7(trace: &Trace, max_witnesses: usize) -> AxiomReport {
    let id = AxiomId::A7PlatformTransparency;
    let coverage = trace.disclosure.axiom7_coverage();
    let mut collector = ViolationCollector::new(id, max_witnesses);
    for item in DisclosureItem::AXIOM7_REQUIRED {
        if !trace.disclosure.allows(item, Audience::Subject) {
            collector.push(
                1.0 / DisclosureItem::AXIOM7_REQUIRED.len() as f64,
                format!("computed attribute {item} is not disclosed to the worker"),
            );
        }
    }

    let active: BTreeSet<WorkerId> = trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SessionStarted { worker } => Some(*worker),
            _ => None,
        })
        .collect();
    let informed: BTreeSet<WorkerId> = trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::DisclosureShown { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect();

    let evidence = if active.is_empty() {
        1.0
    } else {
        active.intersection(&informed).count() as f64 / active.len() as f64
    };
    if coverage > 0.0 && evidence < 1.0 {
        let uninformed = active.difference(&informed).count();
        collector.push(
            (1.0 - evidence).min(1.0),
            format!(
                "{uninformed} active worker(s) never saw any disclosure despite a \
                 non-empty policy"
            ),
        );
    }

    let mut notes = vec![format!(
        "policy coverage {coverage:.2}, delivery evidence {evidence:.2} over {} active \
         workers",
        active.len()
    )];
    if trace.tasks.is_empty() && active.is_empty() {
        notes.push("empty trace: judged on policy only".to_owned());
    }

    AxiomReport {
        axiom: id,
        score: (coverage * evidence).clamp(0.0, 1.0),
        checked: active.len().max(1),
        violation_count: collector.total,
        truncated: collector.truncated(),
        violations: collector.items,
        notes,
    }
}
