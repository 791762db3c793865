//! The audit engine — the paper's "fairness check benchmark" (§3.3.1).
//!
//! An [`AuditEngine`] runs any subset of the seven axiom checkers over a
//! trace under a configurable similarity regime and produces a
//! [`FairnessReport`] with per-axiom scores, violation witnesses and the
//! aggregate fairness/transparency indices used throughout the
//! experiments.
//!
//! The engine builds one [`TraceIndex`] per trace (or audits through a
//! caller-provided one via [`AuditEngine::run_indexed`]) and, unless
//! [`AuditConfig::parallel`] is off, fans the requested axioms out over
//! a scoped thread pool. Each axiom writes into its request-order slot,
//! so the report is deterministic and identical to a serial run — and,
//! via the lossless blocking in [`crate::index`], identical to the
//! retained naive reference path ([`AuditEngine::run_naive`]).

use crate::axiom::{AxiomId, AxiomReport};
use crate::axioms::{checker_for, naive};
use crate::index::TraceIndex;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::stats;
use faircrowd_model::trace::Trace;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Audit configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditConfig {
    /// The similarity regime the axioms quantify under.
    pub similarity: SimilarityConfig,
    /// Maximum violation witnesses retained per axiom.
    pub max_witnesses: usize,
    /// Fan the axioms out over a scoped thread pool (default). Reports
    /// are identical either way; serial runs exist for benchmarking and
    /// for embedding in already-parallel callers: the sweep engine
    /// (`SweepCase::pipeline`, one case per worker) and the audit
    /// daemon (`AuditDaemon::new` says why: A2 is most of a closing's
    /// axiom time).
    pub parallel: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            similarity: SimilarityConfig::default(),
            max_witnesses: 25,
            parallel: true,
        }
    }
}

/// The result of a full audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Per-axiom reports, in the order requested.
    pub axioms: Vec<AxiomReport>,
}

impl FairnessReport {
    /// Report for a specific axiom, if it was run.
    pub fn axiom(&self, id: AxiomId) -> Option<&AxiomReport> {
        self.axioms.iter().find(|r| r.axiom == id)
    }

    /// Score of a specific axiom (1.0 when the axiom was not run — absent
    /// evidence is not a violation).
    pub fn score_of(&self, id: AxiomId) -> f64 {
        self.axiom(id).map_or(1.0, |r| r.score)
    }

    /// Mean score over the fairness axioms (A1–A5) that were run.
    pub fn fairness_score(&self) -> f64 {
        self.mean_over(&AxiomId::FAIRNESS)
    }

    /// Mean score over the transparency axioms (A6–A7) that were run.
    pub fn transparency_score(&self) -> f64 {
        self.mean_over(&AxiomId::TRANSPARENCY)
    }

    /// Mean score over everything that was run.
    pub fn overall_score(&self) -> f64 {
        let scores: Vec<f64> = self.axioms.iter().map(|r| r.score).collect();
        if scores.is_empty() {
            1.0
        } else {
            stats::mean(&scores)
        }
    }

    /// Total violations across axioms.
    pub fn total_violations(&self) -> usize {
        self.axioms.iter().map(|r| r.violation_count).sum()
    }

    /// True when every axiom run holds with no violations.
    pub fn all_hold(&self) -> bool {
        self.axioms.iter().all(|r| r.holds())
    }

    fn mean_over(&self, ids: &[AxiomId]) -> f64 {
        let scores: Vec<f64> = ids
            .iter()
            .filter_map(|id| self.axiom(*id))
            .map(|r| r.score)
            .collect();
        if scores.is_empty() {
            1.0
        } else {
            stats::mean(&scores)
        }
    }
}

/// Runs axiom checkers over traces.
#[derive(Debug, Clone, Default)]
pub struct AuditEngine {
    config: AuditConfig,
}

impl AuditEngine {
    /// Engine with the given configuration.
    pub fn new(config: AuditConfig) -> Self {
        AuditEngine { config }
    }

    /// Engine with the default threshold-based similarity regime.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Run all seven axioms.
    pub fn run(&self, trace: &Trace) -> FairnessReport {
        self.run_axioms(trace, &AxiomId::ALL)
    }

    /// Run a chosen subset of axioms, in the given order. Builds a fresh
    /// [`TraceIndex`]; callers holding one should use
    /// [`AuditEngine::run_indexed`] instead.
    pub fn run_axioms(&self, trace: &Trace, ids: &[AxiomId]) -> FairnessReport {
        self.run_indexed(&TraceIndex::new(trace), ids)
    }

    /// Run axioms against a pre-built index — the hot path the pipeline
    /// and sweep engine use, sharing one index per trace across audit,
    /// metrics and (via slice reuse) the re-audit.
    pub fn run_indexed(&self, ix: &TraceIndex<'_>, ids: &[AxiomId]) -> FairnessReport {
        let check = |id: AxiomId| {
            checker_for(id).check(ix, &self.config.similarity, self.config.max_witnesses)
        };
        let threads = if self.config.parallel {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(ids.len())
        } else {
            1
        };
        if threads <= 1 {
            return FairnessReport {
                axioms: ids.iter().map(|&id| check(id)).collect(),
            };
        }
        // Index-ordered slots + an atomic work counter (the PR 2 sweep
        // pattern): report order is request order whatever the thread
        // schedule was.
        let slots: Vec<Mutex<Option<AxiomReport>>> = ids.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = ids.get(i) else { break };
                    *slots[i].lock().expect("axiom slot poisoned") = Some(check(id));
                });
            }
        });
        FairnessReport {
            axioms: slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("axiom slot poisoned")
                        .expect("every axiom slot was claimed by a worker")
                })
                .collect(),
        }
    }

    /// Run axioms through the retained naive reference implementation
    /// ([`crate::axioms::naive`]): no index, no blocking, no threads.
    /// Exists as the correctness oracle for the property tests and the
    /// fixed baseline for the perf benches.
    pub fn run_naive(&self, trace: &Trace, ids: &[AxiomId]) -> FairnessReport {
        FairnessReport {
            axioms: ids
                .iter()
                .map(|&id| {
                    naive::check(
                        id,
                        trace,
                        &self.config.similarity,
                        self.config.max_witnesses,
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_model::disclosure::DisclosureSet;

    #[test]
    fn full_audit_on_empty_trace_is_all_vacuous() {
        let trace = Trace {
            disclosure: DisclosureSet::fully_transparent(),
            ..Trace::default()
        };
        let report = AuditEngine::with_defaults().run(&trace);
        assert_eq!(report.axioms.len(), 7);
        assert!(report.all_hold());
        assert!((report.overall_score() - 1.0).abs() < 1e-12);
        assert!((report.fairness_score() - 1.0).abs() < 1e-12);
        assert!((report.transparency_score() - 1.0).abs() < 1e-12);
        assert_eq!(report.total_violations(), 0);
    }

    #[test]
    fn opaque_empty_trace_fails_transparency_only() {
        let trace = Trace::default(); // opaque disclosure by default
        let report = AuditEngine::with_defaults().run(&trace);
        assert!((report.fairness_score() - 1.0).abs() < 1e-12);
        assert!(report.transparency_score() < 0.6);
        assert_eq!(report.score_of(AxiomId::A7PlatformTransparency), 0.0);
    }

    #[test]
    fn subset_runs_only_requested_axioms() {
        let trace = Trace::default();
        let report = AuditEngine::with_defaults().run_axioms(
            &trace,
            &[AxiomId::A3Compensation, AxiomId::A5NoInterruption],
        );
        assert_eq!(report.axioms.len(), 2);
        assert!(report.axiom(AxiomId::A1WorkerAssignment).is_none());
        // unran axioms default to 1.0
        assert_eq!(report.score_of(AxiomId::A1WorkerAssignment), 1.0);
    }

    #[test]
    fn serial_parallel_and_naive_reports_are_identical() {
        use faircrowd_model::contribution::Contribution;
        // A trace with violations on several axioms, checked three ways.
        let mut trace = crate::axioms::fixtures::skeleton(vec![
            crate::axioms::fixtures::task(0, 0, &[0, 0], 10),
            crate::axioms::fixtures::task(1, 1, &[0, 0], 10),
        ]);
        crate::axioms::fixtures::show(&mut trace, 1, 0, 0);
        let s0 = crate::axioms::fixtures::submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = crate::axioms::fixtures::submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        crate::axioms::fixtures::pay(&mut trace, 200, s0, 0, 10);

        let parallel = AuditEngine::with_defaults().run(&trace);
        let serial = AuditEngine::new(AuditConfig {
            parallel: false,
            ..AuditConfig::default()
        })
        .run(&trace);
        let naive = AuditEngine::with_defaults().run_naive(&trace, &AxiomId::ALL);
        assert_eq!(parallel, serial);
        assert_eq!(parallel, naive);
        assert!(parallel.total_violations() > 0, "fixture must violate");
    }

    #[test]
    fn report_aggregation_arithmetics() {
        use crate::axiom::AxiomReport;
        let report = FairnessReport {
            axioms: vec![
                AxiomReport {
                    score: 0.5,
                    ..AxiomReport::vacuous(AxiomId::A1WorkerAssignment, "x")
                },
                AxiomReport {
                    score: 1.0,
                    ..AxiomReport::vacuous(AxiomId::A6RequesterTransparency, "x")
                },
            ],
        };
        assert!((report.fairness_score() - 0.5).abs() < 1e-12);
        assert!((report.transparency_score() - 1.0).abs() < 1e-12);
        assert!((report.overall_score() - 0.75).abs() < 1e-12);
    }
}
