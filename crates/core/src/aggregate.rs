//! Order-independent aggregation of [`FairnessReport`]s.
//!
//! The paper's validation protocol (§4.1) never draws conclusions from
//! one run: every objective measure is taken *across* seeds, policies
//! and scenario scales. This module folds a set of audit reports into
//! one [`ReportAggregate`] — per-axiom pass rates and score statistics
//! plus the fairness/transparency/overall indices — for the sweep
//! engine's grid cells and the experiment tables.
//!
//! Every reduction here is **order-independent**: scores are sorted by
//! total order before summation, so the same multiset of reports
//! produces bit-identical statistics no matter which worker thread
//! finished first. That invariant is what lets a parallel sweep promise
//! byte-identical JSON/CSV against a serial one.

use crate::audit::FairnessReport;
use crate::axiom::AxiomId;
use serde::{Deserialize, Serialize};

/// Mean / min / max of a set of scores, reduced order-independently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreStats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean (0.0 over the empty set).
    pub mean: f64,
    /// Smallest sample (0.0 over the empty set).
    pub min: f64,
    /// Largest sample (0.0 over the empty set).
    pub max: f64,
}

impl ScoreStats {
    /// Statistics over `samples`. Sorts a copy by `f64::total_cmp`
    /// before summing, so the result is independent of input order
    /// (floating-point addition is not associative; a fixed summation
    /// order makes the mean reproducible).
    pub fn of(samples: &[f64]) -> ScoreStats {
        if samples.is_empty() {
            return ScoreStats {
                n: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let sum: f64 = sorted.iter().sum();
        ScoreStats {
            n: sorted.len(),
            mean: sum / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// One axiom's aggregate over a set of reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxiomAggregate {
    /// Which axiom.
    pub axiom: AxiomId,
    /// Reports in which this axiom was audited.
    pub runs: usize,
    /// Reports in which it held (no violations).
    pub passes: usize,
    /// `passes / runs` (1.0 when never audited — absent evidence is not
    /// a violation, matching [`FairnessReport::score_of`]).
    pub pass_rate: f64,
    /// Score statistics across the runs that audited it.
    pub score: ScoreStats,
    /// Total violations across all runs.
    pub violations: usize,
}

/// The fold of many [`FairnessReport`]s: per-axiom pass rates plus
/// fairness/transparency/overall score statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportAggregate {
    /// Number of reports folded.
    pub runs: usize,
    /// Per-axiom aggregates, in paper order, for axioms audited at
    /// least once.
    pub axioms: Vec<AxiomAggregate>,
    /// Statistics of the per-report fairness index (Axioms 1–5 mean).
    pub fairness: ScoreStats,
    /// Statistics of the per-report transparency index (Axioms 6–7 mean).
    pub transparency: ScoreStats,
    /// Statistics of the per-report overall index.
    pub overall: ScoreStats,
    /// Total violations across all reports and axioms.
    pub total_violations: usize,
    /// Reports in which every audited axiom held.
    pub all_hold_runs: usize,
}

impl ReportAggregate {
    /// Fold `reports` into aggregate statistics. Order-independent: any
    /// permutation of the same reports yields an identical aggregate.
    pub fn of(reports: &[FairnessReport]) -> ReportAggregate {
        let mut axioms = Vec::new();
        for id in AxiomId::ALL {
            let audited: Vec<&FairnessReport> =
                reports.iter().filter(|r| r.axiom(id).is_some()).collect();
            if audited.is_empty() {
                continue;
            }
            let scores: Vec<f64> = audited.iter().map(|r| r.score_of(id)).collect();
            let passes = audited
                .iter()
                .filter(|r| r.axiom(id).is_some_and(super::axiom::AxiomReport::holds))
                .count();
            let violations = audited
                .iter()
                .map(|r| r.axiom(id).map_or(0, |a| a.violation_count))
                .sum();
            axioms.push(AxiomAggregate {
                axiom: id,
                runs: audited.len(),
                passes,
                pass_rate: passes as f64 / audited.len() as f64,
                score: ScoreStats::of(&scores),
                violations,
            });
        }
        let collect =
            |f: fn(&FairnessReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
        ReportAggregate {
            runs: reports.len(),
            axioms,
            fairness: ScoreStats::of(&collect(FairnessReport::fairness_score)),
            transparency: ScoreStats::of(&collect(FairnessReport::transparency_score)),
            overall: ScoreStats::of(&collect(FairnessReport::overall_score)),
            total_violations: reports.iter().map(FairnessReport::total_violations).sum(),
            all_hold_runs: reports.iter().filter(|r| r.all_hold()).count(),
        }
    }

    /// Aggregate for one axiom, if it was ever audited.
    pub fn axiom(&self, id: AxiomId) -> Option<&AxiomAggregate> {
        self.axioms.iter().find(|a| a.axiom == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEngine;
    use faircrowd_model::disclosure::DisclosureSet;
    use faircrowd_model::trace::Trace;

    fn reports() -> Vec<FairnessReport> {
        let transparent = Trace {
            disclosure: DisclosureSet::fully_transparent(),
            ..Trace::default()
        };
        let opaque = Trace::default();
        let engine = AuditEngine::with_defaults();
        vec![engine.run(&transparent), engine.run(&opaque)]
    }

    #[test]
    fn score_stats_are_order_independent() {
        let a = [0.1, 0.7, 0.30000000000000004, 0.25, 0.9999999, 0.5];
        let mut b = a;
        b.reverse();
        assert_eq!(ScoreStats::of(&a), ScoreStats::of(&b));
        let s = ScoreStats::of(&a);
        assert_eq!(s.n, a.len());
        assert!((s.min - 0.1).abs() < 1e-12);
        assert!((s.max - 0.9999999).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = ScoreStats::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn aggregate_counts_passes_per_axiom() {
        let agg = ReportAggregate::of(&reports());
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.axioms.len(), 7);
        // Fairness axioms hold on both empty traces.
        let a1 = agg.axiom(AxiomId::A1WorkerAssignment).unwrap();
        assert_eq!(a1.passes, 2);
        assert!((a1.pass_rate - 1.0).abs() < 1e-12);
        // Platform transparency fails on the opaque trace.
        let a7 = agg.axiom(AxiomId::A7PlatformTransparency).unwrap();
        assert_eq!(a7.runs, 2);
        assert_eq!(a7.passes, 1);
        assert!((a7.pass_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_is_permutation_invariant() {
        let mut rs = reports();
        let forward = ReportAggregate::of(&rs);
        rs.reverse();
        let backward = ReportAggregate::of(&rs);
        assert_eq!(forward, backward);
    }

    #[test]
    fn unaudited_axioms_are_omitted() {
        let engine = AuditEngine::with_defaults();
        let trace = Trace::default();
        let partial = vec![engine.run_axioms(&trace, &[AxiomId::A3Compensation])];
        let agg = ReportAggregate::of(&partial);
        assert_eq!(agg.axioms.len(), 1);
        assert!(agg.axiom(AxiomId::A1WorkerAssignment).is_none());
    }

    #[test]
    fn empty_fold_is_benign() {
        let agg = ReportAggregate::of(&[]);
        assert_eq!(agg.runs, 0);
        assert!(agg.axioms.is_empty());
        assert_eq!(agg.total_violations, 0);
    }
}
