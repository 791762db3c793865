//! The axiom-checker interface.
//!
//! Each of the paper's seven axioms becomes an [`Axiom`] implementation:
//! a pure function from a [`TraceIndex`] and a similarity regime to an
//! [`AxiomReport`] carrying a satisfaction score in `[0, 1]`, the size of
//! the quantifier domain it examined, and concrete violation witnesses.
//! Checkers read the trace through the shared index, so an audit derives
//! its visibility/audience/payment maps and qualification matrices once
//! instead of once per axiom.

use crate::index::TraceIndex;
use faircrowd_model::codec::Named;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one of the paper's axioms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AxiomId {
    /// Axiom 1 — worker fairness in task assignment.
    A1WorkerAssignment,
    /// Axiom 2 — requester fairness in task assignment.
    A2RequesterAssignment,
    /// Axiom 3 — fairness in worker compensation.
    A3Compensation,
    /// Axiom 4 — requester fairness in task completion (malice detection).
    A4MaliceDetection,
    /// Axiom 5 — worker fairness in task completion (no interruption).
    A5NoInterruption,
    /// Axiom 6 — requester transparency.
    A6RequesterTransparency,
    /// Axiom 7 — platform transparency.
    A7PlatformTransparency,
}

impl AxiomId {
    /// All axioms in paper order.
    pub const ALL: [AxiomId; 7] = [
        AxiomId::A1WorkerAssignment,
        AxiomId::A2RequesterAssignment,
        AxiomId::A3Compensation,
        AxiomId::A4MaliceDetection,
        AxiomId::A5NoInterruption,
        AxiomId::A6RequesterTransparency,
        AxiomId::A7PlatformTransparency,
    ];

    /// The fairness axioms (1–5).
    pub(crate) const FAIRNESS: [AxiomId; 5] = [
        AxiomId::A1WorkerAssignment,
        AxiomId::A2RequesterAssignment,
        AxiomId::A3Compensation,
        AxiomId::A4MaliceDetection,
        AxiomId::A5NoInterruption,
    ];

    /// The transparency axioms (6–7).
    pub(crate) const TRANSPARENCY: [AxiomId; 2] = [
        AxiomId::A6RequesterTransparency,
        AxiomId::A7PlatformTransparency,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AxiomId::A1WorkerAssignment => "A1-worker-assignment",
            AxiomId::A2RequesterAssignment => "A2-requester-assignment",
            AxiomId::A3Compensation => "A3-compensation",
            AxiomId::A4MaliceDetection => "A4-malice-detection",
            AxiomId::A5NoInterruption => "A5-no-interruption",
            AxiomId::A6RequesterTransparency => "A6-requester-transparency",
            AxiomId::A7PlatformTransparency => "A7-platform-transparency",
        }
    }

    /// Resolve an axiom from its table label (the inverse of
    /// [`AxiomId::label`]). `None` for an unknown label — the sweep's
    /// part-file decoder turns that into a schema error rather than a
    /// panic.
    pub fn from_label(label: &str) -> Option<AxiomId> {
        AxiomId::ALL.into_iter().find(|a| a.label() == label)
    }

    /// The paper's full statement of the axiom.
    pub fn statement(self) -> &'static str {
        match self {
            AxiomId::A1WorkerAssignment => {
                "Given two different workers wi and wj, if Awi ~ Awj, Cwi ~ Cwj and \
                 Swi ~ Swj, then wi and wj should have access to the same tasks."
            }
            AxiomId::A2RequesterAssignment => {
                "Given two tasks ti and tj posted by different requesters, if their \
                 required skills are similar and their rewards comparable, then ti \
                 and tj should be shown to the same set of workers."
            }
            AxiomId::A3Compensation => {
                "Given two distinct workers who contributed to the same task, if \
                 their contributions are similar, they should receive the same reward."
            }
            AxiomId::A4MaliceDetection => {
                "Requesters must be able to detect workers behaving maliciously \
                 during task completion."
            }
            AxiomId::A5NoInterruption => {
                "A worker who started completing a task should not be interrupted."
            }
            AxiomId::A6RequesterTransparency => {
                "A requester must make available requester-dependent working \
                 conditions (hourly wage, time between submission and payment) and \
                 task-dependent working conditions (recruitment and rejection criteria)."
            }
            AxiomId::A7PlatformTransparency => {
                "The platform must disclose, for each worker w, computed attributes \
                 Cw such as performance and acceptance ratio."
            }
        }
    }
}

impl fmt::Display for AxiomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An axiom is its label in JSON and its index in [`AxiomId::ALL`] as
/// one binary byte.
impl Named for AxiomId {
    const ALL: &'static [Self] = &AxiomId::ALL;
    const WHAT: &'static str = "axiom";
    fn name(self) -> &'static str {
        self.label()
    }
}

faircrowd_model::named_fields!(AxiomId);

/// A concrete witness of an axiom violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which axiom.
    pub axiom: AxiomId,
    /// How severe, in `(0, 1]` (1 = maximal, e.g. total exclusion).
    pub severity: f64,
    /// Human-readable witness (which pair, what differed).
    pub description: String,
}

/// The result of checking one axiom over a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxiomReport {
    /// Which axiom.
    pub axiom: AxiomId,
    /// Satisfaction score in `[0, 1]` (1 = fully satisfied).
    pub score: f64,
    /// Size of the quantifier domain examined (similar pairs, tasks, …).
    pub checked: usize,
    /// Violation witnesses (may be truncated; see `truncated`).
    pub violations: Vec<Violation>,
    /// Total violations found (≥ `violations.len()` when truncated).
    pub violation_count: usize,
    /// Whether the witness list was truncated.
    pub truncated: bool,
    /// Free-form diagnostics.
    pub notes: Vec<String>,
}

impl AxiomReport {
    /// An axiom satisfied vacuously (empty quantifier domain).
    pub fn vacuous(axiom: AxiomId, note: &str) -> Self {
        AxiomReport {
            axiom,
            score: 1.0,
            checked: 0,
            violations: Vec::new(),
            violation_count: 0,
            truncated: false,
            notes: vec![note.to_owned()],
        }
    }

    /// True when no violations were found.
    pub fn holds(&self) -> bool {
        self.violation_count == 0
    }
}

/// An audited axiom cut to its tallies: its score, the size of its
/// domain and its violation count, with no witnesses or notes. A sweep
/// cell keeps its axioms so — every export reads the score and the
/// violation count alone — and a sweep part file stores exactly this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxiomTally {
    /// Which axiom.
    pub(crate) axiom: AxiomId,
    /// Satisfaction score in `[0, 1]`.
    pub(crate) score: f64,
    /// Size of the quantifier domain examined.
    pub(crate) checked: usize,
    /// Total violations found.
    pub(crate) violations: usize,
}

faircrowd_model::record!(AxiomTally {
    axiom: AxiomId,
    score: f64,
    checked: usize,
    violations: usize,
});

impl AxiomTally {
    /// The tallies of `report`.
    pub fn of(report: &AxiomReport) -> Self {
        AxiomTally {
            axiom: report.axiom,
            score: report.score,
            checked: report.checked,
            violations: report.violation_count,
        }
    }

    /// The report these tallies stand for. `truncated` is what a witness
    /// cap of zero reports: set whenever anything was found.
    pub fn report(&self) -> AxiomReport {
        AxiomReport {
            axiom: self.axiom,
            score: self.score,
            checked: self.checked,
            violations: Vec::new(),
            violation_count: self.violations,
            truncated: self.violations > 0,
            notes: Vec::new(),
        }
    }
}

/// An executable axiom checker.
pub trait Axiom {
    /// Which axiom this checks.
    fn id(&self) -> AxiomId;

    /// Check the axiom over an indexed trace under the given similarity
    /// regime.
    fn check(
        &self,
        ix: &TraceIndex<'_>,
        cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport;

    /// Convenience for one-off checks: index the trace, then check. An
    /// audit running several axioms should build one [`TraceIndex`] and
    /// call [`Axiom::check`] instead (that is what
    /// [`crate::audit::AuditEngine`] does).
    fn check_trace(
        &self,
        trace: &Trace,
        cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        self.check(&TraceIndex::new(trace), cfg, max_witnesses)
    }
}

/// Collect violations with a cap, tracking the true total.
pub(crate) struct ViolationCollector {
    axiom: AxiomId,
    cap: usize,
    pub(crate) items: Vec<Violation>,
    pub(crate) total: usize,
}

impl ViolationCollector {
    pub(crate) fn new(axiom: AxiomId, cap: usize) -> Self {
        ViolationCollector {
            axiom,
            cap,
            items: Vec::new(),
            total: 0,
        }
    }

    pub(crate) fn push(&mut self, severity: f64, description: String) {
        self.total += 1;
        if self.items.len() < self.cap {
            self.items.push(Violation {
                axiom: self.axiom,
                severity,
                description,
            });
        }
    }

    pub(crate) fn truncated(&self) -> bool {
        self.total > self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axiom_ids_cover_paper() {
        assert_eq!(AxiomId::ALL.len(), 7);
        assert_eq!(AxiomId::FAIRNESS.len(), 5);
        assert_eq!(AxiomId::TRANSPARENCY.len(), 2);
        for id in AxiomId::ALL {
            assert!(!id.label().is_empty());
            assert!(!id.statement().is_empty());
            assert_eq!(AxiomId::from_label(id.label()), Some(id));
        }
        assert_eq!(AxiomId::from_label("A0-nope"), None);
        assert_eq!(AxiomId::A3Compensation.to_string(), "A3-compensation");
    }

    #[test]
    fn vacuous_report_holds() {
        let r = AxiomReport::vacuous(AxiomId::A1WorkerAssignment, "no similar pairs");
        assert!(r.holds());
        assert_eq!(r.score, 1.0);
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn collector_caps_but_counts() {
        let mut c = ViolationCollector::new(AxiomId::A3Compensation, 2);
        for i in 0..5 {
            c.push(1.0, format!("violation {i}"));
        }
        assert_eq!(c.items.len(), 2);
        assert_eq!(c.total, 5);
        assert!(c.truncated());
    }
}
