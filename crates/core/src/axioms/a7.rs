//! Axiom 7 — platform transparency.
//!
//! *"The platform must disclose, for each worker w, computed attributes
//! Cw such as performance and acceptance ratio."*
//!
//! Two components multiply into the score:
//!
//! * **policy coverage** — which of the canonical computed attributes the
//!   platform's disclosure set lets a worker see about herself
//!   ([`DisclosureItem::AXIOM7_REQUIRED`]);
//! * **delivery evidence** — among workers who actually had sessions, the
//!   fraction that received at least one `DisclosureShown` event. A policy
//!   that grants access nobody ever renders is transparency on paper only.

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::index::TraceIndex;
use faircrowd_model::disclosure::{Audience, DisclosureItem};
use faircrowd_model::similarity::SimilarityConfig;

/// Checker for Axiom 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformTransparency;

impl Axiom for PlatformTransparency {
    fn id(&self) -> AxiomId {
        AxiomId::A7PlatformTransparency
    }

    fn check(
        &self,
        ix: &TraceIndex<'_>,
        _cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        let trace = ix.trace();
        let coverage = trace.disclosure.axiom7_coverage();
        let mut collector = ViolationCollector::new(self.id(), max_witnesses);
        for item in DisclosureItem::AXIOM7_REQUIRED {
            if !trace.disclosure.allows(item, Audience::Subject) {
                collector.push(
                    1.0 / DisclosureItem::AXIOM7_REQUIRED.len() as f64,
                    format!("computed attribute {item} is not disclosed to the worker"),
                );
            }
        }

        let active = ix.session_workers();
        let informed = ix.informed_workers();

        let evidence = if active.is_empty() {
            1.0 // nobody to inform
        } else {
            active.intersection_len(informed) as f64 / active.len() as f64
        };
        if coverage > 0.0 && evidence < 1.0 {
            let uninformed = active.len() - active.intersection_len(informed);
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
            axiom: self.id(),
            score: (coverage * evidence).clamp(0.0, 1.0),
            checked: active.len().max(1),
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use faircrowd_model::disclosure::DisclosureSet;
    use faircrowd_model::event::EventKind;
    use faircrowd_model::time::SimTime;
    use faircrowd_model::trace::Trace;

    fn cfg() -> SimilarityConfig {
        SimilarityConfig::default()
    }

    fn session(trace: &mut Trace, at: u64, worker_id: u32) {
        trace.events.push(
            SimTime::from_secs(at),
            EventKind::SessionStarted {
                worker: w(worker_id),
            },
        );
    }

    fn shown(trace: &mut Trace, at: u64, worker_id: u32) {
        trace.events.push(
            SimTime::from_secs(at),
            EventKind::DisclosureShown {
                worker: w(worker_id),
                item: DisclosureItem::WorkerAcceptanceRatio,
            },
        );
    }

    #[test]
    fn transparent_and_delivered_scores_one() {
        let mut trace = skeleton(vec![]);
        trace.disclosure = DisclosureSet::fully_transparent();
        session(&mut trace, 1, 0);
        shown(&mut trace, 1, 0);
        session(&mut trace, 2, 1);
        shown(&mut trace, 2, 1);
        let r = PlatformTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
        assert!(r.holds());
    }

    #[test]
    fn opaque_platform_scores_zero() {
        let mut trace = skeleton(vec![]);
        trace.disclosure = DisclosureSet::opaque();
        session(&mut trace, 1, 0);
        let r = PlatformTransparency.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.score, 0.0);
        assert_eq!(
            r.violation_count,
            DisclosureItem::AXIOM7_REQUIRED.len(),
            "every required attribute is missing"
        );
    }

    #[test]
    fn paper_transparency_without_delivery_is_penalised() {
        let mut trace = skeleton(vec![]);
        trace.disclosure = DisclosureSet::fully_transparent();
        session(&mut trace, 1, 0);
        session(&mut trace, 2, 1);
        shown(&mut trace, 2, 1); // only w1 ever saw anything
        let r = PlatformTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.5).abs() < 1e-12);
        assert!(r
            .violations
            .iter()
            .any(|v| v.description.contains("never saw any disclosure")));
    }

    #[test]
    fn partial_policy_partial_score() {
        let mut trace = skeleton(vec![]);
        trace.disclosure = DisclosureSet::opaque()
            .with(DisclosureItem::WorkerAcceptanceRatio, Audience::Subject)
            .with(DisclosureItem::WorkerQualityEstimate, Audience::Subject)
            .with(DisclosureItem::WorkerHistory, Audience::Subject);
        session(&mut trace, 1, 0);
        shown(&mut trace, 1, 0);
        session(&mut trace, 1, 1);
        shown(&mut trace, 1, 1);
        let r = PlatformTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.5).abs() < 1e-12);
        assert_eq!(r.violation_count, 3);
    }

    #[test]
    fn empty_trace_judged_on_policy() {
        let trace = Trace {
            disclosure: DisclosureSet::fully_transparent(),
            ..Trace::default()
        };
        let r = PlatformTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
    }
}
