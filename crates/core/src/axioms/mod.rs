//! The seven axiom checkers.
//!
//! One module per axiom, in the paper's numbering. All checkers are pure
//! functions of `(indexed trace, similarity config)` and can be run
//! individually or through the [`crate::audit::AuditEngine`], which
//! builds one [`crate::index::TraceIndex`] and fans the axioms out over
//! it. The [`naive`] module retains the original unindexed
//! implementations as the correctness oracle and perf baseline.

pub(crate) mod a1;
pub(crate) mod a2;
pub(crate) mod a3;
pub(crate) mod a4;
pub(crate) mod a5;
pub(crate) mod a6;
pub(crate) mod a7;
pub mod naive;

#[cfg(test)]
pub(crate) mod fixtures;

pub use a1::WorkerAssignmentFairness;
pub use a2::RequesterAssignmentFairness;
pub use a3::CompensationFairness;
pub use a4::MaliceDetection;
pub use a5::NoInterruption;
pub use a6::RequesterTransparency;
pub use a7::PlatformTransparency;

use crate::axiom::Axiom;
use crate::axiom::AxiomId;

/// Instantiate the checker for an axiom id.
pub fn checker_for(id: AxiomId) -> Box<dyn Axiom> {
    match id {
        AxiomId::A1WorkerAssignment => Box::new(WorkerAssignmentFairness),
        AxiomId::A2RequesterAssignment => Box::new(RequesterAssignmentFairness),
        AxiomId::A3Compensation => Box::new(CompensationFairness),
        AxiomId::A4MaliceDetection => Box::new(MaliceDetection),
        AxiomId::A5NoInterruption => Box::new(NoInterruption),
        AxiomId::A6RequesterTransparency => Box::new(RequesterTransparency),
        AxiomId::A7PlatformTransparency => Box::new(PlatformTransparency),
    }
}

/// Composite worker-to-worker similarity under a configurable skill
/// kernel: the minimum of the declared-attribute, computed-attribute and
/// skill similarities (Axiom 1 requires **all three** to be similar).
pub(crate) fn worker_similarity(
    a: &faircrowd_model::worker::Worker,
    b: &faircrowd_model::worker::Worker,
    cfg: &faircrowd_model::similarity::SimilarityConfig,
) -> f64 {
    let declared = a.declared.similarity(&b.declared);
    let computed = a.computed.similarity(&b.computed);
    let skills = cfg.skill_measure.score(&a.skills, &b.skills);
    declared.min(computed).min(skills)
}

/// The Axiom 1 violation witness text, shared by the indexed checker
/// and the live monitor so a wording tweak cannot drift one without the
/// other (the naive reference keeps its own copy on purpose — it is the
/// independent oracle).
pub(crate) fn a1_witness(
    a: faircrowd_model::ids::WorkerId,
    b: faircrowd_model::ids::WorkerId,
    sim: f64,
    overlap: &crate::index::AccessOverlap,
    jaccard: f64,
) -> String {
    format!(
        "workers {a} and {b} are similar (sim {sim:.2}) but saw different \
         tasks: {} vs {} of {} common-qualified (overlap {jaccard:.2})",
        overlap.left, overlap.right, overlap.common
    )
}

/// The Axiom 2 violation witness text, shared like [`a1_witness`].
pub(crate) fn a2_witness(
    a: &faircrowd_model::task::Task,
    b: &faircrowd_model::task::Task,
    skill_sim: f64,
    left: usize,
    right: usize,
    jaccard: f64,
) -> String {
    format!(
        "tasks {} ({}) and {} ({}) are comparable (skill sim {skill_sim:.2}, \
         rewards {} vs {}) but reached different audiences \
         ({left} vs {right} workers, overlap {jaccard:.2})",
        a.id, a.requester, b.id, b.requester, a.reward, b.reward
    )
}

/// Jaccard overlap of two id sets; 1.0 when both are empty.
pub(crate) fn set_jaccard<T: Ord>(
    a: &std::collections::BTreeSet<T>,
    b: &std::collections::BTreeSet<T>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn checker_for_every_axiom() {
        for id in AxiomId::ALL {
            assert_eq!(checker_for(id).id(), id);
        }
    }

    #[test]
    fn jaccard_edges() {
        let empty: BTreeSet<u32> = BTreeSet::new();
        assert_eq!(set_jaccard(&empty, &empty), 1.0);
        let a: BTreeSet<u32> = [1, 2].into_iter().collect();
        let b: BTreeSet<u32> = [2, 3].into_iter().collect();
        assert!((set_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(set_jaccard(&a, &empty), 0.0);
    }
}
