//! Worker-centric assignment.
//!
//! "A worker-centric assignment that allocates tasks based on workers'
//! preferences is more likely to be fair to workers, by favoring their
//! expected compensation, but may be unfavorable to requesters" (§3.1.1).
//!
//! We realise the strongest version: an exact **maximum-weight
//! b-matching** on worker preference scores (reward × skill affinity) —
//! each worker takes at most `capacity` tasks, each task at most `slots`
//! workers, each (worker, task) pair at most once. Solved as min-cost
//! flow ([`crate::mcmf`]); plain clone-expanded Hungarian matching cannot
//! express the at-most-once pair constraint and provably underperforms
//! (see the mcmf module tests). Visibility is complete for the qualified
//! — a worker-first platform hides nothing.

use crate::mcmf::max_weight_b_matching;
use crate::policy::{
    preference_score, AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification,
};
use rand::RngCore;

/// Exact b-matching maximising total worker preference.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerCentric;

impl AssignmentPolicy for WorkerCentric {
    fn name(&self) -> &'static str {
        "worker-centric"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        _rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = Draft::open(input, qualified);
        if input.workers.is_empty() || input.tasks.is_empty() {
            return outcome.finish();
        }

        let weights: Vec<Vec<f64>> = input
            .workers
            .iter()
            .enumerate()
            .map(|(wi, w)| {
                input
                    .tasks
                    .iter()
                    .map(|t| {
                        if qualified.row(wi).contains(t.id) {
                            preference_score(w, t)
                        } else {
                            f64::NEG_INFINITY
                        }
                    })
                    .collect()
            })
            .collect();
        let capacities: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        let slots: Vec<u32> = input.tasks.iter().map(|t| t.slots).collect();

        for (wi, ti) in max_weight_b_matching(&weights, &capacities, &slots) {
            outcome.assign(wi, ti);
        }
        outcome.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fixtures::small_market;
    use crate::policy::worker_utility;
    use crate::SelfSelection;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn feasible() {
        let m = small_market();
        let o = WorkerCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        assert!(
            o.check_feasible(&m).is_empty(),
            "{:?}",
            o.check_feasible(&m)
        );
    }

    #[test]
    fn full_visibility_for_qualified() {
        let m = small_market();
        let o = WorkerCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        for w in &m.workers {
            for t in &m.tasks {
                assert_eq!(
                    o.visibility.get(&w.id).is_some_and(|v| v.contains(t.id)),
                    w.qualifies(t)
                );
            }
        }
    }

    #[test]
    fn dominates_self_selection_on_worker_utility() {
        let m = small_market();
        let wc = WorkerCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        for seed in 0..8 {
            let ss = SelfSelection.assign(&m, &mut StdRng::seed_from_u64(seed));
            assert!(
                worker_utility(&m, &wc) >= worker_utility(&m, &ss) - 1e-9,
                "matching is optimal for worker preference (seed {seed})"
            );
        }
    }

    #[test]
    fn no_duplicate_worker_task_pairs() {
        let m = small_market();
        let o = WorkerCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        let mut seen = std::collections::BTreeSet::new();
        for pair in &o.assignments {
            assert!(seen.insert(*pair), "duplicate assignment {pair:?}");
        }
    }

    #[test]
    fn empty_market_is_fine() {
        let o = WorkerCentric.assign(&AssignInput::default(), &mut StdRng::seed_from_u64(0));
        assert!(o.assignments.is_empty());
    }
}
