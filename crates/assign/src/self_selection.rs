//! Self-selection (post-and-browse).
//!
//! "In platforms such as AMT and CrowdFlower, requesters post tasks, and
//! qualified workers choose the ones they like. This simple task
//! assignment mechanism could be characterized as fair because workers
//! have access to the same set of tasks" (§3.1.1). Every qualified worker
//! sees every open task; workers then claim tasks by their own preference
//! in random arrival order.

use crate::policy::{
    preference_score, AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification,
};
use rand::seq::SliceRandom;
use rand::RngCore;

/// The post-and-browse baseline. Fair in exposure by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfSelection;

impl AssignmentPolicy for SelfSelection {
    fn name(&self) -> &'static str {
        "self-selection"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        // Full visibility for the qualified.
        let mut outcome = Draft::open(input, qualified);
        // Workers arrive in random order and claim by preference.
        let mut slots: Vec<u32> = input.tasks.iter().map(|t| t.slots).collect();
        let mut order: Vec<usize> = (0..input.workers.len()).collect();
        order.shuffle(rng);
        let mut prefs: Vec<(f64, usize)> = Vec::new();
        for wi in order {
            let w = &input.workers[wi];
            let row = qualified.row(wi);
            // rank qualified open tasks by the worker's own preference
            prefs.clear();
            prefs.extend(
                input
                    .tasks
                    .iter()
                    .enumerate()
                    .filter(|&(ti, t)| slots[ti] > 0 && row.contains(t.id))
                    .map(|(ti, t)| (preference_score(w, t), ti)),
            );
            // Task indices are unique, so no two keys tie and the
            // unstable sort gives the stable sort's order.
            prefs.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("NaN preference")
                    .then(a.1.cmp(&b.1))
            });
            for &(_, ti) in prefs.iter().take(w.capacity as usize) {
                if slots[ti] > 0 {
                    slots[ti] -= 1;
                    outcome.assign(wi, ti);
                }
            }
        }
        outcome.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fixtures::small_market;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exposure_is_complete_for_qualified() {
        let m = small_market();
        let mut rng = StdRng::seed_from_u64(1);
        let o = SelfSelection.assign(&m, &mut rng);
        // every qualified (worker, task) pair is visible
        for w in &m.workers {
            for t in &m.tasks {
                assert_eq!(
                    o.visibility.get(&w.id).is_some_and(|v| v.contains(t.id)),
                    w.qualifies(t),
                    "visibility must exactly match qualification"
                );
            }
        }
    }

    #[test]
    fn outcome_is_feasible() {
        let m = small_market();
        let mut rng = StdRng::seed_from_u64(2);
        let o = SelfSelection.assign(&m, &mut rng);
        assert!(o.check_feasible(&m).is_empty());
    }

    #[test]
    fn fills_available_slots() {
        let m = small_market();
        let mut rng = StdRng::seed_from_u64(3);
        let o = SelfSelection.assign(&m, &mut rng);
        // market has 4 slots and 5 capacity with broad qualification:
        // self-selection should fill all 4
        assert_eq!(o.assignments.len(), 4);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let m = small_market();
        let o1 = SelfSelection.assign(&m, &mut StdRng::seed_from_u64(9));
        let o2 = SelfSelection.assign(&m, &mut StdRng::seed_from_u64(9));
        assert_eq!(o1, o2);
    }
}
