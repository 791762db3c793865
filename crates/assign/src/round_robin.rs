//! Round-robin assignment.
//!
//! An equitable-by-construction baseline: full qualified visibility, and
//! assignments dealt one at a time to each worker in turn, so no worker
//! accumulates tasks while another starves. Deterministic given the input
//! (no RNG use) — useful as the fairness anchor in E1.
//!
//! Each turn a worker takes the first (lowest-position) task she
//! qualifies for that still has a slot and that she has not taken yet.
//! That eligible set only shrinks during a round — slots run out, taken
//! tasks stay taken — so her first eligible position never moves back,
//! and a cursor per worker finds it without rescanning from the start.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification};
use rand::RngCore;

/// Deal tasks to workers in rotation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        _rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = Draft::open(input, qualified);
        let mut slots: Vec<u32> = input.tasks.iter().map(|t| t.slots).collect();
        let mut capacity: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        // Every task before a worker's cursor is taken by her or no
        // longer eligible for her.
        let mut cursor: Vec<usize> = vec![0; input.workers.len()];

        loop {
            let mut progressed = false;
            for wi in 0..input.workers.len() {
                if capacity[wi] == 0 {
                    continue;
                }
                // the first qualified open task not yet taken
                let row = qualified.row(wi);
                let next = (cursor[wi]..input.tasks.len())
                    .find(|&ti| slots[ti] > 0 && row.contains(input.tasks[ti].id));
                cursor[wi] = next.map_or(input.tasks.len(), |ti| ti + 1);
                if let Some(ti) = next {
                    slots[ti] -= 1;
                    capacity[wi] -= 1;
                    outcome.assign(wi, ti);
                    progressed = true;
                }
            }
            if !progressed {
                break;
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
    use std::collections::BTreeMap;

    #[test]
    fn feasible_and_fills_slots() {
        let m = small_market();
        let o = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(0));
        assert!(o.check_feasible(&m).is_empty());
        assert_eq!(o.assignments.len(), 4, "all slots fillable in this market");
    }

    #[test]
    fn spreads_assignments_across_workers() {
        let m = small_market();
        let o = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(0));
        let mut per_worker: BTreeMap<_, usize> = BTreeMap::new();
        for (w, _) in &o.assignments {
            *per_worker.entry(*w).or_insert(0) += 1;
        }
        // Rotation guarantee: nobody receives a second task until every
        // worker has had a first-round turn. w3 only qualifies for t0,
        // whose two slots fill during round one, so she may go empty —
        // but the spread among the served must stay within one task.
        let served_max = *per_worker.values().max().unwrap();
        let served_min = *per_worker.values().min().unwrap();
        assert!(served_max - served_min <= 1, "{per_worker:?}");
        assert!(per_worker.len() >= 3, "{per_worker:?}");
        // first three assignments are three distinct workers (round one)
        let first_round: std::collections::BTreeSet<_> =
            o.assignments.iter().take(3).map(|(w, _)| *w).collect();
        assert_eq!(first_round.len(), 3);
    }

    #[test]
    fn ignores_rng_entirely() {
        let m = small_market();
        let a = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(1));
        let b = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_market() {
        let o = RoundRobin.assign(&AssignInput::default(), &mut StdRng::seed_from_u64(0));
        assert!(o.assignments.is_empty());
        assert!(o.visibility.is_empty());
    }
}
