//! Karger–Oh–Shah task allocation.
//!
//! The allocation half of the budget-optimal scheme (Karger, Oh, Shah —
//! cited as \[11\]; the message-passing decoder lives in
//! `faircrowd_quality::kos`). Tasks are assigned to workers through a
//! random **(l, r)-regular bipartite graph**: each task is given to `l`
//! distinct randomly chosen workers and each worker receives at most `r`
//! tasks. Random regularity is what makes the decoder's density evolution
//! work; it also makes the allocation *statistically* fair in exposure —
//! every qualified worker is equally likely to see any task, which gives
//! the policy an interesting middle position in E1.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification};
use rand::seq::SliceRandom;
use rand::RngCore;

/// Random (l, r)-regular allocation.
#[derive(Debug, Clone, Copy)]
pub struct KosAllocation {
    /// Workers per task (left degree).
    pub l: u32,
    /// Maximum tasks per worker (right degree).
    pub r: u32,
}

impl Default for KosAllocation {
    fn default() -> Self {
        KosAllocation { l: 3, r: 5 }
    }
}

impl AssignmentPolicy for KosAllocation {
    fn name(&self) -> &'static str {
        "kos-regular"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = Draft::hidden(input, qualified);
        // Remaining right-degree per worker, bounded by both `r` and the
        // worker's declared capacity.
        let mut budget: Vec<u32> = input
            .workers
            .iter()
            .map(|w| w.capacity.min(self.r))
            .collect();

        let mut task_order: Vec<usize> = (0..input.tasks.len()).collect();
        task_order.shuffle(rng);

        let mut candidates: Vec<usize> = Vec::new();
        for ti in task_order {
            let t = &input.tasks[ti];
            let want = self.l.min(t.slots);
            // candidate qualified workers with remaining budget
            candidates.clear();
            candidates.extend(
                (0..input.workers.len())
                    .filter(|&wi| budget[wi] > 0 && qualified.row(wi).contains(t.id)),
            );
            candidates.shuffle(rng);
            for &wi in candidates.iter().take(want as usize) {
                budget[wi] -= 1;
                outcome.assign(wi, ti);
            }
        }
        outcome.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fixtures::small_market;
    use crate::policy::{TaskView, WorkerView};
    use faircrowd_model::ids::{RequesterId, TaskId, WorkerId};
    use faircrowd_model::money::Credits;
    use faircrowd_model::skills::SkillVector;
    use faircrowd_model::time::SimDuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// A uniform market with no skill requirements.
    fn uniform_market(n_tasks: u32, n_workers: u32, slots: u32, capacity: u32) -> AssignInput {
        AssignInput {
            tasks: (0..n_tasks)
                .map(|i| TaskView {
                    id: TaskId::new(i),
                    requester: RequesterId::new(0),
                    skills: SkillVector::with_len(0),
                    reward: Credits::from_cents(10),
                    slots,
                    est_duration: SimDuration::from_mins(5),
                })
                .collect(),
            workers: (0..n_workers)
                .map(|i| WorkerView {
                    id: WorkerId::new(i),
                    skills: SkillVector::with_len(0),
                    quality: 0.8,
                    capacity,
                    group: None,
                })
                .collect(),
        }
    }

    #[test]
    fn respects_left_degree() {
        let m = uniform_market(10, 20, 5, 10);
        let mut policy = KosAllocation { l: 3, r: 10 };
        let o = policy.assign(&m, &mut StdRng::seed_from_u64(0));
        let mut per_task: BTreeMap<TaskId, usize> = BTreeMap::new();
        for (_, t) in &o.assignments {
            *per_task.entry(*t).or_insert(0) += 1;
        }
        for (&task, &n) in &per_task {
            assert!(n <= 3, "{task} has degree {n} > l");
        }
        // with abundant workers every task reaches exactly l
        assert!(per_task.values().all(|&n| n == 3));
    }

    #[test]
    fn respects_right_degree_and_capacity() {
        let m = uniform_market(30, 5, 3, 100);
        let mut policy = KosAllocation { l: 2, r: 4 };
        let o = policy.assign(&m, &mut StdRng::seed_from_u64(1));
        let mut per_worker: BTreeMap<WorkerId, usize> = BTreeMap::new();
        for (w, _) in &o.assignments {
            *per_worker.entry(*w).or_insert(0) += 1;
        }
        for (&w, &n) in &per_worker {
            assert!(n <= 4, "{w} has degree {n} > r");
        }
    }

    #[test]
    fn feasible_on_small_market() {
        let m = small_market();
        let mut policy = KosAllocation::default();
        let o = policy.assign(&m, &mut StdRng::seed_from_u64(2));
        assert!(o.check_feasible(&m).is_empty());
    }

    #[test]
    fn exposure_is_statistically_even() {
        // over many runs, each of 10 interchangeable workers should be
        // exposed a similar number of times
        let m = uniform_market(6, 10, 1, 10);
        let mut counts: BTreeMap<WorkerId, usize> = BTreeMap::new();
        for seed in 0..200 {
            let mut policy = KosAllocation { l: 3, r: 10 };
            let o = policy.assign(&m, &mut StdRng::seed_from_u64(seed));
            for (w, vis) in &o.visibility {
                *counts.entry(*w).or_insert(0) += vis.len();
            }
        }
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        assert!(
            min / max > 0.7,
            "exposure too uneven across runs: min {min} max {max}"
        );
    }

    #[test]
    fn qualification_still_respected() {
        let mut m = uniform_market(2, 2, 2, 2);
        // task 1 requires a skill nobody has
        m.tasks[1].skills = SkillVector::from_bools([true]);
        let mut policy = KosAllocation::default();
        let o = policy.assign(&m, &mut StdRng::seed_from_u64(3));
        assert!(o.assignments.iter().all(|(_, t)| t.raw() != 1));
    }
}
