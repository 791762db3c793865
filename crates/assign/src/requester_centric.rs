//! Requester-centric assignment.
//!
//! "Requester-centric task assignment allocates tasks to workers so as to
//! maximize the total gain of the requester. This could be discriminatory
//! to workers" (§3.1.1). This policy is the discrimination generator of
//! E1: it greedily gives every slot to the highest-quality qualified
//! worker, and — crucially — only *shows* tasks to the workers it picked.
//! Low-reputation workers never even see the well-paid work, the
//! information asymmetry the paper's fairness axioms are designed to
//! expose.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification};
use rand::RngCore;

/// Greedy requester-utility maximisation with need-to-know visibility.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequesterCentric;

impl AssignmentPolicy for RequesterCentric {
    fn name(&self) -> &'static str {
        "requester-centric"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        _rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = Draft::hidden(input, qualified);
        let mut capacity: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        // The last task each worker took a slot of: redundancy slots
        // must go to distinct workers — the whole point of multiple
        // assignments is independent answers.
        let mut on_task: Vec<Option<usize>> = vec![None; input.workers.len()];

        // Most valuable tasks first: the requester protects her highest
        // rewards with her best workers.
        let mut task_order: Vec<usize> = (0..input.tasks.len()).collect();
        task_order.sort_by(|&a, &b| {
            input.tasks[b]
                .reward
                .cmp(&input.tasks[a].reward)
                .then(input.tasks[a].id.cmp(&input.tasks[b].id))
        });

        for ti in task_order {
            let t = &input.tasks[ti];
            for _slot in 0..t.slots {
                // best remaining qualified worker by quality
                let best = input
                    .workers
                    .iter()
                    .enumerate()
                    .filter(|&(wi, _)| {
                        capacity[wi] > 0
                            && on_task[wi] != Some(ti)
                            && qualified.row(wi).contains(t.id)
                    })
                    .max_by(|(_, a), (_, b)| {
                        a.quality
                            .partial_cmp(&b.quality)
                            .expect("NaN quality")
                            .then(b.id.cmp(&a.id))
                    });
                match best {
                    Some((wi, _)) => {
                        capacity[wi] -= 1;
                        on_task[wi] = Some(ti);
                        outcome.assign(wi, ti);
                    }
                    None => break, // nobody left for this task
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
    use crate::SelfSelection;
    use faircrowd_model::ids::{TaskId, WorkerId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Expected value of an assignment to its requesters: worker quality
    /// × task reward, summed.
    fn requester_utility(input: &AssignInput, outcome: &AssignmentOutcome) -> f64 {
        let value = |(w, t): &(WorkerId, TaskId)| {
            let wv = input.workers.iter().find(|v| v.id == *w)?;
            let tv = input.tasks.iter().find(|v| v.id == *t)?;
            Some(wv.quality * tv.reward.as_dollars_f64())
        };
        outcome.assignments.iter().filter_map(value).sum()
    }

    #[test]
    fn feasible() {
        let m = small_market();
        let o = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        assert!(o.check_feasible(&m).is_empty());
    }

    #[test]
    fn prefers_high_quality_workers() {
        let m = small_market();
        let o = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        // the $0.30 task (t2) must go to the best qualified worker (w0,
        // quality .95; w2 also qualifies at .60)
        let t2_workers: Vec<WorkerId> = o
            .assignments
            .iter()
            .filter(|(_, t)| t.raw() == 2)
            .map(|(w, _)| *w)
            .collect();
        assert_eq!(t2_workers, vec![WorkerId::new(0)]);
    }

    #[test]
    fn visibility_is_need_to_know() {
        let m = small_market();
        let o = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        // w3 (quality .40) only qualifies for t0; with better workers
        // available she may see at most t0 — and crucially, every worker's
        // visibility equals exactly her assignments.
        for (w, vis) in &o.visibility {
            let assigned: std::collections::BTreeSet<_> = o
                .assignments
                .iter()
                .filter(|(aw, _)| aw == w)
                .map(|(_, t)| *t)
                .collect();
            let shown: std::collections::BTreeSet<_> = vis.iter().collect();
            assert_eq!(shown, assigned, "visibility leaks beyond assignments");
        }
    }

    #[test]
    fn maximizes_requester_utility_vs_self_selection() {
        let m = small_market();
        let rc = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(5));
        // self-selection with an adversarial seed can misallocate; over a
        // few seeds requester-centric should never lose on its own metric
        for seed in 0..5 {
            let ss = SelfSelection.assign(&m, &mut StdRng::seed_from_u64(seed));
            assert!(
                requester_utility(&m, &rc) >= requester_utility(&m, &ss) - 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let m = small_market();
        let a = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(1));
        let b = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b, "no RNG dependence");
    }
}
