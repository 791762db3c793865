//! Online task assignment.
//!
//! After Ho & Vaughan, *Online task assignment in crowdsourcing markets*
//! (AAAI 2012 — cited as \[8\]): workers arrive one at a time and must be
//! assigned on arrival, the scheme "accounting for worker skills to
//! maximize the requester's total gain from the completed work". We
//! implement the greedy marginal-utility rule (the standard practical
//! variant): an arriving worker is routed to the open task where her
//! expected contribution `quality × reward` is largest.
//!
//! Like [`crate::RequesterCentric`], the worker is shown only what she is
//! offered — online platforms that route work do not reveal the queue.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification};
use rand::seq::SliceRandom;
use rand::RngCore;

/// Greedy online assignment with arrival order drawn from the RNG.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineMatching;

impl AssignmentPolicy for OnlineMatching {
    fn name(&self) -> &'static str {
        "online-greedy"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = Draft::hidden(input, qualified);
        let mut slots: Vec<u32> = input.tasks.iter().map(|t| t.slots).collect();
        // The last arrival that took each task: a worker answers any
        // given task at most once (redundancy slots need distinct
        // workers).
        let mut taken_by: Vec<Option<usize>> = vec![None; input.tasks.len()];

        let mut arrivals: Vec<usize> = (0..input.workers.len()).collect();
        arrivals.shuffle(rng);

        for wi in arrivals {
            let w = &input.workers[wi];
            let row = qualified.row(wi);
            for _ in 0..w.capacity {
                // marginal utility of routing w to each open task
                let best = input
                    .tasks
                    .iter()
                    .enumerate()
                    .filter(|&(ti, t)| {
                        slots[ti] > 0 && taken_by[ti] != Some(wi) && row.contains(t.id)
                    })
                    .max_by(|(_, a), (_, b)| {
                        let ua = w.quality * a.reward.as_dollars_f64();
                        let ub = w.quality * b.reward.as_dollars_f64();
                        ua.partial_cmp(&ub)
                            .expect("NaN utility")
                            .then(b.id.cmp(&a.id))
                    });
                match best {
                    Some((ti, _)) => {
                        slots[ti] -= 1;
                        taken_by[ti] = Some(wi);
                        outcome.assign(wi, ti);
                    }
                    None => break,
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
    fn feasible() {
        let m = small_market();
        let o = OnlineMatching.assign(&m, &mut StdRng::seed_from_u64(0));
        assert!(o.check_feasible(&m).is_empty());
    }

    #[test]
    fn routes_arrivals_to_highest_value_open_task() {
        let m = small_market();
        let o = OnlineMatching.assign(&m, &mut StdRng::seed_from_u64(0));
        // every assignment must be to the best open task at that moment;
        // structurally we can at least require full slot usage given
        // abundant capacity
        assert_eq!(o.assignments.len(), 4);
    }

    #[test]
    fn visibility_limited_to_offers() {
        let m = small_market();
        let o = OnlineMatching.assign(&m, &mut StdRng::seed_from_u64(1));
        for (w, vis) in &o.visibility {
            let assigned: std::collections::BTreeSet<_> = o
                .assignments
                .iter()
                .filter(|(aw, _)| aw == w)
                .map(|(_, t)| *t)
                .collect();
            let shown: std::collections::BTreeSet<_> = vis.iter().collect();
            assert_eq!(shown, assigned);
        }
    }

    #[test]
    fn arrival_order_matters() {
        let m = small_market();
        let outcomes: Vec<_> = (0..10)
            .map(|s| OnlineMatching.assign(&m, &mut StdRng::seed_from_u64(s)))
            .collect();
        let distinct: std::collections::BTreeSet<String> = outcomes
            .iter()
            .map(|o| format!("{:?}", o.assignments))
            .collect();
        assert!(
            distinct.len() > 1,
            "online outcomes should vary with arrival order"
        );
    }
}
