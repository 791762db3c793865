//! Fair-allocation task delivery (Basık et al., fair task distribution
//! in crowdsourcing): balance accumulated worker utility instead of
//! maximising requester gain.
//!
//! Each open slot (tasks in id order, best-paid first within a round)
//! goes to the qualified worker with the **lowest utility delivered so
//! far** — utility being the preference score of the tasks she was
//! already handed this round plus a carry-over of past rounds. The
//! policy is an online water-filling of worker utility: nobody is handed
//! a second helping while a qualified, available worker is still at a
//! lower level. Deterministic: ties break on worker id and the injected
//! RNG is never consulted.

use crate::policy::{
    preference_score, AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification,
};
use faircrowd_model::ids::WorkerId;
use rand::RngCore;
use std::collections::BTreeMap;

/// The registered `fair_delivery` policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FairDelivery {
    /// Utility already delivered to each worker in earlier rounds; the
    /// balancing carries across rounds so a worker starved early is
    /// first in line later.
    pub(crate) delivered: BTreeMap<WorkerId, f64>,
}

impl FairDelivery {
    /// Stable registry/report name.
    pub(crate) const NAME: &'static str = "fair-delivery";
}

impl AssignmentPolicy for FairDelivery {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        _rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        // Self-selection-style exposure: every qualified worker sees the
        // task. The balancing binds only the delivery (assignments).
        let mut outcome = Draft::open(input, qualified);
        let mut remaining: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        let mut level: Vec<f64> = input
            .workers
            .iter()
            .map(|w| self.delivered.get(&w.id).copied().unwrap_or(0.0))
            .collect();
        // The last task each worker was handed a slot of (slots of one
        // task go to distinct workers).
        let mut on_task: Vec<Option<usize>> = vec![None; input.workers.len()];

        // Best-paid tasks first: high-utility slots are the contested
        // resource, so they are levelled first.
        let mut order: Vec<usize> = (0..input.tasks.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&input.tasks[a], &input.tasks[b]);
            b.reward.cmp(&a.reward).then(a.id.cmp(&b.id))
        });
        for ti in order {
            let task = &input.tasks[ti];
            for _slot in 0..task.slots {
                let pick = input
                    .workers
                    .iter()
                    .enumerate()
                    .filter(|&(wi, _)| {
                        remaining[wi] > 0
                            && on_task[wi] != Some(ti)
                            && qualified.row(wi).contains(task.id)
                    })
                    .min_by(|&(ai, a), &(bi, b)| {
                        level[ai]
                            .partial_cmp(&level[bi])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.id.cmp(&b.id))
                    });
                let Some((wi, w)) = pick else { break };
                outcome.assign(wi, ti);
                remaining[wi] -= 1;
                on_task[wi] = Some(ti);
                level[wi] += preference_score(w, task);
            }
        }
        self.delivered = input.workers.iter().map(|w| w.id).zip(level).collect();
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
    fn delivery_is_feasible_and_deterministic() {
        let market = small_market();
        let a = FairDelivery::default().assign(&market, &mut StdRng::seed_from_u64(3));
        assert!(a.check_feasible(&market).is_empty());
        let b = FairDelivery::default().assign(&market, &mut StdRng::seed_from_u64(77));
        assert_eq!(a, b, "policy must ignore the RNG");
        assert!(!a.assignments.is_empty());
    }

    #[test]
    fn no_second_helping_while_someone_is_empty_handed() {
        let market = small_market();
        let outcome = FairDelivery::default().assign(&market, &mut StdRng::seed_from_u64(0));
        // Capacity allows 5 assignments over 4 open slots; the balancer
        // must spread them: no worker gets 2 tasks while another
        // qualified worker with spare capacity got none.
        let mut counts: BTreeMap<WorkerId, usize> = BTreeMap::new();
        for (w, _) in &outcome.assignments {
            *counts.entry(*w).or_insert(0) += 1;
        }
        // t0 is open to everyone; every worker must have been delivered
        // something before anyone is double-served on it.
        assert!(
            market
                .workers
                .iter()
                .all(|w| counts.get(&w.id).copied().unwrap_or(0) >= 1),
            "starved worker under fair delivery: {counts:?}"
        );
    }

    #[test]
    fn carry_over_prioritises_previously_starved_workers() {
        let market = small_market();
        let mut policy = FairDelivery::default();
        policy.assign(&market, &mut StdRng::seed_from_u64(0));
        let after_round_one = policy.delivered.clone();
        assert!(!after_round_one.is_empty());
        // Pre-load one worker with a huge delivered utility: she must
        // not be picked for the contested single-slot tasks again.
        let heavy = WorkerId::new(0);
        policy.delivered.insert(heavy, 1e9);
        let o = policy.assign(&market, &mut StdRng::seed_from_u64(0));
        assert!(
            o.assignments.iter().filter(|(w, _)| *w == heavy).count() <= 1,
            "over-served worker kept winning contested slots"
        );
    }
}
