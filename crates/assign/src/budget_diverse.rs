//! Budget- and diversity-constrained worker selection (Goel & Faltings,
//! *Crowdsourcing with Fairness, Diversity and Budget Constraints*).
//!
//! Per task, the policy picks the highest-quality qualified workers
//! subject to two constraints:
//!
//! * **budget** — the cumulative reward committed across the round may
//!   not exceed [`BudgetDiverse::round_budget`];
//! * **diversity** — the selected set must honour per-group minimum
//!   quotas over the workers' declared [`WorkerView::group`].
//!
//! The policy derives a quota that is feasible *by construction* (one
//! pick from each of the most numerous groups, capped by the slots and
//! the groups actually present), so [`AssignmentPolicy::assign`] never
//! fails; the raw selection routine [`select_budget_diverse`] takes an
//! arbitrary caller quota and reports
//! [`FaircrowdError::InfeasibleAssignment`] — never a panic — when that
//! quota cannot be met.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy, Draft, Qualification};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::money::Credits;
use rand::RngCore;
use std::collections::BTreeMap;

/// One selectable candidate handed to [`select_budget_diverse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Caller-side index (returned in the selection).
    pub index: usize,
    /// Estimated quality, higher is better.
    pub quality: f64,
    /// Cost of selecting this candidate.
    pub cost: Credits,
    /// Diversity group, `None` for ungrouped candidates.
    pub group: Option<String>,
}

/// Select up to `slots` candidates maximising quality subject to a
/// total budget and per-group minimum quotas.
///
/// The quota map demands, per group key, a minimum number of selected
/// candidates from that group. Selection is greedy and deterministic:
/// quota picks first (best quality within each group, groups in key
/// order), then free picks by quality; ties break on the caller index.
///
/// Errors with [`FaircrowdError::InfeasibleAssignment`] when the quotas
/// cannot possibly be met — they demand more picks than `slots`, more
/// members of a group than exist, or a combined cost above `budget`
/// even in the cheapest quota-satisfying pick.
pub fn select_budget_diverse(
    candidates: &[Candidate],
    slots: usize,
    budget: Credits,
    quota: &BTreeMap<String, usize>,
) -> Result<Vec<usize>, FaircrowdError> {
    let mut problems = Vec::new();
    let demanded: usize = quota.values().sum();
    if demanded > slots {
        problems.push(format!(
            "quotas demand {demanded} picks but only {slots} slots are open"
        ));
    }
    let mut by_group: BTreeMap<&str, Vec<&Candidate>> = BTreeMap::new();
    for c in candidates {
        if let Some(g) = &c.group {
            by_group.entry(g.as_str()).or_default().push(c);
        }
    }
    for (group, min) in quota {
        let have = by_group.get(group.as_str()).map_or(0, |v| v.len());
        if have < *min {
            problems.push(format!(
                "group `{group}` quota is {min} but only {have} candidates declare it"
            ));
        }
    }
    if !problems.is_empty() {
        return Err(FaircrowdError::InfeasibleAssignment {
            policy: BudgetDiverse::NAME.to_owned(),
            problems,
        });
    }

    // Stable quality order: best quality first, caller index breaks ties.
    let rank = |a: &&Candidate, b: &&Candidate| {
        b.quality
            .partial_cmp(&a.quality)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    };

    // Quota picks: cheapest-satisfying check uses the same greedy order,
    // so "the greedy quota picks fit the budget" is the feasibility test.
    let mut picked: Vec<&Candidate> = Vec::new();
    let mut spent = Credits::ZERO;
    for (group, min) in quota {
        let mut members: Vec<&Candidate> = by_group
            .get(group.as_str())
            .map(|v| v.to_vec())
            .unwrap_or_default();
        members.sort_by(rank);
        for c in members.into_iter().take(*min) {
            spent += c.cost;
            picked.push(c);
        }
    }
    if spent > budget {
        return Err(FaircrowdError::InfeasibleAssignment {
            policy: BudgetDiverse::NAME.to_owned(),
            problems: vec![format!(
                "meeting the quotas costs {spent} but the budget is {budget}"
            )],
        });
    }

    // Free picks: best remaining quality that still fits the budget.
    let mut rest: Vec<&Candidate> = candidates
        .iter()
        .filter(|c| !picked.iter().any(|p| p.index == c.index))
        .collect();
    rest.sort_by(rank);
    for c in rest {
        if picked.len() >= slots {
            break;
        }
        if spent + c.cost > budget {
            continue;
        }
        spent += c.cost;
        picked.push(c);
    }
    let mut indices: Vec<usize> = picked.into_iter().map(|c| c.index).collect();
    indices.sort_unstable();
    Ok(indices)
}

/// The registered `budget_diverse` policy. Deterministic: the injected
/// RNG is never consulted.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetDiverse {
    /// Total reward the policy may commit per round across all tasks.
    pub(crate) round_budget: Credits,
    /// Distinct groups each task's selection should draw from (capped
    /// by the slots and the groups present among qualified candidates,
    /// so the derived quota is always feasible).
    pub(crate) group_spread: usize,
}

impl BudgetDiverse {
    /// Stable registry/report name.
    pub(crate) const NAME: &'static str = "budget-diverse";
}

impl Default for BudgetDiverse {
    fn default() -> Self {
        BudgetDiverse {
            round_budget: Credits::from_dollars(50),
            group_spread: 2,
        }
    }
}

impl AssignmentPolicy for BudgetDiverse {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        _rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = Draft::hidden(input, qualified);
        let mut remaining: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        let mut budget_left = self.round_budget;
        for (ti, task) in input.tasks.iter().enumerate() {
            let candidates: Vec<Candidate> = input
                .workers
                .iter()
                .enumerate()
                .filter(|&(wi, _)| remaining[wi] > 0 && qualified.row(wi).contains(task.id))
                .map(|(wi, w)| Candidate {
                    index: wi,
                    quality: w.quality,
                    cost: task.reward,
                    group: w.group.clone(),
                })
                .collect();
            // Every candidate sees the task (self-selection-style
            // exposure); the constraints bind only the assignments.
            for c in &candidates {
                outcome.show(c.index, ti);
            }
            let quota = feasible_quota(candidates.iter(), task.slots as usize, self.group_spread);
            // The derived quota is feasible and quota picks are free of
            // budget pressure only when the budget allows; an exhausted
            // budget is not an error — the task simply goes unstaffed.
            let picks =
                select_budget_diverse(&candidates, task.slots as usize, budget_left, &quota)
                    .unwrap_or_default();
            for wi in picks {
                outcome.assign(wi, ti);
                remaining[wi] -= 1;
                budget_left -= task.reward;
            }
        }
        outcome.finish()
    }
}

/// Derive a quota demanding one pick from each of the `spread` largest
/// groups among the candidates — feasible by construction (each quota'd
/// group has ≥ 1 member and the total demand never exceeds `slots`).
fn feasible_quota<'a>(
    candidates: impl Iterator<Item = &'a Candidate>,
    slots: usize,
    spread: usize,
) -> BTreeMap<String, usize> {
    let mut sizes: BTreeMap<&str, usize> = BTreeMap::new();
    for c in candidates {
        if let Some(g) = &c.group {
            *sizes.entry(g.as_str()).or_insert(0) += 1;
        }
    }
    let mut groups: Vec<(&str, usize)> = sizes.into_iter().collect();
    // Largest groups first; name order breaks ties deterministically.
    groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    groups
        .into_iter()
        .take(spread.min(slots))
        .map(|(g, _)| (g.to_owned(), 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fixtures::small_market;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cand(index: usize, quality: f64, cents: i64, group: &str) -> Candidate {
        Candidate {
            index,
            quality,
            cost: Credits::from_cents(cents),
            group: Some(group.to_owned()),
        }
    }

    #[test]
    fn selection_meets_quota_before_quality() {
        let candidates = vec![
            cand(0, 0.99, 10, "north"),
            cand(1, 0.98, 10, "north"),
            cand(2, 0.10, 10, "south"),
        ];
        let quota = BTreeMap::from([("south".to_owned(), 1)]);
        let picks =
            select_budget_diverse(&candidates, 2, Credits::from_dollars(1), &quota).unwrap();
        assert!(picks.contains(&2), "quota'd low-quality pick must be in");
        assert_eq!(picks, vec![0, 2]);
    }

    #[test]
    fn selection_respects_budget() {
        let candidates = vec![
            cand(0, 0.9, 60, "north"),
            cand(1, 0.8, 60, "north"),
            cand(2, 0.7, 60, "south"),
        ];
        // Budget admits two 60¢ picks, not three.
        let picks =
            select_budget_diverse(&candidates, 3, Credits::from_cents(120), &BTreeMap::new())
                .unwrap();
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn infeasible_quotas_are_named_errors() {
        let candidates = vec![cand(0, 0.9, 10, "north")];
        // More demanded than slots.
        let quota = BTreeMap::from([("north".to_owned(), 2)]);
        let err =
            select_budget_diverse(&candidates, 1, Credits::from_dollars(1), &quota).unwrap_err();
        assert!(
            matches!(err, FaircrowdError::InfeasibleAssignment { .. }),
            "{err}"
        );
        // A group nobody declares.
        let quota = BTreeMap::from([("mars".to_owned(), 1)]);
        let err =
            select_budget_diverse(&candidates, 1, Credits::from_dollars(1), &quota).unwrap_err();
        assert!(err.to_string().contains("mars"), "{err}");
        // Quota picks alone blow the budget.
        let quota = BTreeMap::from([("north".to_owned(), 1)]);
        let err =
            select_budget_diverse(&candidates, 1, Credits::from_cents(5), &quota).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn policy_is_feasible_and_deterministic_on_the_fixture() {
        let market = small_market();
        let mut policy = BudgetDiverse::default();
        let a = policy.assign(&market, &mut StdRng::seed_from_u64(1));
        assert!(
            a.check_feasible(&market).is_empty(),
            "{:?}",
            a.check_feasible(&market)
        );
        let b = BudgetDiverse::default().assign(&market, &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b, "policy must ignore the RNG");
        assert!(!a.assignments.is_empty());
    }

    #[test]
    fn policy_spreads_across_groups_when_slots_allow() {
        let market = small_market();
        let outcome = BudgetDiverse::default().assign(&market, &mut StdRng::seed_from_u64(0));
        // t0 has 2 slots and both groups qualify: the selection must
        // draw from both regions rather than the two best northerners.
        let t0 = faircrowd_model::ids::TaskId::new(0);
        let groups: std::collections::BTreeSet<&str> = outcome
            .assignments
            .iter()
            .filter(|(_, t)| *t == t0)
            .filter_map(|(w, _)| {
                market
                    .workers
                    .iter()
                    .find(|v| v.id == *w)
                    .and_then(|v| v.group.as_deref())
            })
            .collect();
        assert_eq!(groups.len(), 2, "both groups must be represented on t0");
    }

    #[test]
    fn exhausted_budget_stops_assigning_without_panicking() {
        let market = small_market();
        let mut policy = BudgetDiverse {
            round_budget: Credits::ZERO,
            group_spread: 2,
        };
        let outcome = policy.assign(&market, &mut StdRng::seed_from_u64(0));
        assert!(outcome.assignments.is_empty());
        // Exposure is unaffected by the budget.
        assert!(!outcome.visibility.is_empty());
    }
}
