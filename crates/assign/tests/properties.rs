//! Property tests over random markets: every policy must produce feasible
//! outcomes (slot limits, capacities, qualification, visibility ⊇
//! assignments) on any input, and the enforcement wrappers must only ever
//! *add* exposure.

use faircrowd_assign::{
    select_budget_diverse, AssignInput, AssignmentPolicy, BudgetDiverse, Candidate, ExposureFloor,
    ExposureParity, FairDelivery, KosAllocation, OnlineMatching, RequesterCentric, RoundRobin,
    SelfSelection, TaskView, WorkerCentric, WorkerView,
};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::ids::{RequesterId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::skills::SkillVector;
use faircrowd_model::time::SimDuration;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SKILLS: usize = 5;

fn market_strategy() -> impl Strategy<Value = AssignInput> {
    let task = (
        0u32..3,                                        // requester
        prop::collection::vec(prop::bool::ANY, SKILLS), // skills
        1i64..40,                                       // reward cents
        1u32..4,                                        // slots
    );
    let worker = (
        prop::collection::vec(prop::bool::ANY, SKILLS),
        0.0f64..1.0, // quality
        1u32..4,     // capacity
        0usize..3,   // group index
    );
    (
        prop::collection::vec(task, 0..12),
        prop::collection::vec(worker, 0..12),
    )
        .prop_map(|(tasks, workers)| AssignInput {
            tasks: tasks
                .into_iter()
                .enumerate()
                .map(|(i, (req, skills, cents, slots))| TaskView {
                    id: TaskId::new(i as u32),
                    requester: RequesterId::new(req),
                    skills: SkillVector::from_bools(skills),
                    reward: Credits::from_cents(cents),
                    slots,
                    est_duration: SimDuration::from_mins(5),
                })
                .collect(),
            workers: workers
                .into_iter()
                .enumerate()
                .map(|(i, (skills, quality, capacity, group))| WorkerView {
                    id: WorkerId::new(i as u32),
                    skills: SkillVector::from_bools(skills),
                    quality,
                    capacity,
                    group: Some(["east", "west", "none-of-the-above"][group].to_owned()),
                })
                .collect(),
        })
}

fn all_policies() -> Vec<Box<dyn AssignmentPolicy>> {
    vec![
        Box::new(SelfSelection),
        Box::new(RoundRobin),
        Box::new(RequesterCentric),
        Box::new(OnlineMatching),
        Box::new(WorkerCentric),
        Box::new(KosAllocation { l: 2, r: 3 }),
        Box::new(ExposureParity::new(RequesterCentric)),
        Box::new(ExposureFloor {
            base: OnlineMatching,
            min_exposure: 3,
        }),
        Box::new(BudgetDiverse::default()),
        Box::new(FairDelivery::default()),
    ]
}

fn candidates_strategy() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec(
        (
            0.0f64..1.0, // quality
            1i64..50,    // cost cents
            0usize..4,   // group index (3 = ungrouped)
        ),
        0..14,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (quality, cents, g))| Candidate {
                index: i,
                quality,
                cost: Credits::from_cents(cents),
                group: ["a", "b", "c"].get(g).map(|s| (*s).to_owned()),
            })
            .collect()
    })
}

fn quota_strategy() -> impl Strategy<Value = std::collections::BTreeMap<String, usize>> {
    // (vendored proptest has no btree_map combinator; collect a vec)
    prop::collection::vec((0usize..3, 0usize..5), 0..3).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(g, quota)| (["a", "b", "c"][g].to_owned(), quota))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_policy_is_feasible_on_any_market(input in market_strategy(), seed in 0u64..1000) {
        for mut policy in all_policies() {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = policy.assign(&input, &mut rng);
            let problems = outcome.check_feasible(&input);
            prop_assert!(
                problems.is_empty(),
                "{} produced infeasible outcome: {problems:?}",
                policy.name()
            );
        }
    }

    #[test]
    fn policies_are_deterministic_in_the_seed(input in market_strategy(), seed in 0u64..1000) {
        for (mut p1, mut p2) in all_policies().into_iter().zip(all_policies()) {
            let a = p1.assign(&input, &mut StdRng::seed_from_u64(seed));
            let b = p2.assign(&input, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(a, b, "{} not deterministic", p1.name());
        }
    }

    #[test]
    fn parity_only_adds_exposure(input in market_strategy(), seed in 0u64..1000) {
        let base = RequesterCentric.assign(&input, &mut StdRng::seed_from_u64(seed));
        let wrapped = ExposureParity::new(RequesterCentric)
            .assign(&input, &mut StdRng::seed_from_u64(seed));
        // assignments identical
        prop_assert_eq!(&base.assignments, &wrapped.assignments);
        // visibility is a superset
        for (w, vis) in &base.visibility {
            let wrapped_vis = wrapped.visibility.get(w).cloned().unwrap_or_default();
            prop_assert!(
                vis.iter().all(|t| wrapped_vis.contains(t)),
                "parity removed exposure for {w}"
            );
        }
    }

    #[test]
    fn floor_guarantees_min_exposure_or_exhausts_qualification(
        input in market_strategy(),
        seed in 0u64..1000,
    ) {
        let min = 2usize;
        let outcome = ExposureFloor {
            base: RequesterCentric,
            min_exposure: min,
        }
        .assign(&input, &mut StdRng::seed_from_u64(seed));
        for w in &input.workers {
            let seen = outcome.visibility.get(&w.id).map_or(0, |v| v.len());
            let qualified = input.tasks.iter().filter(|t| w.qualifies(t)).count();
            prop_assert!(
                seen >= min.min(qualified),
                "{} sees {seen} of {qualified} qualified (floor {min})",
                w.id
            );
        }
    }

    #[test]
    fn self_selection_exposure_equals_qualification(
        input in market_strategy(),
        seed in 0u64..1000,
    ) {
        let outcome = SelfSelection.assign(&input, &mut StdRng::seed_from_u64(seed));
        for w in &input.workers {
            for t in &input.tasks {
                let visible = outcome.visibility.get(&w.id).is_some_and(|v| v.contains(t.id));
                prop_assert_eq!(visible, w.qualifies(t));
            }
        }
    }

    #[test]
    fn budget_diverse_selection_never_exceeds_budget_and_meets_feasible_quotas(
        candidates in candidates_strategy(),
        quota in quota_strategy(),
        slots in 0usize..10,
        budget_cents in 0i64..200,
    ) {
        let budget = Credits::from_cents(budget_cents);
        // Never a panic: either a selection honouring every constraint,
        // or a named infeasibility error.
        match select_budget_diverse(&candidates, slots, budget, &quota) {
            Ok(picks) => {
                prop_assert!(picks.len() <= slots);
                let mut seen = std::collections::BTreeSet::new();
                let mut spent = Credits::ZERO;
                let mut per_group: std::collections::BTreeMap<&str, usize> = Default::default();
                for &i in &picks {
                    prop_assert!(seen.insert(i), "duplicate pick {i}");
                    let c = &candidates[i];
                    spent += c.cost;
                    if let Some(g) = &c.group {
                        *per_group.entry(g.as_str()).or_insert(0) += 1;
                    }
                }
                prop_assert!(spent <= budget, "spent {spent:?} over budget {budget:?}");
                for (g, min) in &quota {
                    let got = per_group.get(g.as_str()).copied().unwrap_or(0);
                    prop_assert!(got >= *min, "group {g} quota {min} unmet ({got})");
                }
            }
            Err(FaircrowdError::InfeasibleAssignment { policy, problems }) => {
                prop_assert_eq!(policy, "budget-diverse");
                prop_assert!(!problems.is_empty());
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
    }

    #[test]
    fn worker_centric_is_preference_optimal_vs_greedy_arrivals(
        input in market_strategy(),
        seed in 0u64..100,
    ) {
        use faircrowd_assign::policy::worker_utility;
        let wc = WorkerCentric.assign(&input, &mut StdRng::seed_from_u64(seed));
        let ss = SelfSelection.assign(&input, &mut StdRng::seed_from_u64(seed));
        prop_assert!(
            worker_utility(&input, &wc) >= worker_utility(&input, &ss) - 1e-9,
            "matching lost to greedy self-selection"
        );
    }
}
