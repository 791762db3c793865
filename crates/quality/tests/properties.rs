//! Property tests for truth inference: aggregators are deterministic,
//! bounded, permutation-invariant, and degrade sensibly.

use faircrowd_model::ids::{TaskId, WorkerId};
use faircrowd_quality::aggregate::{parity_constrained_vote, parity_gap, AggregatorChoice, NAMES};
use faircrowd_quality::answers::AnswerSet;
use faircrowd_quality::dawid_skene::DawidSkene;
use faircrowd_quality::kos;
use faircrowd_quality::majority::majority_vote;
use faircrowd_quality::spam::SpamDetector;
use proptest::prelude::*;

fn groups_strategy() -> impl Strategy<Value = std::collections::BTreeMap<WorkerId, String>> {
    // Eight workers (matching answers_strategy), each declaring one of
    // three groups or none.
    prop::collection::vec(0usize..4, 8).prop_map(|picks| {
        picks
            .into_iter()
            .enumerate()
            .filter_map(|(i, g)| {
                ["north", "south", "east"]
                    .get(g)
                    .map(|name| (WorkerId::new(i as u32), (*name).to_owned()))
            })
            .collect()
    })
}

fn answers_strategy() -> impl Strategy<Value = AnswerSet> {
    prop::collection::vec((0u32..8, 0u32..12, 0u8..2), 0..80).prop_map(|rows| {
        let mut set = AnswerSet::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for (w, t, l) in rows {
            // one answer per (worker, task), like a real platform
            if seen.insert((w, t)) {
                set.record(WorkerId::new(w), TaskId::new(t), l);
            }
        }
        set
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn majority_vote_is_order_invariant(answers in answers_strategy()) {
        let mv = majority_vote(&answers);
        // rebuild in reverse insertion order
        let mut reversed = AnswerSet::new(2);
        for a in answers.answers().iter().rev() {
            reversed.record(a.worker, a.task, a.label);
        }
        prop_assert_eq!(majority_vote(&reversed), mv.clone());
        // every answered task gets a label in range
        for (task, label) in &mv {
            prop_assert!(*label < 2);
            prop_assert!(answers.by_task().contains_key(task));
        }
    }

    #[test]
    fn parity_constrained_vote_satisfies_the_gap_bound(
        answers in answers_strategy(),
        groups in groups_strategy(),
        max_gap in 0.0f64..0.5,
    ) {
        let consensus = parity_constrained_vote(&answers, &groups, max_gap);
        let gap = parity_gap(&answers, &groups, &consensus);
        prop_assert!(
            gap <= max_gap + 1e-9,
            "gap {gap} exceeds bound {max_gap} on {} decided tasks",
            consensus.len()
        );
        // Constrained consensus only ever withdraws majority decisions,
        // never invents new ones.
        let unconstrained = majority_vote(&answers);
        for (task, label) in &consensus {
            prop_assert_eq!(unconstrained.get(task), Some(label));
        }
    }

    #[test]
    fn aggregator_registry_round_trips_every_spelling(
        which in 0usize..NAMES.len(),
        upper in prop::bool::ANY,
        hyphen in prop::bool::ANY,
    ) {
        let mut spelling = NAMES[which].to_owned();
        if hyphen {
            spelling = spelling.replace('_', "-");
        }
        if upper {
            spelling = spelling.to_uppercase();
        }
        let choice = AggregatorChoice::by_name(&spelling).unwrap();
        prop_assert_eq!(
            AggregatorChoice::by_name(NAMES[which]).unwrap(),
            choice.clone()
        );
        prop_assert_eq!(choice.label().replace('-', "_"), NAMES[which]);
    }

    #[test]
    fn dawid_skene_outputs_are_probabilities(answers in answers_strategy()) {
        let res = DawidSkene::default().run(&answers);
        for p in res.posteriors.values() {
            let sum: f64 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
            prop_assert!(p.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
        }
        for &r in res.reliability.values() {
            prop_assert!((0.0..=1.0).contains(&r));
        }
        let sum: f64 = res.priors.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        // labels only for answered tasks
        prop_assert_eq!(res.labels.len(), answers.tasks().len());
    }

    #[test]
    fn kos_decode_is_total_and_bounded(answers in answers_strategy(), iters in 1usize..12) {
        let res = kos::decode(&answers, iters);
        prop_assert_eq!(res.labels.len(), answers.tasks().len());
        for &label in res.labels.values() {
            prop_assert!(label < 2);
        }
    }

    #[test]
    fn spam_scores_stay_in_unit_interval(answers in answers_strategy()) {
        for (_, score) in SpamDetector::default().score(&answers, None) {
            prop_assert!((0.0..=1.0).contains(&score.combined));
            prop_assert!((0.0..=1.0).contains(&score.disagreement));
            prop_assert!((0.0..=1.0).contains(&score.repetition));
            prop_assert_eq!(score.speed, 0.0, "no timing data supplied");
        }
    }
}
