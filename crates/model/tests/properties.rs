//! Property tests for the data-model invariants the axioms lean on:
//! exact money arithmetic, bounded/symmetric similarity kernels,
//! inequality-index sanity, and the id-set arena against a `BTreeSet`.

use faircrowd_model::arena::IdSet;
use faircrowd_model::ids::TaskId;
use faircrowd_model::money::Credits;
use faircrowd_model::ranking::{ndcg, ranking_similarity};
use faircrowd_model::skills::SkillVector;
use faircrowd_model::stats;
use faircrowd_model::text::ngram_cosine;
use proptest::prelude::*;

fn small_credits() -> impl Strategy<Value = Credits> {
    (-1_000_000i64..1_000_000).prop_map(Credits::from_millicents)
}

fn skill_vec() -> impl Strategy<Value = SkillVector> {
    prop::collection::vec(prop::bool::ANY, 0..96).prop_map(SkillVector::from_bools)
}

/// Raw ids that are mostly dense, with outliers far past any dense
/// bound (up to `u32::MAX`) so sets straddle the bits/spill boundary.
fn raw_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            0u32..200,
            0u32..3_000,
            3_000u32..100_000,
            (u32::MAX - 64)..u32::MAX
        ],
        0..160,
    )
}

fn permutation(n: usize) -> impl Strategy<Value = Vec<u16>> {
    Just((0..n as u16).collect::<Vec<u16>>()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn credits_split_evenly_is_exact_and_tight(
        total in small_credits(),
        n in 1usize..40,
    ) {
        let shares = total.split_evenly(n);
        prop_assert_eq!(shares.len(), n);
        prop_assert_eq!(shares.iter().copied().sum::<Credits>(), total);
        let max = shares.iter().map(|c| c.millicents()).max().unwrap();
        let min = shares.iter().map(|c| c.millicents()).min().unwrap();
        prop_assert!(max - min <= 1, "shares must differ by at most one millicent");
    }

    #[test]
    fn credits_arithmetic_is_consistent(a in small_credits(), b in small_credits()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!(a.abs_diff(b), b.abs_diff(a));
        prop_assert_eq!(a.max(b).millicents(), a.millicents().max(b.millicents()));
        prop_assert_eq!(-(-a), a);
    }

    #[test]
    fn credits_mul_f64_scales_monotonically(
        a in 0i64..1_000_000,
        f1 in 0.0f64..2.0,
        f2 in 0.0f64..2.0,
    ) {
        let c = Credits::from_millicents(a);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(c.mul_f64(lo) <= c.mul_f64(hi));
        prop_assert_eq!(c.mul_f64(1.0), c);
        prop_assert_eq!(c.mul_f64(0.0), Credits::ZERO);
    }

    #[test]
    fn skill_kernels_bounded_symmetric_reflexive(a in skill_vec(), b in skill_vec()) {
        for (sa, sb) in [
            (a.cosine(&b), b.cosine(&a)),
            (a.jaccard(&b), b.jaccard(&a)),
            (a.dice(&b), b.dice(&a)),
        ] {
            prop_assert!((0.0..=1.0).contains(&sa));
            prop_assert!((sa - sb).abs() < 1e-12);
        }
        prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        prop_assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn covers_is_a_partial_order_with_intersection_counts(a in skill_vec(), b in skill_vec()) {
        // covers ⇒ intersection equals the covered set's count
        if a.covers(&b) {
            prop_assert_eq!(a.intersection_count(&b), b.count());
        }
        // reflexive
        prop_assert!(a.covers(&a));
        // union/intersection bounds
        prop_assert!(a.intersection_count(&b) <= a.count().min(b.count()));
        prop_assert!(a.union_count(&b) >= a.count().max(b.count()));
        prop_assert_eq!(
            a.union_count(&b) + a.intersection_count(&b),
            a.count() + b.count()
        );
    }

    #[test]
    fn gini_bounds_and_invariances(xs in prop::collection::vec(0.0f64..1e6, 0..60)) {
        let g = stats::gini(&xs);
        prop_assert!((0.0..=1.0).contains(&g));
        // permutation invariance
        let mut rev = xs.clone();
        rev.reverse();
        prop_assert!((stats::gini(&rev) - g).abs() < 1e-9);
        // scale invariance (when non-degenerate)
        if xs.iter().sum::<f64>() > 0.0 {
            let scaled: Vec<f64> = xs.iter().map(|x| x * 3.0).collect();
            prop_assert!((stats::gini(&scaled) - g).abs() < 1e-9);
        }
    }

    #[test]
    fn jain_and_gini_agree_on_equality(x in 0.1f64..1e4, n in 1usize..40) {
        let xs = vec![x; n];
        prop_assert!(stats::gini(&xs).abs() < 1e-9);
        prop_assert!((stats::jain_index(&xs) - 1.0).abs() < 1e-9);
        prop_assert!(stats::theil(&xs).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..50),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(stats::percentile(&xs, lo) <= stats::percentile(&xs, hi) + 1e-9);
    }

    #[test]
    fn ngram_cosine_bounded_symmetric(a in ".{0,60}", b in ".{0,60}") {
        let s = ngram_cosine(&a, &b, 3);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - ngram_cosine(&b, &a, 3)).abs() < 1e-12);
        prop_assert!((ngram_cosine(&a, &a, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_similarity_identity_and_bounds(perm in permutation(8)) {
        prop_assert!((ranking_similarity(&perm, &perm) - 1.0).abs() < 1e-9);
        let identity: Vec<u16> = (0..8).collect();
        let s = ranking_similarity(&perm, &identity);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - ranking_similarity(&identity, &perm)).abs() < 1e-12);
    }

    #[test]
    fn ndcg_is_maximised_by_the_ideal_ranking(
        rels in prop::collection::vec(0.0f64..5.0, 1..10),
    ) {
        // ideal ranking: items sorted by relevance descending
        let mut idx: Vec<u16> = (0..rels.len() as u16).collect();
        idx.sort_by(|&a, &b| {
            rels[b as usize].partial_cmp(&rels[a as usize]).unwrap()
        });
        let ideal = ndcg(&idx, &rels);
        prop_assert!((ideal - 1.0).abs() < 1e-9);
        // any other ranking scores at most 1
        let mut worst = idx.clone();
        worst.reverse();
        prop_assert!(ndcg(&worst, &rels) <= 1.0 + 1e-9);
    }

    #[test]
    fn id_set_behaves_like_a_btree_set(a in raw_ids(), b in raw_ids(), probes in raw_ids()) {
        let mut set: IdSet<TaskId> = IdSet::new();
        let mut model = std::collections::BTreeSet::new();
        for &raw in &a {
            prop_assert_eq!(set.insert(TaskId::new(raw)), model.insert(raw));
            prop_assert_eq!(set.len(), model.len());
        }
        for &raw in probes.iter().chain(&a) {
            prop_assert_eq!(set.contains(TaskId::new(raw)), model.contains(&raw));
        }
        let members: Vec<u32> = set.iter().map(TaskId::raw).collect();
        prop_assert_eq!(&members, &model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(set.iter().len(), model.len());
        // The same members inserted in reverse order split differently
        // between bits and spill, yet compare equal.
        let reversed: IdSet<TaskId> = a.iter().rev().map(|&raw| TaskId::new(raw)).collect();
        prop_assert_eq!(&reversed, &set);
        let other: IdSet<TaskId> = b.iter().map(|&raw| TaskId::new(raw)).collect();
        let other_model: std::collections::BTreeSet<u32> = b.iter().copied().collect();
        let common = model.intersection(&other_model).count();
        prop_assert_eq!(set.intersection_len(&other), common);
        prop_assert_eq!(other.intersection_len(&set), common);
        prop_assert_eq!(set == other, model == other_model);
    }
}
