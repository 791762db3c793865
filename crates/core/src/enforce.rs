//! Fairness enforcement — "enforcing them by design in newly developed
//! systems" (§1, §3.3.1).
//!
//! Three levers, one per axiom family:
//!
//! * **assignment** — re-exported exposure wrappers from
//!   `faircrowd-assign` ([`ExposureParity`], [`ExposureFloor`]) repair
//!   Axiom 1/2 violations of any base policy;
//! * **compensation** — [`equalize_payments`] repairs a planned payment
//!   map so Axiom 3 holds: workers with similar contributions to a task
//!   are raised to the group's maximum payment (never lowered: repairs
//!   must not harm workers);
//! * **transparency** — [`minimal_transparent_set`] is the smallest
//!   disclosure set satisfying Axioms 6 and 7, the floor a fair-by-design
//!   platform ships with.

pub use faircrowd_assign::{ExposureFloor, ExposureParity};

use faircrowd_model::contribution::Contribution;
use faircrowd_model::disclosure::{Audience, DisclosureItem, DisclosureSet};
use faircrowd_model::ids::SubmissionId;
use faircrowd_model::money::Credits;
use std::collections::BTreeMap;

/// Raise payments within similarity groups so similar contributions earn
/// the same amount. Input: each submission's contribution and planned
/// payment. Output: the adjusted payment map (only increases).
///
/// Groups are the connected components of the "similar at or above
/// `threshold`" graph: if a~b and b~c, all three are paid alike even when
/// a and c fall just below the threshold — fairness repairs should not
/// depend on comparison order. The pair scan reuses the audit layer's
/// contribution blocking (`crate::index::contribution_candidates`):
/// pruned pairs have similarity exactly 0, which for a positive
/// threshold can never be a union edge, so the components are identical
/// to the exhaustive scan's.
pub fn equalize_payments(
    submissions: &[(SubmissionId, Contribution, Credits)],
    threshold: f64,
) -> BTreeMap<SubmissionId, Credits> {
    let n = submissions.len();
    // Union-find over submission indices.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for (i, j) in crate::index::contribution_candidates(submissions, |(_, c, _)| c, threshold) {
        let sim = submissions[i].1.similarity(&submissions[j].1);
        if sim >= threshold {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri] = rj;
            }
        }
    }
    // Group maxima.
    let mut group_max: BTreeMap<usize, Credits> = BTreeMap::new();
    for (i, (_, _, paid)) in submissions.iter().enumerate() {
        let root = find(&mut parent, i);
        let entry = group_max.entry(root).or_insert(Credits::ZERO);
        *entry = (*entry).max(*paid);
    }
    submissions
        .iter()
        .enumerate()
        .map(|(i, (id, _, _))| {
            let root = find(&mut parent, i);
            (*id, group_max[&root])
        })
        .collect()
}

/// Grant the Axiom-6/7 disclosure floor on top of an existing set.
/// Grants are additive, so the set is only ever widened — this is the
/// repair the `Pipeline`'s minimal-transparency enforcement applies.
/// An item the set already shows to the audience (say, through a
/// `Public` grant) gets no second grant, so a set that already meets the
/// floor comes back equal and the repaired market is the original one.
pub fn grant_minimal_transparency(set: &mut DisclosureSet) {
    for item in DisclosureItem::AXIOM6_REQUIRED {
        if !set.allows(item, Audience::Workers) {
            set.grant(item, Audience::Workers);
        }
    }
    for item in DisclosureItem::AXIOM7_REQUIRED {
        if !set.allows(item, Audience::Subject) {
            set.grant(item, Audience::Subject);
        }
    }
}

/// The smallest disclosure set that satisfies Axiom 6 (working conditions
/// visible to workers) and Axiom 7 (computed attributes visible to the
/// worker herself).
pub fn minimal_transparent_set() -> DisclosureSet {
    let mut set = DisclosureSet::opaque();
    grant_minimal_transparency(&mut set);
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> SubmissionId {
        SubmissionId::new(i)
    }

    #[test]
    fn identical_labels_get_equal_max_pay() {
        let subs = vec![
            (sid(0), Contribution::Label(1), Credits::from_cents(10)),
            (sid(1), Contribution::Label(1), Credits::ZERO), // wrongly unpaid
            (sid(2), Contribution::Label(0), Credits::from_cents(4)),
        ];
        let adjusted = equalize_payments(&subs, 0.9);
        assert_eq!(adjusted[&sid(0)], Credits::from_cents(10));
        assert_eq!(
            adjusted[&sid(1)],
            Credits::from_cents(10),
            "raised to group max"
        );
        assert_eq!(
            adjusted[&sid(2)],
            Credits::from_cents(4),
            "different answer untouched"
        );
    }

    #[test]
    fn repair_never_lowers_payments() {
        let subs = vec![
            (sid(0), Contribution::Label(1), Credits::from_cents(12)),
            (sid(1), Contribution::Label(1), Credits::from_cents(10)),
        ];
        let adjusted = equalize_payments(&subs, 0.9);
        for (i, (_, _, before)) in subs.iter().enumerate() {
            assert!(adjusted[&sid(i as u32)] >= *before);
        }
        assert_eq!(adjusted[&sid(1)], Credits::from_cents(12));
    }

    #[test]
    fn transitivity_links_chains() {
        // a~b and b~c but a/c slightly less similar: all one group anyway
        let a = Contribution::Text("the quick brown fox jumps over the lazy dog".into());
        let b = Contribution::Text("the quick brown fox jumps over the lazy dogs".into());
        let c = Contribution::Text("the quick brown fox jumped over the lazy dogs".into());
        let threshold = {
            // pick a threshold between sim(a,c) and min(sim(a,b), sim(b,c))
            let ab = a.similarity(&b);
            let bc = b.similarity(&c);
            let ac = a.similarity(&c);
            assert!(ac < ab.min(bc), "fixture must form a chain");
            (ac + ab.min(bc)) / 2.0
        };
        let subs = vec![
            (sid(0), a, Credits::from_cents(10)),
            (sid(1), b, Credits::from_cents(5)),
            (sid(2), c, Credits::ZERO),
        ];
        let adjusted = equalize_payments(&subs, threshold);
        assert_eq!(adjusted[&sid(0)], Credits::from_cents(10));
        assert_eq!(adjusted[&sid(1)], Credits::from_cents(10));
        assert_eq!(adjusted[&sid(2)], Credits::from_cents(10));
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(equalize_payments(&[], 0.9).is_empty());
    }

    #[test]
    fn minimal_set_satisfies_both_axioms() {
        let set = minimal_transparent_set();
        assert!((set.axiom6_coverage() - 1.0).abs() < 1e-12);
        assert!((set.axiom7_coverage() - 1.0).abs() < 1e-12);
        // and it is minimal: nothing is public
        for item in DisclosureItem::ALL {
            assert!(!set.allows(item, Audience::Public));
        }
    }

    #[test]
    fn granting_the_floor_twice_or_over_public_items_changes_nothing() {
        let mut set = minimal_transparent_set();
        let once = set.clone();
        grant_minimal_transparency(&mut set);
        assert_eq!(set, once);
        let mut open = DisclosureSet::fully_transparent();
        grant_minimal_transparency(&mut open);
        assert_eq!(open, DisclosureSet::fully_transparent());
    }
}
