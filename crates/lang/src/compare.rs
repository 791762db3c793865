//! Cross-platform policy comparison.
//!
//! "The declarative nature of those rules will allow easy comparison
//! across platforms" (§3.3.2). Two policies compare by their effective
//! grant sets; the result lists what each platform discloses that the
//! other does not, plus the axiom-coverage deltas used by E5.

use crate::sema::CompiledPolicy;
use faircrowd_model::disclosure::{Audience, DisclosureItem};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One effective grant: a viewer can see an item.
pub(crate) type Grant = (DisclosureItem, Audience);

/// The comparison of two policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// Name of the first policy.
    pub(crate) left_name: String,
    /// Name of the second policy.
    pub(crate) right_name: String,
    /// Grants only the first policy makes.
    pub only_left: Vec<Grant>,
    /// Grants only the second policy makes.
    pub only_right: Vec<Grant>,
    /// Grants both make.
    pub shared: Vec<Grant>,
    /// Axiom-6 coverage of (left, right).
    pub axiom6: (f64, f64),
    /// Axiom-7 coverage of (left, right).
    pub axiom7: (f64, f64),
}

/// Effective grants of a policy: for every (item, audience) pair, whether
/// the audience can see the item (this normalises `public` grants into
/// per-audience visibility so textually different policies compare by
/// meaning, not syntax).
fn effective_grants(policy: &CompiledPolicy) -> Vec<Grant> {
    let set = policy.disclosure_set();
    let mut grants = Vec::new();
    for item in DisclosureItem::ALL {
        for audience in Audience::ALL {
            if set.allows(item, audience) {
                grants.push((item, audience));
            }
        }
    }
    grants
}

/// Compare two compiled policies.
pub fn compare(left: &CompiledPolicy, right: &CompiledPolicy) -> PolicyComparison {
    let lg: std::collections::BTreeSet<Grant> = effective_grants(left).into_iter().collect();
    let rg: std::collections::BTreeSet<Grant> = effective_grants(right).into_iter().collect();
    let ls = left.disclosure_set();
    let rs = right.disclosure_set();
    PolicyComparison {
        left_name: left.name.clone(),
        right_name: right.name.clone(),
        only_left: lg.difference(&rg).copied().collect(),
        only_right: rg.difference(&lg).copied().collect(),
        shared: lg.intersection(&rg).copied().collect(),
        axiom6: (ls.axiom6_coverage(), rs.axiom6_coverage()),
        axiom7: (ls.axiom7_coverage(), rs.axiom7_coverage()),
    }
}

impl PolicyComparison {
    /// Jaccard similarity of the two grant sets.
    pub fn grant_similarity(&self) -> f64 {
        let union = self.only_left.len() + self.only_right.len() + self.shared.len();
        if union == 0 {
            return 1.0;
        }
        self.shared.len() as f64 / union as f64
    }

    /// Render as readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "comparing \"{}\" vs \"{}\" (grant similarity {:.2})",
            self.left_name,
            self.right_name,
            self.grant_similarity()
        );
        let _ = writeln!(
            out,
            "  axiom-6 coverage: {:.2} vs {:.2}; axiom-7 coverage: {:.2} vs {:.2}",
            self.axiom6.0, self.axiom6.1, self.axiom7.0, self.axiom7.1
        );
        let fmt_grants = |grants: &[Grant]| -> String {
            let mut names: Vec<String> = grants
                .iter()
                .map(|(i, a)| format!("{} → {}", i.name(), a.name()))
                .collect();
            names.dedup();
            names.join(", ")
        };
        if !self.only_left.is_empty() {
            let _ = writeln!(
                out,
                "  only \"{}\": {}",
                self.left_name,
                fmt_grants(&self.only_left)
            );
        }
        if !self.only_right.is_empty() {
            let _ = writeln!(
                out,
                "  only \"{}\": {}",
                self.right_name,
                fmt_grants(&self.only_right)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_one;

    fn policy(name: &str, body: &str) -> CompiledPolicy {
        compile_one(&format!(r#"policy "{name}" {{ {body} }}"#)).unwrap()
    }

    #[test]
    fn identical_policies_are_fully_similar() {
        let a = policy("a", "disclose task.rating to public;");
        let b = policy("b", "disclose task.rating to public;");
        let cmp = compare(&a, &b);
        assert!(cmp.only_left.is_empty());
        assert!(cmp.only_right.is_empty());
        assert!((cmp.grant_similarity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extra_grants_show_up_one_sided() {
        let a = policy(
            "rich",
            "disclose task.rating to public; disclose worker.earnings to subject;",
        );
        let b = policy("poor", "disclose task.rating to public;");
        let cmp = compare(&a, &b);
        assert!(!cmp.only_left.is_empty());
        assert!(cmp.only_right.is_empty());
        assert!(cmp.grant_similarity() < 1.0);
        let text = cmp.render();
        assert!(text.contains("only \"rich\""));
        assert!(text.contains("worker.earnings"));
    }

    #[test]
    fn public_grant_subsumes_role_grant_semantically() {
        // a grants to public; b grants the same item to workers only.
        // Shared: worker-visibility; only_left: the other audiences.
        let a = policy("a", "disclose requester.rating to public;");
        let b = policy("b", "disclose requester.rating to workers;");
        let cmp = compare(&a, &b);
        assert!(cmp
            .shared
            .contains(&(DisclosureItem::RequesterRating, Audience::Workers)));
        assert!(cmp
            .only_left
            .contains(&(DisclosureItem::RequesterRating, Audience::Public)));
        assert!(cmp.only_right.is_empty());
    }

    #[test]
    fn coverage_deltas_reported() {
        let a = policy(
            "transparent",
            "disclose requester.hourly_wage to workers;
             disclose requester.payment_delay to workers;
             disclose requester.recruitment_criteria to workers;
             disclose requester.rejection_criteria to workers;
             disclose requester.evaluation_scheme to workers;",
        );
        let b = policy("opaque", "disclose task.rating to public;");
        let cmp = compare(&a, &b);
        assert!((cmp.axiom6.0 - 1.0).abs() < 1e-12);
        assert_eq!(cmp.axiom6.1, 0.0);
    }

    #[test]
    fn empty_policies_compare_as_identical() {
        let a = CompiledPolicy {
            name: "x".into(),
            rules: vec![],
            requirements: vec![],
        };
        let cmp = compare(&a, &a.clone());
        assert_eq!(cmp.grant_similarity(), 1.0);
    }
}
