//! The platform-policy catalog.
//!
//! TPL encodings of the transparency configurations the paper describes
//! (§1, §2.2): plain AMT, AMT with the Turkopticon plug-in and
//! forum-script ecosystem, CrowdFlower with its accuracy panel and task
//! ratings, the managed MobileWorks platform, and the full FairCrowd
//! policy that satisfies Axioms 6 and 7 outright. Each entry is genuine
//! TPL source, compiled on demand — the catalog doubles as an integration
//! test of the whole language pipeline and as the E5 workload.

use crate::sema::CompiledPolicy;

/// AMT as the paper (and the worker forums) describe it: the platform
/// shows requesters their own campaign progress and workers their raw
/// history, and nothing else.
pub(crate) const AMT_OPAQUE: &str = r#"
# Amazon Mechanical Turk, stock experience.
policy "amt" {
    audience posters = role(requester);
    disclose requester.campaign_progress to posters always;
    disclose worker.history to subject always;
}
"#;

/// AMT plus the worker-built transparency layer: Turkopticon requester
/// reviews, Crowd-Workers/Turkbench wage estimates, and the forum scripts
/// that reveal auto-approval times (§2.2).
pub(crate) const AMT_TURKOPTICON: &str = r#"
# AMT + Turkopticon + wage trackers + forum scripts.
policy "amt+turkopticon" {
    audience posters = role(requester);
    disclose requester.campaign_progress to posters always;
    disclose worker.history to subject always;
    disclose requester.rating to public always;           # Turkopticon reviews
    disclose requester.hourly_wage to workers when browsing;  # Crowd-Workers / Turkbench
    disclose platform.auto_approval_time to workers always;   # forum scripts
    disclose requester.payment_delay to workers when browsing;
}
"#;

/// CrowdFlower: "displays a panel with the worker's estimated accuracy so
/// far" (§1) and per-task ratings in the browsing interface (§3.1.2).
pub(crate) const CROWDFLOWER: &str = r#"
policy "crowdflower" {
    audience posters = role(requester);
    disclose task.rating to workers when browsing;
    disclose worker.quality_estimate to subject always;    # the accuracy panel
    disclose worker.acceptance_ratio to subject always;
    disclose requester.campaign_progress to posters always;
    require requester discloses evaluation_scheme before posting;
}
"#;

/// MobileWorks: managed crowdsourcing with worker-to-worker communication
/// and worker-managers who monitor each other (§2.2).
pub(crate) const MOBILEWORKS: &str = r#"
policy "mobileworks" {
    audience crowd = role(worker);
    disclose worker.history to crowd always;       # workers monitor each other
    disclose worker.quality_estimate to crowd always;
    disclose requester.rating to crowd always;
    disclose requester.hourly_wage to crowd when browsing;
    disclose worker.earnings to subject always;
    require requester discloses recruitment_criteria before posting;
}
"#;

/// The fair-by-design policy: every Axiom-6 obligation disclosed to
/// workers, every Axiom-7 attribute to the worker herself, plus the
/// community-rating items the surveyed tools bolt on.
pub(crate) const FAIRCROWD_FULL: &str = r#"
policy "faircrowd-full" {
    audience everyone = public;
    # Axiom 6: requester-dependent and task-dependent working conditions.
    require requester discloses hourly_wage before posting;
    require requester discloses payment_schedule before posting;
    require requester discloses recruitment_criteria before posting;
    require requester discloses rejection_criteria before posting;
    require requester discloses evaluation_scheme before posting;
    # Axiom 7: computed worker attributes, to the worker herself.
    disclose worker.acceptance_ratio to subject always;
    disclose worker.quality_estimate to subject always;
    disclose worker.history to subject always;
    disclose worker.approval_latency to subject always;
    disclose worker.earnings to subject always;
    disclose worker.sessions to subject always;
    # Community information, platform-wide.
    disclose requester.rating to everyone always;
    disclose task.rating to everyone when browsing;
    disclose platform.auto_approval_time to workers always;
}
"#;

/// The catalog: `(name, TPL source)` in increasing-transparency order.
pub fn sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("amt", AMT_OPAQUE),
        ("amt+turkopticon", AMT_TURKOPTICON),
        ("crowdflower", CROWDFLOWER),
        ("mobileworks", MOBILEWORKS),
        ("faircrowd-full", FAIRCROWD_FULL),
    ]
}

/// Compile one catalog policy by name.
pub fn by_name(name: &str) -> Option<CompiledPolicy> {
    sources()
        .into_iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, src)| crate::compile_one(src).ok())
}

/// [`by_name`] as a `Result`: an unknown name reports the available
/// names; a known name whose source fails to compile keeps the full
/// compiler diagnostic instead of being misreported as unknown.
pub fn get(name: &str) -> Result<CompiledPolicy, faircrowd_model::FaircrowdError> {
    match sources().into_iter().find(|(n, _)| *n == name) {
        Some((_, src)) => crate::compile_one(src).map_err(Into::into),
        None => Err(faircrowd_model::FaircrowdError::UnknownPolicy {
            name: name.to_owned(),
            available: sources().iter().map(|(n, _)| (*n).to_owned()).collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_catalog_compiles() {
        let policies: Vec<CompiledPolicy> = sources()
            .iter()
            .map(|(name, _)| get(name).expect("catalog must compile"))
            .collect();
        assert_eq!(policies.len(), 5);
        let names: Vec<&str> = policies.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "amt",
                "amt+turkopticon",
                "crowdflower",
                "mobileworks",
                "faircrowd-full"
            ]
        );
    }

    #[test]
    fn faircrowd_full_satisfies_both_axioms() {
        let p = by_name("faircrowd-full").unwrap();
        let set = p.disclosure_set();
        assert!((set.axiom6_coverage() - 1.0).abs() < 1e-12);
        assert!((set.axiom7_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transparency_strictly_improves_along_the_catalog_story() {
        let amt = by_name("amt").unwrap().disclosure_set();
        let turk = by_name("amt+turkopticon").unwrap().disclosure_set();
        let full = by_name("faircrowd-full").unwrap().disclosure_set();
        // the plug-in ecosystem strictly improves Axiom-6 coverage on AMT
        assert!(turk.axiom6_coverage() > amt.axiom6_coverage());
        // nothing beats the fair-by-design policy
        assert!(full.axiom6_coverage() >= turk.axiom6_coverage());
        assert!(full.axiom7_coverage() >= turk.axiom7_coverage());
    }

    #[test]
    fn stock_amt_fails_axiom6_entirely() {
        let amt = by_name("amt").unwrap().disclosure_set();
        assert_eq!(amt.axiom6_coverage(), 0.0);
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("geocities").is_none());
    }

    #[test]
    fn catalog_policies_render() {
        for (name, _) in sources() {
            let p = get(name).unwrap();
            let text = crate::render::render_policy(&p);
            assert!(text.contains(&p.name));
            assert!(text.lines().count() >= 2);
        }
    }
}
