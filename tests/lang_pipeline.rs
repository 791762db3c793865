//! Language-pipeline integration and property tests: generated TPL
//! sources compile to exactly the grants they denote, the catalog stays
//! coherent with the audit engine, and diagnostics point at real spans.

use faircrowd::lang::{catalog, compare, compile, compile_one, render};
use faircrowd::model::disclosure::{Audience, DisclosureItem};
use proptest::prelude::*;

#[test]
fn catalog_policies_audit_consistently() {
    // A simulated platform configured by a TPL catalog policy must audit
    // at exactly the coverage the policy promises: catalog → scenario →
    // Pipeline → A7 score.
    use faircrowd::core::AxiomId;
    use faircrowd::model::task::TaskConditions;
    use faircrowd::prelude::*;

    for name in ["amt", "crowdflower", "faircrowd-full"] {
        let policy = catalog::get(name).expect("catalog policy");
        let expected = policy.disclosure_set().axiom7_coverage();
        let mut cfg = ScenarioConfig {
            seed: 77,
            rounds: 12,
            workers: vec![WorkerPopulation::diligent(8)],
            campaigns: vec![CampaignSpec::labeling("acme", 10, 10)],
            disclosure: policy.disclosure_set(),
            ..Default::default()
        };
        for c in &mut cfg.campaigns {
            c.conditions = TaskConditions::default();
        }
        let result = Pipeline::new()
            .scenario(cfg)
            .axioms(&[AxiomId::A7PlatformTransparency])
            .run()
            .expect("catalog-configured market runs");
        let a7 = result
            .baseline
            .report
            .score_of(AxiomId::A7PlatformTransparency);
        assert!(
            (a7 - expected).abs() < 1e-9,
            "{name}: audit saw {a7:.3}, policy promises {expected:.3}"
        );
    }
}

#[test]
fn error_spans_point_into_the_source() {
    let source = r#"policy "p" {
    disclose worker.acceptance_ratio to subject;
    disclose task.rating to nobody_home;
}"#;
    let err = compile(source).unwrap_err();
    let span = err.span.expect("check errors carry spans");
    assert_eq!(&source[span.start..span.end], "nobody_home");
    let (line, text, _col) = err.context.expect("context extracted");
    assert_eq!(line, 3);
    assert!(text.contains("nobody_home"));
}

#[test]
fn render_and_compare_compose() {
    let policies: Vec<_> = catalog::sources()
        .iter()
        .map(|(name, _)| catalog::get(name).unwrap())
        .collect();
    for a in &policies {
        // rendering never panics and mentions each rule
        let text = render::render_policy(a);
        assert!(text.lines().count() >= a.rule_count().min(1));
        for b in &policies {
            let cmp = compare(a, b);
            let sim = cmp.grant_similarity();
            assert!((0.0..=1.0).contains(&sim));
            if a.name == b.name {
                assert!((sim - 1.0).abs() < 1e-12);
            }
            // comparison is symmetric up to side swap
            let rev = compare(b, a);
            assert_eq!(cmp.shared.len(), rev.shared.len());
            assert_eq!(cmp.only_left.len(), rev.only_right.len());
        }
    }
}

/// Strategy: a random set of (item, audience) disclose rules.
fn rules_strategy() -> impl Strategy<Value = Vec<(DisclosureItem, Audience)>> {
    let item = prop::sample::select(DisclosureItem::ALL.to_vec());
    let audience = prop::sample::select(vec![
        Audience::Public,
        Audience::Workers,
        Audience::Requesters,
        Audience::Subject,
    ]);
    prop::collection::vec((item, audience), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated sources compile, and the compiled grant set allows
    /// exactly what the rules said (with Public subsuming everyone).
    #[test]
    fn generated_policies_compile_to_their_grants(rules in rules_strategy()) {
        let mut source = String::from("policy \"generated\" {\n");
        for (item, audience) in &rules {
            source.push_str(&format!(
                "    disclose {} to {};\n",
                item.name(),
                audience.name()
            ));
        }
        source.push('}');
        let policy = compile_one(&source).expect("generated policy compiles");
        let set = policy.disclosure_set();
        for (item, audience) in &rules {
            prop_assert!(
                set.allows(*item, *audience),
                "{} to {} lost in compilation",
                item.name(),
                audience.name()
            );
        }
        // and nothing leaks to Public unless granted to Public
        for item in DisclosureItem::ALL {
            let granted_public = rules
                .iter()
                .any(|(i, a)| *i == item && *a == Audience::Public);
            prop_assert_eq!(set.allows(item, Audience::Public), granted_public);
        }
    }

    /// Round-trip law: compile(print(p)) has the same rules and grants.
    #[test]
    fn print_compile_roundtrip(rules in rules_strategy()) {
        let mut source = String::from("policy \"generated\" {\n");
        for (item, audience) in &rules {
            source.push_str(&format!(
                "    disclose {} to {};\n",
                item.name(),
                audience.name()
            ));
        }
        source.push('}');
        let policy = compile_one(&source).unwrap();
        let printed = faircrowd::lang::printer::print_policy(&policy);
        let reparsed = compile_one(&printed).expect("printed policy re-compiles");
        prop_assert_eq!(&policy.rules, &reparsed.rules);
        prop_assert_eq!(policy.disclosure_set(), reparsed.disclosure_set());
    }

    /// Rendering a generated policy produces one sentence per rule.
    #[test]
    fn rendering_is_total(rules in rules_strategy()) {
        let mut source = String::from("policy \"generated\" {\n");
        for (item, audience) in &rules {
            source.push_str(&format!(
                "    disclose {} to {};\n",
                item.name(),
                audience.name()
            ));
        }
        source.push('}');
        let policy = compile_one(&source).unwrap();
        let text = render::render_policy(&policy);
        if rules.is_empty() {
            prop_assert!(text.contains("discloses nothing"));
        } else {
            prop_assert_eq!(text.lines().count(), rules.len() + 1);
        }
    }
}
