//! The `Pipeline` + registry API contract:
//!
//! 1. every registry name resolves and assigns feasibly on the shared
//!    fixture market;
//! 2. `Pipeline::run` is exactly the hand-wired `sim::run` +
//!    `AuditEngine::run` composition — same trace, same report;
//! 3. the unified `FaircrowdError` surfaces every failure mode.

use faircrowd::assign::policy::fixtures;
use faircrowd::assign::registry;
use faircrowd::model::FaircrowdError;
use faircrowd::prelude::*;

/// Satellite round-trip: name → registry → policy → feasible outcome.
#[test]
fn every_registry_name_assigns_feasibly_on_the_fixture_market() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let market = fixtures::small_market();
    for name in registry::NAMES {
        let mut policy = registry::by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let outcome = policy.assign(&market, &mut StdRng::seed_from_u64(42));
        outcome
            .ensure_feasible(&market, policy.name())
            .unwrap_or_else(|e| panic!("{e}"));
        // Policies must expose at least the tasks they assign.
        for (worker, task) in &outcome.assignments {
            assert!(
                outcome
                    .visibility
                    .get(worker)
                    .is_some_and(|v| v.contains(*task)),
                "{name}: assignment implies visibility"
            );
        }
    }
}

/// The registry and the simulator's `PolicyChoice` table agree on names
/// AND on what each name builds: same policy identity, same behaviour on
/// the fixture market.
#[test]
fn registry_names_and_policy_choice_stay_in_sync() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let market = fixtures::small_market();
    for name in registry::NAMES {
        let mut from_registry = registry::by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let choice = PolicyChoice::by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut from_choice = choice.build();
        assert_eq!(
            from_registry.name(),
            from_choice.name(),
            "`{name}` resolves to different policies via registry vs PolicyChoice"
        );
        // Same construction parameters ⇒ identical outcomes on the same
        // market and seed (catches diverging kos/parity/floor defaults).
        let a = from_registry.assign(&market, &mut StdRng::seed_from_u64(3));
        let b = from_choice.assign(&market, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b, "`{name}` behaves differently via the two tables");
    }
    assert!(matches!(
        PolicyChoice::by_name("magic"),
        Err(FaircrowdError::UnknownPolicy { .. })
    ));
}

/// Pipeline output equals the hand-wired composition of the crates.
#[test]
fn pipeline_equals_hand_wired_composition() {
    let config = ScenarioConfig {
        seed: 99,
        rounds: 20,
        workers: vec![WorkerPopulation::diligent(12)],
        campaigns: vec![
            CampaignSpec::labeling("acme", 15, 10),
            CampaignSpec::labeling("globex", 15, 10),
        ],
        policy: PolicyChoice::by_name("round_robin").unwrap(),
        ..Default::default()
    };

    // Hand-wired: the pre-Pipeline composition every caller used to write.
    let trace = faircrowd::sim::run(config.clone());
    let report = AuditEngine::with_defaults().run(&trace);
    let summary = TraceSummary::of(&trace);

    // The same loop through the Pipeline.
    let result = Pipeline::new().scenario(config).run().unwrap();

    assert_eq!(result.baseline.trace, trace, "same trace");
    assert_eq!(result.baseline.report, report, "same report");
    assert_eq!(
        result.baseline.summary.submissions, summary.submissions,
        "same summary"
    );
    assert!(
        result.enforced.is_none(),
        "nothing staged, nothing enforced"
    );
}

/// With an enforcement staged, the second pass equals hand-wiring the
/// repaired config through the crates.
#[test]
fn enforced_pass_equals_hand_wired_repair() {
    let base = ScenarioConfig {
        seed: 5,
        rounds: 16,
        policy: PolicyChoice::RequesterCentric,
        ..Default::default()
    };

    let result = Pipeline::new()
        .scenario(base.clone())
        .enforce(Enforcement::ExposureParity)
        .run()
        .unwrap();

    let mut repaired = base;
    repaired.policy = PolicyChoice::ParityOver(Box::new(PolicyChoice::RequesterCentric));
    let trace = faircrowd::sim::run(repaired);
    let report = AuditEngine::with_defaults().run(&trace);

    let enforced = result.enforced.expect("parity staged");
    assert_eq!(enforced.artifacts.trace, trace);
    assert_eq!(enforced.artifacts.report, report);
}

/// Every failure mode arrives as a typed `FaircrowdError`.
#[test]
fn error_paths_are_unified() {
    // Unknown registry name.
    let err = match registry::by_name("nope") {
        Err(err) => err,
        Ok(policy) => panic!("`nope` resolved to {}", policy.name()),
    };
    assert!(matches!(err, FaircrowdError::UnknownPolicy { .. }));
    assert!(err.to_string().contains("round_robin"));

    // Unknown name via the pipeline builder.
    assert!(matches!(
        Pipeline::new().policy_name("nope"),
        Err(FaircrowdError::UnknownPolicy { .. })
    ));

    // Invalid scenario.
    let err = Pipeline::new()
        .configure(|c| c.campaigns.clear())
        .run()
        .unwrap_err();
    assert!(matches!(err, FaircrowdError::Config { .. }));
    assert!(err.to_string().contains("campaign"));

    // TPL diagnostics convert via `?`.
    let lang_err: FaircrowdError = faircrowd::lang::compile("policy \"broken\" {")
        .unwrap_err()
        .into();
    assert!(matches!(lang_err, FaircrowdError::Lang { .. }));

    // Unknown TPL catalog entries.
    assert!(matches!(
        faircrowd::lang::catalog::get("nope"),
        Err(FaircrowdError::UnknownPolicy { .. })
    ));
}
