//! Sweep determinism and catalog round-trip guarantees.
//!
//! The sweep engine promises that its aggregate exports are a pure
//! function of the grid — the worker-thread count must never leak into
//! the output (a row of `routes.rs`), nor the order of the seed axis.
//! These tests pin the latter, and check that every named scenario in
//! the catalog parses, validates and runs end to end.

use faircrowd::prelude::*;
use faircrowd::sim::catalog;
use faircrowd::sweep::run_grid;

#[test]
fn sweep_aggregates_do_not_depend_on_seed_axis_order() {
    let forward = run_grid(
        &SweepGrid::parse("policy=round_robin;seed=1,2,3;rounds=8").unwrap(),
        2,
    )
    .unwrap();
    let backward = run_grid(
        &SweepGrid::parse("policy=round_robin;seed=3,1,2;rounds=8").unwrap(),
        2,
    )
    .unwrap();
    // Same multiset of seeds → identical aggregate exports (cases keep
    // their own order, so only group-level output is order-free).
    assert_eq!(forward.to_csv(), backward.to_csv());
    assert_eq!(forward.groups[0].seeds, vec![1, 2, 3]);
    assert_eq!(backward.groups[0].seeds, vec![1, 2, 3]);
}

#[test]
fn every_catalog_preset_round_trips() {
    for name in catalog::NAMES {
        // Parses and validates…
        let config = catalog::get(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        config.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        // …and runs two rounds end to end through the Pipeline (late
        // surge campaigns post at round 0 so they fit the short horizon).
        let result = Pipeline::new()
            .scenario_name(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .configure(|c| {
                c.rounds = 2;
                for campaign in &mut c.campaigns {
                    campaign.post_round = 0;
                }
            })
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(result.baseline.report.axioms.len(), 7, "{name}");
        assert!(result.config.validate().is_ok(), "{name}");
    }
}

#[test]
fn catalog_and_cli_spellings_agree() {
    // Hyphens/case resolve exactly like the policy registry.
    assert_eq!(
        catalog::get("Transparent-Utopia").unwrap(),
        catalog::get("transparent_utopia").unwrap()
    );
    // Scenario configs surfaced through the sweep match direct lookup.
    let cases = SweepGrid::parse("scenario=flash_crowd")
        .unwrap()
        .expand()
        .unwrap();
    assert_eq!(cases[0].rounds, catalog::get("flash_crowd").unwrap().rounds);
}

#[test]
fn scale_axis_grows_the_market() {
    let grid = SweepGrid::parse("scenario=baseline;scale=1,2;rounds=8").unwrap();
    let result = run_grid(&grid, 2).unwrap();
    assert_eq!(result.groups.len(), 2);
    let (small, large) = (&result.cases[0], &result.cases[1]);
    assert!(
        large.summary.submissions > small.summary.submissions,
        "a 2× market should produce more submissions ({} vs {})",
        large.summary.submissions,
        small.summary.submissions
    );
}
