//! End-to-end integration: scenario → simulate → audit → report through
//! the `Pipeline`, across the crate boundaries, with determinism and
//! well-formedness guarantees.

use faircrowd::prelude::*;

fn demo_config(seed: u64) -> ScenarioConfig {
    // Full participation keeps the market controlled: exposure
    // differences then reflect platform behaviour, not who happened to
    // be online (workers offline while a task fills create benign
    // Axiom-1/2 noise that would make "healthy market" assertions flaky).
    let full_time = |mut p: WorkerPopulation| {
        p.participation = 1.0;
        p
    };
    ScenarioConfig {
        seed,
        rounds: 36,
        workers: vec![full_time(WorkerPopulation::diligent(18))],
        campaigns: vec![
            CampaignSpec::labeling("acme", 25, 10),
            CampaignSpec::labeling("globex", 25, 11),
        ],
        ..Default::default()
    }
}

fn run_pipeline(seed: u64) -> faircrowd::PipelineResult {
    Pipeline::new()
        .scenario(demo_config(seed))
        .run()
        .expect("demo scenario runs")
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let r1 = run_pipeline(5);
    let r2 = run_pipeline(5);
    assert_eq!(
        r1.baseline.trace, r2.baseline.trace,
        "same seed, same trace"
    );
    assert_eq!(
        r1.baseline.report, r2.baseline.report,
        "same trace, same report"
    );

    let r3 = run_pipeline(6);
    assert_ne!(
        r1.baseline.trace, r3.baseline.trace,
        "different seed, different trace"
    );
}

#[test]
fn traces_are_well_formed_and_internally_consistent() {
    let result = run_pipeline(9);
    let trace = result.trace();
    // run() already called ensure_valid(); check the raw invariants too.
    assert!(trace.validate().is_empty(), "{:?}", trace.validate());
    assert_eq!(trace.events.validate(), Ok(()));

    // Every payment event refers to an approved or auto-approved
    // submission of the right worker.
    let payments = trace.payment_by_submission();
    for (sid, amount) in payments {
        let sub = trace.submission(sid).expect("payment for known submission");
        assert!(amount.is_positive());
        let task = trace.task(sub.task).expect("known task");
        assert!(
            amount <= task.reward,
            "single-submission payment cannot exceed the advertised reward"
        );
    }

    // Earnings aggregate consistently.
    let earnings = trace.event_index().earnings;
    let total: faircrowd::model::Credits = earnings.values().copied().sum();
    assert_eq!(
        total,
        faircrowd::core::metrics::total_payout(&faircrowd::core::TraceIndex::new(trace))
    );
}

#[test]
fn healthy_market_passes_the_full_audit() {
    let result = run_pipeline(21);
    let report = result.report();
    assert_eq!(report.axioms.len(), 7);
    for axiom in &report.axioms {
        assert!(
            axiom.score > 0.9,
            "{} unexpectedly low: {:.3} ({:?})",
            axiom.axiom,
            axiom.score,
            axiom.notes
        );
    }
    // The rendered result carries both the market summary and the report.
    let text = result.render();
    assert!(text.contains("market"));
    assert!(text.contains("overall"));
}

#[test]
fn summary_statistics_are_consistent_with_the_audit() {
    let result = run_pipeline(33);
    let summary = &result.baseline.summary;
    let trace = &result.baseline.trace;
    let ix = faircrowd::core::TraceIndex::new(trace);
    assert_eq!(summary.retention, faircrowd::core::metrics::retention(&ix));
    assert_eq!(
        summary.total_paid,
        faircrowd::core::metrics::total_payout(&ix)
    );
    assert!(summary.submissions > 0);
    assert!((0.0..=1.0).contains(&summary.label_quality));
}

#[test]
fn audit_scores_are_always_in_unit_range() {
    for seed in 0..5 {
        let report = run_pipeline(seed).baseline.report;
        for axiom in &report.axioms {
            assert!(
                (0.0..=1.0).contains(&axiom.score),
                "{}: {}",
                axiom.axiom,
                axiom.score
            );
            for v in &axiom.violations {
                assert!((0.0..=1.0).contains(&v.severity));
                assert!(!v.description.is_empty());
            }
        }
    }
}
