//! Scenario matrix: every policy × cancellation × payment combination
//! must produce well-formed traces with bounded audit scores and a
//! conserving money flow. This is the broad-coverage safety net for the
//! simulator's interaction surface, driven through the `Pipeline` and
//! the policy registry.

use faircrowd::assign::registry;
use faircrowd::core::metrics;
use faircrowd::prelude::*;

fn tiny(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        rounds: 16,
        n_skills: 3,
        workers: vec![WorkerPopulation::diligent(10)],
        campaigns: vec![CampaignSpec {
            target_approved: Some(20),
            ..CampaignSpec::labeling("acme", 20, 8)
        }],
        ..Default::default()
    }
}

fn policies() -> Vec<PolicyChoice> {
    vec![
        PolicyChoice::SelfSelection,
        PolicyChoice::RoundRobin,
        PolicyChoice::RequesterCentric,
        PolicyChoice::OnlineGreedy,
        PolicyChoice::WorkerCentric,
        PolicyChoice::Kos { l: 2, r: 3 },
        PolicyChoice::ParityOver(Box::new(PolicyChoice::OnlineGreedy)),
        PolicyChoice::FloorOver(Box::new(PolicyChoice::RequesterCentric), 3),
    ]
}

#[test]
fn every_policy_produces_a_valid_trace() {
    // Explicit `PolicyChoice` values (parameterised kos/parity/floor)…
    for policy in policies() {
        let result = Pipeline::new()
            .scenario(tiny(1))
            .policy(policy.clone())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
        // run() validated the trace; the market must also move.
        assert!(
            !result.baseline.trace.submissions.is_empty(),
            "{}: market must move",
            policy.label()
        );
    }
    // …and every registry name, resolved by string like the CLI does.
    for name in registry::NAMES {
        let result = Pipeline::new()
            .scenario(tiny(1))
            .policy_name(name)
            .and_then(Pipeline::run)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!result.baseline.trace.submissions.is_empty(), "{name}");
    }
}

#[test]
fn every_cancellation_policy_is_sound() {
    let cancellations = [
        CancellationPolicy::RunToCompletion,
        CancellationPolicy::CancelAtTarget {
            compensate_partial: false,
        },
        CancellationPolicy::CancelAtTarget {
            compensate_partial: true,
        },
        CancellationPolicy::GraceFinish,
    ];
    for cancellation in cancellations {
        let result = Pipeline::new()
            .scenario(tiny(2))
            .configure(|c| c.cancellation = cancellation)
            .run()
            .unwrap_or_else(|e| panic!("{cancellation:?}: {e}"));
        for axiom in &result.baseline.report.axioms {
            assert!(
                (0.0..=1.0).contains(&axiom.score),
                "{cancellation:?} {}: {}",
                axiom.axiom,
                axiom.score
            );
        }
    }
}

#[test]
fn every_payment_scheme_conserves_money() {
    let schemes = [
        PaymentSchemeChoice::Fixed,
        PaymentSchemeChoice::QualityBased {
            floor: 0.5,
            full_quality: 0.9,
        },
        PaymentSchemeChoice::QualityBased {
            floor: 0.0,
            full_quality: 1.0,
        },
    ];
    for payment in schemes {
        let result = Pipeline::new()
            .scenario(tiny(3))
            .configure(|c| c.payment = payment)
            .run()
            .unwrap_or_else(|e| panic!("{payment:?}: {e}"));
        let trace = &result.baseline.trace;
        // Sum of per-worker earnings equals total payout; no negative pay.
        let earnings = trace.event_index().earnings;
        let total: faircrowd::model::Credits = earnings.values().copied().sum();
        assert_eq!(
            total,
            metrics::total_payout(&faircrowd::core::TraceIndex::new(trace)),
            "{payment:?}"
        );
        assert!(earnings.values().all(|c| c.millicents() >= 0));
        // Nobody earns more than reward × their submissions (+ partial
        // compensations, absent here under RunToCompletion target runs).
        for (w, earned) in earnings.iter() {
            let subs = trace.submissions.iter().filter(|s| s.worker == w).count();
            let cap = faircrowd::model::Credits::from_cents(8 * (subs as i64 + 1));
            assert!(
                earned <= &cap,
                "{payment:?}: {w} earned {earned} for {subs} subs"
            );
        }
    }
}

#[test]
fn approval_policies_cover_the_spectrum() {
    let approvals = [
        ApprovalPolicy::LenientAll,
        ApprovalPolicy::QualityThreshold {
            threshold: 0.5,
            noise: 0.1,
            give_feedback: true,
        },
        ApprovalPolicy::RandomReject {
            reject_prob: 0.9,
            give_feedback: false,
        },
    ];
    let mut rates = Vec::new();
    for approval in approvals {
        let result = Pipeline::new()
            .scenario(tiny(4))
            .configure(|c| c.approval = approval)
            .run()
            .unwrap_or_else(|e| panic!("{approval:?}: {e}"));
        rates.push(result.baseline.summary.approval_rate);
    }
    assert!((rates[0] - 1.0).abs() < 1e-12, "lenient approves all");
    assert!(rates[1] > 0.6, "fair approval mostly approves good work");
    assert!(rates[2] < 0.3, "p=.9 rejection rejects most work");
}

#[test]
fn mixed_task_kinds_flow_through_the_whole_stack() {
    use faircrowd::model::task::TaskKind;
    let mut cfg = tiny(5);
    cfg.campaigns = vec![
        CampaignSpec {
            kind: TaskKind::Labeling { classes: 4 },
            ..CampaignSpec::labeling("multi", 10, 8)
        },
        CampaignSpec {
            kind: TaskKind::FreeText,
            ..CampaignSpec::labeling("texts", 10, 12)
        },
        CampaignSpec {
            kind: TaskKind::Ranking { items: 6 },
            ..CampaignSpec::labeling("ranks", 10, 15)
        },
        CampaignSpec {
            kind: TaskKind::Survey,
            ..CampaignSpec::labeling("polls", 10, 5)
        },
    ];
    let result = Pipeline::new()
        .scenario(cfg)
        .run()
        .expect("mixed-kind market runs");
    // all four contribution kinds appear
    let kinds: std::collections::BTreeSet<&'static str> = result
        .baseline
        .trace
        .submissions
        .iter()
        .map(|s| s.contribution.kind_name())
        .collect();
    assert!(kinds.contains("label"));
    assert!(kinds.contains("text"));
    assert!(kinds.contains("ranking"));
    // and the audit came back with it
    assert!((0.0..=1.0).contains(&result.baseline.report.overall_score()));
}
