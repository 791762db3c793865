//! Simulator invariants under randomised configurations: whatever the
//! scenario, traces must be well-formed, money must add up, and the
//! behavioural knobs must move their outcomes in the documented
//! direction.

use faircrowd_model::event::EventKind;
use faircrowd_model::money::Credits;
use faircrowd_quality::spam::WorkerArchetype;
use faircrowd_sim::{
    ApprovalPolicy, CampaignSpec, CancellationPolicy, PolicyChoice, ScenarioConfig, Simulation,
    TraceSummary, WorkerPopulation,
};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = PolicyChoice> {
    prop_oneof![
        Just(PolicyChoice::SelfSelection),
        Just(PolicyChoice::RoundRobin),
        Just(PolicyChoice::RequesterCentric),
        Just(PolicyChoice::OnlineGreedy),
        Just(PolicyChoice::Kos { l: 2, r: 4 }),
        Just(PolicyChoice::ParityOver(Box::new(
            PolicyChoice::RequesterCentric
        ))),
    ]
}

fn any_cancellation() -> impl Strategy<Value = CancellationPolicy> {
    prop_oneof![
        Just(CancellationPolicy::RunToCompletion),
        Just(CancellationPolicy::CancelAtTarget {
            compensate_partial: false
        }),
        Just(CancellationPolicy::CancelAtTarget {
            compensate_partial: true
        }),
        Just(CancellationPolicy::GraceFinish),
    ]
}

fn random_config() -> impl Strategy<Value = ScenarioConfig> {
    (
        0u64..1_000, // seed
        4u32..20,    // rounds
        2u32..12,    // diligent workers
        0u32..5,     // spammers
        3u32..20,    // tasks
        any_policy(),
        any_cancellation(),
        prop::option::of(5u32..40), // target
    )
        .prop_map(
            |(seed, rounds, diligent, spam, tasks, policy, cancellation, target)| ScenarioConfig {
                seed,
                rounds,
                n_skills: 3,
                workers: vec![
                    WorkerPopulation::diligent(diligent),
                    WorkerPopulation::of(WorkerArchetype::RandomSpammer, spam),
                ],
                campaigns: vec![CampaignSpec {
                    target_approved: target,
                    ..CampaignSpec::labeling("acme", tasks, 9)
                }],
                policy,
                cancellation,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Whatever the configuration: valid trace, monotone event clock,
    /// non-negative earnings that sum to the total payout.
    #[test]
    fn any_scenario_produces_consistent_books(cfg in random_config()) {
        let trace = Simulation::new(cfg).run();
        prop_assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        prop_assert_eq!(trace.events.validate(), Ok(()));
        let earnings = trace.event_index().earnings;
        let total: Credits = earnings.values().copied().sum();
        let payout: Credits = trace
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::PaymentIssued { amount, .. }
                | EventKind::BonusPaid { amount, .. } => *amount,
                _ => Credits::ZERO,
            })
            .sum();
        prop_assert_eq!(total, payout);
        prop_assert!(earnings.values().all(|c| c.millicents() >= 0));
        // a worker never earns without having done anything (submission
        // or a compensated interruption)
        for (w, earned) in earnings.iter() {
            if earned.is_positive() {
                let touched_work = trace.submissions.iter().any(|s| s.worker == w)
                    || trace.events.iter().any(|e| {
                        matches!(e.kind, EventKind::WorkInterrupted { worker, .. } if worker == w)
                    });
                prop_assert!(touched_work, "{w} earned {earned} from thin air");
            }
        }
    }

    /// Grace-finish never emits an interruption, under any configuration.
    #[test]
    fn grace_finish_never_interrupts(cfg in random_config()) {
        let cfg = ScenarioConfig {
            cancellation: CancellationPolicy::GraceFinish,
            ..cfg
        };
        let trace = Simulation::new(cfg).run();
        let interruptions = trace
            .events
            .count_where(|k| matches!(k, EventKind::WorkInterrupted { .. }));
        prop_assert_eq!(interruptions, 0);
    }

    /// Raising the wrongful-rejection probability can only lower the
    /// realised approval rate (same seed, same market).
    #[test]
    fn rejection_knob_is_monotone(seed in 0u64..200) {
        let build = |p: f64| ScenarioConfig {
            seed,
            rounds: 12,
            workers: vec![WorkerPopulation::diligent(8)],
            campaigns: vec![CampaignSpec::labeling("acme", 12, 9)],
            approval: ApprovalPolicy::RandomReject {
                reject_prob: p,
                give_feedback: true,
            },
            ..Default::default()
        };
        let gentle = TraceSummary::of(&Simulation::new(build(0.05)).run());
        let harsh = TraceSummary::of(&Simulation::new(build(0.7)).run());
        prop_assert!(
            harsh.approval_rate <= gentle.approval_rate + 0.05,
            "p=.7 approved {:.2} vs p=.05 approved {:.2}",
            harsh.approval_rate,
            gentle.approval_rate
        );
    }
}

#[test]
fn spam_fraction_degrades_label_quality() {
    // deterministic two-point check across seeds (not a proptest: needs
    // the averaged contrast, not per-seed noise)
    let build = |seed: u64, spammers: u32| ScenarioConfig {
        seed,
        rounds: 16,
        n_skills: 0,
        workers: vec![
            WorkerPopulation::diligent(12),
            WorkerPopulation::of(WorkerArchetype::RandomSpammer, spammers),
        ],
        campaigns: vec![CampaignSpec {
            assignments_per_task: 4,
            ..CampaignSpec::labeling("acme", 30, 9)
        }],
        ..Default::default()
    };
    let mean = |spammers: u32| -> f64 {
        (0..4)
            .map(|seed| {
                TraceSummary::of(&Simulation::new(build(seed, spammers)).run()).label_quality
            })
            .sum::<f64>()
            / 4.0
    };
    let clean = mean(0);
    let spammy = mean(10);
    assert!(
        spammy < clean - 0.05,
        "10 random spammers must dent label quality: {clean:.3} -> {spammy:.3}"
    );
}
