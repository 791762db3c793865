//! Property tests for the audit machinery: determinism, score bounds,
//! monotonicity of the enforcement repairs, the invariants of payment
//! equalisation, and the A2 candidate stream against its double loop.

use faircrowd_core::enforce::equalize_payments;
use faircrowd_core::index::TraceIndex;
use faircrowd_core::{AuditConfig, AuditEngine, SimilarityConfig};
use faircrowd_model::contribution::Contribution;
use faircrowd_model::ids::{RequesterId, SubmissionId, TaskId};
use faircrowd_model::money::Credits;
use faircrowd_model::similarity::SkillMeasure;
use faircrowd_model::skills::SkillVector;
use faircrowd_model::task::TaskBuilder;
use faircrowd_model::trace::Trace;
use proptest::prelude::*;

fn contribution_strategy() -> impl Strategy<Value = Contribution> {
    prop_oneof![
        (0u8..4).prop_map(Contribution::Label),
        (0u16..6, 0u16..6).prop_map(|(a, b)| {
            // tiny rankings drawn from a fixed item pool
            Contribution::Ranking(vec![a, b])
        }),
        (-100.0f64..100.0).prop_map(Contribution::Numeric),
    ]
}

fn planned_payments() -> impl Strategy<Value = Vec<(SubmissionId, Contribution, Credits)>> {
    prop::collection::vec((contribution_strategy(), 0i64..10_000), 0..10).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (c, pay))| {
                (
                    SubmissionId::new(i as u32),
                    c,
                    Credits::from_millicents(pay),
                )
            })
            .collect()
    })
}

/// Random task tables: up to 150 tasks, each a 6-skill requirement
/// vector and a requester drawn from `spread` requesters (1 is a
/// single-requester market, 150 nearly one requester per task).
fn task_table() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec(
            (prop::collection::vec(prop::bool::ANY, 6), 0u32..150),
            0..150,
        ),
        1u32..150,
    )
        .prop_map(|(rows, spread)| {
            let mut trace = Trace::default();
            for (i, (skills, requester)) in rows.into_iter().enumerate() {
                trace.tasks.push(
                    TaskBuilder::new(
                        TaskId::new(i as u32),
                        RequesterId::new(requester % spread),
                        SkillVector::from_bools(skills),
                        Credits::from_cents(10),
                    )
                    .build(),
                );
            }
            trace
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The A2 candidate stream is exactly the `i < j` double loop over
    /// the task table, filtered by the kernel's count bound and by
    /// different requesters, in the loop's order.
    #[test]
    fn task_candidate_stream_is_the_filtered_double_loop(
        trace in task_table(),
        measure in prop::sample::select(vec![
            SkillMeasure::Exact,
            SkillMeasure::Cosine,
            SkillMeasure::Jaccard,
            SkillMeasure::Dice,
        ]),
        threshold in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
    ) {
        let cfg = SimilarityConfig {
            skill_measure: measure,
            task_skill_threshold: threshold,
            ..SimilarityConfig::default()
        };
        let tasks = &trace.tasks;
        let mut expected = Vec::new();
        for i in 0..tasks.len() {
            for j in (i + 1)..tasks.len() {
                let (a, b) = (&tasks[i], &tasks[j]);
                if a.requester != b.requester
                    && measure.count_admissible(a.skills.count(), b.skills.count(), threshold)
                {
                    expected.push((i, j));
                }
            }
        }
        let streamed: Vec<_> = TraceIndex::new(&trace).comparable_task_candidates(&cfg).collect();
        prop_assert_eq!(streamed, expected);
    }

    /// Repair invariants: never lowers pay, is idempotent, and leaves
    /// every similar pair equal-paid.
    #[test]
    fn equalize_payments_invariants(subs in planned_payments(), threshold in 0.5f64..1.0) {
        let adjusted = equalize_payments(&subs, threshold);
        prop_assert_eq!(adjusted.len(), subs.len());
        // never lowers
        for (id, _, before) in &subs {
            prop_assert!(adjusted[id] >= *before);
        }
        // similar pairs equal
        for (i, (id_i, c_i, _)) in subs.iter().enumerate() {
            for (id_j, c_j, _) in subs.iter().skip(i + 1) {
                if c_i.similarity(c_j) >= threshold {
                    prop_assert_eq!(adjusted[id_i], adjusted[id_j]);
                }
            }
        }
        // idempotent
        let again_input: Vec<_> = subs
            .iter()
            .map(|(id, c, _)| (*id, c.clone(), adjusted[id]))
            .collect();
        let again = equalize_payments(&again_input, threshold);
        prop_assert_eq!(again, adjusted);
    }

    /// The audit engine is a pure function of (trace, config).
    #[test]
    fn audit_is_deterministic(seed in 0u64..50) {
        use faircrowd_sim::{CampaignSpec, ScenarioConfig, Simulation, WorkerPopulation};
        let cfg = ScenarioConfig {
            seed,
            rounds: 8,
            workers: vec![WorkerPopulation::diligent(6)],
            campaigns: vec![CampaignSpec::labeling("acme", 8, 10)],
            ..Default::default()
        };
        let trace = Simulation::new(cfg).run();
        let engine = AuditEngine::with_defaults();
        let r1 = engine.run(&trace);
        let r2 = engine.run(&trace);
        prop_assert_eq!(&r1, &r2);
        for axiom in &r1.axioms {
            prop_assert!((0.0..=1.0).contains(&axiom.score));
            prop_assert_eq!(axiom.truncated, axiom.violation_count > axiom.violations.len());
        }
    }

    /// Stricter similarity regimes never find *more* similar pairs for
    /// Axiom 1 than lenient ones (the quantifier domain shrinks).
    #[test]
    fn similarity_regime_orders_quantifier_domains(seed in 0u64..20) {
        use faircrowd_core::AxiomId;
        use faircrowd_sim::{CampaignSpec, ScenarioConfig, Simulation, WorkerPopulation};
        let cfg = ScenarioConfig {
            seed,
            rounds: 8,
            workers: vec![WorkerPopulation::diligent(8)],
            campaigns: vec![CampaignSpec::labeling("acme", 8, 10)],
            ..Default::default()
        };
        let trace = Simulation::new(cfg).run();
        let lenient = AuditEngine::new(AuditConfig {
            similarity: SimilarityConfig::lenient(),
            max_witnesses: 5,
            ..AuditConfig::default()
        })
        .run_axioms(&trace, &[AxiomId::A1WorkerAssignment]);
        let strict = AuditEngine::new(AuditConfig {
            similarity: SimilarityConfig::exact(),
            max_witnesses: 5,
            ..AuditConfig::default()
        })
        .run_axioms(&trace, &[AxiomId::A1WorkerAssignment]);
        let l = lenient.axiom(AxiomId::A1WorkerAssignment).unwrap();
        let s = strict.axiom(AxiomId::A1WorkerAssignment).unwrap();
        prop_assert!(s.checked <= l.checked, "exact regime must check fewer pairs");
    }
}
