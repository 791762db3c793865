//! # faircrowd-bench
//!
//! Shared machinery for the experiment suite (E1–E7) that executes the
//! paper's §4 validation agenda — objective fairness and transparency
//! measures over controlled simulated marketplaces: scenario presets,
//! multi-seed averaging, and formatting helpers. Each
//! experiment lives in `benches/` as a `harness = false` target so that
//! `cargo bench` regenerates every experiment table. Performance is
//! measured by the separate `perfbench/` harness, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faircrowd_core::report::TextTable;

use faircrowd_model::trace::Trace;
use faircrowd_sim::{ScenarioConfig, Simulation};

/// The standard seeds experiments average over. Three seeds keeps every
/// experiment under a few seconds while damping run-to-run noise; the
/// tables report means.
pub(crate) const SEEDS: [u64; 3] = [11, 42, 1337];

/// Run one scenario per seed and collect the traces.
pub fn run_seeds<F>(mut configure: F) -> Vec<Trace>
where
    F: FnMut(u64) -> ScenarioConfig,
{
    SEEDS
        .iter()
        .map(|&seed| Simulation::new(configure(seed)).run())
        .collect()
}

/// Mean of an f64 iterator (0.0 when empty).
pub fn mean<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Format a fraction with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a fraction with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str, paper_source: &str) {
    println!("\n=== {id}: {title} ===");
    println!("paper source: {paper_source}\n");
}

/// Scenario presets shared across experiments.
pub mod presets {
    use faircrowd_model::disclosure::DisclosureSet;
    use faircrowd_quality::spam::WorkerArchetype;
    use faircrowd_sim::{
        ApprovalPolicy, CampaignSpec, CancellationPolicy, PolicyChoice, ScenarioConfig,
        WorkerPopulation,
    };

    /// A mid-sized labeling market: 40 diligent + 8 sloppy workers, two
    /// requesters posting comparable campaigns (so Axiom 2 has pairs to
    /// quantify over), 48 rounds.
    ///
    /// Participation is pinned to 1.0: E1 is a *controlled* experiment in
    /// the §4.1 sense — session behaviour is held constant so that any
    /// exposure difference is attributable to the assignment policy, not
    /// to who happened to log in.
    pub fn labeling_market(seed: u64, policy: PolicyChoice) -> ScenarioConfig {
        let full_time = |mut p: WorkerPopulation| {
            p.participation = 1.0;
            p
        };
        ScenarioConfig {
            seed,
            rounds: 48,
            n_skills: 6,
            workers: vec![
                full_time(WorkerPopulation::diligent(40)),
                full_time(WorkerPopulation::of(WorkerArchetype::Sloppy, 8)),
            ],
            campaigns: vec![
                CampaignSpec::labeling("acme", 60, 10),
                CampaignSpec::labeling("globex", 60, 10),
            ],
            policy,
            disclosure: DisclosureSet::fully_transparent(),
            approval: ApprovalPolicy::QualityThreshold {
                threshold: 0.5,
                noise: 0.1,
                give_feedback: true,
            },
            cancellation: CancellationPolicy::RunToCompletion,
            ..Default::default()
        }
    }

    /// A spam-heavy market with the given malicious fraction of a
    /// 50-worker crowd (the Vuurens scenario at `fraction = 0.4`).
    pub fn spam_market(seed: u64, malicious_fraction: f64) -> ScenarioConfig {
        let total = 50u32;
        let malicious = (total as f64 * malicious_fraction).round() as u32;
        let honest = total - malicious;
        let third = malicious / 3;
        ScenarioConfig {
            seed,
            rounds: 48,
            n_skills: 0,
            workers: vec![
                WorkerPopulation::diligent(honest),
                WorkerPopulation::of(WorkerArchetype::RandomSpammer, third),
                WorkerPopulation::of(WorkerArchetype::UniformSpammer, third),
                WorkerPopulation::of(WorkerArchetype::SemiRandomSpammer, malicious - 2 * third),
            ],
            campaigns: vec![CampaignSpec {
                assignments_per_task: 5,
                ..CampaignSpec::labeling("acme", 80, 10)
            }],
            policy: PolicyChoice::SelfSelection,
            disclosure: DisclosureSet::fully_transparent(),
            ..Default::default()
        }
    }

    /// The §3.1.1 survey scenario: a requester posts far more HITs than
    /// needed and may cancel at her target.
    pub fn survey_market(seed: u64, cancellation: CancellationPolicy) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            rounds: 48,
            n_skills: 0,
            workers: vec![WorkerPopulation::diligent(30)],
            campaigns: vec![CampaignSpec {
                target_approved: Some(60),
                assignments_per_task: 2,
                ..CampaignSpec::labeling("survey-co", 120, 12)
            }],
            policy: PolicyChoice::SelfSelection,
            disclosure: DisclosureSet::fully_transparent(),
            cancellation,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_sim::PolicyChoice;

    #[test]
    fn presets_produce_valid_traces() {
        let traces = run_seeds(|s| presets::labeling_market(s, PolicyChoice::SelfSelection));
        assert_eq!(traces.len(), SEEDS.len());
        for t in &traces {
            assert!(t.validate().is_empty());
            assert!(!t.submissions.is_empty());
        }
    }

    #[test]
    fn spam_market_has_requested_fraction() {
        let cfg = presets::spam_market(1, 0.4);
        let total: u32 = cfg.workers.iter().map(|p| p.count).sum();
        let bad: u32 = cfg
            .workers
            .iter()
            .filter(|p| p.archetype.is_malicious())
            .map(|p| p.count)
            .sum();
        assert_eq!(total, 50);
        assert_eq!(bad, 20);
    }

    #[test]
    fn helpers() {
        assert_eq!(mean([1.0, 3.0]), 2.0);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
        assert_eq!(f3(0.12349), "0.123");
        assert_eq!(f2(0.5), "0.50");
    }
}
