//! `super_turkers`: reservation-wage task selection.
//!
//! The "Super Turker" strategy (Savage et al., PAPERS.md): experienced
//! workers learn what their time is worth and simply stop taking work
//! below it. This market posts a fairly paid campaign next to a
//! sweatshop-priced one with the same advertised effort. Iteration 1 is
//! the naive market — everyone takes everything; by the fixed point the
//! crowd's learned reservation wages have drained the under-priced
//! campaign of labour, the emergent version of §3.1.1's
//! under-compensation complaint.

use crate::config::{CampaignSpec, ScenarioConfig, StrategyChoice, WorkerPopulation};

/// The `super_turkers` preset.
pub(crate) fn config() -> ScenarioConfig {
    let mut population = WorkerPopulation::diligent(30);
    population.participation = 1.0;
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![population],
        campaigns: vec![
            CampaignSpec::labeling("acme", 40, 14),
            CampaignSpec::labeling("gigmill", 60, 4),
        ],
        strategy: StrategyChoice::SuperTurker,
        ..Default::default()
    }
}
