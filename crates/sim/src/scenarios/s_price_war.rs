//! `price_war`: requester price undercutting over an abundant crowd.
//!
//! Three comparable requesters post into a market with more willing
//! labour than work. Every campaign fills easily, so each requester's
//! proportional controller keeps shaving the posted reward — none needs
//! to pay yesterday's price to fill today's tasks. The fixed point is a
//! race to the floor: rewards pinned at the undercutting bound, the
//! emergent form of the under-compensation dynamics §3.1.1 documents
//! (cf. the requester side of REFORM, PAPERS.md).

use crate::config::{CampaignSpec, ScenarioConfig, StrategyChoice, WorkerPopulation};

/// The `price_war` preset.
pub(crate) fn config() -> ScenarioConfig {
    let mut population = WorkerPopulation::diligent(45);
    population.participation = 1.0;
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![population],
        campaigns: vec![
            CampaignSpec::labeling("acme", 30, 10),
            CampaignSpec::labeling("globex", 30, 10),
            CampaignSpec::labeling("initech", 30, 10),
        ],
        strategy: StrategyChoice::PriceUndercut,
        ..Default::default()
    }
}
