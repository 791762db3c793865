//! `reform_rush`: reputation-temporal reward seeking in a two-tier
//! market.
//!
//! REFORM-style workers (PAPERS.md) treat their platform reputation as
//! an asset: as standing grows, so does the wage they demand. This
//! market posts a decently paid campaign next to a cheap one over a
//! mixed-quality crowd. At the fixed point, well-reputed diligent
//! workers have priced themselves out of the cheap campaign — which is
//! left to workers whose standing (and therefore asking wage) stayed
//! low — an emergent quality/price stratification no static
//! parameterisation authors directly.

use crate::config::CampaignSpec;
use crate::config::{ScenarioConfig, StrategyChoice, WorkerPopulation};
use faircrowd_quality::spam::WorkerArchetype;

/// The `reform_rush` preset.
pub(crate) fn config() -> ScenarioConfig {
    let mut diligent = WorkerPopulation::diligent(22);
    diligent.participation = 0.9;
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![diligent, WorkerPopulation::of(WorkerArchetype::Sloppy, 10)],
        campaigns: vec![
            CampaignSpec::labeling("acme", 50, 12),
            CampaignSpec::labeling("discount_data", 45, 5),
        ],
        strategy: StrategyChoice::ReputationTemporal,
        ..Default::default()
    }
}
