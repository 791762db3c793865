//! `undercut_churn`: price adjustment in a churning, rejection-heavy
//! market.
//!
//! The mirror image of `price_war`: an opaque platform with arbitrary
//! rejections keeps frustrating workers out of the market, so campaigns
//! *starve* rather than fill. The same undercutting controller now runs
//! in reverse — requesters whose fill rates sit below target sweeten
//! their rewards iteration over iteration, bidding for a shrinking
//! crowd. The fixed point shows whether price alone can buy back the
//! labour that opacity churned away (it cannot; retention is not a
//! price problem — the §3.1.2 argument, rendered emergent).

use crate::config::{
    ApprovalPolicy, CampaignSpec, ScenarioConfig, StrategyChoice, WorkerPopulation,
};
use faircrowd_model::disclosure::DisclosureSet;

/// The `undercut_churn` preset.
pub(crate) fn config() -> ScenarioConfig {
    let mut population = WorkerPopulation::diligent(24);
    population.participation = 0.65;
    ScenarioConfig {
        seed: 42,
        rounds: 60,
        n_skills: 6,
        workers: vec![population],
        campaigns: vec![
            CampaignSpec::labeling("acme", 70, 8),
            CampaignSpec::labeling("initech", 55, 9),
        ],
        disclosure: DisclosureSet::opaque(),
        approval: ApprovalPolicy::RandomReject {
            reject_prob: 0.15,
            give_feedback: false,
        },
        strategy: StrategyChoice::PriceUndercut,
        ..Default::default()
    }
}
