//! The named scenario catalog — marketplace presets addressable by
//! string, in two families: eight **static** parameterisations and four
//! **strategic** scenarios (see `crate::scenarios`) that only show
//! their pathology after fixed-point convergence.
//!
//! The paper's validation protocol (§4.1) calls for *controlled
//! experiments* over marketplaces that stress different axioms: spam
//! floods for Axiom 4, interruption-heavy cancellation for Axiom 5,
//! opaque platforms for Axioms 6–7, monopolistic requesters for
//! Axioms 1–2. This module is the single authority mapping scenario
//! names to [`ScenarioConfig`]s, exactly as
//! [`faircrowd_assign::registry`] maps policy names to policies — so
//! the CLI, the sweep grid (`faircrowd::sweep`), examples and tests all
//! agree on what `"spam_campaign"` means.
//!
//! Names are canonicalised with the same rules as the policy registry
//! (case-insensitive, `-` accepted for `_`), and unknown names report a
//! [`FaircrowdError::UnknownScenario`] listing the whole catalog.
//!
//! ```
//! let config = faircrowd_sim::catalog::get("spam-campaign").unwrap();
//! assert!(config.validate().is_ok());
//! assert!(faircrowd_sim::catalog::get("utopia2").is_err());
//! ```

use crate::config::{
    ApprovalPolicy, CampaignSpec, CancellationPolicy, DetectionConfig, PaymentSchemeChoice,
    PolicyChoice, ScenarioConfig, WorkerPopulation,
};
use faircrowd_assign::registry::canonical;
use faircrowd_model::disclosure::{Audience, DisclosureItem, DisclosureSet};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::money::Credits;
use faircrowd_model::task::TaskConditions;
use faircrowd_model::time::SimDuration;
use faircrowd_pay::scheme::BonusPolicy;
use faircrowd_quality::spam::WorkerArchetype;

/// Canonical names of every catalog scenario — the static family
/// followed by the strategic family — in presentation order.
pub const NAMES: [&str; 12] = [
    "baseline",
    "spam_campaign",
    "worker_churn",
    "skill_skew",
    "requester_monopoly",
    "flash_crowd",
    "budget_starved",
    "transparent_utopia",
    "reform_rush",
    "super_turkers",
    "price_war",
    "undercut_churn",
];

/// The static family: scenarios whose pathology is authored into the
/// configuration. A single simulation pass tells their whole story.
pub const STATIC_NAMES: [&str; 8] = [
    "baseline",
    "spam_campaign",
    "worker_churn",
    "skill_skew",
    "requester_monopoly",
    "flash_crowd",
    "budget_starved",
    "transparent_utopia",
];

/// The strategic family (`crate::scenarios`): scenarios that pin a
/// non-static strategy and whose pathology *emerges* from fixed-point
/// iteration ([`crate::converge`]).
pub const STRATEGIC_NAMES: [&str; 4] = [
    "reform_rush",
    "super_turkers",
    "price_war",
    "undercut_churn",
];

/// One-line description of a catalog scenario (by canonical name), used
/// by `faircrowd --help` and the README table.
pub fn describe(name: &str) -> Option<&'static str> {
    let text = match canonical(name).as_str() {
        "baseline" => "healthy two-requester labeling market, fully transparent",
        "spam_campaign" => "40% malicious crowd (Vuurens mix) with detection sweeps on",
        "worker_churn" => "opaque platform, wrongful rejections, retention collapse",
        "skill_skew" => "skill-demanding campaigns over an unevenly skilled crowd",
        "requester_monopoly" => "one requester dominates posting volume and rewards",
        "flash_crowd" => "late surge campaign over a large crowd, cancel-at-target",
        "budget_starved" => "underfunded rewards, reneged bonuses, undisclosed terms",
        "transparent_utopia" => "fair-by-design: parity policy, grace finish, full disclosure",
        "reform_rush" => "reputation-temporal workers stratify a two-tier market (strategic)",
        "super_turkers" => "reservation-wage workers drain the under-priced campaign (strategic)",
        "price_war" => "requesters undercut rewards over an abundant crowd (strategic)",
        "undercut_churn" => "requesters bid for labour an opaque platform churns away (strategic)",
        _ => return None,
    };
    Some(text)
}

/// Resolve a (canonicalised) scenario name into its preset configuration.
///
/// Errors with [`FaircrowdError::UnknownScenario`] listing the valid
/// names when the name does not resolve. Every returned configuration
/// passes [`ScenarioConfig::validate`].
pub fn get(name: &str) -> Result<ScenarioConfig, FaircrowdError> {
    let config = match canonical(name).as_str() {
        "baseline" => baseline(),
        "spam_campaign" => spam_campaign(),
        "worker_churn" => worker_churn(),
        "skill_skew" => skill_skew(),
        "requester_monopoly" => requester_monopoly(),
        "flash_crowd" => flash_crowd(),
        "budget_starved" => budget_starved(),
        "transparent_utopia" => transparent_utopia(),
        "reform_rush" => crate::scenarios::s_reform_rush::config(),
        "super_turkers" => crate::scenarios::s_super_turkers::config(),
        "price_war" => crate::scenarios::s_price_war::config(),
        "undercut_churn" => crate::scenarios::s_undercut_churn::config(),
        _ => {
            return Err(FaircrowdError::UnknownScenario {
                name: name.to_owned(),
                available: NAMES.iter().map(|n| (*n).to_owned()).collect(),
            })
        }
    };
    Ok(config)
}

/// The healthy reference market: two comparable requesters, a diligent
/// fully-participating crowd, full disclosure, quality-based approvals
/// with feedback. Matches the scenario the CLI's `run`/`audit` default
/// flags build, so `--scenario baseline` and no flags agree.
fn baseline() -> ScenarioConfig {
    let mut population = WorkerPopulation::diligent(30);
    population.participation = 1.0;
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![population],
        campaigns: vec![
            CampaignSpec::labeling("acme", 50, 10),
            CampaignSpec::labeling("globex", 50, 10),
        ],
        disclosure: DisclosureSet::fully_transparent(),
        ..Default::default()
    }
}

/// §2.1's Vuurens observation made executable: "nearly 40% of the
/// answers … were from malicious users". A 40-worker crowd where
/// exactly two of five workers (16/40) are spammers of some stripe —
/// plus a few good-faith sloppy workers — with frequent detection
/// sweeps so Axiom 4 has evidence to quantify over.
fn spam_campaign() -> ScenarioConfig {
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![
            WorkerPopulation::diligent(21),
            WorkerPopulation::of(WorkerArchetype::Sloppy, 3),
            WorkerPopulation::of(WorkerArchetype::RandomSpammer, 6),
            WorkerPopulation::of(WorkerArchetype::UniformSpammer, 5),
            WorkerPopulation::of(WorkerArchetype::SemiRandomSpammer, 5),
        ],
        campaigns: vec![
            CampaignSpec::labeling("acme", 60, 10),
            CampaignSpec::labeling("globex", 40, 12),
        ],
        detection: Some(DetectionConfig {
            every_rounds: 4,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// The retention-collapse scenario of §3.1.2: an opaque platform that
/// rejects a sixth of all work without explanation. Workers churn out
/// of frustration — the behaviour Axioms 6–7 (and the paper's proposed
/// retention measurements) are meant to catch early.
fn worker_churn() -> ScenarioConfig {
    let mut population = WorkerPopulation::diligent(36);
    population.participation = 0.7;
    ScenarioConfig {
        seed: 42,
        rounds: 60,
        n_skills: 6,
        workers: vec![population],
        campaigns: vec![
            CampaignSpec::labeling("acme", 60, 8),
            CampaignSpec::labeling("initech", 45, 9),
        ],
        disclosure: DisclosureSet::opaque(),
        approval: ApprovalPolicy::RandomReject {
            reject_prob: 0.17,
            give_feedback: false,
        },
        ..Default::default()
    }
}

/// Skill-demanding campaigns over an unevenly skilled crowd: a small
/// expert pool and a large low-skill pool competing for tasks whose
/// requirements are dense. Stresses Axiom 1 (do similar workers see the
/// same tasks?) under genuine qualification pressure.
fn skill_skew() -> ScenarioConfig {
    let mut experts = WorkerPopulation::diligent(8);
    experts.skill_prob = 0.9;
    let mut novices = WorkerPopulation::diligent(28);
    novices.skill_prob = 0.25;
    let mut demanding = CampaignSpec::labeling("acme", 55, 14);
    demanding.skill_req_prob = 0.5;
    let mut open = CampaignSpec::labeling("globex", 35, 9);
    open.skill_req_prob = 0.1;
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 10,
        workers: vec![experts, novices],
        campaigns: vec![demanding, open],
        ..Default::default()
    }
}

/// One requester dominates the market's posting volume and outbids the
/// fringe. Under optimising assignment this is where requester-centric
/// discrimination (§3.1.1) shows: the monopolist's tasks crowd out
/// everyone else's, so Axiom 2 has real violations to find.
fn requester_monopoly() -> ScenarioConfig {
    let mut fringe = CampaignSpec::labeling("smallco", 12, 8);
    fringe.post_round = 4;
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![WorkerPopulation::diligent(30)],
        campaigns: vec![CampaignSpec::labeling("megacorp", 110, 16), fringe],
        policy: PolicyChoice::RequesterCentric,
        ..Default::default()
    }
}

/// A flash crowd: a large, partially attentive workforce and a huge
/// surge campaign posted mid-run that cancels the moment its target is
/// met, interrupting in-flight work without compensation — the §3.1.1
/// task-completion scenario Axiom 5 prohibits.
fn flash_crowd() -> ScenarioConfig {
    let mut surge = CampaignSpec::labeling("viralco", 90, 12);
    surge.post_round = 8;
    surge.target_approved = Some(120);
    ScenarioConfig {
        seed: 42,
        rounds: 36,
        n_skills: 6,
        workers: vec![WorkerPopulation::diligent(60)],
        campaigns: vec![CampaignSpec::labeling("acme", 25, 10), surge],
        cancellation: CancellationPolicy::CancelAtTarget {
            compensate_partial: false,
        },
        ..Default::default()
    }
}

/// An underfunded market: minimal rewards, a harsh quality-ramped pay
/// scheme, a reneged bonus promise, and working conditions nobody
/// bothered to disclose. Stresses Axiom 3 (equal pay for equal work)
/// and Axiom 6 at once.
fn budget_starved() -> ScenarioConfig {
    let mut campaign = CampaignSpec::labeling("cheapskate", 70, 3);
    campaign.conditions = TaskConditions::default(); // nothing disclosed
    campaign.bonus = Some(BonusPolicy {
        amount: Credits::from_cents(20),
        quality_threshold: 0.8,
        honoured: false,
    });
    let mut rival = CampaignSpec::labeling("pennywise", 40, 4);
    rival.conditions = TaskConditions {
        stated_hourly_wage: Some(Credits::from_dollars(1)),
        ..TaskConditions::default()
    };
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![WorkerPopulation::diligent(30)],
        campaigns: vec![campaign, rival],
        disclosure: DisclosureSet::opaque().with(DisclosureItem::HourlyWage, Audience::Workers),
        payment: PaymentSchemeChoice::QualityBased {
            floor: 0.6,
            full_quality: 0.95,
        },
        approval: ApprovalPolicy::QualityThreshold {
            threshold: 0.65,
            noise: 0.15,
            give_feedback: false,
        },
        ..Default::default()
    }
}

/// The fair-by-design platform of §3.3.1: exposure parity enforced over
/// the assignment policy, grace-finish cancellation, full disclosure,
/// generous conditions — the configuration every axiom should pass.
fn transparent_utopia() -> ScenarioConfig {
    let mut population = WorkerPopulation::diligent(30);
    population.participation = 1.0;
    let mut campaign = CampaignSpec::labeling("coop", 60, 12);
    campaign.conditions =
        TaskConditions::fully_disclosed(Credits::from_dollars(9), SimDuration::from_hours(12));
    ScenarioConfig {
        seed: 42,
        rounds: 48,
        n_skills: 6,
        workers: vec![population],
        campaigns: vec![campaign, CampaignSpec::labeling("guild", 40, 12)],
        policy: PolicyChoice::ParityOver(Box::new(PolicyChoice::SelfSelection)),
        disclosure: DisclosureSet::fully_transparent(),
        cancellation: CancellationPolicy::GraceFinish,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in NAMES {
            let config = get(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            config.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(describe(name).is_some(), "{name} lacks a description");
        }
    }

    #[test]
    fn names_are_canonicalised() {
        assert_eq!(get("Spam-Campaign").unwrap(), get("spam_campaign").unwrap());
        assert_eq!(get(" BASELINE ").unwrap(), get("baseline").unwrap());
    }

    #[test]
    fn unknown_names_list_the_catalog() {
        match get("utopia2") {
            Err(FaircrowdError::UnknownScenario { name, available }) => {
                assert_eq!(name, "utopia2");
                assert_eq!(available.len(), NAMES.len());
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn families_partition_the_catalog() {
        let rebuilt: Vec<&str> = STATIC_NAMES.into_iter().chain(STRATEGIC_NAMES).collect();
        assert_eq!(rebuilt, NAMES.to_vec());
        for name in STATIC_NAMES {
            assert_eq!(
                get(name).unwrap().strategy,
                crate::strategy::StrategyChoice::Static,
                "{name} should be static"
            );
        }
        for name in STRATEGIC_NAMES {
            assert_ne!(
                get(name).unwrap().strategy,
                crate::strategy::StrategyChoice::Static,
                "{name} should pin a strategic profile"
            );
        }
    }

    #[test]
    fn presets_differ_from_each_other() {
        let configs: Vec<ScenarioConfig> = NAMES.iter().map(|n| get(n).unwrap()).collect();
        for i in 0..configs.len() {
            for j in (i + 1)..configs.len() {
                assert_ne!(configs[i], configs[j], "{} == {}", NAMES[i], NAMES[j]);
            }
        }
    }
}
