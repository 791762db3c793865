//! Scenario configuration.
//!
//! A [`ScenarioConfig`] fully determines a simulation run (the seed
//! included): the worker population mix, the campaigns requesters post,
//! the assignment policy, the compensation and approval rules, the
//! cancellation policy, the disclosure set the platform operates under,
//! and the detection sweep. Experiments are written as config deltas.

use faircrowd_assign::{
    AssignmentPolicy, BudgetDiverse, ExposureFloor, ExposureParity, FairDelivery, KosAllocation,
    OnlineMatching, RequesterCentric, RoundRobin, SelfSelection, WorkerCentric,
};
use faircrowd_model::disclosure::DisclosureSet;
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::money::Credits;
use faircrowd_model::task::{TaskConditions, TaskKind};
use faircrowd_model::time::SimDuration;
use faircrowd_pay::scheme::{
    BonusPolicy, CompensationScheme, FixedPrice, PayContext, QualityBased,
};
use faircrowd_quality::spam::{SpamDetector, WorkerArchetype};
use serde::{Deserialize, Serialize};

pub use crate::strategy::StrategyChoice;

/// Which assignment policy a scenario runs. An enum (rather than a trait
/// object) so configurations stay serialisable and benches can sweep it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyChoice {
    /// Post-and-browse (§3.1.1's fair baseline).
    SelfSelection,
    /// Equitable rotation.
    RoundRobin,
    /// Greedy requester-utility maximisation.
    RequesterCentric,
    /// Online greedy (Ho–Vaughan-style).
    OnlineGreedy,
    /// Exact matching on worker preference.
    WorkerCentric,
    /// Karger–Oh–Shah (l, r)-regular allocation.
    Kos {
        /// Workers per task.
        l: u32,
        /// Max tasks per worker.
        r: u32,
    },
    /// Axiom-1 exposure-parity enforcement over a base policy.
    ParityOver(Box<PolicyChoice>),
    /// Minimum-exposure floor over a base policy.
    FloorOver(Box<PolicyChoice>, usize),
    /// Budget- and diversity-constrained selection (Goel–Faltings).
    BudgetDiverse,
    /// Fair-allocation utility balancing (Basık et al.).
    FairDelivery,
}

impl PolicyChoice {
    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn AssignmentPolicy> {
        match self {
            PolicyChoice::SelfSelection => Box::new(SelfSelection),
            PolicyChoice::RoundRobin => Box::new(RoundRobin),
            PolicyChoice::RequesterCentric => Box::new(RequesterCentric),
            PolicyChoice::OnlineGreedy => Box::new(OnlineMatching),
            PolicyChoice::WorkerCentric => Box::new(WorkerCentric),
            PolicyChoice::Kos { l, r } => Box::new(KosAllocation { l: *l, r: *r }),
            PolicyChoice::ParityOver(base) => Box::new(ExposureParity::new(base.build())),
            PolicyChoice::FloorOver(base, min) => Box::new(ExposureFloor {
                base: base.build(),
                min_exposure: *min,
            }),
            PolicyChoice::BudgetDiverse => Box::new(BudgetDiverse::default()),
            PolicyChoice::FairDelivery => Box::new(FairDelivery::default()),
        }
    }

    /// The same policy with every exposure wrapper that cannot change an
    /// outcome removed, so two choices that run the same market compare
    /// equal:
    ///
    /// - parity or a floor over a policy that shows each worker her
    ///   qualification row as it is (the open policies) is that policy:
    ///   every wrapper grant is already visible;
    /// - parity over parity is parity: the inner pass already gave each
    ///   class member the class union within her qualification row;
    /// - `floor(n)` over `floor(m)` with `m ≥ n` is `floor(m)`: after the
    ///   inner pass each worker sees at least `m` tasks or every task she
    ///   qualifies for.
    ///
    /// Wrappers draw no randomness, so a simulation under the result is
    /// byte-identical to one under `self` (tested over every registry
    /// policy and catalog scenario in `tests/normalized_repairs.rs`).
    #[must_use]
    pub fn normalized(&self) -> PolicyChoice {
        // Declares which policies start their draft from `Draft::open`.
        // Exhaustive, so a new policy has to say whether it is open.
        let shows_qualified_rows = |policy: &PolicyChoice| match policy {
            PolicyChoice::SelfSelection
            | PolicyChoice::RoundRobin
            | PolicyChoice::WorkerCentric
            | PolicyChoice::FairDelivery => true,
            PolicyChoice::RequesterCentric
            | PolicyChoice::OnlineGreedy
            | PolicyChoice::Kos { .. }
            | PolicyChoice::ParityOver(_)
            | PolicyChoice::FloorOver(..)
            | PolicyChoice::BudgetDiverse => false,
        };
        match self {
            PolicyChoice::ParityOver(base) => match base.normalized() {
                base if shows_qualified_rows(&base) => base,
                base @ PolicyChoice::ParityOver(_) => base,
                base => PolicyChoice::ParityOver(Box::new(base)),
            },
            PolicyChoice::FloorOver(base, min) => match base.normalized() {
                base if shows_qualified_rows(&base) => base,
                base @ PolicyChoice::FloorOver(_, inner) if inner >= *min => base,
                base => PolicyChoice::FloorOver(Box::new(base), *min),
            },
            other => other.clone(),
        }
    }

    /// Resolve a registry name (see [`faircrowd_assign::registry`]) into
    /// the serialisable policy choice, with the registry's default
    /// parameters for `kos`, `parity` and `floor`.
    ///
    /// Accepts the same spellings as the registry (`round_robin`,
    /// `round-robin`, any case) and reports the same
    /// [`FaircrowdError::UnknownPolicy`] on a miss, so the CLI and the
    /// `Pipeline` resolve names identically however the policy is built.
    pub fn by_name(name: &str) -> Result<Self, FaircrowdError> {
        use faircrowd_assign::registry;
        let choice = match registry::canonical(name).as_str() {
            "self_selection" => PolicyChoice::SelfSelection,
            "round_robin" => PolicyChoice::RoundRobin,
            "requester_centric" => PolicyChoice::RequesterCentric,
            "online_greedy" => PolicyChoice::OnlineGreedy,
            "worker_centric" => PolicyChoice::WorkerCentric,
            "kos" => PolicyChoice::Kos {
                l: registry::DEFAULT_KOS.0,
                r: registry::DEFAULT_KOS.1,
            },
            "parity" => PolicyChoice::ParityOver(Box::new(PolicyChoice::RequesterCentric)),
            "floor" => PolicyChoice::FloorOver(
                Box::new(PolicyChoice::RequesterCentric),
                registry::DEFAULT_FLOOR,
            ),
            "budget_diverse" => PolicyChoice::BudgetDiverse,
            "fair_delivery" => PolicyChoice::FairDelivery,
            _ => {
                return Err(FaircrowdError::UnknownPolicy {
                    name: name.to_owned(),
                    available: registry::NAMES.iter().map(|n| (*n).to_owned()).collect(),
                })
            }
        };
        Ok(choice)
    }

    /// Short display name for tables.
    pub fn label(&self) -> String {
        match self {
            PolicyChoice::SelfSelection => "self-selection".into(),
            PolicyChoice::RoundRobin => "round-robin".into(),
            PolicyChoice::RequesterCentric => "requester-centric".into(),
            PolicyChoice::OnlineGreedy => "online-greedy".into(),
            PolicyChoice::WorkerCentric => "worker-centric".into(),
            PolicyChoice::Kos { l, r } => format!("kos({l},{r})"),
            PolicyChoice::ParityOver(base) => format!("parity[{}]", base.label()),
            PolicyChoice::FloorOver(base, min) => format!("floor{min}[{}]", base.label()),
            PolicyChoice::BudgetDiverse => "budget-diverse".into(),
            PolicyChoice::FairDelivery => "fair-delivery".into(),
        }
    }
}

/// A homogeneous slice of the worker population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPopulation {
    /// Number of workers in this slice.
    pub count: u32,
    /// Behavioural archetype (Vuurens taxonomy).
    pub archetype: WorkerArchetype,
    /// Probability each skill keyword is present in a worker's vector.
    pub(crate) skill_prob: f64,
    /// Probability the worker is online in a given round.
    pub participation: f64,
    /// Tasks the worker can take per round.
    pub capacity_per_round: u32,
}

impl WorkerPopulation {
    /// A diligent population with sensible defaults.
    pub fn diligent(count: u32) -> Self {
        WorkerPopulation {
            count,
            archetype: WorkerArchetype::Diligent,
            skill_prob: 0.6,
            participation: 0.8,
            capacity_per_round: 4,
        }
    }

    /// A population of the given archetype with default behaviour knobs.
    pub fn of(archetype: WorkerArchetype, count: u32) -> Self {
        WorkerPopulation {
            archetype,
            ..Self::diligent(count)
        }
    }
}

/// How a requester judges submissions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ApprovalPolicy {
    /// Approve everything.
    LenientAll,
    /// Approve when the (noisily) judged quality reaches `threshold`.
    QualityThreshold {
        /// Minimum judged quality to approve.
        threshold: f64,
        /// Half-width of uniform judgement noise.
        noise: f64,
        /// Whether rejections carry an explanation (the opacity lever of
        /// §3.1.2).
        give_feedback: bool,
    },
    /// Reject a random fraction of work regardless of quality — the
    /// "wrongful rejection" discrimination of §3.1.1.
    RandomReject {
        /// Probability a submission is rejected outright.
        reject_prob: f64,
        /// Whether rejections carry an explanation.
        give_feedback: bool,
    },
}

/// What a requester does when her campaign target is met while work is in
/// flight (§3.1.1 task-completion scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CancellationPolicy {
    /// Never cancel; every posted assignment runs to completion.
    RunToCompletion,
    /// Cancel immediately when the target is reached; in-flight workers
    /// are interrupted. `compensate_partial` decides whether they get a
    /// pro-rated payment for time invested.
    CancelAtTarget {
        /// Pay interrupted workers for invested time.
        compensate_partial: bool,
    },
    /// Stop exposing the task but let in-flight work finish and be paid
    /// (the Axiom-5-compliant design).
    GraceFinish,
}

/// Compensation scheme choice (serialisable mirror of `faircrowd-pay`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PaymentSchemeChoice {
    /// Advertised reward for every approved submission.
    Fixed,
    /// Quality-ramped payment (Wang–Ipeirotis–Provost style).
    QualityBased {
        /// Quality below this earns zero.
        floor: f64,
        /// Quality at/above this earns the full reward.
        full_quality: f64,
    },
}

impl PaymentSchemeChoice {
    /// Compute the payment for an approved submission.
    pub(crate) fn payout(&self, ctx: &PayContext) -> Credits {
        match self {
            PaymentSchemeChoice::Fixed => FixedPrice.payout(ctx),
            PaymentSchemeChoice::QualityBased {
                floor,
                full_quality,
            } => QualityBased {
                floor: *floor,
                full_quality: *full_quality,
            }
            .payout(ctx),
        }
    }
}

/// One campaign a requester posts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Requester display name (requesters are created per distinct name).
    pub requester: String,
    /// Number of tasks in the campaign.
    pub n_tasks: u32,
    /// Redundancy: assignments wanted per task.
    pub assignments_per_task: u32,
    /// Contribution kind.
    pub kind: TaskKind,
    /// Reward per assignment.
    pub reward: Credits,
    /// Honest completion time.
    pub est_duration: SimDuration,
    /// Skill keywords (indices into the universe) required per task;
    /// `skill_req_prob` of the universe is sampled per task.
    pub skill_req_prob: f64,
    /// Approved-submission target after which the requester cancels
    /// (`None` = run everything).
    pub target_approved: Option<u32>,
    /// Disclosed working conditions (Axiom 6 input).
    pub conditions: TaskConditions,
    /// Bonus promise, if any.
    pub bonus: Option<BonusPolicy>,
    /// Round at which the campaign is posted.
    pub post_round: u32,
}

impl CampaignSpec {
    /// A plain binary-labeling campaign with no cancellation and full
    /// disclosure.
    pub fn labeling(requester: &str, n_tasks: u32, reward_cents: i64) -> Self {
        CampaignSpec {
            requester: requester.to_owned(),
            n_tasks,
            assignments_per_task: 3,
            kind: TaskKind::Labeling { classes: 2 },
            reward: Credits::from_cents(reward_cents),
            est_duration: SimDuration::from_mins(5),
            skill_req_prob: 0.0,
            target_approved: None,
            conditions: TaskConditions::fully_disclosed(
                Credits::from_dollars(6),
                SimDuration::from_days(1),
            ),
            bonus: None,
            post_round: 0,
        }
    }
}

/// Detection sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionConfig {
    /// The detector to run.
    pub(crate) detector: SpamDetector,
    /// Run every this many rounds.
    pub(crate) every_rounds: u32,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            detector: SpamDetector::default(),
            every_rounds: 8,
        }
    }
}

/// A complete, reproducible scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// RNG seed — the only source of randomness.
    pub seed: u64,
    /// Simulated market rounds (1 round = 1 hour).
    pub rounds: u32,
    /// Number of skill keywords in the universe.
    pub n_skills: usize,
    /// Worker population slices.
    pub workers: Vec<WorkerPopulation>,
    /// Campaigns to post.
    pub campaigns: Vec<CampaignSpec>,
    /// Assignment policy.
    pub policy: PolicyChoice,
    /// Platform disclosure configuration.
    pub disclosure: DisclosureSet,
    /// Requester approval behaviour.
    pub approval: ApprovalPolicy,
    /// Cancellation behaviour.
    pub cancellation: CancellationPolicy,
    /// Compensation scheme.
    pub payment: PaymentSchemeChoice,
    /// Rounds between submission and the approval decision.
    pub decision_delay_rounds: u32,
    /// Detection sweep, if enabled.
    pub detection: Option<DetectionConfig>,
    /// Agent strategy profile. Defaults to [`StrategyChoice::Static`],
    /// the pre-strategy behaviour.
    #[serde(default)]
    pub strategy: StrategyChoice,
}

impl ScenarioConfig {
    /// Check the configuration describes a runnable market. Collects
    /// every problem into one [`FaircrowdError::Config`] instead of
    /// letting the simulator panic or silently produce an empty trace.
    pub fn validate(&self) -> Result<(), FaircrowdError> {
        let mut problems: Vec<String> = Vec::new();
        if self.rounds == 0 {
            problems.push("rounds must be positive".into());
        }
        if self.n_skills == 0 && self.campaigns.iter().any(|c| c.skill_req_prob > 0.0) {
            problems.push(
                "n_skills is 0 but a campaign draws skill requirements (skill_req_prob > 0)".into(),
            );
        }
        if self.workers.iter().map(|p| u64::from(p.count)).sum::<u64>() == 0 {
            problems.push("worker population is empty".into());
        }
        for (i, pop) in self.workers.iter().enumerate() {
            if !(0.0..=1.0).contains(&pop.skill_prob) {
                problems.push(format!("workers[{i}].skill_prob outside [0, 1]"));
            }
            if !(0.0..=1.0).contains(&pop.participation) {
                problems.push(format!("workers[{i}].participation outside [0, 1]"));
            }
        }
        if self.campaigns.is_empty() {
            problems.push("no campaigns to post".into());
        }
        for (i, c) in self.campaigns.iter().enumerate() {
            if c.requester.is_empty() {
                problems.push(format!("campaigns[{i}].requester name is empty"));
            }
            if c.n_tasks == 0 {
                problems.push(format!("campaigns[{i}].n_tasks must be positive"));
            }
            if c.assignments_per_task == 0 {
                problems.push(format!(
                    "campaigns[{i}].assignments_per_task must be positive"
                ));
            }
            if !c.reward.is_positive() {
                problems.push(format!("campaigns[{i}].reward must be positive"));
            }
            if !(0.0..=1.0).contains(&c.skill_req_prob) {
                problems.push(format!("campaigns[{i}].skill_req_prob outside [0, 1]"));
            }
            if c.post_round >= self.rounds {
                problems.push(format!(
                    "campaigns[{i}].post_round {} is beyond the last round {}",
                    c.post_round,
                    self.rounds.saturating_sub(1)
                ));
            }
        }
        if let PolicyChoice::Kos { l, r } = &self.policy {
            if *l == 0 || *r == 0 {
                problems.push("kos policy requires positive (l, r)".into());
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(FaircrowdError::Config {
                message: problems.join("; "),
            })
        }
    }
}

impl ScenarioConfig {
    /// The same marketplace at `factor`× scale: worker-population
    /// counts, campaign task counts and cancel-at-target thresholds are
    /// multiplied (rounded, floored at 1 so a scaled scenario stays
    /// runnable), everything else — rates, rewards, policies — is left
    /// untouched. This is the `scale` axis of the sweep grid: one
    /// scenario shape probed at growing sizes.
    #[must_use]
    pub fn at_scale(&self, factor: f64) -> ScenarioConfig {
        let scale_u32 = |n: u32| -> u32 { ((f64::from(n) * factor).round() as u32).max(1) };
        let mut scaled = self.clone();
        for pop in &mut scaled.workers {
            pop.count = scale_u32(pop.count);
        }
        for campaign in &mut scaled.campaigns {
            campaign.n_tasks = scale_u32(campaign.n_tasks);
            // Targets scale with the work, or a bigger market would
            // cancel proportionally earlier (and a smaller one never).
            campaign.target_approved = campaign.target_approved.map(scale_u32);
        }
        scaled
    }

    /// Run the market for `rounds` rounds. A campaign posted after the
    /// new last round is posted in it instead, so a shortened scenario
    /// stays valid; a campaign that fits keeps its round. This is the
    /// `rounds` axis of the sweep grid and the CLI's `--rounds`, so a
    /// grid cell is the market its `run` would simulate.
    pub fn set_rounds(&mut self, rounds: u32) {
        self.rounds = rounds;
        let last = rounds.saturating_sub(1);
        for campaign in &mut self.campaigns {
            campaign.post_round = campaign.post_round.min(last);
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            rounds: 48,
            n_skills: 8,
            workers: vec![WorkerPopulation::diligent(20)],
            campaigns: vec![CampaignSpec::labeling("acme", 30, 10)],
            policy: PolicyChoice::SelfSelection,
            disclosure: DisclosureSet::fully_transparent(),
            approval: ApprovalPolicy::QualityThreshold {
                threshold: 0.5,
                noise: 0.1,
                give_feedback: true,
            },
            cancellation: CancellationPolicy::RunToCompletion,
            payment: PaymentSchemeChoice::Fixed,
            decision_delay_rounds: 2,
            detection: Some(DetectionConfig::default()),
            strategy: StrategyChoice::Static,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_choice_builds_and_labels() {
        let choices = vec![
            PolicyChoice::SelfSelection,
            PolicyChoice::RoundRobin,
            PolicyChoice::RequesterCentric,
            PolicyChoice::OnlineGreedy,
            PolicyChoice::WorkerCentric,
            PolicyChoice::Kos { l: 3, r: 5 },
            PolicyChoice::ParityOver(Box::new(PolicyChoice::RequesterCentric)),
            PolicyChoice::FloorOver(Box::new(PolicyChoice::OnlineGreedy), 4),
            PolicyChoice::BudgetDiverse,
            PolicyChoice::FairDelivery,
        ];
        for c in choices {
            let p = c.build();
            assert!(!p.name().is_empty());
            assert!(!c.label().is_empty());
        }
        assert_eq!(PolicyChoice::Kos { l: 3, r: 5 }.label(), "kos(3,5)");
        assert_eq!(
            PolicyChoice::ParityOver(Box::new(PolicyChoice::RequesterCentric)).label(),
            "parity[requester-centric]"
        );
    }

    #[test]
    fn payment_choice_mirrors_pay_crate() {
        let ctx = PayContext {
            task_reward: Credits::from_cents(100),
            quality: 0.7,
            work_duration: SimDuration::from_mins(5),
        };
        assert_eq!(
            PaymentSchemeChoice::Fixed.payout(&ctx),
            Credits::from_cents(100)
        );
        let qb = PaymentSchemeChoice::QualityBased {
            floor: 0.5,
            full_quality: 0.9,
        };
        assert_eq!(qb.payout(&ctx), Credits::from_cents(50));
    }

    #[test]
    fn default_config_is_consistent() {
        let cfg = ScenarioConfig::default();
        assert!(cfg.rounds > 0);
        assert!(!cfg.workers.is_empty());
        assert!(!cfg.campaigns.is_empty());
    }

    #[test]
    fn population_constructors() {
        let d = WorkerPopulation::diligent(10);
        assert_eq!(d.count, 10);
        assert_eq!(d.archetype, WorkerArchetype::Diligent);
        let s = WorkerPopulation::of(WorkerArchetype::UniformSpammer, 5);
        assert_eq!(s.archetype, WorkerArchetype::UniformSpammer);
        assert_eq!(s.participation, d.participation);
    }

    #[test]
    fn at_scale_multiplies_counts_only() {
        let base = ScenarioConfig::default();
        let doubled = base.at_scale(2.0);
        assert_eq!(doubled.workers[0].count, 2 * base.workers[0].count);
        assert_eq!(doubled.campaigns[0].n_tasks, 2 * base.campaigns[0].n_tasks);
        assert_eq!(doubled.rounds, base.rounds);
        assert_eq!(doubled.seed, base.seed);
        // Cancel-at-target thresholds scale with the work.
        let mut targeted = base.clone();
        targeted.campaigns[0].target_approved = Some(12);
        assert_eq!(
            targeted.at_scale(2.0).campaigns[0].target_approved,
            Some(24)
        );
        assert_eq!(doubled.campaigns[0].target_approved, None);
        // Tiny factors floor at 1 instead of emptying the market.
        let tiny = base.at_scale(0.001);
        assert_eq!(tiny.workers[0].count, 1);
        assert_eq!(tiny.campaigns[0].n_tasks, 1);
        assert!(tiny.validate().is_ok());
    }

    #[test]
    fn labeling_campaign_defaults() {
        let c = CampaignSpec::labeling("acme", 20, 15);
        assert_eq!(c.n_tasks, 20);
        assert_eq!(c.reward, Credits::from_cents(15));
        assert!(c.target_approved.is_none());
        assert!((c.conditions.coverage() - 1.0).abs() < 1e-12);
    }
}
