//! Pluggable agent strategies: the decision layer of the simulator.
//!
//! The platform loop in `crate::platform` used to hard-code two agent
//! decisions: *workers take every assignment the policy hands them* and
//! *requesters post exactly the reward their campaign spec states*.
//! This module extracts both behind a trait pair —
//! `WorkerStrategy` / `RequesterStrategy` — so the same marketplace
//! engine can run **strategic** agents whose decisions respond to what
//! the market actually paid them (see [`crate::converge`] for the outer
//! fixed-point loop that feeds realized wages back into
//! [`StrategyState`]).
//!
//! The original behaviour is the named [`StrategyChoice::Static`]
//! strategy, and it is preserved **bit-identical**: the static
//! implementations accept every offer and pass the spec reward through
//! unchanged, make **zero RNG draws**, and therefore leave the platform's
//! random stream — and every existing trace — byte-for-byte untouched.
//!
//! Strategic decisions are deliberately RNG-free as well: they read only
//! the numeric [`StrategyState`] the convergence controller sets
//! *between* iterations, so each simulation pass stays a pure function
//! of `(ScenarioConfig, StrategyState)` and the whole loop is a pure
//! function of the seed.
//!
//! The three strategic profiles (PAPERS.md):
//!
//! * [`StrategyChoice::ReputationTemporal`] — REFORM-style
//!   reputation-temporal reward seeking: a worker's asking wage scales
//!   with her platform-computed standing, so well-reputed workers stop
//!   taking under-priced work.
//! * [`StrategyChoice::SuperTurker`] — the "Super Turker" selection
//!   strategy (Savage et al.): workers learn a reservation hourly wage
//!   from what tasks actually paid and decline offers below it.
//! * [`StrategyChoice::PriceUndercut`] — requester price undercutting:
//!   a requester whose tasks fill easily shaves the posted reward, one
//!   whose tasks starve raises it.

use crate::config::ScenarioConfig;
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::money::Credits;
use faircrowd_model::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Canonical names of the strategy registry, in presentation order.
pub const NAMES: [&str; 4] = [
    "static",
    "reputation_temporal",
    "super_turker",
    "price_undercut",
];

/// Which strategy profile a scenario's agents follow. An enum (rather
/// than trait objects in the config) so configurations stay
/// serialisable and sweepable, exactly like
/// [`crate::config::PolicyChoice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StrategyChoice {
    /// The pre-strategy behaviour: workers accept everything, requesters
    /// post spec rewards. Bit-identical to the simulator before the
    /// strategy layer existed.
    #[default]
    Static,
    /// REFORM-style reputation-temporal reward seeking (workers).
    ReputationTemporal,
    /// Super-Turker reservation-wage task selection (workers).
    SuperTurker,
    /// Requester price undercutting (requesters).
    PriceUndercut,
}

impl StrategyChoice {
    /// Resolve a registry name into a strategy choice, with the same
    /// canonicalisation as the policy and scenario registries
    /// (case-insensitive, `-` accepted for `_`, trimmed). Unknown names
    /// report [`FaircrowdError::UnknownStrategy`] listing [`NAMES`].
    pub fn by_name(name: &str) -> Result<Self, FaircrowdError> {
        use faircrowd_assign::registry::canonical;
        let choice = match canonical(name).as_str() {
            "static" => StrategyChoice::Static,
            "reputation_temporal" => StrategyChoice::ReputationTemporal,
            "super_turker" => StrategyChoice::SuperTurker,
            "price_undercut" => StrategyChoice::PriceUndercut,
            _ => {
                return Err(FaircrowdError::UnknownStrategy {
                    name: name.to_owned(),
                    available: NAMES.iter().map(|n| (*n).to_owned()).collect(),
                })
            }
        };
        Ok(choice)
    }

    /// The canonical registry name.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyChoice::Static => "static",
            StrategyChoice::ReputationTemporal => "reputation_temporal",
            StrategyChoice::SuperTurker => "super_turker",
            StrategyChoice::PriceUndercut => "price_undercut",
        }
    }

    /// Build the worker-side strategy implementation.
    pub(crate) fn worker_strategy(&self) -> Box<dyn WorkerStrategy> {
        match self {
            StrategyChoice::ReputationTemporal => Box::new(ReputationTemporalWorker),
            StrategyChoice::SuperTurker => Box::new(SuperTurkerWorker),
            _ => Box::new(StaticWorker),
        }
    }

    /// Build the requester-side strategy implementation.
    pub(crate) fn requester_strategy(&self) -> Box<dyn RequesterStrategy> {
        match self {
            StrategyChoice::PriceUndercut => Box::new(PriceUndercutRequester),
            _ => Box::new(StaticRequester),
        }
    }
}

/// What a worker sees when the assignment policy hands her a task: the
/// offer terms plus her own platform-computed standing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskOffer {
    /// The posted reward for one assignment.
    pub(crate) reward: Credits,
    /// The honest completion-time estimate.
    pub(crate) est_duration: SimDuration,
    /// The worker's platform-computed quality estimate in `[0, 1]`.
    pub(crate) quality_estimate: f64,
    /// The worker's acceptance ratio (approved / judged, 1.0 when fresh).
    pub(crate) acceptance_ratio: f64,
}

impl TaskOffer {
    /// The offer's implied hourly rate in dollars per hour (the
    /// Super-Turker selection signal). An instantaneous task counts as
    /// arbitrarily well paid.
    pub(crate) fn hourly_rate(&self) -> f64 {
        let hours = self.est_duration.as_secs() as f64 / 3600.0;
        if hours <= 0.0 {
            f64::INFINITY
        } else {
            self.reward.as_dollars_f64() / hours
        }
    }
}

/// The worker side of a strategy: whether to take an offered assignment.
///
/// Implementations must be deterministic and RNG-free — decisions read
/// only the offer and the iteration-frozen [`StrategyState`].
pub(crate) trait WorkerStrategy: Send + Sync {
    /// Does worker `worker` (dense index) take this offer? The static
    /// strategy always says yes.
    fn accepts(&self, state: &StrategyState, worker: usize, offer: &TaskOffer) -> bool;
}

/// The requester side of a strategy: what reward to actually post for a
/// task whose campaign spec says `base`.
///
/// Implementations must be deterministic and RNG-free.
pub(crate) trait RequesterStrategy: Send + Sync {
    /// The reward requester `requester` (dense index) posts. The static
    /// strategy returns `base` unchanged — the exact same `Credits`.
    fn post_reward(&self, state: &StrategyState, requester: usize, base: Credits) -> Credits;
}

/// Pre-strategy worker behaviour: take everything.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StaticWorker;

impl WorkerStrategy for StaticWorker {
    fn accepts(&self, _state: &StrategyState, _worker: usize, _offer: &TaskOffer) -> bool {
        true
    }
}

/// Pre-strategy requester behaviour: post the spec reward.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StaticRequester;

impl RequesterStrategy for StaticRequester {
    fn post_reward(&self, _state: &StrategyState, _requester: usize, base: Credits) -> Credits {
        base
    }
}

/// Super-Turker task selection: decline offers whose hourly rate falls
/// below the worker's learned reservation wage. Reservations start at
/// zero (accept everything — exactly the static behaviour on the first
/// convergence iteration) and are moved by the controller toward a
/// fraction of the wage the worker actually realized.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SuperTurkerWorker;

impl WorkerStrategy for SuperTurkerWorker {
    fn accepts(&self, state: &StrategyState, worker: usize, offer: &TaskOffer) -> bool {
        offer.hourly_rate() >= state.reservation(worker)
    }
}

/// REFORM-style reputation-temporal reward seeking: the worker's
/// effective asking wage is her learned aspiration scaled by her current
/// platform standing (the mean of quality estimate and acceptance
/// ratio), so reputation earned *during* a run immediately raises the
/// bar for the offers she will still take.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReputationTemporalWorker;

impl ReputationTemporalWorker {
    /// How strongly standing scales the asking wage: a zero-reputation
    /// worker asks 40% of her aspiration, a perfect one asks 100%.
    pub(crate) const STANDING_FLOOR: f64 = 0.4;
}

impl WorkerStrategy for ReputationTemporalWorker {
    fn accepts(&self, state: &StrategyState, worker: usize, offer: &TaskOffer) -> bool {
        let standing = 0.5 * (offer.quality_estimate + offer.acceptance_ratio);
        let asking = state.reservation(worker)
            * (Self::STANDING_FLOOR + (1.0 - Self::STANDING_FLOOR) * standing.clamp(0.0, 1.0));
        offer.hourly_rate() >= asking
    }
}

/// Requester price undercutting: post the spec reward scaled by the
/// requester's learned multiplier. Multipliers start at 1.0 (the exact
/// spec reward — static behaviour on the first convergence iteration)
/// and are nudged down while the requester's tasks over-fill, up while
/// they starve, clamped to [`PriceUndercutRequester::MIN_MULTIPLIER`] ..
/// [`PriceUndercutRequester::MAX_MULTIPLIER`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PriceUndercutRequester;

impl PriceUndercutRequester {
    /// A requester never undercuts below half the spec reward.
    pub(crate) const MIN_MULTIPLIER: f64 = 0.5;
    /// Nor bids above 1.5× the spec reward.
    pub(crate) const MAX_MULTIPLIER: f64 = 1.5;
}

impl RequesterStrategy for PriceUndercutRequester {
    fn post_reward(&self, state: &StrategyState, requester: usize, base: Credits) -> Credits {
        let m = state.multiplier(requester);
        if m == 1.0 {
            // Exact passthrough at the neutral multiplier, so iteration 1
            // posts the same `Credits` the static simulator would.
            base
        } else {
            base.mul_f64(m)
        }
    }
}

/// The numeric state strategic decisions read — per-worker reservation
/// wages (dollars per hour) and per-requester price multipliers. The
/// convergence controller ([`crate::converge`]) is the only writer; the
/// simulation itself never mutates it, which keeps each pass a pure
/// function of `(config, state)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyState {
    /// Per-worker reservation/aspiration hourly wage in dollars. All
    /// zeros initially: every offer clears the bar, so iteration 1 is
    /// exactly the static run.
    pub(crate) reservation: Vec<f64>,
    /// Per-requester posted-price multiplier. All 1.0 initially.
    pub(crate) multiplier: Vec<f64>,
}

impl StrategyState {
    /// The neutral state for a scenario: one zero reservation per worker
    /// (populations in config order) and one 1.0 multiplier per distinct
    /// requester name (first-seen order, matching the simulator's
    /// requester numbering).
    pub(crate) fn initial(cfg: &ScenarioConfig) -> StrategyState {
        let n_workers: usize = cfg.workers.iter().map(|p| p.count as usize).sum();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let n_requesters = cfg
            .campaigns
            .iter()
            .filter(|c| seen.insert(c.requester.as_str()))
            .count();
        StrategyState {
            reservation: vec![0.0; n_workers],
            multiplier: vec![1.0; n_requesters],
        }
    }

    /// Worker `w`'s reservation wage (0.0 when out of range — a scaled
    /// or hand-built config with more workers than the state was sized
    /// for behaves statically for the extras rather than panicking).
    pub(crate) fn reservation(&self, w: usize) -> f64 {
        self.reservation.get(w).copied().unwrap_or(0.0)
    }

    /// Requester `r`'s price multiplier (1.0 when out of range).
    pub(crate) fn multiplier(&self, r: usize) -> f64 {
        self.multiplier.get(r).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignSpec;

    fn offer(cents: i64, mins: u64) -> TaskOffer {
        TaskOffer {
            reward: Credits::from_cents(cents),
            est_duration: SimDuration::from_mins(mins),
            quality_estimate: 0.8,
            acceptance_ratio: 0.9,
        }
    }

    #[test]
    fn names_resolve_and_canonicalise() {
        assert_eq!(
            StrategyChoice::by_name("Super-Turker").unwrap(),
            StrategyChoice::SuperTurker
        );
        assert_eq!(
            StrategyChoice::by_name(" STATIC ").unwrap(),
            StrategyChoice::Static
        );
        for name in NAMES {
            let c = StrategyChoice::by_name(name).unwrap();
            assert_eq!(c.label(), name);
        }
        match StrategyChoice::by_name("greedy") {
            Err(FaircrowdError::UnknownStrategy { name, available }) => {
                assert_eq!(name, "greedy");
                assert_eq!(available.len(), NAMES.len());
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn static_pair_is_passthrough() {
        let state = StrategyState {
            reservation: vec![99.0],
            multiplier: vec![0.5],
        };
        // Even over a hostile state, the static pair ignores it.
        assert!(StaticWorker.accepts(&state, 0, &offer(1, 600)));
        let base = Credits::from_cents(7);
        assert_eq!(StaticRequester.post_reward(&state, 0, base), base);
    }

    #[test]
    fn super_turker_declines_below_reservation() {
        let mut state = StrategyState {
            reservation: vec![0.0],
            multiplier: vec![],
        };
        // 10¢ / 5 min = $1.20/h.
        assert!(SuperTurkerWorker.accepts(&state, 0, &offer(10, 5)));
        state.reservation[0] = 2.0;
        assert!(!SuperTurkerWorker.accepts(&state, 0, &offer(10, 5)));
        assert!(SuperTurkerWorker.accepts(&state, 0, &offer(20, 5)));
        // Out-of-range workers behave statically.
        assert!(SuperTurkerWorker.accepts(&state, 7, &offer(1, 600)));
    }

    #[test]
    fn reputation_scales_the_asking_wage() {
        let state = StrategyState {
            reservation: vec![2.0],
            multiplier: vec![],
        };
        // $1.20/h offer, $2/h aspiration: a low-standing worker asks
        // 0.4 × 2 = $0.80/h and takes it; a perfect-standing worker
        // asks the full $2/h and declines.
        let mut low = offer(10, 5);
        low.quality_estimate = 0.0;
        low.acceptance_ratio = 0.0;
        assert!(ReputationTemporalWorker.accepts(&state, 0, &low));
        let mut high = offer(10, 5);
        high.quality_estimate = 1.0;
        high.acceptance_ratio = 1.0;
        assert!(!ReputationTemporalWorker.accepts(&state, 0, &high));
    }

    #[test]
    fn undercut_scales_reward_and_is_exact_at_neutral() {
        let state = StrategyState {
            reservation: vec![],
            multiplier: vec![1.0, 0.8],
        };
        let base = Credits::from_cents(10);
        assert_eq!(PriceUndercutRequester.post_reward(&state, 0, base), base);
        assert_eq!(
            PriceUndercutRequester.post_reward(&state, 1, base),
            Credits::from_cents(8)
        );
        // Out-of-range requesters behave statically.
        assert_eq!(PriceUndercutRequester.post_reward(&state, 9, base), base);
    }

    #[test]
    fn initial_state_matches_population_and_requester_counts() {
        let cfg = ScenarioConfig {
            campaigns: vec![
                CampaignSpec::labeling("acme", 5, 10),
                CampaignSpec::labeling("globex", 5, 10),
                CampaignSpec::labeling("acme", 5, 12),
            ],
            ..Default::default()
        };
        let state = StrategyState::initial(&cfg);
        assert_eq!(state.reservation.len(), 20);
        assert_eq!(state.multiplier.len(), 2, "acme posts twice, counts once");
        assert!(state.reservation.iter().all(|&r| r == 0.0));
        assert!(state.multiplier.iter().all(|&m| m == 1.0));
    }

    #[test]
    fn zero_duration_offers_are_infinitely_paid() {
        let o = TaskOffer {
            reward: Credits::from_cents(1),
            est_duration: SimDuration::ZERO,
            quality_estimate: 0.5,
            acceptance_ratio: 0.5,
        };
        assert!(o.hourly_rate().is_infinite());
    }
}
