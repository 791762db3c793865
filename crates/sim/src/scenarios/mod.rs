//! The strategic scenario family — one file per scenario.
//!
//! Unlike the static presets in [`crate::catalog`], which *author* a
//! pathology into the configuration, each scenario here pins a
//! non-static [`crate::strategy::StrategyChoice`] and lets the
//! pathology **emerge** from the convergence loop ([`crate::converge`]):
//! the market is re-simulated under controller-updated strategy state
//! until agent behaviour reaches a fixed point, and the *converged*
//! market is what gets audited.
//!
//! Every scenario is a plain `pub fn config() -> ScenarioConfig` and is
//! addressable by name through [`crate::catalog::get`] exactly like the
//! static family — the catalog stays the single naming authority; this
//! module is just its strategic wing, split one-file-per-scenario so
//! each market design carries its own rationale.

pub(crate) mod s_price_war;
pub(crate) mod s_reform_rush;
pub(crate) mod s_super_turkers;
pub(crate) mod s_undercut_churn;
