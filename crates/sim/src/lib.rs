//! # faircrowd-sim
//!
//! A deterministic crowdsourcing-marketplace simulator.
//!
//! The paper's validation protocol (§4.1) calls for **controlled
//! experiments** measuring objective quantities — contribution quality for
//! fairness, worker retention for transparency. A live platform cannot
//! provide controlled ground truth; this simulator can. It models the full
//! marketplace loop:
//!
//! ```text
//! campaigns post tasks → assignment policy exposes tasks to workers →
//! workers accept, work, submit → requesters approve/reject (with delay,
//! with or without feedback) → payments/bonuses → possible cancellation
//! mid-flight → detection sweeps → worker frustration/retention dynamics
//! ```
//!
//! and emits the complete audit [`faircrowd_model::event::EventLog`] that
//! the `faircrowd-core` audit engine replays. Every run is a pure function
//! of its [`config::ScenarioConfig`] (seed included).
//!
//! Behavioural assumptions (worker frustration, quit hazard, motivation)
//! are documented on `agents::WorkerState` and in DESIGN.md — they are
//! the synthetic stand-in for the user studies the paper proposes.
//!
//! Scenarios are either built field-by-field ([`config::ScenarioConfig`])
//! or taken from the named [`catalog`] (`"baseline"`,
//! `"spam_campaign"`, …) that the CLI and the sweep engine address by
//! string.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod agents;
pub mod catalog;
pub(crate) mod config;
pub mod converge;
pub(crate) mod gen;
pub(crate) mod platform;
pub(crate) mod scenarios;
pub(crate) mod stats;
pub mod strategy;

pub use config::{
    ApprovalPolicy, CampaignSpec, CancellationPolicy, DetectionConfig, PaymentSchemeChoice,
    PolicyChoice, ScenarioConfig, WorkerPopulation,
};
pub use converge::{ConvergeOptions, Converged, IterationSummary};
pub use platform::{LiveSetup, RoundDelta, Simulation};
pub use stats::TraceSummary;
pub use strategy::{StrategyChoice, StrategyState};

/// Run a scenario to completion and return its trace.
pub fn run(config: ScenarioConfig) -> faircrowd_model::Trace {
    Simulation::new(config).run()
}
