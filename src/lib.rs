//! # FairCrowd
//!
//! A Rust implementation of **"Fairness and Transparency in
//! Crowdsourcing"** (Borromeo, Laurent, Toyama, Amer-Yahia; EDBT 2017):
//! the paper's seven fairness/transparency axioms as an executable audit
//! framework, the declarative transparency-policy language it proposes,
//! fairness-enforcement machinery, and the marketplace simulator +
//! baseline algorithms needed to run the paper's validation protocol as
//! controlled experiments.
//!
//! ## Crate map
//!
//! | Crate | What it holds |
//! |-------|---------------|
//! | [`model`] | the §3.2 data model: tasks, workers, skills, contributions, events, traces |
//! | [`quality`] | truth inference (majority, Dawid–Skene, KOS) and spam detection |
//! | [`pay`] | compensation schemes, wage statistics |
//! | [`assign`] | assignment policies (self-selection → requester-centric → KOS) and fairness wrappers |
//! | [`sim`] | the deterministic marketplace simulator |
//! | [`core`] | **the paper's contribution**: Axioms 1–7, the audit engine, metrics, enforcement |
//! | [`lang`] | **TPL**, the declarative transparency-policy language |
//!
//! ## Sixty-second tour
//!
//! The [`pipeline::Pipeline`] is the front door: it owns the paper's
//! §4.1 validation loop (scenario → simulate → audit → enforce →
//! re-audit) end to end. The [`sweep`] module scales that loop to the
//! full validation *matrix* — grids of scenarios × policies × seeds ×
//! scales run on a thread pool and folded into deterministic aggregate
//! statistics. Scenarios come from the named catalog
//! ([`sim::catalog`]): `"baseline"`, `"spam_campaign"`,
//! `"transparent_utopia"`, ….
//!
//! ```
//! use faircrowd::prelude::*;
//!
//! // 1. Simulate a market under a registry-selected assignment policy
//! //    (fully deterministic in the seed) and audit it against the
//! //    paper's seven axioms.
//! let result = Pipeline::new()
//!     .policy_name("round_robin")?
//!     .seed(42)
//!     .rounds(24)
//!     .enforce(Enforcement::MinimalTransparency)
//!     .run()?;
//! println!("{}", result.render());
//! assert!(result.report().overall_score() > 0.5);
//!
//! // 2. Express a transparency policy declaratively and read it back.
//! let policy = faircrowd::lang::compile_one(
//!     r#"policy "mine" {
//!            disclose worker.acceptance_ratio to subject always;
//!            require requester discloses rejection_criteria before posting;
//!        }"#,
//! )?;
//! println!("{}", faircrowd::lang::render::render_policy(&policy));
//! # Ok::<(), faircrowd::FaircrowdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faircrowd_assign as assign;
pub use faircrowd_core as core;
pub use faircrowd_lang as lang;
pub use faircrowd_model as model;
pub use faircrowd_pay as pay;
pub use faircrowd_quality as quality;
pub use faircrowd_sim as sim;

pub mod frontier;
pub mod pipeline;
pub mod sweep;

pub use faircrowd_model::FaircrowdError;
pub use frontier::{FrontierPoint, FrontierResult};
pub use pipeline::{Enforcement, LiveRunArtifacts, Pipeline, PipelineResult};
pub use sweep::{SweepGrid, SweepResult};

/// Compile every fenced Rust block in the README as a doctest, so the
/// quickstart the README teaches is guaranteed to build against the
/// current API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub(crate) struct ReadmeDoctests;

/// The items most programs need.
pub mod prelude {
    pub use crate::pipeline::{
        Enforcement, LiveRunArtifacts, Pipeline, PipelineResult, RunArtifacts,
    };
    pub use crate::sweep::{SweepGrid, SweepResult};
    pub use faircrowd_core::{
        AuditConfig, AuditDaemon, AuditEngine, AxiomId, Checkpoint, DaemonConfig, DaemonFinding,
        DaemonReport, FairnessReport, FindingOrigin, LiveAuditor, LiveFinding, MarketSource,
        SimilarityConfig,
    };
    pub use faircrowd_model::prelude::*;
    pub use faircrowd_sim::{
        ApprovalPolicy, CampaignSpec, CancellationPolicy, DetectionConfig, PaymentSchemeChoice,
        PolicyChoice, ScenarioConfig, Simulation, TraceSummary, WorkerPopulation,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_crates_together() {
        let trace = crate::sim::run(ScenarioConfig::default());
        assert!(trace.validate().is_empty());
        let report = AuditEngine::with_defaults().run(&trace);
        assert_eq!(report.axioms.len(), 7);
        assert!((0.0..=1.0).contains(&report.overall_score()));
    }
}
