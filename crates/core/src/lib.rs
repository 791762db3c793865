//! # faircrowd-core
//!
//! The paper's primary contribution, executable: the seven **fairness and
//! transparency axioms** of §3.2 as checkers over platform traces, an
//! audit engine that runs them (the "fairness check benchmarks and
//! algorithms" of §3.3.1), the objective fairness metrics of §4.1, and
//! enforcement helpers for building fair platforms *by design*.
//!
//! | Axiom | Statement (abridged) | Checker |
//! |-------|----------------------|---------|
//! | 1 | similar workers get access to the same tasks | `axioms::a1` |
//! | 2 | similar tasks are shown to the same workers | `axioms::a2` |
//! | 3 | similar contributions to a task earn the same reward | `axioms::a3` |
//! | 4 | requesters can detect malicious workers | `axioms::a4` |
//! | 5 | started work is not interrupted | `axioms::a5` |
//! | 6 | requesters disclose working conditions | `axioms::a6` |
//! | 7 | the platform discloses computed worker attributes | `axioms::a7` |
//!
//! Similarity is pluggable per the paper ("ranges from perfect equality to
//! threshold-based similarity"): every check takes a
//! [`faircrowd_model::similarity::SimilarityConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub(crate) mod audit;
pub(crate) mod axiom;
pub mod axioms;
pub mod checkpoint;
pub mod daemon;
pub mod enforce;
pub mod index;
mod journal;
pub mod live;
pub mod metrics;
pub mod persist;
pub mod report;

pub use aggregate::{AxiomAggregate, ReportAggregate, ScoreStats};
pub use audit::{AuditConfig, AuditEngine, FairnessReport};
pub use axiom::{Axiom, AxiomId, AxiomReport, AxiomTally, Violation};
pub use checkpoint::Checkpoint;
pub use daemon::{AuditDaemon, DaemonConfig, DaemonFinding, DaemonReport, MarketSource};
pub use faircrowd_model::similarity::SimilarityConfig;
pub use index::TraceIndex;
pub use live::{FindingOrigin, LiveAuditor, LiveFinding};
