//! # faircrowd-model
//!
//! Shared data model for the FairCrowd workspace — a faithful Rust rendering
//! of the formal model in §3.2 of *"Fairness and Transparency in
//! Crowdsourcing"* (Borromeo, Laurent, Toyama, Amer-Yahia; EDBT 2017):
//!
//! * a set of **tasks** `T = {t1, …, tn}` where each task is a tuple
//!   `(id_t, id_r, S_t, d_t)` — identifier, requester, required-skill vector
//!   and reward ([`Task`]);
//! * a set of **workers** `W = {w1, …, wp}` where each worker is a tuple
//!   `(id_w, A_w, C_w, S_w)` — identifier, self-declared attributes,
//!   platform-computed attributes and skill vector ([`Worker`]);
//! * a set of **skill keywords** `S = {s1, …, sm}`, each a dense [`SkillId`];
//!   a task's `S_t` and a worker's `S_w` are [`SkillVector`]s over them.
//!
//! On top of the paper's tuples, this crate provides everything the axioms
//! quantify over: the audit-log [`event`] vocabulary, [`Contribution`]s with
//! the paper's suggested similarity measures (n-grams for text [Damashek 95],
//! DCG for ranked lists [Järvelin–Kekäläinen 02]), fixed-point [`money`],
//! deterministic [`time`], disclosure items for the transparency axioms, and
//! the [`trace::Trace`] type that the simulator produces and the audit
//! engine consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod attributes;
pub mod codec;
pub mod contribution;
pub mod disclosure;
pub mod error;
pub mod event;
pub mod fields;
pub mod ids;
pub mod json;
pub mod money;
pub mod names;
pub mod ranking;
pub mod requester;
mod schema;
pub mod similarity;
pub mod skills;
pub mod stats;
pub mod task;
pub mod text;
pub mod time;
pub mod trace;
pub mod trace_bin;
pub mod trace_io;
pub mod worker;

pub use attributes::{AttrValue, ComputedAttrs, DeclaredAttrs};
pub use contribution::{Contribution, Submission};
pub use disclosure::{Audience, DisclosureItem, DisclosureSet};
pub use error::FaircrowdError;
pub use event::{Event, EventKind, EventLog};
pub use ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};
pub use money::Credits;
pub use requester::Requester;
pub use skills::SkillVector;
pub use task::{Task, TaskKind};
pub use time::{SimDuration, SimTime};
pub use trace::Trace;
pub use worker::Worker;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::attributes::{AttrValue, ComputedAttrs, DeclaredAttrs};
    pub use crate::contribution::{Contribution, Submission};
    pub use crate::disclosure::{Audience, DisclosureItem, DisclosureSet};
    pub use crate::error::FaircrowdError;
    pub use crate::event::{Event, EventKind, EventLog};
    pub use crate::ids::*;
    pub use crate::money::Credits;
    pub use crate::requester::Requester;
    pub use crate::skills::SkillVector;
    pub use crate::task::{Task, TaskKind};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::Trace;
    pub use crate::worker::Worker;
}
