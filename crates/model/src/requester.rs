//! Requesters.
//!
//! The paper identifies requesters only by `id_r`, but the transparency
//! axioms (and the Turkopticon-style tooling the paper surveys) attach
//! observable behaviour to them: how fast they pay, how often they reject,
//! whether they give feedback, and the community rating derived from all of
//! that.

use crate::ids::RequesterId;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A requester profile with the reputation statistics worker-facing tools
/// (Turkopticon, Turker Nation) derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Requester {
    /// Unique requester identifier `id_r`.
    pub(crate) id: RequesterId,
    /// Display name for reports.
    pub(crate) name: String,
    /// Submissions approved.
    pub approved: u64,
    /// Submissions rejected.
    pub rejected: u64,
    /// Rejections that carried an explanation (feedback).
    pub rejections_with_feedback: u64,
    /// Mean time between submission and the approval/rejection decision.
    pub mean_decision_latency: SimDuration,
    /// Bonuses promised.
    pub bonuses_promised: u64,
    /// Bonuses actually paid.
    pub bonuses_paid: u64,
}

impl Requester {
    /// A requester with no history.
    pub fn new(id: RequesterId, name: impl Into<String>) -> Self {
        Requester {
            id,
            name: name.into(),
            approved: 0,
            rejected: 0,
            rejections_with_feedback: 0,
            mean_decision_latency: SimDuration::ZERO,
            bonuses_promised: 0,
            bonuses_paid: 0,
        }
    }
}
