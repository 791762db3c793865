//! Agent state: workers with frustration/retention dynamics.
//!
//! The paper's central behavioural claims are: *"a crowdsourcing platform
//! that provides better transparency would generate less frustration among
//! workers and see better worker retention"* (§1) and that fairness level
//! shows up in *contribution quality* (§4.1). Since we simulate workers
//! instead of running the proposed user study, those claims become an
//! explicit, documented behavioural model:
//!
//! * every worker carries a **frustration** level in `[0, 1]`;
//! * unfair/opaque experiences raise it — unexplained rejections hurt
//!   more than explained ones, uncompensated interruption hurts most,
//!   reneged bonuses hurt, and *operating in the dark* (low disclosure
//!   coverage) adds a per-session anxiety term;
//! * frustration decays slowly and drives both the **quit hazard**
//!   (retention, E7) and **motivation** = 1 − frustration, which feeds the
//!   effective accuracy of good-faith workers (quality, E6).
//!
//! The constants are modelling choices, not paper constants (the paper
//! has none); E6/E7 read out the *shape* — monotone responses and
//! orderings — rather than absolute values.

use faircrowd_model::worker::Worker;
use faircrowd_quality::spam::WorkerArchetype;
use serde::{Deserialize, Serialize};

/// Frustration increments for each bad experience.
pub(crate) mod frustration {
    /// Rejection with no explanation (§3.1.2 requester opacity).
    pub(crate) const REJECTED_NO_FEEDBACK: f64 = 0.18;
    /// Rejection with an explanation.
    pub(crate) const REJECTED_WITH_FEEDBACK: f64 = 0.06;
    /// Interrupted mid-task without compensation (Axiom 5 violation).
    pub(crate) const INTERRUPTED_UNPAID: f64 = 0.25;
    /// Interrupted but compensated for invested time.
    pub(crate) const INTERRUPTED_PAID: f64 = 0.08;
    /// A promised bonus was not paid.
    pub(crate) const BONUS_RENEGED: f64 = 0.20;
    /// Per-session anxiety at a fully opaque platform (scaled by
    /// 1 − disclosure coverage).
    pub(crate) const OPACITY_PER_SESSION: f64 = 0.02;
    /// Multiplicative decay per round.
    pub(crate) const DECAY: f64 = 0.995;
    /// Frustration below this never causes quitting.
    pub(crate) const QUIT_KNEE: f64 = 0.5;
    /// Slope of the quit hazard above the knee.
    pub(crate) const QUIT_SLOPE: f64 = 0.45;
    /// Baseline natural churn per session, independent of treatment.
    pub(crate) const NATURAL_CHURN: f64 = 0.0005;
}

/// A worker's live state inside the simulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct WorkerState {
    /// The platform-visible worker record.
    pub(crate) worker: Worker,
    /// Ground-truth behavioural archetype.
    pub(crate) archetype: WorkerArchetype,
    /// Intrinsic accuracy before motivation effects.
    pub(crate) base_accuracy: f64,
    /// Probability of being online each round.
    pub(crate) participation: f64,
    /// Tasks acceptable per round.
    pub(crate) capacity_per_round: u32,
    /// Group along the platform's diversity axis (the declared `region`
    /// attribute), resolved once: declared attributes never change.
    pub(crate) group: Option<String>,
    /// Current frustration in `[0, 1]`.
    pub(crate) frustration: f64,
    /// Has the worker quit for good?
    pub(crate) quit: bool,
    /// Is the worker in a session this round?
    pub(crate) online: bool,
    /// Total seconds of work performed (for wage statistics).
    pub(crate) seconds_worked: u64,
    /// Whether the first-session disclosures were already shown.
    pub(crate) disclosures_shown: bool,
}

impl WorkerState {
    /// Wrap a worker record with behavioural state.
    pub(crate) fn new(
        worker: Worker,
        archetype: WorkerArchetype,
        base_accuracy: f64,
        participation: f64,
        capacity_per_round: u32,
    ) -> Self {
        WorkerState {
            group: worker.declared.group_key("region"),
            worker,
            archetype,
            base_accuracy,
            participation,
            capacity_per_round,
            frustration: 0.0,
            quit: false,
            online: false,
            seconds_worked: 0,
            disclosures_shown: false,
        }
    }

    /// Motivation = 1 − frustration.
    pub(crate) fn motivation(&self) -> f64 {
        (1.0 - self.frustration).clamp(0.0, 1.0)
    }

    /// Register a bad experience.
    pub(crate) fn add_frustration(&mut self, amount: f64) {
        self.frustration = (self.frustration + amount).clamp(0.0, 1.0);
    }

    /// Per-round decay.
    pub(crate) fn decay_frustration(&mut self) {
        self.frustration *= frustration::DECAY;
    }

    /// Probability of quitting at the end of a session: a hinge on
    /// frustration plus natural churn.
    pub(crate) fn quit_hazard(&self) -> f64 {
        let f = self.frustration;
        let hinge = (f - frustration::QUIT_KNEE).max(0.0) * frustration::QUIT_SLOPE;
        (hinge + frustration::NATURAL_CHURN).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_model::attributes::DeclaredAttrs;
    use faircrowd_model::ids::WorkerId;
    use faircrowd_model::skills::SkillVector;

    fn state() -> WorkerState {
        WorkerState::new(
            Worker::new(
                WorkerId::new(0),
                DeclaredAttrs::new(),
                SkillVector::with_len(4),
            ),
            WorkerArchetype::Diligent,
            0.9,
            0.8,
            4,
        )
    }

    #[test]
    fn fresh_worker_is_content() {
        let s = state();
        assert_eq!(s.frustration, 0.0);
        assert_eq!(s.motivation(), 1.0);
        assert!(s.quit_hazard() < 0.001 + 1e-9);
        assert!(!s.quit);
    }

    #[test]
    fn frustration_accumulates_and_clamps() {
        let mut s = state();
        for _ in 0..10 {
            s.add_frustration(frustration::INTERRUPTED_UNPAID);
        }
        assert_eq!(s.frustration, 1.0);
        assert_eq!(s.motivation(), 0.0);
    }

    #[test]
    fn hazard_is_zero_below_knee_and_grows_above() {
        let mut s = state();
        s.frustration = 0.3;
        assert!(s.quit_hazard() < 0.001);
        s.frustration = 0.8;
        let h_mid = s.quit_hazard();
        s.frustration = 1.0;
        let h_max = s.quit_hazard();
        assert!(h_mid > 0.1);
        assert!(h_max > h_mid);
    }

    #[test]
    fn decay_reduces_frustration() {
        let mut s = state();
        s.frustration = 0.5;
        for _ in 0..100 {
            s.decay_frustration();
        }
        assert!(s.frustration < 0.5 && s.frustration > 0.25);
    }

    #[test]
    fn feedback_softens_rejection() {
        // model-shape guards: if someone retunes the constants, the
        // qualitative ordering the experiments rely on must survive
        let no_fb = frustration::REJECTED_NO_FEEDBACK;
        let with_fb = frustration::REJECTED_WITH_FEEDBACK;
        let (unpaid, paid) = (
            frustration::INTERRUPTED_UNPAID,
            frustration::INTERRUPTED_PAID,
        );
        assert!(no_fb > 2.0 * with_fb);
        assert!(unpaid > paid);
    }
}
