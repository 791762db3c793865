//! Disclosure items and disclosure sets.
//!
//! The transparency axioms govern *what information is made available to
//! whom*: Axiom 6 obliges requesters to publish working conditions, Axiom 7
//! obliges the platform to disclose each worker's computed attributes. The
//! tools the paper surveys (Turkopticon, Crowd-Workers, Turkbench,
//! CrowdFlower's accuracy panel, forum scripts revealing auto-approval
//! times) each disclose a subset of the same catalogue of items.
//!
//! [`DisclosureItem`] is that catalogue; [`DisclosureSet`] maps items to
//! the [`Audience`]s allowed to see them. The transparency language
//! (`faircrowd-lang`) compiles policies into `DisclosureSet`s, the
//! simulator enacts them, and the Axiom 6/7 checkers measure their
//! coverage.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Who may see a disclosed item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Audience {
    /// Everyone, including people without a platform account.
    Public,
    /// Any logged-in worker.
    Workers,
    /// Any logged-in requester.
    Requesters,
    /// Only the person the data is about (e.g. a worker sees her own
    /// accuracy).
    Subject,
}

impl Audience {
    /// All audiences, for iteration.
    pub const ALL: [Audience; 4] = [
        Audience::Public,
        Audience::Workers,
        Audience::Requesters,
        Audience::Subject,
    ];

    /// Name as used by the transparency language.
    pub fn name(self) -> &'static str {
        match self {
            Audience::Public => "public",
            Audience::Workers => "workers",
            Audience::Requesters => "requesters",
            Audience::Subject => "subject",
        }
    }
}

impl fmt::Display for Audience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which side of the platform is responsible for a disclosure item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisclosureCategory {
    /// Requester-dependent or task-dependent working conditions (Axiom 6).
    Requester,
    /// Platform-computed information (Axiom 7 and worker aids).
    Platform,
}

macro_rules! disclosure_items {
    ($($(#[$doc:meta])* $variant:ident => ($name:literal, $cat:ident)),+ $(,)?) => {
        /// The catalogue of information a crowdsourcing platform or
        /// requester can disclose.
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub enum DisclosureItem {
            $($(#[$doc])* $variant,)+
        }

        impl DisclosureItem {
            /// All items, for iteration.
            pub const ALL: [DisclosureItem; disclosure_items!(@count $($variant)+)] =
                [$(DisclosureItem::$variant,)+];

            /// The dotted name used by the transparency language.
            pub fn name(self) -> &'static str {
                match self {
                    $(DisclosureItem::$variant => $name,)+
                }
            }

            /// Parse a language-level item name.
            pub fn from_name(s: &str) -> Option<DisclosureItem> {
                match s {
                    $($name => Some(DisclosureItem::$variant),)+
                    _ => None,
                }
            }

            /// Who is responsible for disclosing this item.
            pub fn category(self) -> DisclosureCategory {
                match self {
                    $(DisclosureItem::$variant => DisclosureCategory::$cat,)+
                }
            }
        }
    };
    (@count $($x:ident)+) => { 0usize $(+ disclosure_items!(@one $x))+ };
    (@one $x:ident) => { 1usize };
}

disclosure_items! {
    /// Effective hourly wage of a task (Axiom 6; Crowd-Workers/Turkbench).
    HourlyWage => ("requester.hourly_wage", Requester),
    /// Time between submission and the pay/reject decision (Axiom 6).
    PaymentDelay => ("requester.payment_delay", Requester),
    /// Recruitment criteria: who may take the task (Axiom 6).
    RecruitmentCriteria => ("requester.recruitment_criteria", Requester),
    /// Rejection criteria: when work will be rejected (Axiom 6).
    RejectionCriteria => ("requester.rejection_criteria", Requester),
    /// How contributions are evaluated (Axiom 6).
    EvaluationScheme => ("requester.evaluation_scheme", Requester),
    /// A worker's acceptance ratio (Axiom 7, named in the paper).
    WorkerAcceptanceRatio => ("worker.acceptance_ratio", Platform),
    /// A worker's estimated quality/accuracy (Axiom 7; CrowdFlower panel).
    WorkerQualityEstimate => ("worker.quality_estimate", Platform),
    /// A worker's submission/approval/rejection history (Axiom 7).
    WorkerHistory => ("worker.history", Platform),
    /// Mean time until a worker's submissions are judged (Axiom 7).
    WorkerApprovalLatency => ("worker.approval_latency", Platform),
    /// A worker's lifetime earnings (Axiom 7).
    WorkerEarnings => ("worker.earnings", Platform),
    /// A worker's session count (Axiom 7).
    WorkerSessions => ("worker.sessions", Platform),
    /// Community rating of a requester (Turkopticon).
    RequesterRating => ("requester.rating", Platform),
    /// Per-task community rating (CrowdFlower task browsing).
    TaskRating => ("task.rating", Platform),
    /// Time until automatic approval of a submission (forum scripts).
    AutoApprovalTime => ("platform.auto_approval_time", Platform),
    /// Progress and worker statistics for a requester's own campaigns.
    CampaignProgress => ("requester.campaign_progress", Platform),
}

impl fmt::Display for DisclosureItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl DisclosureItem {
    /// The items Axiom 7 requires the platform to disclose to each worker
    /// (her computed attributes `C_w`).
    pub const AXIOM7_REQUIRED: [DisclosureItem; 6] = [
        DisclosureItem::WorkerAcceptanceRatio,
        DisclosureItem::WorkerQualityEstimate,
        DisclosureItem::WorkerHistory,
        DisclosureItem::WorkerApprovalLatency,
        DisclosureItem::WorkerEarnings,
        DisclosureItem::WorkerSessions,
    ];

    /// The items Axiom 6 requires requesters to make available to workers.
    pub const AXIOM6_REQUIRED: [DisclosureItem; 5] = [
        DisclosureItem::HourlyWage,
        DisclosureItem::PaymentDelay,
        DisclosureItem::RecruitmentCriteria,
        DisclosureItem::RejectionCriteria,
        DisclosureItem::EvaluationScheme,
    ];
}

/// A set of disclosure grants: which items are visible to which audiences.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisclosureSet {
    grants: BTreeSet<(DisclosureItem, Audience)>,
}

impl DisclosureSet {
    /// The empty (fully opaque) disclosure set.
    pub fn opaque() -> Self {
        Self::default()
    }

    /// A fully transparent set: every item public.
    pub fn fully_transparent() -> Self {
        let mut s = Self::default();
        for item in DisclosureItem::ALL {
            s.grant(item, Audience::Public);
        }
        s
    }

    /// Grant an audience access to an item.
    pub fn grant(&mut self, item: DisclosureItem, audience: Audience) {
        self.grants.insert((item, audience));
    }

    /// Builder-style grant.
    pub fn with(mut self, item: DisclosureItem, audience: Audience) -> Self {
        self.grant(item, audience);
        self
    }

    /// Is `item` visible to `viewer`? A `Public` grant admits every
    /// audience; a `Workers`/`Requesters` grant admits the matching role
    /// and the subject when the subject has that role (the subject of a
    /// worker attribute *is* a worker, so a Workers grant covers her).
    pub fn allows(&self, item: DisclosureItem, viewer: Audience) -> bool {
        if self.grants.contains(&(item, Audience::Public)) {
            return true;
        }
        if self.grants.contains(&(item, viewer)) {
            return true;
        }
        // Subject access is implied by a grant to the subject's own role
        // for worker.* items.
        viewer == Audience::Subject
            && item.name().starts_with("worker.")
            && self.grants.contains(&(item, Audience::Workers))
    }

    /// Number of grants.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// True when nothing is disclosed.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Iterate all grants in deterministic order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DisclosureItem, Audience)> + '_ {
        self.grants.iter().copied()
    }

    /// Coverage of Axiom 7: fraction of the required worker attributes
    /// that the worker herself can see.
    pub fn axiom7_coverage(&self) -> f64 {
        let covered = DisclosureItem::AXIOM7_REQUIRED
            .iter()
            .filter(|&&i| self.allows(i, Audience::Subject))
            .count();
        covered as f64 / DisclosureItem::AXIOM7_REQUIRED.len() as f64
    }

    /// Coverage of Axiom 6 at the platform level: fraction of the required
    /// working-condition items visible to workers.
    pub fn axiom6_coverage(&self) -> f64 {
        let covered = DisclosureItem::AXIOM6_REQUIRED
            .iter()
            .filter(|&&i| self.allows(i, Audience::Workers))
            .count();
        covered as f64 / DisclosureItem::AXIOM6_REQUIRED.len() as f64
    }

    /// Items granted to `viewer` (directly or via Public), in order.
    pub fn items_for(&self, viewer: Audience) -> Vec<DisclosureItem> {
        DisclosureItem::ALL
            .into_iter()
            .filter(|&i| self.allows(i, viewer))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_names_roundtrip() {
        for item in DisclosureItem::ALL {
            assert_eq!(DisclosureItem::from_name(item.name()), Some(item));
        }
        assert_eq!(DisclosureItem::from_name("nope"), None);
    }

    #[test]
    fn audience_names_roundtrip() {
        use crate::codec::Named;
        for a in Audience::ALL {
            assert_eq!(Audience::from_name(a.name()), Some(a));
        }
        assert_eq!(Audience::from_name("martians"), None);
    }

    #[test]
    fn public_grant_admits_everyone() {
        let s = DisclosureSet::opaque().with(DisclosureItem::TaskRating, Audience::Public);
        for viewer in Audience::ALL {
            assert!(s.allows(DisclosureItem::TaskRating, viewer));
        }
        assert!(!s.allows(DisclosureItem::HourlyWage, Audience::Public));
    }

    #[test]
    fn role_grant_is_role_scoped() {
        let s =
            DisclosureSet::opaque().with(DisclosureItem::CampaignProgress, Audience::Requesters);
        assert!(s.allows(DisclosureItem::CampaignProgress, Audience::Requesters));
        assert!(!s.allows(DisclosureItem::CampaignProgress, Audience::Workers));
        assert!(!s.allows(DisclosureItem::CampaignProgress, Audience::Public));
    }

    #[test]
    fn workers_grant_implies_subject_for_worker_items() {
        let s =
            DisclosureSet::opaque().with(DisclosureItem::WorkerAcceptanceRatio, Audience::Workers);
        assert!(s.allows(DisclosureItem::WorkerAcceptanceRatio, Audience::Subject));
        // but not for non-worker items
        let s2 = DisclosureSet::opaque().with(DisclosureItem::TaskRating, Audience::Workers);
        assert!(!s2.allows(DisclosureItem::TaskRating, Audience::Subject));
    }

    #[test]
    fn axiom7_coverage_counts_subject_visible_attrs() {
        assert_eq!(DisclosureSet::opaque().axiom7_coverage(), 0.0);
        assert_eq!(DisclosureSet::fully_transparent().axiom7_coverage(), 1.0);
        let partial = DisclosureSet::opaque()
            .with(DisclosureItem::WorkerAcceptanceRatio, Audience::Subject)
            .with(DisclosureItem::WorkerQualityEstimate, Audience::Subject)
            .with(DisclosureItem::WorkerHistory, Audience::Subject);
        assert!((partial.axiom7_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn axiom6_coverage() {
        assert_eq!(DisclosureSet::opaque().axiom6_coverage(), 0.0);
        let s = DisclosureSet::opaque()
            .with(DisclosureItem::HourlyWage, Audience::Workers)
            .with(DisclosureItem::RejectionCriteria, Audience::Public);
        assert!((s.axiom6_coverage() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn items_for_is_deterministic() {
        let s = DisclosureSet::fully_transparent();
        let items = s.items_for(Audience::Public);
        assert_eq!(items.len(), DisclosureItem::ALL.len());
        let again = s.items_for(Audience::Public);
        assert_eq!(items, again);
    }

    #[test]
    fn categories() {
        assert_eq!(
            DisclosureItem::HourlyWage.category(),
            DisclosureCategory::Requester
        );
        assert_eq!(
            DisclosureItem::WorkerEarnings.category(),
            DisclosureCategory::Platform
        );
    }
}
