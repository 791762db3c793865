//! Tasks.
//!
//! A task is the paper's tuple `(id_t, id_r, S_t, d_t)` (§3.2): identifier,
//! requester, required-skill vector and reward. We extend the tuple with the
//! operational metadata a real platform carries — the task kind, the number
//! of assignments (HITs) wanted, time budget — and with the **disclosed
//! working conditions** that Axiom 6 (requester transparency) checks for.

use crate::ids::{CampaignId, RequesterId, TaskId};
use crate::money::Credits;
use crate::skills::SkillVector;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// What kind of contribution a task expects. The kind determines which
/// similarity measure Axiom 3 applies to contributions (§3.2.1: n-grams for
/// text, DCG for ranked lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Choose one of `k` labels (image recognition, sentiment analysis…).
    Labeling {
        /// Number of label classes.
        classes: u8,
    },
    /// Produce free text (translation, summarisation…).
    FreeText,
    /// Produce a ranking of `items` items.
    Ranking {
        /// Number of items to rank.
        items: u8,
    },
    /// Answer a survey (no ground truth; every good-faith answer is valid).
    Survey,
}

/// The requester-dependent and task-dependent working conditions that
/// Axiom 6 requires a requester to make available: "hourly wage and time
/// between submission of work and payment … recruitment criteria and
/// rejection criteria" (§3.2.2). Each field is optional because real
/// requesters routinely omit them — that omission is what the axiom
/// detects.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskConditions {
    /// Expected effective hourly wage, if the requester discloses it.
    pub stated_hourly_wage: Option<Credits>,
    /// Promised time between submission and payment decision.
    pub stated_payment_delay: Option<SimDuration>,
    /// Who may work on the task (qualification text).
    pub recruitment_criteria: Option<String>,
    /// Under which conditions work is rejected.
    pub rejection_criteria: Option<String>,
    /// How contributions are evaluated/scored.
    pub evaluation_scheme: Option<String>,
}

impl TaskConditions {
    /// Fully disclosed conditions (used by fair-by-design scenarios).
    pub fn fully_disclosed(wage: Credits, delay: SimDuration) -> Self {
        TaskConditions {
            stated_hourly_wage: Some(wage),
            stated_payment_delay: Some(delay),
            recruitment_criteria: Some("qualified workers per skill vector".into()),
            rejection_criteria: Some("rejected only when gold checks fail".into()),
            evaluation_scheme: Some("majority agreement with gold checks".into()),
        }
    }

    /// Number of the five Axiom-6 obligations that are disclosed.
    pub(crate) fn disclosed_count(&self) -> usize {
        usize::from(self.stated_hourly_wage.is_some())
            + usize::from(self.stated_payment_delay.is_some())
            + usize::from(self.recruitment_criteria.is_some())
            + usize::from(self.rejection_criteria.is_some())
            + usize::from(self.evaluation_scheme.is_some())
    }

    /// Coverage of the Axiom-6 obligations in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.disclosed_count() as f64 / 5.0
    }
}

/// A crowdsourcing task: the paper's `(id_t, id_r, S_t, d_t)` plus
/// operational metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Unique task identifier `id_t`.
    pub id: TaskId,
    /// Posting requester `id_r`.
    pub requester: RequesterId,
    /// Campaign the task belongs to.
    pub campaign: CampaignId,
    /// Required-skill vector `S_t`.
    pub skills: SkillVector,
    /// Reward `d_t` paid to a worker who completes the task.
    pub reward: Credits,
    /// Contribution kind expected.
    pub kind: TaskKind,
    /// Distinct workers wanted (assignments / redundancy).
    pub assignments_wanted: u32,
    /// Requester's estimate of honest completion time.
    pub est_duration: SimDuration,
    /// Disclosed working conditions (Axiom 6 input).
    pub conditions: TaskConditions,
}

impl Task {
    /// The paper's Axiom-2 "comparable reward" test: rewards within
    /// `tolerance` (relative) of each other.
    pub fn reward_comparable(&self, other: &Task, tolerance: f64) -> bool {
        let a = self.reward.millicents() as f64;
        let b = other.reward.millicents() as f64;
        let denom = a.abs().max(b.abs());
        if denom == 0.0 {
            return true;
        }
        (a - b).abs() / denom <= tolerance
    }
}

/// Fluent builder so scenario code stays readable.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    task: Task,
}

impl TaskBuilder {
    /// Start building a task with mandatory fields.
    pub fn new(id: TaskId, requester: RequesterId, skills: SkillVector, reward: Credits) -> Self {
        TaskBuilder {
            task: Task {
                id,
                requester,
                campaign: CampaignId::new(0),
                skills,
                reward,
                kind: TaskKind::Labeling { classes: 2 },
                assignments_wanted: 1,
                est_duration: SimDuration::from_mins(5),
                conditions: TaskConditions::default(),
            },
        }
    }

    /// Set the campaign.
    pub fn campaign(mut self, c: CampaignId) -> Self {
        self.task.campaign = c;
        self
    }

    /// Set the task kind.
    pub fn kind(mut self, k: TaskKind) -> Self {
        self.task.kind = k;
        self
    }

    /// Set the disclosed working conditions.
    pub fn conditions(mut self, c: TaskConditions) -> Self {
        self.task.conditions = c;
        self
    }

    /// Finish building.
    pub fn build(self) -> Task {
        self.task
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skills::SkillVector;

    fn t(reward_cents: i64) -> Task {
        TaskBuilder::new(
            TaskId::new(0),
            RequesterId::new(0),
            SkillVector::with_len(4),
            Credits::from_cents(reward_cents),
        )
        .build()
    }

    #[test]
    fn reward_comparability() {
        let a = t(100);
        let b = t(95);
        let c = t(30);
        assert!(a.reward_comparable(&b, 0.10));
        assert!(!a.reward_comparable(&c, 0.10));
        // zero rewards are comparable
        let z1 = t(0);
        let z2 = t(0);
        assert!(z1.reward_comparable(&z2, 0.0));
    }

    #[test]
    fn conditions_coverage() {
        assert_eq!(TaskConditions::default().coverage(), 0.0);
        let full =
            TaskConditions::fully_disclosed(Credits::from_dollars(6), SimDuration::from_days(1));
        assert_eq!(full.disclosed_count(), 5);
        assert!((full.coverage() - 1.0).abs() < 1e-12);
        let partial = TaskConditions {
            rejection_criteria: Some("gold".into()),
            ..Default::default()
        };
        assert!((partial.coverage() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn builder_sets_fields() {
        let task = TaskBuilder::new(
            TaskId::new(7),
            RequesterId::new(2),
            SkillVector::with_len(2),
            Credits::from_cents(15),
        )
        .campaign(CampaignId::new(3))
        .kind(TaskKind::Ranking { items: 5 })
        .build();
        assert_eq!(task.id, TaskId::new(7));
        assert_eq!(task.campaign, CampaignId::new(3));
        assert_eq!(task.kind.name(), "ranking");
    }

    #[test]
    fn kind_names() {
        assert_eq!(TaskKind::Labeling { classes: 3 }.name(), "labeling");
        assert_eq!(TaskKind::FreeText.name(), "free-text");
        assert_eq!(TaskKind::Survey.name(), "survey");
    }
}
