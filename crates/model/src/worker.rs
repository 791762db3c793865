//! Workers.
//!
//! A worker is the paper's tuple `(id_w, A_w, C_w, S_w)` (§3.2): identifier,
//! self-declared attributes, platform-computed attributes, and a skill
//! vector capturing "the interest of w in the skill keyword s_j".

use crate::attributes::{ComputedAttrs, DeclaredAttrs};
use crate::ids::WorkerId;
use crate::skills::SkillVector;
use crate::task::Task;
use serde::{Deserialize, Serialize};

/// A crowd worker: `(id_w, A_w, C_w, S_w)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// Unique worker identifier `id_w`.
    pub id: WorkerId,
    /// Self-declared attributes `A_w` (demographics, location, …).
    pub declared: DeclaredAttrs,
    /// Platform-computed attributes `C_w` (acceptance ratio, …).
    pub computed: ComputedAttrs,
    /// Skill/interest vector `S_w`.
    pub skills: SkillVector,
}

impl Worker {
    /// A new worker with fresh computed attributes.
    pub fn new(id: WorkerId, declared: DeclaredAttrs, skills: SkillVector) -> Self {
        Worker {
            id,
            declared,
            computed: ComputedAttrs::fresh(),
            skills,
        }
    }

    /// The paper's qualification test: a worker qualifies for a task when
    /// her skill vector covers the task's required-skill vector.
    pub fn qualifies_for(&self, task: &Task) -> bool {
        self.skills.covers(&task.skills)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RequesterId, TaskId};
    use crate::money::Credits;
    use crate::skills::SkillVector;
    use crate::task::TaskBuilder;

    fn skills(bits: &[u8]) -> SkillVector {
        SkillVector::from_bools(bits.iter().map(|&b| b == 1))
    }

    fn worker(id: u32, bits: &[u8]) -> Worker {
        Worker::new(WorkerId::new(id), DeclaredAttrs::new(), skills(bits))
    }

    #[test]
    fn qualification_follows_skill_cover() {
        let w = worker(0, &[1, 1, 0]);
        let easy = TaskBuilder::new(
            TaskId::new(0),
            RequesterId::new(0),
            skills(&[1, 0, 0]),
            Credits::from_cents(5),
        )
        .build();
        let hard = TaskBuilder::new(
            TaskId::new(1),
            RequesterId::new(0),
            skills(&[1, 0, 1]),
            Credits::from_cents(5),
        )
        .build();
        assert!(w.qualifies_for(&easy));
        assert!(!w.qualifies_for(&hard));
    }
}
