//! The assignment-policy interface.
//!
//! A policy receives a snapshot of the open marketplace — tasks with
//! remaining slots, workers with remaining capacity — and returns (a) the
//! **visibility sets**: which tasks each worker gets to see, and (b) the
//! assignments made. Axioms 1–2 judge the visibility sets; utilities judge
//! the assignments. Splitting the two is the point: a policy can be
//! utility-optimal and exposure-discriminatory at the same time, which is
//! exactly the §3.1.1 critique.
//!
//! Visibility sets are bit rows ([`IdSet`]), one per worker. Qualification
//! is computed once per round into the same shape ([`Qualification`]):
//! the open policies (self-selection, round-robin, worker-centric, fair
//! delivery) show a worker her qualification row as it is, and the
//! enforcement wrappers repair exposure with row algebra on it instead of
//! re-testing skills pair by pair. Policies index slots, budgets and
//! capacities by input position.

use faircrowd_model::arena::IdSet;
use faircrowd_model::ids::{RequesterId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::skills::SkillVector;
use faircrowd_model::time::SimDuration;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A task as a policy sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskView {
    /// Task id.
    pub id: TaskId,
    /// Posting requester.
    pub requester: RequesterId,
    /// Required skills.
    pub skills: SkillVector,
    /// Advertised reward.
    pub reward: Credits,
    /// Assignments still wanted.
    pub slots: u32,
    /// Estimated honest completion time.
    pub est_duration: SimDuration,
}

/// A worker as a policy sees her.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerView {
    /// Worker id.
    pub id: WorkerId,
    /// Skill/interest vector.
    pub skills: SkillVector,
    /// Platform quality estimate in `[0, 1]`.
    pub quality: f64,
    /// Tasks this worker can still take this round.
    pub capacity: u32,
    /// Demographic group along the platform's declared diversity axis
    /// (e.g. the simulator's `region` attribute), `None` when unknown.
    /// Diversity-constrained policies quota over this; plain policies
    /// ignore it.
    #[serde(default)]
    pub group: Option<String>,
}

impl WorkerView {
    /// The paper's qualification test against a task.
    pub fn qualifies(&self, task: &TaskView) -> bool {
        self.skills.covers(&task.skills)
    }
}

/// A marketplace snapshot handed to a policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AssignInput {
    /// Open tasks.
    pub tasks: Vec<TaskView>,
    /// Available workers.
    pub workers: Vec<WorkerView>,
}

/// The round's qualification matrix: for each worker, in input order,
/// the bit row of the task ids she qualifies for. Built once per round
/// ([`AssignmentPolicy::assign`] does it) and shared by a policy and any
/// wrapper around it. Task ids are unique within an [`AssignInput`].
#[derive(Debug)]
pub struct Qualification {
    rows: Vec<IdSet<TaskId>>,
    /// An empty row whose bit region covers every task id of the input,
    /// so rows cloned from it never grow or spill.
    empty: IdSet<TaskId>,
}

impl Qualification {
    /// Test every (worker, task) pair of `input` once.
    pub fn of(input: &AssignInput) -> Self {
        let empty = match input.tasks.iter().map(|t| t.id).max() {
            Some(largest) => IdSet::with_region(largest, input.tasks.len()),
            None => IdSet::new(),
        };
        let rows = input
            .workers
            .iter()
            .map(|w| {
                let mut row = empty.clone();
                for t in input.tasks.iter().filter(|t| w.qualifies(t)) {
                    row.insert(t.id);
                }
                row
            })
            .collect();
        Qualification { rows, empty }
    }

    /// The tasks the worker at input position `wi` qualifies for.
    pub fn row(&self, wi: usize) -> &IdSet<TaskId> {
        &self.rows[wi]
    }

    /// An empty visibility row sized for this round's task ids.
    pub(crate) fn empty_row(&self) -> IdSet<TaskId> {
        self.empty.clone()
    }
}

/// What a policy decided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentOutcome {
    /// Which tasks each worker was shown (exposure), as bit rows. A
    /// worker shown nothing has no entry.
    pub visibility: BTreeMap<WorkerId, IdSet<TaskId>>,
    /// Assignments made, in decision order.
    pub assignments: Vec<(WorkerId, TaskId)>,
}

/// An outcome under construction, indexed by input position: the
/// visibility rows start empty (need-to-know policies) or as the
/// qualification rows (open policies).
pub(crate) struct Draft<'a> {
    input: &'a AssignInput,
    rows: Vec<IdSet<TaskId>>,
    assignments: Vec<(WorkerId, TaskId)>,
}

impl<'a> Draft<'a> {
    /// Nobody sees anything yet.
    pub(crate) fn hidden(input: &'a AssignInput, qualified: &Qualification) -> Self {
        Draft {
            input,
            rows: vec![qualified.empty_row(); input.workers.len()],
            assignments: Vec::new(),
        }
    }

    /// Every worker sees every task she qualifies for.
    pub(crate) fn open(input: &'a AssignInput, qualified: &Qualification) -> Self {
        Draft {
            input,
            rows: qualified.rows.clone(),
            assignments: Vec::new(),
        }
    }

    /// Show task `ti` to worker `wi`.
    pub(crate) fn show(&mut self, wi: usize, ti: usize) {
        self.rows[wi].insert(self.input.tasks[ti].id);
    }

    /// Record an assignment; an assignment implies visibility (a worker
    /// cannot take a task she never saw).
    pub(crate) fn assign(&mut self, wi: usize, ti: usize) {
        self.show(wi, ti);
        self.assignments
            .push((self.input.workers[wi].id, self.input.tasks[ti].id));
    }

    /// The finished outcome: one visibility entry per worker shown
    /// anything.
    pub(crate) fn finish(self) -> AssignmentOutcome {
        let mut visibility: BTreeMap<WorkerId, IdSet<TaskId>> = BTreeMap::new();
        for (w, row) in self.input.workers.iter().zip(self.rows) {
            if row.is_empty() {
                continue;
            }
            match visibility.get_mut(&w.id) {
                Some(seen) => seen.union_with(&row, |_| {}),
                None => {
                    visibility.insert(w.id, row);
                }
            }
        }
        AssignmentOutcome {
            visibility,
            assignments: self.assignments,
        }
    }
}

impl AssignmentOutcome {
    /// [`AssignmentOutcome::check_feasible`] as a `Result`: `Ok` when the
    /// outcome respects every structural invariant,
    /// [`faircrowd_model::FaircrowdError::InfeasibleAssignment`] naming
    /// the offending `policy` otherwise.
    pub fn ensure_feasible(
        &self,
        input: &AssignInput,
        policy: &str,
    ) -> Result<(), faircrowd_model::FaircrowdError> {
        let problems = self.check_feasible(input);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(faircrowd_model::FaircrowdError::InfeasibleAssignment {
                policy: policy.to_owned(),
                problems,
            })
        }
    }

    /// Every outcome must satisfy these structural invariants:
    /// assignments ⊆ visibility, per-task slot limits, per-worker
    /// capacities, and qualification. Returns human-readable violations.
    pub fn check_feasible(&self, input: &AssignInput) -> Vec<String> {
        let mut problems = Vec::new();
        let tasks: BTreeMap<TaskId, &TaskView> = input.tasks.iter().map(|t| (t.id, t)).collect();
        let workers: BTreeMap<WorkerId, &WorkerView> =
            input.workers.iter().map(|w| (w.id, w)).collect();
        let mut per_task: BTreeMap<TaskId, u32> = BTreeMap::new();
        let mut per_worker: BTreeMap<WorkerId, u32> = BTreeMap::new();
        let mut seen_pairs: BTreeSet<(WorkerId, TaskId)> = BTreeSet::new();

        for &(w, t) in &self.assignments {
            if !seen_pairs.insert((w, t)) {
                problems.push(format!("{w} assigned to {t} more than once"));
            }
            match (workers.get(&w), tasks.get(&t)) {
                (Some(wv), Some(tv)) => {
                    if !wv.qualifies(tv) {
                        problems.push(format!("{w} not qualified for {t}"));
                    }
                }
                _ => problems.push(format!("assignment ({w}, {t}) references unknown entity")),
            }
            *per_task.entry(t).or_insert(0) += 1;
            *per_worker.entry(w).or_insert(0) += 1;
            let visible = self.visibility.get(&w).is_some_and(|v| v.contains(t));
            if !visible {
                problems.push(format!("{w} assigned {t} without visibility"));
            }
        }
        for (t, n) in per_task {
            if let Some(tv) = tasks.get(&t) {
                if n > tv.slots {
                    problems.push(format!("{t} over-assigned: {n} > {}", tv.slots));
                }
            }
        }
        for (w, n) in per_worker {
            if let Some(wv) = workers.get(&w) {
                if n > wv.capacity {
                    problems.push(format!("{w} over-capacity: {n} > {}", wv.capacity));
                }
            }
        }
        problems
    }
}

/// A task-assignment policy. Policies take `&mut self` so online
/// algorithms can carry state between rounds; the RNG is injected for
/// determinism.
pub trait AssignmentPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decide visibility and assignments for one round, given the
    /// round's qualification matrix (`Qualification::of(input)`) — the
    /// entry point wrappers call on the policy they wrap, so one matrix
    /// serves both.
    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome;

    /// Decide visibility and assignments for one round.
    fn assign(&mut self, input: &AssignInput, rng: &mut dyn RngCore) -> AssignmentOutcome {
        self.assign_qualified(input, &Qualification::of(input), rng)
    }
}

/// A boxed policy is a policy, so wrappers can take a policy chosen at
/// run time as their base.
impl<P: AssignmentPolicy + ?Sized> AssignmentPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        (**self).assign_qualified(input, qualified, rng)
    }
}

/// A worker's preference for a task: reward (in dollars) scaled by skill
/// affinity. Workers like well-paid tasks that match their interests —
/// the §3.1.1 description of worker-centric assignment ("allocates tasks
/// based on workers' preferences … favoring their expected compensation").
pub(crate) fn preference_score(worker: &WorkerView, task: &TaskView) -> f64 {
    let reward = task.reward.as_dollars_f64();
    let affinity = worker.skills.cosine(&task.skills);
    reward * (1.0 + affinity)
}

/// Total worker utility of an assignment (sum of preference scores).
pub fn worker_utility(input: &AssignInput, outcome: &AssignmentOutcome) -> f64 {
    let tasks: BTreeMap<TaskId, &TaskView> = input.tasks.iter().map(|t| (t.id, t)).collect();
    let workers: BTreeMap<WorkerId, &WorkerView> =
        input.workers.iter().map(|w| (w.id, w)).collect();
    outcome
        .assignments
        .iter()
        .filter_map(|(w, t)| {
            let wv = workers.get(w)?;
            let tv = tasks.get(t)?;
            Some(preference_score(wv, tv))
        })
        .sum()
}

/// Shared fixture markets for tests, doctests and benches across the
/// workspace (kept tiny and deterministic on purpose).
pub mod fixtures {
    use super::*;

    /// Bits → skill vector.
    pub(crate) fn sv(bits: &[u8]) -> SkillVector {
        SkillVector::from_bools(bits.iter().map(|&b| b == 1))
    }

    /// A small market: 3 tasks × 4 workers, everyone qualified for t0,
    /// specialists for t1/t2.
    pub fn small_market() -> AssignInput {
        AssignInput {
            tasks: vec![
                TaskView {
                    id: TaskId::new(0),
                    requester: RequesterId::new(0),
                    skills: sv(&[0, 0]),
                    reward: Credits::from_cents(10),
                    slots: 2,
                    est_duration: SimDuration::from_mins(5),
                },
                TaskView {
                    id: TaskId::new(1),
                    requester: RequesterId::new(0),
                    skills: sv(&[1, 0]),
                    reward: Credits::from_cents(20),
                    slots: 1,
                    est_duration: SimDuration::from_mins(5),
                },
                TaskView {
                    id: TaskId::new(2),
                    requester: RequesterId::new(1),
                    skills: sv(&[0, 1]),
                    reward: Credits::from_cents(30),
                    slots: 1,
                    est_duration: SimDuration::from_mins(5),
                },
            ],
            workers: vec![
                WorkerView {
                    id: WorkerId::new(0),
                    skills: sv(&[1, 1]),
                    quality: 0.95,
                    capacity: 2,
                    group: Some("north".into()),
                },
                WorkerView {
                    id: WorkerId::new(1),
                    skills: sv(&[1, 0]),
                    quality: 0.8,
                    capacity: 1,
                    group: Some("south".into()),
                },
                WorkerView {
                    id: WorkerId::new(2),
                    skills: sv(&[0, 1]),
                    quality: 0.6,
                    capacity: 1,
                    group: Some("north".into()),
                },
                WorkerView {
                    id: WorkerId::new(3),
                    skills: sv(&[0, 0]),
                    quality: 0.4,
                    capacity: 1,
                    group: Some("south".into()),
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn qualification_follows_cover() {
        let m = small_market();
        // w3 has no skills: qualifies only for t0
        assert!(m.workers[3].qualifies(&m.tasks[0]));
        assert!(!m.workers[3].qualifies(&m.tasks[1]));
        // w0 has both skills: qualifies for all
        for t in &m.tasks {
            assert!(m.workers[0].qualifies(t));
        }
    }

    /// A hidden draft over the fixture market (worker and task ids
    /// equal their input positions there).
    fn draft(m: &AssignInput) -> Draft<'_> {
        Draft::hidden(m, &Qualification::of(m))
    }

    #[test]
    fn qualification_rows_match_the_pairwise_test() {
        let m = small_market();
        let q = Qualification::of(&m);
        for (wi, w) in m.workers.iter().enumerate() {
            for t in &m.tasks {
                assert_eq!(q.row(wi).contains(t.id), w.qualifies(t));
            }
        }
    }

    #[test]
    fn outcome_assign_implies_visibility() {
        let m = small_market();
        let mut d = draft(&m);
        d.assign(0, 1);
        let o = d.finish();
        assert!(o.visibility[&WorkerId::new(0)].contains(TaskId::new(1)));
        assert_eq!(o.visibility.len(), 1, "workers shown nothing get no entry");
    }

    #[test]
    fn feasibility_catches_violations() {
        let m = small_market();
        let mut d = draft(&m);
        // unqualified assignment
        d.assign(3, 1);
        // over-capacity for w2 (capacity 1)
        d.assign(2, 0);
        d.assign(2, 2);
        let problems = d.finish().check_feasible(&m);
        assert!(problems.iter().any(|p| p.contains("not qualified")));
        assert!(problems.iter().any(|p| p.contains("over-capacity")));
    }

    #[test]
    fn feasibility_catches_assignment_without_visibility() {
        let m = small_market();
        let mut o = AssignmentOutcome::default();
        o.assignments.push((WorkerId::new(0), TaskId::new(0)));
        let problems = o.check_feasible(&m);
        assert!(problems.iter().any(|p| p.contains("without visibility")));
    }

    #[test]
    fn feasibility_catches_duplicates_and_overassignment() {
        let m = small_market();
        let mut d = draft(&m);
        d.assign(0, 1);
        d.assign(0, 1);
        let problems = d.finish().check_feasible(&m);
        assert!(problems.iter().any(|p| p.contains("more than once")));
        assert!(problems.iter().any(|p| p.contains("over-assigned")));
    }

    #[test]
    fn utilities_sum_over_assignments() {
        let m = small_market();
        let mut d = draft(&m);
        d.assign(0, 2);
        d.assign(1, 1);
        let wu = worker_utility(&m, &d.finish());
        assert!(wu > 0.0);
    }

    #[test]
    fn preference_prefers_reward_and_affinity() {
        let m = small_market();
        let w0 = &m.workers[0];
        // t2 pays more than t1 and matches w0 equally -> preferred
        assert!(preference_score(w0, &m.tasks[2]) > preference_score(w0, &m.tasks[1]));
    }
}
