//! Fairness-enforcement wrappers.
//!
//! §3.3.1: the axioms are not only a checking framework but "guidelines
//! for designing fair crowdsourcing processes from scratch". These
//! wrappers take *any* base policy and repair its exposure so Axiom 1
//! holds, demonstrating fairness **by design**:
//!
//! * [`ExposureParity`] — workers in the same similarity class are shown
//!   the union of what any of them was shown (restricted to tasks they
//!   qualify for). Under equality-similarity this drives the Axiom-1
//!   violation rate to zero while leaving assignments untouched.
//! * [`ExposureFloor`] — every worker is shown at least `min_exposure`
//!   qualified tasks, eliminating total-exclusion discrimination.
//!
//! Both repair the base policy's visibility rows with the round's
//! qualification rows — parity is row algebra: each member's row gains
//! the class union AND her own qualification row.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy, Qualification, WorkerView};
use rand::RngCore;

/// Group workers into similarity classes: same-skill (by kernel score ≥
/// threshold) and close quality. Greedy clustering against each class's
/// first member keeps the result deterministic.
pub(crate) fn similarity_classes(
    workers: &[WorkerView],
    skill_threshold: f64,
    quality_tolerance: f64,
) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (wi, w) in workers.iter().enumerate() {
        let mut placed = false;
        for class in classes.iter_mut() {
            let rep = &workers[class[0]];
            let skill_sim = rep.skills.cosine(&w.skills);
            if skill_sim >= skill_threshold && (rep.quality - w.quality).abs() <= quality_tolerance
            {
                class.push(wi);
                placed = true;
                break;
            }
        }
        if !placed {
            classes.push(vec![wi]);
        }
    }
    classes
}

/// Does `outcome` show every worker exactly her qualification row, as
/// the open policies do? Over such a base neither wrapper can grant
/// anything, which is what lets `PolicyChoice::normalized` (in
/// `faircrowd-sim`) drop them; the wrappers assert it in debug builds.
fn shows_qualified_rows(
    outcome: &AssignmentOutcome,
    input: &AssignInput,
    qualified: &Qualification,
) -> bool {
    input.workers.iter().enumerate().all(|(wi, w)| {
        let row = qualified.row(wi);
        outcome
            .visibility
            .get(&w.id)
            .map_or(row.is_empty(), |shown| shown == row)
    })
}

/// Equalise exposure within worker similarity classes.
#[derive(Debug, Clone)]
pub struct ExposureParity<P> {
    /// The wrapped base policy.
    pub(crate) base: P,
    /// Skill-cosine threshold for class membership.
    pub(crate) skill_threshold: f64,
    /// Maximum quality difference for class membership.
    pub(crate) quality_tolerance: f64,
}

impl<P> ExposureParity<P> {
    /// Wrap a base policy with the default similarity regime (cosine ≥
    /// 0.9, quality within 0.1 — matching `SimilarityConfig::default`).
    pub fn new(base: P) -> Self {
        ExposureParity {
            base,
            skill_threshold: 0.9,
            quality_tolerance: 0.1,
        }
    }
}

impl<P: AssignmentPolicy> AssignmentPolicy for ExposureParity<P> {
    fn name(&self) -> &'static str {
        "exposure-parity"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = self.base.assign_qualified(input, qualified, rng);
        let open_base = cfg!(debug_assertions) && shows_qualified_rows(&outcome, input, qualified);
        let classes =
            similarity_classes(&input.workers, self.skill_threshold, self.quality_tolerance);
        // A lone member's union is her own row: nothing to grant.
        for class in classes.iter().filter(|class| class.len() > 1) {
            // union of everything anyone in the class was shown
            let mut union = qualified.empty_row();
            for &wi in class {
                if let Some(vis) = outcome.visibility.get(&input.workers[wi].id) {
                    union.union_with(vis, |_| {});
                }
            }
            // grant the union to every member, restricted to qualification
            for &wi in class {
                let mut grant = union.clone();
                grant.intersect_with(qualified.row(wi));
                if grant.is_empty() {
                    continue;
                }
                outcome
                    .visibility
                    .entry(input.workers[wi].id)
                    .or_insert_with(|| qualified.empty_row())
                    .union_with(&grant, |_| {
                        debug_assert!(!open_base, "parity granted a task over an open base");
                    });
            }
        }
        outcome
    }
}

/// Guarantee a minimum number of visible qualified tasks per worker.
#[derive(Debug, Clone)]
pub struct ExposureFloor<P> {
    /// The wrapped base policy.
    pub base: P,
    /// Minimum tasks each worker must be shown (capped by how many she
    /// qualifies for).
    pub min_exposure: usize,
}

impl<P: AssignmentPolicy> AssignmentPolicy for ExposureFloor<P> {
    fn name(&self) -> &'static str {
        "exposure-floor"
    }

    fn assign_qualified(
        &mut self,
        input: &AssignInput,
        qualified: &Qualification,
        rng: &mut dyn RngCore,
    ) -> AssignmentOutcome {
        let mut outcome = self.base.assign_qualified(input, qualified, rng);
        let open_base = cfg!(debug_assertions) && shows_qualified_rows(&outcome, input, qualified);
        for (wi, w) in input.workers.iter().enumerate() {
            let have = outcome.visibility.get(&w.id).map_or(0, |v| v.len());
            if have >= self.min_exposure {
                continue;
            }
            let mut need = self.min_exposure - have;
            let row = qualified.row(wi);
            let mut shown = outcome
                .visibility
                .remove(&w.id)
                .unwrap_or_else(|| qualified.empty_row());
            // the first qualified tasks she was not shown, in input order
            for t in &input.tasks {
                if need == 0 {
                    break;
                }
                if row.contains(t.id) && shown.insert(t.id) {
                    debug_assert!(!open_base, "floor granted a task over an open base");
                    need -= 1;
                }
            }
            if !shown.is_empty() {
                outcome.visibility.insert(w.id, shown);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fixtures::small_market;
    use crate::policy::{TaskView, WorkerView};
    use crate::RequesterCentric;
    use faircrowd_model::ids::{RequesterId, TaskId, WorkerId};
    use faircrowd_model::money::Credits;
    use faircrowd_model::skills::SkillVector;
    use faircrowd_model::time::SimDuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Market with two identical workers (a "similar pair") and one star
    /// worker the requester-centric policy will favour.
    fn twin_market() -> AssignInput {
        let skills = SkillVector::from_bools([true]);
        AssignInput {
            tasks: (0..4)
                .map(|i| TaskView {
                    id: TaskId::new(i),
                    requester: RequesterId::new(0),
                    skills: skills.clone(),
                    reward: Credits::from_cents(10 + i as i64),
                    slots: 1,
                    est_duration: SimDuration::from_mins(5),
                })
                .collect(),
            workers: vec![
                WorkerView {
                    id: WorkerId::new(0),
                    skills: skills.clone(),
                    quality: 0.95,
                    capacity: 4,
                    group: None,
                },
                WorkerView {
                    id: WorkerId::new(1),
                    skills: skills.clone(),
                    quality: 0.6,
                    capacity: 4,
                    group: None,
                },
                WorkerView {
                    id: WorkerId::new(2),
                    skills,
                    quality: 0.6,
                    capacity: 4,
                    group: None,
                },
            ],
        }
    }

    #[test]
    fn similarity_classes_group_twins() {
        let m = twin_market();
        let classes = similarity_classes(&m.workers, 0.9, 0.1);
        // w1 and w2 are identical; w0 differs in quality
        assert_eq!(classes.len(), 2);
        let twin_class = classes.iter().find(|c| c.len() == 2).expect("twins");
        assert_eq!(twin_class, &vec![1, 2]);
    }

    #[test]
    fn parity_unions_visibility_within_class() {
        let m = twin_market();
        // Base: requester-centric gives everything to w0; twins see
        // nothing or asymmetric scraps.
        let base = RequesterCentric.assign(&m, &mut StdRng::seed_from_u64(0));
        let v1 = base
            .visibility
            .get(&WorkerId::new(1))
            .cloned()
            .unwrap_or_default();
        let v2 = base
            .visibility
            .get(&WorkerId::new(2))
            .cloned()
            .unwrap_or_default();
        // (sanity: the base policy concentrates exposure on w0)
        assert!(v1.len() + v2.len() < 8);

        let mut wrapped = ExposureParity::new(RequesterCentric);
        let o = wrapped.assign(&m, &mut StdRng::seed_from_u64(0));
        let w1 = o
            .visibility
            .get(&WorkerId::new(1))
            .cloned()
            .unwrap_or_default();
        let w2 = o
            .visibility
            .get(&WorkerId::new(2))
            .cloned()
            .unwrap_or_default();
        assert_eq!(w1, w2, "similar workers must see the same tasks");
        assert!(o.check_feasible(&m).is_empty());
        // assignments unchanged from base
        assert_eq!(o.assignments, base.assignments);
    }

    #[test]
    fn parity_respects_qualification() {
        let mut m = twin_market();
        // make w2 unqualified for task 3
        m.tasks[3].skills = SkillVector::from_bools([true, true]);
        m.workers[1].skills = SkillVector::from_bools([true, true]);
        // now w1 and w2 differ in skills -> may not even be a class; use
        // a generous threshold to force them together
        let mut wrapped = ExposureParity {
            base: RequesterCentric,
            skill_threshold: 0.5,
            quality_tolerance: 0.2,
        };
        let o = wrapped.assign(&m, &mut StdRng::seed_from_u64(0));
        if let Some(v2) = o.visibility.get(&WorkerId::new(2)) {
            assert!(
                !v2.contains(TaskId::new(3)),
                "unqualified task granted through parity"
            );
        }
    }

    #[test]
    fn floor_guarantees_minimum_exposure() {
        let m = twin_market();
        let mut wrapped = ExposureFloor {
            base: RequesterCentric,
            min_exposure: 2,
        };
        let o = wrapped.assign(&m, &mut StdRng::seed_from_u64(0));
        for w in &m.workers {
            let seen = o.visibility.get(&w.id).map_or(0, |v| v.len());
            assert!(seen >= 2, "{} sees only {seen}", w.id);
        }
        assert!(o.check_feasible(&m).is_empty());
    }

    #[test]
    fn floor_caps_at_qualified_tasks() {
        let m = small_market();
        // w3 qualifies only for t0; a floor of 3 cannot exceed 1
        let mut wrapped = ExposureFloor {
            base: RequesterCentric,
            min_exposure: 3,
        };
        let o = wrapped.assign(&m, &mut StdRng::seed_from_u64(0));
        let w3 = o
            .visibility
            .get(&WorkerId::new(3))
            .cloned()
            .unwrap_or_default();
        assert_eq!(w3.len(), 1);
    }

    #[test]
    fn wrappers_grant_nothing_over_an_open_base() {
        // The twins are forced into one class although w1 alone
        // qualifies for task 3: over self-selection, which shows each
        // worker her qualification row, neither wrapper may add a task
        // (and in debug builds each asserts it).
        let mut m = twin_market();
        m.tasks[3].skills = SkillVector::from_bools([true, true]);
        m.workers[1].skills = SkillVector::from_bools([true, true]);
        let rng = || StdRng::seed_from_u64(0);
        let base = crate::SelfSelection.assign(&m, &mut rng());
        let mut parity = ExposureParity {
            base: crate::SelfSelection,
            skill_threshold: 0.5,
            quality_tolerance: 0.2,
        };
        assert_eq!(parity.assign(&m, &mut rng()), base);
        let mut floor = ExposureFloor {
            base: crate::SelfSelection,
            min_exposure: 8,
        };
        assert_eq!(floor.assign(&m, &mut rng()), base);
    }

    #[test]
    fn wrappers_report_their_names() {
        assert_eq!(
            ExposureParity::new(RequesterCentric).name(),
            "exposure-parity"
        );
        assert_eq!(
            ExposureFloor {
                base: RequesterCentric,
                min_exposure: 1
            }
            .name(),
            "exposure-floor"
        );
    }
}
