//! String-keyed label-aggregator registry.
//!
//! The quality counterpart of the assignment-policy registry: sweeps,
//! the frontier engine and the CLI select *how consensus labels are
//! inferred* by name, exactly as they select assignment policies. Three
//! aggregators are registered:
//!
//! * `majority` — plain [`majority_vote`];
//! * `weighted_majority` — [`weighted_majority_vote`] under the
//!   caller-supplied per-worker reliability weights;
//! * `parity_constrained` — demographic-parity-constrained aggregation
//!   (Singer et al., *Optimal Fair Aggregation under Demographic Parity
//!   Constraints*): consensus whose per-group agreement rates over the
//!   workers' declared groups differ by at most a bounded gap.
//!
//! Names resolve through the same canonicalisation as every other
//! registry ([`faircrowd_model::names::canonical`]); unknown names
//! report [`FaircrowdError::UnknownAggregator`] listing the registry.

use crate::answers::AnswerSet;
use crate::majority::{majority_vote, weighted_majority_vote};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::ids::{TaskId, WorkerId};
use faircrowd_model::names::canonical;
use std::collections::BTreeMap;

/// Canonical names of the registered aggregators, in presentation order.
pub const NAMES: [&str; 3] = ["majority", "weighted_majority", "parity_constrained"];

/// Default demographic-parity gap bound for the `parity_constrained`
/// registry entry: group agreement rates may differ by at most this.
pub(crate) const DEFAULT_PARITY_GAP: f64 = 0.1;

/// Worker-side context an aggregator may consult: reliability weights
/// (`weighted_majority`) and declared demographic groups
/// (`parity_constrained`). Both maps may be sparse — unlisted workers
/// weigh 1.0 and belong to no group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateContext {
    /// Per-worker reliability weights; missing workers weigh 1.0.
    pub weights: BTreeMap<WorkerId, f64>,
    /// Per-worker declared group keys; ungrouped workers do not
    /// constrain parity.
    pub groups: BTreeMap<WorkerId, String>,
}

/// Which label aggregator a run uses. An enum (rather than a trait
/// object) so sweep cases stay comparable and serialisable by name.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregatorChoice {
    /// Plain majority vote.
    Majority,
    /// Reliability-weighted majority vote.
    WeightedMajority,
    /// Demographic-parity-constrained vote with the given gap bound.
    ParityConstrained {
        /// Maximum allowed spread between per-group agreement rates.
        max_gap: f64,
    },
}

impl AggregatorChoice {
    /// Resolve a registry name (any [`canonical`] spelling) into the
    /// choice, with `DEFAULT_PARITY_GAP` for `parity_constrained`.
    /// Unknown names report [`FaircrowdError::UnknownAggregator`]
    /// listing the registry.
    pub fn by_name(name: &str) -> Result<Self, FaircrowdError> {
        match canonical(name).as_str() {
            "majority" => Ok(AggregatorChoice::Majority),
            "weighted_majority" => Ok(AggregatorChoice::WeightedMajority),
            "parity_constrained" => Ok(AggregatorChoice::ParityConstrained {
                max_gap: DEFAULT_PARITY_GAP,
            }),
            _ => Err(FaircrowdError::UnknownAggregator {
                name: name.to_owned(),
                available: NAMES.iter().map(|n| (*n).to_owned()).collect(),
            }),
        }
    }

    /// Short display name for tables.
    pub fn label(&self) -> String {
        match self {
            AggregatorChoice::Majority => "majority".into(),
            AggregatorChoice::WeightedMajority => "weighted-majority".into(),
            AggregatorChoice::ParityConstrained { .. } => "parity-constrained".into(),
        }
    }

    /// Infer consensus labels. The tie rule of [`majority_vote`]
    /// applies throughout: a task without a strict winner is absent.
    pub fn aggregate(&self, answers: &AnswerSet, ctx: &AggregateContext) -> BTreeMap<TaskId, u8> {
        match self {
            AggregatorChoice::Majority => majority_vote(answers),
            AggregatorChoice::WeightedMajority => weighted_majority_vote(answers, &ctx.weights),
            AggregatorChoice::ParityConstrained { max_gap } => {
                parity_constrained_vote(answers, &ctx.groups, *max_gap)
            }
        }
    }
}

/// The demographic-parity spread of a consensus: per group, the
/// fraction of that group's answers **on decided tasks** agreeing with
/// the consensus; the gap is `max − min` over groups with at least one
/// such answer. Returns 0.0 with fewer than two participating groups
/// (parity over one group is vacuous).
pub fn parity_gap(
    answers: &AnswerSet,
    groups: &BTreeMap<WorkerId, String>,
    consensus: &BTreeMap<TaskId, u8>,
) -> f64 {
    let mut stats: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for a in answers.answers() {
        let Some(group) = groups.get(&a.worker) else {
            continue;
        };
        let Some(&label) = consensus.get(&a.task) else {
            continue;
        };
        let entry = stats.entry(group.as_str()).or_insert((0, 0));
        entry.0 += usize::from(a.label == label);
        entry.1 += 1;
    }
    let rates: Vec<f64> = stats
        .values()
        .filter(|(_, total)| *total > 0)
        .map(|(agree, total)| *agree as f64 / *total as f64)
        .collect();
    if rates.len() < 2 {
        return 0.0;
    }
    let max = rates.iter().cloned().fold(f64::MIN, f64::max);
    let min = rates.iter().cloned().fold(f64::MAX, f64::min);
    max - min
}

/// Demographic-parity-constrained majority vote: start from the plain
/// majority consensus, then withdraw consensus from whole tasks —
/// greedily, the task whose removal shrinks the [`parity_gap`] most,
/// lowest task id on ties — until the gap is within `max_gap`.
/// Withdrawing every decided task yields a vacuous gap of 0.0, so the
/// bound always holds on the output (the quality cost of the dropped
/// coverage is exactly what the policy frontier charts).
pub fn parity_constrained_vote(
    answers: &AnswerSet,
    groups: &BTreeMap<WorkerId, String>,
    max_gap: f64,
) -> BTreeMap<TaskId, u8> {
    let max_gap = max_gap.max(0.0);
    let mut consensus = majority_vote(answers);

    // Per-task, per-group (agreeing, total) answer counts, plus the
    // global tallies — kept incremental so each greedy step is
    // O(tasks × groups), not a rescan of the answer matrix.
    let mut per_task: BTreeMap<TaskId, BTreeMap<String, (i64, i64)>> = BTreeMap::new();
    let mut global: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    for a in answers.answers() {
        let Some(group) = groups.get(&a.worker) else {
            continue;
        };
        let Some(&label) = consensus.get(&a.task) else {
            continue;
        };
        let agree = i64::from(a.label == label);
        let t = per_task
            .entry(a.task)
            .or_default()
            .entry(group.clone())
            .or_insert((0, 0));
        t.0 += agree;
        t.1 += 1;
        let g = global.entry(group.clone()).or_insert((0, 0));
        g.0 += agree;
        g.1 += 1;
    }

    let gap_of = |global: &BTreeMap<String, (i64, i64)>| -> f64 {
        let rates: Vec<f64> = global
            .values()
            .filter(|(_, total)| *total > 0)
            .map(|(agree, total)| *agree as f64 / *total as f64)
            .collect();
        if rates.len() < 2 {
            return 0.0;
        }
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    };

    const EPS: f64 = 1e-12;
    while gap_of(&global) > max_gap + EPS {
        // The decided task whose withdrawal minimises the residual gap.
        let mut best: Option<(f64, TaskId)> = None;
        for (task, contrib) in &per_task {
            let mut hypothetical = global.clone();
            for (group, (agree, total)) in contrib {
                let g = hypothetical.get_mut(group).expect("group in global");
                g.0 -= agree;
                g.1 -= total;
            }
            let gap = gap_of(&hypothetical);
            if best
                .as_ref()
                .is_none_or(|(bg, bt)| gap < bg - EPS || (gap <= bg + EPS && task < bt))
            {
                best = Some((gap, *task));
            }
        }
        let Some((_, task)) = best else { break };
        let contrib = per_task.remove(&task).expect("task tracked");
        for (group, (agree, total)) in contrib {
            let g = global.get_mut(&group).expect("group in global");
            g.0 -= agree;
            g.1 -= total;
        }
        consensus.remove(&task);
    }
    consensus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u32) -> WorkerId {
        WorkerId::new(i)
    }
    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }

    fn set(rows: &[(u32, u32, u8)], classes: u8) -> AnswerSet {
        let mut s = AnswerSet::new(classes);
        for &(wi, ti, l) in rows {
            s.record(w(wi), t(ti), l);
        }
        s
    }

    fn two_groups(n: u32) -> BTreeMap<WorkerId, String> {
        (0..n)
            .map(|i| (w(i), if i % 2 == 0 { "even" } else { "odd" }.to_owned()))
            .collect()
    }

    #[test]
    fn every_registry_name_resolves_and_labels() {
        for name in NAMES {
            let choice = AggregatorChoice::by_name(name).unwrap();
            assert!(!choice.label().is_empty());
            // Hyphenated and cased spellings resolve identically.
            let respelled = name.replace('_', "-").to_uppercase();
            assert_eq!(AggregatorChoice::by_name(&respelled).unwrap(), choice);
        }
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = AggregatorChoice::by_name("median").unwrap_err();
        match &err {
            FaircrowdError::UnknownAggregator { name, available } => {
                assert_eq!(name, "median");
                assert_eq!(available.len(), NAMES.len());
            }
            other => panic!("wrong error: {other}"),
        }
        let text = err.to_string();
        for name in NAMES {
            assert!(text.contains(name), "{text}");
        }
    }

    #[test]
    fn majority_and_weighted_choices_delegate() {
        let s = set(&[(0, 0, 1), (1, 0, 0), (2, 0, 0)], 2);
        let ctx = AggregateContext {
            weights: BTreeMap::from([(w(0), 5.0)]),
            groups: BTreeMap::new(),
        };
        assert_eq!(
            AggregatorChoice::Majority.aggregate(&s, &ctx),
            majority_vote(&s)
        );
        assert_eq!(
            AggregatorChoice::WeightedMajority.aggregate(&s, &ctx)[&t(0)],
            1,
            "weights must reach the weighted aggregator"
        );
    }

    #[test]
    fn parity_gap_measures_group_spread() {
        // t0: both groups agree with consensus; t1: only "even" does.
        let s = set(&[(0, 0, 1), (1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 0)], 2);
        let groups = two_groups(3);
        let consensus = majority_vote(&s);
        assert_eq!(consensus[&t(1)], 0);
        let gap = parity_gap(&s, &groups, &consensus);
        // even: 3/3 agree; odd: 1/2 agree -> gap 0.5
        assert!((gap - 0.5).abs() < 1e-12, "{gap}");
        // One group only: vacuous.
        let one: BTreeMap<_, _> = groups.into_iter().take(1).collect();
        assert_eq!(parity_gap(&s, &one, &consensus), 0.0);
    }

    #[test]
    fn parity_constrained_vote_enforces_the_bound() {
        let s = set(&[(0, 0, 1), (1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 0)], 2);
        let groups = two_groups(3);
        let unconstrained = majority_vote(&s);
        assert!(parity_gap(&s, &groups, &unconstrained) > 0.1);
        let fair = parity_constrained_vote(&s, &groups, 0.1);
        assert!(parity_gap(&s, &groups, &fair) <= 0.1 + 1e-9);
        // The biased task was withdrawn, the balanced one kept.
        assert!(fair.contains_key(&t(0)));
        assert!(!fair.contains_key(&t(1)));
    }

    #[test]
    fn loose_bound_leaves_majority_untouched() {
        let s = set(&[(0, 0, 1), (1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 0)], 2);
        let groups = two_groups(3);
        assert_eq!(parity_constrained_vote(&s, &groups, 1.0), majority_vote(&s));
        // No groups at all: parity is vacuous, majority passes through.
        assert_eq!(
            parity_constrained_vote(&s, &BTreeMap::new(), 0.0),
            majority_vote(&s)
        );
    }
}
