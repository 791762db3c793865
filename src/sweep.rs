//! The parallel scenario-sweep engine: grids of audits, one report.
//!
//! The paper's validation protocol (§4.1) is a *matrix*, not a run:
//! every objective measure — contribution quality for fairness, worker
//! retention for transparency — is taken across assignment policies,
//! seeds and marketplace scales before any conclusion is drawn. This
//! module executes that matrix. A [`SweepGrid`] names the axes
//! (scenarios × policies × strategies × seeds × scales × rounds ×
//! enforcement stacks × aggregators), [`SweepGrid::expand`] takes their
//! Cartesian product into
//! concrete [`SweepCase`]s, and [`run_grid`] drives every case through
//! the [`Pipeline`] on a `std::thread::scope` worker
//! pool, folding the resulting reports into per-cell aggregates
//! ([`faircrowd_core::aggregate`]) exportable as a table, JSON or CSV.
//! Each case's trace is indexed once (`faircrowd_core::TraceIndex`) and
//! shared across its audit and enforcement re-audit, rather than every
//! axiom re-deriving its own maps per cell.
//!
//! Two guarantees shape the design:
//!
//! 1. **Determinism across parallelism.** Each case is a pure function
//!    of its config (the simulator is seeded; see `faircrowd-sim`), the
//!    worker pool writes results by case index, and every reduction is
//!    order-independent — so `--jobs 1` and `--jobs 8` produce
//!    byte-identical JSON and CSV.
//! 2. **Fail-fast validation.** All scenario, policy and enforcement
//!    names resolve during [`SweepGrid::expand`], before any thread
//!    spawns, with errors listing the valid names.
//!
//! With each trace indexed once, audits are cheap and **simulation is
//! the dominant cost of a sweep cell** — so the engine's unit of work
//! is one *final run*, not one case. Cases that differ only on the
//! `aggregator` axis are one platform run rescored after the market
//! closed: the engine groups them (same scenario, policy, strategy,
//! seed, scale, rounds and enforcement stack), and a worker runs each
//! group's pipeline once — simulate or converge, repair, validate,
//! index, audit, wages, summary ([`Pipeline::run_final`]) — builds
//! every sibling's outcome from that one run, and drops the trace
//! before it takes the next group.
//! Enforced cells simulate only their *repaired* config; the unread
//! baseline is never simulated or audited. Cases differing on the
//! `enforce` axis share nothing: each stack is a different market. The
//! simulator is a pure function of its config, so grouped and
//! ungrouped sweeps are byte-identical (the determinism tests pin the
//! grouped sweep against a per-case oracle that runs every case through
//! the full [`Pipeline::run`]).
//!
//! Grid syntax (the CLI's `--grid` argument): `;`-separated
//! `axis=value,value,…` entries —
//!
//! ```text
//! policy=*;seed=0..8;scenario=baseline,spam_campaign;scale=1,2;enforce=none,parity+grace
//! ```
//!
//! `policy=*` means every registry policy, `scenario=*` every catalog
//! scenario, `strategy=*` every agent-strategy profile (strategic
//! cells are iterated to their fixed point before auditing; see
//! `faircrowd_sim::converge`), `aggregator=*` every registered
//! consensus aggregator (see [`faircrowd_quality::aggregate`]); `seed`
//! accepts half-open `a..b` and
//! inclusive `a..=b` ranges (reversed bounds are rejected as typos);
//! `enforce` stacks repairs with `+` (`none` for the empty stack).
//! Omitted axes default to a single point: the `baseline` scenario,
//! its own policy, strategy and round count, seed 42, scale 1, no
//! enforcement, majority-vote aggregation.
//!
//! Aggregation is **post-simulation**: the `aggregator` axis rescores
//! one trace's answer matrix, so cells differing only on the
//! aggregator share their whole final run, enforced or not.
//!
//! ```
//! use faircrowd::sweep::{self, SweepGrid};
//!
//! let grid = SweepGrid::parse("policy=round_robin,kos;seed=0..4;rounds=8")?;
//! let result = sweep::run_grid(&grid, 2)?;
//! assert_eq!(result.cases.len(), 8); // 2 policies × 4 seeds
//! assert_eq!(result.groups.len(), 2); // aggregated across seeds
//! println!("{}", result.render_table());
//! # Ok::<(), faircrowd::FaircrowdError>(())
//! ```

pub mod shard;

use crate::core::aggregate::{ReportAggregate, ScoreStats};
use crate::core::report::TextTable;
use crate::core::{AuditConfig, FairnessReport};
use crate::model::{FaircrowdError, Trace};
use crate::pay::WageStats;
use crate::pipeline::{Enforcement, Pipeline, RunArtifacts};
use crate::quality::aggregate::{AggregateContext, AggregatorChoice};
use crate::quality::{majority_vote, AnswerSet, GoldSet};
use crate::sim::{catalog, strategy, PolicyChoice, StrategyChoice, TraceSummary};
use faircrowd_assign::registry;
use faircrowd_model::contribution::Contribution;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The axes of a sweep. Every field is an optional axis; `None` means
/// the single default point documented on [the module](self). Parse one
/// from the CLI grid syntax with [`SweepGrid::parse`] or build it
/// programmatically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepGrid {
    /// Catalog scenario names (default: `["baseline"]`).
    pub scenarios: Option<Vec<String>>,
    /// Registry policy names overriding each scenario's own policy
    /// (default: keep the scenario's policy).
    pub policies: Option<Vec<String>>,
    /// Simulation seeds (default: `[42]`).
    pub seeds: Option<Vec<u64>>,
    /// Marketplace scale factors applied via
    /// [`ScenarioConfig::at_scale`](crate::sim::ScenarioConfig::at_scale)
    /// (default: `[1.0]`).
    pub scales: Option<Vec<f64>>,
    /// Market-round overrides (default: each scenario's own rounds).
    pub rounds: Option<Vec<u32>>,
    /// Enforcement stacks; the empty stack audits without repair
    /// (default: `[[]]`).
    pub enforcements: Option<Vec<Vec<Enforcement>>>,
    /// Strategy-registry names overriding each scenario's own strategy
    /// (default: keep the scenario's strategy). Strategic cells are
    /// iterated to their fixed point by the pipeline before auditing.
    pub strategies: Option<Vec<String>>,
    /// Aggregator-registry names the consensus-quality column is scored
    /// under (default: `["majority"]`). Post-simulation: siblings on
    /// this axis share one final run.
    pub aggregators: Option<Vec<String>>,
}

impl SweepGrid {
    /// Parse the CLI grid syntax; see [the module docs](self) for the
    /// grammar. Unknown axes and malformed values are usage errors that
    /// name what is valid.
    pub fn parse(spec: &str) -> Result<SweepGrid, FaircrowdError> {
        let mut grid = SweepGrid::default();
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let (key, values) = entry.split_once('=').ok_or_else(|| {
                FaircrowdError::usage(format!("grid entry `{entry}` is not `axis=value[,value…]`"))
            })?;
            let key = key.trim();
            let values = values.trim();
            if values.is_empty() {
                return Err(FaircrowdError::usage(format!("grid axis `{key}` is empty")));
            }
            let taken = match key {
                "scenario" => replace_axis(
                    &mut grid.scenarios,
                    parse_star_list(values, &catalog::NAMES),
                ),
                "policy" => replace_axis(
                    &mut grid.policies,
                    parse_star_list(values, &registry::NAMES),
                ),
                "seed" => replace_axis(&mut grid.seeds, parse_seeds(values)?),
                "scale" => replace_axis(&mut grid.scales, parse_scales(values)?),
                "rounds" => replace_axis(&mut grid.rounds, parse_list(values, key)?),
                "enforce" => replace_axis(&mut grid.enforcements, parse_enforce_axis(values)?),
                "strategy" => replace_axis(
                    &mut grid.strategies,
                    parse_star_list(values, &strategy::NAMES),
                ),
                "aggregator" => replace_axis(
                    &mut grid.aggregators,
                    parse_star_list(values, &crate::quality::aggregate::NAMES),
                ),
                _ => {
                    return Err(FaircrowdError::usage(format!(
                        "unknown grid axis `{key}`; valid axes: \
                         scenario | policy | seed | scale | rounds | enforce | strategy \
                         | aggregator"
                    )))
                }
            };
            if !taken {
                return Err(FaircrowdError::usage(format!(
                    "grid axis `{key}` given twice"
                )));
            }
        }
        Ok(grid)
    }

    /// Expand the grid into concrete cases — the Cartesian product of
    /// all axes, seeds innermost so each aggregate group is one
    /// contiguous run of cases. Resolves and validates every scenario,
    /// policy and enforcement name up front.
    pub fn expand(&self) -> Result<Vec<SweepCase>, FaircrowdError> {
        let scenarios = self
            .scenarios
            .clone()
            .unwrap_or_else(|| vec!["baseline".to_owned()]);
        let seeds = self.seeds.clone().unwrap_or_else(|| vec![42]);
        let scales = self.scales.clone().unwrap_or_else(|| vec![1.0]);
        let stacks = self
            .enforcements
            .clone()
            .unwrap_or_else(|| vec![Vec::new()]);
        // (aggregator override, display label) pairs; scenario-free.
        let aggregators: Vec<(Option<String>, String)> = match &self.aggregators {
            None => vec![(None, AggregatorChoice::Majority.label())],
            Some(names) => names
                .iter()
                .map(|n| Ok((Some(n.clone()), AggregatorChoice::by_name(n)?.label())))
                .collect::<Result<_, FaircrowdError>>()?,
        };

        let mut cases = Vec::new();
        for scenario in &scenarios {
            let base = catalog::get(scenario)?;
            // (policy override, display label) pairs for this scenario.
            let policies: Vec<(Option<String>, String)> = match &self.policies {
                None => vec![(None, base.policy.label())],
                Some(names) => names
                    .iter()
                    .map(|n| Ok((Some(n.clone()), PolicyChoice::by_name(n)?.label())))
                    .collect::<Result<_, FaircrowdError>>()?,
            };
            let rounds_axis = self.rounds.clone().unwrap_or_else(|| vec![base.rounds]);
            // (strategy override, display label) pairs for this scenario.
            let strategies: Vec<(Option<String>, String)> = match &self.strategies {
                None => vec![(None, base.strategy.label().to_owned())],
                Some(names) => names
                    .iter()
                    .map(|n| {
                        Ok((
                            Some(n.clone()),
                            StrategyChoice::by_name(n)?.label().to_owned(),
                        ))
                    })
                    .collect::<Result<_, FaircrowdError>>()?,
            };
            for (policy, policy_label) in &policies {
                for (strategy, strategy_label) in &strategies {
                    for &scale in &scales {
                        for &rounds in &rounds_axis {
                            for stack in &stacks {
                                for (aggregator, aggregator_label) in &aggregators {
                                    for &seed in &seeds {
                                        cases.push(SweepCase {
                                            scenario: scenario.clone(),
                                            policy: policy.clone(),
                                            policy_label: policy_label.clone(),
                                            strategy: strategy.clone(),
                                            strategy_label: strategy_label.clone(),
                                            seed,
                                            scale,
                                            rounds,
                                            enforcements: stack.clone(),
                                            aggregator: aggregator.clone(),
                                            aggregator_label: aggregator_label.clone(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cases)
    }

    /// Number of seeds per aggregate group (the innermost axis length).
    fn seeds_per_group(&self) -> usize {
        self.seeds.as_ref().map_or(1, Vec::len)
    }
}

/// Replace an axis slot, reporting whether it was still unset.
fn replace_axis<T>(slot: &mut Option<T>, value: T) -> bool {
    let fresh = slot.is_none();
    *slot = Some(value);
    fresh
}

/// `*` → the full name list; otherwise a comma-separated list (names
/// are validated later, at expansion, so errors carry the catalog).
fn parse_star_list(values: &str, all: &[&str]) -> Vec<String> {
    if values == "*" {
        all.iter().map(|n| (*n).to_owned()).collect()
    } else {
        values.split(',').map(|v| v.trim().to_owned()).collect()
    }
}

fn parse_list<T: std::str::FromStr>(values: &str, axis: &str) -> Result<Vec<T>, FaircrowdError> {
    values
        .split(',')
        .map(|v| {
            v.trim().parse().map_err(|_| {
                FaircrowdError::usage(format!("invalid value `{v}` for grid axis `{axis}`"))
            })
        })
        .collect()
}

/// Seeds: comma-separated integers, half-open `a..b` ranges and
/// inclusive `a..=b` ranges. Reversed bounds are rejected with their own
/// error (a reversed range is a typo, not an intentionally empty axis).
fn parse_seeds(values: &str) -> Result<Vec<u64>, FaircrowdError> {
    let mut seeds = Vec::new();
    for part in values.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once("..") {
            let parse = |s: &str| -> Result<u64, FaircrowdError> {
                s.trim()
                    .parse()
                    .map_err(|_| FaircrowdError::usage(format!("invalid seed range `{part}`")))
            };
            let (inclusive, hi) = match hi.strip_prefix('=') {
                Some(rest) => (true, rest),
                None => (false, hi),
            };
            let (lo, hi) = (parse(lo)?, parse(hi)?);
            if lo > hi {
                return Err(FaircrowdError::usage(format!(
                    "reversed seed range `{part}`: the lower bound {lo} exceeds the upper \
                     bound {hi} (write {hi}..{} for the ascending range)",
                    if inclusive {
                        format!("={lo}")
                    } else {
                        lo.to_string()
                    }
                )));
            }
            if inclusive {
                seeds.extend(lo..=hi);
            } else {
                if lo == hi {
                    return Err(FaircrowdError::usage(format!(
                        "empty seed range `{part}` (use lo..hi with lo < hi, or lo..=hi to \
                         include the upper bound)"
                    )));
                }
                seeds.extend(lo..hi);
            }
        } else {
            seeds.push(
                part.parse()
                    .map_err(|_| FaircrowdError::usage(format!("invalid seed `{part}`")))?,
            );
        }
    }
    Ok(seeds)
}

fn parse_scales(values: &str) -> Result<Vec<f64>, FaircrowdError> {
    let scales: Vec<f64> = parse_list(values, "scale")?;
    for &s in &scales {
        if !(s.is_finite() && s > 0.0) {
            return Err(FaircrowdError::usage(format!(
                "scale factors must be positive and finite, got `{s}`"
            )));
        }
    }
    Ok(scales)
}

/// Enforcement stacks: `none` or `+`-joined enforcement specs.
fn parse_enforce_axis(values: &str) -> Result<Vec<Vec<Enforcement>>, FaircrowdError> {
    values
        .split(',')
        .map(|stack| {
            let stack = stack.trim();
            if stack == "none" {
                return Ok(Vec::new());
            }
            stack
                .split('+')
                .map(|e| Enforcement::parse(e.trim()))
                .collect()
        })
        .collect()
}

/// Display label for an enforcement stack.
pub fn stack_label(stack: &[Enforcement]) -> String {
    if stack.is_empty() {
        "none".to_owned()
    } else {
        stack
            .iter()
            .map(Enforcement::label)
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// One fully resolved grid cell × seed: everything needed to run one
/// pipeline pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCase {
    /// Catalog scenario name.
    pub scenario: String,
    /// Policy override (registry name), `None` to keep the scenario's.
    pub policy: Option<String>,
    /// Display label of the effective policy.
    pub policy_label: String,
    /// Strategy override (strategy-registry name), `None` to keep the
    /// scenario's.
    pub strategy: Option<String>,
    /// Display label of the effective strategy.
    pub strategy_label: String,
    /// Simulation seed.
    pub seed: u64,
    /// Marketplace scale factor.
    pub scale: f64,
    /// Market rounds.
    pub rounds: u32,
    /// Enforcement stack applied before the second audit pass.
    pub enforcements: Vec<Enforcement>,
    /// Aggregator override (aggregator-registry name), `None` for
    /// majority vote. Post-simulation, so absent from the sim key.
    pub aggregator: Option<String>,
    /// Display label of the effective aggregator.
    pub aggregator_label: String,
}

impl SweepCase {
    /// Build the pipeline this case describes.
    ///
    /// The pipeline indexes each simulated trace once (`TraceIndex`) and
    /// shares it across the audit and the enforcement re-audit; the
    /// sweep contributes nothing per-case beyond configuration. Axiom
    /// fan-out is kept serial here — the sweep's own worker pool already
    /// saturates the cores, and nesting thread pools would oversubscribe
    /// without changing any output (reports are identical either way).
    pub fn pipeline(&self) -> Result<Pipeline, FaircrowdError> {
        let mut config = catalog::get(&self.scenario)?.at_scale(self.scale);
        config.seed = self.seed;
        config.rounds = self.rounds;
        let mut pipeline = Pipeline::new().scenario(config).audit(AuditConfig {
            parallel: false,
            ..AuditConfig::default()
        });
        if let Some(name) = &self.policy {
            pipeline = pipeline.policy_name(name)?;
        }
        if let Some(name) = &self.strategy {
            pipeline = pipeline.strategy_name(name)?;
        }
        for enforcement in &self.enforcements {
            pipeline = pipeline.enforce(enforcement.clone());
        }
        Ok(pipeline)
    }

    /// The consensus aggregator this case scores label quality under.
    pub fn aggregator_choice(&self) -> Result<AggregatorChoice, FaircrowdError> {
        match &self.aggregator {
            None => Ok(AggregatorChoice::Majority),
            Some(name) => AggregatorChoice::by_name(name),
        }
    }

    /// This case's outcome from a final run — its own, or the one it
    /// shares with its aggregator siblings: the run's report, summary
    /// and wages, with consensus scored under this case's aggregator.
    fn outcome_of(&self, run: &RunArtifacts) -> Result<CaseOutcome, FaircrowdError> {
        Ok(CaseOutcome {
            consensus: consensus_accuracy(&run.trace, &self.aggregator_choice()?),
            report: run.report.clone(),
            summary: run.summary.clone(),
            wages: run.wages,
            case: self.clone(),
        })
    }

    /// Everything that determines the **baseline** trace. The `enforce`
    /// axis is absent: it forks the market, so a work unit is keyed by
    /// this *and* the stack. The shard partition clusters on this
    /// coarser key alone, so a unit never straddles shards.
    fn sim_key(&self) -> (String, Option<String>, Option<String>, u64, u64, u32) {
        (
            self.scenario.clone(),
            self.policy.clone(),
            self.strategy.clone(),
            self.seed,
            self.scale.to_bits(),
            self.rounds,
        )
    }
}

/// Consensus quality of a finished trace under an aggregator: the
/// inferred labels' accuracy against the **full** labeling ground
/// truth, with undecided tasks counting as wrong — an aggregator that
/// buys demographic parity by withdrawing coverage pays for it here,
/// which is exactly the trade-off the policy frontier charts. Worker
/// weights are peer-agreement rates (platform-observable; no ground
/// truth leaks into inference) and parity groups come from each
/// worker's declared `region` attribute. `None` when the run had no
/// labeling ground truth to score against.
pub fn consensus_accuracy(trace: &Trace, aggregator: &AggregatorChoice) -> Option<f64> {
    let truth = &trace.ground_truth.true_labels;
    if truth.is_empty() {
        return None;
    }
    let mut classes = 2u8;
    for s in &trace.submissions {
        if let Contribution::Label(l) = s.contribution {
            classes = classes.max(l.saturating_add(1));
        }
    }
    for &l in truth.values() {
        classes = classes.max(l.saturating_add(1));
    }
    let mut answers = AnswerSet::new(classes);
    for s in &trace.submissions {
        if let Contribution::Label(l) = s.contribution {
            answers.record(s.worker, s.task, l);
        }
    }
    // Reliability weights: each worker's agreement with the plain
    // majority consensus over decided tasks — platform-observable, no
    // ground truth leaking into inference.
    let majority = majority_vote(&answers);
    let mut agreement: std::collections::BTreeMap<_, (usize, usize)> = Default::default();
    for a in answers.answers() {
        if let Some(&label) = majority.get(&a.task) {
            let e = agreement.entry(a.worker).or_insert((0, 0));
            e.0 += usize::from(a.label == label);
            e.1 += 1;
        }
    }
    let ctx = AggregateContext {
        weights: agreement
            .into_iter()
            .map(|(w, (hit, total))| (w, hit as f64 / total as f64))
            .collect(),
        groups: trace
            .workers
            .iter()
            .filter_map(|w| w.declared.group_key("region").map(|g| (w.id, g)))
            .collect(),
    };
    let labels = aggregator.aggregate(&answers, &ctx);
    let mut gold = GoldSet::new();
    for (&task, &label) in truth {
        gold.insert(task, label);
    }
    Some(gold.score_labels(&labels).accuracy())
}

/// What one executed case contributes to the aggregates.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case that ran.
    pub case: SweepCase,
    /// The final audit (the re-audit when enforcement ran).
    pub report: FairnessReport,
    /// The final market summary.
    pub summary: TraceSummary,
    /// Effective-wage statistics of the final run; `None` when no
    /// worker invested time. Absent wages are **skipped** by the cell
    /// fold, never averaged in as gini-0/jain-1 "perfect fairness".
    pub wages: Option<WageStats>,
    /// Consensus accuracy under the case's aggregator
    /// ([`consensus_accuracy`]); `None` when the run carried no
    /// labeling ground truth. Like wages, absent values are skipped by
    /// the cell fold.
    pub consensus: Option<f64>,
}

/// One grid cell's aggregate across its seeds.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Scenario name.
    pub scenario: String,
    /// Effective policy label.
    pub policy: String,
    /// Effective strategy label.
    pub strategy: String,
    /// Scale factor.
    pub scale: f64,
    /// Market rounds.
    pub rounds: u32,
    /// Enforcement-stack label (`"none"` when empty).
    pub enforce: String,
    /// Effective aggregator label.
    pub aggregator: String,
    /// The seeds folded into this cell, ascending.
    pub seeds: Vec<u64>,
    /// Axiom/score aggregate across the seeds.
    pub aggregate: ReportAggregate,
    /// Worker-retention statistics across the seeds.
    pub retention: ScoreStats,
    /// Mean hourly wage (dollars/h) across the seeds **that had a wage
    /// distribution**; `n` < `seeds.len()` means some runs paid for no
    /// invested time and were skipped, `n == 0` means the whole cell
    /// was wage-less (exported as `null`, not as perfect fairness).
    pub wage_mean: ScoreStats,
    /// Wage Gini coefficient across the same seeds.
    pub wage_gini: ScoreStats,
    /// Consensus accuracy under the cell's aggregator, across the seeds
    /// **that had labeling ground truth**; `n == 0` means none did (the
    /// column exports as `null`/empty, never as a fabricated score).
    pub consensus: ScoreStats,
}

/// The result of running a grid: per-case outcomes (grid order) and
/// per-cell aggregates.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Every executed case, in grid-expansion order.
    pub cases: Vec<CaseOutcome>,
    /// Per-cell aggregates across seeds, in grid order.
    pub groups: Vec<GroupSummary>,
}

/// Run every case of `grid` on a pool of `jobs` worker threads
/// (clamped to at least 1) and fold the reports into per-cell
/// aggregates. Output is deterministic: identical for any `jobs`, and
/// identical to running every case on its own through the full
/// [`Pipeline::run`].
pub fn run_grid(grid: &SweepGrid, jobs: usize) -> Result<SweepResult, FaircrowdError> {
    run_grid_observed(grid, jobs, None)
}

/// A per-cell completion observer: called from worker threads, once
/// per case as it finishes, with the case's grid-expansion index — in
/// completion order, not grid order. `None` observes nothing.
pub type CellHook<'a> = Option<&'a (dyn Fn(usize, &CaseOutcome) + Sync)>;

/// [`run_grid`] with a per-cell completion hook (the CLI's
/// `--progress`). The hook observes; it cannot change any output, so
/// observed and unobserved sweeps stay byte-identical.
pub fn run_grid_observed(
    grid: &SweepGrid,
    jobs: usize,
    on_done: CellHook<'_>,
) -> Result<SweepResult, FaircrowdError> {
    let cases = grid.expand()?;
    let outcomes = run_cases(&cases, jobs, on_done)?;
    Ok(SweepResult {
        groups: fold_groups(&outcomes, grid.seeds_per_group()),
        cases: outcomes,
    })
}

/// Group `cases` into work units: the indexes of the cases sharing a
/// [`SweepCase::sim_key`] and an enforcement stack — the siblings that
/// differ only on the aggregator. Units appear in first-occurrence
/// order, each listing its cases ascending.
fn work_units(cases: &[SweepCase]) -> Vec<Vec<usize>> {
    let mut unit_of_key = HashMap::new();
    let mut units: Vec<Vec<usize>> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let key = (case.sim_key(), stack_label(&case.enforcements));
        let next = units.len();
        let unit = *unit_of_key.entry(key).or_insert(next);
        if unit == next {
            units.push(Vec::new());
        }
        units[unit].push(i);
    }
    units
}

/// Execute `cases` on `jobs` scoped worker threads. Workers pull whole
/// work units ([`work_units`]) off a shared atomic counter; results
/// land in their case's slot, so the output order is the input order
/// regardless of thread scheduling.
///
/// A unit's pipeline runs once ([`Pipeline::run_final`]) and every
/// sibling's outcome is built from that run; its trace is dropped
/// before the worker takes the next unit, so at most `jobs` final
/// traces are alive at once.
fn run_cases(
    cases: &[SweepCase],
    jobs: usize,
    on_done: CellHook<'_>,
) -> Result<Vec<CaseOutcome>, FaircrowdError> {
    let units = work_units(cases);
    let jobs = jobs.max(1).min(units.len().max(1));
    let slots: Vec<Mutex<Option<Result<CaseOutcome, FaircrowdError>>>> =
        cases.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let outcomes = match cases[unit[0]].pipeline().and_then(Pipeline::run_final) {
                        Ok(run) => unit.iter().map(|&i| cases[i].outcome_of(&run)).collect(),
                        Err(e) => vec![Err(e); unit.len()],
                    };
                    for (&i, outcome) in unit.iter().zip(outcomes) {
                        if let (Some(on_done), Ok(outcome)) = (on_done, &outcome) {
                            on_done(i, outcome);
                        }
                        *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every case index was claimed by a worker")
        })
        .collect()
}

/// Fold outcomes into per-cell aggregates. Expansion puts seeds
/// innermost, so each cell is one contiguous chunk of `seeds_per_group`
/// outcomes; within a chunk, reports are re-sorted by seed so the fold
/// never depends on axis ordering.
fn fold_groups(outcomes: &[CaseOutcome], seeds_per_group: usize) -> Vec<GroupSummary> {
    outcomes
        .chunks(seeds_per_group.max(1))
        .map(|chunk| {
            let mut by_seed: Vec<&CaseOutcome> = chunk.iter().collect();
            by_seed.sort_by_key(|o| o.case.seed);
            let reports: Vec<FairnessReport> = by_seed.iter().map(|o| o.report.clone()).collect();
            let retention: Vec<f64> = by_seed.iter().map(|o| o.summary.retention).collect();
            // Seeds without a wage distribution contribute nothing — an
            // empty distribution has no statistics, so folding it in
            // (as the old gini-0/jain-1 values) would fabricate
            // perfect-fairness evidence in the cell aggregate.
            let wages: Vec<&WageStats> = by_seed.iter().filter_map(|o| o.wages.as_ref()).collect();
            let wage_of =
                |f: fn(&WageStats) -> f64| -> Vec<f64> { wages.iter().map(|w| f(w)).collect() };
            // Same skip rule as wages: runs without labeling ground
            // truth contribute no consensus score.
            let consensus: Vec<f64> = by_seed.iter().filter_map(|o| o.consensus).collect();
            let first = &chunk[0].case;
            GroupSummary {
                scenario: first.scenario.clone(),
                policy: first.policy_label.clone(),
                strategy: first.strategy_label.clone(),
                scale: first.scale,
                rounds: first.rounds,
                enforce: stack_label(&first.enforcements),
                aggregator: first.aggregator_label.clone(),
                seeds: by_seed.iter().map(|o| o.case.seed).collect(),
                aggregate: ReportAggregate::of(&reports),
                retention: ScoreStats::of(&retention),
                wage_mean: ScoreStats::of(&wage_of(|w| w.mean)),
                wage_gini: ScoreStats::of(&wage_of(|w| w.gini)),
                consensus: ScoreStats::of(&consensus),
            }
        })
        .collect()
}

impl SweepResult {
    /// Render the per-cell aggregates as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new([
            "scenario",
            "policy",
            "strategy",
            "scale",
            "rounds",
            "enforce",
            "aggregator",
            "seeds",
            "fairness",
            "transparency",
            "overall",
            "min..max",
            "violations",
            "retention",
            "wage/h",
            "wage-gini",
            "consensus",
        ])
        .numeric();
        for g in &self.groups {
            // A cell with no wage distribution shows "-", not a
            // fabricated perfectly-fair 0.000; same for a cell with no
            // labeling ground truth to score consensus against.
            let (wage, gini) = if g.wage_mean.n == 0 {
                ("-".to_owned(), "-".to_owned())
            } else {
                (
                    format!("${:.2}", g.wage_mean.mean),
                    format!("{:.3}", g.wage_gini.mean),
                )
            };
            let consensus = if g.consensus.n == 0 {
                "-".to_owned()
            } else {
                format!("{:.3}", g.consensus.mean)
            };
            table.row([
                g.scenario.clone(),
                g.policy.clone(),
                g.strategy.clone(),
                format!("{}", g.scale),
                g.rounds.to_string(),
                g.enforce.clone(),
                g.aggregator.clone(),
                g.seeds.len().to_string(),
                format!("{:.3}", g.aggregate.fairness.mean),
                format!("{:.3}", g.aggregate.transparency.mean),
                format!("{:.3}", g.aggregate.overall.mean),
                format!(
                    "{:.3}..{:.3}",
                    g.aggregate.overall.min, g.aggregate.overall.max
                ),
                g.aggregate.total_violations.to_string(),
                format!("{:.1}%", g.retention.mean * 100.0),
                wage,
                gini,
                consensus,
            ]);
        }
        table.render()
    }

    /// Serialise the aggregates (and per-case rows) as JSON. The output
    /// is a pure function of the grid — the number of worker threads
    /// used never appears — so parallel and serial sweeps are
    /// byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"groups\": [");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"scenario\": {}, \"policy\": {}, \"strategy\": {}, \"scale\": {}, \
                 \"rounds\": {}, \"enforce\": {}, \"aggregator\": {}, \"seeds\": [{}], \
                 \"runs\": {}, \
                 \"all_hold_runs\": {}, \"total_violations\": {},",
                json_str(&g.scenario),
                json_str(&g.policy),
                json_str(&g.strategy),
                json_f64(g.scale),
                g.rounds,
                json_str(&g.enforce),
                json_str(&g.aggregator),
                g.seeds
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
                g.aggregate.runs,
                g.aggregate.all_hold_runs,
                g.aggregate.total_violations,
            );
            for (label, stats) in [
                ("fairness", &g.aggregate.fairness),
                ("transparency", &g.aggregate.transparency),
                ("overall", &g.aggregate.overall),
                ("retention", &g.retention),
            ] {
                let _ = write!(out, " \"{}\": {},", label, json_stats(stats));
            }
            // `null`, not gini-0/jain-1, for wage-less cells.
            if g.wage_mean.n == 0 {
                out.push_str(" \"wages\": null,");
            } else {
                let _ = write!(
                    out,
                    " \"wages\": {{\"runs\": {}, \"hourly\": {}, \"gini\": {}}},",
                    g.wage_mean.n,
                    json_stats(&g.wage_mean),
                    json_stats(&g.wage_gini),
                );
            }
            // Same rule for cells with no labeling ground truth.
            if g.consensus.n == 0 {
                out.push_str(" \"consensus\": null,");
            } else {
                let _ = write!(
                    out,
                    " \"consensus\": {{\"runs\": {}, \"accuracy\": {}}},",
                    g.consensus.n,
                    json_stats(&g.consensus),
                );
            }
            out.push_str(" \"axioms\": [");
            for (j, a) in g.aggregate.axioms.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"axiom\": {}, \"runs\": {}, \"passes\": {}, \"pass_rate\": {}, \
                     \"score\": {}, \"violations\": {}}}",
                    json_str(a.axiom.label()),
                    a.runs,
                    a.passes,
                    json_f64(a.pass_rate),
                    json_stats(&a.score),
                    a.violations,
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"cases\": [");
        for (i, c) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let wages = match &c.wages {
                None => "null".to_owned(),
                Some(w) => format!(
                    "{{\"n\": {}, \"hourly\": {}, \"gini\": {}, \"jain\": {}}}",
                    w.n,
                    json_f64(w.mean),
                    json_f64(w.gini),
                    json_f64(w.jain)
                ),
            };
            let consensus = match c.consensus {
                None => "null".to_owned(),
                Some(a) => json_f64(a),
            };
            let _ = write!(
                out,
                "\n    {{\"scenario\": {}, \"policy\": {}, \"strategy\": {}, \"seed\": {}, \
                 \"scale\": {}, \"rounds\": {}, \"enforce\": {}, \"aggregator\": {}, \
                 \"fairness\": {}, \
                 \"transparency\": {}, \"overall\": {}, \"violations\": {}, \
                 \"retention\": {}, \"wages\": {}, \"consensus\": {}}}",
                json_str(&c.case.scenario),
                json_str(&c.case.policy_label),
                json_str(&c.case.strategy_label),
                c.case.seed,
                json_f64(c.case.scale),
                c.case.rounds,
                json_str(&stack_label(&c.case.enforcements)),
                json_str(&c.case.aggregator_label),
                json_f64(c.report.fairness_score()),
                json_f64(c.report.transparency_score()),
                json_f64(c.report.overall_score()),
                c.report.total_violations(),
                json_f64(c.summary.retention),
                wages,
                consensus,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serialise the per-cell aggregates as CSV (one row per grid
    /// cell). Deterministic for the same grid regardless of `jobs`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,policy,strategy,scale,rounds,enforce,aggregator,runs,\
             fairness_mean,fairness_min,fairness_max,\
             transparency_mean,transparency_min,transparency_max,\
             overall_mean,overall_min,overall_max,\
             retention_mean,total_violations,all_hold_runs,\
             wage_runs,wage_hourly_mean,wage_gini_mean,\
             consensus_runs,consensus_mean",
        );
        for id in crate::core::AxiomId::ALL {
            let _ = write!(out, ",{}_pass_rate", id.label());
        }
        out.push('\n');
        for g in &self.groups {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{}",
                csv_field(&g.scenario),
                csv_field(&g.policy),
                csv_field(&g.strategy),
                json_f64(g.scale),
                g.rounds,
                csv_field(&g.enforce),
                csv_field(&g.aggregator),
                g.aggregate.runs,
            );
            for stats in [
                &g.aggregate.fairness,
                &g.aggregate.transparency,
                &g.aggregate.overall,
            ] {
                let _ = write!(
                    out,
                    ",{},{},{}",
                    json_f64(stats.mean),
                    json_f64(stats.min),
                    json_f64(stats.max)
                );
            }
            let _ = write!(
                out,
                ",{},{},{}",
                json_f64(g.retention.mean),
                g.aggregate.total_violations,
                g.aggregate.all_hold_runs
            );
            // Wage columns stay empty (not 0 / 1) when the cell had no
            // wage distribution to measure.
            if g.wage_mean.n == 0 {
                out.push_str(",0,,");
            } else {
                let _ = write!(
                    out,
                    ",{},{},{}",
                    g.wage_mean.n,
                    json_f64(g.wage_mean.mean),
                    json_f64(g.wage_gini.mean)
                );
            }
            // Consensus columns stay empty when no run had labeling
            // ground truth to score against.
            if g.consensus.n == 0 {
                out.push_str(",0,");
            } else {
                let _ = write!(out, ",{},{}", g.consensus.n, json_f64(g.consensus.mean));
            }
            for id in crate::core::AxiomId::ALL {
                match g.aggregate.axiom(id) {
                    Some(a) => {
                        let _ = write!(out, ",{}", json_f64(a.pass_rate));
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// JSON string literal with the escapes our label alphabet can need.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest round-trip decimal for a float (Rust's `Display`), which is
/// deterministic and therefore safe for byte-identical exports.
pub(crate) fn json_f64(x: f64) -> String {
    if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
        // keep JSON numbers as numbers but make integers explicit floats
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

fn json_stats(s: &ScoreStats) -> String {
    format!(
        "{{\"mean\": {}, \"min\": {}, \"max\": {}}}",
        json_f64(s.mean),
        json_f64(s.min),
        json_f64(s.max)
    )
}

/// Quote a CSV field only when it needs quoting.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle the grouped sweep is pinned against: every case on
    /// its own, serially, through the full [`Pipeline::run`] — baseline
    /// and, when the stack is non-empty, repair + re-audit — folded as
    /// the sweep folds.
    fn per_case_sweep(grid: &SweepGrid) -> SweepResult {
        let outcomes: Vec<CaseOutcome> = grid
            .expand()
            .unwrap()
            .iter()
            .map(|case| {
                let result = case.pipeline()?.run()?;
                case.outcome_of(&result.enforced.map_or(result.baseline, |e| e.artifacts))
            })
            .collect::<Result<_, FaircrowdError>>()
            .unwrap();
        SweepResult {
            groups: fold_groups(&outcomes, grid.seeds_per_group()),
            cases: outcomes,
        }
    }

    #[test]
    fn default_grid_is_one_baseline_case() {
        let cases = SweepGrid::default().expand().unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].scenario, "baseline");
        assert_eq!(cases[0].seed, 42);
        assert_eq!(cases[0].rounds, 48);
        assert!(cases[0].policy.is_none());
        assert!(cases[0].enforcements.is_empty());
    }

    #[test]
    fn parse_covers_every_axis() {
        let grid = SweepGrid::parse(
            "policy=round_robin,kos;seed=0..3,11;scenario=baseline;scale=1,2.5;rounds=8;\
             enforce=none,parity+grace,floor:4",
        )
        .unwrap();
        assert_eq!(grid.policies.as_deref().unwrap().len(), 2);
        assert_eq!(grid.seeds.as_deref().unwrap(), &[0, 1, 2, 11]);
        assert_eq!(grid.scales.as_deref().unwrap(), &[1.0, 2.5]);
        assert_eq!(grid.rounds.as_deref().unwrap(), &[8]);
        let stacks = grid.enforcements.as_deref().unwrap();
        assert_eq!(stacks.len(), 3);
        assert!(stacks[0].is_empty());
        assert_eq!(stacks[1].len(), 2);
        assert_eq!(stacks[2], vec![Enforcement::ExposureFloor(4)]);
        // 1 scenario × 2 policies × 2 scales × 1 rounds × 3 stacks × 4 seeds
        assert_eq!(grid.expand().unwrap().len(), 48);
    }

    #[test]
    fn star_expands_to_full_registries() {
        let grid = SweepGrid::parse("policy=*;scenario=*;strategy=*;aggregator=*").unwrap();
        assert_eq!(
            grid.policies.as_deref().unwrap().len(),
            registry::NAMES.len()
        );
        assert_eq!(
            grid.scenarios.as_deref().unwrap().len(),
            catalog::NAMES.len()
        );
        assert_eq!(
            grid.strategies.as_deref().unwrap().len(),
            strategy::NAMES.len()
        );
        assert_eq!(
            grid.aggregators.as_deref().unwrap().len(),
            crate::quality::aggregate::NAMES.len()
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "policy",        // no `=`
            "policy=",       // empty axis
            "seed=x",        // not a number
            "seed=5..5",     // empty range
            "seed=5..=x",    // malformed inclusive bound
            "scale=0",       // non-positive
            "scale=nan",     // non-finite
            "rounds=a",      // not a number
            "enforce=magic", // unknown enforcement
            "orbit=1",       // unknown axis
            "seed=1;seed=2", // duplicate axis
        ] {
            assert!(SweepGrid::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn duplicate_axis_error_names_the_axis() {
        // A duplicated axis used to silently overwrite the earlier
        // entry; the rejection must say *which* axis was repeated.
        let err = SweepGrid::parse("seed=0..4;seed=9").unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(
            err.to_string().contains("grid axis `seed` given twice"),
            "{err}"
        );
        let err = SweepGrid::parse("scale=1;rounds=8;scale=2").unwrap_err();
        assert!(err.to_string().contains("`scale`"), "{err}");
    }

    #[test]
    fn inclusive_seed_ranges_parse() {
        let grid = SweepGrid::parse("seed=0..=3").unwrap();
        assert_eq!(grid.seeds.as_deref().unwrap(), &[0, 1, 2, 3]);
        // A single-point inclusive range is legal (unlike `5..5`)…
        let grid = SweepGrid::parse("seed=5..=5").unwrap();
        assert_eq!(grid.seeds.as_deref().unwrap(), &[5]);
        // …and both forms mix with plain values.
        let grid = SweepGrid::parse("seed=7,0..2,4..=5").unwrap();
        assert_eq!(grid.seeds.as_deref().unwrap(), &[7, 0, 1, 4, 5]);
    }

    #[test]
    fn reversed_seed_ranges_get_a_precise_error() {
        // `5..3` used to fall through to the generic "empty seed range"
        // message; a reversed range is a typo and must say so.
        let err = SweepGrid::parse("seed=5..3").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("reversed seed range `5..3`"), "{text}");
        assert!(text.contains("3..5"), "{text}");
        let err = SweepGrid::parse("seed=9..=2").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("reversed seed range `9..=2`"), "{text}");
        assert!(text.contains("2..=9"), "{text}");
    }

    #[test]
    fn expand_validates_names_up_front() {
        let grid = SweepGrid::parse("scenario=atlantis").unwrap();
        assert!(matches!(
            grid.expand(),
            Err(FaircrowdError::UnknownScenario { .. })
        ));
        let grid = SweepGrid::parse("policy=magic").unwrap();
        assert!(matches!(
            grid.expand(),
            Err(FaircrowdError::UnknownPolicy { .. })
        ));
        let grid = SweepGrid::parse("strategy=chaos_monkey").unwrap();
        assert!(matches!(
            grid.expand(),
            Err(FaircrowdError::UnknownStrategy { .. })
        ));
        let grid = SweepGrid::parse("aggregator=median").unwrap();
        assert!(matches!(
            grid.expand(),
            Err(FaircrowdError::UnknownAggregator { .. })
        ));
    }

    #[test]
    fn aggregator_axis_expands_between_enforce_and_seeds() {
        let grid = SweepGrid::parse(
            "rounds=6;enforce=none,grace;aggregator=majority,parity_constrained;seed=1,2",
        )
        .unwrap();
        let cases = grid.expand().unwrap();
        // 2 stacks × 2 aggregators × 2 seeds, seeds innermost.
        assert_eq!(cases.len(), 8);
        assert_eq!(cases[0].aggregator_label, "majority");
        assert_eq!(cases[0].seed, 1);
        assert_eq!(cases[1].seed, 2);
        assert_eq!(cases[2].aggregator.as_deref(), Some("parity_constrained"));
        assert_eq!(cases[2].aggregator_label, "parity-constrained");
        assert!(cases[3].enforcements.is_empty());
        assert_eq!(cases[4].enforcements.len(), 1, "stack outside aggregator");
    }

    #[test]
    fn aggregator_axis_shares_the_simulation_key() {
        // Cells differing only on the aggregator rescore one trace:
        // they must share a sim key and so one work unit (the axis is
        // post-sim).
        let grid = SweepGrid::parse("rounds=6;aggregator=majority,weighted_majority").unwrap();
        let cases = grid.expand().unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].sim_key(), cases[1].sim_key());
        assert_eq!(work_units(&cases), vec![vec![0, 1]]);
    }

    #[test]
    fn work_units_group_exactly_the_aggregator_siblings() {
        let units_of = |spec: &str| {
            let cases = SweepGrid::parse(spec).unwrap().expand().unwrap();
            let units = work_units(&cases);
            // Every case appears in exactly one unit.
            let mut seen: Vec<usize> = units.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..cases.len()).collect::<Vec<_>>(), "{spec}");
            // Siblings differ only on the aggregator.
            for unit in &units {
                let first = &cases[unit[0]];
                for &i in &unit[1..] {
                    let sibling = SweepCase {
                        aggregator: first.aggregator.clone(),
                        aggregator_label: first.aggregator_label.clone(),
                        ..cases[i].clone()
                    };
                    assert_eq!(&sibling, first, "{spec}: unit {unit:?}");
                }
            }
            (cases.len(), units.len())
        };
        // Frontier-shaped: 3 policies × 2 aggregators × 2 stacks × 2
        // seeds → each unit is one aggregator pair.
        let (cases, units) = units_of(
            "policy=self_selection,round_robin,kos;aggregator=majority,parity_constrained;\
             enforce=none,parity;seed=1,2;rounds=6",
        );
        assert_eq!(cases, 24);
        assert_eq!(units, cases / 2);
        // Aggregator-free: every case is its own unit, enforce siblings
        // included.
        let (cases, units) = units_of("policy=round_robin,kos;enforce=none,grace;seed=1,2");
        assert_eq!(units, cases);
    }

    #[test]
    fn aggregator_axis_scores_consensus_per_cell() {
        let grid = SweepGrid::parse(
            "scenario=baseline;rounds=8;aggregator=majority,weighted_majority,parity_constrained",
        )
        .unwrap();
        let result = run_grid(&grid, 2).unwrap();
        assert_eq!(result.groups.len(), 3);
        for g in &result.groups {
            assert_eq!(g.consensus.n, 1, "baseline has labeling ground truth");
            assert!(
                (0.0..=1.0).contains(&g.consensus.mean),
                "{}",
                g.consensus.mean
            );
        }
        assert_eq!(result.groups[0].aggregator, "majority");
        assert_eq!(result.groups[2].aggregator, "parity-constrained");
        // Exports carry the axis.
        assert!(result
            .to_json()
            .contains("\"aggregator\": \"weighted-majority\""));
        assert!(result
            .to_csv()
            .starts_with("scenario,policy,strategy,scale,rounds,enforce,aggregator,"));
        assert!(result.render_table().contains("parity-constrained"));
        // The grouped sweep equals the per-case one with the axis too.
        let uncached = per_case_sweep(&grid);
        assert_eq!(result.to_json(), uncached.to_json());
    }

    #[test]
    fn strategy_axis_expands_and_defaults_to_the_scenario() {
        // No strategy axis: legacy scenarios keep `static`, strategic
        // scenarios keep their own profile.
        let cases = SweepGrid::parse("scenario=baseline,super_turkers;rounds=6")
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(cases.len(), 2);
        assert!(cases[0].strategy.is_none());
        assert_eq!(cases[0].strategy_label, "static");
        assert_eq!(cases[1].strategy_label, "super_turker");
        // Explicit axis: every value overrides, nested outside scale.
        let cases = SweepGrid::parse("strategy=static,price_undercut;scale=1,2")
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].strategy.as_deref(), Some("static"));
        assert_eq!(cases[2].strategy.as_deref(), Some("price_undercut"));
        assert_eq!(cases[2].strategy_label, "price_undercut");
    }

    #[test]
    fn strategy_axis_runs_converged_cells() {
        // A strategic override on a legacy scenario converges inside the
        // sweep and differs from the static cell, while the static cell
        // matches a plain (axis-free) sweep bit-for-bit.
        let grid =
            SweepGrid::parse("scenario=baseline;rounds=8;strategy=static,super_turker").unwrap();
        let result = run_grid(&grid, 2).unwrap();
        assert_eq!(result.groups.len(), 2);
        assert_eq!(result.groups[0].strategy, "static");
        assert_eq!(result.groups[1].strategy, "super_turker");
        let plain = run_grid(&SweepGrid::parse("scenario=baseline;rounds=8").unwrap(), 1).unwrap();
        assert_eq!(
            result.cases[0].report.overall_score(),
            plain.cases[0].report.overall_score(),
            "static override is the plain run"
        );
        assert!(result.to_json().contains("\"strategy\": \"super_turker\""));
        assert!(result.to_csv().starts_with("scenario,policy,strategy,"));
    }

    #[test]
    fn grid_runs_and_groups_across_seeds() {
        let grid =
            SweepGrid::parse("policy=self_selection,round_robin;seed=1,2,3;rounds=6").unwrap();
        let result = run_grid(&grid, 2).unwrap();
        assert_eq!(result.cases.len(), 6);
        assert_eq!(result.groups.len(), 2);
        for g in &result.groups {
            assert_eq!(g.seeds, vec![1, 2, 3]);
            assert_eq!(g.aggregate.runs, 3);
        }
        let table = result.render_table();
        assert!(table.contains("self-selection"));
        assert!(table.contains("round-robin"));
    }

    #[test]
    fn exports_are_wellformed() {
        let grid = SweepGrid::parse("seed=1,2;rounds=6").unwrap();
        let result = run_grid(&grid, 1).unwrap();
        let json = result.to_json();
        assert!(json.contains("\"groups\""));
        assert!(json.contains("\"cases\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let csv = result.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2, "header + one group");
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "csv arity"
        );
    }

    #[test]
    fn cached_and_uncached_sweeps_are_byte_identical() {
        // Sharing one final run across aggregator siblings (enforced or
        // not) must change wall-clock and nothing else — across
        // different job counts too.
        for spec in [
            "scenario=baseline;rounds=8;seed=1,2;enforce=none,grace,parity",
            "scenario=baseline;rounds=8;aggregator=majority,parity_constrained;\
             enforce=none,grace,parity+grace;seed=1,2",
        ] {
            let grid = SweepGrid::parse(spec).unwrap();
            let uncached = per_case_sweep(&grid);
            for jobs in [1, 3] {
                let cached = run_grid(&grid, jobs).unwrap();
                assert_eq!(cached.to_json(), uncached.to_json(), "{spec} jobs={jobs}");
                assert_eq!(cached.to_csv(), uncached.to_csv(), "{spec} jobs={jobs}");
                assert_eq!(cached.render_table(), uncached.render_table());
            }
        }
    }

    #[test]
    fn sweep_cells_carry_wage_statistics() {
        let grid = SweepGrid::parse("scenario=baseline;rounds=8;seed=1,2").unwrap();
        let result = run_grid(&grid, 2).unwrap();
        let g = &result.groups[0];
        assert_eq!(g.wage_mean.n, 2, "both seeds pay wages in baseline");
        assert!(g.wage_mean.mean > 0.0);
        assert!((0.0..=1.0).contains(&g.wage_gini.mean));
        assert!(result.to_json().contains("\"wages\": {"));
    }

    #[test]
    fn zero_wage_cells_fold_without_fabricated_fairness() {
        // Regression for the WageStats empty-distribution bug: a grid
        // cell whose runs paid for no invested time must export
        // null/empty wage columns — never the old gini-0/jain-1
        // "perfect fairness" — and mixed cells must fold only the seeds
        // that actually had wages.
        use crate::model::Credits;
        let case = |seed: u64| SweepCase {
            scenario: "baseline".into(),
            policy: None,
            policy_label: "self-selection".into(),
            strategy: None,
            strategy_label: "static".into(),
            seed,
            scale: 1.0,
            rounds: 8,
            enforcements: Vec::new(),
            aggregator: None,
            aggregator_label: "majority".into(),
        };
        let empty_trace = crate::model::Trace::default();
        let report = crate::core::AuditEngine::with_defaults().run(&empty_trace);
        let outcome = |seed, wages| CaseOutcome {
            case: case(seed),
            report: report.clone(),
            summary: TraceSummary::of(&empty_trace),
            wages,
            consensus: None,
        };
        let paid =
            WageStats::from_wages(&[Credits::from_dollars(2), Credits::from_dollars(6)]).unwrap();
        // Cell 1: one wage-less seed among two. Cell 2: fully wage-less.
        let outcomes = vec![
            outcome(1, Some(paid)),
            outcome(2, None),
            outcome(3, None),
            outcome(4, None),
        ];
        let groups = fold_groups(&outcomes, 2);
        assert_eq!(groups.len(), 2);
        let mixed = &groups[0];
        assert_eq!(mixed.wage_mean.n, 1, "only the paid seed is folded");
        assert!((mixed.wage_mean.mean - paid.mean).abs() < 1e-12);
        assert!((mixed.wage_gini.mean - paid.gini).abs() < 1e-12);
        let wageless = &groups[1];
        assert_eq!(wageless.wage_mean.n, 0);
        let result = SweepResult {
            cases: outcomes,
            groups,
        };
        let json = result.to_json();
        assert!(
            json.contains("\"wages\": null"),
            "wage-less cell must export null: {json}"
        );
        let csv = result.to_csv();
        let wageless_row = csv.lines().nth(2).unwrap();
        assert!(
            wageless_row.contains(",0,,"),
            "wage columns must stay empty, got: {wageless_row}"
        );
        let table = result.render_table();
        assert!(table.contains('-'), "table shows '-' for missing wages");
    }

    #[test]
    fn enforcement_axis_changes_outcomes() {
        let grid =
            SweepGrid::parse("scenario=worker_churn;rounds=12;enforce=none,transparency").unwrap();
        let result = run_grid(&grid, 2).unwrap();
        assert_eq!(result.groups.len(), 2);
        let none = &result.groups[0];
        let repaired = &result.groups[1];
        assert!(
            repaired.aggregate.transparency.mean >= none.aggregate.transparency.mean,
            "minimal-transparency repair should not lower the transparency score"
        );
    }
}
