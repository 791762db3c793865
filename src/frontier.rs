//! The policy frontier: quality/fairness Pareto analysis over a
//! policy × aggregator × enforcement grid.
//!
//! The paper's central claim is that fairness interventions are not
//! free — exposure parity, wage floors and parity-constrained
//! aggregation each trade label quality or requester cost for worker
//! fairness. This module makes the trade-off *chartable*: it runs a
//! [`SweepGrid`] whose interesting axes are the assignment policy, the
//! consensus aggregator and the enforcement stack, scores every cell
//! on three objectives —
//!
//! * **quality** ↑ — consensus accuracy against the simulator's gold
//!   labels ([`crate::sweep::consensus_accuracy`]; undecided tasks
//!   count as wrong, so withdrawn coverage is paid for);
//! * **wage Gini** ↓ — earnings inequality across workers;
//! * **violations** ↓ — total axiom violations from the audit;
//!
//! — and extracts the **Pareto-dominant set**: the cells no other cell
//! beats on every objective at once. Everything downstream of
//! [`run_grid_observed`] is deterministic (same table for any
//! `--jobs`), so the frontier is too.
//!
//! Cells that lack a measurement (no labeling ground truth, or no paid
//! wages) are listed but never *on* the frontier and never dominate —
//! the frontier charts measured trade-offs, not fabricated ones.
//!
//! ```
//! use faircrowd::frontier;
//!
//! let grid = frontier::frontier_grid("policy=round_robin,kos;aggregator=majority;\
//!                                     enforce=none;rounds=6")?;
//! let result = frontier::run_frontier(&grid, 2)?;
//! // One frontier point per sweep cell: 2 policies × 1 aggregator × 1 stack.
//! assert_eq!(result.points.len(), result.sweep.groups.len());
//! assert_eq!(result.points.len(), 2);
//! assert!(!result.frontier().is_empty());
//! # Ok::<(), faircrowd::FaircrowdError>(())
//! ```

use crate::core::report::TextTable;
use crate::model::FaircrowdError;
use crate::pipeline::Enforcement;
use crate::sweep::{json_f64, json_str, run_grid_observed, CellHook, SweepGrid, SweepResult};
use faircrowd_assign::registry;
use std::fmt::Write as _;

/// Parse a grid spec for a frontier run: the same `axis=value;…`
/// grammar as [`SweepGrid::parse`], with frontier defaults for the
/// axes left unset — **every** registry policy, **every** registered
/// aggregator, and the `none` vs `parity` enforcement contrast. (A
/// plain sweep defaults each of those axes to a single point instead.)
pub fn frontier_grid(spec: &str) -> Result<SweepGrid, FaircrowdError> {
    let mut grid = SweepGrid::parse(spec)?;
    if grid.policies.is_none() {
        grid.policies = Some(registry::NAMES.iter().map(|n| (*n).to_owned()).collect());
    }
    if grid.aggregators.is_none() {
        grid.aggregators = Some(
            crate::quality::aggregate::NAMES
                .iter()
                .map(|n| (*n).to_owned())
                .collect(),
        );
    }
    if grid.enforcements.is_none() {
        grid.enforcements = Some(vec![Vec::new(), vec![Enforcement::ExposureParity]]);
    }
    Ok(grid)
}

/// One grid cell as a point in objective space.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Scenario the cell ran.
    pub scenario: String,
    /// Effective policy label.
    pub policy: String,
    /// Effective aggregator label.
    pub aggregator: String,
    /// Enforcement-stack label.
    pub enforce: String,
    /// Scale factor.
    pub scale: f64,
    /// Consensus accuracy against gold (mean across seeds); `None`
    /// when no seed had labeling ground truth.
    pub quality: Option<f64>,
    /// Wage Gini (mean across seeds that paid wages); `None` when no
    /// seed paid for invested time.
    pub wage_gini: Option<f64>,
    /// Total axiom violations across the cell's seeds.
    pub violations: usize,
    /// Is this point in the Pareto-dominant set?
    pub on_frontier: bool,
}

impl FrontierPoint {
    /// Is every objective measured? Only measured points can dominate
    /// or sit on the frontier.
    pub fn measured(&self) -> bool {
        self.quality.is_some() && self.wage_gini.is_some()
    }

    /// Does `self` Pareto-dominate `other`: at least as good on every
    /// objective (quality ↑, Gini ↓, violations ↓) and strictly better
    /// on one? Unmeasured points neither dominate nor are compared.
    pub fn dominates(&self, other: &FrontierPoint) -> bool {
        let (Some(q1), Some(g1), Some(q2), Some(g2)) =
            (self.quality, self.wage_gini, other.quality, other.wage_gini)
        else {
            return false;
        };
        let no_worse = q1 >= q2 && g1 <= g2 && self.violations <= other.violations;
        let better = q1 > q2 || g1 < g2 || self.violations < other.violations;
        no_worse && better
    }
}

/// The frontier analysis of one grid: every cell as an objective-space
/// point (grid order), plus the underlying sweep for drill-down.
#[derive(Debug, Clone)]
pub struct FrontierResult {
    /// One point per sweep cell, in grid order, with frontier flags.
    pub points: Vec<FrontierPoint>,
    /// The sweep the points were scored from.
    pub sweep: SweepResult,
}

/// Run the frontier analysis: sweep the grid, score every cell,
/// extract the Pareto-dominant set. Deterministic for any `jobs`.
pub fn run_frontier(grid: &SweepGrid, jobs: usize) -> Result<FrontierResult, FaircrowdError> {
    run_frontier_observed(grid, jobs, None)
}

/// [`run_frontier`] with the sweep's per-cell completion hook (the
/// CLI's `--progress`). The hook observes; outputs are unchanged.
pub fn run_frontier_observed(
    grid: &SweepGrid,
    jobs: usize,
    on_done: CellHook<'_>,
) -> Result<FrontierResult, FaircrowdError> {
    let sweep = run_grid_observed(grid, jobs, on_done)?;
    let mut points: Vec<FrontierPoint> = sweep
        .groups
        .iter()
        .map(|g| FrontierPoint {
            scenario: g.scenario.clone(),
            policy: g.policy.clone(),
            aggregator: g.aggregator.clone(),
            enforce: g.enforce.clone(),
            scale: g.scale,
            quality: (g.consensus.n > 0).then_some(g.consensus.mean),
            wage_gini: (g.wage_mean.n > 0).then_some(g.wage_gini.mean),
            violations: g.aggregate.total_violations,
            on_frontier: false,
        })
        .collect();
    mark_frontier(&mut points);
    Ok(FrontierResult { points, sweep })
}

/// Flag the Pareto-dominant subset: measured points not dominated by
/// any other point. Order-independent (dominance is a property of the
/// point set), so the flags are deterministic in grid order.
pub fn mark_frontier(points: &mut [FrontierPoint]) {
    let snapshot = points.to_vec();
    for p in points.iter_mut() {
        p.on_frontier = p.measured() && !snapshot.iter().any(|q| q.dominates(p));
    }
}

impl FrontierResult {
    /// The Pareto-dominant points, in grid order.
    pub fn frontier(&self) -> Vec<&FrontierPoint> {
        self.points.iter().filter(|p| p.on_frontier).collect()
    }

    /// Render every point as an aligned table, frontier members marked
    /// `*` in the first column.
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new([
            "pareto",
            "scenario",
            "policy",
            "aggregator",
            "enforce",
            "scale",
            "quality",
            "wage-gini",
            "violations",
        ])
        .numeric();
        let measure = |v: Option<f64>| match v {
            None => "-".to_owned(),
            Some(v) => format!("{v:.3}"),
        };
        for p in &self.points {
            table.row([
                if p.on_frontier { "*" } else { "" }.to_owned(),
                p.scenario.clone(),
                p.policy.clone(),
                p.aggregator.clone(),
                p.enforce.clone(),
                format!("{}", p.scale),
                measure(p.quality),
                measure(p.wage_gini),
                p.violations.to_string(),
            ]);
        }
        table.render()
    }

    /// Serialise the points (frontier flags included) as JSON. Like the
    /// sweep exports, a pure function of the grid — byte-identical for
    /// any worker count.
    pub fn to_json(&self) -> String {
        let measure = |v: Option<f64>| v.map_or_else(|| "null".to_owned(), json_f64);
        let mut out = String::from("{\n  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"scenario\": {}, \"policy\": {}, \"aggregator\": {}, \
                 \"enforce\": {}, \"scale\": {}, \"quality\": {}, \"wage_gini\": {}, \
                 \"violations\": {}, \"on_frontier\": {}}}",
                json_str(&p.scenario),
                json_str(&p.policy),
                json_str(&p.aggregator),
                json_str(&p.enforce),
                json_f64(p.scale),
                measure(p.quality),
                measure(p.wage_gini),
                p.violations,
                p.on_frontier,
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"frontier_size\": {}\n}}\n",
            self.points.iter().filter(|p| p.on_frontier).count()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(quality: Option<f64>, gini: Option<f64>, violations: usize) -> FrontierPoint {
        FrontierPoint {
            scenario: "baseline".into(),
            policy: "p".into(),
            aggregator: "majority".into(),
            enforce: "none".into(),
            scale: 1.0,
            quality,
            wage_gini: gini,
            violations,
            on_frontier: false,
        }
    }

    #[test]
    fn json_escapes_labels_and_parses_back() {
        let grid = SweepGrid::parse("policy=round_robin;rounds=2").unwrap();
        let mut result = run_frontier(&grid, 1).unwrap();
        let label = "say \"hi\" \\ bye";
        result.points[0].policy = label.into();
        let json = crate::model::json::Json::parse(&result.to_json()).expect("valid JSON");
        let points = json.get("points").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(
            points[0].get("policy").and_then(|p| p.as_str()),
            Some(label)
        );
    }

    #[test]
    fn dominance_needs_strict_improvement_somewhere() {
        let a = point(Some(0.9), Some(0.2), 3);
        let b = point(Some(0.8), Some(0.2), 3);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a point never dominates its equal");
        // Incomparable: each wins one objective.
        let c = point(Some(0.95), Some(0.5), 3);
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    fn unmeasured_points_never_dominate_or_join_the_frontier() {
        let mut points = vec![
            point(None, Some(0.0), 0),
            point(Some(1.0), None, 0),
            point(Some(0.5), Some(0.5), 9),
        ];
        mark_frontier(&mut points);
        assert!(!points[0].on_frontier);
        assert!(!points[1].on_frontier);
        assert!(points[2].on_frontier, "the only measured point survives");
    }

    #[test]
    fn frontier_keeps_exactly_the_undominated_set() {
        let mut points = vec![
            point(Some(0.9), Some(0.3), 2), // dominated by [2]
            point(Some(0.7), Some(0.1), 5), // frontier: best gini
            point(Some(0.9), Some(0.2), 1), // frontier: dominates [0]
            point(Some(0.6), Some(0.4), 9), // dominated by everything measured
        ];
        mark_frontier(&mut points);
        let flags: Vec<bool> = points.iter().map(|p| p.on_frontier).collect();
        assert_eq!(flags, vec![false, true, true, false]);
        // Ties survive together: duplicate an undominated point.
        let mut tied = vec![points[2].clone(), points[2].clone()];
        mark_frontier(&mut tied);
        assert!(tied[0].on_frontier && tied[1].on_frontier);
    }

    #[test]
    fn frontier_grid_fills_frontier_defaults_only_when_unset() {
        let grid = frontier_grid("rounds=6").unwrap();
        assert_eq!(
            grid.policies.as_deref().unwrap().len(),
            registry::NAMES.len()
        );
        assert_eq!(
            grid.aggregators.as_deref().unwrap().len(),
            crate::quality::aggregate::NAMES.len()
        );
        assert_eq!(grid.enforcements.as_deref().unwrap().len(), 2);
        let grid = frontier_grid("policy=kos;aggregator=majority;enforce=none;rounds=6").unwrap();
        assert_eq!(grid.policies.as_deref().unwrap(), ["kos"]);
        assert_eq!(grid.aggregators.as_deref().unwrap(), ["majority"]);
        assert_eq!(grid.enforcements.as_deref().unwrap(), [Vec::new()]);
        // Malformed specs propagate the sweep parser's errors.
        assert!(frontier_grid("orbit=1").is_err());
    }

    #[test]
    fn frontier_runs_deterministically_across_jobs() {
        let grid = frontier_grid(
            "scenario=baseline;rounds=8;policy=self_selection,round_robin;\
             aggregator=majority,parity_constrained;enforce=none",
        )
        .unwrap();
        let serial = run_frontier(&grid, 1).unwrap();
        let parallel = run_frontier(&grid, 4).unwrap();
        assert_eq!(serial.points, parallel.points);
        assert_eq!(serial.render_table(), parallel.render_table());
        assert_eq!(serial.to_json(), parallel.to_json());
        // 2 policies × 2 aggregators × 1 stack, all measured on baseline.
        assert_eq!(serial.points.len(), 4);
        assert!(serial.points.iter().all(FrontierPoint::measured));
        let frontier = serial.frontier();
        assert!(!frontier.is_empty(), "a measured grid has a frontier");
        // Frontier invariant: no point dominates a frontier member.
        for f in &frontier {
            assert!(!serial.points.iter().any(|p| p.dominates(f)));
        }
        // And every off-frontier measured point is dominated by someone.
        for p in serial.points.iter().filter(|p| !p.on_frontier) {
            assert!(serial.points.iter().any(|q| q.dominates(p)));
        }
        assert!(serial.to_json().contains("\"frontier_size\""));
        assert!(serial.render_table().starts_with("pareto"));
        // The catalog's trade-offs differ by scenario, so on the
        // catalog-wide contrast grid no one scenario holds the frontier.
        let catalog = frontier_grid(
            "scenario=*;policy=self_selection,round_robin,kos;\
             aggregator=majority,parity_constrained;enforce=none,parity;seed=0",
        )
        .unwrap();
        let result = run_frontier(&catalog, 2).unwrap();
        let scenarios: std::collections::BTreeSet<&str> = result
            .frontier()
            .iter()
            .map(|p| p.scenario.as_str())
            .collect();
        assert!(scenarios.len() >= 2, "frontier spans {scenarios:?}");
    }
}
