//! `frontier`: the grid → Pareto table path.
//!
//! One verdict is `run_frontier` over every catalog scenario × three
//! policies × two aggregators × two enforcement stacks at scale 1, with
//! the grid seed taken from `--seed`, on `PARALLEL_JOBS` sweep workers.
//! After each pass, the grid's first scenario alone runs cold a few
//! times: the time to the Pareto table's first block. Every result is
//! checked against a 1-job reference (table and JSON byte-identical,
//! every point equal) and against the Pareto soundness invariants.
//!
//! The traced run re-executes the grid cell by cell through the public
//! layer calls — simulate (or converge), enforcement re-simulation,
//! cell audit, consensus quality, Pareto marking — with the same
//! baseline-simulation sharing as the sweep's cache, and checks that it
//! lands on the reference points.

use crate::stats::{self, median, quantile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, PARALLEL_JOBS};
use faircrowd::frontier::{
    frontier_grid, mark_frontier, run_frontier, run_frontier_observed, FrontierPoint,
    FrontierResult,
};
use faircrowd::pipeline::{Enforcement, Pipeline};
use faircrowd::sweep::{consensus_accuracy, stack_label, CaseOutcome, SweepCase, SweepGrid};
use faircrowd_core::{AuditConfig, ScoreStats};
use faircrowd_model::Trace;
use faircrowd_sim::converge::{self, ConvergeOptions};
use faircrowd_sim::{PolicyChoice, ScenarioConfig, Simulation, StrategyChoice};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Set-up passes per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Cold runs of the first scenario's block after each timed pass.
/// `restart_s` is their mean, not their median: on a shared host these
/// short runs take one of two times, depending on what the neighbours
/// do for the few seconds after a pass, and a median over the run flips
/// between the two.
const RESTARTS_PER_PASS: usize = 8;

/// The grid over `scenarios` (`None`: the profile's own). Each cell
/// folds two seeds derived from the workload seed: how long strategic
/// cells take to converge depends on the seed, and a two-seed cell
/// halves that variance between runs.
fn grid(ctx: &Ctx, scenarios: Option<&str>) -> Result<SweepGrid, String> {
    let seeds = format!("seed={},{}", ctx.seed_for(0), ctx.seed_for(1));
    let spec = if ctx.tiny {
        format!(
            "scenario={};policy=round_robin,kos;\
             aggregator=majority,parity_constrained;enforce=none,parity;{seeds};rounds=8",
            scenarios.unwrap_or("baseline,reform_rush")
        )
    } else {
        format!(
            "scenario={};policy=self_selection,round_robin,kos;\
             aggregator=majority,parity_constrained;enforce=none,parity;{seeds};scale=1",
            scenarios.unwrap_or("*")
        )
    };
    frontier_grid(&spec).map_err(|e| e.to_string())
}

/// The grid restricted to its first scenario: the Pareto table's first
/// block.
fn head(ctx: &Ctx, grid: &SweepGrid) -> Result<SweepGrid, String> {
    let cases = grid.expand().map_err(|e| e.to_string())?;
    let first = cases.first().ok_or("the grid is empty")?;
    self::grid(ctx, Some(&first.scenario))
}

/// The reference every pass must reproduce.
struct Reference {
    table: String,
    json: String,
    points: Vec<FrontierPoint>,
}

impl Reference {
    fn of(ctx: &Ctx, result: &FrontierResult) -> Reference {
        let mut points = result.points.clone();
        if ctx.corrupt_reference {
            points[0].violations += 1;
        }
        Reference {
            table: result.render_table(),
            json: result.to_json(),
            points,
        }
    }
}

/// Per point: the Pareto soundness invariants — a frontier member is
/// measured and undominated, a measured point off the frontier is
/// dominated, an unmeasured point is never on it — plus a non-empty
/// frontier overall.
fn sound(points: &[FrontierPoint]) -> Vec<bool> {
    let any_frontier = points.iter().any(|p| p.on_frontier);
    points
        .iter()
        .map(|p| {
            let dominated = points.iter().any(|q| q.dominates(p));
            any_frontier
                && if p.on_frontier {
                    p.measured() && !dominated
                } else {
                    !p.measured() || dominated
                }
        })
        .collect()
}

/// Check one pass's result; one op per grid cell.
fn check(result: &FrontierResult, want: &Reference, out: &mut Outcome) {
    let bytes_equal = result.render_table() == want.table && result.to_json() == want.json;
    let sound = sound(&result.points);
    for (i, want_point) in want.points.iter().enumerate() {
        let same = result.points.get(i) == Some(want_point);
        out.check(bytes_equal && same && sound[i]);
    }
}

/// One timed pass: wall seconds and per-cell completion gaps (per
/// worker thread).
struct Pass {
    verdict_s: f64,
    gaps: Vec<f64>,
    result: FrontierResult,
}

fn pass(grid: &SweepGrid, jobs: usize) -> Result<Pass, String> {
    let last: Mutex<HashMap<ThreadId, Instant>> = Mutex::new(HashMap::new());
    let gaps: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let hook = |_: usize, _: &CaseOutcome| {
        let now = Instant::now();
        let prev = last
            .lock()
            .expect("hook lock")
            .insert(std::thread::current().id(), now);
        gaps.lock()
            .expect("hook lock")
            .push((now - prev.unwrap_or(t0)).as_secs_f64());
    };
    let result = run_frontier_observed(grid, jobs, Some(&hook)).map_err(|e| e.to_string())?;
    let verdict_s = stats::secs(t0);
    Ok(Pass {
        verdict_s,
        gaps: gaps.into_inner().expect("hook lock"),
        result,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (prepared, setup_times) = stats::repeat_timed(SETUPS, || -> Result<_, String> {
        let grid = grid(ctx, None)?;
        let head = head(ctx, &grid)?;
        run_frontier(&grid, PARALLEL_JOBS).map_err(|e| e.to_string())?;
        Ok((grid, head))
    });
    let (grid, head) = prepared?;
    let want = Reference::of(ctx, &run_frontier(&grid, 1).map_err(|e| e.to_string())?);
    let head_want = Reference::of(ctx, &run_frontier(&head, 1).map_err(|e| e.to_string())?);
    // The cell-by-cell pass counts the events the verdict audits and
    // cross-checks the reference points.
    let mut out = Outcome::default();
    let audited_events = decomposed(&grid, &want, &mut Tracer::new(), &mut out)?.audited_events;

    let mut verdicts = Vec::new();
    let mut restarts = Vec::new();
    let mut gaps = Vec::new();
    let mut peaks = Vec::new();
    let t0 = Instant::now();
    while ctx.keep_going(t0, verdicts.len(), 3) {
        // Each pass starts from the same allocator state, and its peak
        // resident set is its own: a whole-process peak would be set by
        // whichever earlier run fragmented the heap most.
        let peak_reset = stats::reset_peak_rss();
        let p = pass(&grid, PARALLEL_JOBS)?;
        if peak_reset {
            peaks.extend(stats::peak_rss_mb());
        }
        check(&p.result, &want, &mut out);
        verdicts.push(p.verdict_s);
        gaps.extend(p.gaps.iter().map(|s| s * 1e3));
        for _ in 0..RESTARTS_PER_PASS {
            let t = Instant::now();
            let result = run_frontier(&head, PARALLEL_JOBS).map_err(|e| e.to_string())?;
            restarts.push(stats::secs(t));
            check(&result, &head_want, &mut out);
        }
    }
    let verdict_s = median(&verdicts);
    out.metric("setup_s", median(&setup_times), setup_times.len());
    out.metric("verdict_s", verdict_s, verdicts.len());
    out.metric(
        "events_per_s",
        audited_events as f64 / verdict_s,
        verdicts.len(),
    );
    out.metric("poll_ms_p50", quantile(&gaps, 0.5), gaps.len());
    out.metric("poll_ms_p90", quantile(&gaps, 0.9), gaps.len());
    out.metric("restart_s", stats::mean(&restarts), restarts.len());
    // Without a per-pass reset, the whole process's peak.
    match peaks.len() {
        0 => out.metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN), 1),
        n => out.metric("peak_rss_mb", median(&peaks), n),
    }
    out.notes.push(format!(
        "frontier: {} cells, {audited_events} audited events per pass; {} passes; {} cell gaps, \
         {} beyond p90; {} cold first-block runs of {} cells",
        want.points.len(),
        verdicts.len(),
        gaps.len(),
        stats::beyond(&gaps, 0.9),
        restarts.len(),
        head_want.points.len()
    ));
    // Drift within the run: each pass's wall time and peak, and the
    // median of the cold first-block runs that followed it.
    let show = |xs: &[f64], digits: usize| -> String {
        xs.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let firsts: Vec<f64> = restarts.chunks(RESTARTS_PER_PASS).map(median).collect();
    out.notes.push(format!(
        "frontier: passes {} s; peaks {} MB; first blocks {} s",
        show(&verdicts, 3),
        show(&peaks, 1),
        show(&firsts, 4)
    ));
    Ok(out)
}

/// Side totals of the cell-by-cell pass that are not spans.
#[derive(Default)]
struct Totals {
    sims: usize,
    sim_events: usize,
    audited_events: usize,
    rounds: usize,
    round_time: Duration,
    converge_iterations: u64,
    by_policy: BTreeMap<String, Duration>,
}

/// The sweep cache's key: everything that determines a baseline trace.
type SimKey = (String, Option<String>, Option<String>, u64, u64, u32);

fn sim_key(case: &SweepCase) -> SimKey {
    (
        case.scenario.clone(),
        case.policy.clone(),
        case.strategy.clone(),
        case.seed,
        case.scale.to_bits(),
        case.rounds,
    )
}

/// `Pipeline::simulate` of one config, through the simulator's public
/// entry points: a static config is one observed run (its round
/// callbacks give the per-round gaps), a strategic one is iterated to
/// its fixed point by `converge::run`.
fn simulate(
    config: ScenarioConfig,
    policy: &str,
    t: &mut Tracer,
    totals: &mut Totals,
) -> Result<Trace, String> {
    let t0 = Instant::now();
    let trace = t.span("sim.simulate", |t| -> Result<Trace, String> {
        config.validate().map_err(|e| e.to_string())?;
        let trace = if config.strategy == StrategyChoice::Static {
            let mut last = Instant::now();
            Simulation::new(config).run_observed(|_| {
                let now = Instant::now();
                totals.round_time += now - last;
                totals.rounds += 1;
                last = now;
            })
        } else {
            let converged = t
                .span("sim.converge", |_| {
                    converge::run(config, &ConvergeOptions::default())
                })
                .map_err(|e| e.to_string())?;
            totals.converge_iterations += u64::from(converged.iterations);
            converged.trace
        };
        trace.ensure_valid().map_err(|e| e.to_string())?;
        Ok(trace)
    })?;
    *totals.by_policy.entry(policy.to_owned()).or_default() += t0.elapsed();
    totals.sims += 1;
    totals.sim_events += trace.events.len();
    Ok(trace)
}

/// The verdict cell by cell, under the root span `frontier.verdict`.
/// Baselines are shared per sweep-cache key; enforced cells
/// re-simulate their repaired config, as the sweep does. Counts one op
/// per cell: its point must equal the reference point.
fn decomposed(
    grid: &SweepGrid,
    want: &Reference,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<Totals, String> {
    let cases = grid.expand().map_err(|e| e.to_string())?;
    let mut totals = Totals::default();
    let points = t.span(
        "frontier.verdict",
        |t| -> Result<Vec<FrontierPoint>, String> {
            let mut cache: HashMap<SimKey, Trace> = HashMap::new();
            let mut per_seed = Vec::with_capacity(cases.len());
            for (i, case) in cases.iter().enumerate() {
                t.set_op(i as u64);
                let point = t.span("frontier.cell", |t| -> Result<FrontierPoint, String> {
                    let pipeline = case.pipeline().map_err(|e| e.to_string())?;
                    let mut config = pipeline.scenario_config().clone();
                    let policy = case
                        .policy
                        .clone()
                        .unwrap_or_else(|| case.policy_label.clone());
                    let trace = if case.enforcements.is_empty() {
                        let key = sim_key(case);
                        match cache.get(&key) {
                            Some(trace) => trace.clone(),
                            None => {
                                let trace = simulate(config, &policy, t, &mut totals)?;
                                cache.insert(key, trace.clone());
                                trace
                            }
                        }
                    } else {
                        for enforcement in &case.enforcements {
                            match enforcement {
                                Enforcement::ExposureParity => {
                                    config.policy =
                                        PolicyChoice::ParityOver(Box::new(config.policy.clone()));
                                }
                                other => {
                                    return Err(format!(
                                        "enforcement `{}` is not in this grid",
                                        other.label()
                                    ))
                                }
                            }
                        }
                        t.span("pipeline.enforce_resim", |t| {
                            simulate(config, &policy, t, &mut totals)
                        })?
                    };
                    let artifacts = t
                        .span("core.audit.cell", |_| {
                            Pipeline::new()
                                .audit(AuditConfig {
                                    parallel: false,
                                    ..AuditConfig::default()
                                })
                                .replay_owned(trace)
                        })
                        .map_err(|e| e.to_string())?;
                    totals.audited_events += artifacts.trace.events.len();
                    let aggregator = case.aggregator_choice().map_err(|e| e.to_string())?;
                    let quality = match case.aggregator.as_deref().unwrap_or("majority") {
                        "majority" => t.span("quality.majority", |_| {
                            consensus_accuracy(&artifacts.trace, &aggregator)
                        }),
                        "parity_constrained" => t.span("quality.parity_constrained", |_| {
                            consensus_accuracy(&artifacts.trace, &aggregator)
                        }),
                        _ => t.span("quality.other", |_| {
                            consensus_accuracy(&artifacts.trace, &aggregator)
                        }),
                    };
                    Ok(FrontierPoint {
                        scenario: case.scenario.clone(),
                        policy: case.policy_label.clone(),
                        aggregator: case.aggregator_label.clone(),
                        enforce: stack_label(&case.enforcements),
                        scale: case.scale,
                        quality,
                        wage_gini: artifacts.wages.map(|w| w.gini),
                        violations: artifacts.report.total_violations(),
                        on_frontier: false,
                    })
                })?;
                per_seed.push(point);
            }
            // The sweep folds each cell's seeds (innermost in the
            // expansion) into one point: quality and Gini averaged over
            // the seeds that measured them, violations summed.
            let seeds = grid.seeds.as_ref().map_or(1, Vec::len);
            let mut points: Vec<FrontierPoint> = per_seed
                .chunks(seeds)
                .map(|cell| {
                    let mean = |f: fn(&FrontierPoint) -> Option<f64>| {
                        let xs: Vec<f64> = cell.iter().filter_map(f).collect();
                        (!xs.is_empty()).then(|| ScoreStats::of(&xs).mean)
                    };
                    FrontierPoint {
                        quality: mean(|p| p.quality),
                        wage_gini: mean(|p| p.wage_gini),
                        violations: cell.iter().map(|p| p.violations).sum(),
                        ..cell[0].clone()
                    }
                })
                .collect();
            t.span("frontier.pareto", |_| mark_frontier(&mut points));
            Ok(points)
        },
    )?;
    for (i, want_point) in want.points.iter().enumerate() {
        out.check(points.get(i) == Some(want_point));
    }
    Ok(totals)
}

pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let grid = grid(ctx, None)?;
    let mut out = Outcome::default();
    // Untraced comparators after a warm-up: 1 job (also the reference)
    // and PARALLEL_JOBS jobs.
    run_frontier(&grid, PARALLEL_JOBS).map_err(|e| e.to_string())?;
    let mut one = Vec::new();
    let mut reference = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let result = run_frontier(&grid, 1).map_err(|e| e.to_string())?;
        one.push(stats::secs(t0));
        reference.get_or_insert(result);
    }
    let want = Reference::of(ctx, &reference.expect("reference ran"));
    let mut many = Vec::new();
    for _ in 0..2 {
        let p = pass(&grid, PARALLEL_JOBS)?;
        check(&p.result, &want, &mut out);
        many.push(p.verdict_s);
    }

    let mut t = Tracer::new();
    let mut passes = Vec::new();
    let mut totals = Vec::new();
    let t0 = Instant::now();
    while ctx.keep_going(t0, passes.len(), 1) {
        let before = t.spans().len();
        totals.push(decomposed(&grid, &want, &mut t, &mut out)?);
        passes.push(t.duration_s(before));
    }
    let n = passes.len();
    let per_pass = n as f64;
    let cells = want.points.len() as f64;
    // One case per cell and seed: the unit the sweep's cache serves.
    let cases = grid.expand().map_err(|e| e.to_string())?.len() as f64;
    let layers = t.layers(Some("frontier.verdict"));
    let busy = |name: &str| layers.get(name).map_or(0.0, |l| l.busy_ms() / per_pass);
    let sum = |f: fn(&Totals) -> f64| totals.iter().map(f).sum::<f64>() / per_pass;

    out.metric("trace_overhead", median(&passes) / median(&one), n);
    out.metric("sim.simulate_ms", busy("sim.simulate"), n);
    out.metric("sim.events", sum(|x| x.sim_events as f64), n);
    let rounds: usize = totals.iter().map(|x| x.rounds).sum();
    let round_time: Duration = totals.iter().map(|x| x.round_time).sum();
    out.metric(
        "sim.round_us",
        if rounds == 0 {
            0.0
        } else {
            round_time.as_secs_f64() * 1e6 / rounds as f64
        },
        rounds,
    );
    out.metric("sim.rounds", rounds as f64 / per_pass, n);
    for (policy, metric) in [
        ("self_selection", "sim.policy.self_selection_ms"),
        ("round_robin", "sim.policy.round_robin_ms"),
        ("kos", "sim.policy.kos_ms"),
    ] {
        let ms: f64 = totals
            .iter()
            .filter_map(|x| x.by_policy.get(policy))
            .map(|d| d.as_secs_f64() * 1e3)
            .sum();
        out.metric(metric, ms / per_pass, n);
    }
    let converge_ms = busy("sim.converge");
    let iterations = sum(|x| x.converge_iterations as f64);
    out.metric("sim.converge_ms", converge_ms, n);
    out.metric("sim.converge_iterations", iterations, n);
    out.metric(
        "sim.converge_iter_ms",
        if iterations == 0.0 {
            0.0
        } else {
            converge_ms / iterations
        },
        n,
    );
    out.metric(
        "pipeline.enforce_resim_ms",
        busy("pipeline.enforce_resim"),
        n,
    );
    out.metric("core.audit.cell_ms", busy("core.audit.cell"), n);
    out.metric("quality.majority_ms", busy("quality.majority"), n);
    out.metric(
        "quality.parity_constrained_ms",
        busy("quality.parity_constrained"),
        n,
    );
    out.metric("sweep.sims_per_cell", sum(|x| x.sims as f64) / cases, n);
    out.metric(
        "sweep.jobs_speedup",
        median(&one) / median(&many),
        many.len(),
    );
    out.metric("frontier.pareto_ms", busy("frontier.pareto"), n);
    out.notes.push(format!(
        "frontier traced: {n} cell-by-cell passes over {cells} cells; 1 job {:.3} s, {PARALLEL_JOBS} jobs {:.3} s untraced",
        median(&one),
        median(&many)
    ));
    out.tracer = Some(t);
    Ok(out)
}
