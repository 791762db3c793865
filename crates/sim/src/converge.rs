//! Fixed-point strategy iteration: the convergence engine.
//!
//! A single simulation pass answers "what happens if agents behave like
//! *this*?" — but strategic behaviour is defined in terms of the
//! market's own outcomes: a Super Turker's reservation wage comes from
//! what tasks actually paid, an undercutting requester's price from how
//! easily their tasks filled. Those outcomes are only known *after* a
//! run. This module closes the loop:
//!
//! ```text
//!   strategy state ──► simulate (pure in (config, state))
//!        ▲                         │
//!        │                         ▼
//!   proportional           realized signals
//!   controller ◄── wages · acceptance · fill rates
//! ```
//!
//! Each iteration re-runs the **same seed** under the current
//! [`StrategyState`], folds per-agent signals from each round's
//! [`crate::RoundDelta`] as the simulation runs, and moves the state a
//! proportional step ([`ConvergeOptions::gain`]) toward each agent's
//! target. The fold adds the deltas' events and submissions in log
//! order, so every sum equals a scan of the finished trace bit for
//! bit; no iteration scans its trace, and every trace but the fixed
//! point's is dropped as soon as its run ends. When the largest state
//! change falls below [`ConvergeOptions::tolerance`], the market is at
//! a fixed point: re-simulating under the final state reproduces the
//! final trace, so the converged trace is an ordinary trace —
//! replayable, exportable and auditable like any other.
//!
//! Determinism: the inner simulation is a pure function of
//! `(config, state)` and the controller is pure arithmetic over the
//! run's signals, so the whole loop — iteration count included — is a
//! pure function of the config (seed included).
//!
//! The [`StrategyChoice::Static`] strategy has no feedback (its
//! decisions ignore the state), so the residual is zero after the first
//! pass and `run` returns in exactly one iteration with the identical
//! trace a plain [`crate::run`] produces — the no-regression oracle the
//! test suite pins for every legacy scenario.
//!
//! Failure to converge — the iteration cap exhausted, or controller
//! state going non-finite — is the named [`FaircrowdError::Diverged`]
//! error, never a silent best-effort trace.

use crate::config::ScenarioConfig;
use crate::platform::RoundDelta;
use crate::strategy::{PriceUndercutRequester, StrategyChoice, StrategyState};
use crate::Simulation;
use faircrowd_model::arena::{DenseIdMap, IdSet};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::event::EventKind;
use faircrowd_model::ids::{RequesterId, TaskId, WorkerId};
use faircrowd_model::trace::Trace;

/// Tuning knobs for the fixed-point loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergeOptions {
    /// Stop when the largest normalized state change of an iteration is
    /// at most this.
    pub tolerance: f64,
    /// Give up (as [`FaircrowdError::Diverged`]) after this many
    /// iterations without reaching the tolerance.
    pub max_iterations: u32,
    /// Proportional-controller gain: the fraction of the gap between
    /// current state and per-agent target applied per iteration. 1.0
    /// jumps straight to the target (prone to oscillation), small values
    /// converge smoothly but slowly.
    pub gain: f64,
}

impl Default for ConvergeOptions {
    fn default() -> Self {
        ConvergeOptions {
            tolerance: 5e-3,
            max_iterations: 40,
            gain: 0.5,
        }
    }
}

/// One iteration of the loop, as reported back to callers: what the
/// controller did, and the two headline numbers of the iteration's
/// market, folded as it ran (each equals its [`crate::TraceSummary`]
/// field over the iteration's trace).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSummary {
    /// 1-based iteration number.
    pub iteration: u32,
    /// The largest normalized state change the controller applied
    /// *after* this iteration's simulation (0.0 for a static strategy).
    pub residual: f64,
    /// Worker retention: 1 − quits / workers who had a session.
    pub retention: f64,
    /// Approved over judged submissions (1.0 when none was judged).
    pub approval_rate: f64,
}

/// The result of a converged run.
#[derive(Debug, Clone)]
pub struct Converged {
    /// The fixed-point trace — reproducible by re-simulating the same
    /// config under [`Converged::state`].
    pub trace: Trace,
    /// Iterations taken (1 for the static strategy).
    pub iterations: u32,
    /// Per-iteration history, in order; the last entry describes
    /// [`Converged::trace`].
    pub history: Vec<IterationSummary>,
    /// The strategy state at the fixed point.
    pub state: StrategyState,
}

/// The per-agent signals one run yields, input to the controller.
#[derive(Debug, Clone)]
struct Signals {
    /// Realized hourly wage per worker, in dollars (0.0 for workers who
    /// logged no work time — the decay-toward-zero re-entry stabilizer).
    wage: Vec<f64>,
    /// Acceptance ratio per worker (approved / judged, 1.0 unjudged).
    acceptance: Vec<f64>,
    /// Fill rate per requester: approved submissions / assignment slots
    /// wanted (0.0 for requesters who posted nothing).
    fill: Vec<f64>,
}

/// A requester whose fill rate sits here neither raises nor lowers
/// prices; above it they undercut, below it they sweeten.
const TARGET_FILL: f64 = 0.6;
/// Super Turkers aim their reservation at this fraction of the wage
/// they actually realized — asking for *exactly* yesterday's wage makes
/// every marginal task a coin-flip; a margin keeps the bulk of realized
/// work acceptable while shedding the worst-paid tail.
const RESERVATION_MARGIN: f64 = 0.9;
/// A reputation-temporal worker's aspiration floor/slope in acceptance
/// ratio: target = wage × (0.4 + 0.6 × acceptance).
const REPUTATION_FLOOR: f64 = 0.4;
/// How strongly a requester's fill error moves their multiplier per
/// unit gain.
const UNDERCUT_RATE: f64 = 0.5;
/// Per-iteration geometric decay of the controller step. Accept/decline
/// decisions are discrete, so a constant step can orbit a threshold
/// forever (worker takes the task, wage drops, worker declines, wage
/// recovers, …). Annealing the step — iteration `k` moves at
/// `gain × DECAY^(k-1)` — damps those limit cycles into the tolerance
/// band while leaving smoothly contracting dynamics (which converge in
/// far fewer iterations than annealing needs to bite) essentially
/// untouched.
const GAIN_DECAY: f64 = 0.85;

/// Run `cfg` to its strategy fixed point.
///
/// Deterministic: the same config (seed included) always produces the
/// same trace, the same state, and the same iteration count. See the
/// module docs for the loop structure.
pub fn run(cfg: ScenarioConfig, opts: &ConvergeOptions) -> Result<Converged, FaircrowdError> {
    if !(opts.tolerance.is_finite() && opts.tolerance > 0.0) {
        return Err(FaircrowdError::usage(
            "converge tolerance must be a positive finite number",
        ));
    }
    if opts.max_iterations == 0 {
        return Err(FaircrowdError::usage(
            "converge iteration cap must be positive",
        ));
    }
    if !(opts.gain.is_finite() && opts.gain > 0.0 && opts.gain <= 1.0) {
        return Err(FaircrowdError::usage("converge gain must be in (0, 1]"));
    }
    cfg.validate()?;

    let mut state = StrategyState::initial(&cfg);
    let mut history: Vec<IterationSummary> = Vec::new();
    for iteration in 1..=opts.max_iterations {
        let (trace, fold) = simulate(&cfg, &state);
        let mut next = state.clone();
        let step = opts.gain * GAIN_DECAY.powi(iteration as i32 - 1);
        let residual = control(cfg.strategy, &fold.signals(), &mut next, step);
        history.push(IterationSummary {
            iteration,
            residual,
            retention: fold.retention(),
            approval_rate: fold.approval_rate(),
        });
        if !residual.is_finite() {
            return Err(FaircrowdError::diverged(format!(
                "controller state went non-finite at iteration {iteration} \
                 (strategy `{}`)",
                cfg.strategy.label()
            )));
        }
        if residual <= opts.tolerance {
            return Ok(Converged {
                trace,
                iterations: iteration,
                history,
                state,
            });
        }
        state = next;
    }
    let last = history.last().map_or(f64::NAN, |h| h.residual);
    Err(FaircrowdError::diverged(format!(
        "no fixed point within {} iterations (strategy `{}`, last residual \
         {last:.6}, tolerance {:.6})",
        opts.max_iterations,
        cfg.strategy.label(),
        opts.tolerance
    )))
}

/// One iteration: simulate `cfg` under `state`, folding what the
/// controller and the history read from each round as it lands.
fn simulate(cfg: &ScenarioConfig, state: &StrategyState) -> (Trace, Fold) {
    let mut fold = Fold::new(state);
    let trace =
        Simulation::with_state(cfg.clone(), state.clone()).run_observed(|delta| fold.add(&delta));
    (trace, fold)
}

/// The counts and sums one run's signals and headline numbers are made
/// of, added round by round. Per-agent vectors are sized to the
/// strategy state, so out-of-state agents keep neutral signals.
struct Fold {
    /// Per worker: money earned in dollars (payments and bonuses).
    earned: Vec<f64>,
    /// Per worker: submissions approved.
    approved: Vec<u64>,
    /// Per worker: submissions approved or rejected.
    judged: Vec<u64>,
    /// Per worker: hours worked, off the submission records.
    hours: Vec<f64>,
    /// Per requester: submissions approved.
    requester_approved: Vec<u64>,
    /// Per requester: assignment slots wanted over every posted task.
    wanted: Vec<u64>,
    /// The requester of every posted task.
    task_requester: DenseIdMap<TaskId, RequesterId>,
    /// Workers who started a session.
    active: IdSet<WorkerId>,
    quits: usize,
    approvals: usize,
    rejections: usize,
}

impl Fold {
    fn new(state: &StrategyState) -> Fold {
        let workers = state.reservation.len();
        let requesters = state.multiplier.len();
        Fold {
            earned: vec![0.0; workers],
            approved: vec![0; workers],
            judged: vec![0; workers],
            hours: vec![0.0; workers],
            requester_approved: vec![0; requesters],
            wanted: vec![0; requesters],
            task_requester: DenseIdMap::new(),
            active: IdSet::new(),
            quits: 0,
            approvals: 0,
            rejections: 0,
        }
    }

    /// Add one round. Its tasks go first: a task can be posted and
    /// judged in the same round.
    fn add(&mut self, delta: &RoundDelta<'_>) {
        for t in &delta.new_tasks {
            self.task_requester.insert(t.id, t.requester);
            if let Some(w) = self.wanted.get_mut(t.requester.index()) {
                *w += u64::from(t.assignments_wanted);
            }
        }
        for e in delta.new_events {
            match &e.kind {
                EventKind::SessionStarted { worker } => {
                    self.active.insert(*worker);
                }
                EventKind::WorkerQuit { .. } => self.quits += 1,
                EventKind::PaymentIssued { worker, amount, .. }
                | EventKind::BonusPaid { worker, amount, .. } => {
                    if let Some(earned) = self.earned.get_mut(worker.index()) {
                        *earned += amount.as_dollars_f64();
                    }
                }
                EventKind::SubmissionApproved { worker, task, .. } => {
                    self.approvals += 1;
                    if let Some(i) = self.worker(*worker) {
                        self.approved[i] += 1;
                        self.judged[i] += 1;
                    }
                    let requester = self.task_requester.get(*task);
                    if let Some(a) =
                        requester.and_then(|r| self.requester_approved.get_mut(r.index()))
                    {
                        *a += 1;
                    }
                }
                EventKind::SubmissionRejected { worker, .. } => {
                    self.rejections += 1;
                    if let Some(i) = self.worker(*worker) {
                        self.judged[i] += 1;
                    }
                }
                _ => {}
            }
        }
        for s in delta.new_submissions {
            if let Some(hours) = self.hours.get_mut(s.worker.index()) {
                *hours += s.work_duration().as_hours_f64();
            }
        }
    }

    /// `w`'s index into the per-worker vectors, if the state sizes it.
    fn worker(&self, w: WorkerId) -> Option<usize> {
        (w.index() < self.judged.len()).then_some(w.index())
    }

    /// The controller's input.
    fn signals(&self) -> Signals {
        let wage = self
            .earned
            .iter()
            .zip(&self.hours)
            .map(|(&e, &h)| if h > 0.0 { e / h } else { 0.0 })
            .collect();
        let acceptance = self
            .approved
            .iter()
            .zip(&self.judged)
            .map(|(&a, &j)| if j > 0 { a as f64 / j as f64 } else { 1.0 })
            .collect();
        let fill = self
            .requester_approved
            .iter()
            .zip(&self.wanted)
            .map(|(&a, &w)| if w > 0 { a as f64 / w as f64 } else { 0.0 })
            .collect();
        Signals {
            wage,
            acceptance,
            fill,
        }
    }

    /// [`crate::TraceSummary`]'s retention, over the folded counts.
    fn retention(&self) -> f64 {
        if self.active.is_empty() {
            1.0
        } else {
            1.0 - self.quits as f64 / self.active.len() as f64
        }
    }

    /// [`crate::TraceSummary`]'s approval rate, over the folded counts.
    fn approval_rate(&self) -> f64 {
        let judged = self.approvals + self.rejections;
        if judged == 0 {
            1.0
        } else {
            self.approvals as f64 / judged as f64
        }
    }
}

/// Apply one proportional-controller step for `strategy`, mutating
/// `next` in place, and return the largest normalized change. Static
/// strategies have no feedback and return 0.0 immediately.
fn control(
    strategy: StrategyChoice,
    signals: &Signals,
    next: &mut StrategyState,
    gain: f64,
) -> f64 {
    let mut residual = 0.0f64;
    let mut worker_targets = |target: &dyn Fn(usize) -> f64| {
        for w in 0..next.reservation.len() {
            let old = next.reservation[w];
            let new = old + gain * (target(w) - old);
            next.reservation[w] = new;
            // Normalize by the wage scale so a $40/h market and a $0.4/h
            // market converge at comparable tolerances.
            residual = residual.max((new - old).abs() / (1.0 + old.abs()));
        }
    };
    match strategy {
        StrategyChoice::Static => return 0.0,
        StrategyChoice::SuperTurker => {
            worker_targets(&|w| RESERVATION_MARGIN * signals.wage[w]);
        }
        StrategyChoice::ReputationTemporal => {
            worker_targets(&|w| {
                signals.wage[w]
                    * (REPUTATION_FLOOR + (1.0 - REPUTATION_FLOOR) * signals.acceptance[w])
            });
        }
        StrategyChoice::PriceUndercut => {
            for r in 0..next.multiplier.len() {
                let old = next.multiplier[r];
                let new = (old - gain * UNDERCUT_RATE * (signals.fill[r] - TARGET_FILL)).clamp(
                    PriceUndercutRequester::MIN_MULTIPLIER,
                    PriceUndercutRequester::MAX_MULTIPLIER,
                );
                next.multiplier[r] = new;
                // Residual over the post-clamp value: a multiplier pinned
                // at a bound is at *its* fixed point.
                residual = residual.max((new - old).abs());
            }
        }
    }
    residual
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::TraceSummary;
    use std::collections::BTreeMap;

    impl Signals {
        /// Scan per-agent signals off a finished trace: the oracle the
        /// fold must equal. Sized to the strategy state so out-of-trace
        /// agents keep neutral signals.
        fn of(trace: &Trace, state: &StrategyState) -> Signals {
            let windex = |w: WorkerId| -> Option<usize> {
                let i = w.index();
                (i < state.reservation.len()).then_some(i)
            };

            // Per-worker money earned and approval counts, off the event log.
            let mut earned = vec![0.0f64; state.reservation.len()];
            let mut approved = vec![0u64; state.reservation.len()];
            let mut judged = vec![0u64; state.reservation.len()];
            let mut requester_approved: BTreeMap<RequesterId, u64> = BTreeMap::new();
            let task_requester: BTreeMap<TaskId, RequesterId> =
                trace.tasks.iter().map(|t| (t.id, t.requester)).collect();
            for e in trace.events.as_slice() {
                match &e.kind {
                    EventKind::PaymentIssued { worker, amount, .. } => {
                        if let Some(i) = windex(*worker) {
                            earned[i] += amount.as_dollars_f64();
                        }
                    }
                    EventKind::BonusPaid { worker, amount, .. } => {
                        if let Some(i) = windex(*worker) {
                            earned[i] += amount.as_dollars_f64();
                        }
                    }
                    EventKind::SubmissionApproved { worker, task, .. } => {
                        if let Some(i) = windex(*worker) {
                            approved[i] += 1;
                            judged[i] += 1;
                        }
                        if let Some(r) = task_requester.get(task) {
                            *requester_approved.entry(*r).or_default() += 1;
                        }
                    }
                    EventKind::SubmissionRejected { worker, .. } => {
                        if let Some(i) = windex(*worker) {
                            judged[i] += 1;
                        }
                    }
                    _ => {}
                }
            }

            // Per-worker hours actually worked, off the submission records.
            let mut hours = vec![0.0f64; state.reservation.len()];
            for s in &trace.submissions {
                if let Some(i) = windex(s.worker) {
                    hours[i] += s.work_duration().as_hours_f64();
                }
            }

            let wage = earned
                .iter()
                .zip(&hours)
                .map(|(&e, &h)| if h > 0.0 { e / h } else { 0.0 })
                .collect();
            let acceptance = approved
                .iter()
                .zip(&judged)
                .map(|(&a, &j)| if j > 0 { a as f64 / j as f64 } else { 1.0 })
                .collect();

            // Per-requester fill: approved submissions over slots wanted.
            let mut wanted = vec![0u64; state.multiplier.len()];
            for t in &trace.tasks {
                if let Some(w) = wanted.get_mut(t.requester.index()) {
                    *w += u64::from(t.assignments_wanted);
                }
            }
            let fill = (0..state.multiplier.len())
                .map(|r| {
                    let a = requester_approved
                        .get(&RequesterId::new(r as u32))
                        .copied()
                        .unwrap_or(0);
                    if wanted[r] > 0 {
                        a as f64 / wanted[r] as f64
                    } else {
                        0.0
                    }
                })
                .collect();

            Signals {
                wage,
                acceptance,
                fill,
            }
        }
    }

    fn short(name: &str) -> ScenarioConfig {
        let mut cfg = catalog::get(name).unwrap();
        cfg.rounds = cfg.rounds.min(12);
        cfg
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The loop of [`run`], checking at every iteration that the fold
    /// equals a scan of the finished trace bit for bit.
    #[test]
    fn folded_signals_equal_a_scan_of_every_iteration_trace() {
        let opts = ConvergeOptions::default();
        for name in catalog::STRATEGIC_NAMES {
            for seed in [0, 1, 7] {
                let mut cfg = catalog::get(name).unwrap();
                cfg.seed = seed;
                let mut state = StrategyState::initial(&cfg);
                for iteration in 1..=opts.max_iterations {
                    let at = format!("{name} seed {seed} iteration {iteration}");
                    let (trace, fold) = simulate(&cfg, &state);
                    let (folded, scanned) = (fold.signals(), Signals::of(&trace, &state));
                    assert_eq!(bits(&folded.wage), bits(&scanned.wage), "{at}: wage");
                    assert_eq!(
                        bits(&folded.acceptance),
                        bits(&scanned.acceptance),
                        "{at}: acceptance"
                    );
                    assert_eq!(bits(&folded.fill), bits(&scanned.fill), "{at}: fill");
                    let summary = TraceSummary::of(&trace);
                    assert_eq!(
                        fold.retention().to_bits(),
                        summary.retention.to_bits(),
                        "{at}: retention"
                    );
                    assert_eq!(
                        fold.approval_rate().to_bits(),
                        summary.approval_rate.to_bits(),
                        "{at}: approval rate"
                    );
                    let step = opts.gain * GAIN_DECAY.powi(iteration as i32 - 1);
                    if control(cfg.strategy, &folded, &mut state, step) <= opts.tolerance {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn static_strategy_converges_in_one_iteration_to_the_plain_trace() {
        let cfg = short("baseline");
        let got = run(cfg.clone(), &ConvergeOptions::default()).unwrap();
        assert_eq!(got.iterations, 1);
        assert_eq!(got.history.len(), 1);
        assert_eq!(got.history[0].residual, 0.0);
        assert_eq!(got.trace, crate::run(cfg));
    }

    #[test]
    fn strategic_scenarios_reach_a_deterministic_fixed_point() {
        for name in catalog::STRATEGIC_NAMES {
            let cfg = short(name);
            let a = run(cfg.clone(), &ConvergeOptions::default()).unwrap();
            let b = run(cfg, &ConvergeOptions::default()).unwrap();
            assert_eq!(a.iterations, b.iterations, "{name}: iteration count");
            assert_eq!(a.trace, b.trace, "{name}: converged trace");
            assert_eq!(a.state, b.state, "{name}: fixed-point state");
            let last = a.history.last().unwrap();
            assert!(
                last.residual <= ConvergeOptions::default().tolerance,
                "{name}: final residual {}",
                last.residual
            );
        }
    }

    #[test]
    fn fixed_point_trace_is_reproducible_from_its_state() {
        let cfg = short("super_turkers");
        let got = run(cfg.clone(), &ConvergeOptions::default()).unwrap();
        let replayed = Simulation::with_state(cfg, got.state.clone()).run();
        assert_eq!(replayed, got.trace);
    }

    #[test]
    fn iteration_cap_is_a_named_divergence_error() {
        let cfg = short("super_turkers");
        let err = run(
            cfg,
            &ConvergeOptions {
                tolerance: 1e-12,
                max_iterations: 2,
                gain: 1.0,
            },
        )
        .unwrap_err();
        match &err {
            FaircrowdError::Diverged { message } => {
                assert!(message.contains("2 iterations"), "{message}");
                assert!(message.contains("super_turker"), "{message}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn bad_options_are_usage_errors() {
        let cfg = short("baseline");
        for opts in [
            ConvergeOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            ConvergeOptions {
                max_iterations: 0,
                ..Default::default()
            },
            ConvergeOptions {
                gain: 0.0,
                ..Default::default()
            },
            ConvergeOptions {
                gain: 1.5,
                ..Default::default()
            },
        ] {
            match run(cfg.clone(), &opts) {
                Err(FaircrowdError::Usage { .. }) => {}
                other => panic!("expected Usage error for {opts:?}, got {other:?}"),
            }
        }
    }
}
