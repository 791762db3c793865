//! The unified end-to-end pipeline: **scenario → simulate → audit →
//! enforce → re-audit → report**.
//!
//! The paper's validation protocol (§4.1) is one repeated loop —
//! configure a scenario, simulate the marketplace, audit the trace
//! against Axioms 1–7, repair, audit again. [`Pipeline`] owns that loop
//! behind a builder API so every caller (CLI, examples, tests, benches,
//! parameter sweeps) composes the crates the same way instead of
//! hand-wiring them:
//!
//! ```
//! use faircrowd::pipeline::{Enforcement, Pipeline};
//!
//! let result = Pipeline::new()
//!     .policy_name("round_robin")?     // registry lookup
//!     .seed(7)
//!     .rounds(24)
//!     .enforce(Enforcement::MinimalTransparency)
//!     .run()?;
//!
//! assert_eq!(result.baseline.report.axioms.len(), 7);
//! let enforced = result.enforced.as_ref().unwrap();
//! assert!(enforced.artifacts.report.transparency_score()
//!     >= result.baseline.report.transparency_score());
//! println!("{}", result.render());
//! # Ok::<(), faircrowd::FaircrowdError>(())
//! ```
//!
//! Every stage is pure configuration until [`Pipeline::run`], which
//! validates the scenario, simulates, validates the trace, audits, and —
//! when enforcements are staged — applies them as config repairs,
//! re-simulates and re-audits, returning both runs for comparison.

use crate::core::live::{LiveAuditor, LiveFinding};
use crate::core::report::render_report;
use crate::core::{metrics, AuditConfig, AuditEngine, AxiomId, FairnessReport, TraceIndex};
use crate::model::codec::Cursor;
use crate::model::fields::{At, Field};
use crate::model::json::Json;
use crate::model::trace::GroundTruth;
use crate::model::{FaircrowdError, Trace};
use crate::pay::WageStats;
use crate::sim::converge::{ConvergeOptions, IterationSummary};
use crate::sim::strategy::{StrategyChoice, StrategyState};
use crate::sim::{CancellationPolicy, PolicyChoice, ScenarioConfig, Simulation, TraceSummary};

/// A fairness repair the pipeline applies before its second run. Each
/// variant is a config-level repair targeting one axiom family, per
/// §3.3.1's "enforcing them by design".
#[derive(Debug, Clone, PartialEq)]
pub enum Enforcement {
    /// Wrap the assignment policy in exposure parity (repairs Axiom 1/2).
    ExposureParity,
    /// Wrap the assignment policy in a minimum-exposure floor.
    ExposureFloor(usize),
    /// Raise the disclosure set to at least the minimal Axiom-6/7 floor.
    MinimalTransparency,
    /// Let in-flight work finish on cancellation (repairs Axiom 5).
    GraceFinish,
}

impl Enforcement {
    /// Parse the CLI/grid spelling of an enforcement: `parity`,
    /// `floor:N`, `transparency` or `grace`.
    pub fn parse(raw: &str) -> Result<Self, FaircrowdError> {
        if let Some(min) = raw.strip_prefix("floor:") {
            let min = min.parse().map_err(|_| {
                FaircrowdError::usage(format!("invalid floor size in enforcement `{raw}`"))
            })?;
            return Ok(Enforcement::ExposureFloor(min));
        }
        match raw {
            "parity" => Ok(Enforcement::ExposureParity),
            "transparency" => Ok(Enforcement::MinimalTransparency),
            "grace" => Ok(Enforcement::GraceFinish),
            _ => Err(FaircrowdError::usage(format!(
                "unknown enforcement `{raw}`; expected parity | floor:N | transparency | grace"
            ))),
        }
    }

    /// The grid/CLI spelling, which [`Enforcement::parse`] reads back
    /// (unlike the display [`Enforcement::label`]).
    fn spec(&self) -> String {
        match self {
            Enforcement::ExposureParity => "parity".to_owned(),
            Enforcement::ExposureFloor(n) => format!("floor:{n}"),
            Enforcement::MinimalTransparency => "transparency".to_owned(),
            Enforcement::GraceFinish => "grace".to_owned(),
        }
    }

    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            Enforcement::ExposureParity => "exposure-parity".into(),
            Enforcement::ExposureFloor(n) => format!("exposure-floor({n})"),
            Enforcement::MinimalTransparency => "minimal-transparency".into(),
            Enforcement::GraceFinish => "grace-finish".into(),
        }
    }

    /// Apply this repair to a scenario, as staged: a wrapper is wrapped
    /// even where it cannot change the market, so labels and
    /// [`EnforcedRun::config`] name every repair. What is simulated is
    /// the [`market`] of the result.
    fn apply(&self, config: &mut ScenarioConfig) {
        match self {
            Enforcement::ExposureParity => {
                let base = config.policy.clone();
                config.policy = PolicyChoice::ParityOver(Box::new(base));
            }
            Enforcement::ExposureFloor(min) => {
                let base = config.policy.clone();
                config.policy = PolicyChoice::FloorOver(Box::new(base), *min);
            }
            Enforcement::MinimalTransparency => {
                crate::core::enforce::grant_minimal_transparency(&mut config.disclosure);
            }
            Enforcement::GraceFinish => {
                config.cancellation = CancellationPolicy::GraceFinish;
            }
        }
    }
}

/// An enforcement is its grid spelling (`parity`, `floor:N`, …), a
/// string that [`Enforcement::parse`] reads back.
impl Field for Enforcement {
    fn to_json(&self) -> Json {
        Json::str(self.spec())
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        Enforcement::parse(&String::from_json(json, at)?).map_err(|e| at.err(e))
    }
    fn put(&self, out: &mut Vec<u8>) {
        self.spec().put(out);
    }
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        Enforcement::parse(&cur.string(what)?).map_err(|e| cur.err(e))
    }
}

/// The config a simulation of `config` runs: the same scenario with its
/// policy normalised ([`PolicyChoice::normalized`]), so that exposure
/// wrappers which cannot change an outcome are neither built nor run.
/// Configs with equal markets produce byte-identical traces.
fn market(config: &ScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        policy: config.policy.normalized(),
        ..config.clone()
    }
}

/// Everything one simulate+audit pass produces.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The complete observable record of the run.
    pub trace: Trace,
    /// Headline market statistics of the trace.
    pub summary: TraceSummary,
    /// The axiom audit of the trace.
    pub report: FairnessReport,
    /// Effective hourly-wage statistics, `None` when no worker invested
    /// any time (an empty wage distribution has no statistics; see
    /// [`crate::core::metrics::wage_stats`]). Computed off the same
    /// [`TraceIndex`] the audit used.
    pub wages: Option<WageStats>,
}

/// What [`Pipeline::run_live`] returns: the standard run artifacts plus
/// the stream of findings the monitors emitted while the market ran.
#[derive(Debug, Clone)]
pub struct LiveRunArtifacts {
    /// Trace, summary, closing report and wages — the same shape a
    /// batch [`Pipeline::run`] produces for its baseline, with the
    /// report computed by the [`LiveAuditor`] off its incremental
    /// mirrors (bit-identical to the batch audit of the same trace).
    pub artifacts: RunArtifacts,
    /// Every finding emitted during the run, in stream order, capped by
    /// the auditor's in-memory limit.
    pub findings: Vec<LiveFinding>,
    /// Findings past the cap (they still reached the `on_finding`
    /// callback when they fired).
    pub suppressed_findings: usize,
}

/// The enforcement pass of a [`PipelineResult`].
#[derive(Debug, Clone)]
pub struct EnforcedRun {
    /// The repaired scenario, as staged: every repair is named, also
    /// one that cannot change the market (then `artifacts` are the
    /// baseline's; see [`Pipeline::run`]).
    pub config: ScenarioConfig,
    /// The repairs, in application order.
    pub applied: Vec<Enforcement>,
    /// The re-run's trace, summary and re-audit.
    pub artifacts: RunArtifacts,
}

/// What [`Pipeline::run_converged`] returns: the audit of the
/// fixed-point market, plus the convergence record that produced it.
#[derive(Debug, Clone)]
pub struct ConvergedRun {
    /// The validated scenario that was iterated.
    pub config: ScenarioConfig,
    /// Iterations to the fixed point (1 for the `static` strategy).
    pub iterations: u32,
    /// Per-iteration residuals and market summaries, in order; the last
    /// entry describes the converged trace.
    pub history: Vec<IterationSummary>,
    /// The strategy state at the fixed point — re-simulating the config
    /// under this state reproduces [`ConvergedRun::artifacts`]' trace.
    pub state: StrategyState,
    /// Trace, summary, audit and wages of the **converged** market.
    pub artifacts: RunArtifacts,
}

/// What [`Pipeline::run`] returns.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The validated scenario the baseline ran under.
    pub config: ScenarioConfig,
    /// The baseline simulate+audit pass.
    pub baseline: RunArtifacts,
    /// The enforce+re-audit pass, when enforcements were staged.
    pub enforced: Option<EnforcedRun>,
}

impl PipelineResult {
    /// The final report: the enforced re-audit when present, else the
    /// baseline audit.
    pub fn report(&self) -> &FairnessReport {
        self.enforced
            .as_ref()
            .map_or(&self.baseline.report, |e| &e.artifacts.report)
    }

    /// The final trace (enforced when present, else baseline).
    pub fn trace(&self) -> &Trace {
        self.enforced
            .as_ref()
            .map_or(&self.baseline.trace, |e| &e.artifacts.trace)
    }

    /// Render the full result: market summary, baseline report, and —
    /// when enforcement ran — the repairs and the re-audit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .baseline
                .render(&format!("policy={}", self.config.policy.label())),
        );
        if let Some(enforced) = &self.enforced {
            let labels: Vec<String> = enforced.applied.iter().map(Enforcement::label).collect();
            out.push_str(&format!("\nafter enforcement: {}\n\n", labels.join(" + ")));
            out.push_str(
                &enforced
                    .artifacts
                    .render(&format!("policy={}", enforced.config.policy.label())),
            );
            out.push_str(&format!(
                "\noverall score: {:.3} → {:.3}\n",
                self.baseline.report.overall_score(),
                enforced.artifacts.report.overall_score()
            ));
        }
        out
    }
}

impl RunArtifacts {
    /// Render the market summary line and the audit report — the block
    /// `run`, `audit` and `replay` all print, so a replayed trace's
    /// output diffs cleanly against the in-memory pipeline's.
    pub fn render(&self, heading: &str) -> String {
        render_audit(heading, &self.summary, &self.report)
    }
}

/// [`RunArtifacts::render`] from borrowed parts, for a caller that holds
/// a summary and a report but no trace of its own (`watch`, closing a
/// market its daemon keeps).
pub fn render_audit(heading: &str, summary: &TraceSummary, report: &FairnessReport) -> String {
    format!(
        "market ({heading}): {} submissions, {:.0}% approved, {} paid, retention {:.1}%\n\n{}",
        summary.submissions,
        summary.approval_rate * 100.0,
        summary.total_paid,
        summary.retention * 100.0,
        render_report(report)
    )
}

/// Builder for the scenario → simulate → audit → enforce → report loop.
///
/// See the [module docs](self) for the canonical example. Defaults:
/// [`ScenarioConfig::default`], [`AuditConfig::default`], all seven
/// axioms, no enforcement.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    scenario: ScenarioConfig,
    audit: AuditConfig,
    axioms: Option<Vec<AxiomId>>,
    enforcements: Vec<Enforcement>,
    converge: ConvergeOptions,
}

impl Pipeline {
    /// A pipeline over the default scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the whole scenario configuration.
    pub fn scenario(mut self, config: ScenarioConfig) -> Self {
        self.scenario = config;
        self
    }

    /// The staged scenario as currently resolved (policy, seed, rounds)
    /// — what [`Pipeline::run`] / [`Pipeline::run_live`] will validate
    /// and simulate. The CLI prints its run headers from this, so they
    /// can never drift from the configuration that actually ran.
    pub fn scenario_config(&self) -> &ScenarioConfig {
        &self.scenario
    }

    /// Tweak the current scenario in place — the ergonomic middle ground
    /// between `scenario()` (wholesale) and one-field setters.
    pub fn configure(mut self, f: impl FnOnce(&mut ScenarioConfig)) -> Self {
        f(&mut self.scenario);
        self
    }

    /// Set the assignment policy.
    pub fn policy(mut self, choice: PolicyChoice) -> Self {
        self.scenario.policy = choice;
        self
    }

    /// Set the assignment policy by registry name (`"round_robin"`,
    /// `"kos"`, …); see [`crate::assign::registry`].
    pub fn policy_name(mut self, name: &str) -> Result<Self, FaircrowdError> {
        self.scenario.policy = PolicyChoice::by_name(name)?;
        Ok(self)
    }

    /// Set the agent strategy profile.
    pub fn strategy(mut self, choice: StrategyChoice) -> Self {
        self.scenario.strategy = choice;
        self
    }

    /// Set the agent strategy by registry name (`"static"`,
    /// `"super_turker"`, …); see [`crate::sim::strategy`]. Unknown names
    /// report [`FaircrowdError::UnknownStrategy`] listing the registry.
    pub fn strategy_name(mut self, name: &str) -> Result<Self, FaircrowdError> {
        self.scenario.strategy = StrategyChoice::by_name(name)?;
        Ok(self)
    }

    /// Replace the convergence options (tolerance, iteration cap, gain)
    /// strategic scenarios iterate under.
    pub fn converge_options(mut self, opts: ConvergeOptions) -> Self {
        self.converge = opts;
        self
    }

    /// Set the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Set the number of simulated market rounds
    /// ([`ScenarioConfig::set_rounds`]: a campaign posted after the new
    /// last round is posted in it).
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.scenario.set_rounds(rounds);
        self
    }

    /// Replace the audit configuration (similarity regime, witness cap).
    pub fn audit(mut self, config: AuditConfig) -> Self {
        self.audit = config;
        self
    }

    /// Audit only the given axioms (default: all seven).
    pub fn axioms(mut self, ids: &[AxiomId]) -> Self {
        self.axioms = Some(ids.to_vec());
        self
    }

    /// Stage a fairness repair; repairs apply in staging order and
    /// trigger a second simulate+audit pass in [`Pipeline::run`].
    pub fn enforce(mut self, enforcement: Enforcement) -> Self {
        self.enforcements.push(enforcement);
        self
    }

    /// Simulate one scenario into a validated trace — strategy-aware:
    /// a static config is a single simulator pass, a strategic one is
    /// iterated to its fixed point ([`crate::sim::converge`]) and the
    /// **converged** trace is returned. Every simulation the pipeline
    /// performs (run, export, sweep work units, enforcement re-runs) funnels
    /// through here, so "the trace of a scenario" means the same thing
    /// on every path. What runs is the config's [`market`].
    fn simulate_config(&self, config: &ScenarioConfig) -> Result<Trace, FaircrowdError> {
        let config = market(config);
        let trace = if config.strategy == StrategyChoice::Static {
            crate::sim::run(config)
        } else {
            crate::sim::converge::run(config, &self.converge)?.trace
        };
        trace.ensure_valid()?;
        Ok(trace)
    }

    /// Validate the staged scenario and simulate it into a validated
    /// trace — the export path (`faircrowd export`) calls this, so a
    /// trace produced here and fed back through [`Pipeline::replay`] is
    /// exactly the trace [`Pipeline::run`] would have audited.
    pub fn simulate(&self) -> Result<Trace, FaircrowdError> {
        self.scenario.validate()?;
        self.simulate_config(&self.scenario)
    }

    /// Audit through a pre-built index (the staged axiom subset, or all
    /// seven).
    fn audit_indexed(&self, ix: &TraceIndex<'_>) -> FairnessReport {
        let engine = AuditEngine::new(self.audit.clone());
        match &self.axioms {
            Some(ids) => engine.run_indexed(ix, ids),
            None => engine.run_indexed(ix, &AxiomId::ALL),
        }
    }

    /// Execute the pipeline: validate, simulate, audit, then — when
    /// enforcements are staged — repair the scenario, re-simulate and
    /// re-audit. A repair that cannot change the market (the repaired
    /// config equals the baseline once both policies are
    /// [normalised](PolicyChoice::normalized), say parity over an open
    /// policy) is not re-simulated: the enforced run reuses the
    /// baseline's artifacts, while [`EnforcedRun::config`] still reports
    /// the repair as staged.
    ///
    /// Each trace — the baseline and a re-simulated repair — goes
    /// through the same audit tail as a replay: indexed once
    /// ([`TraceIndex`]), audited and paid through that index, and
    /// summarised off what the index build tallied.
    pub fn run(self) -> Result<PipelineResult, FaircrowdError> {
        self.scenario.validate()?;
        let baseline = self.audit_artifacts(self.simulate_config(&self.scenario)?);
        let enforced = if self.enforcements.is_empty() {
            None
        } else {
            let repaired = self.repaired();
            repaired.validate()?;
            let artifacts = if market(&repaired) == market(&self.scenario) {
                baseline.clone()
            } else {
                self.audit_artifacts(self.simulate_config(&repaired)?)
            };
            Some(EnforcedRun {
                config: repaired,
                applied: self.enforcements.clone(),
                artifacts,
            })
        };
        Ok(PipelineResult {
            config: self.scenario,
            baseline,
            enforced,
        })
    }

    /// Execute the pipeline's convergence path explicitly: iterate the
    /// staged scenario to its strategy fixed point and audit the
    /// converged market, returning the per-iteration history alongside
    /// the artifacts. Works for any strategy — a `static` scenario
    /// converges in exactly one iteration to the trace [`Pipeline::run`]
    /// audits.
    ///
    /// Enforcements cannot be staged here: a config repair changes the
    /// market the strategies converged against, so "repair then
    /// converge" and "converge then repair" are different claims — stage
    /// the repair on a plain [`Pipeline::run`] of the strategic scenario
    /// instead, which converges both the baseline and the repaired
    /// config.
    pub fn run_converged(self) -> Result<ConvergedRun, FaircrowdError> {
        if !self.enforcements.is_empty() {
            return Err(FaircrowdError::usage(
                "`converge` reports the fixed point of one market; staged enforcement \
                 repairs re-simulate a different one — use `run` (which converges \
                 strategic scenarios on both sides of the enforcement comparison)",
            ));
        }
        self.scenario.validate()?;
        let converged = crate::sim::converge::run(self.scenario.clone(), &self.converge)?;
        converged.trace.ensure_valid()?;
        let artifacts = self.audit_artifacts(converged.trace);
        Ok(ConvergedRun {
            config: self.scenario,
            iterations: converged.iterations,
            history: converged.history,
            state: converged.state,
            artifacts,
        })
    }

    /// Audit an externally recorded trace through this pipeline's audit
    /// configuration and staged axiom subset — the **replay** path (load
    /// → index → audit → report, no simulator in the loop). The trace is
    /// validated first; staged enforcements are ignored, since config
    /// repairs cannot be applied to a platform that already ran.
    /// Borrows and clones the trace for the returned artifacts; use
    /// [`Pipeline::replay_owned`] when the caller is done with its copy
    /// (e.g. a trace just loaded from disk) to avoid duplicating a
    /// potentially large log.
    pub fn replay(&self, trace: &Trace) -> Result<RunArtifacts, FaircrowdError> {
        self.replay_owned(trace.clone())
    }

    /// [`Pipeline::replay`] taking ownership — no copy of the trace is
    /// made, which matters exactly on the external-log workload where
    /// recorded traces can be large.
    pub fn replay_owned(&self, trace: Trace) -> Result<RunArtifacts, FaircrowdError> {
        trace.ensure_valid()?;
        Ok(self.audit_artifacts(trace))
    }

    /// Produce only the **final** artifacts: for an enforcement-free
    /// pipeline, the audit of the simulated scenario; with enforcements
    /// staged, the repaired re-simulation and its re-audit — *skipping
    /// the baseline entirely* (neither simulated nor audited), since
    /// nothing of it is returned.
    ///
    /// This is the sweep engine's work unit: a grid cell folds exactly
    /// the fields of [`RunArtifacts`] (plus a consensus score of the
    /// trace), so dropping the unread baseline work changes wall-clock
    /// and nothing else (pinned byte-identical against the full
    /// [`Pipeline::run`] by `sweep`'s determinism tests). Pipelines with
    /// equal [`Pipeline::final_market`]s return equal artifacts, so the
    /// sweep runs one of them for all.
    pub(crate) fn run_final(self) -> Result<RunArtifacts, FaircrowdError> {
        self.scenario.validate()?;
        let config = self.repaired();
        config.validate()?;
        let trace = self.simulate_config(&config)?;
        Ok(self.audit_artifacts(trace))
    }

    /// The staged scenario with every staged repair applied, as staged.
    fn repaired(&self) -> ScenarioConfig {
        let mut config = self.scenario.clone();
        for enforcement in &self.enforcements {
            enforcement.apply(&mut config);
        }
        config
    }

    /// The market [`Pipeline::run_final`] simulates: the [`market`] of
    /// the repaired scenario (of the scenario itself when no repair is
    /// staged).
    pub(crate) fn final_market(&self) -> ScenarioConfig {
        market(&self.repaired())
    }

    /// Execute the pipeline **with live auditing**: the staged scenario
    /// is simulated round by round ([`Simulation::run_observed`]), a
    /// [`LiveAuditor`] ingests every round's events as they are logged,
    /// and each violation is handed to `on_finding` at the event that
    /// introduced it — instead of the whole audit running after the
    /// market closed. The closing report comes from the auditor's
    /// incremental mirrors and is bit-identical to what
    /// [`Pipeline::run`] would have reported for the same scenario.
    ///
    /// Enforcements cannot be staged on a live run: config repairs
    /// re-simulate a *different* market, which has its own stream.
    pub fn run_live(
        self,
        mut on_finding: impl FnMut(&LiveFinding),
    ) -> Result<LiveRunArtifacts, FaircrowdError> {
        if !self.enforcements.is_empty() {
            return Err(FaircrowdError::usage(
                "live auditing watches one run as it happens; enforcement repairs \
                 re-simulate a different market — use `run` without --live to compare them",
            ));
        }
        if self.scenario.strategy != StrategyChoice::Static {
            return Err(FaircrowdError::usage(
                "live auditing single-passes one market, but a strategic scenario is \
                 only meaningful at its fixed point — use `converge` to iterate it",
            ));
        }
        self.scenario.validate()?;
        let sim = Simulation::new(self.scenario.clone());
        let mut auditor = LiveAuditor::new(self.audit.clone());
        {
            let setup = sim.live_setup();
            auditor.set_disclosure(setup.disclosure.clone());
            auditor.set_ground_truth(GroundTruth {
                malicious_workers: setup.malicious_workers.clone(),
                true_labels: Default::default(),
            });
            for w in &setup.workers {
                auditor.add_worker((*w).clone());
            }
            for r in setup.requesters {
                auditor.add_requester(r.clone());
            }
        }
        // The observer is infallible; a rejected event (impossible for a
        // simulator-produced stream, which is dense and monotonic by
        // construction) is carried out and re-raised.
        let mut stream_err: Option<FaircrowdError> = None;
        let trace = sim.run_observed(|delta| {
            if stream_err.is_some() {
                return;
            }
            for t in &delta.new_tasks {
                auditor.add_task((*t).clone());
            }
            for s in delta.new_submissions {
                auditor.add_submission(s.clone());
            }
            for e in delta.new_events {
                match auditor.ingest(e.clone()) {
                    Ok(findings) => {
                        for f in &findings {
                            on_finding(f);
                        }
                    }
                    Err(err) => {
                        stream_err = Some(err);
                        return;
                    }
                }
            }
        });
        if let Some(err) = stream_err {
            return Err(err);
        }
        trace.ensure_valid()?;
        // Worker computed attributes evolved while the monitors ran; the
        // closing report is always taken over the end state.
        auditor.adopt_end_state(&trace)?;
        for f in auditor.finalize() {
            on_finding(&f);
        }
        let (report, wages) = match &self.axioms {
            Some(ids) => auditor.final_artifacts(ids),
            None => auditor.final_artifacts(&AxiomId::ALL),
        };
        let summary = TraceSummary::of(&trace);
        Ok(LiveRunArtifacts {
            findings: auditor.findings().to_vec(),
            suppressed_findings: auditor.suppressed_findings(),
            artifacts: RunArtifacts {
                trace,
                summary,
                report,
                wages,
            },
        })
    }

    /// Index, audit and summarise one owned trace. The summary is read
    /// off the index and what its build tallied, so the log is walked
    /// once for both.
    fn audit_artifacts(&self, trace: Trace) -> RunArtifacts {
        let (ix, tally) = TraceIndex::tallied(&trace);
        let report = self.audit_indexed(&ix);
        let wages = metrics::wage_stats(&ix);
        let summary = TraceSummary::from_index(&trace, ix.events(), tally);
        drop(ix);
        RunArtifacts {
            trace,
            summary,
            report,
            wages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_scenarios_before_simulating() {
        let err = Pipeline::new()
            .configure(|c| c.rounds = 0)
            .run()
            .unwrap_err();
        assert!(matches!(err, FaircrowdError::Config { .. }), "{err}");
    }

    #[test]
    fn unknown_policy_names_error_cleanly() {
        let err = Pipeline::new().policy_name("magic").unwrap_err();
        assert!(matches!(err, FaircrowdError::UnknownPolicy { .. }));
    }

    #[test]
    fn enforcement_stages_compose_and_rerun() {
        let result = Pipeline::new()
            .seed(11)
            .rounds(12)
            .enforce(Enforcement::ExposureParity)
            .enforce(Enforcement::GraceFinish)
            .run()
            .unwrap();
        let enforced = result.enforced.expect("second pass must run");
        assert_eq!(enforced.applied.len(), 2);
        assert!(matches!(
            enforced.config.policy,
            PolicyChoice::ParityOver(_)
        ));
        assert_eq!(
            enforced.config.cancellation,
            CancellationPolicy::GraceFinish
        );
        // The baseline config is untouched.
        assert!(matches!(result.config.policy, PolicyChoice::SelfSelection));
    }

    #[test]
    fn a_repair_that_normalises_away_reuses_the_baseline_as_staged() {
        // Parity and a floor over self-selection cannot change the
        // market: the enforced run is the baseline's, while its config
        // still names both repairs.
        let result = Pipeline::new()
            .seed(4)
            .rounds(8)
            .enforce(Enforcement::ExposureParity)
            .enforce(Enforcement::ExposureFloor(8))
            .run()
            .unwrap();
        let enforced = result.enforced.as_ref().unwrap();
        assert_eq!(
            enforced.config.policy.label(),
            "floor8[parity[self-selection]]"
        );
        assert_eq!(enforced.artifacts.trace, result.baseline.trace);
        assert_eq!(enforced.artifacts.report, result.baseline.report);
        assert!(result
            .render()
            .contains("policy=floor8[parity[self-selection]]"));
    }

    #[test]
    fn axioms_subset_limits_the_report() {
        let result = Pipeline::new()
            .rounds(8)
            .axioms(&[AxiomId::A3Compensation])
            .run()
            .unwrap();
        assert_eq!(result.baseline.report.axioms.len(), 1);
    }

    #[test]
    fn run_final_equals_the_final_run_of_run() {
        // The lean final-artifacts path agrees with the full one: with
        // enforcements staged, the repaired re-run and its re-audit…
        let pipeline = Pipeline::new()
            .seed(5)
            .rounds(10)
            .enforce(Enforcement::GraceFinish);
        let full = pipeline.clone().run().unwrap().enforced.unwrap().artifacts;
        let lean = pipeline.run_final().unwrap();
        assert_eq!(lean.trace, full.trace);
        assert_eq!(lean.report, full.report);
        assert_eq!(lean.summary, full.summary);
        assert_eq!(lean.wages, full.wages);
        // …and without enforcements, the baseline itself.
        let plain = Pipeline::new().seed(5).rounds(10);
        let lean = plain.clone().run_final().unwrap();
        assert_eq!(lean.trace, plain.simulate().unwrap());
        assert_eq!(lean.report, plain.run().unwrap().baseline.report);
    }

    #[test]
    fn run_live_matches_run_bit_for_bit() {
        let pipeline = Pipeline::new().seed(9).rounds(10);
        let batch = pipeline.clone().run().unwrap();
        let mut streamed = 0usize;
        let live = pipeline.run_live(|_| streamed += 1).unwrap();
        assert_eq!(live.artifacts.report, batch.baseline.report);
        assert_eq!(live.artifacts.trace, batch.baseline.trace);
        assert_eq!(live.artifacts.summary, batch.baseline.summary);
        assert_eq!(live.artifacts.wages, batch.baseline.wages);
        assert_eq!(
            streamed,
            live.findings.len() + live.suppressed_findings,
            "every finding reaches the callback exactly once"
        );
    }

    #[test]
    fn run_live_rejects_staged_enforcements() {
        let err = Pipeline::new()
            .rounds(8)
            .enforce(Enforcement::GraceFinish)
            .run_live(|_| {})
            .unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        assert!(err.to_string().contains("--live"), "{err}");
    }

    #[test]
    fn run_converged_on_static_matches_run_in_one_iteration() {
        let pipeline = Pipeline::new().seed(5).rounds(10);
        let converged = pipeline.clone().run_converged().unwrap();
        assert_eq!(converged.iterations, 1);
        let run = pipeline.run().unwrap();
        assert_eq!(converged.artifacts.trace, run.baseline.trace);
        assert_eq!(converged.artifacts.report, run.baseline.report);
        assert_eq!(converged.artifacts.wages, run.baseline.wages);
    }

    #[test]
    fn strategic_scenarios_converge_on_every_pipeline_path() {
        // run(), simulate() and run_converged() must all agree on what
        // "the trace of a strategic scenario" is: the converged one.
        let pipeline = Pipeline::new()
            .scenario(crate::sim::catalog::get("super_turkers").unwrap())
            .configure(|c| c.rounds = 12);
        let converged = pipeline.clone().run_converged().unwrap();
        assert!(converged.iterations >= 2, "strategic market must iterate");
        assert_eq!(converged.history.len() as u32, converged.iterations);
        assert_eq!(pipeline.simulate().unwrap(), converged.artifacts.trace);
        let run = pipeline.clone().run().unwrap();
        assert_eq!(run.baseline.trace, converged.artifacts.trace);
        assert_eq!(run.baseline.report, converged.artifacts.report);
    }

    #[test]
    fn run_converged_rejects_staged_enforcements() {
        let err = Pipeline::new()
            .rounds(8)
            .enforce(Enforcement::GraceFinish)
            .run_converged()
            .unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        assert!(err.to_string().contains("converge"), "{err}");
    }

    #[test]
    fn run_live_rejects_strategic_scenarios() {
        let err = Pipeline::new()
            .scenario(crate::sim::catalog::get("price_war").unwrap())
            .configure(|c| c.rounds = 8)
            .run_live(|_| {})
            .unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        assert!(err.to_string().contains("converge"), "{err}");
    }

    #[test]
    fn unknown_strategy_names_error_cleanly() {
        let err = Pipeline::new().strategy_name("greedy").unwrap_err();
        match &err {
            FaircrowdError::UnknownStrategy { name, available } => {
                assert_eq!(name, "greedy");
                assert!(available.contains(&"super_turker".to_owned()));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn replay_audits_an_external_trace_without_simulating() {
        let pipeline = Pipeline::new().seed(3).rounds(10);
        let trace = pipeline.simulate().unwrap();
        let replayed = pipeline.replay(&trace).unwrap();
        let run = pipeline.clone().run().unwrap();
        assert_eq!(replayed.report, run.baseline.report);
        assert_eq!(replayed.summary, run.baseline.summary);
        // Replay validates: a corrupted trace errors instead of lying.
        let mut bad = trace;
        bad.submissions[0].worker = crate::model::WorkerId::new(9999);
        assert!(matches!(
            pipeline.replay(&bad),
            Err(FaircrowdError::InvalidTrace { .. })
        ));
    }
}
