//! The marketplace engine.
//!
//! A round-based (1 round = 1 simulated hour) marketplace loop. Each round:
//!
//! 1. campaigns due this round post their tasks;
//! 2. workers start sessions (and absorb opacity anxiety per the
//!    disclosure configuration);
//! 3. due approval decisions execute — approvals pay, rejections
//!    frustrate, campaign targets may trigger cancellation, which
//!    interrupts in-flight work per the cancellation policy;
//! 4. work started last round lands as submissions;
//! 5. the assignment policy exposes open tasks to online workers and
//!    work starts;
//! 6. detection sweeps run;
//! 7. sessions end; frustration decays; workers may quit.
//!
//! All phases of a round share one event timestamp (round boundary), so
//! the audit log is monotone; precise per-submission timing lives in the
//! [`Submission`] records.

use crate::agents::{frustration, WorkerState};
use crate::config::{ApprovalPolicy, CancellationPolicy, ScenarioConfig};
use crate::gen::{self, Reference};
use crate::strategy::{RequesterStrategy, StrategyState, TaskOffer, WorkerStrategy};
use faircrowd_assign::{AssignInput, AssignmentPolicy, TaskView, WorkerView};
use faircrowd_model::arena::IdSet;
use faircrowd_model::attributes::{AttrValue, DeclaredAttrs};
use faircrowd_model::contribution::Submission;
use faircrowd_model::disclosure::{Audience, DisclosureSet};
use faircrowd_model::event::{CancelReason, Event, EventKind, EventLog, QuitReason};
use faircrowd_model::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::requester::Requester;
use faircrowd_model::skills::SkillVector;
use faircrowd_model::task::{Task, TaskKind};
use faircrowd_model::time::{SimDuration, SimTime};
use faircrowd_model::trace::{GroundTruth, Trace};
use faircrowd_model::worker::Worker;
use faircrowd_pay::scheme::PayContext;
use faircrowd_quality::answers::AnswerSet;
use faircrowd_quality::spam::WorkerArchetype;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Runtime task state.
struct TaskRt {
    task: Task,
    reference: Reference,
    slots_left: u32,
    canceled: bool,
    campaign: usize,
}

/// Runtime campaign state.
struct CampaignRt {
    spec_index: usize,
    requester: RequesterId,
    task_ids: Vec<TaskId>,
    approved: u32,
    canceled: bool,
    posted: bool,
}

/// Work in progress.
struct InFlight {
    worker: WorkerId,
    task: TaskId,
    started_at: SimTime,
    duration: SimDuration,
    quality: f64,
    submit_round: u32,
}

/// A submission awaiting the requester's decision.
struct PendingJudgment {
    submission: SubmissionId,
    worker: WorkerId,
    task: TaskId,
    requester: RequesterId,
    true_quality: f64,
    submitted_at: SimTime,
    decide_round: u32,
    work_duration: SimDuration,
}

/// Per-worker decision bookkeeping (for running means).
#[derive(Default, Clone, Copy)]
struct DecisionStats {
    decisions: u64,
    latency_sum: u64,
}

/// What one simulated round appended to the world — handed to the
/// observer of [`Simulation::run_observed`] after the round completes,
/// so a streaming auditor can ingest the marketplace as it runs.
#[derive(Debug)]
pub struct RoundDelta<'a> {
    /// Tasks posted during the round, in id order.
    pub new_tasks: Vec<&'a Task>,
    /// Submissions that landed during the round.
    pub new_submissions: &'a [Submission],
    /// Audit-log events appended during the round, in seq order.
    pub new_events: &'a [Event],
}

/// The initial world an observer sees before round 0 — everything that
/// exists up front (see [`Simulation::live_setup`]).
#[derive(Debug)]
pub struct LiveSetup<'a> {
    /// All workers, in their initial state (computed attributes evolve
    /// as the simulation runs).
    pub workers: Vec<&'a Worker>,
    /// All requesters.
    pub requesters: &'a [Requester],
    /// The disclosure configuration the platform runs under.
    pub disclosure: &'a DisclosureSet,
    /// Workers that are malicious by construction (the evaluation-only
    /// ground truth the Axiom 4 monitor scores flags against).
    pub malicious_workers: BTreeSet<WorkerId>,
}

/// The simulator.
pub struct Simulation {
    cfg: ScenarioConfig,
    rng: StdRng,
    policy: Box<dyn AssignmentPolicy>,
    worker_strategy: Box<dyn WorkerStrategy>,
    requester_strategy: Box<dyn RequesterStrategy>,
    strategy_state: StrategyState,
    now: SimTime,
    workers: Vec<WorkerState>,
    worker_decisions: Vec<DecisionStats>,
    tasks: Vec<TaskRt>,
    requesters: Vec<Requester>,
    requester_latency: Vec<DecisionStats>,
    campaigns: Vec<CampaignRt>,
    events: EventLog,
    submissions: Vec<Submission>,
    /// Everything the platform paid out (payments, honoured bonuses,
    /// interruption compensation): the conservation check's side of
    /// Σ `total_earnings`.
    paid: Credits,
    answers: AnswerSet,
    durations: BTreeMap<WorkerId, Vec<(SimDuration, SimDuration)>>,
    in_flight: Vec<InFlight>,
    judgments: Vec<PendingJudgment>,
    /// Per worker (by index), every task she was ever shown: a
    /// `TaskVisible` event fires on the first showing only.
    seen_visibility: Vec<IdSet<TaskId>>,
    /// The last round's assignment input, refreshed in place each round
    /// (see `Simulation::snapshot`) so its views are not rebuilt.
    views: AssignInput,
    /// How many of `tasks` have been considered for a view.
    viewed_tasks: usize,
    true_labels: BTreeMap<TaskId, u8>,
}

impl Simulation {
    /// Build a simulation from a scenario (deterministic in the seed),
    /// with neutral strategy state: strategic agents whose state is
    /// neutral behave exactly like [`StrategyChoice::Static`] ones, so a
    /// single un-converged pass over any scenario reproduces the
    /// pre-strategy simulator bit for bit.
    ///
    /// [`StrategyChoice::Static`]: crate::strategy::StrategyChoice::Static
    pub fn new(cfg: ScenarioConfig) -> Self {
        let state = StrategyState::initial(&cfg);
        Simulation::with_state(cfg, state)
    }

    /// Build a simulation whose strategic agents read `state` — the
    /// entry point of the convergence loop ([`crate::converge`]), which
    /// re-runs the scenario under controller-updated states until the
    /// market reaches a fixed point. The state is read-only during the
    /// run; the trace stays a pure function of `(cfg, state)`.
    pub(crate) fn with_state(cfg: ScenarioConfig, strategy_state: StrategyState) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let policy = cfg.policy.build();
        let worker_strategy = cfg.strategy.worker_strategy();
        let requester_strategy = cfg.strategy.requester_strategy();

        // Workers.
        const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
        let mut workers = Vec::new();
        for pop in &cfg.workers {
            for _ in 0..pop.count {
                let id = WorkerId::new(workers.len() as u32);
                let mut skills = SkillVector::with_len(cfg.n_skills);
                for s in 0..cfg.n_skills {
                    if rng.gen_bool(pop.skill_prob) {
                        skills.set(SkillId::new(s as u32), true);
                    }
                }
                let declared = DeclaredAttrs::new().with(
                    "region",
                    AttrValue::Text(REGIONS[rng.gen_range(0..REGIONS.len())].to_owned()),
                );
                let base_accuracy = match pop.archetype {
                    WorkerArchetype::Diligent => rng.gen_range(0.85..0.97),
                    WorkerArchetype::Sloppy => rng.gen_range(0.55..0.75),
                    WorkerArchetype::SemiRandomSpammer => rng.gen_range(0.80..0.95),
                    _ => 0.0,
                };
                workers.push(WorkerState::new(
                    Worker::new(id, declared, skills),
                    pop.archetype,
                    base_accuracy,
                    pop.participation,
                    pop.capacity_per_round,
                ));
            }
        }

        // Requesters (one per distinct campaign name, in first-seen order).
        let mut requesters: Vec<Requester> = Vec::new();
        let mut requester_ids: BTreeMap<String, RequesterId> = BTreeMap::new();
        let mut campaigns = Vec::new();
        for (ci, spec) in cfg.campaigns.iter().enumerate() {
            let rid = *requester_ids
                .entry(spec.requester.clone())
                .or_insert_with(|| {
                    let rid = RequesterId::new(requesters.len() as u32);
                    requesters.push(Requester::new(rid, spec.requester.clone()));
                    rid
                });
            campaigns.push(CampaignRt {
                spec_index: ci,
                requester: rid,
                task_ids: Vec::new(),
                approved: 0,
                canceled: false,
                posted: false,
            });
        }

        let max_classes = cfg
            .campaigns
            .iter()
            .map(|c| match c.kind {
                TaskKind::Labeling { classes } => classes,
                TaskKind::Survey => 4,
                _ => 2,
            })
            .max()
            .unwrap_or(2)
            .max(2);
        let n_workers = workers.len();
        let n_requesters = requesters.len();

        Simulation {
            cfg,
            rng,
            policy,
            worker_strategy,
            requester_strategy,
            strategy_state,
            now: SimTime::ZERO,
            workers,
            worker_decisions: vec![DecisionStats::default(); n_workers],
            tasks: Vec::new(),
            requesters,
            requester_latency: vec![DecisionStats::default(); n_requesters],
            campaigns,
            events: EventLog::new(),
            submissions: Vec::new(),
            paid: Credits::ZERO,
            answers: AnswerSet::new(max_classes),
            durations: BTreeMap::new(),
            in_flight: Vec::new(),
            judgments: Vec::new(),
            seen_visibility: vec![IdSet::new(); n_workers],
            views: AssignInput::default(),
            viewed_tasks: 0,
            true_labels: BTreeMap::new(),
        }
    }

    /// Run the scenario and build the trace.
    pub fn run(self) -> Trace {
        self.run_observed(|_| {})
    }

    /// The initial world an observer of [`Simulation::run_observed`]
    /// sees before round 0: every entity that exists up front, plus the
    /// config facts a streaming auditor needs (disclosure set, the
    /// ground-truth malicious set). Tasks and submissions arrive later,
    /// in [`RoundDelta`]s.
    pub fn live_setup(&self) -> LiveSetup<'_> {
        LiveSetup {
            workers: self.workers.iter().map(|w| &w.worker).collect(),
            requesters: &self.requesters,
            disclosure: &self.cfg.disclosure,
            malicious_workers: self
                .workers
                .iter()
                .filter(|w| w.archetype.is_malicious())
                .map(|w| w.worker.id)
                .collect(),
        }
    }

    /// Run the scenario, calling `observe` after **every round** with
    /// exactly what that round appended to the world (tasks posted,
    /// submissions landed, events logged) — the hook the live-audit
    /// pipeline (`Pipeline::run_live`) ingests from, auditing during
    /// the simulation instead of after it. One final delta carries the
    /// post-horizon flush of in-flight work and outstanding judgments.
    /// The observer is passive: observed and unobserved runs produce the
    /// identical trace.
    pub fn run_observed<F: FnMut(RoundDelta<'_>)>(mut self, mut observe: F) -> Trace {
        let rounds = self.cfg.rounds;
        for round in 0..rounds {
            let tasks_before = self.tasks.len();
            let subs_before = self.submissions.len();
            let events_before = self.events.len();
            self.now = SimTime::from_secs(u64::from(round) * 3600);
            self.post_campaigns(round);
            self.start_sessions();
            self.process_due_judgments(round, false);
            self.land_submissions(round);
            self.run_assignment(round);
            self.run_detection(round);
            self.end_sessions();
            observe(RoundDelta {
                new_tasks: self.tasks[tasks_before..].iter().map(|t| &t.task).collect(),
                new_submissions: &self.submissions[subs_before..],
                new_events: &self.events.as_slice()[events_before..],
            });
        }
        // Final flush: land whatever is still flying, then decide
        // everything outstanding.
        let subs_before = self.submissions.len();
        let events_before = self.events.len();
        self.now = SimTime::from_secs(u64::from(rounds) * 3600);
        self.land_submissions(u32::MAX);
        self.process_due_judgments(u32::MAX, true);
        observe(RoundDelta {
            new_tasks: Vec::new(),
            new_submissions: &self.submissions[subs_before..],
            new_events: &self.events.as_slice()[events_before..],
        });
        debug_assert_eq!(
            self.paid,
            self.workers
                .iter()
                .map(|w| w.worker.computed.total_earnings)
                .sum::<Credits>(),
            "every credit paid must land in a worker's earnings"
        );
        self.build_trace()
    }

    fn spec(&self, campaign: usize) -> &crate::config::CampaignSpec {
        &self.cfg.campaigns[self.campaigns[campaign].spec_index]
    }

    #[allow(clippy::needless_range_loop)] // ci is also stored in tasks/ids
    fn post_campaigns(&mut self, round: u32) {
        // Split the borrows so each campaign's spec is *borrowed* from
        // the config instead of cloned every round for every campaign —
        // this runs in the per-round hot loop.
        let Simulation {
            cfg,
            rng,
            now,
            tasks,
            campaigns,
            events,
            true_labels,
            requester_strategy,
            strategy_state,
            ..
        } = self;
        for ci in 0..campaigns.len() {
            let spec = &cfg.campaigns[campaigns[ci].spec_index];
            if campaigns[ci].posted || spec.post_round != round {
                continue;
            }
            campaigns[ci].posted = true;
            // The requester side of the strategy layer: what this
            // requester actually posts, given the spec reward. Static
            // (and any neutral-state) strategies return `spec.reward`
            // unchanged.
            let posted_reward = requester_strategy.post_reward(
                strategy_state,
                campaigns[ci].requester.index(),
                spec.reward,
            );
            for _ in 0..spec.n_tasks {
                let tid = TaskId::new(tasks.len() as u32);
                let mut skills = SkillVector::with_len(cfg.n_skills);
                for s in 0..cfg.n_skills {
                    if rng.gen_bool(spec.skill_req_prob) {
                        skills.set(SkillId::new(s as u32), true);
                    }
                }
                let reference = match spec.kind {
                    TaskKind::Labeling { classes } => {
                        let truth = rng.gen_range(0..classes.max(2));
                        true_labels.insert(tid, truth);
                        Reference::Label(truth, classes.max(2))
                    }
                    TaskKind::FreeText => Reference::Text(gen::reference_text(tid.raw())),
                    TaskKind::Ranking { items } => {
                        let mut perm: Vec<u16> = (0..u16::from(items.max(2))).collect();
                        use rand::seq::SliceRandom;
                        perm.shuffle(rng);
                        Reference::Ranking(perm)
                    }
                    TaskKind::Survey => Reference::Survey(4),
                };
                let task = Task {
                    id: tid,
                    requester: campaigns[ci].requester,
                    campaign: CampaignId::new(ci as u32),
                    skills,
                    reward: posted_reward,
                    kind: spec.kind,
                    assignments_wanted: spec.assignments_per_task,
                    est_duration: spec.est_duration,
                    conditions: spec.conditions.clone(),
                };
                events.push(
                    *now,
                    EventKind::TaskPosted {
                        task: tid,
                        requester: campaigns[ci].requester,
                    },
                );
                campaigns[ci].task_ids.push(tid);
                tasks.push(TaskRt {
                    task,
                    reference,
                    slots_left: spec.assignments_per_task,
                    canceled: false,
                    campaign: ci,
                });
            }
        }
    }

    fn start_sessions(&mut self) {
        let coverage =
            (self.cfg.disclosure.axiom6_coverage() + self.cfg.disclosure.axiom7_coverage()) / 2.0;
        let opacity = frustration::OPACITY_PER_SESSION * (1.0 - coverage);
        for wi in 0..self.workers.len() {
            if self.workers[wi].quit {
                self.workers[wi].online = false;
                continue;
            }
            let online = self
                .rng
                .gen_bool(self.workers[wi].participation.clamp(0.0, 1.0));
            self.workers[wi].online = online;
            if !online {
                continue;
            }
            let id = self.workers[wi].worker.id;
            self.events
                .push(self.now, EventKind::SessionStarted { worker: id });
            self.workers[wi].worker.computed.sessions += 1;
            self.workers[wi].add_frustration(opacity);
            if !self.workers[wi].disclosures_shown {
                self.workers[wi].disclosures_shown = true;
                for item in self.cfg.disclosure.items_for(Audience::Subject) {
                    self.events
                        .push(self.now, EventKind::DisclosureShown { worker: id, item });
                }
            }
        }
    }

    /// This round's marketplace as the policy sees it: open tasks in id
    /// order and online workers, written over the last round's views.
    fn snapshot(&mut self) -> AssignInput {
        let mut input = std::mem::take(&mut self.views);
        // A closed task never reopens (slots only run out, cancellation
        // is final), so the open views keep id order as closed ones drop
        // out and new postings join at the end; the rest only refresh
        // their slots.
        let tasks = &self.tasks;
        input.tasks.retain_mut(|v| {
            let t = &tasks[v.id.index()];
            v.slots = t.slots_left;
            !t.canceled && t.slots_left > 0
        });
        for t in &tasks[self.viewed_tasks..] {
            if !t.canceled && t.slots_left > 0 {
                input.tasks.push(TaskView {
                    id: t.task.id,
                    requester: t.task.requester,
                    skills: t.task.skills.clone(),
                    reward: t.task.reward,
                    slots: t.slots_left,
                    est_duration: t.task.est_duration,
                });
            }
        }
        self.viewed_tasks = tasks.len();
        // Online workers, each written over a reused view's buffers.
        let mut online = 0;
        for w in self.workers.iter().filter(|w| w.online && !w.quit) {
            let quality = w.worker.computed.quality_estimate;
            match input.workers.get_mut(online) {
                Some(view) => {
                    view.id = w.worker.id;
                    view.skills.clone_from(&w.worker.skills);
                    view.quality = quality;
                    view.capacity = w.capacity_per_round;
                    view.group.clone_from(&w.group);
                }
                None => input.workers.push(WorkerView {
                    id: w.worker.id,
                    skills: w.worker.skills.clone(),
                    quality,
                    capacity: w.capacity_per_round,
                    group: w.group.clone(),
                }),
            }
            online += 1;
        }
        input.workers.truncate(online);
        input
    }

    fn run_assignment(&mut self, round: u32) {
        let input = self.snapshot();
        if input.tasks.is_empty() || input.workers.is_empty() {
            self.views = input;
            return;
        }
        let outcome = self.policy.assign(&input, &mut self.rng);
        debug_assert!(
            outcome.check_feasible(&input).is_empty(),
            "policy produced infeasible outcome: {:?}",
            outcome.check_feasible(&input)
        );

        self.views = input;

        // Exposure events (first time a worker sees a task), in
        // (worker, task) order.
        let (seen, events, now) = (&mut self.seen_visibility, &mut self.events, self.now);
        for (&w, vis) in &outcome.visibility {
            seen[w.index()].union_with(vis, |t| {
                events.push(now, EventKind::TaskVisible { task: t, worker: w });
            });
        }
        // Assignments become in-flight work — if the worker takes them.
        for (w, t) in outcome.assignments {
            {
                let trt = &self.tasks[t.index()];
                if trt.slots_left == 0 || trt.canceled {
                    continue; // stale (defensive; feasibility is checked above)
                }
                // The worker side of the strategy layer: does this
                // worker take the offer? Declining leaves the slot open
                // and — critically for the static bit-identity guarantee
                // — the check itself makes no RNG draws, so scenarios
                // where every offer clears (static, or neutral state)
                // leave the random stream untouched.
                let ws = &self.workers[w.index()];
                let offer = TaskOffer {
                    reward: trt.task.reward,
                    est_duration: trt.task.est_duration,
                    quality_estimate: ws.worker.computed.quality_estimate,
                    acceptance_ratio: ws.worker.computed.acceptance_ratio,
                };
                if !self
                    .worker_strategy
                    .accepts(&self.strategy_state, w.index(), &offer)
                {
                    continue;
                }
            }
            self.tasks[t.index()].slots_left -= 1;
            self.events
                .push(self.now, EventKind::TaskAccepted { task: t, worker: w });
            self.events
                .push(self.now, EventKind::WorkStarted { task: t, worker: w });
            let ws = &self.workers[w.index()];
            let quality = gen::intended_quality(
                ws.archetype,
                ws.base_accuracy,
                ws.motivation(),
                &mut self.rng,
            );
            let duration = gen::work_duration(
                ws.archetype,
                self.tasks[t.index()].task.est_duration,
                &mut self.rng,
            );
            self.in_flight.push(InFlight {
                worker: w,
                task: t,
                started_at: self.now,
                duration,
                quality,
                submit_round: round + 1,
            });
        }
    }

    fn land_submissions(&mut self, round: u32) {
        let due: Vec<InFlight> = {
            let mut due = Vec::new();
            let mut rest = Vec::new();
            for item in self.in_flight.drain(..) {
                if item.submit_round <= round {
                    due.push(item);
                } else {
                    rest.push(item);
                }
            }
            self.in_flight = rest;
            due
        };
        for item in due {
            let trt = &self.tasks[item.task.index()];
            // Tasks cancelled under the interrupting policy have already
            // had their in-flight items removed; anything still flying
            // lands normally.
            let sid = SubmissionId::new(self.submissions.len() as u32);
            let ws = &mut self.workers[item.worker.index()];
            let contribution =
                gen::contribution(&trt.reference, ws.archetype, item.quality, &mut self.rng);
            let true_quality = gen::objective_quality(&trt.reference, &contribution);
            let submitted_at = item.started_at + item.duration;
            self.submissions.push(Submission {
                id: sid,
                task: item.task,
                worker: item.worker,
                contribution: contribution.clone(),
                started_at: item.started_at,
                submitted_at,
            });
            ws.worker.computed.tasks_submitted += 1;
            ws.seconds_worked += item.duration.as_secs();
            self.events.push(
                self.now,
                EventKind::SubmissionReceived {
                    submission: sid,
                    task: item.task,
                    worker: item.worker,
                },
            );
            // Detection inputs: labels only.
            if let faircrowd_model::contribution::Contribution::Label(l) = contribution {
                if matches!(trt.task.kind, TaskKind::Labeling { .. }) {
                    self.answers.record(item.worker, item.task, l);
                    self.durations
                        .entry(item.worker)
                        .or_default()
                        .push((item.duration, trt.task.est_duration));
                }
            }
            self.judgments.push(PendingJudgment {
                submission: sid,
                worker: item.worker,
                task: item.task,
                requester: trt.task.requester,
                true_quality,
                submitted_at,
                decide_round: round.saturating_add(self.cfg.decision_delay_rounds),
                work_duration: item.duration,
            });
        }
    }

    fn process_due_judgments(&mut self, round: u32, flush: bool) {
        let due: Vec<PendingJudgment> = {
            let mut due = Vec::new();
            let mut rest = Vec::new();
            for j in self.judgments.drain(..) {
                if flush || j.decide_round <= round {
                    due.push(j);
                } else {
                    rest.push(j);
                }
            }
            self.judgments = rest;
            due
        };
        for j in due {
            self.decide(j);
        }
    }

    fn decide(&mut self, j: PendingJudgment) {
        let (approve, feedback_given) = match self.cfg.approval {
            ApprovalPolicy::LenientAll => (true, true),
            ApprovalPolicy::QualityThreshold {
                threshold,
                noise,
                give_feedback,
            } => {
                let judged = (j.true_quality + self.rng.gen_range(-noise..=noise)).clamp(0.0, 1.0);
                (judged >= threshold, give_feedback)
            }
            ApprovalPolicy::RandomReject {
                reject_prob,
                give_feedback,
            } => (!self.rng.gen_bool(reject_prob), give_feedback),
        };
        // The platform's judged quality estimate (shared by payment and
        // attribute updates): objective quality plus bounded noise.
        let judged_quality = match self.cfg.approval {
            ApprovalPolicy::QualityThreshold { noise, .. } => {
                (j.true_quality + self.rng.gen_range(-noise..=noise)).clamp(0.0, 1.0)
            }
            _ => j.true_quality,
        };

        let latency = self.now.since(j.submitted_at);
        // Worker-side bookkeeping.
        {
            let stats = &mut self.worker_decisions[j.worker.index()];
            stats.decisions += 1;
            stats.latency_sum += latency.as_secs();
            let ws = &mut self.workers[j.worker.index()];
            if approve {
                ws.worker.computed.tasks_approved += 1;
            } else {
                ws.worker.computed.tasks_rejected += 1;
            }
            ws.worker.computed.refresh_acceptance_ratio();
            ws.worker.computed.quality_estimate =
                0.7 * ws.worker.computed.quality_estimate + 0.3 * judged_quality;
            ws.worker.computed.mean_approval_latency =
                SimDuration::from_secs(stats.latency_sum / stats.decisions);
        }
        // Requester-side bookkeeping.
        {
            let r = &mut self.requesters[j.requester.index()];
            let stats = &mut self.requester_latency[j.requester.index()];
            stats.decisions += 1;
            stats.latency_sum += latency.as_secs();
            r.mean_decision_latency = SimDuration::from_secs(stats.latency_sum / stats.decisions);
            if approve {
                r.approved += 1;
            } else {
                r.rejected += 1;
                if feedback_given {
                    r.rejections_with_feedback += 1;
                }
            }
        }

        let campaign = self.tasks[j.task.index()].campaign;
        if approve {
            self.events.push(
                self.now,
                EventKind::SubmissionApproved {
                    submission: j.submission,
                    task: j.task,
                    worker: j.worker,
                },
            );
            let ctx = PayContext {
                task_reward: self.tasks[j.task.index()].task.reward,
                quality: judged_quality,
                work_duration: j.work_duration,
            };
            let amount = self.cfg.payment.payout(&ctx);
            if amount.is_positive() {
                self.paid += amount;
                self.events.push(
                    self.now,
                    EventKind::PaymentIssued {
                        submission: j.submission,
                        task: j.task,
                        worker: j.worker,
                        amount,
                    },
                );
                self.workers[j.worker.index()]
                    .worker
                    .computed
                    .total_earnings += amount;
            }
            // Bonus promise, honoured or not.
            if let Some(bonus) = self.spec(campaign).bonus {
                if bonus.qualifies(&ctx) {
                    self.events.push(
                        self.now,
                        EventKind::BonusPromised {
                            worker: j.worker,
                            requester: j.requester,
                            amount: bonus.amount,
                        },
                    );
                    self.requesters[j.requester.index()].bonuses_promised += 1;
                    if bonus.honoured {
                        self.paid += bonus.amount;
                        self.events.push(
                            self.now,
                            EventKind::BonusPaid {
                                worker: j.worker,
                                requester: j.requester,
                                amount: bonus.amount,
                            },
                        );
                        self.requesters[j.requester.index()].bonuses_paid += 1;
                        self.workers[j.worker.index()]
                            .worker
                            .computed
                            .total_earnings += bonus.amount;
                    } else {
                        self.events.push(
                            self.now,
                            EventKind::BonusReneged {
                                worker: j.worker,
                                requester: j.requester,
                                amount: bonus.amount,
                            },
                        );
                        self.workers[j.worker.index()].add_frustration(frustration::BONUS_RENEGED);
                    }
                }
            }
            // Campaign target check.
            self.campaigns[campaign].approved += 1;
            let target = self.spec(campaign).target_approved;
            if let Some(target) = target {
                if self.campaigns[campaign].approved >= target
                    && !self.campaigns[campaign].canceled
                    && self.cfg.cancellation != CancellationPolicy::RunToCompletion
                {
                    self.cancel_campaign(campaign);
                }
            }
        } else {
            let feedback = if feedback_given {
                Some(Box::new("quality below the stated threshold".to_owned()))
            } else {
                None
            };
            let frustration_hit = if feedback.is_some() {
                frustration::REJECTED_WITH_FEEDBACK
            } else {
                frustration::REJECTED_NO_FEEDBACK
            };
            self.events.push(
                self.now,
                EventKind::SubmissionRejected {
                    submission: j.submission,
                    task: j.task,
                    worker: j.worker,
                    feedback,
                },
            );
            self.workers[j.worker.index()].add_frustration(frustration_hit);
        }
    }

    fn cancel_campaign(&mut self, ci: usize) {
        self.campaigns[ci].canceled = true;
        let task_ids = self.campaigns[ci].task_ids.clone();
        for tid in &task_ids {
            let trt = &mut self.tasks[tid.index()];
            if !trt.canceled {
                trt.canceled = true;
                self.events.push(
                    self.now,
                    EventKind::TaskCanceled {
                        task: *tid,
                        reason: CancelReason::TargetReached,
                    },
                );
            }
        }
        // In-flight work on the cancelled tasks.
        match self.cfg.cancellation {
            CancellationPolicy::RunToCompletion => {}
            CancellationPolicy::GraceFinish => {
                // Tasks stop being offered, but flying work finishes and
                // is judged/paid normally — nothing to do here.
            }
            CancellationPolicy::CancelAtTarget { compensate_partial } => {
                let task_set: BTreeSet<TaskId> = task_ids.iter().copied().collect();
                let mut kept = Vec::new();
                for item in self.in_flight.drain(..) {
                    if !task_set.contains(&item.task) {
                        kept.push(item);
                        continue;
                    }
                    let invested = self.now.since(item.started_at).min(item.duration);
                    // Interrupted workers still spent the time.
                    let invested = if invested == SimDuration::ZERO {
                        // cancelled the same round it started: charge the
                        // time they would have spent so far (half the
                        // duration as the midpoint convention)
                        SimDuration::from_secs(item.duration.as_secs() / 2)
                    } else {
                        invested
                    };
                    self.events.push(
                        self.now,
                        EventKind::WorkInterrupted {
                            task: item.task,
                            worker: item.worker,
                            invested,
                            compensated: compensate_partial,
                        },
                    );
                    let ws = &mut self.workers[item.worker.index()];
                    ws.seconds_worked += invested.as_secs();
                    if compensate_partial {
                        let est = self.tasks[item.task.index()].task.est_duration.as_secs();
                        let frac = if est == 0 {
                            1.0
                        } else {
                            (invested.as_secs() as f64 / est as f64).min(1.0)
                        };
                        let amount = self.tasks[item.task.index()].task.reward.mul_f64(frac);
                        ws.add_frustration(frustration::INTERRUPTED_PAID);
                        if amount.is_positive() {
                            self.paid += amount;
                            self.workers[item.worker.index()]
                                .worker
                                .computed
                                .total_earnings += amount;
                        }
                    } else {
                        ws.add_frustration(frustration::INTERRUPTED_UNPAID);
                    }
                }
                self.in_flight = kept;
            }
        }
    }

    fn run_detection(&mut self, round: u32) {
        // Borrow the detection config in place (it used to be cloned
        // every round, even on rounds where detection does not fire).
        let Simulation {
            cfg,
            answers,
            durations,
            events,
            now,
            ..
        } = self;
        let Some(dc) = &cfg.detection else {
            return;
        };
        if round == 0 || !round.is_multiple_of(dc.every_rounds) {
            return;
        }
        let scores = dc.detector.score(answers, Some(&*durations));
        for (worker, score) in scores {
            if score.combined >= dc.detector.threshold {
                events.push(
                    *now,
                    EventKind::WorkerFlagged {
                        worker,
                        score: score.combined,
                        detector: Box::new("agreement+repetition+speed".to_owned()),
                    },
                );
            }
        }
    }

    fn end_sessions(&mut self) {
        for wi in 0..self.workers.len() {
            let ws = &mut self.workers[wi];
            if ws.quit || !ws.online {
                if !ws.quit {
                    ws.decay_frustration();
                }
                continue;
            }
            let id = ws.worker.id;
            self.events
                .push(self.now, EventKind::SessionEnded { worker: id });
            ws.decay_frustration();
            let hazard = ws.quit_hazard();
            if self.rng.gen_bool(hazard.clamp(0.0, 1.0)) {
                ws.quit = true;
                ws.online = false;
                let reason = if ws.frustration > frustration::QUIT_KNEE {
                    QuitReason::Frustration
                } else {
                    QuitReason::NaturalChurn
                };
                self.events
                    .push(self.now, EventKind::WorkerQuit { worker: id, reason });
            }
        }
    }

    fn build_trace(self) -> Trace {
        let malicious = self
            .workers
            .iter()
            .filter(|w| w.archetype.is_malicious())
            .map(|w| w.worker.id)
            .collect();
        Trace {
            workers: self.workers.into_iter().map(|w| w.worker).collect(),
            tasks: self.tasks.into_iter().map(|t| t.task).collect(),
            requesters: self.requesters,
            submissions: self.submissions,
            events: self.events,
            disclosure: self.cfg.disclosure,
            horizon: self.now,
            ground_truth: GroundTruth {
                malicious_workers: malicious,
                true_labels: self.true_labels,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CampaignSpec, PolicyChoice, WorkerPopulation};
    use faircrowd_model::disclosure::DisclosureSet;
    use faircrowd_model::money::Credits;

    fn base_config() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            rounds: 24,
            workers: vec![WorkerPopulation::diligent(15)],
            campaigns: vec![CampaignSpec::labeling("acme", 20, 10)],
            ..Default::default()
        }
    }

    #[test]
    fn observed_run_is_identical_and_deltas_tile_the_trace() {
        let plain = Simulation::new(base_config()).run();
        let sim = Simulation::new(base_config());
        let setup = sim.live_setup();
        assert_eq!(setup.workers.len(), 15);
        assert!(setup.malicious_workers.is_empty());
        let n_requesters = setup.requesters.len();
        let mut deltas = 0u32;
        let mut tasks = 0usize;
        let mut subs = 0usize;
        let mut events = 0usize;
        let mut last_seq: Option<u64> = None;
        let observed = sim.run_observed(|delta| {
            deltas += 1;
            tasks += delta.new_tasks.len();
            subs += delta.new_submissions.len();
            events += delta.new_events.len();
            for e in delta.new_events {
                assert_eq!(e.seq, last_seq.map_or(0, |s| s + 1), "seqs stay dense");
                last_seq = Some(e.seq);
            }
        });
        assert_eq!(observed, plain, "the observer must be passive");
        assert_eq!(deltas, base_config().rounds + 1, "one per round, one flush");
        assert_eq!(tasks, observed.tasks.len(), "every task is announced once");
        assert_eq!(subs, observed.submissions.len());
        assert_eq!(events, observed.events.len(), "deltas tile the event log");
        assert_eq!(n_requesters, observed.requesters.len());
    }

    #[test]
    fn run_produces_valid_trace() {
        let trace = Simulation::new(base_config()).run();
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        assert_eq!(trace.workers.len(), 15);
        assert_eq!(trace.tasks.len(), 20);
        assert!(!trace.submissions.is_empty(), "some work must happen");
        assert!(trace.events.len() > 50);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Simulation::new(base_config()).run();
        let b = Simulation::new(base_config()).run();
        assert_eq!(a, b);
        let mut other = base_config();
        other.seed = 8;
        let c = Simulation::new(other).run();
        assert_ne!(a, c, "different seed should change the run");
    }

    #[test]
    fn approvals_generate_payments() {
        let trace = Simulation::new(base_config()).run();
        let paid = trace
            .events
            .count_where(|k| matches!(k, EventKind::PaymentIssued { .. }));
        let approved = trace
            .events
            .count_where(|k| matches!(k, EventKind::SubmissionApproved { .. }));
        assert!(approved > 0);
        assert_eq!(paid, approved, "fixed-price pays every approval");
    }

    #[test]
    fn cancellation_interrupts_workers() {
        let mut cfg = base_config();
        cfg.campaigns = vec![CampaignSpec {
            target_approved: Some(10),
            n_tasks: 40,
            assignments_per_task: 3,
            ..CampaignSpec::labeling("survey-co", 40, 10)
        }];
        cfg.cancellation = CancellationPolicy::CancelAtTarget {
            compensate_partial: false,
        };
        let trace = Simulation::new(cfg).run();
        let canceled = trace
            .events
            .count_where(|k| matches!(k, EventKind::TaskCanceled { .. }));
        let interrupted = trace
            .events
            .count_where(|k| matches!(k, EventKind::WorkInterrupted { .. }));
        assert!(canceled > 0, "target must trigger cancellation");
        assert!(interrupted > 0, "someone must have been mid-flight");
    }

    #[test]
    fn grace_finish_cancels_without_interrupting() {
        let mut cfg = base_config();
        cfg.campaigns = vec![CampaignSpec {
            target_approved: Some(10),
            n_tasks: 40,
            assignments_per_task: 3,
            ..CampaignSpec::labeling("survey-co", 40, 10)
        }];
        cfg.cancellation = CancellationPolicy::GraceFinish;
        let trace = Simulation::new(cfg).run();
        let canceled = trace
            .events
            .count_where(|k| matches!(k, EventKind::TaskCanceled { .. }));
        let interrupted = trace
            .events
            .count_where(|k| matches!(k, EventKind::WorkInterrupted { .. }));
        assert!(canceled > 0);
        assert_eq!(interrupted, 0, "grace-finish never interrupts");
    }

    #[test]
    fn spammers_are_flagged() {
        let mut cfg = base_config();
        cfg.rounds = 40;
        cfg.workers = vec![
            WorkerPopulation::diligent(12),
            WorkerPopulation::of(WorkerArchetype::RandomSpammer, 4),
            WorkerPopulation::of(WorkerArchetype::UniformSpammer, 4),
        ];
        cfg.campaigns = vec![CampaignSpec {
            assignments_per_task: 5,
            ..CampaignSpec::labeling("acme", 60, 10)
        }];
        let trace = Simulation::new(cfg).run();
        let flagged: BTreeSet<WorkerId> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::WorkerFlagged { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        assert!(!flagged.is_empty(), "detection sweep should flag someone");
        // flagged workers should be mostly actual spammers
        let spammers = &trace.ground_truth.malicious_workers;
        let hits = flagged.intersection(spammers).count();
        assert!(
            hits * 2 >= flagged.len(),
            "flags should be mostly true positives: {hits}/{}",
            flagged.len()
        );
    }

    #[test]
    fn opaque_platform_loses_more_workers() {
        let horizon = 96;
        let mut transparent = base_config();
        transparent.rounds = horizon;
        transparent.disclosure = DisclosureSet::fully_transparent();
        transparent.approval = ApprovalPolicy::QualityThreshold {
            threshold: 0.6,
            noise: 0.2,
            give_feedback: true,
        };
        let mut opaque = transparent.clone();
        opaque.disclosure = DisclosureSet::opaque();
        opaque.approval = ApprovalPolicy::QualityThreshold {
            threshold: 0.6,
            noise: 0.2,
            give_feedback: false,
        };
        // average across seeds to keep the test robust
        let mut t_quits = 0usize;
        let mut o_quits = 0usize;
        for seed in 0..5 {
            let mut t = transparent.clone();
            t.seed = seed;
            let mut o = opaque.clone();
            o.seed = seed;
            t_quits += Simulation::new(t).run().quits().len();
            o_quits += Simulation::new(o).run().quits().len();
        }
        assert!(
            o_quits > t_quits,
            "opaque platform should lose more workers: {o_quits} vs {t_quits}"
        );
    }

    #[test]
    fn wrongful_rejection_without_feedback_frustrates() {
        let mut cfg = base_config();
        cfg.approval = ApprovalPolicy::RandomReject {
            reject_prob: 0.5,
            give_feedback: false,
        };
        cfg.rounds = 48;
        // enough work to keep everyone busy (and rejected) for weeks
        cfg.campaigns = vec![CampaignSpec::labeling("acme", 150, 10)];
        let trace = Simulation::new(cfg).run();
        let rejected = trace
            .events
            .count_where(|k| matches!(k, EventKind::SubmissionRejected { feedback: None, .. }));
        assert!(rejected > 0);
        let quits = trace.quits();
        assert!(
            !quits.is_empty(),
            "half the work rejected without a word should drive someone away"
        );
    }

    #[test]
    fn bonus_reneging_emits_events() {
        use faircrowd_pay::scheme::BonusPolicy;
        let mut cfg = base_config();
        cfg.campaigns = vec![CampaignSpec {
            bonus: Some(BonusPolicy {
                amount: Credits::from_cents(25),
                quality_threshold: 0.5,
                honoured: false,
            }),
            ..CampaignSpec::labeling("acme", 20, 10)
        }];
        let trace = Simulation::new(cfg).run();
        let promised = trace
            .events
            .count_where(|k| matches!(k, EventKind::BonusPromised { .. }));
        let reneged = trace
            .events
            .count_where(|k| matches!(k, EventKind::BonusReneged { .. }));
        let paid = trace
            .events
            .count_where(|k| matches!(k, EventKind::BonusPaid { .. }));
        assert!(promised > 0);
        assert_eq!(promised, reneged);
        assert_eq!(paid, 0);
    }

    #[test]
    fn policy_choice_affects_exposure() {
        let mut open_cfg = base_config();
        open_cfg.policy = PolicyChoice::SelfSelection;
        let open_trace = Simulation::new(open_cfg).run();
        let mut closed_cfg = base_config();
        closed_cfg.policy = PolicyChoice::RequesterCentric;
        let closed_trace = Simulation::new(closed_cfg).run();
        let exposure = |t: &Trace| {
            t.events
                .count_where(|k| matches!(k, EventKind::TaskVisible { .. }))
        };
        assert!(
            exposure(&open_trace) > exposure(&closed_trace),
            "self-selection exposes more than need-to-know routing"
        );
    }
}
