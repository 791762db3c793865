//! The `faircrowd` command-line tool: run the scenario → simulate →
//! audit → enforce → report pipeline and work with transparency policies
//! from the shell. `faircrowd --help` ([`usage_text`]) lists every verb
//! and flag; both come from one table ([`VERBS`]), which the parser
//! ([`cli::parse`]) also checks every command line against.
//!
//! Every market command goes through [`faircrowd::Pipeline`] and selects
//! assignment policies via the registry
//! ([`faircrowd::assign::registry`]) and scenarios via the catalog
//! ([`faircrowd::sim::catalog`]), so the CLI, examples and tests
//! exercise the same code path; grids run through [`faircrowd::sweep`]
//! and [`faircrowd::frontier`], trace files through
//! [`faircrowd::core::persist`].

mod cli;

use cli::{switch, value, Args, Flag, Verb};
use faircrowd::assign::registry;
use faircrowd::lang::{catalog, compare, printer, render};
use faircrowd::model::disclosure::DisclosureSet;
use faircrowd::model::FaircrowdError;
use faircrowd::pipeline::render_audit;
use faircrowd::prelude::*;
use faircrowd::sim::catalog as scenarios;
use faircrowd::sim::{strategy, StrategyChoice};
use faircrowd::sweep::CellHook;
use std::process::ExitCode;

/// The market flags `run`, `converge`, `audit` and `export` share.
#[rustfmt::skip]
const OPTS: &[Flag] = &[
    value("--scenario", "NAME", "start from a catalog scenario (default: flag-built market)"),
    value("--policy", "NAME", "assignment policy (default self_selection)"),
    value("--strategy", "NAME", "agent-strategy profile (default static; strategic profiles\n\
        converge via fixed-point iteration; conflicts with a\n\
        strategic-family --scenario, whose profile is baked in)"),
    value("--seed", "N", "simulation seed (default 42)"),
    value("--rounds", "N", "market rounds (default 48)"),
    value("--workers", "N", "diligent workers of the flag-built market (default 30)"),
    switch("--opaque", "run the platform with an opaque disclosure set"),
];
const JOBS: Flag = value("--jobs", "N", "worker threads (default: available cores)");
const FORMATS: Flag = value("--format", "F", "table | json | csv (default table)");
const ONCE: Flag = switch("--once", "process current contents and stop (no tailing)");
#[rustfmt::skip]
const PROGRESS: Flag =
    switch("--progress", "one stderr line per completed cell (stdout unchanged)");
#[rustfmt::skip]
const IDLE_MS: Flag =
    value("--idle-ms", "N", "stop after N ms with no growth on any stream (default 1500)");
#[rustfmt::skip]
const EVERY: Flag =
    value("--checkpoint-every", "N", "events between snapshots, per market (default 512)");

/// Every verb: its positional arguments, its flags, its help and its
/// handler. The parser, the help and the usage errors all read this.
#[rustfmt::skip]
const VERBS: [Verb; 15] = [
    Verb { name: "axioms", positionals: &[], shared: &[], run: axioms, flags: &[],
        summary: "print the paper's seven axioms" },
    Verb { name: "run", positionals: &[], shared: OPTS, run: run_cmd,
        summary: "full pipeline incl. enforcement re-audit",
        flags: &[
            switch("--live", "audit during the simulation, printing each\n\
                violation at the event that introduced it"),
            Flag { name: "--enforce", metavar: Some("E"), repeatable: true,
                help: "repair the platform, then re-audit (repeatable;\n\
                    see the enforcements below)" },
        ] },
    Verb { name: "converge", positionals: &[], shared: OPTS, run: converge_cmd,
        summary: "iterate a strategic market to its\nfixed point, then audit the converged trace",
        flags: &[
            value("--tolerance", "F", "fixed-point residual tolerance (default 0.005)"),
            value("--max-iters", "N", "iteration cap before a named divergence error (default 40)"),
            value("--gain", "F", "proportional-controller gain in (0, 1] (default 0.5)"),
        ] },
    Verb { name: "audit", positionals: &[], shared: OPTS, run: audit_cmd,
        summary: "audit a simulated market or a trace file",
        flags: &[value("--trace", "FILE", "audit a recorded trace instead of simulating\n\
            (takes no other flag)")] },
    Verb { name: "export", positionals: &[], shared: OPTS, run: export_cmd,
        summary: "simulate a market and write its trace",
        flags: &[value("--out", "FILE", "where to write the trace (required)")] },
    Verb { name: "replay", positionals: &["<FILE>"], shared: &[], run: replay_cmd, flags: &[],
        summary: "load a trace file, audit it, report" },
    Verb { name: "watch", positionals: &["<FILE>"], shared: &[], run: watch_cmd,
        summary: "a one-market serve: tail a JSONL trace\n(even while it grows) or feed a .fcb\n\
            recording, stream violations as they land",
        flags: &[
            ONCE,
            IDLE_MS,
            value("--checkpoint", "FILE", "append auditor snapshots to the checkpoint journal\n\
                FILE as the stream grows and resume from it on restart\n(no log replay)"),
            EVERY,
        ] },
    Verb { name: "serve", positionals: &["<DIR>"], shared: &[], run: serve_cmd,
        summary: "tail every <market>.jsonl (and audit\nevery <market>.fcb) in DIR at once",
        flags: &[
            value("--checkpoint-dir", "D", "append every market's snapshots to the journal\n\
                D/checkpoints.journal; a restart resumes every stream\nfrom it (no log replay)"),
            EVERY,
            JOBS,
            ONCE,
            IDLE_MS,
        ] },
    Verb { name: "sweep", positionals: &[], shared: &[], run: sweep,
        summary: "parallel grid sweep, aggregate stats",
        flags: &[
            value("--grid", "SPEC", "axes as `axis=v1,v2;…` over scenario | policy | strategy |\n\
                seed | scale | rounds | enforce | aggregator — `*` for every\n\
                name, `a..b` or `a..=b` seed ranges, `+`-stacked enforcements\n\
                (default `policy=*`); strategic cells converge before auditing"),
            JOBS,
            FORMATS,
            value("--seed", "N", "seed axis when the grid sets none (an error if it does)"),
            value("--rounds", "N", "rounds axis when the grid sets none (an error if it does)"),
            value("--strategy", "NAME", "strategy axis when the grid sets none (an error if it does)"),
            value("--shard", "i/N", "run only shard i of an N-way split, appending each finished\n\
                cell to --out FILE (killed shards resume: done cells are\n\
                loaded from the part file and skipped)"),
            value("--out", "FILE", "(with --shard) the part file; render via `faircrowd merge`"),
            PROGRESS,
        ] },
    Verb { name: "frontier", positionals: &[], shared: &[], run: frontier_cmd,
        summary: "sweep a policy × aggregator × enforce\ngrid, chart the quality/fairness\n\
            Pareto-dominant set",
        flags: &[
            value("--grid", "SPEC", "same grammar as sweep; axes left unset default to the\n\
                frontier contrast — every policy, every aggregator,\n\
                enforce=none,parity (a plain sweep defaults each to one point)"),
            JOBS,
            value("--format", "F", "table | json (default table; `*` marks Pareto members)"),
            PROGRESS,
        ] },
    Verb { name: "merge", positionals: &["<part.json>..."], shared: &[], run: merge_cmd,
        summary: "fold shard part files into the\nsingle-process sweep report, byte-identical",
        flags: &[FORMATS] },
    Verb { name: "scenarios", positionals: &[], shared: &[], run: scenarios_cmd, flags: &[],
        summary: "list the named scenario catalog" },
    Verb { name: "policies", positionals: &[], shared: &[], run: policies, flags: &[],
        summary: "list the TPL platform catalog" },
    Verb { name: "render", positionals: &["<policy>"], shared: &[], run: render_cmd, flags: &[],
        summary: "human-readable policy description" },
    Verb { name: "compare", positionals: &["<a>", "<b>"], shared: &[], run: compare_cmd,
        flags: &[], summary: "diff two catalog policies" },
];

fn main() -> ExitCode {
    restore_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            if matches!(err, FaircrowdError::Usage { .. }) {
                eprintln!();
                usage();
            }
            ExitCode::FAILURE
        }
    }
}

/// Let a closed stdout end the process quietly, as it ends `cat` or
/// `grep`. The Rust runtime ignores `SIGPIPE`, so `faircrowd … | head`
/// would otherwise make the next `println!` panic with "Broken pipe".
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    // 13 on Linux and macOS alike; `SIG_DFL` is the null handler.
    const SIGPIPE: std::os::raw::c_int = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: the declaration matches C's `signal(int, void (*)(int))`
    // with the handler as a pointer-sized integer. It resets one signal
    // to its default disposition before any thread is spawned, and no
    // handler code of ours ever runs.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(any(target_os = "linux", target_os = "macos")))]
fn restore_sigpipe() {}

/// Look the verb up in [`VERBS`], check the rest of the line against
/// its row, and run it.
fn dispatch(argv: &[String]) -> Result<(), FaircrowdError> {
    let name = argv.first().map_or("--help", String::as_str);
    if matches!(name, "--help" | "-h" | "help") {
        usage();
        return Ok(());
    }
    let verb = VERBS
        .iter()
        .find(|v| v.name == name)
        .ok_or_else(|| FaircrowdError::usage(format!("unknown command `{name}`")))?;
    let Some(args) = cli::parse(verb, &argv[1..])? else {
        usage();
        return Ok(());
    };
    (verb.run)(&args)
}

fn usage() {
    println!("{}", usage_text());
}

/// The full `--help` text: the verb table rendered, then the registry
/// lists. The tests assert that every flag the table declares and every
/// registry name — policies, strategies, scenarios, aggregators — is
/// listed verbatim: the help must never fall behind either.
fn usage_text() -> String {
    format!(
        "faircrowd — fairness and transparency auditing for crowdsourcing\n\n{}\n\
         trace files: `.jsonl` writes the line-oriented log form, `.fcb` the\n  \
         length-prefixed binary form, anything else the whole-file JSON form;\n  \
         `replay` and `audit --trace` sniff and accept all three (validated:\n  \
         schema version + referential integrity, never a panic); `watch` and\n  \
         `serve` tail the JSONL form and feed a `.fcb` recording's records straight in\n\n\
         enforcements for --enforce (repeatable) and the enforce axis:\n  \
         parity | floor:N | transparency | grace\n\n\
         assignment policies (registry names):\n  {}\n\n\
         agent strategies for --strategy and the strategy axis:\n  {}\n\n\
         consensus aggregators for the aggregator axis:\n  {}\n\n\
         scenario catalog (see `faircrowd scenarios` for both families):\n  \
         static:    {}\n  \
         strategic: {}",
        cli::render(&VERBS),
        registry::NAMES.join(" | "),
        strategy::NAMES.join(" | "),
        faircrowd::quality::aggregate::NAMES.join(" | "),
        scenarios::STATIC_NAMES.join(" | "),
        scenarios::STRATEGIC_NAMES.join(" | ")
    )
}

fn scenarios_cmd(_: &Args) -> Result<(), FaircrowdError> {
    println!("scenario catalog (faircrowd-sim::catalog):\n");
    println!("static family — fixed parameterisations, one simulation pass:");
    for name in scenarios::STATIC_NAMES {
        println!("  {name:<20} {}", scenarios::describe(name).unwrap_or(""));
    }
    println!("\nstrategic family — agents adapt; iterated to a fixed point before auditing:");
    for name in scenarios::STRATEGIC_NAMES {
        println!("  {name:<20} {}", scenarios::describe(name).unwrap_or(""));
    }
    println!(
        "\nagent strategies (--strategy, and the sweep's strategy axis):\n  {}",
        strategy::NAMES.join(" | ")
    );
    println!(
        "\nuse `faircrowd run --scenario <name>` to audit one, \
         `faircrowd converge --scenario <name>` to watch a strategic one\n\
         settle, or sweep them all:\n  \
         faircrowd sweep --grid 'scenario=*;policy=*;seed=0..4' --jobs 8"
    );
    Ok(())
}

fn axioms(_: &Args) -> Result<(), FaircrowdError> {
    for id in AxiomId::ALL {
        println!("{}\n  {}\n", id.label(), id.statement());
    }
    Ok(())
}

/// The shared market scenario behind `run` and `audit`: a catalog
/// preset when `--scenario` names one, else the flag-built default —
/// two comparable labeling campaigns over a full-participation diligent
/// population, so Axioms 1–3 have pairs to quantify over.
fn scenario_from_flags(args: &Args) -> Result<ScenarioConfig, FaircrowdError> {
    let mut config = if let Some(name) = args.value("--scenario") {
        if args.value("--workers").is_some() {
            return Err(FaircrowdError::usage(format!(
                "--workers conflicts with --scenario {name}: a catalog scenario fixes its \
                 own worker populations. Drop --workers, or drop --scenario to resize the \
                 flag-built market"
            )));
        }
        scenarios::get(name)?
    } else {
        // The flag-built default market IS the catalog baseline —
        // resolved from the catalog so the two can never drift apart;
        // --workers resizes its single diligent population.
        let mut config = scenarios::get("baseline")?;
        config.workers[0].count = args.parse("--workers", config.workers[0].count)?;
        config
    };
    // Explicit flags override whichever base was chosen; a catalog
    // scenario's own seed/rounds survive when the flag is absent.
    config.seed = args.parse("--seed", config.seed)?;
    config.set_rounds(args.parse("--rounds", config.rounds)?);
    if args.switch("--opaque") {
        config.disclosure = DisclosureSet::opaque();
    }
    if let Some(name) = args.value("--strategy") {
        // Resolve first: an unknown name must list the registry, not
        // fall through to the scenario's default.
        let choice = StrategyChoice::by_name(name)?;
        if config.strategy != StrategyChoice::Static {
            return Err(FaircrowdError::usage(format!(
                "--strategy {name} conflicts with --scenario {}: its `{}` profile is part \
                 of the scenario definition (strategic family; see `faircrowd scenarios`). \
                 Pick a static-family scenario to override, or drop --strategy",
                args.value("--scenario").unwrap_or("<flag-built>"),
                config.strategy.label()
            )));
        }
        config.strategy = choice;
    }
    Ok(config)
}

fn pipeline_from_flags(args: &Args) -> Result<Pipeline, FaircrowdError> {
    let policy_name = args.value("--policy").unwrap_or("self_selection");
    Pipeline::new()
        .scenario(scenario_from_flags(args)?)
        .policy_name(policy_name)
}

fn run_cmd(args: &Args) -> Result<(), FaircrowdError> {
    if args.switch("--live") {
        if args.value("--enforce").is_some() {
            return Err(FaircrowdError::usage(
                "--enforce conflicts with --live: live auditing watches one run as it happens, \
                 while enforcement repairs re-simulate a different market",
            ));
        }
        return run_live(pipeline_from_flags(args)?);
    }
    run_batch(enforced_pipeline(args)?)
}

/// `run`'s pipeline: the flag-built market plus every `--enforce`, in order.
fn enforced_pipeline(args: &Args) -> Result<Pipeline, FaircrowdError> {
    args.all("--enforce")
        .try_fold(pipeline_from_flags(args)?, |pipeline, raw| {
            Ok(pipeline.enforce(Enforcement::parse(raw)?))
        })
}

/// `faircrowd audit`: `run` without enforcement, or — with `--trace` —
/// the replay of a recorded trace, which already fixes the market, so
/// no market flag may ride along.
fn audit_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let Some(path) = args.value("--trace") else {
        return run_batch(pipeline_from_flags(args)?);
    };
    if let Some(bad) = args.given().find(|&f| f != "--trace") {
        return Err(FaircrowdError::usage(format!(
            "{bad} conflicts with --trace: a recorded trace already fixes the market"
        )));
    }
    replay_file(path)
}

fn run_batch(pipeline: Pipeline) -> Result<(), FaircrowdError> {
    let result = pipeline.run()?;
    println!(
        "auditing: policy={}, seed={}, rounds={}\n",
        result.config.policy.label(),
        result.config.seed,
        result.config.rounds
    );
    print!("{}", result.render());
    Ok(())
}

/// `faircrowd run --live`: audit the market *while it runs*, printing
/// each violation at the event that introduced it, then the same
/// market-plus-report block as a batch `run` (the closing report is
/// bit-identical to the batch audit of the same scenario).
fn run_live(pipeline: Pipeline) -> Result<(), FaircrowdError> {
    // The header comes off the pipeline's resolved config — the same
    // source the batch path prints — so it can never drift from what
    // actually runs.
    let config = pipeline.scenario_config();
    println!(
        "live-auditing: policy={}, seed={}, rounds={}\n",
        config.policy.label(),
        config.seed,
        config.rounds
    );
    let live = pipeline.run_live(|finding| println!("{finding}"))?;
    let shown = live.findings.len();
    println!(
        "\n{} live finding(s){}\n",
        shown + live.suppressed_findings,
        if live.suppressed_findings > 0 {
            format!(" ({} past the in-memory cap)", live.suppressed_findings)
        } else {
            String::new()
        }
    );
    print!("{}", live.artifacts.render("live"));
    Ok(())
}

/// `faircrowd converge`: iterate a strategic market to its fixed point
/// ([`faircrowd::sim::converge`]), printing one residual line per
/// iteration, then the same market-plus-report block as `run` — so the
/// converged audit diffs cleanly against `replay` of the exported
/// converged trace from the axiom table onward (the CI converge smoke
/// does exactly that).
fn converge_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let defaults = faircrowd::sim::ConvergeOptions::default();
    let opts = faircrowd::sim::ConvergeOptions {
        tolerance: args.parse("--tolerance", defaults.tolerance)?,
        max_iterations: args
            .positive("--max-iters", u64::from(defaults.max_iterations))?
            .try_into()
            .map_err(|_| FaircrowdError::usage("--max-iters is too large"))?,
        gain: args.parse("--gain", defaults.gain)?,
    };
    let pipeline = pipeline_from_flags(args)?.converge_options(opts.clone());
    let config = pipeline.scenario_config();
    println!(
        "converging: strategy={}, policy={}, seed={}, rounds={} \
         (tolerance {}, cap {}, gain {})\n",
        config.strategy.label(),
        config.policy.label(),
        config.seed,
        config.rounds,
        opts.tolerance,
        opts.max_iterations,
        opts.gain
    );
    let run = pipeline.run_converged()?;
    for it in &run.history {
        println!(
            "iteration {:>2}: residual {:.6}  retention {:>5.1}%",
            it.iteration,
            it.residual,
            it.summary.retention * 100.0
        );
    }
    println!("\nfixed point after {} iteration(s)\n", run.iterations);
    print!("{}", run.artifacts.render("converged"));
    Ok(())
}

/// `faircrowd export`: simulate the flag-selected market and write its
/// trace to `--out` (format by extension: `.jsonl` → JSONL, else JSON).
fn export_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let out = args.value("--out").ok_or_else(|| {
        FaircrowdError::usage("export requires --out FILE (`.jsonl` for the line-oriented form)")
    })?;
    let trace = pipeline_from_flags(args)?.simulate()?;
    faircrowd::core::persist::save(&trace, out)?;
    println!(
        "exported {}: {} workers, {} tasks, {} submissions, {} events",
        out,
        trace.workers.len(),
        trace.tasks.len(),
        trace.submissions.len(),
        trace.events.len()
    );
    Ok(())
}

/// `faircrowd replay <FILE>`: load → validate → index → audit → report,
/// no simulator in the loop.
fn replay_cmd(args: &Args) -> Result<(), FaircrowdError> {
    replay_file(&args.positionals[0])
}

/// Shared tail of `replay` and `audit --trace`. Prints the same
/// market-plus-report block as `run`, so the two outputs diff cleanly
/// from the audit table onward (the CI smoke step does exactly that).
fn replay_file(path: &str) -> Result<(), FaircrowdError> {
    // `replay_owned` validates the trace (the one integrity pass of this
    // route, so `read`, not `load`) and takes it without a copy:
    // recorded logs can be large.
    let trace = faircrowd::core::persist::read(path)?;
    let artifacts = Pipeline::new().replay_owned(trace)?;
    let trace = &artifacts.trace;
    println!(
        "replaying {path}: {} workers, {} tasks, {} events\n",
        trace.workers.len(),
        trace.tasks.len(),
        trace.events.len()
    );
    print!("{}", artifacts.render("replayed"));
    Ok(())
}

/// `faircrowd watch <FILE>`: a one-market `serve`. The file — a JSONL
/// stream, possibly still growing, or a finished `.fcb` recording — is
/// registered on an [`AuditDaemon`] as its only market and run through
/// the poll loop `serve` uses, printing each violation at the event
/// that introduced it. The loop stops once the file has not grown for
/// `--idle-ms` (or after one pass under `--once`); watch then closes
/// with the same market-plus-report block as `replay`/`audit --trace`,
/// so the two outputs diff cleanly from the audit table onward (the CI
/// smoke step does exactly that: the streamed violation set must not
/// drift from the batch one).
///
/// With `--checkpoint FILE` the market is checkpointed to FILE as the
/// stream grows, and a restarted watch resumes from it — skipping the
/// consumed lines instead of replaying them — printing the restored
/// findings first, so the restart's output is still the stream's
/// complete finding history.
fn watch_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let path = args.positionals[0].as_str();
    let once = args.switch("--once");
    let idle_ms = args.positive("--idle-ms", 1500)?;
    let ckpt_path = args.value("--checkpoint").map(std::path::PathBuf::from);
    let checkpoint_every = args.positive("--checkpoint-every", 512)?;
    if ckpt_path.is_none() && args.value("--checkpoint-every").is_some() {
        return Err(FaircrowdError::usage(
            "--checkpoint-every requires --checkpoint FILE",
        ));
    }
    // A missing file is the caller's mistake, not a market failure.
    std::fs::metadata(path).map_err(|e| FaircrowdError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })?;

    let mut daemon = AuditDaemon::new(DaemonConfig {
        checkpoint_every,
        ..DaemonConfig::default()
    });
    let source = MarketSource {
        market: path.to_owned(),
        path: path.into(),
    };
    daemon.add_source_with_checkpoint(source, ckpt_path);
    poll_until_idle(&mut daemon, once, idle_ms, |f| f.finding.to_string());
    fail_on_failed_markets(&daemon)?;
    let closed = daemon.reports()?.pop().expect("the watched market closed");
    let summary = TraceSummary::of(daemon.auditor(path).expect("registered").trace());
    println!(
        "\nwatched {path}: {} workers, {} tasks, {} events\n",
        closed.workers, closed.tasks, closed.events
    );
    print!("{}", render_audit("watched", &summary, &closed.report));
    Ok(())
}

/// `faircrowd serve <dir>`: the multi-market audit daemon. Every
/// `<market>.jsonl` and `<market>.fcb` in the directory gets its own
/// live auditor ([`faircrowd::core::AuditDaemon`]), sharded across
/// `--jobs` threads, and all findings land in one merged stream tagged
/// `[market]`. With `--checkpoint-dir` each market's state is
/// snapshotted at the `--checkpoint-every` cadence and a restarted
/// serve resumes every stream from its checkpoint — an unusable
/// checkpoint falls back to replaying that market's trace from the
/// start. Closing reports are printed per market; a failed market
/// stream fails the exit code but never the other markets.
fn serve_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let dir = args.positionals[0].as_str();
    let once = args.switch("--once");
    let idle_ms = args.positive("--idle-ms", 1500)?;
    let jobs = args.positive("--jobs", default_jobs())? as usize;
    let checkpoint_dir = args.value("--checkpoint-dir").map(std::path::PathBuf::from);
    let checkpoint_every = args.positive("--checkpoint-every", 512)?;
    if let Some(d) = &checkpoint_dir {
        std::fs::create_dir_all(d).map_err(|e| FaircrowdError::Io {
            path: d.display().to_string(),
            message: e.to_string(),
        })?;
    }

    let sources = MarketSource::discover(dir)?;
    if sources.is_empty() {
        return Err(FaircrowdError::usage(format!(
            "no `<market>.jsonl` trace streams or `<market>.fcb` recordings in `{dir}`"
        )));
    }
    println!(
        "serving {} market stream(s) from {dir} ({jobs} job(s))",
        sources.len()
    );
    let mut daemon = AuditDaemon::open(
        DaemonConfig {
            audit: AuditConfig::default(),
            jobs,
            checkpoint_dir,
            checkpoint_every,
        },
        sources,
    );
    poll_until_idle(&mut daemon, once, idle_ms, DaemonFinding::to_string);
    for r in daemon.reports()? {
        let resumed = r
            .resumed_from
            .map(|s| format!(", resumed from seq {s}"))
            .unwrap_or_default();
        println!(
            "\nmarket `{}`: {} workers, {} tasks, {} events{resumed}\n",
            r.market, r.workers, r.tasks, r.events
        );
        print!("{}", faircrowd::core::report::render_report(&r.report));
    }
    fail_on_failed_markets(&daemon)
}

/// The poll loop `serve` and `watch` share. Prints the startup notices
/// and the findings restored from checkpoints, then polls — printing
/// each round's findings (through `show`) and notices — until no
/// stream grows: after one pass under `--once`, else after `idle_ms`
/// without a new line, or at once when every market has failed. Then
/// finalizes every market and prints the closing findings.
fn poll_until_idle(
    daemon: &mut AuditDaemon,
    once: bool,
    idle_ms: u64,
    show: impl Fn(&DaemonFinding) -> String,
) {
    const POLL_MS: u64 = 100;
    let print = |findings: Vec<DaemonFinding>, notices: Vec<String>| {
        for finding in &findings {
            println!("{}", show(finding));
        }
        for notice in notices {
            println!("{notice}");
        }
    };
    for notice in daemon.take_notices() {
        println!("{notice}");
    }
    print(daemon.restored_findings(), Vec::new());
    let mut idle_waited = 0u64;
    loop {
        let before = daemon.total_lines();
        let findings = daemon.poll();
        print(findings, daemon.take_notices());
        if daemon.total_lines() != before {
            idle_waited = 0;
            continue;
        }
        if once || idle_waited >= idle_ms || daemon.failed_markets().len() == daemon.market_count()
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
        idle_waited += POLL_MS;
    }
    let findings = daemon.finalize();
    print(findings, daemon.take_notices());
}

/// The error a daemon run ends with when any market failed. Each
/// failure was already printed as a notice when it happened.
fn fail_on_failed_markets(daemon: &AuditDaemon) -> Result<(), FaircrowdError> {
    let failed = daemon.failed_markets();
    if failed.is_empty() {
        return Ok(());
    }
    let list = failed
        .iter()
        .map(|(m, e)| format!("`{m}`: {e}"))
        .collect::<Vec<_>>()
        .join("; ");
    Err(FaircrowdError::persist(format!(
        "{} market stream(s) failed: {list}",
        failed.len()
    )))
}

fn default_jobs() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn sweep(args: &Args) -> Result<(), FaircrowdError> {
    let spec = args.value("--grid").unwrap_or("policy=*");
    let mut grid = SweepGrid::parse(spec)?;
    // --seed/--rounds/--strategy set an axis the grid omits; on an axis
    // the grid sets they would have no effect, so they are an error.
    for (flag, set) in [
        ("--seed", grid.seeds.is_some()),
        ("--rounds", grid.rounds.is_some()),
        ("--strategy", grid.strategies.is_some()),
    ] {
        if set && args.value(flag).is_some() {
            return Err(FaircrowdError::usage(format!(
                "{flag} conflicts with `{}=` in --grid: the flag only sets an axis \
                 the grid leaves out. Drop one of them",
                &flag[2..]
            )));
        }
    }
    if args.value("--seed").is_some() {
        grid.seeds = Some(vec![args.parse("--seed", 0)?]);
    }
    if args.value("--rounds").is_some() {
        grid.rounds = Some(vec![args.parse("--rounds", 0)?]);
    }
    if let Some(raw) = args.value("--strategy") {
        // Resolve now so a typo lists the registry before any thread
        // spawns, same as the grid's own axis validation.
        StrategyChoice::by_name(raw)?;
        grid.strategies = Some(vec![raw.to_owned()]);
    }
    let jobs = args.positive("--jobs", default_jobs())? as usize;
    let shard = args.value("--shard");
    let out = args.value("--out");

    if let Some(spec) = shard {
        // Shard mode: results stream to the part file, formatting waits
        // for `merge`; stdout carries only the shard's tally.
        let spec = faircrowd::sweep::shard::ShardSpec::parse(spec)?;
        let Some(out) = out else {
            return Err(FaircrowdError::usage(
                "--shard requires --out FILE (the part file this shard appends to)",
            ));
        };
        if args.value("--format").is_some() {
            return Err(FaircrowdError::usage(
                "--format does not apply to a shard run: shards write part files; \
                 render with `faircrowd merge <part>...` once every shard finished",
            ));
        }
        // The count runs over the cells this invocation computes: those
        // this shard owns, less any a part file already holds.
        let cases = grid.expand()?;
        let owned = faircrowd::sweep::shard::partition(&cases, spec.count)
            .into_iter()
            .filter(|&s| s == spec.index - 1)
            .count();
        let resumed = match std::fs::metadata(out) {
            Ok(meta) if meta.len() > 0 => {
                faircrowd::sweep::shard::load_part(std::path::Path::new(out))?
                    .cells
                    .len()
            }
            _ => 0,
        };
        let (tag, todo) = (format!("shard {spec} "), owned.saturating_sub(resumed));
        let run = with_progress(args, &tag, todo, |hook| {
            let part = std::path::Path::new(out);
            faircrowd::sweep::shard::run_shard_opts(&grid, spec, part, jobs, hook)
        })?;
        println!(
            "shard {spec}: {} of {} grid cell(s); {} ran, {} resumed -> {out}",
            run.shard_cells, run.total_cells, run.ran, run.resumed
        );
        return Ok(());
    }
    if out.is_some() {
        return Err(FaircrowdError::usage(
            "--out only applies to shard runs; pair it with --shard i/N",
        ));
    }
    let format = args.value("--format").unwrap_or("table");

    let cases = grid.expand()?;
    let runs = faircrowd::sweep::work_units(&cases)?.len();
    let result = with_progress(args, "", cases.len(), |hook| {
        faircrowd::sweep::run_grid_observed(&grid, jobs, hook)
    })?;
    print_sweep(
        &result,
        format,
        "sweep",
        &format!("{runs} run(s), {jobs} job(s)"),
    )
}

/// The `sweep` and `merge` report in `format`; a table opens with a
/// `grid {verb}: …` line that ends in `tail`.
fn print_sweep(
    result: &SweepResult,
    format: &str,
    verb: &str,
    tail: &str,
) -> Result<(), FaircrowdError> {
    match format {
        "table" => {
            let (cases, cells) = (result.cases.len(), result.groups.len());
            println!("grid {verb}: {cases} case(s) over {cells} cell(s), {tail}\n");
            print!("{}", result.render_table());
        }
        "json" => print!("{}", result.to_json()),
        "csv" => print!("{}", result.to_csv()),
        other => {
            return Err(FaircrowdError::usage(format!(
                "unknown format `{other}`; expected table | json | csv"
            )))
        }
    }
    Ok(())
}

/// Runs `run` with the `--progress` hook when the flag is given: one
/// stderr line `[{tag}k/total] case #i …` per completed cell, where `k`
/// counts completions and `i` is the cell's 1-based grid position (cells
/// complete out of grid order on several workers).
fn with_progress<T>(args: &Args, tag: &str, total: usize, run: impl FnOnce(CellHook) -> T) -> T {
    let done = std::sync::atomic::AtomicUsize::new(0);
    let line = |cell: usize, outcome: &faircrowd::sweep::CaseOutcome| {
        use std::io::Write as _;
        // Count under the stderr lock, so lines print in count order.
        let mut stderr = std::io::stderr().lock();
        let k = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let (cell, case) = (cell + 1, progress_cell(outcome));
        let _ = writeln!(stderr, "[{tag}{k}/{total}] case #{cell} {case}");
    };
    run(args.switch("--progress").then_some(&line))
}

/// The per-cell description `--progress` prints after the cell tag.
fn progress_cell(outcome: &faircrowd::sweep::CaseOutcome) -> String {
    let case = &outcome.case;
    format!(
        "scenario={} policy={} strategy={} seed={} scale={} rounds={} enforce={} aggregator={}",
        case.scenario,
        case.policy_label,
        case.strategy_label,
        case.seed,
        case.scale,
        case.rounds,
        faircrowd::sweep::stack_label(&case.enforcements),
        case.aggregator_label
    )
}

fn frontier_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let spec = args.value("--grid").unwrap_or("");
    let grid = faircrowd::frontier::frontier_grid(spec)?;
    let jobs = args.positive("--jobs", default_jobs())? as usize;
    let format = args.value("--format").unwrap_or("table");

    let result = with_progress(args, "", grid.expand()?.len(), |hook| {
        faircrowd::frontier::run_frontier_observed(&grid, jobs, hook)
    })?;
    match format {
        "table" => {
            println!(
                "policy frontier: {} point(s), {} on the Pareto frontier, {jobs} job(s)\n",
                result.points.len(),
                result.frontier().len()
            );
            print!("{}", result.render_table());
        }
        "json" => print!("{}", result.to_json()),
        other => {
            return Err(FaircrowdError::usage(format!(
                "unknown format `{other}` for `faircrowd frontier`; expected table | json"
            )))
        }
    }
    Ok(())
}

fn merge_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let format = args.value("--format").unwrap_or("table");
    let paths: Vec<std::path::PathBuf> = args.positionals.iter().map(Into::into).collect();
    let result = faircrowd::sweep::shard::merge_paths(&paths)?;
    print_sweep(
        &result,
        format,
        "merge",
        &format!("{} part(s)", paths.len()),
    )
}

fn policies(_: &Args) -> Result<(), FaircrowdError> {
    println!("catalog policies (TPL sources in faircrowd-lang::catalog):\n");
    for (name, _) in catalog::sources() {
        let policy = catalog::get(name)?;
        let set = policy.disclosure_set();
        println!(
            "  {:<16} rules {:>2}   axiom-6 {:>4.0}%   axiom-7 {:>4.0}%",
            policy.name,
            policy.rule_count(),
            set.axiom6_coverage() * 100.0,
            set.axiom7_coverage() * 100.0
        );
    }
    println!("\nuse `faircrowd render <policy>` for the worker-facing description");
    Ok(())
}

fn render_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let policy = catalog::get(&args.positionals[0])?;
    print!("{}", render::render_policy(&policy));
    println!(
        "\ncanonical TPL source:\n\n{}",
        printer::print_policy(&policy)
    );
    Ok(())
}

fn compare_cmd(args: &Args) -> Result<(), FaircrowdError> {
    let [a, b] = &args.positionals[..] else {
        unreachable!("the parser admits exactly two positionals")
    };
    let (pa, pb) = (catalog::get(a)?, catalog::get(b)?);
    print!("{}", compare(&pa, &pb).render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn verb(name: &str) -> &'static Verb {
        VERBS
            .iter()
            .find(|v| v.name == name)
            .expect("a verb in the table")
    }

    /// `line` (verb first) checked against its row; it must parse.
    fn parsed(line: &[&str]) -> Args {
        cli::parse(verb(line[0]), &argv(&line[1..]))
            .unwrap()
            .expect("not a help request")
    }

    /// `line` through the binary's entry point.
    fn run(line: &[&str]) -> Result<(), FaircrowdError> {
        dispatch(&argv(line))
    }

    /// The usage error `line` must be rejected with, naming `token`.
    fn rejected(line: &[&str], token: &str) -> String {
        let err = match cli::parse(verb(line[0]), &argv(&line[1..])) {
            Err(err) => err,
            Ok(_) => panic!("{line:?} parsed"),
        };
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains(token),
            "{line:?}: `{token}` not named in: {text}"
        );
        text
    }

    #[test]
    fn every_registry_name_builds_a_pipeline() {
        for name in registry::NAMES {
            let args = parsed(&["audit", "--policy", name, "--rounds", "6"]);
            assert!(pipeline_from_flags(&args).is_ok(), "{name}");
        }
        // Hyphen spellings from the old CLI still resolve.
        let args = parsed(&["audit", "--policy", "round-robin"]);
        assert!(pipeline_from_flags(&args).is_ok());
        let args = parsed(&["audit", "--policy", "magic"]);
        assert!(matches!(
            pipeline_from_flags(&args),
            Err(FaircrowdError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn help_lists_every_registry_name() {
        // The help text is derived from the registries, so growing any
        // registry grows the help with it; this pins the wiring.
        let help = usage_text();
        for name in registry::NAMES {
            assert!(help.contains(name), "policy `{name}` missing from help");
        }
        for name in strategy::NAMES {
            assert!(help.contains(name), "strategy `{name}` missing from help");
        }
        for name in faircrowd::quality::aggregate::NAMES {
            assert!(help.contains(name), "aggregator `{name}` missing from help");
        }
        for name in scenarios::STATIC_NAMES
            .iter()
            .chain(scenarios::STRATEGIC_NAMES.iter())
        {
            assert!(help.contains(name), "scenario `{name}` missing from help");
        }
        assert!(help.contains("faircrowd frontier"));
        assert!(help.contains("| aggregator"));
        // The help is rendered from the table the parser checks: every
        // verb, and every flag with its metavar, is in it.
        for verb in &VERBS {
            assert!(help.contains(&format!("faircrowd {}", verb.name)));
            for flag in verb.all_flags() {
                let spelled = flag.spelled();
                assert!(help.contains(&spelled), "`{spelled}` missing from help");
            }
        }
    }

    #[test]
    fn unknown_names_report_their_registry() {
        // Unknown-name errors list the registry they searched, so the
        // user never has to guess the spelling.
        let Err(policy_err) = registry::by_name("magic") else {
            panic!("`magic` resolved to a policy");
        };
        let policy_err = policy_err.to_string();
        for name in registry::NAMES {
            assert!(policy_err.contains(name), "{policy_err}");
        }
        let agg_err = faircrowd::quality::AggregatorChoice::by_name("magic")
            .unwrap_err()
            .to_string();
        for name in faircrowd::quality::aggregate::NAMES {
            assert!(agg_err.contains(name), "{agg_err}");
        }
        let strat_err = StrategyChoice::by_name("magic").unwrap_err().to_string();
        for name in strategy::NAMES {
            assert!(strat_err.contains(name), "{strat_err}");
        }
    }

    #[test]
    fn frontier_rejects_flags_and_positionals_it_would_ignore() {
        for args in [["--shard", "0/2"], ["--out", "part.json"], ["--seed", "7"]] {
            let err = run(&[&["frontier"], &args[..]].concat()).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{args:?}");
            assert!(err.to_string().contains("--grid"), "{err}");
        }
        let err = run(&["frontier", "policy=kos"]).unwrap_err();
        assert!(err.to_string().contains("`policy=kos`"), "{err}");
        let err = run(&["frontier", "--grid", "orbit=1"]).unwrap_err();
        assert!(err.to_string().contains("orbit"), "{err}");
        let err = run(&["frontier", "--grid", "rounds=6", "--format", "csv"]).unwrap_err();
        assert!(err.to_string().contains("table | json"), "{err}");
    }

    #[test]
    fn value_extracts_pairs() {
        let args = parsed(&["run", "--seed", "7", "--policy", "kos"]);
        assert_eq!(args.value("--seed"), Some("7"));
        assert_eq!(args.value("--policy"), Some("kos"));
        assert_eq!(args.value("--rounds"), None);
        // A flag dangling at the end of the line is an error, not a
        // silent fall-back to the default.
        rejected(&["run", "--seed"], "--seed requires a value");
    }

    #[test]
    fn sweep_rejects_flags_it_would_ignore() {
        for args in [
            &["--opaque"][..],
            &["--workers", "10"],
            &["--scenario", "spam_campaign"],
            &["--enforce", "parity"],
        ] {
            let err = run(&[&["sweep"], args].concat()).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{args:?}");
            assert!(err.to_string().contains("--grid"), "{err}");
        }
        // An axis default the grid already sets would be dropped.
        for (grid, flag, value) in [
            ("scenario=baseline;seed=0..3", "--seed", "9"),
            ("rounds=6", "--rounds", "8"),
            ("strategy=static;rounds=6", "--strategy", "super_turker"),
        ] {
            let err = run(&["sweep", "--grid", grid, flag, value]).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{flag}");
            let (text, axis) = (err.to_string(), format!("`{}=`", &flag[2..]));
            assert!(text.contains(flag) && text.contains(&axis), "{text}");
        }
    }

    #[test]
    fn sweep_rejects_a_bare_positional_grid_spec() {
        // Forgetting `--grid` must not silently sweep the default grid.
        let err = run(&["sweep", "seed=1..4;enforce=parity"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(
            err.to_string().contains("seed=1..4;enforce=parity"),
            "{err}"
        );
        assert!(err.to_string().contains("--grid"), "{err}");
        // Flag values are not positionals.
        let err = run(&["sweep", "--jobs", "2", "extra"]).unwrap_err();
        assert!(err.to_string().contains("`extra`"), "{err}");
    }

    #[test]
    fn sweep_shard_flags_validate() {
        // --shard without --out has nowhere to persist cells.
        let err = run(&["sweep", "--shard", "1/2"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("--out"), "{err}");
        // --format belongs to merge, not to a shard run.
        let err = run(&[
            "sweep", "--shard", "1/2", "--out", "p.json", "--format", "json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("merge"), "{err}");
        // Malformed shard specs name the expected form.
        let err = run(&["sweep", "--shard", "3/2", "--out", "p.json"]).unwrap_err();
        assert!(err.to_string().contains("i/N"), "{err}");
        // --out without --shard is not an export flag here.
        let err = run(&["sweep", "--out", "p.json"]).unwrap_err();
        assert!(err.to_string().contains("--shard"), "{err}");
    }

    #[test]
    fn merge_rejects_empty_and_unknown_flags() {
        let err = run(&["merge"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("merge <part.json>"), "{err}");
        let err = run(&["merge", "p.json", "--jobs", "2"]).unwrap_err();
        assert!(err.to_string().contains("--jobs"), "{err}");
        let err = run(&["merge", "p.json", "--format", "yaml"]).unwrap_err();
        let text = err.to_string();
        // Either the missing file or the bad format may surface first;
        // both must be usage-shaped, never a panic.
        assert!(text.contains("yaml") || text.contains("p.json"), "{text}");
    }

    #[test]
    fn default_market_is_the_catalog_baseline() {
        let config = scenario_from_flags(&parsed(&["run"])).unwrap();
        assert_eq!(config, scenarios::get("baseline").unwrap());
        // --workers only resizes the baseline's population…
        let config = scenario_from_flags(&parsed(&["run", "--workers", "12"])).unwrap();
        assert_eq!(config.workers[0].count, 12);
        // …so a catalog scenario, which fixes its own, rejects it.
        for verb in ["run", "audit"] {
            let line = [verb, "--scenario", "baseline", "--workers", "12"];
            let err = run(&line).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
            let text = err.to_string();
            assert!(text.contains("--workers"), "{text}");
            assert!(text.contains("--scenario"), "{text}");
        }
    }

    #[test]
    fn enforcements_parse_and_reject() {
        assert_eq!(
            Enforcement::parse("parity").unwrap(),
            Enforcement::ExposureParity
        );
        assert_eq!(
            Enforcement::parse("floor:5").unwrap(),
            Enforcement::ExposureFloor(5)
        );
        assert_eq!(
            Enforcement::parse("transparency").unwrap(),
            Enforcement::MinimalTransparency
        );
        assert_eq!(
            Enforcement::parse("grace").unwrap(),
            Enforcement::GraceFinish
        );
        assert!(Enforcement::parse("floor:x").is_err());
        assert!(Enforcement::parse("magic").is_err());
    }

    #[test]
    fn scenario_flag_selects_catalog_presets() {
        // A preset keeps its own seed/rounds when flags are absent…
        let args = parsed(&["run", "--scenario", "worker_churn"]);
        let config = scenario_from_flags(&args).unwrap();
        assert_eq!(config.rounds, 60);
        // …and explicit flags still win.
        let args = parsed(&[
            "run",
            "--scenario",
            "worker-churn",
            "--rounds",
            "12",
            "--seed",
            "7",
        ]);
        let config = scenario_from_flags(&args).unwrap();
        assert_eq!(config.rounds, 12);
        assert_eq!(config.seed, 7);
        // Unknown names list the catalog.
        let args = parsed(&["run", "--scenario", "atlantis"]);
        match scenario_from_flags(&args) {
            Err(FaircrowdError::UnknownScenario { available, .. }) => {
                assert_eq!(available.len(), scenarios::NAMES.len());
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn strategy_flag_resolves_conflicts_and_rejects_unknowns() {
        // Override on a static-family base (including the flag-built
        // default) is the point of the flag…
        let config = scenario_from_flags(&parsed(&["run", "--strategy", "super_turker"])).unwrap();
        assert_eq!(config.strategy, StrategyChoice::SuperTurker);
        // …hyphen spellings canonicalise like policies/scenarios…
        let config = scenario_from_flags(&parsed(&[
            "run",
            "--scenario",
            "baseline",
            "--strategy",
            "Super-Turker",
        ]))
        .unwrap();
        assert_eq!(config.strategy, StrategyChoice::SuperTurker);
        // …a strategic scenario's baked-in profile cannot be overridden…
        let err = scenario_from_flags(&parsed(&[
            "run",
            "--scenario",
            "price_war",
            "--strategy",
            "super_turker",
        ]))
        .unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("price_war"), "{err}");
        assert!(err.to_string().contains("price_undercut"), "{err}");
        // …and unknown names list the registry instead of falling
        // through to the default.
        let err = scenario_from_flags(&parsed(&["run", "--strategy", "chaos_monkey"])).unwrap_err();
        match err {
            FaircrowdError::UnknownStrategy { available, .. } => {
                assert_eq!(available.len(), strategy::NAMES.len());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn converge_cmd_validates_flags_and_runs() {
        let err = run(&["converge", "--trace", "t.json"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        let err = run(&["converge", "--live"]).unwrap_err();
        assert!(err.to_string().contains("faircrowd run"), "{err}");
        let err = run(&["converge", "--tolerance", "-1", "--rounds", "6"]).unwrap_err();
        assert!(err.to_string().contains("tolerance"), "{err}");
        let err = run(&["converge", "--max-iters", "0"]).unwrap_err();
        assert!(
            err.to_string().contains("expected a positive integer"),
            "{err}"
        );
        // A strategic scenario settles end to end through the verb.
        run(&["converge", "--scenario", "super_turkers", "--rounds", "8"]).unwrap();
    }

    #[test]
    fn sweep_accepts_a_strategy_default_flag() {
        // The flag acts as an axis default, like --seed/--rounds; a
        // typo errors before any cell runs.
        let err = run(&["sweep", "--strategy", "chaos_monkey"]).unwrap_err();
        assert!(
            matches!(err, FaircrowdError::UnknownStrategy { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn repeated_enforce_flags_accumulate() {
        let args = parsed(&[
            "run",
            "--enforce",
            "parity",
            "--rounds",
            "6",
            "--enforce",
            "grace",
        ]);
        let pipeline = enforced_pipeline(&args).unwrap();
        let result = pipeline.run().unwrap();
        assert_eq!(result.enforced.unwrap().applied.len(), 2);
    }

    #[test]
    fn audit_rejects_enforce_instead_of_ignoring_it() {
        let err = run(&["audit", "--enforce", "parity"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        assert!(err.to_string().contains("faircrowd run"));
    }

    #[test]
    fn bad_numeric_flags_are_usage_errors() {
        let args = parsed(&["run", "--seed", "pony"]);
        assert!(matches!(
            scenario_from_flags(&args),
            Err(FaircrowdError::Usage { .. })
        ));
    }

    #[test]
    fn export_requires_out_and_replay_requires_a_path() {
        let err = run(&["export", "--rounds", "6"]).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        let err = run(&["replay"]).unwrap_err();
        assert!(err.to_string().contains("replay <FILE>"), "{err}");
    }

    #[test]
    fn trace_flag_rejects_conflicts_instead_of_ignoring_them() {
        // `run` never replays…
        let err = run(&["run", "--trace", "t.json"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        // …and a recorded trace can't be combined with market flags…
        let err = run(&["audit", "--trace", "t.json", "--seed", "7"]).unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
        assert!(err.to_string().contains("--trace"), "{err}");
        // …or with --enforce (repairs can't apply to a finished run) —
        // rejected, not silently dropped.
        let err = run(&["audit", "--trace", "t.json", "--enforce", "parity"]).unwrap_err();
        assert!(err.to_string().contains("--enforce"), "{err}");
        // `replay` takes exactly one path; extras are rejected too.
        let err = run(&["replay", "t.json", "--seed", "7"]).unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
        let err = run(&["replay", "t.json", "extra"]).unwrap_err();
        assert!(err.to_string().contains("extra"), "{err}");
    }

    #[test]
    fn export_then_audit_trace_roundtrips() {
        let path = std::env::temp_dir().join("fc_cli_roundtrip.trace.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        run(&[
            "export",
            "--rounds",
            "6",
            "--workers",
            "8",
            "--out",
            &path_str,
        ])
        .unwrap();
        run(&["audit", "--trace", &path_str]).unwrap();
        run(&["replay", &path_str]).unwrap();
        run(&["watch", &path_str, "--once"]).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_live_streams_and_reports() {
        run(&["run", "--rounds", "6", "--workers", "8", "--live"]).unwrap();
        // --live cannot combine with --enforce (repairs re-simulate)…
        let err = run(&["run", "--live", "--enforce", "parity", "--rounds", "6"]).unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
        // …nor with `audit` (which replays or simulates a finished log).
        let err = run(&["audit", "--live", "--rounds", "6"]).unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
        assert!(err.to_string().contains("faircrowd run"), "{err}");
        // …and a recorded trace is watched, not run live.
        let err = run(&["audit", "--trace", "t.jsonl", "--live"]).unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
    }

    #[test]
    fn watch_arguments_are_validated() {
        let err = run(&["watch"]).unwrap_err();
        assert!(err.to_string().contains("watch <FILE>"), "{err}");
        let err = run(&["watch", "a.jsonl", "b.jsonl"]).unwrap_err();
        assert!(
            err.to_string().contains("unexpected argument `b.jsonl`"),
            "{err}"
        );
        let err = run(&["watch", "a.jsonl", "--follow-forever"]).unwrap_err();
        assert!(err.to_string().contains("--follow-forever"), "{err}");
        let err = run(&["watch", "/no/such/fc_trace.jsonl", "--once"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    }

    #[test]
    fn watch_rejects_whole_file_json_with_guidance() {
        let path = std::env::temp_dir().join("fc_cli_watch_wrongformat.trace.json");
        let path_str = path.to_str().unwrap().to_owned();
        run(&[
            "export",
            "--rounds",
            "6",
            "--workers",
            "6",
            "--out",
            &path_str,
        ])
        .unwrap();
        let err = run(&["watch", &path_str, "--once"]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("replay") || text.contains("header"),
            "must point at replay for whole-file JSON: {text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watch_names_the_line_that_broke_monotonicity() {
        // A stream whose event seqs go sparse mid-file: watch must name
        // the file line and the offending seq, not just fail wholesale.
        let path = std::env::temp_dir().join("fc_cli_watch_sparse.trace.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        run(&[
            "export",
            "--rounds",
            "6",
            "--workers",
            "6",
            "--out",
            &path_str,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let target = lines
            .iter()
            .position(|l| l.contains("\"seq\":3,"))
            .expect("an event with seq 3 exists");
        lines[target] = lines[target].replacen("\"seq\":3,", "\"seq\":9,", 1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = run(&["watch", &path_str, "--once"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("line {}", target + 1)), "{msg}");
        assert!(msg.contains("seq 9"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_is_a_clean_error() {
        let err = run(&["replay", "/no/such/fc_trace.json"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    }

    #[test]
    fn positive_accepts_counts_and_rejects_the_rest() {
        assert_eq!(parsed(&["serve", "d"]).positive("--jobs", 4).unwrap(), 4);
        let args = parsed(&["serve", "d", "--jobs", "8"]);
        assert_eq!(args.positive("--jobs", 4).unwrap(), 8);
        // Zero, negatives and non-numerics all get the same wording.
        for bad in ["0", "-3", "many", "1.5", ""] {
            let err = parsed(&["serve", "d", "--jobs", bad])
                .positive("--jobs", 4)
                .unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{bad}");
            assert!(
                err.to_string().contains("expected a positive integer"),
                "{err}"
            );
        }
        // A dangling flag is still the parser's error.
        rejected(&["serve", "d", "--jobs"], "--jobs requires a value");
    }

    #[test]
    fn every_verb_rejects_input_it_does_not_read() {
        for verb in &VERBS {
            let fits = vec!["x"; verb.positionals.len()];
            let line = |extra: &[&'static str]| [&[verb.name][..], &fits, extra].concat();
            let with_value = |flag: &Flag| match flag.metavar {
                Some(_) => vec![flag.name, "1"],
                None => vec![flag.name],
            };
            // A flag only other verbs declare names the verbs that do.
            let foreign = VERBS
                .iter()
                .flat_map(Verb::all_flags)
                .find(|f| verb.flag(f.name).is_none())
                .expect("every verb lacks some other verb's flag");
            let text = rejected(&line(&with_value(foreign)), foreign.name);
            assert!(text.contains("accepted by `faircrowd "), "{text}");
            rejected(&line(&["--no-such-flag"]), "--no-such-flag");
            // One positional too many; a list shape has no maximum, so
            // there the empty list is the misfit.
            match verb.positionals.last() {
                Some(list) if list.ends_with("...") => rejected(&[verb.name], list),
                _ => rejected(&line(&["extra"]), "`extra`"),
            };
            if let Some(flag) = verb.all_flags().find(|f| !f.repeatable) {
                let twice = [with_value(flag), with_value(flag)].concat();
                rejected(
                    &line(&twice),
                    &format!("{} given more than once", flag.name),
                );
            }
        }
        // Lines that used to exit 0 while ignoring part of the input.
        for (line, token) in [
            (&["run", "--sed", "7"][..], "--sed"),
            (&["converge", "--jobs", "4"], "--jobs"),
            (&["run", "--tolerance", "0.1"], "--tolerance"),
            (&["audit", "--trace", "F", "--out", "X"], "--out"),
            (&["export", "--out", "F", "stray"], "`stray`"),
            (&["compare", "amt", "crowdflower", "extra"], "`extra`"),
            (&["render", "amt", "extra"], "`extra`"),
            (&["run", "--rounds", "4", "--rounds", "6"], "--rounds"),
        ] {
            rejected(line, token);
        }
    }

    #[test]
    fn a_value_flag_never_swallows_the_next_flag() {
        rejected(
            &["watch", "m.jsonl", "--checkpoint", "--once"],
            "--checkpoint requires a value",
        );
        rejected(
            &["sweep", "--grid", "--progress"],
            "--grid requires a value",
        );
        // Single-dash words are values, so negative numbers reach the
        // value's own parser.
        let args = parsed(&["converge", "--tolerance", "-1"]);
        assert_eq!(args.value("--tolerance"), Some("-1"));
    }

    #[test]
    fn help_anywhere_is_a_help_request() {
        for verb in &VERBS {
            for help in ["-h", "--help"] {
                let line = argv(&["--no-such-flag", help]);
                assert!(cli::parse(verb, &line).unwrap().is_none(), "{}", verb.name);
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parsed(&["replay", "t.json"]).switch("--once");
    }

    #[test]
    fn count_flags_error_uniformly_across_verbs() {
        let err = run(&["sweep", "--jobs", "0"]).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
        let err = run(&["watch", "t.jsonl", "--idle-ms", "soon"]).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
        let err = run(&["serve", "/tmp", "--checkpoint-every", "0"]).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
    }

    #[test]
    fn serve_arguments_are_validated() {
        let err = run(&["serve"]).unwrap_err();
        assert!(err.to_string().contains("serve <DIR>"), "{err}");
        let err = run(&["serve", "a", "b"]).unwrap_err();
        assert!(err.to_string().contains("unexpected argument `b`"), "{err}");
        let err = run(&["serve", "a", "--daemonize"]).unwrap_err();
        assert!(err.to_string().contains("--daemonize"), "{err}");
        let err = run(&["serve", "/no/such/fc_serve_dir"]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
        // A directory with no .jsonl streams is named, not silently idle.
        let empty = std::env::temp_dir().join("fc_cli_serve_empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&["serve", empty.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("no `<market>.jsonl`"), "{err}");
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn watch_checkpoint_every_requires_checkpoint() {
        let err = run(&["watch", "t.jsonl", "--checkpoint-every", "5"]).unwrap_err();
        assert!(err.to_string().contains("--checkpoint FILE"), "{err}");
    }

    #[test]
    fn serve_audits_exported_markets_end_to_end() {
        let dir = std::env::temp_dir().join(format!("fc_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (market, seed) in [("alpha", "1"), ("beta", "2")] {
            let out = dir.join(format!("{market}.jsonl"));
            run(&[
                "export",
                "--rounds",
                "6",
                "--workers",
                "8",
                "--seed",
                seed,
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
        }
        let ckpt = dir.join("ckpts");
        let args = argv(&[
            "serve",
            dir.to_str().unwrap(),
            "--once",
            "--jobs",
            "2",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]);
        dispatch(&args).unwrap();
        // The cadence appended records for both markets to the one
        // journal; a rerun resumes from them (end-of-stream state) and
        // still closes cleanly.
        let journal = std::fs::read(ckpt.join("checkpoints.journal")).unwrap();
        for market in [&b"alpha"[..], b"beta"] {
            assert!(journal.windows(market.len()).any(|w| w == market));
        }
        dispatch(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_checkpoint_restart_completes_the_stream() {
        let dir = std::env::temp_dir().join(format!("fc_cli_watchck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("m.jsonl");
        run(&[
            "export",
            "--rounds",
            "6",
            "--workers",
            "8",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        let full = std::fs::read_to_string(&trace_path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let cut = lines.len() * 2 / 3;
        let half_path = dir.join("half.jsonl");
        std::fs::write(&half_path, format!("{}\n", lines[..cut].join("\n"))).unwrap();
        let ck = dir.join("m.checkpoint");
        // First life over the truncated stream writes a checkpoint…
        run(&[
            "watch",
            half_path.to_str().unwrap(),
            "--once",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ])
        .unwrap();
        assert!(ck.exists());
        // …and the restart over the complete stream resumes from it.
        std::fs::write(&half_path, &full).unwrap();
        run(&[
            "watch",
            half_path.to_str().unwrap(),
            "--once",
            "--checkpoint",
            ck.to_str().unwrap(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
