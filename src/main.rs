//! The `faircrowd` command-line tool: run the scenario → simulate →
//! audit → enforce → report pipeline and work with transparency policies
//! from the shell.
//!
//! ```text
//! faircrowd axioms                         print the paper's seven axioms
//! faircrowd run   [OPTS] [--live] [--enforce E]...  full pipeline incl. enforcement re-audit
//! faircrowd converge [OPTS]                iterate a strategic market to its fixed point, audit it
//! faircrowd audit [OPTS | --trace FILE]    audit a simulated market or a trace file
//! faircrowd export [OPTS] --out FILE       simulate a market and write its trace
//! faircrowd replay <FILE>                  load a trace file, audit it, report
//! faircrowd watch <FILE> [--once]         a one-market serve: stream one trace's violations
//! faircrowd serve <DIR> [--checkpoint-dir D]  audit every <market>.jsonl / .fcb in DIR at once
//! faircrowd sweep [--grid G] [--jobs N] [--format F]   parallel grid sweep
//! faircrowd frontier [--grid G] [--jobs N] [--format F]  quality/fairness Pareto frontier
//! faircrowd scenarios                      list the named scenario catalog
//! faircrowd policies                       list the TPL platform catalog
//! faircrowd render <policy>                human-readable policy description
//! faircrowd compare <a> <b>                diff two catalog policies
//! ```
//!
//! Every market command goes through [`faircrowd::Pipeline`] and selects
//! assignment policies via the registry
//! ([`faircrowd::assign::registry`]) and scenarios via the catalog
//! ([`faircrowd::sim::catalog`]), so the CLI, examples and tests
//! exercise the same code path. `converge` iterates a strategic market
//! (`--strategy`, or a strategic-family scenario) to its fixed point
//! ([`faircrowd::sim::converge`]) and audits the converged trace.
//! `sweep` runs whole grids
//! (scenarios × policies × strategies × seeds × scales × enforcements ×
//! aggregators) through
//! [`faircrowd::sweep`] on a worker pool; its aggregate output is
//! byte-identical whatever `--jobs` says. `frontier` runs the same
//! machinery over a policy × aggregator × enforcement grid and extracts
//! the quality/fairness Pareto-dominant set
//! ([`faircrowd::frontier`]). `export` and
//! `replay`/`audit --trace` are the two halves of the paper's
//! audit-external-logs workload: a trace written once replays to a
//! bit-identical audit report with no simulator in the loop
//! ([`faircrowd::core::persist`]).

use faircrowd::assign::registry;
use faircrowd::lang::{catalog, compare, printer, render};
use faircrowd::model::disclosure::DisclosureSet;
use faircrowd::model::FaircrowdError;
use faircrowd::prelude::*;
use faircrowd::sim::catalog as scenarios;
use faircrowd::sim::{strategy, StrategyChoice};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let result = match command {
        Some("axioms") => axioms(),
        Some("run") => run_cmd(&args[1..], true),
        Some("converge") => converge_cmd(&args[1..]),
        Some("audit") => run_cmd(&args[1..], false),
        Some("export") => export_cmd(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("watch") => watch_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("frontier") => frontier_cmd(&args[1..]),
        Some("merge") => merge_cmd(&args[1..]),
        Some("scenarios") => scenarios_cmd(),
        Some("policies") => policies(),
        Some("render") => render_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(FaircrowdError::usage(format!("unknown command `{other}`"))),
    };
    match result {
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

fn usage() {
    println!("{}", usage_text());
}

/// The full `--help` text. A function (not an inline `println!`) so the
/// tests can assert that every registry — policies, strategies,
/// scenarios, aggregators — is listed verbatim: the help must never
/// fall behind a grown registry.
fn usage_text() -> String {
    format!(
        "faircrowd — fairness and transparency auditing for crowdsourcing\n\n\
         USAGE:\n  \
         faircrowd axioms                         print the paper's seven axioms\n  \
         faircrowd run   [OPTS] [--live] [--enforce E]...  full pipeline incl. enforcement re-audit\n  \
         faircrowd converge [OPTS] [CONVERGE-OPTS]  iterate a strategic market to its\n                                           \
         fixed point, then audit the converged trace\n  \
         faircrowd audit [OPTS | --trace FILE]    audit a simulated market or a trace file\n  \
         faircrowd export [OPTS] --out FILE       simulate a market and write its trace\n  \
         faircrowd replay <FILE>                  load a trace file, audit it, report\n  \
         faircrowd watch <FILE> [WATCH-OPTS]      a one-market serve: tail a JSONL trace\n                                           \
         (even while it grows) or feed a .fcb\n                                           \
         recording, stream violations as they land\n  \
         faircrowd serve <DIR> [SERVE-OPTS]       tail every <market>.jsonl (and audit\n                                           \
         every <market>.fcb) in DIR at once\n  \
         faircrowd sweep [SWEEP-OPTS]             parallel grid sweep, aggregate stats\n  \
         faircrowd frontier [FRONTIER-OPTS]       sweep a policy × aggregator × enforce\n                                           \
         grid, chart the quality/fairness\n                                           \
         Pareto-dominant set\n  \
         faircrowd merge <part.json>... [--format F]  fold shard part files into the\n                                           \
         single-process sweep report, byte-identical\n  \
         faircrowd scenarios                      list the named scenario catalog\n  \
         faircrowd policies                       list the TPL platform catalog\n  \
         faircrowd render <policy>                human-readable policy description\n  \
         faircrowd compare <a> <b>                diff two catalog policies\n\n\
         trace files: `.jsonl` writes the line-oriented log form, `.fcb` the\n  \
         length-prefixed binary form, anything else the whole-file JSON form;\n  \
         `replay` and `audit --trace` sniff and accept all three (validated:\n  \
         schema version + referential integrity, never a panic); `watch` and\n  \
         `serve` tail the JSONL form and feed a `.fcb` recording's records straight in\n\n\
         OPTS:\n  \
         --scenario NAME  start from a catalog scenario (default: flag-built market)\n  \
         --policy NAME    assignment policy (default self_selection)\n  \
         --strategy NAME  agent-strategy profile (default static; strategic profiles\n                   \
         converge via fixed-point iteration; conflicts with a\n                   \
         strategic-family --scenario, whose profile is baked in)\n  \
         --seed N         simulation seed (default 42)\n  \
         --rounds N       market rounds (default 48)\n  \
         --workers N      diligent workers (default 30; ignored with --scenario)\n  \
         --opaque         run the platform with an opaque disclosure set\n  \
         --live           (run) audit during the simulation, printing each\n                   \
         violation at the event that introduced it\n  \
         --out FILE       (export) where to write the trace\n  \
         --trace FILE     (audit) audit a recorded trace instead of simulating\n\n\
         CONVERGE-OPTS:\n  \
         --tolerance F    fixed-point residual tolerance (default 0.005)\n  \
         --max-iters N    iteration cap before a named divergence error (default 40)\n  \
         --gain F         proportional-controller gain in (0, 1] (default 0.5)\n\n\
         WATCH-OPTS:\n  \
         --once           process the file's current contents and stop (no tailing)\n  \
         --idle-ms N      stop after N ms with no growth (default 1500)\n  \
         --checkpoint FILE  snapshot auditor state to FILE (binary checkpoint v2) as\n                     \
         the stream grows and resume from it on restart (no log replay)\n  \
         --checkpoint-every N  events between snapshots (default 512)\n\n\
         SERVE-OPTS:\n  \
         --checkpoint-dir D  snapshot each market to D/<market>.checkpoint (binary\n                      \
         checkpoint v2) and resume every stream from it on restart\n  \
         --checkpoint-every N  events between snapshots, per market (default 512)\n  \
         --jobs N         shard threads (default: available cores)\n  \
         --once           process current contents and stop (no tailing)\n  \
         --idle-ms N      stop after N ms with no growth on any stream (default 1500)\n\n\
         SWEEP-OPTS:\n  \
         --grid SPEC      axes as `axis=v1,v2;…` over scenario | policy | strategy |\n                   \
         seed | scale | rounds | enforce | aggregator — `*` for every\n                   \
         name, `a..b` or `a..=b` seed ranges, `+`-stacked enforcements\n                   \
         (default `policy=*`); strategic cells converge before auditing\n  \
         --jobs N         worker threads (default: available cores)\n  \
         --format F       table | json | csv (default table)\n  \
         --shard i/N      run only shard i of an N-way split, appending each finished\n                   \
         cell to --out FILE (killed shards resume: done cells are\n                   \
         loaded from the part file and skipped)\n  \
         --out FILE       (with --shard) the part file; render via `faircrowd merge`\n  \
         --progress       one stderr line per completed cell (stdout unchanged)\n\n\
         FRONTIER-OPTS:\n  \
         --grid SPEC      same grammar as sweep; axes left unset default to the\n                   \
         frontier contrast — every policy, every aggregator,\n                   \
         enforce=none,parity (a plain sweep defaults each to one point)\n  \
         --jobs N         worker threads (default: available cores)\n  \
         --format F       table | json (default table; `*` marks Pareto members)\n  \
         --progress       one stderr line per completed cell (stdout unchanged)\n\n\
         enforcements for --enforce (repeatable) and the enforce axis:\n  \
         parity | floor:N | transparency | grace\n\n\
         assignment policies (registry names):\n  {}\n\n\
         agent strategies for --strategy and the strategy axis:\n  {}\n\n\
         consensus aggregators for the aggregator axis:\n  {}\n\n\
         scenario catalog (see `faircrowd scenarios` for both families):\n  \
         static:    {}\n  \
         strategic: {}",
        registry::NAMES.join(" | "),
        strategy::NAMES.join(" | "),
        faircrowd::quality::aggregate::NAMES.join(" | "),
        scenarios::STATIC_NAMES.join(" | "),
        scenarios::STRATEGIC_NAMES.join(" | ")
    )
}

fn scenarios_cmd() -> Result<(), FaircrowdError> {
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

fn axioms() -> Result<(), FaircrowdError> {
    for id in AxiomId::ALL {
        println!("{}\n  {}\n", id.label(), id.statement());
    }
    Ok(())
}

/// The value following `flag`, `Ok(None)` when the flag is absent, and
/// a usage error when the flag dangles at the end of the line — a
/// dangling flag silently falling back to defaults would report results
/// for a run the user didn't ask for.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, FaircrowdError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(String::as_str)
            .map(Some)
            .ok_or_else(|| FaircrowdError::usage(format!("{flag} requires a value"))),
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, FaircrowdError> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| FaircrowdError::usage(format!("invalid value `{raw}` for {flag}"))),
    }
}

/// The shared parser for count-like flags (`--jobs`, `--idle-ms`,
/// `--checkpoint-every`): every verb rejects zero and non-numeric
/// values with the same "expected a positive integer" wording, instead
/// of each flag loop rolling its own.
fn positive_flag(args: &[String], flag: &str, default: u64) -> Result<u64, FaircrowdError> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(FaircrowdError::usage(format!(
                "invalid value `{raw}` for {flag}: expected a positive integer"
            ))),
        },
    }
}

/// The shared market scenario behind `run` and `audit`: a catalog
/// preset when `--scenario` names one, else the flag-built default —
/// two comparable labeling campaigns over a full-participation diligent
/// population, so Axioms 1–3 have pairs to quantify over.
fn scenario_from_flags(args: &[String]) -> Result<ScenarioConfig, FaircrowdError> {
    let mut config = if let Some(name) = flag_value(args, "--scenario")? {
        scenarios::get(name)?
    } else {
        // The flag-built default market IS the catalog baseline —
        // resolved from the catalog so the two can never drift apart;
        // --workers resizes its single diligent population.
        let mut config = scenarios::get("baseline")?;
        config.workers[0].count = parse_flag(args, "--workers", config.workers[0].count)?;
        config
    };
    // Explicit flags override whichever base was chosen; a catalog
    // scenario's own seed/rounds survive when the flag is absent.
    config.seed = parse_flag(args, "--seed", config.seed)?;
    config.rounds = parse_flag(args, "--rounds", config.rounds)?;
    if args.iter().any(|a| a == "--opaque") {
        config.disclosure = DisclosureSet::opaque();
    }
    if let Some(name) = flag_value(args, "--strategy")? {
        // Resolve first: an unknown name must list the registry, not
        // fall through to the scenario's default.
        let choice = StrategyChoice::by_name(name)?;
        if config.strategy != StrategyChoice::Static {
            return Err(FaircrowdError::usage(format!(
                "--strategy {name} conflicts with --scenario {}: its `{}` profile is part \
                 of the scenario definition (strategic family; see `faircrowd scenarios`). \
                 Pick a static-family scenario to override, or drop --strategy",
                flag_value(args, "--scenario")?.unwrap_or("<flag-built>"),
                config.strategy.label()
            )));
        }
        config.strategy = choice;
    }
    Ok(config)
}

fn pipeline_from_flags(args: &[String], with_enforce: bool) -> Result<Pipeline, FaircrowdError> {
    let policy_name = flag_value(args, "--policy")?.unwrap_or("self_selection");
    let mut pipeline = Pipeline::new()
        .scenario(scenario_from_flags(args)?)
        .policy_name(policy_name)?;
    if with_enforce {
        let mut rest = args;
        while let Some(i) = rest.iter().position(|a| a == "--enforce") {
            let raw = rest.get(i + 1).ok_or_else(|| {
                FaircrowdError::usage(
                    "--enforce requires a value (parity | floor:N | transparency | grace)",
                )
            })?;
            pipeline = pipeline.enforce(Enforcement::parse(raw)?);
            rest = &rest[i + 2..];
        }
    } else if args.iter().any(|a| a == "--enforce") {
        return Err(FaircrowdError::usage(
            "--enforce is only valid with `faircrowd run`; `audit`/`export` never enforce",
        ));
    }
    Ok(pipeline)
}

/// Flags that conflict with `--trace`: a recorded trace already fixes
/// the scenario (so market flags would silently report on a market the
/// user didn't replay), and config repairs cannot be applied to a
/// platform that already ran (so `--enforce` would be silently
/// dropped).
const TRACE_CONFLICTS: [&str; 9] = [
    "--scenario",
    "--policy",
    "--strategy",
    "--seed",
    "--rounds",
    "--workers",
    "--opaque",
    "--enforce",
    "--live",
];

fn run_cmd(args: &[String], with_enforce: bool) -> Result<(), FaircrowdError> {
    if let Some(path) = flag_value(args, "--trace")? {
        if with_enforce {
            return Err(FaircrowdError::usage(
                "--trace is only valid with `faircrowd audit` (or `faircrowd replay`); \
                 `run` simulates, and config repairs cannot be applied to a platform \
                 that already ran",
            ));
        }
        if let Some(bad) = args.iter().find(|a| TRACE_CONFLICTS.contains(&a.as_str())) {
            return Err(FaircrowdError::usage(format!(
                "{bad} conflicts with --trace: a recorded trace already fixes the market \
                 and cannot be repaired after the fact"
            )));
        }
        return replay_file(path);
    }
    let live = args.iter().any(|a| a == "--live");
    if live && !with_enforce {
        return Err(FaircrowdError::usage(
            "--live is only valid with `faircrowd run`; `audit --trace` replays a finished \
             log (use `faircrowd watch` to stream one)",
        ));
    }
    let pipeline = pipeline_from_flags(args, with_enforce)?;
    if live {
        return run_live(args, pipeline);
    }
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
fn run_live(args: &[String], pipeline: Pipeline) -> Result<(), FaircrowdError> {
    if args.iter().any(|a| a == "--enforce") {
        return Err(FaircrowdError::usage(
            "--enforce conflicts with --live: live auditing watches one run as it happens, \
             while enforcement repairs re-simulate a different market",
        ));
    }
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
fn converge_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    if args.iter().any(|a| a == "--trace") {
        return Err(FaircrowdError::usage(
            "--trace is only valid with `faircrowd audit`/`replay`: `converge` iterates a \
             simulator, while a recorded trace is already a finished market",
        ));
    }
    if args.iter().any(|a| a == "--live") {
        return Err(FaircrowdError::usage(
            "--live is only valid with `faircrowd run`; `converge` audits the fixed point, \
             not the iterations on the way there",
        ));
    }
    let defaults = faircrowd::sim::ConvergeOptions::default();
    let opts = faircrowd::sim::ConvergeOptions {
        tolerance: parse_flag(args, "--tolerance", defaults.tolerance)?,
        max_iterations: positive_flag(args, "--max-iters", u64::from(defaults.max_iterations))?
            .try_into()
            .map_err(|_| FaircrowdError::usage("--max-iters is too large"))?,
        gain: parse_flag(args, "--gain", defaults.gain)?,
    };
    let pipeline = pipeline_from_flags(args, false)?.converge_options(opts.clone());
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
fn export_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let out = flag_value(args, "--out")?.ok_or_else(|| {
        FaircrowdError::usage("export requires --out FILE (`.jsonl` for the line-oriented form)")
    })?;
    let trace = pipeline_from_flags(args, false)?.simulate()?;
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
/// no simulator in the loop. Anything beyond the one path is rejected
/// rather than silently ignored.
fn replay_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let (path, rest) = match args.first().map(String::as_str) {
        Some("--trace") => (flag_value(args, "--trace")?, &args[2.min(args.len())..]),
        Some(first) => (Some(first), &args[1..]),
        None => (None, args),
    };
    let path = path.ok_or_else(|| FaircrowdError::usage("usage: faircrowd replay <trace-file>"))?;
    if let Some(extra) = rest.first() {
        return Err(FaircrowdError::usage(format!(
            "unexpected argument `{extra}`: `faircrowd replay` takes exactly one trace file \
             (a recorded trace already fixes the market)"
        )));
    }
    replay_file(path)
}

/// Shared tail of `replay` and `audit --trace`. Prints the same
/// market-plus-report block as `run`, so the two outputs diff cleanly
/// from the audit table onward (the CI smoke step does exactly that).
fn replay_file(path: &str) -> Result<(), FaircrowdError> {
    let trace = faircrowd::core::persist::load(path)?;
    println!(
        "replaying {path}: {} workers, {} tasks, {} events\n",
        trace.workers.len(),
        trace.tasks.len(),
        trace.events.len()
    );
    // `replay_owned`: recorded logs can be large, don't copy them.
    let artifacts = Pipeline::new().replay_owned(trace)?;
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
fn watch_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let mut path: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => i += 1,
            "--idle-ms" | "--checkpoint" | "--checkpoint-every" => i += 2,
            flag if flag.starts_with("--") => {
                return Err(FaircrowdError::usage(format!(
                    "unknown flag `{flag}` for `faircrowd watch`; supported: \
                     --once --idle-ms N --checkpoint FILE --checkpoint-every N"
                )))
            }
            positional => {
                if path.is_some() {
                    return Err(FaircrowdError::usage(format!(
                        "unexpected argument `{positional}`: `faircrowd watch` takes exactly \
                         one trace file (`.jsonl` stream or `.fcb` recording)"
                    )));
                }
                path = Some(positional);
                i += 1;
            }
        }
    }
    let path = path.ok_or_else(|| FaircrowdError::usage("usage: faircrowd watch <trace.jsonl>"))?;
    let once = args.iter().any(|a| a == "--once");
    let idle_ms: u64 = positive_flag(args, "--idle-ms", 1500)?;
    let ckpt_path = flag_value(args, "--checkpoint")?.map(std::path::PathBuf::from);
    let checkpoint_every = positive_flag(args, "--checkpoint-every", 512)?;
    if ckpt_path.is_none() && flag_value(args, "--checkpoint-every")?.is_some() {
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
    let trace = daemon.auditor(path).expect("registered").trace().clone();
    println!(
        "\nwatched {path}: {} workers, {} tasks, {} events\n",
        closed.workers, closed.tasks, closed.events
    );
    let artifacts = RunArtifacts {
        summary: TraceSummary::of(&trace),
        trace,
        report: closed.report,
        wages: closed.wages,
    };
    print!("{}", artifacts.render("watched"));
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
fn serve_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let mut dir: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => i += 1,
            "--idle-ms" | "--jobs" | "--checkpoint-dir" | "--checkpoint-every" => i += 2,
            flag if flag.starts_with("--") => {
                return Err(FaircrowdError::usage(format!(
                    "unknown flag `{flag}` for `faircrowd serve`; supported: \
                     --checkpoint-dir D --checkpoint-every N --jobs N --once --idle-ms N"
                )))
            }
            positional => {
                if dir.is_some() {
                    return Err(FaircrowdError::usage(format!(
                        "unexpected argument `{positional}`: `faircrowd serve` takes exactly \
                         one trace directory"
                    )));
                }
                dir = Some(positional);
                i += 1;
            }
        }
    }
    let dir = dir.ok_or_else(|| FaircrowdError::usage("usage: faircrowd serve <dir>"))?;
    let once = args.iter().any(|a| a == "--once");
    let idle_ms = positive_flag(args, "--idle-ms", 1500)?;
    let default_jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = positive_flag(args, "--jobs", default_jobs as u64)? as usize;
    let checkpoint_dir = flag_value(args, "--checkpoint-dir")?.map(std::path::PathBuf::from);
    let checkpoint_every = positive_flag(args, "--checkpoint-every", 512)?;
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

/// The only flags `sweep` reads; anything else is rejected rather than
/// silently ignored (the grid's axes subsume `run`'s market flags).
const SWEEP_FLAGS: [&str; 9] = [
    "--grid",
    "--jobs",
    "--format",
    "--seed",
    "--rounds",
    "--strategy",
    "--shard",
    "--out",
    "--progress",
];

fn sweep(args: &[String]) -> Result<(), FaircrowdError> {
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !SWEEP_FLAGS.contains(&a.as_str()))
    {
        return Err(FaircrowdError::usage(format!(
            "unknown flag `{bad}` for `faircrowd sweep`; supported: {} \
             (scenario, policy and enforcement are grid axes, e.g. \
             --grid 'scenario=spam_campaign;policy=*;enforce=parity')",
            SWEEP_FLAGS.join(" ")
        )));
    }
    // A bare positional (usually a grid spec missing its `--grid`) would
    // otherwise be silently dropped and the default grid swept instead.
    let mut expects_value = false;
    for arg in args {
        if expects_value {
            expects_value = false;
        } else if arg.starts_with("--") {
            expects_value = arg != "--progress";
        } else {
            return Err(FaircrowdError::usage(format!(
                "unexpected argument `{arg}` for `faircrowd sweep`; grid specs go \
                 via --grid, e.g. --grid 'seed=1..4;enforce=parity'"
            )));
        }
    }
    let spec = flag_value(args, "--grid")?.unwrap_or("policy=*");
    let mut grid = SweepGrid::parse(spec)?;
    // --seed/--rounds act as axis defaults when the grid omits them.
    if grid.seeds.is_none() {
        if let Some(raw) = flag_value(args, "--seed")? {
            grid.seeds = Some(vec![raw.parse().map_err(|_| {
                FaircrowdError::usage(format!("invalid value `{raw}` for --seed"))
            })?]);
        }
    }
    if grid.rounds.is_none() {
        if let Some(raw) = flag_value(args, "--rounds")? {
            grid.rounds = Some(vec![raw.parse().map_err(|_| {
                FaircrowdError::usage(format!("invalid value `{raw}` for --rounds"))
            })?]);
        }
    }
    if grid.strategies.is_none() {
        if let Some(raw) = flag_value(args, "--strategy")? {
            // Resolve now so a typo lists the registry before any
            // thread spawns, same as the grid's own axis validation.
            StrategyChoice::by_name(raw)?;
            grid.strategies = Some(vec![raw.to_owned()]);
        }
    }
    let default_jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = positive_flag(args, "--jobs", default_jobs as u64)? as usize;
    let progress = args.iter().any(|a| a == "--progress");
    let shard = flag_value(args, "--shard")?;
    let out = flag_value(args, "--out")?;

    if let Some(spec) = shard {
        // Shard mode: results stream to the part file, formatting waits
        // for `merge`; stdout carries only the shard's tally.
        let spec = faircrowd::sweep::shard::ShardSpec::parse(spec)?;
        let Some(out) = out else {
            return Err(FaircrowdError::usage(
                "--shard requires --out FILE (the part file this shard appends to)",
            ));
        };
        if flag_value(args, "--format")?.is_some() {
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
        let counter = ProgressCounter::new(format!("shard {spec} "), owned.saturating_sub(resumed));
        let progress_line = |cell: usize, outcome: &faircrowd::sweep::CaseOutcome| {
            counter.report(cell, outcome);
        };
        let hook: faircrowd::sweep::CellHook<'_> = progress.then_some(&progress_line);
        let run = faircrowd::sweep::shard::run_shard_opts(
            &grid,
            spec,
            std::path::Path::new(out),
            jobs,
            true,
            hook,
        )?;
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
    let format = flag_value(args, "--format")?.unwrap_or("table");

    let counter = ProgressCounter::new(String::new(), grid.expand()?.len());
    let progress_line = |cell: usize, outcome: &faircrowd::sweep::CaseOutcome| {
        counter.report(cell, outcome);
    };
    let hook: faircrowd::sweep::CellHook<'_> = progress.then_some(&progress_line);
    let result = faircrowd::sweep::run_grid_observed(&grid, jobs, true, hook)?;
    match format {
        "table" => {
            println!(
                "grid sweep: {} case(s) over {} cell(s), {jobs} job(s)\n",
                result.cases.len(),
                result.groups.len()
            );
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

/// The `--progress` line printer: `[k/total] case #i …` per completed
/// cell, where `k` counts completions and `i` is the cell's 1-based
/// grid position (cells complete out of grid order on several workers).
struct ProgressCounter {
    tag: String,
    total: usize,
    done: std::sync::atomic::AtomicUsize,
}

impl ProgressCounter {
    fn new(tag: String, total: usize) -> Self {
        let done = std::sync::atomic::AtomicUsize::new(0);
        ProgressCounter { tag, total, done }
    }

    fn report(&self, cell: usize, outcome: &faircrowd::sweep::CaseOutcome) {
        use std::io::Write as _;
        // Count under the stderr lock, so lines print in count order.
        let mut stderr = std::io::stderr().lock();
        let k = self.done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let _ = writeln!(
            stderr,
            "[{}{k}/{}] case #{} {}",
            self.tag,
            self.total,
            cell + 1,
            progress_cell(outcome)
        );
    }
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

/// The only flags `frontier` reads; like `sweep`, anything else is
/// rejected rather than silently ignored.
const FRONTIER_FLAGS: [&str; 4] = ["--grid", "--jobs", "--format", "--progress"];

fn frontier_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !FRONTIER_FLAGS.contains(&a.as_str()))
    {
        return Err(FaircrowdError::usage(format!(
            "unknown flag `{bad}` for `faircrowd frontier`; supported: {} \
             (policy, aggregator and enforcement are grid axes, e.g. \
             --grid 'policy=*;aggregator=*;enforce=none,parity')",
            FRONTIER_FLAGS.join(" ")
        )));
    }
    let mut expects_value = false;
    for arg in args {
        if expects_value {
            expects_value = false;
        } else if arg.starts_with("--") {
            expects_value = arg != "--progress";
        } else {
            return Err(FaircrowdError::usage(format!(
                "unexpected argument `{arg}` for `faircrowd frontier`; grid specs go \
                 via --grid, e.g. --grid 'policy=*;aggregator=*'"
            )));
        }
    }
    let spec = flag_value(args, "--grid")?.unwrap_or("");
    let grid = faircrowd::frontier::frontier_grid(spec)?;
    let default_jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = positive_flag(args, "--jobs", default_jobs as u64)? as usize;
    let progress = args.iter().any(|a| a == "--progress");
    let format = flag_value(args, "--format")?.unwrap_or("table");

    let counter = ProgressCounter::new(String::new(), grid.expand()?.len());
    let progress_line = |cell: usize, outcome: &faircrowd::sweep::CaseOutcome| {
        counter.report(cell, outcome);
    };
    let hook: faircrowd::sweep::CellHook<'_> = progress.then_some(&progress_line);
    let result = faircrowd::frontier::run_frontier_observed(&grid, jobs, hook)?;
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

fn merge_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let format = flag_value(args, "--format")?.unwrap_or("table");
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => i += 2,
            flag if flag.starts_with("--") => {
                return Err(FaircrowdError::usage(format!(
                    "unknown flag `{flag}` for `faircrowd merge`; supported: --format"
                )));
            }
            path => {
                paths.push(path.into());
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        return Err(FaircrowdError::usage(
            "usage: faircrowd merge <part.json>... [--format table|json|csv]",
        ));
    }
    let result = faircrowd::sweep::shard::merge_paths(&paths)?;
    match format {
        "table" => {
            println!(
                "grid merge: {} case(s) over {} cell(s), {} part(s)\n",
                result.cases.len(),
                result.groups.len(),
                paths.len()
            );
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

fn policies() -> Result<(), FaircrowdError> {
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

fn render_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let name = args
        .first()
        .ok_or_else(|| FaircrowdError::usage("usage: faircrowd render <policy>"))?;
    let policy = catalog::get(name)?;
    print!("{}", render::render_policy(&policy));
    println!(
        "\ncanonical TPL source:\n\n{}",
        printer::print_policy(&policy)
    );
    Ok(())
}

fn compare_cmd(args: &[String]) -> Result<(), FaircrowdError> {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        return Err(FaircrowdError::usage("usage: faircrowd compare <a> <b>"));
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

    #[test]
    fn every_registry_name_builds_a_pipeline() {
        for name in registry::NAMES {
            let args = argv(&["--policy", name, "--rounds", "6"]);
            assert!(pipeline_from_flags(&args, false).is_ok(), "{name}");
        }
        // Hyphen spellings from the old CLI still resolve.
        let args = argv(&["--policy", "round-robin"]);
        assert!(pipeline_from_flags(&args, false).is_ok());
        let args = argv(&["--policy", "magic"]);
        assert!(matches!(
            pipeline_from_flags(&args, false),
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
        for args in [
            argv(&["--shard", "0/2"]),
            argv(&["--out", "part.json"]),
            argv(&["--seed", "7"]),
        ] {
            let err = frontier_cmd(&args).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{args:?}");
            assert!(err.to_string().contains("--grid"), "{err}");
        }
        let err = frontier_cmd(&argv(&["policy=kos"])).unwrap_err();
        assert!(err.to_string().contains("`policy=kos`"), "{err}");
        let err = frontier_cmd(&argv(&["--grid", "orbit=1"])).unwrap_err();
        assert!(err.to_string().contains("orbit"), "{err}");
        let err = frontier_cmd(&argv(&["--grid", "rounds=6", "--format", "csv"])).unwrap_err();
        assert!(err.to_string().contains("table | json"), "{err}");
    }

    #[test]
    fn flag_value_extracts_pairs() {
        let args = argv(&["--seed", "7", "--policy", "kos"]);
        assert_eq!(flag_value(&args, "--seed").unwrap(), Some("7"));
        assert_eq!(flag_value(&args, "--policy").unwrap(), Some("kos"));
        assert_eq!(flag_value(&args, "--rounds").unwrap(), None);
        // A flag dangling at the end of the line is an error, not a
        // silent fall-back to the default.
        let dangling = argv(&["--seed"]);
        assert!(matches!(
            flag_value(&dangling, "--seed"),
            Err(FaircrowdError::Usage { .. })
        ));
    }

    #[test]
    fn sweep_rejects_flags_it_would_ignore() {
        for args in [
            argv(&["--opaque"]),
            argv(&["--workers", "10"]),
            argv(&["--scenario", "spam_campaign"]),
            argv(&["--enforce", "parity"]),
        ] {
            let err = sweep(&args).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{args:?}");
            assert!(err.to_string().contains("--grid"), "{err}");
        }
    }

    #[test]
    fn sweep_rejects_a_bare_positional_grid_spec() {
        // Forgetting `--grid` must not silently sweep the default grid.
        let err = sweep(&argv(&["seed=1..4;enforce=parity"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(
            err.to_string().contains("seed=1..4;enforce=parity"),
            "{err}"
        );
        assert!(err.to_string().contains("--grid"), "{err}");
        // Flag values are not positionals.
        let err = sweep(&argv(&["--jobs", "2", "extra"])).unwrap_err();
        assert!(err.to_string().contains("`extra`"), "{err}");
    }

    #[test]
    fn sweep_shard_flags_validate() {
        // --shard without --out has nowhere to persist cells.
        let err = sweep(&argv(&["--shard", "1/2"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("--out"), "{err}");
        // --format belongs to merge, not to a shard run.
        let err = sweep(&argv(&[
            "--shard", "1/2", "--out", "p.json", "--format", "json",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("merge"), "{err}");
        // Malformed shard specs name the expected form.
        let err = sweep(&argv(&["--shard", "3/2", "--out", "p.json"])).unwrap_err();
        assert!(err.to_string().contains("i/N"), "{err}");
        // --out without --shard is not an export flag here.
        let err = sweep(&argv(&["--out", "p.json"])).unwrap_err();
        assert!(err.to_string().contains("--shard"), "{err}");
    }

    #[test]
    fn merge_rejects_empty_and_unknown_flags() {
        let err = merge_cmd(&argv(&[])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("merge <part.json>"), "{err}");
        let err = merge_cmd(&argv(&["p.json", "--jobs", "2"])).unwrap_err();
        assert!(err.to_string().contains("--jobs"), "{err}");
        let err = merge_cmd(&argv(&["p.json", "--format", "yaml"])).unwrap_err();
        let text = err.to_string();
        // Either the missing file or the bad format may surface first;
        // both must be usage-shaped, never a panic.
        assert!(text.contains("yaml") || text.contains("p.json"), "{text}");
    }

    #[test]
    fn default_market_is_the_catalog_baseline() {
        let config = scenario_from_flags(&[]).unwrap();
        assert_eq!(config, scenarios::get("baseline").unwrap());
        // --workers only resizes the baseline's population.
        let config = scenario_from_flags(&argv(&["--workers", "12"])).unwrap();
        assert_eq!(config.workers[0].count, 12);
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
        let args = argv(&["--scenario", "worker_churn"]);
        let config = scenario_from_flags(&args).unwrap();
        assert_eq!(config.rounds, 60);
        // …and explicit flags still win.
        let args = argv(&[
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
        let args = argv(&["--scenario", "atlantis"]);
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
        let config = scenario_from_flags(&argv(&["--strategy", "super_turker"])).unwrap();
        assert_eq!(config.strategy, StrategyChoice::SuperTurker);
        // …hyphen spellings canonicalise like policies/scenarios…
        let config = scenario_from_flags(&argv(&[
            "--scenario",
            "baseline",
            "--strategy",
            "Super-Turker",
        ]))
        .unwrap();
        assert_eq!(config.strategy, StrategyChoice::SuperTurker);
        // …a strategic scenario's baked-in profile cannot be overridden…
        let err = scenario_from_flags(&argv(&[
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
        let err = scenario_from_flags(&argv(&["--strategy", "chaos_monkey"])).unwrap_err();
        match err {
            FaircrowdError::UnknownStrategy { available, .. } => {
                assert_eq!(available.len(), strategy::NAMES.len());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn converge_cmd_validates_flags_and_runs() {
        let err = converge_cmd(&argv(&["--trace", "t.json"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err:?}");
        let err = converge_cmd(&argv(&["--live"])).unwrap_err();
        assert!(err.to_string().contains("faircrowd run"), "{err}");
        let err = converge_cmd(&argv(&["--tolerance", "-1", "--rounds", "6"])).unwrap_err();
        assert!(err.to_string().contains("tolerance"), "{err}");
        let err = converge_cmd(&argv(&["--max-iters", "0"])).unwrap_err();
        assert!(
            err.to_string().contains("expected a positive integer"),
            "{err}"
        );
        // A strategic scenario settles end to end through the verb.
        converge_cmd(&argv(&["--scenario", "super_turkers", "--rounds", "8"])).unwrap();
    }

    #[test]
    fn sweep_accepts_a_strategy_default_flag() {
        // The flag acts as an axis default, like --seed/--rounds; a
        // typo errors before any cell runs.
        let err = sweep(&argv(&["--strategy", "chaos_monkey"])).unwrap_err();
        assert!(
            matches!(err, FaircrowdError::UnknownStrategy { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn repeated_enforce_flags_accumulate() {
        let args = argv(&["--enforce", "parity", "--rounds", "6", "--enforce", "grace"]);
        let pipeline = pipeline_from_flags(&args, true).unwrap();
        let result = pipeline.run().unwrap();
        assert_eq!(result.enforced.unwrap().applied.len(), 2);
    }

    #[test]
    fn audit_rejects_enforce_instead_of_ignoring_it() {
        let args = argv(&["--enforce", "parity"]);
        let err = pipeline_from_flags(&args, false).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        assert!(err.to_string().contains("faircrowd run"));
    }

    #[test]
    fn bad_numeric_flags_are_usage_errors() {
        let args = argv(&["--seed", "pony"]);
        assert!(matches!(
            scenario_from_flags(&args),
            Err(FaircrowdError::Usage { .. })
        ));
    }

    #[test]
    fn export_requires_out_and_replay_requires_a_path() {
        let err = export_cmd(&argv(&["--rounds", "6"])).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        let err = replay_cmd(&[]).unwrap_err();
        assert!(err.to_string().contains("replay <trace-file>"), "{err}");
    }

    #[test]
    fn trace_flag_rejects_conflicts_instead_of_ignoring_them() {
        // `run` never replays…
        let err = run_cmd(&argv(&["--trace", "t.json"]), true).unwrap_err();
        assert!(matches!(err, FaircrowdError::Usage { .. }), "{err}");
        // …and a recorded trace can't be combined with market flags…
        let err = run_cmd(&argv(&["--trace", "t.json", "--seed", "7"]), false).unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
        assert!(err.to_string().contains("--trace"), "{err}");
        // …or with --enforce (repairs can't apply to a finished run) —
        // rejected, not silently dropped.
        let err = run_cmd(&argv(&["--trace", "t.json", "--enforce", "parity"]), false).unwrap_err();
        assert!(err.to_string().contains("--enforce"), "{err}");
        // `replay` takes exactly one path; extras are rejected too.
        let err = replay_cmd(&argv(&["t.json", "--seed", "7"])).unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
        let err = replay_cmd(&argv(&["--trace", "t.json", "extra"])).unwrap_err();
        assert!(err.to_string().contains("extra"), "{err}");
    }

    #[test]
    fn export_then_audit_trace_roundtrips() {
        let path = std::env::temp_dir().join("fc_cli_roundtrip.trace.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "8",
            "--out",
            &path_str,
        ]))
        .unwrap();
        run_cmd(&argv(&["--trace", &path_str]), false).unwrap();
        replay_cmd(&argv(&[&path_str])).unwrap();
        watch_cmd(&argv(&[&path_str, "--once"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_live_streams_and_reports() {
        run_cmd(&argv(&["--rounds", "6", "--workers", "8", "--live"]), true).unwrap();
        // --live cannot combine with --enforce (repairs re-simulate)…
        let err = run_cmd(
            &argv(&["--live", "--enforce", "parity", "--rounds", "6"]),
            true,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
        // …nor with `audit` (which replays or simulates a finished log).
        let err = run_cmd(&argv(&["--live", "--rounds", "6"]), false).unwrap_err();
        assert!(err.to_string().contains("watch"), "{err}");
        // …and a recorded trace is watched, not run live.
        let err = run_cmd(&argv(&["--trace", "t.jsonl", "--live"]), false).unwrap_err();
        assert!(err.to_string().contains("--live"), "{err}");
    }

    #[test]
    fn watch_arguments_are_validated() {
        let err = watch_cmd(&[]).unwrap_err();
        assert!(err.to_string().contains("watch <trace.jsonl>"), "{err}");
        let err = watch_cmd(&argv(&["a.jsonl", "b.jsonl"])).unwrap_err();
        assert!(err.to_string().contains("exactly"), "{err}");
        let err = watch_cmd(&argv(&["a.jsonl", "--follow-forever"])).unwrap_err();
        assert!(err.to_string().contains("--follow-forever"), "{err}");
        let err = watch_cmd(&argv(&["/no/such/fc_trace.jsonl", "--once"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    }

    #[test]
    fn watch_rejects_whole_file_json_with_guidance() {
        let path = std::env::temp_dir().join("fc_cli_watch_wrongformat.trace.json");
        let path_str = path.to_str().unwrap().to_owned();
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "6",
            "--out",
            &path_str,
        ]))
        .unwrap();
        let err = watch_cmd(&argv(&[&path_str, "--once"])).unwrap_err();
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
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "6",
            "--out",
            &path_str,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let target = lines
            .iter()
            .position(|l| l.contains("\"seq\":3,"))
            .expect("an event with seq 3 exists");
        lines[target] = lines[target].replacen("\"seq\":3,", "\"seq\":9,", 1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = watch_cmd(&argv(&[&path_str, "--once"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("line {}", target + 1)), "{msg}");
        assert!(msg.contains("seq 9"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_is_a_clean_error() {
        let err = replay_cmd(&argv(&["/no/such/fc_trace.json"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    }

    #[test]
    fn positive_flag_accepts_counts_and_rejects_the_rest() {
        assert_eq!(positive_flag(&[], "--jobs", 4).unwrap(), 4);
        let args = argv(&["--jobs", "8"]);
        assert_eq!(positive_flag(&args, "--jobs", 4).unwrap(), 8);
        // Zero, negatives and non-numerics all get the same wording.
        for bad in ["0", "-3", "many", "1.5", ""] {
            let args = argv(&["--jobs", bad]);
            let err = positive_flag(&args, "--jobs", 4).unwrap_err();
            assert!(matches!(err, FaircrowdError::Usage { .. }), "{bad}");
            assert!(
                err.to_string().contains("expected a positive integer"),
                "{err}"
            );
        }
        // A dangling flag is still the flag_value error.
        let err = positive_flag(&argv(&["--jobs"]), "--jobs", 4).unwrap_err();
        assert!(err.to_string().contains("requires a value"), "{err}");
    }

    #[test]
    fn count_flags_error_uniformly_across_verbs() {
        let err = sweep(&argv(&["--jobs", "0"])).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
        let err = watch_cmd(&argv(&["t.jsonl", "--idle-ms", "soon"])).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
        let err = serve_cmd(&argv(&["/tmp", "--checkpoint-every", "0"])).unwrap_err();
        assert!(err.to_string().contains("expected a positive integer"));
    }

    #[test]
    fn serve_arguments_are_validated() {
        let err = serve_cmd(&[]).unwrap_err();
        assert!(err.to_string().contains("serve <dir>"), "{err}");
        let err = serve_cmd(&argv(&["a", "b"])).unwrap_err();
        assert!(err.to_string().contains("exactly"), "{err}");
        let err = serve_cmd(&argv(&["a", "--daemonize"])).unwrap_err();
        assert!(err.to_string().contains("--daemonize"), "{err}");
        let err = serve_cmd(&argv(&["/no/such/fc_serve_dir"])).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
        // A directory with no .jsonl streams is named, not silently idle.
        let empty = std::env::temp_dir().join("fc_cli_serve_empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = serve_cmd(&argv(&[empty.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("no `<market>.jsonl`"), "{err}");
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn watch_checkpoint_every_requires_checkpoint() {
        let err = watch_cmd(&argv(&["t.jsonl", "--checkpoint-every", "5"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint FILE"), "{err}");
    }

    #[test]
    fn serve_audits_exported_markets_end_to_end() {
        let dir = std::env::temp_dir().join(format!("fc_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (market, seed) in [("alpha", "1"), ("beta", "2")] {
            let out = dir.join(format!("{market}.jsonl"));
            export_cmd(&argv(&[
                "--rounds",
                "6",
                "--workers",
                "8",
                "--seed",
                seed,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let ckpt = dir.join("ckpts");
        let args = argv(&[
            dir.to_str().unwrap(),
            "--once",
            "--jobs",
            "2",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]);
        serve_cmd(&args).unwrap();
        // The cadence wrote a checkpoint per market; a rerun resumes
        // from them (end-of-stream state) and still closes cleanly.
        assert!(ckpt.join("alpha.checkpoint").exists());
        assert!(ckpt.join("beta.checkpoint").exists());
        serve_cmd(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_checkpoint_restart_completes_the_stream() {
        let dir = std::env::temp_dir().join(format!("fc_cli_watchck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("m.jsonl");
        export_cmd(&argv(&[
            "--rounds",
            "6",
            "--workers",
            "8",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let full = std::fs::read_to_string(&trace_path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let cut = lines.len() * 2 / 3;
        let half_path = dir.join("half.jsonl");
        std::fs::write(&half_path, format!("{}\n", lines[..cut].join("\n"))).unwrap();
        let ck = dir.join("m.checkpoint");
        // First life over the truncated stream writes a checkpoint…
        watch_cmd(&argv(&[
            half_path.to_str().unwrap(),
            "--once",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]))
        .unwrap();
        assert!(ck.exists());
        // …and the restart over the complete stream resumes from it.
        std::fs::write(&half_path, &full).unwrap();
        watch_cmd(&argv(&[
            half_path.to_str().unwrap(),
            "--once",
            "--checkpoint",
            ck.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
