//! The faircrowd benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay|serve|frontier --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop: one caller waits for each verdict
//! before it sends the next input. Inputs are generated from `--seed`;
//! the program only ever sees the generated inputs. Every timed verdict
//! is checked against a reference computed outside the timed phase.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it repeats the workload through the benchmark's own span
//! recorder and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for every metric's definition.

mod frontier;
mod metrics;
mod replay;
mod serve;
mod stats;
mod trace;

use metrics::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Worker threads of a parallel configuration: the sweep's workers in
/// `frontier`, and the daemon shards `serve`'s traced run compares its
/// timed single shard against. The axiom fan-out in `replay` sizes
/// itself from the host.
pub const PARALLEL_JOBS: usize = 2;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The small test profile: same code paths, tiny inputs.
    pub tiny: bool,
    /// Test hook: corrupt one reference so every check against it fails.
    pub corrupt_reference: bool,
    /// Scratch directory for this run's files.
    pub work: PathBuf,
}

impl Ctx {
    /// A per-input seed derived from the workload seed.
    pub fn seed_for(&self, i: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
            >> 16
    }

    /// Keep measuring while under the time budget, or until `min` samples.
    pub fn keep_going(&self, t0: Instant, done: usize, min: usize) -> bool {
        done < min || stats::secs(t0) < self.seconds
    }
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric { name, value, n });
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Replay,
    Serve,
    Frontier,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt_reference: bool,
}

const USAGE: &str = "usage: perfbench --workload replay|serve|frontier --seed N --seconds S \
                     --trace 0|1 [--tiny] [--corrupt-reference]";

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let raw: Vec<String> = raw.collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut corrupt_reference = false;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let mut value = || {
            i += 1;
            raw.get(i)
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "replay" => Workload::Replay,
                    "serve" => Workload::Serve,
                    "frontier" => Workload::Frontier,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed".to_owned())?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds".to_owned())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--tiny" => tiny = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
        corrupt_reference,
    })
}

/// Output of a helper program, first line trimmed, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_owned()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = match args.workload {
        Workload::Replay => "replay",
        Workload::Serve => "serve",
        Workload::Frontier => "frontier",
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# workload={name} seed={} seconds={} trace={} profile={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!(
        "# host: available_parallelism={cores} rustc=\"{}\" rev={} threads: frontier sweep \
         {PARALLEL_JOBS}, serve daemon {} (traced run also {PARALLEL_JOBS}), replay fan-out {cores}",
        probe("rustc", &["-V"]),
        probe("git", &["rev-parse", "--short=12", "HEAD"]),
        serve::JOBS,
    );
    if PARALLEL_JOBS > cores {
        println!(
            "# WARNING: configured with {PARALLEL_JOBS} threads on {cores} core(s); timings oversubscribe"
        );
    }

    let root = PathBuf::from(".bench_work");
    let work = WorkDir(root.join(format!("{name}-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        corrupt_reference: args.corrupt_reference,
        work: work.0.clone(),
    };
    let result = match (args.workload, args.trace) {
        (Workload::Replay, false) => replay::run(&ctx),
        (Workload::Replay, true) => replay::run_traced(&ctx),
        (Workload::Serve, false) => serve::run(&ctx),
        (Workload::Serve, true) => serve::run_traced(&ctx),
        (Workload::Frontier, false) => frontier::run(&ctx),
        (Workload::Frontier, true) => frontier::run_traced(&ctx),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut self_check_ok = true;
    if let Some(tracer) = &outcome.tracer {
        for (root_id, dur, sum) in tracer.root_budgets() {
            if sum > dur {
                self_check_ok = false;
                println!("# TRACE ERROR: self times under root span {root_id} sum to {sum} ns > {dur} ns");
            }
        }
        let spans_dir = root.join("spans");
        let path = spans_dir.join(format!("{name}-seed{}.jsonl", args.seed));
        match std::fs::create_dir_all(&spans_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("# spans: not written ({e})"),
        }
    }
    drop(work);
    // Leave no empty scratch root behind (it stays when spans were kept).
    let _ = std::fs::remove_dir(&root);

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut got: BTreeMap<&str, &Metric> = BTreeMap::new();
    for m in &outcome.metrics {
        got.insert(m.name, m);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut json = String::new();
    for (i, spec) in wanted.iter().enumerate() {
        let (value, n) = match got.get(spec.name) {
            Some(m) => (m.value, m.n),
            None if args.trace => (0.0, 0),
            None => {
                eprintln!("perfbench: {name} did not measure `{}`", spec.name);
                return ExitCode::FAILURE;
            }
        };
        // `-0.0` (an empty float sum) prints as plain 0.
        let value = value + 0.0;
        if !value.is_finite() {
            eprintln!("perfbench: {name}: `{}` is not finite", spec.name);
            return ExitCode::FAILURE;
        }
        let origin = if n == 0 {
            "  (not on this workload's path)"
        } else {
            ""
        };
        println!(
            "metric {:<34} {value:>16.6} {:<9} n={n}{origin}",
            spec.name, spec.unit
        );
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# fail_ratio {fail_ratio} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    outcome.attempted = outcome.attempted.max(1);
    let correct = outcome.failed == 0 && self_check_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (7, 10.0, true, false));
        assert!(args(&["--workload", "serve", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn derived_seeds_differ_per_input_and_per_workload_seed() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 1.0,
            tiny: true,
            corrupt_reference: false,
            work: PathBuf::new(),
        };
        assert_ne!(ctx(1).seed_for(0), ctx(1).seed_for(1));
        assert_ne!(ctx(1).seed_for(0), ctx(2).seed_for(0));
        assert_eq!(ctx(3).seed_for(5), ctx(3).seed_for(5));
    }
}
