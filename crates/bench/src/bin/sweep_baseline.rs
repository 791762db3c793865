//! Writes the sharded-sweep perf baseline (`BENCH_sweep.json`).
//!
//! Measures the four claims the shard engine makes, each asserted
//! in-binary before a number is printed:
//!
//! * **merge is byte-identical** — every grid is swept single-process
//!   (in-process `run_grid`) and as 2 / 4 / 8 *separate OS processes*
//!   (the real `faircrowd sweep --shard i/N --out part` binary, spawned
//!   concurrently); the merged parts must render the same table, JSON
//!   and CSV bytes as the single-process sweep;
//! * **resume beats cold** — a part truncated to ~80 % of its records
//!   (what a SIGKILL leaves) must re-run only the missing tail: resume
//!   is asserted ≥ 2× faster than the cold shard run;
//! * **the lean path holds under sharding** — on the stacked-enforce
//!   grid each enforced cell simulates only its repaired config, never
//!   the unread baseline: summed 2-shard runs on the sweep's shared
//!   final runs are asserted ≥ 1.5× faster than the per-case
//!   `Pipeline::run` oracle (`reuse_sim: false`);
//! * **scale** — wall-clock for the shard fan-out at 2 / 4 / 8
//!   processes on an 8-cell stacked-enforce grid and a 1000-cell grid
//!   (ratios are hardware-honest; on a 1-core host the fan-out buys
//!   durability, not wall-clock).
//!
//! ```text
//! cargo build --release && \
//! cargo run --release --bin sweep_baseline > BENCH_sweep.json
//! ```
//!
//! The shard runs exec the sibling `faircrowd` binary, so the release
//! CLI must be built first.

use faircrowd::sweep::shard::{merge_paths, run_shard_opts, ShardSpec};
use faircrowd::sweep::{run_grid, SweepGrid, SweepResult};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// 8 cells: 2 seeds × 4 enforcement stacks — the grid whose enforce
/// axis exercises the lean enforced path hardest.
const STACKED: &str =
    "scenario=baseline;seed=0..2;scale=4;enforce=none,transparency,grace,transparency+grace";

/// 1000 cells: 250 seeds × 2 policies × 2 stacks of a cheap market.
const WIDE: &str =
    "scenario=baseline;policy=round_robin,kos;seed=0..250;rounds=8;enforce=none,grace";

/// Median wall-clock milliseconds of `runs` executions of `f`.
fn median_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The `faircrowd` CLI next to this bench binary.
fn cli_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let cli = me
        .parent()
        .expect("bench binary has a parent dir")
        .join(format!("faircrowd{}", std::env::consts::EXE_SUFFIX));
    assert!(
        cli.is_file(),
        "{} not found — build the CLI first: cargo build --release",
        cli.display()
    );
    cli
}

/// A scratch directory under the system temp dir, wiped on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc_sweep_baseline_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawn `shards` concurrent `faircrowd sweep --shard i/N` processes,
/// wait for all, and return (wall ms, part paths).
fn shard_processes(cli: &Path, grid: &str, shards: usize, dir: &Path) -> (f64, Vec<PathBuf>) {
    let paths: Vec<PathBuf> = (1..=shards)
        .map(|i| dir.join(format!("part-{i}.json")))
        .collect();
    let t0 = Instant::now();
    let children: Vec<_> = paths
        .iter()
        .enumerate()
        .map(|(i, path)| {
            Command::new(cli)
                .args([
                    "sweep",
                    "--grid",
                    grid,
                    "--shard",
                    &format!("{}/{shards}", i + 1),
                    "--out",
                ])
                .arg(path)
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn shard process")
        })
        .collect();
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait for shard process");
        assert!(
            status.success(),
            "shard {}/{shards} failed: {status}",
            i + 1
        );
    }
    (t0.elapsed().as_secs_f64() * 1e3, paths)
}

/// Assert the merged parts render exactly the single-process bytes.
fn assert_byte_identical(merged: &SweepResult, single: &SweepResult, what: &str) {
    assert_eq!(
        merged.render_table(),
        single.render_table(),
        "{what}: table"
    );
    assert_eq!(merged.to_json(), single.to_json(), "{what}: json");
    assert_eq!(merged.to_csv(), single.to_csv(), "{what}: csv");
}

fn main() {
    let cli = cli_binary();
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut grid_rows = String::new();

    for (gi, (name, spec, single_runs)) in [("stacked_enforce", STACKED, 5), ("wide_1000", WIDE, 3)]
        .into_iter()
        .enumerate()
    {
        let grid = SweepGrid::parse(spec).expect("bench grid parses");
        let cells = grid.expand().expect("bench grid expands").len();
        let single = run_grid(&grid, jobs).expect("single-process sweep");
        let single_ms = median_ms(single_runs, || {
            black_box(run_grid(black_box(&grid), jobs).expect("sweep"));
        });

        let mut shard_rows = String::new();
        for (si, shards) in [2usize, 4, 8].into_iter().enumerate() {
            let dir = scratch(&format!("{name}_{shards}"));
            let (wall_ms, paths) = shard_processes(&cli, spec, shards, &dir);
            let merged = merge_paths(&paths).expect("merge parts");
            assert_byte_identical(&merged, &single, &format!("{name} × {shards} shards"));
            let merge_ms = median_ms(3, || {
                black_box(merge_paths(black_box(&paths)).expect("merge"));
            });
            if si > 0 {
                shard_rows.push_str(",\n");
            }
            let _ = write!(
                shard_rows,
                "        {{\"shards\": {shards}, \"wall_ms\": {wall_ms:.1}, \
                 \"merge_ms\": {merge_ms:.2}, \"merged_byte_identical\": true}}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }

        if gi > 0 {
            grid_rows.push_str(",\n");
        }
        let _ = write!(
            grid_rows,
            "    {{\"name\": \"{name}\", \"grid\": \"{spec}\", \"cells\": {cells}, \
             \"groups\": {}, \"single_process_ms\": {single_ms:.1},\n      \"shard_runs\": [\n\
             {shard_rows}\n      ]}}",
            single.cases.len()
        );
    }

    // Resume-after-kill: complete shard 1/2 of the wide grid once, keep
    // the first ~80 % of its records (a SIGKILL survivor), and compare
    // re-running from that file against running from nothing.
    let wide = SweepGrid::parse(WIDE).expect("grid parses");
    let spec = ShardSpec { index: 1, count: 2 };
    let dir = scratch("resume");
    let part = dir.join("part.json");
    let full = run_shard_opts(&wide, spec, &part, jobs, true, None).expect("full shard run");
    let text = std::fs::read_to_string(&part).expect("read part");
    let line_ends: Vec<usize> = text
        .char_indices()
        .filter(|(_, c)| *c == '\n')
        .map(|(i, _)| i + 1)
        .collect();
    let durable = (full.shard_cells * 4) / 5;
    let truncated = text[..line_ends[durable]].to_owned();

    let cold_ms = median_ms(3, || {
        std::fs::remove_file(&part).ok();
        black_box(run_shard_opts(&wide, spec, &part, jobs, true, None).expect("cold run"));
    });
    let resume_ms = median_ms(3, || {
        std::fs::write(&part, &truncated).expect("restore truncated part");
        let run = run_shard_opts(&wide, spec, &part, jobs, true, None).expect("resume run");
        assert_eq!(run.resumed, durable, "resume must skip every durable cell");
        black_box(run);
    });
    std::fs::remove_dir_all(&dir).ok();
    let resume_speedup = cold_ms / resume_ms;
    assert!(
        resume_speedup >= 2.0,
        "acceptance: resuming a part with 80% of its cells durable must be ≥ 2× \
         faster than a cold run (measured {resume_speedup:.1}×)"
    );

    // Lean path under sharding: sweep the stacked-enforce grid as 2
    // in-process shard runs, on shared final runs and on the per-case
    // oracle. Enforced cells skip the baseline simulation and audit the
    // oracle pays for.
    let stacked = SweepGrid::parse(STACKED).expect("grid parses");
    let dir = scratch("cache");
    let timed = |reuse: bool| {
        median_ms(5, || {
            for index in 1..=2usize {
                let part = dir.join(format!("part-{index}.json"));
                std::fs::remove_file(&part).ok();
                let spec = ShardSpec { index, count: 2 };
                black_box(
                    run_shard_opts(&stacked, spec, &part, jobs, reuse, None).expect("shard run"),
                );
            }
        })
    };
    let cached_ms = timed(true);
    let uncached_ms = timed(false);
    std::fs::remove_dir_all(&dir).ok();
    let cache_speedup = uncached_ms / cached_ms;
    assert!(
        cache_speedup >= 1.5,
        "acceptance: shared final runs must keep a ≥ 1.5× win over the per-case \
         oracle on the stacked-enforce grid (measured {cache_speedup:.2}×)"
    );

    println!("{{");
    println!("  \"bench\": \"sweep_shard\",");
    println!("  \"unit\": \"ms (median)\",");
    println!("  \"host_jobs\": {jobs},");
    println!(
        "  \"note\": \"shard_runs spawn that many concurrent `faircrowd sweep --shard` OS \
         processes and include process startup; merged_byte_identical compares the merged \
         parts' table, JSON and CSV against the in-process single-run bytes; resume keeps \
         80% of a completed part and re-runs only the tail; cache times 2 in-process shard \
         runs on shared final runs vs the per-case Pipeline::run oracle\","
    );
    println!("  \"grids\": [");
    println!("{grid_rows}");
    println!("  ],");
    println!(
        "  \"resume\": {{\"grid\": \"wide_1000\", \"shard\": \"1/2\", \"shard_cells\": {}, \
         \"durable_cells\": {durable}, \"cold_ms\": {cold_ms:.1}, \
         \"resume_ms\": {resume_ms:.1}, \"speedup\": {resume_speedup:.1}, \"floor\": 2.0}},",
        full.shard_cells
    );
    println!(
        "  \"cache\": {{\"grid\": \"stacked_enforce\", \"shards\": 2, \
         \"uncached_ms\": {uncached_ms:.1}, \"cached_ms\": {cached_ms:.1}, \
         \"speedup\": {cache_speedup:.2}, \"floor\": 1.5}}"
    );
    println!("}}");
}
