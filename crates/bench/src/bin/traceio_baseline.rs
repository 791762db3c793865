//! Writes the trace-I/O and sweep-cache perf baseline (`BENCH_traceio.json`).
//!
//! Two workloads the trace persistence PR opened, timed through the
//! release binary and checked into the repo root so the perf trajectory
//! is tracked in review:
//!
//! 1. **Export/load throughput** — encode and decode+validate the
//!    `baseline` catalog trace at scale 1 / 4 in all three formats
//!    (whole-file JSON, line-oriented JSONL and the binary `.fcb`
//!    form), reported in events/s and MB/s. Acceptance: decoding the
//!    *same trace* from binary must be ≥5× faster than from JSON at
//!    scale 4 (equivalently, ≥5× the JSON row in decode events/s —
//!    MB/s-of-own-bytes would reward verbosity, since the `.fcb` file
//!    is ~14× smaller than the JSON one).
//! 2. **Cached vs uncached sweeps** — a grid with a stacked `enforce`
//!    axis run through `faircrowd::sweep` on its shared final runs
//!    ("cached") and on the per-case `Pipeline::run` oracle
//!    ("uncached"). Enforced cells simulate only their repaired config,
//!    so the cached sweep skips (stacks − 1) baseline simulations per
//!    cell and the baseline audit of enforced cells, which the sweep
//!    never reads. Outputs are asserted byte-identical before any
//!    number is reported.
//!
//! ```text
//! cargo run --release --bin traceio_baseline > BENCH_traceio.json
//! ```
//!
//! Timings are medians over repeated runs on whatever machine executes
//! this; the hardware-stable numbers are the *ratios*.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::sweep::{self, SweepGrid};
use faircrowd::Pipeline;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

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

fn main() {
    let mut io_rows = String::new();
    // Pure decode wall-clock per (scale index, format index) for the
    // acceptance ratio asserted below — same trace, so the ratio is
    // exactly the events/s ratio.
    let mut pure_decode_ms = [[0.0f64; 3]; 2];
    for (i, scale) in [1.0f64, 4.0].into_iter().enumerate() {
        let pipeline = Pipeline::new()
            .scenario_name("baseline")
            .expect("baseline is in the catalog")
            .configure(|c| *c = c.at_scale(scale));
        let trace = pipeline.simulate().expect("baseline simulates");
        let events = trace.events.len();

        for (j, format) in [TraceFormat::Json, TraceFormat::Jsonl, TraceFormat::Binary]
            .into_iter()
            .enumerate()
        {
            let encoded = persist::encode_bytes(&trace, format);
            // The roundtrip must be exact before throughput means anything.
            let back = persist::decode_bytes(&encoded).expect("decode");
            assert_eq!(back, trace, "lossy codec at scale {scale}");
            back.ensure_valid().expect("decoded trace validates");

            let bytes = encoded.len();
            let runs = if scale > 1.0 { 7 } else { 11 };
            let encode_ms = median_ms(runs, || {
                black_box(persist::encode_bytes(black_box(&trace), format));
            });
            let decode_ms = median_ms(runs, || {
                let t = persist::decode_bytes(black_box(&encoded)).expect("decode");
                t.ensure_valid().expect("validate");
                black_box(t);
            });
            // Codec-only time, without the format-independent
            // referential-integrity pass, for the acceptance ratio.
            let decoded_ms = median_ms(runs, || {
                black_box(persist::decode_bytes(black_box(&encoded)).expect("decode"));
            });
            pure_decode_ms[i][j] = decoded_ms;
            let label = match format {
                TraceFormat::Json => "json",
                TraceFormat::Jsonl => "jsonl",
                TraceFormat::Binary => "binary",
            };
            if i > 0 || j > 0 {
                io_rows.push_str(",\n");
            }
            let mb = bytes as f64 / 1e6;
            let _ = write!(
                io_rows,
                "    {{\"scale\": {scale}, \"format\": \"{label}\", \"events\": {events}, \
                 \"bytes\": {bytes}, \"encode_ms\": {encode_ms:.3}, \"decode_ms\": {decode_ms:.3}, \
                 \"pure_decode_ms\": {decoded_ms:.3}, \
                 \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \
                 \"encode_events_s\": {:.0}, \"decode_events_s\": {:.0}}}",
                mb / (encode_ms / 1e3),
                mb / (decode_ms / 1e3),
                events as f64 / (encode_ms / 1e3),
                events as f64 / (decode_ms / 1e3),
            );
        }
    }

    // Acceptance floor for the binary format: at the larger scale,
    // decoding the same trace from `.fcb` must be ≥5× faster than from
    // JSON — a wall-clock (hence events/s) ratio, the measure a dense
    // format can honestly win on. A ratio of decode_mb_s values would be
    // nonsense here: the binary file is ~14× smaller, so every one of
    // its bytes carries ~14× more trace and MB/s-of-own-bytes punishes
    // exactly the density the format exists for.
    let binary_vs_json_decode = pure_decode_ms[1][0] / pure_decode_ms[1][2];
    assert!(
        binary_vs_json_decode >= 5.0,
        "binary decode must beat JSON decode by >=5x on the same trace at scale 4, \
         got {binary_vs_json_decode:.2}"
    );

    // Sweep: 2 seeds × 4 enforcement stacks over the baseline scenario
    // at scale 4. Uncached: 8 baseline simulations (+6 enforced
    // re-simulations, which repair the config and *must* re-run) and 14
    // audits. Cached: 2 baseline simulations (+6) and 8 audits —
    // enforced cells skip the baseline simulation and audit nobody
    // reads.
    let grid = SweepGrid::parse(
        "scenario=baseline;seed=0..2;scale=4;enforce=none,transparency,grace,transparency+grace",
    )
    .expect("grid parses");
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cached_result = sweep::run_grid_opts(&grid, jobs, true).expect("cached sweep");
    let uncached_result = sweep::run_grid_opts(&grid, jobs, false).expect("uncached sweep");
    assert_eq!(
        cached_result.to_json(),
        uncached_result.to_json(),
        "cache must not change sweep output"
    );

    let sweep_runs = 5;
    let cached_ms = median_ms(sweep_runs, || {
        black_box(sweep::run_grid_opts(black_box(&grid), jobs, true).expect("sweep"));
    });
    let uncached_ms = median_ms(sweep_runs, || {
        black_box(sweep::run_grid_opts(black_box(&grid), jobs, false).expect("sweep"));
    });

    println!("{{");
    println!("  \"bench\": \"traceio_baseline\",");
    println!("  \"trace_io\": [");
    println!("{io_rows}");
    println!("  ],");
    println!(
        "  \"binary_vs_json_decode_speedup\": {binary_vs_json_decode:.2}, \
         \"binary_floor\": 5.0,"
    );
    println!("  \"sweep_cache\": {{");
    println!(
        "    \"grid\": \"scenario=baseline;seed=0..2;scale=4;\
         enforce=none,transparency,grace,transparency+grace\", \
         \"cases\": {}, \"jobs\": {jobs},",
        cached_result.cases.len()
    );
    println!(
        "    \"uncached_ms\": {uncached_ms:.1}, \"cached_ms\": {cached_ms:.1}, \
         \"speedup\": {:.2},",
        uncached_ms / cached_ms
    );
    println!("    \"outputs_byte_identical\": true");
    println!("  }}");
    println!("}}");
}
