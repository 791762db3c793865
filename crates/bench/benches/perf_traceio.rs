//! P6 — Trace persistence throughput and the sweep's lean final runs.
//!
//! Criterion view of the two workloads `traceio_baseline` pins in
//! `BENCH_traceio.json`: encoding/decoding the baseline catalog trace
//! in both schema formats, and an enforcement-axis sweep on its shared
//! final runs vs the per-case `Pipeline::run` oracle (enforced cells
//! skip the unread baseline; outputs are byte-identical either way —
//! only wall-clock moves).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::sweep::{run_grid_opts, SweepGrid};
use faircrowd::Pipeline;
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let trace = Pipeline::new()
        .scenario_name("baseline")
        .expect("catalog name")
        .simulate()
        .expect("baseline simulates");
    let mut group = c.benchmark_group(format!("trace_codec_{}_events", trace.events.len()));
    group.sample_size(20);
    for (label, format) in [("json", TraceFormat::Json), ("jsonl", TraceFormat::Jsonl)] {
        let text = persist::encode(&trace, format);
        group.bench_with_input(BenchmarkId::new("encode", label), &format, |b, &format| {
            b.iter(|| black_box(persist::encode(black_box(&trace), format)));
        });
        group.bench_with_input(BenchmarkId::new("decode", label), &text, |b, text| {
            b.iter(|| black_box(persist::decode(black_box(text)).expect("decode")));
        });
    }
    group.finish();
}

fn bench_sweep_cache(c: &mut Criterion) {
    let grid = SweepGrid::parse("scenario=baseline;seed=0..2;enforce=none,transparency,grace")
        .expect("grid parses");
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut group = c.benchmark_group("sweep_enforce_axis");
    group.sample_size(10);
    for (label, reuse) in [("uncached", false), ("cached", true)] {
        group.bench_with_input(BenchmarkId::new("sim", label), &reuse, |b, &reuse| {
            b.iter(|| {
                let result = run_grid_opts(black_box(&grid), jobs, reuse).expect("sweep runs");
                black_box(result.groups.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_sweep_cache);
criterion_main!(benches);
