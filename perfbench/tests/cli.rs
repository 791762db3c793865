//! The benchmark's own tests: the binary on its tiny profile.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use faircrowd_model::json::Json;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["replay", "serve", "frontier"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A scratch directory per test, inside the build's own target dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

struct Run {
    stdout: String,
    result: Json,
}

/// Run one tiny-profile workload; the last stdout line must be the
/// result object.
fn run(dir: &PathBuf, workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output").to_owned();
    let result = Json::parse(&last).unwrap_or_else(|e| panic!("last line is JSON ({e}): {last}"));
    Run { stdout, result }
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let dir = scratch("metrics");
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let run = run(&dir, workload, trace, &[]);
            assert!(
                run.stdout.contains("# host: available_parallelism="),
                "host header"
            );
            let r = &run.result;
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}: {}",
                run.stdout
            );
            assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
            assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = r
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let wanted = declared(section);
            assert_eq!(
                printed,
                wanted.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
                "{workload} trace={trace}"
            );
            for ((name, unit), (_, m)) in wanted.iter().zip(metrics) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is never 0");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_reference_makes_fail_ratio_nonzero() {
    let dir = scratch("corrupt");
    for workload in WORKLOADS {
        let run = run(&dir, workload, 0, &["--corrupt-reference"]);
        let failed = run
            .result
            .get("failed")
            .and_then(Json::as_u64)
            .expect("failed");
        assert!(
            failed > 0,
            "{workload}: a wrong reference must fail verdicts"
        );
        assert_eq!(
            run.result.get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }
}

/// One span or tally line of a spans file.
struct SpanLine {
    parent: Option<usize>,
    dur: u64,
}

#[test]
fn traced_self_times_sum_to_no_more_than_their_root_span() {
    let dir = scratch("spans");
    for workload in WORKLOADS {
        run(&dir, workload, 1, &[]);
        let path = dir.join(format!(".bench_work/spans/{workload}-seed5.jsonl"));
        let text = std::fs::read_to_string(&path).expect("spans written");
        let mut spans: Vec<SpanLine> = Vec::new();
        let mut tallies: Vec<SpanLine> = Vec::new();
        for line in text.lines() {
            let j = Json::parse(line).expect("span line parses");
            let num = |k: &str| j.get(k).and_then(Json::as_u64);
            if j.get("tally").is_some() {
                tallies.push(SpanLine {
                    parent: num("parent").map(|p| p as usize),
                    dur: num("busy_ns").expect("busy"),
                });
            } else {
                spans.push(SpanLine {
                    parent: num("parent").map(|p| p as usize),
                    dur: num("end_ns").expect("end") - num("start_ns").expect("start"),
                });
            }
        }
        assert!(!spans.is_empty(), "{workload}: spans recorded");
        // Spans are sequential on one thread, so a parent's self time is
        // its duration minus its children's durations and tallies.
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter().chain(&tallies) {
            if let Some(p) = s.parent {
                covered[p] += s.dur;
            }
        }
        let root = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut sums = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            sums[root(i)] += s.dur.saturating_sub(covered[i]);
        }
        for t in &tallies {
            sums[root(t.parent.expect("tallies have a parent"))] += t.dur;
        }
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            assert!(
                sums[i] <= s.dur,
                "{workload}: root {i} self times {} > {}",
                sums[i],
                s.dur
            );
        }
    }
}
