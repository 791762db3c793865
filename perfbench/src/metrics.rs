//! The metric registry: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (pinned by a test below).

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
}

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("verdict_s", "s"),
    spec("events_per_s", "events/s"),
    spec("poll_ms_p50", "ms"),
    spec("poll_ms_p90", "ms"),
    spec("restart_s", "s"),
    spec("peak_rss_mb", "MB"),
];

/// Printed by every workload with `--trace 1`; layers off a workload's
/// path print 0 with `n=0`.
pub const PER_LAYER: &[Spec] = &[
    spec("trace_overhead", "ratio"),
    // replay
    spec("model.fcb_decode_ms", "ms"),
    spec("model.fcb_bytes", "bytes"),
    spec("model.validate_ms", "ms"),
    spec("core.index.build_ms", "ms"),
    spec("core.axioms.a1_ms", "ms"),
    spec("core.axioms.a2_ms", "ms"),
    spec("core.axioms.a3_ms", "ms"),
    spec("core.axioms.a4_ms", "ms"),
    spec("core.axioms.a5_ms", "ms"),
    spec("core.axioms.a6_ms", "ms"),
    spec("core.axioms.a7_ms", "ms"),
    spec("core.axioms.violations", "count"),
    spec("core.audit.fanout_ms", "ms"),
    spec("core.audit.fanout_speedup", "ratio"),
    spec("core.metrics.wages_ms", "ms"),
    spec("sim.summary_ms", "ms"),
    // serve
    spec("model.jsonl_line_us", "us"),
    spec("model.jsonl_lines", "count"),
    spec("core.live.visible_us", "us"),
    spec("core.live.visible_events", "count"),
    spec("core.live.submission_us", "us"),
    spec("core.live.submission_events", "count"),
    spec("core.live.flag_us", "us"),
    spec("core.live.flag_events", "count"),
    spec("core.live.interrupt_us", "us"),
    spec("core.live.interrupt_events", "count"),
    spec("core.live.posted_us", "us"),
    spec("core.live.posted_events", "count"),
    spec("core.live.other_us", "us"),
    spec("core.live.other_events", "count"),
    spec("core.live.ingest_us_small", "us"),
    spec("core.live.ingest_us_large", "us"),
    spec("core.live.findings", "count"),
    spec("core.live.close_ms", "ms"),
    spec("core.checkpoint.encode_ms", "ms"),
    spec("core.checkpoint.bytes", "bytes"),
    spec("core.checkpoint.save_ms", "ms"),
    spec("core.checkpoint.load_ms", "ms"),
    spec("core.live.resume_ms", "ms"),
    spec("core.persist.fcb_to_jsonl_ms", "ms"),
    spec("core.daemon.poll_busy_ms", "ms"),
    spec("core.daemon.shard_speedup", "ratio"),
    spec("core.daemon.replayed_events", "count"),
    // frontier
    spec("sim.simulate_ms", "ms"),
    spec("sim.events", "count"),
    spec("sim.round_us", "us"),
    spec("sim.rounds", "count"),
    spec("sim.policy.self_selection_ms", "ms"),
    spec("sim.policy.round_robin_ms", "ms"),
    spec("sim.policy.kos_ms", "ms"),
    spec("sim.converge_ms", "ms"),
    spec("sim.converge_iterations", "count"),
    spec("sim.converge_iter_ms", "ms"),
    spec("pipeline.enforce_resim_ms", "ms"),
    spec("core.audit.cell_ms", "ms"),
    spec("quality.majority_ms", "ms"),
    spec("quality.parity_constrained_ms", "ms"),
    spec("sweep.sims_per_cell", "ratio"),
    spec("sweep.jobs_speedup", "ratio"),
    spec("frontier.pareto_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_model::json::Json;

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(specs: &[Spec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_owned(), s.unit.to_owned()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
