//! `replay`: the post-hoc audit of recorded markets.
//!
//! Setup simulates a few large catalog markets and records each as a
//! `.fcb` file. One verdict pass reads every recording from disk and
//! runs `persist::decode_bytes` → `Pipeline::replay_owned` (validate,
//! index, the seven axioms with the default fan-out, wages, summary).
//! Every pass is checked against a serial in-memory audit of the
//! original trace, and every decoded trace must re-encode to the
//! recorded bytes.

use crate::stats::{self, median, quantile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use faircrowd::pipeline::{Pipeline, RunArtifacts};
use faircrowd_core::persist::{self, TraceFormat};
use faircrowd_core::{metrics, AuditConfig, AuditEngine, AxiomId, FairnessReport, TraceIndex};
use faircrowd_model::Trace;
use faircrowd_pay::WageStats;
use faircrowd_sim::{catalog, Simulation, TraceSummary};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up passes per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The recorded markets: catalog scenario and scale.
fn markets(ctx: &Ctx) -> &'static [(&'static str, f64)] {
    if ctx.tiny {
        &[("baseline", 1.0), ("spam_campaign", 1.0)]
    } else {
        &[
            ("baseline", 16.0),
            ("spam_campaign", 8.0),
            ("worker_churn", 8.0),
        ]
    }
}

struct Recording {
    path: PathBuf,
    events: usize,
}

/// What every verdict on one market must reproduce.
struct Reference {
    report: FairnessReport,
    wages: Option<WageStats>,
    summary: TraceSummary,
    fcb: Vec<u8>,
}

/// Simulate and record every market; returns the recordings and the
/// original traces.
fn record(ctx: &Ctx) -> Result<(Vec<Recording>, Vec<Trace>), String> {
    let dir = ctx.work.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut recordings = Vec::new();
    let mut traces = Vec::new();
    for (i, &(name, scale)) in markets(ctx).iter().enumerate() {
        let mut config = catalog::get(name)
            .map_err(|e| e.to_string())?
            .at_scale(scale);
        config.seed = ctx.seed_for(i as u64);
        let trace = Simulation::new(config).run();
        trace.ensure_valid().map_err(|e| e.to_string())?;
        let path = dir.join(format!("{name}.fcb"));
        std::fs::write(&path, persist::encode_bytes(&trace, TraceFormat::Binary))
            .map_err(|e| e.to_string())?;
        recordings.push(Recording {
            path,
            events: trace.events.len(),
        });
        traces.push(trace);
    }
    Ok((recordings, traces))
}

fn references(ctx: &Ctx, traces: Vec<Trace>) -> Vec<Reference> {
    let serial = AuditEngine::new(AuditConfig {
        parallel: false,
        ..AuditConfig::default()
    });
    let mut refs: Vec<Reference> = traces
        .into_iter()
        .map(|trace| {
            let ix = TraceIndex::new(&trace);
            Reference {
                report: serial.run_indexed(&ix, &AxiomId::ALL),
                wages: metrics::wage_stats(&ix),
                summary: TraceSummary::of(&trace),
                fcb: persist::encode_bytes(&trace, TraceFormat::Binary),
            }
        })
        .collect();
    if ctx.corrupt_reference {
        refs[0].summary.submissions += 1;
    }
    refs
}

/// One market's verdict: recorded bytes → report, wages and summary.
fn verdict(pipeline: &Pipeline, rec: &Recording) -> Result<RunArtifacts, String> {
    let bytes = std::fs::read(&rec.path).map_err(|e| e.to_string())?;
    let trace = persist::decode_bytes(&bytes).map_err(|e| e.to_string())?;
    pipeline.replay_owned(trace).map_err(|e| e.to_string())
}

fn matches(art: &RunArtifacts, want: &Reference) -> bool {
    art.report == want.report
        && art.wages == want.wages
        && art.summary == want.summary
        && persist::encode_bytes(&art.trace, TraceFormat::Binary) == want.fcb
}

/// One timed pass over every market: per-market verdict seconds. Each
/// verdict is checked after its stopwatch stops.
fn pass(
    pipeline: &Pipeline,
    recs: &[Recording],
    refs: &[Reference],
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut per_market = Vec::with_capacity(recs.len());
    for (rec, want) in recs.iter().zip(refs) {
        let t0 = Instant::now();
        let art = verdict(pipeline, rec)?;
        per_market.push(stats::secs(t0));
        out.check(matches(&art, want));
    }
    Ok(per_market)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let pipeline = Pipeline::new();
    let (recorded, setup_times) = stats::repeat_timed(SETUPS, || -> Result<_, String> {
        let (recs, traces) = record(ctx)?;
        // Warm-up pass, unchecked: the reference is not part of set-up.
        for rec in &recs {
            verdict(&pipeline, rec)?;
        }
        Ok((recs, traces))
    });
    let (recs, traces) = recorded?;
    let events: usize = recs.iter().map(|r| r.events).sum();
    let refs = references(ctx, traces);

    let mut out = Outcome::default();
    let mut verdicts = Vec::new();
    let mut firsts = Vec::new();
    let mut latencies = Vec::new();
    let t0 = Instant::now();
    while ctx.keep_going(t0, verdicts.len(), 3) {
        let per_market = pass(&pipeline, &recs, &refs, &mut out)?;
        verdicts.push(per_market.iter().sum::<f64>());
        firsts.push(per_market[0]);
        latencies.extend(per_market);
    }
    let verdict_s = median(&verdicts);
    out.metric("setup_s", median(&setup_times), setup_times.len());
    out.metric("verdict_s", verdict_s, verdicts.len());
    out.metric("events_per_s", events as f64 / verdict_s, verdicts.len());
    out.metric(
        "poll_ms_p50",
        quantile(&latencies, 0.5) * 1e3,
        latencies.len(),
    );
    out.metric(
        "poll_ms_p90",
        quantile(&latencies, 0.9) * 1e3,
        latencies.len(),
    );
    out.metric("restart_s", median(&firsts), firsts.len());
    out.metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN), 1);
    out.notes.push(format!(
        "replay: {} markets, {events} events; {} passes; p90 has {} market verdicts beyond it",
        recs.len(),
        verdicts.len(),
        stats::beyond(&latencies, 0.9)
    ));
    Ok(out)
}

/// Span names of the serial per-axiom probes, in `AxiomId::ALL` order.
const AXIOM_SPANS: [&str; 7] = [
    "core.axioms.a1",
    "core.axioms.a2",
    "core.axioms.a3",
    "core.axioms.a4",
    "core.axioms.a5",
    "core.axioms.a6",
    "core.axioms.a7",
];

/// One market's verdict through the individual layer calls, each in its
/// own span, followed (under a separate root) by the serial per-axiom
/// probes on the same index. Returns whether every output matched.
fn traced_market(t: &mut Tracer, rec: &Recording, want: &Reference) -> Result<bool, String> {
    let engine = AuditEngine::with_defaults();
    let serial = AuditEngine::new(AuditConfig {
        parallel: false,
        ..AuditConfig::default()
    });
    let trace = t.span("replay.verdict", |t| -> Result<_, String> {
        let bytes = t.span("replay.read", |_| {
            std::fs::read(&rec.path).map_err(|e| e.to_string())
        })?;
        let trace = t.span("model.fcb_decode", |_| {
            persist::decode_bytes(&bytes).map_err(|e| e.to_string())
        })?;
        t.span("model.validate", |_| {
            trace.ensure_valid().map_err(|e| e.to_string())
        })?;
        Ok((trace, bytes.len()))
    });
    let (trace, _bytes) = trace?;
    // The index borrows the trace, so the rest of the verdict opens a
    // second span under the same root name and op.
    let (ix, report, wages, summary) = t.span("replay.verdict", |t| {
        let ix = t.span("core.index.build", |_| TraceIndex::new(&trace));
        let report = t.span("core.audit.fanout", |_| {
            engine.run_indexed(&ix, &AxiomId::ALL)
        });
        let wages = t.span("core.metrics.wages", |_| metrics::wage_stats(&ix));
        let summary = t.span("sim.summary", |_| TraceSummary::of(&trace));
        (ix, report, wages, summary)
    });
    let probes = t.span("replay.probe", |t| {
        AxiomId::ALL
            .iter()
            .zip(AXIOM_SPANS)
            .flat_map(|(&id, name)| t.span(name, |_| serial.run_indexed(&ix, &[id]).axioms))
            .collect::<Vec<_>>()
    });
    // `Pipeline::replay_owned` frees the index before it returns, so the
    // verdict pays for that too.
    t.span("replay.verdict", |t| {
        t.span("core.index.drop", |_| drop(ix))
    });
    Ok(report == want.report
        && probes == want.report.axioms
        && wages == want.wages
        && summary == want.summary)
}

pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let pipeline = Pipeline::new();
    let (recs, traces) = record(ctx)?;
    let refs = references(ctx, traces);
    let mut out = Outcome::default();
    // Untraced comparator for trace_overhead (warm-up first).
    pass(&pipeline, &recs, &refs, &mut Outcome::default())?;
    let mut untraced = Vec::new();
    for _ in 0..3 {
        untraced.push(pass(&pipeline, &recs, &refs, &mut out)?.iter().sum::<f64>());
    }

    let mut t = Tracer::new();
    let mut traced = Vec::new();
    let mut violations = 0usize;
    let t0 = Instant::now();
    while ctx.keep_going(t0, traced.len(), 2) {
        let before = t.spans().len();
        for (i, (rec, want)) in recs.iter().zip(&refs).enumerate() {
            t.set_op((traced.len() * recs.len() + i) as u64);
            let ok = traced_market(&mut t, rec, want)?;
            out.check(ok);
            if traced.is_empty() {
                violations += want.report.total_violations();
            }
        }
        let pass_s: f64 = (before..t.spans().len())
            .filter(|&id| t.spans()[id].parent.is_none() && t.spans()[id].name == "replay.verdict")
            .map(|id| t.duration_s(id))
            .sum();
        traced.push(pass_s);
    }
    let passes = traced.len() as f64;
    let verdict = t.layers(Some("replay.verdict"));
    let probe = t.layers(Some("replay.probe"));
    let per_pass = |name: &str, layers: &std::collections::BTreeMap<&str, crate::trace::Layer>| {
        layers.get(name).map_or(0.0, |l| l.busy_ms() / passes)
    };
    let n = traced.len();
    out.metric("trace_overhead", median(&traced) / median(&untraced), n);
    out.metric(
        "model.fcb_decode_ms",
        per_pass("model.fcb_decode", &verdict),
        n,
    );
    let bytes: u64 = recs
        .iter()
        .map(|r| std::fs::metadata(&r.path).map_or(0, |m| m.len()))
        .sum();
    out.metric("model.fcb_bytes", bytes as f64, recs.len());
    out.metric("model.validate_ms", per_pass("model.validate", &verdict), n);
    out.metric(
        "core.index.build_ms",
        per_pass("core.index.build", &verdict),
        n,
    );
    let mut serial_sum = 0.0;
    for (name, metric) in AXIOM_SPANS.iter().zip([
        "core.axioms.a1_ms",
        "core.axioms.a2_ms",
        "core.axioms.a3_ms",
        "core.axioms.a4_ms",
        "core.axioms.a5_ms",
        "core.axioms.a6_ms",
        "core.axioms.a7_ms",
    ]) {
        let ms = per_pass(name, &probe);
        serial_sum += ms;
        out.metric(metric, ms, n);
    }
    out.metric("core.axioms.violations", violations as f64, recs.len());
    let fanout = per_pass("core.audit.fanout", &verdict);
    out.metric("core.audit.fanout_ms", fanout, n);
    out.metric("core.audit.fanout_speedup", serial_sum / fanout, n);
    out.metric(
        "core.metrics.wages_ms",
        per_pass("core.metrics.wages", &verdict),
        n,
    );
    out.metric("sim.summary_ms", per_pass("sim.summary", &verdict), n);
    let read = per_pass("replay.read", &verdict);
    let index = per_pass("core.index.build", &verdict);
    out.notes.push(format!(
        "replay traced: {n} passes; per pass read {read:.1} ms, decode {:.1} ms, index {index:.1} ms \
         (+{:.1} ms to free it), fan-out {fanout:.1} ms vs serial axioms {serial_sum:.1} ms",
        per_pass("model.fcb_decode", &verdict),
        per_pass("core.index.drop", &verdict),
    ));
    out.tracer = Some(t);
    Ok(out)
}
