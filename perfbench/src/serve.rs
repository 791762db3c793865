//! `serve`: the multi-market audit daemon catching up on its streams,
//! killed, and restarted from its checkpoints.
//!
//! Inputs are many small markets fed as JSONL lines (a platform running
//! a thousand concurrent labeling markets, cut from 64 simulated traces),
//! a few large catalog markets fed the same way, and a few large markets
//! registered as `.fcb` recordings through `AuditDaemon::add_source`.
//!
//! One verdict pass feeds every stream in interleaved chunks and polls
//! after each chunk. The first half is the cold-ingest phase. Then the
//! daemon is dropped (the kill) and a fresh daemon opens over the
//! checkpoint directory and re-feeds every stream from its start (a
//! restarted tailer re-reads its files; the daemon skips each resumed
//! prefix by count). A second kill and restart follows at three
//! quarters; the last life finalizes and collects the reports. Every
//! market's closing report must equal the batch audit of its trace,
//! every market must resume, and its restored plus new findings must
//! equal an uninterrupted live audit's finding stream.

use crate::stats::{self, median, quantile};
use crate::trace::{Layer, Tracer};
use crate::{Ctx, Outcome, PARALLEL_JOBS};
use faircrowd_core::checkpoint;
use faircrowd_core::daemon::{
    AuditDaemon, DaemonConfig, DaemonFinding, DaemonReport, MarketSource,
};
use faircrowd_core::persist::{self, TraceFormat};
use faircrowd_core::{
    metrics, AuditConfig, AuditEngine, AxiomId, FairnessReport, LiveAuditor, LiveFinding,
    TraceIndex,
};
use faircrowd_model::trace_io::{JsonlReader, JsonlRecord};
use faircrowd_model::{EventKind, Trace};
use faircrowd_pay::WageStats;
use faircrowd_sim::{catalog, CampaignSpec, ScenarioConfig, Simulation, WorkerPopulation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up passes per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Daemon shards of the timed runs. With 2 shards on a 2-core host the
/// run-to-run spread of every `serve` metric was 2–3× wider; the traced
/// run measures the speed-up of `PARALLEL_JOBS` shards over this.
pub const JOBS: usize = 1;
/// Input sizes of one profile.
struct Shape {
    small_markets: usize,
    /// Distinct small-market traces; small markets cycle through them.
    variants: usize,
    /// Large markets fed as JSONL lines.
    large_fed: usize,
    /// Large markets registered as `.fcb` recordings.
    large_recorded: usize,
    large_scale: f64,
    /// Every fed stream is cut into this many chunks; a poll follows each.
    chunks: usize,
    checkpoint_every: u64,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.tiny {
        Shape {
            small_markets: 16,
            variants: 4,
            large_fed: 1,
            large_recorded: 1,
            large_scale: 0.5,
            chunks: 8,
            checkpoint_every: 20,
        }
    } else {
        Shape {
            small_markets: 1024,
            variants: 64,
            large_fed: 2,
            large_recorded: 2,
            large_scale: 1.0,
            chunks: 32,
            checkpoint_every: 100,
        }
    }
}

/// A small labeling market, one of the variants.
fn small_market(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        rounds: 8,
        workers: vec![WorkerPopulation::diligent(6)],
        campaigns: vec![CampaignSpec::labeling("acme", 8, 6)],
        ..Default::default()
    }
}

/// What every verdict on one trace must reproduce.
struct Reference {
    report: FairnessReport,
    wages: Option<WageStats>,
    findings: Vec<LiveFinding>,
}

/// The generated inputs.
struct Inputs {
    /// JSONL lines of each fed trace (small variants first, then large).
    streams: Vec<Vec<String>>,
    /// Fed markets: name and stream index.
    fed: Vec<(String, usize)>,
    /// Streams from this index on belong to large markets.
    large_from: usize,
    /// Recorded markets: name, `.fcb` path and trace index (after the
    /// streams in the trace list).
    recorded: Vec<(String, PathBuf, usize)>,
    chunks: usize,
    /// Chunks before which the daemon is killed and restarted: the first
    /// restart halfway through the streams, the second at three quarters.
    restarts: Vec<usize>,
    checkpoint_every: u64,
    /// Each pass checkpoints into a fresh numbered directory under this
    /// one, so no pass pays for deleting the last pass's files.
    checkpoints: PathBuf,
    passes: std::cell::Cell<usize>,
}

impl Inputs {
    fn markets(&self) -> usize {
        self.fed.len() + self.recorded.len()
    }

    /// Line range of chunk `c` of stream `s`.
    fn chunk(&self, s: usize, c: usize) -> std::ops::Range<usize> {
        let len = self.streams[s].len();
        c * len / self.chunks..(c + 1) * len / self.chunks
    }

    /// A fresh, empty checkpoint directory for the next pass.
    fn pass_dir(&self) -> Result<PathBuf, String> {
        settle(&self.checkpoints);
        let n = self.passes.get();
        self.passes.set(n + 1);
        let dir = self.checkpoints.join(n.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(dir)
    }

    fn config(&self, jobs: usize, dir: &Path) -> DaemonConfig {
        DaemonConfig {
            audit: AuditConfig::default(),
            jobs,
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: self.checkpoint_every,
        }
    }

    /// Index of the trace behind market `name`.
    fn trace_of(&self) -> BTreeMap<&str, usize> {
        self.fed
            .iter()
            .map(|(n, s)| (n.as_str(), *s))
            .chain(self.recorded.iter().map(|(n, _, t)| (n.as_str(), *t)))
            .collect()
    }
}

/// Flush every written checkpoint to disk and delete the previous
/// passes' directories, then flush again. Runs outside any timed window:
/// otherwise the kernel's writeback of the hundreds of MB of checkpoint
/// JSON a pass writes lands, at random, inside a later pass.
fn settle(checkpoints: &Path) {
    let flush = || {
        let _ = std::process::Command::new("sync").status();
    };
    flush();
    let _ = std::fs::remove_dir_all(checkpoints);
    flush();
}

/// Simulate every trace, encode the streams, write the recordings.
fn generate(ctx: &Ctx) -> Result<(Inputs, Vec<Trace>), String> {
    let shape = shape(ctx);
    let mut traces: Vec<Trace> = (0..shape.variants)
        .map(|v| Simulation::new(small_market(ctx.seed_for(v as u64))).run())
        .collect();
    let large = |i: usize| -> Result<Trace, String> {
        let mut config = catalog::get("baseline")
            .map_err(|e| e.to_string())?
            .at_scale(shape.large_scale);
        config.seed = ctx.seed_for((shape.variants + i) as u64);
        Ok(Simulation::new(config).run())
    };
    for i in 0..shape.large_fed {
        traces.push(large(i)?);
    }
    for t in &traces {
        t.ensure_valid().map_err(|e| e.to_string())?;
    }
    let streams: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            persist::encode(t, TraceFormat::Jsonl)
                .lines()
                .map(str::to_owned)
                .collect()
        })
        .collect();
    let mut fed: Vec<(String, usize)> = (0..shape.small_markets)
        .map(|m| (format!("market-{m:04}"), m % shape.variants))
        .collect();
    fed.extend((0..shape.large_fed).map(|i| (format!("large-{i}"), shape.variants + i)));

    let dir = ctx.work.join("serve");
    let inputs_dir = dir.join("recordings");
    std::fs::create_dir_all(&inputs_dir).map_err(|e| e.to_string())?;
    let mut recorded = Vec::new();
    for i in 0..shape.large_recorded {
        let trace = large(shape.large_fed + i)?;
        trace.ensure_valid().map_err(|e| e.to_string())?;
        let name = format!("recorded-{i}");
        let path = inputs_dir.join(format!("{name}.fcb"));
        std::fs::write(&path, persist::encode_bytes(&trace, TraceFormat::Binary))
            .map_err(|e| e.to_string())?;
        recorded.push((name, path, traces.len()));
        traces.push(trace);
    }
    let inputs = Inputs {
        streams,
        fed,
        large_from: shape.variants,
        recorded,
        chunks: shape.chunks,
        restarts: vec![shape.chunks / 2, 3 * shape.chunks / 4],
        checkpoint_every: shape.checkpoint_every,
        checkpoints: dir.join("checkpoints"),
        passes: std::cell::Cell::new(0),
    };
    Ok((inputs, traces))
}

fn references(ctx: &Ctx, traces: &[Trace]) -> Result<Vec<Reference>, String> {
    let serial = AuditEngine::new(AuditConfig {
        parallel: false,
        ..AuditConfig::default()
    });
    let mut refs = traces
        .iter()
        .map(|trace| {
            let ix = TraceIndex::new(trace);
            let mut live = LiveAuditor::new(AuditConfig::default());
            let mut findings = live.ingest_trace(trace).map_err(|e| e.to_string())?;
            findings.extend(live.finalize());
            Ok(Reference {
                report: serial.run_indexed(&ix, &AxiomId::ALL),
                wages: metrics::wage_stats(&ix),
                findings,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if ctx.corrupt_reference {
        refs[0].findings.pop();
    }
    Ok(refs)
}

/// How many findings a `LiveAuditor` retains (its default cap); a
/// checkpoint restores at most this many.
const RETAINED_FINDINGS: usize = 10_000;

/// Restored plus fresh findings against the uninterrupted stream. A
/// market whose checkpoint hit the retention cap restores only the first
/// `RETAINED_FINDINGS`; the fresh findings must then still be the
/// stream's exact tail.
fn stream_matches(restored: &[&LiveFinding], fresh: &[&LiveFinding], want: &[LiveFinding]) -> bool {
    let (r, f) = (restored.len(), fresh.len());
    let complete = r + f == want.len() || (r == RETAINED_FINDINGS && r + f < want.len());
    complete
        && restored.iter().zip(want).all(|(g, w)| *g == w)
        && fresh
            .iter()
            .zip(&want[want.len() - f.min(want.len())..])
            .all(|(g, w)| *g == w)
}

/// What one daemon pass produced and how long its parts took.
struct DaemonPass {
    verdict_s: f64,
    phase_a_s: f64,
    phase_a_events: u64,
    /// One sample per restart.
    restart_s: Vec<f64>,
    polls: Vec<f64>,
    reports: Vec<DaemonReport>,
    /// Findings the last daemon life restored from checkpoints.
    restored: Vec<DaemonFinding>,
    /// Findings the last daemon life emitted (polls and finalize).
    fresh: Vec<DaemonFinding>,
    failed_markets: usize,
}

/// Run `f` inside a span when tracing.
fn spanned<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One verdict pass through the real daemon.
fn daemon_pass(
    inputs: &Inputs,
    jobs: usize,
    mut t: Option<&mut Tracer>,
) -> Result<DaemonPass, String> {
    let dir = inputs.pass_dir()?;
    let add_recordings = |d: &mut AuditDaemon| {
        for (market, path, _) in &inputs.recorded {
            d.add_source(MarketSource {
                market: market.clone(),
                path: path.clone(),
            });
        }
    };
    let mut polls = Vec::new();
    let mut timed_poll = |d: &mut AuditDaemon, t: &mut Option<&mut Tracer>| {
        let t0 = Instant::now();
        let found = spanned(t, "core.daemon.poll", || d.poll());
        polls.push(stats::secs(t0));
        found
    };

    let t0 = Instant::now();
    let mut d = AuditDaemon::new(inputs.config(jobs, &dir));
    add_recordings(&mut d);
    let mut phase_a = None;
    let mut restart_s = Vec::new();
    let mut fresh = Vec::new();
    for c in 0..inputs.chunks {
        let restarted = inputs.restarts.contains(&c);
        let life = if restarted {
            phase_a.get_or_insert((d.total_events(), stats::secs(t0)));
            // The kill: the old daemon's in-memory state is gone; only its
            // checkpoints survive. The new daemon starts empty.
            drop(std::mem::replace(
                &mut d,
                AuditDaemon::new(inputs.config(jobs, &dir)),
            ));
            fresh.clear();
            let t1 = Instant::now();
            add_recordings(&mut d);
            Some(t1)
        } else {
            None
        };
        for (market, s) in &inputs.fed {
            let chunk = inputs.chunk(*s, c);
            // A restarted tailer re-reads its file from the start.
            let range = if restarted { 0..chunk.end } else { chunk };
            for line in &inputs.streams[*s][range] {
                d.feed_line(market, line.as_str());
            }
        }
        fresh.extend(timed_poll(&mut d, &mut t));
        if let Some(t1) = life {
            restart_s.push(stats::secs(t1));
        }
    }
    fresh.extend(spanned(&mut t, "core.daemon.finalize", || d.finalize()));
    let reports = d.reports().map_err(|e| e.to_string())?;
    let verdict_s = stats::secs(t0);
    let (phase_a_events, phase_a_s) = phase_a.unwrap_or((d.total_events(), verdict_s));
    Ok(DaemonPass {
        restored: d.restored_findings(),
        fresh,
        verdict_s,
        phase_a_s,
        phase_a_events,
        restart_s,
        polls,
        reports,
        failed_markets: d.failed_markets().len(),
    })
}

/// Check every market of a pass; one op per market.
fn check_pass<'a>(inputs: &Inputs, refs: &[Reference], pass: &'a DaemonPass, out: &mut Outcome) {
    let trace_of = inputs.trace_of();
    let by_market = |findings: &'a [DaemonFinding]| {
        let mut out: BTreeMap<&'a str, Vec<&'a LiveFinding>> = BTreeMap::new();
        for f in findings {
            out.entry(f.market.as_str()).or_default().push(&f.finding);
        }
        out
    };
    let restored = by_market(&pass.restored);
    let fresh = by_market(&pass.fresh);
    let mut seen = 0;
    for r in &pass.reports {
        let Some(&t) = trace_of.get(r.market.as_str()) else {
            out.check(false);
            continue;
        };
        seen += 1;
        let want = &refs[t];
        let of = |m: &BTreeMap<&str, Vec<&'a LiveFinding>>| {
            m.get(r.market.as_str()).cloned().unwrap_or_default()
        };
        let (old, new) = (of(&restored), of(&fresh));
        let same_stream = stream_matches(&old, &new, &want.findings);
        let ok = [
            ("resumed", r.resumed_from.is_some()),
            ("report", r.report == want.report),
            ("wages", r.wages == want.wages),
            ("findings", same_stream),
        ];
        if let Some((what, _)) = ok.iter().find(|(_, good)| !good) {
            if out.failed < 5 {
                out.notes.push(format!(
                    "serve: market {} differs from its reference in {what} ({} + {} findings vs {})",
                    r.market,
                    old.len(),
                    new.len(),
                    want.findings.len()
                ));
            }
        }
        out.check(ok.iter().all(|(_, good)| *good));
    }
    // Markets that closed without a report failed.
    for _ in seen..inputs.markets() {
        out.check(false);
    }
    if pass.failed_markets > 0 {
        out.notes.push(format!(
            "serve: {} market(s) failed in the daemon",
            pass.failed_markets
        ));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut generated = None;
    for _ in 0..SETUPS {
        drop(generated.take());
        // The previous set-up's checkpoints are flushed before the clock starts.
        settle(&ctx.work.join("serve"));
        let t0 = Instant::now();
        let (inputs, traces) = generate(ctx)?;
        daemon_pass(&inputs, JOBS, None)?;
        setup_times.push(stats::secs(t0));
        generated = Some((inputs, traces));
    }
    let (inputs, traces) = generated.expect("at least one set-up");
    let refs = references(ctx, &traces)?;
    drop(traces);

    let mut out = Outcome::default();
    let mut verdicts = Vec::new();
    let mut ingest_rates = Vec::new();
    let mut restarts = Vec::new();
    let mut polls = Vec::new();
    let t0 = Instant::now();
    while ctx.keep_going(t0, verdicts.len(), 3) {
        let pass = daemon_pass(&inputs, JOBS, None)?;
        check_pass(&inputs, &refs, &pass, &mut out);
        verdicts.push(pass.verdict_s);
        ingest_rates.push(pass.phase_a_events as f64 / pass.phase_a_s);
        restarts.extend(pass.restart_s);
        polls.extend(pass.polls.iter().map(|s| s * 1e3));
    }
    let _ = std::fs::remove_dir_all(&inputs.checkpoints);
    out.metric("setup_s", median(&setup_times), setup_times.len());
    out.metric("verdict_s", median(&verdicts), verdicts.len());
    out.metric("events_per_s", median(&ingest_rates), ingest_rates.len());
    out.metric("poll_ms_p50", quantile(&polls, 0.5), polls.len());
    out.metric("poll_ms_p90", quantile(&polls, 0.9), polls.len());
    out.metric("restart_s", median(&restarts), restarts.len());
    out.metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN), 1);
    let events: usize = inputs
        .fed
        .iter()
        .map(|(_, s)| inputs.streams[*s].len())
        .sum();
    out.notes.push(format!(
        "serve: {} markets ({} fed, {} recorded), {events} fed lines; {} passes; {} polls, {} beyond p90",
        inputs.markets(),
        inputs.fed.len(),
        inputs.recorded.len(),
        verdicts.len(),
        polls.len(),
        stats::beyond(&polls, 0.9)
    ));
    Ok(out)
}

/// Tally name of one event kind, grouped by the monitor it triggers.
fn kind_tally(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::TaskVisible { .. } => "core.live.visible",
        EventKind::SubmissionReceived { .. } | EventKind::PaymentIssued { .. } => {
            "core.live.submission"
        }
        EventKind::WorkerFlagged { .. } => "core.live.flag",
        EventKind::WorkInterrupted { .. } => "core.live.interrupt",
        EventKind::TaskPosted { .. } => "core.live.posted",
        _ => "core.live.other",
    }
}

/// One market of the decomposed pass: the daemon's per-market state,
/// driven through the public layer calls.
struct Manual {
    name: String,
    trace: usize,
    large: bool,
    auditor: LiveAuditor,
    reader: JsonlReader,
    header_applied: bool,
    last_checkpoint: u64,
    restored: Vec<LiveFinding>,
    findings: Vec<LiveFinding>,
}

/// Side totals of the decomposed pass that are not spans.
#[derive(Default)]
struct Totals {
    ingest_small: (Duration, u64),
    ingest_large: (Duration, u64),
    checkpoint_bytes: u64,
    resumed: usize,
    findings: usize,
}

impl Manual {
    fn fresh(name: &str, trace: usize, large: bool) -> Manual {
        Manual {
            name: name.to_owned(),
            trace,
            large,
            auditor: LiveAuditor::new(AuditConfig::default()),
            reader: JsonlReader::new(),
            header_applied: false,
            last_checkpoint: 0,
            restored: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Resume from this market's checkpoint when one exists.
    fn open(
        name: &str,
        trace: usize,
        large: bool,
        dir: &Path,
        t: &mut Tracer,
        totals: &mut Totals,
    ) -> Result<Manual, String> {
        let path = checkpoint_path(dir, name);
        if !path.exists() {
            return Ok(Manual::fresh(name, trace, large));
        }
        let ckpt = t
            .span("core.checkpoint.load", |_| checkpoint::load(&path))
            .map_err(|e| e.to_string())?;
        let auditor = t
            .span("core.live.resume", |_| {
                LiveAuditor::resume(AuditConfig::default(), &ckpt)
            })
            .map_err(|e| e.to_string())?;
        totals.resumed += 1;
        Ok(Manual {
            name: name.to_owned(),
            trace,
            large,
            restored: auditor.findings().to_vec(),
            reader: JsonlReader::resume(ckpt.jsonl_header(), ckpt.source_lines() as usize),
            header_applied: true,
            last_checkpoint: ckpt.seq(),
            findings: Vec::new(),
            auditor,
        })
    }

    fn feed(&mut self, line: &str, t: &mut Tracer, totals: &mut Totals) -> Result<(), String> {
        let (record, _) = t.tally("model.jsonl_line", || self.reader.feed_line(line));
        let record = record.map_err(|e| e.to_string())?;
        if !self.header_applied {
            if let Some(header) = self.reader.header() {
                self.auditor.apply_header(header);
                self.header_applied = true;
            }
        }
        let found = match record {
            None => Vec::new(),
            Some(JsonlRecord::Event(e)) => {
                let name = kind_tally(&e.kind);
                let (found, dur) = t.tally(name, || self.auditor.ingest(e));
                let acc = if self.large {
                    &mut totals.ingest_large
                } else {
                    &mut totals.ingest_small
                };
                acc.0 += dur;
                acc.1 += 1;
                found.map_err(|e| e.to_string())?
            }
            Some(other) => t
                .tally("core.live.declare", || self.auditor.apply_record(other))
                .0
                .map_err(|e| e.to_string())?,
        };
        self.findings.extend(found);
        Ok(())
    }

    /// `checkpoint::save_auditor`, step by step: snapshot, encode, write.
    fn save(&mut self, dir: &Path, t: &mut Tracer, totals: &mut Totals) -> Result<(), String> {
        let path = checkpoint_path(dir, &self.name);
        let lines = self.reader.lines_fed() as u64;
        let auditor = &self.auditor;
        let bytes = t.span("core.checkpoint.save", |t| {
            let (ckpt, _) = t.tally("core.checkpoint.snapshot", || auditor.checkpoint(lines));
            let (text, _) = t.tally("core.checkpoint.encode", || checkpoint::encode(&ckpt));
            t.tally("core.checkpoint.write", || std::fs::write(&path, &text))
                .0
                .map(|()| text.len())
        });
        totals.checkpoint_bytes += bytes.map_err(|e| e.to_string())? as u64;
        self.last_checkpoint = self.auditor.events_seen() as u64;
        Ok(())
    }

    fn maybe_save(
        &mut self,
        every: u64,
        dir: &Path,
        t: &mut Tracer,
        totals: &mut Totals,
    ) -> Result<(), String> {
        if self.auditor.events_seen() as u64 >= self.last_checkpoint + every.max(1) {
            self.save(dir, t, totals)?;
        }
        Ok(())
    }
}

fn checkpoint_path(dir: &Path, market: &str) -> PathBuf {
    dir.join(format!("{market}.checkpoint.json"))
}

/// The `.fcb` → JSONL detour of `add_source`: read, decode, re-encode.
fn fcb_lines(path: &Path, t: &mut Tracer) -> Result<Vec<String>, String> {
    t.span("core.persist.fcb_to_jsonl", |_| {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let trace = persist::decode_bytes(&bytes).map_err(|e| e.to_string())?;
        Ok(persist::encode(&trace, TraceFormat::Jsonl)
            .lines()
            .map(str::to_owned)
            .collect())
    })
}

/// One verdict pass of the daemon's work through the public layer
/// calls, one market at a time, under the root span `serve.verdict`.
/// Checks every market against its reference.
fn decomposed_pass(
    inputs: &Inputs,
    refs: &[Reference],
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<Totals, String> {
    let dir = &inputs.pass_dir()?;
    let every = inputs.checkpoint_every;
    let mut totals = Totals::default();
    let markets = t.span("serve.verdict", |t| -> Result<Vec<Manual>, String> {
        // One daemon life: every market opened, resumed from its
        // checkpoint when one exists; recordings go through the detour.
        type Life = (Vec<Manual>, Vec<(Manual, Vec<String>)>);
        let open = |t: &mut Tracer, totals: &mut Totals| -> Result<Life, String> {
            let mut fed = Vec::new();
            for (n, s) in &inputs.fed {
                fed.push(Manual::open(
                    n,
                    *s,
                    *s >= inputs.large_from,
                    dir,
                    t,
                    totals,
                )?);
            }
            let mut recorded = Vec::new();
            for (name, path, tr) in &inputs.recorded {
                let m = Manual::open(name, *tr, true, dir, t, totals)?;
                recorded.push((m, fcb_lines(path, t)?));
            }
            Ok((fed, recorded))
        };
        let (mut fed, mut recorded) = open(t, &mut totals)?;
        for c in 0..inputs.chunks {
            let restarted = inputs.restarts.contains(&c);
            if restarted {
                // The kill, then a fresh life over the checkpoints.
                drop(std::mem::take(&mut fed));
                drop(std::mem::take(&mut recorded));
                (fed, recorded) = open(t, &mut totals)?;
            }
            t.span("serve.round", |t| -> Result<(), String> {
                for m in &mut fed {
                    let range = inputs.chunk(m.trace, c);
                    let start = if restarted {
                        m.reader.lines_fed()
                    } else {
                        range.start
                    };
                    for line in &inputs.streams[m.trace][start..range.end] {
                        m.feed(line, t, &mut totals)?;
                    }
                    m.maybe_save(every, dir, t, &mut totals)?;
                }
                if c == 0 || restarted {
                    for (m, lines) in &mut recorded {
                        let start = m.reader.lines_fed();
                        for line in &lines[start..] {
                            m.feed(line, t, &mut totals)?;
                        }
                        m.maybe_save(every, dir, t, &mut totals)?;
                    }
                }
                Ok(())
            })?;
        }
        let mut markets = fed;
        markets.extend(recorded.into_iter().map(|(m, _)| m));
        for m in &mut markets {
            m.save(dir, t, &mut totals)?;
            let closing = t.span("core.live.close", |_| {
                let closing = m.auditor.finalize();
                (closing, m.auditor.final_artifacts(&AxiomId::ALL))
            });
            m.findings.extend(closing.0);
            let (report, wages) = closing.1;
            let want = &refs[m.trace];
            let old: Vec<&LiveFinding> = m.restored.iter().collect();
            let new: Vec<&LiveFinding> = m.findings.iter().collect();
            let same_stream = stream_matches(&old, &new, &want.findings);
            out.check(report == want.report && wages == want.wages && same_stream);
        }
        Ok(markets)
    })?;
    totals.findings = markets.iter().map(|m| m.findings.len()).sum();
    Ok(totals)
}

pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, traces) = generate(ctx)?;
    let refs = references(ctx, &traces)?;
    drop(traces);
    let mut out = Outcome::default();
    let mut t = Tracer::new();

    // The real daemon: untraced at 1 job (the trace_overhead base), then
    // one pass each at JOBS and PARALLEL_JOBS with a span per poll.
    daemon_pass(&inputs, JOBS, None)?;
    let untraced: Vec<f64> = (0..2)
        .map(|_| daemon_pass(&inputs, 1, None).map(|p| p.verdict_s))
        .collect::<Result<_, _>>()?;
    let mut timed = None;
    t.span("serve.daemon", |t| -> Result<(), String> {
        let pass = daemon_pass(&inputs, JOBS, Some(t))?;
        check_pass(&inputs, &refs, &pass, &mut out);
        timed = Some(pass);
        Ok(())
    })?;
    t.span("serve.daemon_parallel", |t| -> Result<(), String> {
        let pass = daemon_pass(&inputs, PARALLEL_JOBS, Some(t))?;
        check_pass(&inputs, &refs, &pass, &mut out);
        Ok(())
    })?;
    let timed = timed.expect("timed-configuration pass ran");
    let replayed: usize = timed
        .reports
        .iter()
        .filter(|r| r.resumed_from.is_none())
        .map(|r| r.events)
        .sum();

    // The decomposed passes.
    let mut passes = Vec::new();
    let mut totals = Vec::new();
    let t0 = Instant::now();
    while ctx.keep_going(t0, passes.len(), 1) {
        t.set_op(passes.len() as u64);
        let before = t.spans().len();
        totals.push(decomposed_pass(&inputs, &refs, &mut t, &mut out)?);
        passes.push(t.duration_s(before));
    }
    let _ = std::fs::remove_dir_all(&inputs.checkpoints);

    let n = passes.len();
    let per_pass = n as f64;
    let layers = t.layers(Some("serve.verdict"));
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let poll_busy = |root: &str| {
        let l = t.layers(Some(root));
        let busy = |name: &str| l.get(name).map_or(0.0, Layer::busy_ms);
        busy("core.daemon.poll") + busy("core.daemon.finalize")
    };

    out.metric("trace_overhead", median(&passes) / median(&untraced), n);
    let lines = get("model.jsonl_line");
    out.metric(
        "model.jsonl_line_us",
        lines.per_call_us(),
        lines.count as usize,
    );
    out.metric("model.jsonl_lines", lines.count as f64 / per_pass, n);
    for (tally, us, count) in [
        (
            "core.live.visible",
            "core.live.visible_us",
            "core.live.visible_events",
        ),
        (
            "core.live.submission",
            "core.live.submission_us",
            "core.live.submission_events",
        ),
        (
            "core.live.flag",
            "core.live.flag_us",
            "core.live.flag_events",
        ),
        (
            "core.live.interrupt",
            "core.live.interrupt_us",
            "core.live.interrupt_events",
        ),
        (
            "core.live.posted",
            "core.live.posted_us",
            "core.live.posted_events",
        ),
        (
            "core.live.other",
            "core.live.other_us",
            "core.live.other_events",
        ),
    ] {
        let l = get(tally);
        out.metric(us, l.per_call_us(), l.count as usize);
        out.metric(count, l.count as f64 / per_pass, n);
    }
    let mean_us = |(d, k): (Duration, u64)| {
        if k == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e6 / k as f64
        }
    };
    let small: (Duration, u64) = totals.iter().fold((Duration::ZERO, 0), |a, x| {
        (a.0 + x.ingest_small.0, a.1 + x.ingest_small.1)
    });
    let large: (Duration, u64) = totals.iter().fold((Duration::ZERO, 0), |a, x| {
        (a.0 + x.ingest_large.0, a.1 + x.ingest_large.1)
    });
    out.metric(
        "core.live.ingest_us_small",
        mean_us(small),
        small.1 as usize,
    );
    out.metric(
        "core.live.ingest_us_large",
        mean_us(large),
        large.1 as usize,
    );
    out.metric(
        "core.live.findings",
        totals.iter().map(|x| x.findings).sum::<usize>() as f64 / per_pass,
        n,
    );
    out.metric(
        "core.live.close_ms",
        get("core.live.close").busy_ms() / per_pass,
        n,
    );
    let encode = get("core.checkpoint.encode");
    out.metric(
        "core.checkpoint.encode_ms",
        encode.busy_ms() / per_pass,
        encode.count as usize,
    );
    out.metric(
        "core.checkpoint.bytes",
        totals.iter().map(|x| x.checkpoint_bytes).sum::<u64>() as f64 / per_pass,
        encode.count as usize,
    );
    let save = get("core.checkpoint.save");
    out.metric(
        "core.checkpoint.save_ms",
        save.busy_ms() / per_pass,
        save.count as usize,
    );
    let load = get("core.checkpoint.load");
    out.metric(
        "core.checkpoint.load_ms",
        load.busy_ms() / per_pass,
        load.count as usize,
    );
    let resume = get("core.live.resume");
    out.metric(
        "core.live.resume_ms",
        resume.busy_ms() / per_pass,
        resume.count as usize,
    );
    let detour = get("core.persist.fcb_to_jsonl");
    out.metric(
        "core.persist.fcb_to_jsonl_ms",
        detour.busy_ms() / per_pass,
        detour.count as usize,
    );
    let busy = poll_busy("serve.daemon");
    out.metric("core.daemon.poll_busy_ms", busy, timed.polls.len());
    out.metric(
        "core.daemon.shard_speedup",
        busy / poll_busy("serve.daemon_parallel"),
        timed.polls.len(),
    );
    out.metric(
        "core.daemon.replayed_events",
        replayed as f64,
        timed.reports.len(),
    );
    let resumed = totals.first().map_or(0, |x| x.resumed);
    out.notes.push(format!(
        "serve traced: {n} decomposed passes ({resumed} market resumes over {} markets); per pass \
         declarations {:.1} ms, snapshot {:.1} ms, write {:.1} ms, rounds' own bookkeeping {:.1} ms",
        inputs.markets(),
        get("core.live.declare").busy_ms() / per_pass,
        get("core.checkpoint.snapshot").busy_ms() / per_pass,
        get("core.checkpoint.write").busy_ms() / per_pass,
        get("serve.round").self_ns as f64 / 1e6 / per_pass,
    ));
    out.tracer = Some(t);
    Ok(out)
}
