//! The multi-market audit daemon: many [`LiveAuditor`]s — one per
//! market id — multiplexed behind one service, sharded across a scoped
//! thread pool, with checkpointed, resumable state.
//!
//! A production crowdsourcing platform is not one market: it runs
//! thousands of concurrent task markets, each appending its own JSONL
//! event stream. [`AuditDaemon`] is the platform-resident form of the
//! paper's transparency machinery for that shape (`faircrowd serve`);
//! `faircrowd watch` is the same daemon holding one market.
//!
//! - **Multiplexing** — every market gets its own [`LiveAuditor`] and
//!   [`JsonlReader`]. Markets are discovered as `<market>.jsonl` and
//!   `<market>.fcb` files in a directory ([`MarketSource::discover`])
//!   and read by the daemon itself, or fed line-by-line through
//!   [`AuditDaemon::feed_line`] — the consumption route for a single
//!   multiplexed stream whose records carry a market tag: route each
//!   line by its tag and the daemon does the rest.
//! - **One ingest path for both trace formats** — a file that starts
//!   with the `.fcb` magic is a finished recording: it is decoded once
//!   and its header and records go straight into the auditor, in the
//!   order its JSONL twin spells them (workers, tasks, requesters,
//!   submissions, events). Anything else is a JSONL stream, tailed as
//!   it grows. Either way a market's position is the JSONL line count
//!   (header included), so a recording and its twin write the same
//!   checkpoint and either one resumes from the other's.
//! - **Sharding** — each market is pinned to a shard by an FNV-1a hash
//!   of its name (stable across runs and processes, unlike the
//!   process-seeded `RandomState`), and each [`AuditDaemon::poll`]
//!   round runs the shards on a scoped thread pool
//!   (`--jobs`). Per-market work is sequential, so per-market results
//!   are bit-identical whatever the shard count or thread timing.
//! - **One ordered finding stream** — every round's findings are
//!   merged into a single deterministic order (market name, then
//!   per-market emission order) and tagged as
//!   [`DaemonFinding`]`{market, finding}`; each market's subsequence
//!   is exactly what a dedicated single-market `watch` emits.
//! - **Checkpoints** — each market may have a checkpoint target (the
//!   journal under a configured checkpoint directory, or an explicit
//!   file per market), and its auditor state is snapshotted through
//!   [`crate::checkpoint`] every `checkpoint_every` events. A restarted
//!   daemon ([`AuditDaemon::open`] over the same directory) resumes
//!   every stream from its last checkpoint seq *without replaying the
//!   log*: the consumed prefix is skipped by line count, the auditor
//!   continues from its restored mirrors, and finishing the stream is
//!   bit-identical — findings, final report, wages — to never having
//!   stopped. A checkpoint that fails any load gate (foreign schema,
//!   future version, header seq disagreeing with its mirror) is
//!   reported as a notice and the market falls back to replaying its
//!   trace from the start. A resume that cannot restore every finding
//!   (the retention cap dropped some) says how many in its notice. A
//!   failed checkpoint write is a notice too; the audit goes on.
//!
//! On disk, one append-only journal per checkpoint target: shard
//! threads encode, and each round appends the records of every market
//! it snapshotted, in market order, with one write — so the bytes are
//! the same for any `jobs`. Nothing is rewritten in place and nothing
//! is fsynced.
//!
//! ```text
//! <dir>/checkpoints.journal   (or the explicit file)
//!   header                    magic 89 'F' 'C' 'J' 0D 0A 1A 0A,
//!                             "faircrowd-journal", version 1
//!   record, repeated          u64 LE length, market name,
//!                             a "faircrowd-checkpoint" v2 body
//!                             (layout in [`crate::checkpoint`]),
//!                             u64 LE word-wise FNV-1a checksum
//! <dir>/checkpoints.journal.tmp
//!                             a compaction in progress
//! ```
//!
//! A market resumes from its newest intact record. Opening the journal
//! cuts a torn or corrupt tail (a kill mid-write) with a notice, so the
//! market it held resumes from its previous record. When superseded
//! records outweigh both the live ones and 8 MiB, the live records are
//! copied to the `.tmp` file and renamed over the journal; a leftover
//! `.tmp` is deleted on open. A file at the journal path that is not a
//! journal is refused by name and never written. A single checkpoint
//! from before the journal — at the journal path, or as
//! `<dir>/<market>.checkpoint` for a market the journal has no record
//! of — is named in a notice and not read: that market replays once.
//!
//! Neither name ends in `.fcb` or `.jsonl`, so a checkpoint directory
//! shared with the traces is never discovered as a market.
//!
//! Failure isolation is per market: a stream that breaks mid-line, a
//! trace that violates arrival order, or a stream that closes without
//! ever declaring its schema header marks **that market** failed with
//! a line-tagged error and the daemon keeps serving the rest.

use crate::audit::{AuditConfig, FairnessReport};
use crate::axiom::AxiomId;
use crate::journal::{self, Journal, Record};
use crate::live::{LiveAuditor, LiveFinding};
use faircrowd_model::codec;
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::trace::Trace;
use faircrowd_model::trace_bin;
use faircrowd_model::trace_io::{JsonlHeader, JsonlReader, JsonlRecord};
use faircrowd_pay::wage::WageStats;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};

/// How an [`AuditDaemon`] is configured.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The audit configuration every market's auditor runs under.
    pub audit: AuditConfig,
    /// Shard (thread) count for each poll round. Clamped to at least 1.
    pub jobs: usize,
    /// Where checkpoints are written and resumed from: the journal
    /// `<dir>/checkpoints.journal`, shared by every market. `None`
    /// disables checkpointing for markets registered without an
    /// explicit checkpoint file.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint a market after this many newly ingested events
    /// (cadence, not an exact stride: snapshots are taken between poll
    /// rounds). Must be at least 1 to matter.
    pub checkpoint_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            audit: AuditConfig::default(),
            jobs: 1,
            checkpoint_dir: None,
            checkpoint_every: 512,
        }
    }
}

/// One discovered market stream: a name and the trace file backing it —
/// a growing JSONL stream, or a finished `.fcb` recording ingested in
/// one shot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MarketSource {
    /// Market id — the file stem of `<market>.jsonl` / `<market>.fcb`.
    pub market: String,
    /// The backing trace file.
    pub path: PathBuf,
}

impl MarketSource {
    /// Discover every `<market>.jsonl` and `<market>.fcb` in a
    /// directory, sorted by market name. Other entries are ignored; an
    /// unreadable directory is an [`FaircrowdError::Io`] carrying the
    /// path; a market stem present in **both** formats is a
    /// [`FaircrowdError::Persist`] naming the stem (two files claiming
    /// one market is an operator mistake — silently picking either
    /// would audit half the story).
    pub fn discover(dir: impl AsRef<Path>) -> Result<Vec<MarketSource>, FaircrowdError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| FaircrowdError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let mut sources = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| FaircrowdError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            let path = entry.path();
            if !matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("jsonl") | Some("fcb")
            ) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            sources.push(MarketSource {
                market: stem.to_owned(),
                path,
            });
        }
        sources.sort();
        for pair in sources.windows(2) {
            if pair[0].market == pair[1].market {
                return Err(FaircrowdError::persist(format!(
                    "market `{}` has both `{}` and `{}` in `{}`; keep exactly one trace \
                     file per market",
                    pair[0].market,
                    pair[0]
                        .path
                        .file_name()
                        .unwrap_or_default()
                        .to_string_lossy(),
                    pair[1]
                        .path
                        .file_name()
                        .unwrap_or_default()
                        .to_string_lossy(),
                    dir.display(),
                )));
            }
        }
        Ok(sources)
    }
}

/// One finding in the daemon's merged output stream, tagged with the
/// market it came from (the finding itself carries the seq).
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonFinding {
    /// The originating market.
    pub market: String,
    /// The finding, exactly as the market's own auditor emitted it.
    pub finding: LiveFinding,
}

impl std::fmt::Display for DaemonFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.market, self.finding)
    }
}

/// One market's closing audit artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// The market.
    pub market: String,
    /// The closing fairness report — bit-identical to a batch audit of
    /// the same stream.
    pub report: FairnessReport,
    /// Effective hourly-wage statistics off the same index.
    pub wages: Option<WageStats>,
    /// Workers declared over the stream's lifetime.
    pub workers: usize,
    /// Tasks declared over the stream's lifetime.
    pub tasks: usize,
    /// Events ingested over the stream's lifetime (across restarts).
    pub events: usize,
    /// The checkpoint seq this market resumed from, if it did.
    pub resumed_from: Option<u64>,
}

/// A file tail: the open handle plus the raw bytes of a trailing
/// partial line. Bytes are carried raw (not as `&str`) so a poll that
/// catches a half-written multi-byte character waits for the rest
/// instead of aborting.
#[derive(Debug)]
struct MarketTail {
    file: std::fs::File,
    path: PathBuf,
    carry: Vec<u8>,
}

#[derive(Debug)]
struct Market {
    name: String,
    shard: usize,
    tail: Option<MarketTail>,
    /// A decoded `.fcb` recording, ingested whole at the next poll.
    recording: Option<Trace>,
    /// Lines queued by [`AuditDaemon::feed_line`], drained each round.
    pending: Vec<String>,
    auditor: LiveAuditor,
    reader: JsonlReader,
    header_applied: bool,
    /// Lines still to skip before feeding — the consumed prefix of a
    /// resumed stream.
    skip_lines: u64,
    resumed_from: Option<u64>,
    /// How many findings the checkpoint restored: the first entries of
    /// the auditor's list, which only ever grows at its end.
    restored: usize,
    /// The journal this market's checkpoints are appended to and
    /// resumed from.
    checkpoint: Option<PathBuf>,
    /// `events_seen` at the last checkpoint write.
    last_checkpoint: u64,
    failed: Option<String>,
}

struct RoundResult {
    market: String,
    findings: Vec<LiveFinding>,
    error: Option<String>,
    /// The market's checkpoint, framed for its journal, when one was due.
    record: Option<Record>,
}

/// The long-running multi-market audit service. See the
/// [module docs](self) for the full contract.
#[derive(Debug)]
pub struct AuditDaemon {
    config: DaemonConfig,
    markets: BTreeMap<String, Market>,
    /// One open journal per checkpoint target, by path.
    journals: BTreeMap<PathBuf, Journal>,
    notices: Vec<String>,
}

impl AuditDaemon {
    /// A daemon with no markets yet. `jobs` is clamped to at least 1.
    pub fn new(mut config: DaemonConfig) -> Self {
        config.jobs = config.jobs.max(1);
        AuditDaemon {
            config,
            markets: BTreeMap::new(),
            journals: BTreeMap::new(),
            notices: Vec::new(),
        }
    }

    /// Open a daemon over a set of discovered sources — the
    /// `faircrowd serve <dir>` entry point. Each market resumes from
    /// its checkpoint when one loads cleanly, and otherwise replays its
    /// trace from the start (the fallback is a notice, never an error).
    pub fn open(config: DaemonConfig, sources: Vec<MarketSource>) -> Self {
        let mut daemon = AuditDaemon::new(config);
        for source in sources {
            daemon.add_source(source);
        }
        daemon
    }

    /// Register a file-backed market, checkpointed to the journal
    /// `<dir>/checkpoints.journal` when the configuration names a
    /// checkpoint directory. The file's first bytes pick its format,
    /// whatever its extension: a file that starts with the `.fcb`
    /// magic is a finished recording, decoded now through the binary
    /// load gates and ingested at the next [`AuditDaemon::poll`];
    /// anything else is a JSONL stream, which need not have content
    /// yet and is tailed from the next poll. Open and decode failures
    /// fail the market (named, positioned), never the daemon.
    pub fn add_source(&mut self, source: MarketSource) {
        let checkpoint = self.dir_journal();
        self.add_source_with_checkpoint(source, checkpoint);
    }

    /// [`AuditDaemon::add_source`] with an explicit checkpoint journal
    /// file for this market (`None`: not checkpointed) instead of the
    /// configured directory's — `faircrowd watch --checkpoint FILE`.
    /// Markets given the same file share one journal.
    pub fn add_source_with_checkpoint(
        &mut self,
        source: MarketSource,
        checkpoint: Option<PathBuf>,
    ) {
        let mut market = self.make_market(source.market.clone(), checkpoint);
        match open_trace(&source.path) {
            Ok(Opened::Stream(tail)) => market.tail = Some(tail),
            Ok(Opened::Recording(trace)) => market.recording = Some(trace),
            Err(err) => {
                self.notices
                    .push(format!("market `{}` failed: {err}", market.name));
                market.failed = Some(err);
            }
        }
        self.markets.insert(source.market, market);
    }

    /// Register (or get) a fed-lines market and queue one line for it —
    /// the consumption route for a multiplexed stream: route each line
    /// by its market tag. Lines are processed at the next
    /// [`AuditDaemon::poll`].
    pub fn feed_line(&mut self, market: &str, line: impl Into<String>) {
        if !self.markets.contains_key(market) {
            let checkpoint = self.dir_journal();
            let created = self.make_market(market.to_owned(), checkpoint);
            self.markets.insert(market.to_owned(), created);
        }
        self.markets
            .get_mut(market)
            .expect("just inserted")
            .pending
            .push(line.into());
    }

    /// `<dir>/checkpoints.journal` under the configured checkpoint
    /// directory, if there is one.
    fn dir_journal(&self) -> Option<PathBuf> {
        let dir = self.config.checkpoint_dir.as_deref()?;
        Some(dir.join(journal::FILE_NAME))
    }

    /// Build a market, resuming from its newest journal record when
    /// there is one and it loads cleanly.
    fn make_market(&mut self, name: String, checkpoint: Option<PathBuf>) -> Market {
        let mut market = Market {
            shard: shard_of(&name),
            name,
            tail: None,
            recording: None,
            pending: Vec::new(),
            auditor: LiveAuditor::new(self.config.audit.clone()),
            reader: JsonlReader::new(),
            header_applied: false,
            skip_lines: 0,
            resumed_from: None,
            restored: 0,
            checkpoint,
            last_checkpoint: 0,
            failed: None,
        };
        let Some(path) = market.checkpoint.clone() else {
            return market;
        };
        if !self.journals.contains_key(&path) {
            let (journal, notice) = Journal::open(&path);
            self.notices.extend(notice);
            self.journals.insert(path.clone(), journal);
        }
        let name = &market.name;
        let Some(loaded) = self.journals[&path].load(name) else {
            self.notices.extend(self.fresh_start_notice(name, &path));
            return market;
        };
        let restored = loaded.and_then(|ckpt| {
            let auditor =
                LiveAuditor::resume(self.config.audit.clone(), &ckpt).map_err(|e| e.to_string())?;
            Ok((auditor, ckpt))
        });
        match restored {
            Ok((auditor, ckpt)) => {
                self.notices.push(format!(
                    "resumed market `{name}` from {}",
                    ckpt.resume_note()
                ));
                market.reader =
                    JsonlReader::resume(ckpt.jsonl_header(), ckpt.source_lines() as usize);
                market.header_applied = true;
                market.skip_lines = ckpt.source_lines();
                market.resumed_from = Some(ckpt.seq());
                market.restored = auditor.findings().len();
                market.last_checkpoint = ckpt.seq();
                market.auditor = auditor;
            }
            Err(e) => self.notices.push(format!(
                "checkpoint for market `{name}` is unusable ({e}); replaying from the trace"
            )),
        }
        market
    }

    /// Why a market whose journal has no record of it starts from
    /// scratch, when there is more to say than that it is new: beside
    /// the directory journal, a checkpoint file of its own from before
    /// the journal; in an explicit journal, the other markets it holds
    /// (`watch` names its market by the path as given).
    fn fresh_start_notice(&self, name: &str, path: &Path) -> Option<String> {
        if Some(path) == self.dir_journal().as_deref() {
            let dir = self.config.checkpoint_dir.as_deref()?;
            let old = dir.join(format!("{name}.checkpoint"));
            return old.exists().then(|| {
                format!(
                    "market `{name}`: `{}` is a checkpoint from before the checkpoint journal \
                     and is not read; replaying from the trace",
                    old.display()
                )
            });
        }
        let held: Vec<String> = self.journals[path]
            .markets()
            .map(|m| format!("`{m}`"))
            .collect();
        if held.is_empty() {
            return None;
        }
        Some(format!(
            "checkpoint journal `{}` has no record for market `{name}`, only for {}; \
             replaying from the trace",
            path.display(),
            held.join(", ")
        ))
    }

    /// Number of registered markets.
    pub fn market_count(&self) -> usize {
        self.markets.len()
    }

    /// Markets that failed, with their errors.
    pub fn failed_markets(&self) -> Vec<(&str, &str)> {
        self.markets
            .values()
            .filter_map(|m| m.failed.as_deref().map(|e| (m.name.as_str(), e)))
            .collect()
    }

    /// Total lines consumed across all markets — the poll loop's
    /// progress measure (unchanged after a poll means the streams are
    /// idle).
    pub fn total_lines(&self) -> u64 {
        self.markets
            .values()
            .map(|m| m.reader.lines_fed() as u64)
            .sum()
    }

    /// Total events ingested across all markets, over each stream's
    /// whole lifetime (restored prefixes included).
    pub fn total_events(&self) -> u64 {
        self.markets
            .values()
            .map(|m| m.auditor.events_seen() as u64)
            .sum()
    }

    /// The live auditor of a registered market: its mirrored trace is
    /// the market as ingested so far.
    pub fn auditor(&self, market: &str) -> Option<&LiveAuditor> {
        self.markets.get(market).map(|m| &m.auditor)
    }

    /// The findings a restarted daemon restored from checkpoints, in
    /// the same merged order [`AuditDaemon::poll`] uses — printed
    /// before fresh findings, a restarted `serve`'s output is the
    /// complete finding history of every stream.
    pub fn restored_findings(&self) -> Vec<DaemonFinding> {
        let mut out = Vec::new();
        for m in self.markets.values() {
            out.extend(
                m.auditor.findings()[..m.restored]
                    .iter()
                    .map(|f| DaemonFinding {
                        market: m.name.clone(),
                        finding: f.clone(),
                    }),
            );
        }
        out
    }

    /// Operational notices (checkpoint resumes and fallbacks, write
    /// failures, per-market failures) accumulated since the last drain.
    pub fn take_notices(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notices)
    }

    /// One poll round: every live market ingests whatever its file grew
    /// by (or its pending recording, plus any fed lines), and
    /// checkpoints when its cadence is due — shards running
    /// concurrently on a scoped thread pool. Returns the round's
    /// findings in the merged deterministic order (market name, then
    /// per-market emission order). Per-market errors fail that market
    /// only.
    pub fn poll(&mut self) -> Vec<DaemonFinding> {
        let every = self.config.checkpoint_every;
        self.round(move |m| run_market(m, every))
    }

    /// Close every stream: ingest what is left (a trailing partial line
    /// included), fail any market that never declared a schema header,
    /// write a final checkpoint per market so even a post-finalize
    /// restart restores the complete state, and finalize each auditor
    /// (end-of-stream findings). Returns the closing findings in the
    /// same merged order as [`AuditDaemon::poll`].
    pub fn finalize(&mut self) -> Vec<DaemonFinding> {
        self.round(finalize_market)
    }

    /// Run `step` over every live market, shards on a scoped thread
    /// pool, and merge the results.
    fn round(&mut self, step: impl Fn(&mut Market) -> RoundResult + Sync) -> Vec<DaemonFinding> {
        let jobs = self.config.jobs;
        let step = &step;
        let mut shards: Vec<Vec<&mut Market>> = (0..jobs).map(|_| Vec::new()).collect();
        for m in self.markets.values_mut() {
            if m.failed.is_none() {
                shards[m.shard % jobs].push(m);
            }
        }
        let results: Vec<RoundResult> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .filter(|shard| !shard.is_empty())
                .map(|shard| {
                    s.spawn(move || shard.into_iter().map(step).collect::<Vec<RoundResult>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        self.merge(results)
    }

    /// Per-market closing artifacts, sorted by market name. Failed
    /// markets are skipped (their errors stay on
    /// [`AuditDaemon::failed_markets`]). A market that watched its
    /// whole stream is also referentially validated, exactly like a
    /// batch replay; a resumed market skips that gate — its prefix was
    /// validated before the checkpoint was taken, and the tail was
    /// validated event by event.
    pub fn reports(&self) -> Result<Vec<DaemonReport>, FaircrowdError> {
        let mut out = Vec::new();
        for m in self.markets.values() {
            if m.failed.is_some() {
                continue;
            }
            if m.resumed_from.is_none() {
                m.auditor.trace().ensure_valid().map_err(|e| match e {
                    FaircrowdError::InvalidTrace { problems } => FaircrowdError::InvalidTrace {
                        problems: problems
                            .into_iter()
                            .map(|p| format!("market `{}`: {p}", m.name))
                            .collect(),
                    },
                    other => other,
                })?;
            }
            let (report, wages) = m.auditor.final_artifacts(&AxiomId::ALL);
            out.push(DaemonReport {
                market: m.name.clone(),
                report,
                wages,
                workers: m.auditor.trace().workers.len(),
                tasks: m.auditor.trace().tasks.len(),
                events: m.auditor.events_seen(),
                resumed_from: m.resumed_from,
            });
        }
        Ok(out)
    }

    /// Merge one round's per-market results into the deterministic
    /// output order, fold notices/errors into daemon state, and append
    /// the round's checkpoints to their journals.
    fn merge(&mut self, mut results: Vec<RoundResult>) -> Vec<DaemonFinding> {
        results.sort_by(|a, b| a.market.cmp(&b.market));
        let mut out = Vec::new();
        let mut batches: BTreeMap<PathBuf, Vec<Record>> = BTreeMap::new();
        for r in results {
            if let Some(record) = r.record {
                let path = self.markets[&r.market].checkpoint.clone();
                batches
                    .entry(path.expect("only a checkpointed market makes a record"))
                    .or_default()
                    .push(record);
            }
            if let Some(err) = r.error {
                self.notices
                    .push(format!("market `{}` failed: {err}", r.market));
                if let Some(m) = self.markets.get_mut(&r.market) {
                    m.failed = Some(err);
                }
            }
            out.extend(r.findings.into_iter().map(|finding| DaemonFinding {
                market: r.market.clone(),
                finding,
            }));
        }
        for (path, records) in batches {
            let journal = self
                .journals
                .get_mut(&path)
                .expect("opened with its first market");
            if let Err(e) = journal.append(&records) {
                self.notices.extend(
                    records
                        .iter()
                        .map(|r| format!("market `{}`: checkpoint write failed: {e}", r.market())),
                );
            } else if let Err(e) = journal.compact_if_due(journal::COMPACT_FLOOR) {
                self.notices.push(format!(
                    "checkpoint journal `{}`: compaction failed: {e}",
                    path.display()
                ));
            }
        }
        out
    }
}

/// Stable market → shard pinning: FNV-1a over the market name. The
/// standard library's hasher is seeded per process, which would move
/// markets between shards across restarts; this hash never does.
fn shard_of(name: &str) -> usize {
    codec::fnv1a64(name.as_bytes()) as usize
}

/// A market's trace file, opened.
enum Opened {
    /// A JSONL stream to tail; its first bytes wait in the carry.
    Stream(MarketTail),
    /// A finished `.fcb` recording, decoded.
    Recording(Trace),
}

/// Open a trace file and sniff its first eight bytes: the `.fcb` magic
/// means a finished recording (the binary format has no append form),
/// decoded whole; anything else is a JSONL stream to tail.
fn open_trace(path: &Path) -> Result<Opened, String> {
    let cannot = |verb: &str, e: std::io::Error| format!("cannot {verb} `{}`: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(|e| cannot("open", e))?;
    let mut head = Vec::with_capacity(trace_bin::MAGIC.len());
    (&mut file)
        .take(trace_bin::MAGIC.len() as u64)
        .read_to_end(&mut head)
        .map_err(|e| cannot("read", e))?;
    if head != trace_bin::MAGIC {
        return Ok(Opened::Stream(MarketTail {
            file,
            path: path.to_owned(),
            carry: head,
        }));
    }
    file.read_to_end(&mut head).map_err(|e| cannot("read", e))?;
    crate::persist::decode_bytes(&head)
        .map(Opened::Recording)
        .map_err(|e| format!("`{}`: {e}", path.display()))
}

/// One market's share of a poll round, run inside its shard thread:
/// ingest what arrived, checkpoint if due.
fn run_market(m: &mut Market, every: u64) -> RoundResult {
    let mut findings = Vec::new();
    let error = ingest_arrivals(m, &mut findings).err();
    let due = m.auditor.events_seen() as u64 >= m.last_checkpoint + every.max(1);
    let record = if error.is_none() && due {
        snapshot(m)
    } else {
        None
    };
    RoundResult {
        market: m.name.clone(),
        findings,
        error,
        record,
    }
}

/// One market's share of finalization: ingest what is left (a trailing
/// partial line included), refuse a stream that never declared its
/// header, write the final checkpoint, finalize the auditor.
fn finalize_market(m: &mut Market) -> RoundResult {
    let mut findings = Vec::new();
    let closed = close_market(m, &mut findings);
    let (record, error) = match closed {
        Ok(record) => (record, None),
        Err(e) => (None, Some(e)),
    };
    RoundResult {
        market: m.name.clone(),
        findings,
        error,
        record,
    }
}

/// Close one market; returns its final checkpoint record, if it has a
/// journal.
fn close_market(m: &mut Market, findings: &mut Vec<LiveFinding>) -> Result<Option<Record>, String> {
    ingest_arrivals(m, findings)?;
    // A last line without a trailing newline is still a record.
    let carry = m.tail.as_mut().map(|t| std::mem::take(&mut t.carry));
    if let Some(carry) = carry.filter(|c| c.iter().any(|b| !b.is_ascii_whitespace())) {
        let line = utf8_line(m, &carry)?;
        findings.extend(feed_one(m, line)?);
    }
    if !m.header_applied {
        // An empty file or a whole-file JSON trace has no verdict to
        // give: auditing it would judge a default market nobody declared.
        return Err("not a JSONL trace stream (no schema header line); \
                    use `faircrowd replay` for whole-file JSON traces"
            .to_owned());
    }
    // Snapshot BEFORE finalizing: end-of-stream is this run's local
    // judgment, not a property of the log. A restart re-derives the
    // closing findings from the restored state — or keeps ingesting, if
    // the market grew in the meantime.
    let record = snapshot(m);
    findings.extend(m.auditor.finalize());
    Ok(record)
}

/// Ingest everything that arrived since the last round: the pending
/// recording, fed lines, the file's growth.
fn ingest_arrivals(m: &mut Market, findings: &mut Vec<LiveFinding>) -> Result<(), String> {
    if let Some(trace) = m.recording.take() {
        feed_recording(m, trace, findings)?;
    }
    for line in std::mem::take(&mut m.pending) {
        findings.extend(feed_one(m, &line)?);
    }
    let Some(tail) = &mut m.tail else {
        return Ok(());
    };
    tail.file
        .read_to_end(&mut tail.carry)
        .map_err(|e| format!("cannot read `{}`: {e}", tail.path.display()))?;
    // The carry leaves the tail while its lines are fed (feeding needs
    // the whole market) and goes back holding only the partial last line.
    let mut carry = std::mem::take(&mut tail.carry);
    let fed = feed_lines(m, &carry, findings)?;
    carry.drain(..fed);
    if let Some(tail) = &mut m.tail {
        tail.carry = carry;
    }
    Ok(())
}

/// Feed every complete line of `bytes`, each borrowed in place; returns
/// the bytes those lines took, so a trailing partial line stays carried.
fn feed_lines(
    m: &mut Market,
    bytes: &[u8],
    findings: &mut Vec<LiveFinding>,
) -> Result<usize, String> {
    let mut start = 0;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = utf8_line(m, &bytes[start..start + nl])?;
        findings.extend(feed_one(m, line)?);
        start += nl + 1;
    }
    Ok(start)
}

/// A tailed line as text, or an error naming the file line it is: the
/// reader's count, which already holds a resumed market's whole
/// consumed prefix, less the part of that prefix still to be skipped.
fn utf8_line<'a>(m: &Market, bytes: &'a [u8]) -> Result<&'a str, String> {
    std::str::from_utf8(bytes).map_err(|_| {
        let lineno = m.reader.lines_fed() as u64 - m.skip_lines + 1;
        format!("line {lineno}: not valid UTF-8")
    })
}

/// Snapshot the market and frame it as a journal record, if it has a
/// journal; the merge appends it. A failed append is a notice, never a
/// market failure; the next attempt waits for the next cadence point.
fn snapshot(m: &mut Market) -> Option<Record> {
    m.checkpoint.as_ref()?;
    m.last_checkpoint = m.auditor.events_seen() as u64;
    let ckpt = m.auditor.checkpoint(m.reader.lines_fed() as u64);
    Some(Record::new(&m.name, &ckpt))
}

/// Feed one line: skip it if it belongs to a resumed prefix, apply the
/// header once decoded, route records into the auditor. Errors carry
/// the absolute line number.
fn feed_one(m: &mut Market, line: &str) -> Result<Vec<LiveFinding>, String> {
    if m.skip_lines > 0 {
        m.skip_lines -= 1;
        return Ok(Vec::new());
    }
    let record = m.reader.feed_line(line).map_err(|e| e.to_string())?;
    if !m.header_applied {
        if let Some(header) = m.reader.header() {
            m.auditor.apply_header(header);
            m.header_applied = true;
        }
    }
    let Some(record) = record else {
        return Ok(Vec::new());
    };
    let lineno = m.reader.lines_fed();
    m.auditor
        .apply_record(record)
        .map_err(|e| at_line(e, lineno))
}

/// Ingest a decoded recording without spelling it out as text: its
/// header and records go straight into the auditor, in the order its
/// JSONL twin writes them, and the market's position advances one line
/// for the header and one per record — the twin's line count — so
/// checkpoints and resume address both formats alike. A resumed market
/// skips the records its checkpoint already covers.
fn feed_recording(
    m: &mut Market,
    trace: Trace,
    findings: &mut Vec<LiveFinding>,
) -> Result<(), String> {
    let Trace {
        workers,
        tasks,
        requesters,
        submissions,
        events,
        disclosure,
        horizon,
        ground_truth,
    } = trace;
    let header = JsonlHeader {
        horizon,
        disclosure,
        ground_truth,
    };
    if !m.header_applied {
        m.auditor.apply_header(&header);
        m.header_applied = true;
    }
    let records = workers
        .into_iter()
        .map(JsonlRecord::Worker)
        .chain(tasks.into_iter().map(JsonlRecord::Task))
        .chain(requesters.into_iter().map(JsonlRecord::Requester))
        .chain(submissions.into_iter().map(JsonlRecord::Submission))
        .chain(events.into_iter().map(JsonlRecord::Event));
    // Line 1 is the header; a resumed prefix covers it too.
    let skip = std::mem::take(&mut m.skip_lines).saturating_sub(1) as usize;
    let mut lineno = m.reader.lines_fed().max(1);
    for record in records.skip(skip) {
        lineno += 1;
        findings.extend(
            m.auditor
                .apply_record(record)
                .map_err(|e| at_line(e, lineno))?,
        );
    }
    m.reader = JsonlReader::resume(header, lineno);
    Ok(())
}

/// Tag an ingest error with the line it arose on: ingest-order defects
/// don't know the file position.
fn at_line(err: FaircrowdError, lineno: usize) -> String {
    match err {
        FaircrowdError::InvalidTrace { problems } => problems
            .into_iter()
            .map(|p| format!("line {lineno}: {p}"))
            .collect::<Vec<_>>()
            .join("; "),
        other => format!("line {lineno}: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use crate::{checkpoint, persist};
    use faircrowd_model::contribution::Contribution;
    use faircrowd_model::trace::Trace;

    /// A small trace with A1 + A3 violations.
    fn violating_trace() -> Trace {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 10)]);
        show(&mut trace, 1, 0, 0);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        trace
    }

    /// The reference: one uninterrupted single-stream audit.
    fn reference(trace: &Trace) -> (Vec<LiveFinding>, crate::FairnessReport) {
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        let mut findings = auditor.ingest_trace(trace).unwrap();
        findings.extend(auditor.finalize());
        (findings, auditor.final_report())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc_daemon_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A journal at `path` holding exactly `records`.
    fn write_journal(path: &Path, records: &[Record]) {
        std::fs::remove_file(path).ok();
        let (mut journal, notice) = Journal::open(path);
        assert_eq!(notice, None);
        journal.append(records).unwrap();
    }

    /// The newest checkpoint the journal at `path` holds for `market`.
    fn newest(path: &Path, market: &str) -> checkpoint::Checkpoint {
        Journal::open(path).0.load(market).unwrap().unwrap()
    }

    #[test]
    fn two_markets_match_their_single_stream_references() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let mut daemon = AuditDaemon::new(DaemonConfig {
            jobs: 4,
            ..DaemonConfig::default()
        });
        for market in ["alpha", "beta"] {
            for line in jsonl.lines() {
                daemon.feed_line(market, line);
            }
        }
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let (want_findings, want_report) = reference(&trace);
        for market in ["alpha", "beta"] {
            let got: Vec<&LiveFinding> = merged
                .iter()
                .filter(|f| f.market == market)
                .map(|f| &f.finding)
                .collect();
            assert_eq!(got.len(), want_findings.len(), "{market}");
            for (g, w) in got.iter().zip(&want_findings) {
                assert_eq!(*g, w, "{market}");
            }
        }
        let reports = daemon.reports().unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.report, want_report, "{}", r.market);
            assert_eq!(r.resumed_from, None);
        }
    }

    #[test]
    fn merged_order_is_market_sorted_and_emission_ordered() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let mut daemon = AuditDaemon::new(DaemonConfig {
            jobs: 3,
            ..DaemonConfig::default()
        });
        // Interleave the feeds; the merge must not care.
        for line in jsonl.lines() {
            for market in ["zeta", "alpha", "mid"] {
                daemon.feed_line(market, line);
            }
        }
        let polled = daemon.poll();
        let closed = daemon.finalize();
        for round in [&polled, &closed] {
            let order: Vec<&str> = round.iter().map(|f| f.market.as_str()).collect();
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(order, sorted, "each round groups markets in sorted order");
        }
        let merged: Vec<DaemonFinding> = polled.into_iter().chain(closed).collect();
        // Within a market, the subsequence equals the reference stream.
        let (want, _) = reference(&trace);
        let alpha: Vec<&LiveFinding> = merged
            .iter()
            .filter(|f| f.market == "alpha")
            .map(|f| &f.finding)
            .collect();
        assert_eq!(alpha.len(), want.len());
    }

    #[test]
    fn checkpoint_restart_resumes_without_replaying() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let dir = temp_dir("resume");
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..DaemonConfig::default()
        };
        // First life: all but the last two events, then the process
        // "dies". (The cut must land after at least one event line —
        // checkpoints are due by ingested-event cadence, not by line.)
        let mut first = AuditDaemon::new(config.clone());
        let cut = lines.len() - 2;
        for line in &lines[..cut] {
            first.feed_line("m", *line);
        }
        let before_kill = first.poll();
        assert!(first.take_notices().iter().all(|n| !n.contains("failed")),);
        drop(first);
        // Second life: resume, replay the WHOLE stream (a tailer
        // re-reads the file from the start); the consumed prefix is
        // skipped by line count, the rest ingested.
        let mut second = AuditDaemon::new(config);
        for line in &lines {
            second.feed_line("m", *line);
        }
        let notices_checked = {
            let mut merged = second.poll();
            merged.extend(second.finalize());
            let notices = second.take_notices();
            assert!(
                notices.iter().any(|n| n.contains("resumed market `m`")),
                "{notices:?}"
            );
            merged
        };
        let restored = second.restored_findings();
        let (want_findings, want_report) = reference(&trace);
        let complete: Vec<&LiveFinding> = restored
            .iter()
            .map(|f| &f.finding)
            .chain(notices_checked.iter().map(|f| &f.finding))
            .collect();
        assert_eq!(complete.len(), want_findings.len());
        for (g, w) in complete.iter().zip(&want_findings) {
            assert_eq!(*g, w);
        }
        // Restored findings cover exactly what the first life emitted.
        assert_eq!(restored.len(), before_kill.len());
        let reports = second.reports().unwrap();
        assert_eq!(reports[0].report, want_report);
        assert!(reports[0].resumed_from.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_notice_names_the_findings_the_cap_dropped() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let mut capped = LiveAuditor::new(AuditConfig::default()).max_live_findings(2);
        capped.ingest_trace(&trace).unwrap();
        let dropped = capped.suppressed_findings();
        assert!(dropped > 0, "the fixture must overflow a cap of 2");
        let dir = temp_dir("capped");
        let ckpt = capped.checkpoint(lines.len() as u64);
        write_journal(&dir.join(journal::FILE_NAME), &[Record::new("m", &ckpt)]);
        let mut daemon = AuditDaemon::new(DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        });
        for line in &lines {
            daemon.feed_line("m", *line);
        }
        daemon.poll();
        let notices = daemon.take_notices();
        let want = format!("{dropped} finding(s) past the retention cap of 2 were not restored");
        assert!(
            notices
                .iter()
                .any(|n| n.contains("resumed market `m` from checkpoint seq") && n.contains(&want)),
            "{notices:?}"
        );
        assert_eq!(daemon.restored_findings().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_stream_file_fails_its_market() {
        let dir = temp_dir("missing");
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        daemon.add_source(MarketSource {
            market: "gone".into(),
            path: dir.join("gone.jsonl"),
        });
        let failed = daemon.failed_markets();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].1.contains("cannot open"), "{}", failed[0].1);
        assert!(daemon.poll().is_empty() && daemon.finalize().is_empty());
        assert!(daemon.reports().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_replay() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let dir = temp_dir("fallback");
        // An intact record whose body is no checkpoint.
        let garbage = Record::frame("m", |out| out.extend_from_slice(b"{\"schema\": \"garb"));
        write_journal(&dir.join(journal::FILE_NAME), &[garbage]);
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1_000_000,
            ..DaemonConfig::default()
        };
        let mut daemon = AuditDaemon::new(config);
        for line in jsonl.lines() {
            daemon.feed_line("m", line);
        }
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let notices = daemon.take_notices();
        assert!(
            notices
                .iter()
                .any(|n| n.contains("unusable") && n.contains("replaying from the trace")),
            "{notices:?}"
        );
        let (want_findings, want_report) = reference(&trace);
        assert_eq!(merged.len(), want_findings.len());
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_broken_market_fails_alone() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        for line in jsonl.lines() {
            daemon.feed_line("good", line);
        }
        daemon.feed_line("bad", "{not json");
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let failed = daemon.failed_markets();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "bad");
        assert!(failed[0].1.contains("line 1"), "{}", failed[0].1);
        let (want, _) = reference(&trace);
        assert_eq!(merged.len(), want.len(), "good market is unaffected");
        assert_eq!(daemon.reports().unwrap().len(), 1);
    }

    #[test]
    fn shard_pinning_is_stable() {
        assert_eq!(shard_of("market-1"), shard_of("market-1"));
        // FNV-1a of distinct names is distinct here (sanity, not a
        // collision guarantee).
        assert_ne!(shard_of("market-1") % 7, shard_of("market-2") % 7);
    }

    #[test]
    fn file_backed_markets_tail_growing_files() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let dir = temp_dir("tail");
        let path = dir.join("m.jsonl");
        let half = lines.len() / 2;
        std::fs::write(&path, format!("{}\n", lines[..half].join("\n"))).unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        daemon.add_source(MarketSource {
            market: "m".into(),
            path: path.clone(),
        });
        let mut merged = daemon.poll();
        // The file grows; a later poll picks up the rest.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        use std::io::Write;
        writeln!(file, "{}", lines[half..].join("\n")).unwrap();
        drop(file);
        merged.extend(daemon.poll());
        merged.extend(daemon.finalize());
        let (want, want_report) = reference(&trace);
        assert_eq!(merged.len(), want.len());
        for (g, w) in merged.iter().zip(&want) {
            assert_eq!(&g.finding, w);
        }
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_utf8_in_a_tailed_file_names_its_line() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&[u8]> = jsonl.lines().map(str::as_bytes).collect();
        let bad: &[u8] = b"{\"event\":\xff}";
        let dir = temp_dir("utf8");
        let path = dir.join("m.jsonl");
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..DaemonConfig::default()
        };
        let failure = |daemon: &AuditDaemon| {
            let failed = daemon.failed_markets();
            assert_eq!(failed.len(), 1, "{failed:?}");
            failed[0].1.to_owned()
        };
        let open = || {
            let mut daemon = AuditDaemon::new(config.clone());
            daemon.add_source(MarketSource {
                market: "m".into(),
                path: path.clone(),
            });
            daemon
        };
        // Fresh: a complete bad line 3, and a bad last line with no
        // newline, read at finalize.
        std::fs::write(&path, [lines[0], lines[1], bad, lines[2]].join(&b'\n')).unwrap();
        let mut daemon = open();
        daemon.poll();
        assert_eq!(failure(&daemon), "line 3: not valid UTF-8");
        std::fs::write(&path, [lines[0], lines[1], bad].join(&b'\n')).unwrap();
        let mut daemon = open();
        daemon.poll();
        assert!(daemon.failed_markets().is_empty());
        daemon.finalize();
        assert_eq!(failure(&daemon), "line 3: not valid UTF-8");
        // Resumed: the first life checkpoints `cut` lines; the second
        // skips them by count and still names absolute lines.
        let cut = lines.len() - 2;
        let mut prefix = lines[..cut].join(&b'\n');
        prefix.push(b'\n');
        std::fs::write(&path, &prefix).unwrap();
        let mut first = open();
        first.poll();
        assert!(first.failed_markets().is_empty());
        drop(first);
        std::fs::write(&path, [&prefix[..], lines[cut], b"\n", bad, b"\n"].concat()).unwrap();
        let mut second = open();
        second.poll();
        assert!(second.take_notices()[0].contains("resumed market `m`"));
        assert_eq!(
            failure(&second),
            format!("line {}: not valid UTF-8", cut + 2)
        );
        // A bad byte inside the prefix being skipped is still checked.
        let mut rewritten = lines.clone();
        rewritten[1] = bad;
        std::fs::write(&path, rewritten.join(&b'\n')).unwrap();
        let mut third = open();
        third.poll();
        assert_eq!(failure(&third), "line 2: not valid UTF-8");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_finds_both_stream_and_recording_markets() {
        let trace = violating_trace();
        let dir = temp_dir("discover");
        std::fs::write(
            dir.join("stream.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        std::fs::write(
            dir.join("recording.fcb"),
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let sources = MarketSource::discover(dir.to_str().unwrap()).unwrap();
        let names: Vec<&str> = sources.iter().map(|s| s.market.as_str()).collect();
        assert_eq!(names, ["recording", "stream"], "sorted, txt ignored");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_format_market_is_a_named_error_not_a_silent_skip() {
        let trace = violating_trace();
        let dir = temp_dir("mixed");
        std::fs::write(
            dir.join("m.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        std::fs::write(
            dir.join("m.fcb"),
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        let err = MarketSource::discover(dir.to_str().unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("market `m`"), "{msg}");
        assert!(msg.contains("m.jsonl") && msg.contains("m.fcb"), "{msg}");
        assert!(msg.contains("keep exactly one"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recording_market_matches_the_single_stream_reference() {
        let trace = violating_trace();
        let dir = temp_dir("fcb");
        let path = dir.join("m.fcb");
        std::fs::write(
            &path,
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        daemon.add_source(MarketSource {
            market: "m".into(),
            path,
        });
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let (want, want_report) = reference(&trace);
        assert_eq!(merged.len(), want.len());
        for (g, w) in merged.iter().zip(&want) {
            assert_eq!(&g.finding, w);
        }
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_recording_fails_its_market_alone() {
        let trace = violating_trace();
        let dir = temp_dir("badfcb");
        let mut bytes = persist::encode_bytes(&trace, persist::TraceFormat::Binary);
        bytes.truncate(bytes.len() / 2);
        std::fs::write(dir.join("bad.fcb"), &bytes).unwrap();
        std::fs::write(
            dir.join("good.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        for source in MarketSource::discover(dir.to_str().unwrap()).unwrap() {
            daemon.add_source(source);
        }
        let notices = daemon.take_notices();
        assert!(
            notices
                .iter()
                .any(|n| n.contains("bad") && n.contains("failed")),
            "{notices:?}"
        );
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let failed = daemon.failed_markets();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "bad");
        assert!(failed[0].1.contains("bad.fcb"), "{}", failed[0].1);
        let (want, _) = reference(&trace);
        assert_eq!(merged.len(), want.len(), "good market is unaffected");
        assert_eq!(daemon.reports().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stream_without_a_header_fails_at_finalize_and_alone() {
        let trace = violating_trace();
        let dir = temp_dir("noheader");
        std::fs::write(dir.join("empty.jsonl"), "").unwrap();
        std::fs::write(
            dir.join("good.jsonl"),
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        for source in MarketSource::discover(&dir).unwrap() {
            daemon.add_source(source);
        }
        let mut merged = daemon.poll();
        assert!(
            daemon.failed_markets().is_empty(),
            "an empty stream may still grow"
        );
        merged.extend(daemon.finalize());
        let failed = daemon.failed_markets();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "empty");
        assert!(
            failed[0]
                .1
                .contains("not a JSONL trace stream (no schema header line)"),
            "{}",
            failed[0].1
        );
        assert!(daemon
            .take_notices()
            .iter()
            .any(|n| n.starts_with("market `empty` failed: not a JSONL trace stream")));
        let (want, want_report) = reference(&trace);
        assert_eq!(merged.len(), want.len(), "good market is unaffected");
        let reports = daemon.reports().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_is_chosen_by_content_not_extension() {
        let trace = violating_trace();
        let dir = temp_dir("sniff");
        let path = dir.join("m.trace");
        std::fs::write(
            &path,
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        daemon.add_source(MarketSource {
            market: "m".into(),
            path,
        });
        let mut merged = daemon.poll();
        merged.extend(daemon.finalize());
        let (want, want_report) = reference(&trace);
        assert_eq!(merged.len(), want.len());
        assert_eq!(daemon.reports().unwrap()[0].report, want_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One daemon life over `path` as market `m`, checkpointed to
    /// `ckpt` at every event: restored plus fresh findings, and the
    /// closing report.
    fn checkpointed_life(path: &Path, ckpt: &Path) -> (Vec<LiveFinding>, DaemonReport) {
        let (findings, report, _) = noted_life(path, ckpt);
        (findings, report)
    }

    /// [`checkpointed_life`], with the life's notices.
    fn noted_life(path: &Path, ckpt: &Path) -> (Vec<LiveFinding>, DaemonReport, Vec<String>) {
        let mut daemon = AuditDaemon::new(DaemonConfig {
            checkpoint_every: 1,
            ..DaemonConfig::default()
        });
        let source = MarketSource {
            market: "m".into(),
            path: path.to_owned(),
        };
        daemon.add_source_with_checkpoint(source, Some(ckpt.to_owned()));
        let findings: Vec<LiveFinding> = daemon
            .restored_findings()
            .into_iter()
            .chain(daemon.poll())
            .chain(daemon.finalize())
            .map(|f| f.finding)
            .collect();
        let notices = daemon.take_notices();
        assert!(daemon.failed_markets().is_empty(), "{notices:?}");
        (findings, daemon.reports().unwrap().remove(0), notices)
    }

    #[test]
    fn a_recording_and_its_jsonl_twin_share_one_position() {
        let config = faircrowd_sim::catalog::get("spam_campaign").unwrap();
        let trace = faircrowd_sim::Simulation::new(config).run();
        let dir = temp_dir("twins");
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let (twin, recording) = (dir.join("m.jsonl"), dir.join("m.fcb"));
        std::fs::write(&twin, &jsonl).unwrap();
        std::fs::write(
            &recording,
            persist::encode_bytes(&trace, persist::TraceFormat::Binary),
        )
        .unwrap();
        let (twin_ck, recording_ck) = (dir.join("twin.journal"), dir.join("rec.journal"));

        // Uninterrupted, the two formats audit alike and append the
        // same journal records, byte for byte.
        let (want, want_report) = checkpointed_life(&twin, &twin_ck);
        assert_eq!(
            checkpointed_life(&recording, &recording_ck),
            (want.clone(), want_report.clone())
        );
        assert_eq!(
            std::fs::read(&twin_ck).unwrap(),
            std::fs::read(&recording_ck).unwrap()
        );

        // Each format resumes from the other's checkpoint to the same
        // finding stream and report.
        let resumed_report = DaemonReport {
            resumed_from: Some(trace.events.len() as u64),
            ..want_report.clone()
        };
        for (path, ckpt) in [(&twin, &recording_ck), (&recording, &twin_ck)] {
            let (findings, report) = checkpointed_life(path, ckpt);
            assert_eq!(findings, want, "{}", path.display());
            assert_eq!(report, resumed_report, "{}", path.display());
        }

        // A checkpoint taken mid-stream by the JSONL twin resumes the
        // recording: the records it covers are skipped by position.
        let lines: Vec<&str> = jsonl.lines().collect();
        let cut = lines.len() * 2 / 3;
        let half = dir.join("half.jsonl");
        std::fs::write(&half, format!("{}\n", lines[..cut].join("\n"))).unwrap();
        let mid_ck = dir.join("mid.journal");
        let mut first = AuditDaemon::new(DaemonConfig {
            checkpoint_every: 1,
            ..DaemonConfig::default()
        });
        first.add_source_with_checkpoint(
            MarketSource {
                market: "m".into(),
                path: half,
            },
            Some(mid_ck.clone()),
        );
        first.poll();
        drop(first);
        let seq = newest(&mid_ck, "m").seq();
        assert!(seq > 0 && seq < trace.events.len() as u64);
        let (findings, report) = checkpointed_life(&recording, &mid_ck);
        assert_eq!(findings, want);
        assert_eq!(
            report,
            DaemonReport {
                resumed_from: Some(seq),
                ..want_report
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One daemon life fed all of `lines` for each of `markets`:
    /// restored plus fresh findings by market, the reports, the notices.
    fn fed_life(
        config: &DaemonConfig,
        markets: &[&str],
        lines: &[&str],
    ) -> (
        BTreeMap<String, Vec<LiveFinding>>,
        Vec<DaemonReport>,
        Vec<String>,
    ) {
        let mut daemon = AuditDaemon::new(config.clone());
        for market in markets {
            for line in lines {
                daemon.feed_line(market, *line);
            }
        }
        let mut found: BTreeMap<String, Vec<LiveFinding>> = BTreeMap::new();
        let all = daemon
            .restored_findings()
            .into_iter()
            .chain(daemon.poll())
            .chain(daemon.finalize());
        for f in all {
            found.entry(f.market).or_default().push(f.finding);
        }
        let notices = daemon.take_notices();
        assert!(daemon.failed_markets().is_empty(), "{notices:?}");
        (found, daemon.reports().unwrap(), notices)
    }

    #[test]
    fn a_torn_or_corrupt_last_record_costs_its_market_one_checkpoint() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let dir = temp_dir("torn");
        let path = dir.join(journal::FILE_NAME);
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..DaemonConfig::default()
        };
        // First life: two rounds, each checkpointing both markets, so
        // `b`'s second record ends the journal.
        let mut first = AuditDaemon::new(config.clone());
        let mut seqs = Vec::new();
        let mut fed = 0;
        for cut in [lines.len() - 3, lines.len() - 1] {
            for market in ["a", "b"] {
                for line in &lines[fed..cut] {
                    first.feed_line(market, *line);
                }
            }
            fed = cut;
            first.poll();
            seqs.push(first.auditor("b").unwrap().events_seen() as u64);
        }
        assert!(seqs[0] > 0 && seqs[0] < seqs[1]);
        drop(first);
        let pristine = std::fs::read(&path).unwrap();
        let last = Journal::open(&path).0.span("b").unwrap();
        assert_eq!(last.end, pristine.len());
        let (want, want_report) = reference(&trace);
        let resumed = |market: &str, seq: u64| {
            format!("resumed market `{market}` from checkpoint seq {seq} (")
        };
        // Kill mid-write at every byte of the last record, or flip any
        // one of its bytes: `b` loses that record and nothing else.
        for at in last.clone() {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0xff;
            for (how, bytes) in [("cut", &pristine[..at]), ("flipped", &flipped[..])] {
                std::fs::write(&path, bytes).unwrap();
                let (found, reports, notices) = fed_life(&config, &["a", "b"], &lines);
                let tag = format!("{how} at byte {at}: {notices:?}");
                let cut = notices.iter().any(|n| n.contains("torn or corrupt record"));
                assert_eq!(cut, bytes.len() != last.start, "{tag}");
                assert!(
                    notices
                        .iter()
                        .any(|n| n.starts_with(&resumed("a", seqs[1]))),
                    "{tag}"
                );
                assert!(
                    notices
                        .iter()
                        .any(|n| n.starts_with(&resumed("b", seqs[0]))),
                    "{tag}"
                );
                for market in ["a", "b"] {
                    assert_eq!(found[market], want, "{market}, {tag}");
                }
                for r in &reports {
                    assert_eq!(r.report, want_report, "{}, {tag}", r.market);
                }
                assert_eq!(reports[1].resumed_from, Some(seqs[0]), "{tag}");
                // The cut left a journal that later records extend.
                let closed = trace.events.len() as u64;
                assert_eq!(newest(&path, "b").seq(), closed, "{tag}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_journal_is_byte_identical_for_any_jobs() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let markets = ["m0", "m1", "m2", "m3", "m4", "m5", "m6"];
        let journal_of = |jobs: usize| {
            let dir = temp_dir(&format!("jobs{jobs}"));
            let mut daemon = AuditDaemon::new(DaemonConfig {
                jobs,
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 1,
                ..DaemonConfig::default()
            });
            // Markets fed at different paces, so rounds checkpoint
            // different subsets of them.
            for round in 1..=4 {
                for (i, market) in markets.iter().enumerate() {
                    let pace = |r: usize| (lines.len() * r * (i + 1) / 8).min(lines.len());
                    for line in &lines[pace(round - 1)..pace(round)] {
                        daemon.feed_line(market, *line);
                    }
                }
                daemon.poll();
            }
            daemon.finalize();
            assert!(daemon.failed_markets().is_empty());
            let bytes = std::fs::read(dir.join(journal::FILE_NAME)).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        let serial = journal_of(1);
        assert!(serial.len() > 1000);
        assert_eq!(serial, journal_of(4));
    }

    /// A single checkpoint file as written before the journal: the whole
    /// of `trace` ingested, so resuming from it would skip everything.
    fn pre_journal_checkpoint(trace: &Trace, path: &Path) {
        let mut auditor = LiveAuditor::new(AuditConfig::default());
        auditor.ingest_trace(trace).unwrap();
        let lines = persist::encode(trace, persist::TraceFormat::Jsonl)
            .lines()
            .count();
        std::fs::write(path, checkpoint::encode(&auditor.checkpoint(lines as u64))).unwrap();
    }

    #[test]
    fn a_pre_journal_checkpoint_at_the_journal_path_is_named_and_replayed_once() {
        let trace = violating_trace();
        let dir = temp_dir("prejournal_file");
        let stream = dir.join("m.jsonl");
        std::fs::write(
            &stream,
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        let old = dir.join("old.checkpoint");
        pre_journal_checkpoint(&trace, &old);
        let (want, want_report) = reference(&trace);
        let named = format!("`{}` is a single checkpoint from before", old.display());

        let (findings, report, notices) = noted_life(&stream, &old);
        assert!(notices.iter().any(|n| n.starts_with(&named)), "{notices:?}");
        assert_eq!((findings, report.resumed_from), (want.clone(), None));
        assert_eq!(report.report, want_report);
        // The first life's checkpoints replaced it with a journal.
        let (findings, report, notices) = noted_life(&stream, &old);
        assert!(!notices.iter().any(|n| n.contains("before")), "{notices:?}");
        assert!(notices[0].starts_with("resumed market"), "{notices:?}");
        assert_eq!(findings, want);
        assert_eq!(report.resumed_from, Some(trace.events.len() as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pre_journal_checkpoint_beside_the_directory_journal_is_named_and_replayed_once() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        let dir = temp_dir("prejournal_dir");
        let old = dir.join("m.checkpoint");
        pre_journal_checkpoint(&trace, &old);
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        };
        let (want, want_report) = reference(&trace);
        let named = format!(
            "market `m`: `{}` is a checkpoint from before",
            old.display()
        );

        let (found, reports, notices) = fed_life(&config, &["m"], &lines);
        assert!(notices.iter().any(|n| n.starts_with(&named)), "{notices:?}");
        assert_eq!(found["m"], want);
        assert_eq!(reports[0].report, want_report);
        assert_eq!(reports[0].resumed_from, None);
        // Now the journal has a record for `m`; the old file is left be.
        let (found, reports, notices) = fed_life(&config, &["m"], &lines);
        assert!(!notices.iter().any(|n| n.contains("before")), "{notices:?}");
        assert_eq!(found["m"], want);
        assert!(reports[0].resumed_from.is_some());
        assert!(old.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_foreign_file_at_the_journal_path_is_refused_by_name_and_left_alone() {
        let trace = violating_trace();
        let jsonl = persist::encode(&trace, persist::TraceFormat::Jsonl);
        let dir = temp_dir("foreign_journal");
        let stream = dir.join("m.jsonl");
        std::fs::write(&stream, &jsonl).unwrap();
        let mut elsewhere = b"\x89FCJ\r\n\x1a\n".to_vec();
        faircrowd_model::codec::put_str(&mut elsewhere, "faircrowd-elsewhere");
        elsewhere.push(1);
        let cases = [
            (
                elsewhere,
                "declares schema `faircrowd-elsewhere`, expected `faircrowd-journal`",
            ),
            (jsonl.clone().into_bytes(), "magic bytes missing"),
        ];
        let (want, _) = reference(&trace);
        let target = dir.join("target.journal");
        for (bytes, why) in cases {
            std::fs::write(&target, &bytes).unwrap();
            let (findings, report, notices) = noted_life(&stream, &target);
            let refused = format!("checkpoint journal `{}` refused: ", target.display());
            assert!(
                notices
                    .iter()
                    .any(|n| n.starts_with(&refused) && n.contains(why)),
                "{notices:?}"
            );
            assert!(notices
                .iter()
                .any(|n| n.contains("checkpoint write failed")));
            assert_eq!((findings, report.resumed_from), (want.clone(), None));
            assert_eq!(std::fs::read(&target).unwrap(), bytes, "never written");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_journal_without_the_market_names_the_markets_it_holds() {
        let trace = violating_trace();
        let dir = temp_dir("other_market");
        let stream = dir.join("m.jsonl");
        std::fs::write(
            &stream,
            persist::encode(&trace, persist::TraceFormat::Jsonl),
        )
        .unwrap();
        let target = dir.join("m.journal");
        checkpointed_life(&stream, &target);
        // The same file under another name is another market.
        let mut daemon = AuditDaemon::new(DaemonConfig::default());
        let source = MarketSource {
            market: "./m".into(),
            path: stream,
        };
        daemon.add_source_with_checkpoint(source, Some(target.clone()));
        assert_eq!(
            daemon.take_notices(),
            [format!(
                "checkpoint journal `{}` has no record for market `./m`, only for `m`; \
                 replaying from the trace",
                target.display()
            )]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
