//! Sharded, resumable sweeps: split a grid into shards, persist
//! per-cell results, merge byte-identical.
//!
//! A thousand-cell grid does not fit one machine's patience. This
//! module splits a [`SweepGrid`]'s expanded case list into `N`
//! deterministic shards, runs one shard per process
//! (`sweep --shard i/N --out part.json`), streams each finished cell
//! into a versioned **part file**, and folds any complete set of parts
//! back into the exact [`SweepResult`] the single-process
//! [`run_grid`](super::run_grid) would have produced — table, JSON and
//! CSV byte-identical for any shard count and any completion
//! interleaving ([`merge_paths`]).
//!
//! ## Partition: round-robin over baseline clusters
//!
//! Cases are not dealt out cell-by-cell. The sweep's dominant cost is
//! simulation, and its unit of work is one final run shared by the
//! cases that differ only on the `aggregator` axis (same
//! `SweepCase::sim_key` and enforcement stack) — a sharing that lives
//! inside one process. The partition groups cases into **clusters**
//! sharing the coarser `sim_key` (clusters are numbered in
//! first-occurrence order over the expansion) and deals whole clusters
//! round-robin: `shard(case) = cluster(case) % N`. Every work unit is a
//! subset of one cluster, so no unit straddles shards and no run is
//! repeated in two processes; a cluster's enforce variants never
//! shared a run (each stack is a different market), so keeping them
//! together costs nothing. Every cluster has exactly one case per
//! enforcement stack × aggregator, so shards stay balanced to within
//! one cluster. The tradeoff: a grid with fewer clusters than shards
//! leaves trailing shards empty — acceptable, because such grids are
//! too small to shard profitably in the first place.
//!
//! ## Part files: `faircrowd-sweep-part` v1
//!
//! A part file is JSONL: a schema header line, then one compact record
//! per completed cell, appended and flushed as each cell finishes — a
//! cell is durable once its line is written. Loading walks the same
//! three never-panicking gates as every persisted schema here
//! (`trace_io`, `checkpoint`): **positioned parse** (errors name the
//! line; only a torn final line — the artifact of a kill mid-append —
//! is dropped), **schema** (name + version), and **integrity** (header
//! `grid_hash` must match the grid the loader expands, cell indexes
//! must be in range, un-duplicated, owned by the declared shard, and
//! each record's case must equal the grid's case at that index).
//! Resuming is therefore just: load the part, skip its cells, run the
//! rest, append ([`run_shard`]).
//!
//! The header's `grid_hash` is an FNV-1a 64 over the canonical JSON of
//! every expanded case in order — the identity of the *work list*, so
//! a part written for yesterday's grid cannot quietly merge into
//! today's.

use super::{fold_groups, CaseOutcome, SweepCase, SweepGrid, SweepResult};
use crate::core::results;
use crate::model::codec;
use crate::model::json::Json;
use crate::model::FaircrowdError;
use crate::pipeline::Enforcement;
use crate::sim::TraceSummary;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Schema name of a sweep part file.
pub const SCHEMA: &str = "faircrowd-sweep-part";
/// Current schema version. v2 added the `strategy`/`strategy_label`
/// case fields alongside the strategy sweep axis; v3 added the
/// `aggregator`/`aggregator_label` case fields and the per-cell
/// `consensus` score alongside the aggregator axis. Earlier versions
/// are rejected rather than guessed at.
pub const VERSION: u64 = 3;

/// Which shard of how many — the CLI's `--shard i/N`, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard, 1-based: `1 ≤ index ≤ count`.
    pub index: usize,
    /// Total shards, ≥ 1.
    pub count: usize,
}

impl ShardSpec {
    /// Parse the CLI spelling `i/N`. Zero, reversed or malformed specs
    /// are usage errors naming the expected form.
    pub fn parse(raw: &str) -> Result<ShardSpec, FaircrowdError> {
        let bad = || {
            FaircrowdError::usage(format!(
                "invalid shard spec `{raw}`: expected i/N with 1 <= i <= N (e.g. --shard 2/4)"
            ))
        };
        let (i, n) = raw.split_once('/').ok_or_else(bad)?;
        let index: usize = i.trim().parse().map_err(|_| bad())?;
        let count: usize = n.trim().parse().map_err(|_| bad())?;
        if index == 0 || count == 0 || index > count {
            return Err(bad());
        }
        Ok(ShardSpec { index, count })
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Map every expanded case to its shard (0-based), dealing whole
/// baseline clusters round-robin — see [the module docs](self) for why
/// clusters and not cells.
pub fn partition(cases: &[SweepCase], shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let mut cluster_of_key = HashMap::new();
    cases
        .iter()
        .map(|case| {
            let next = cluster_of_key.len();
            let cluster = *cluster_of_key.entry(case.sim_key()).or_insert(next);
            cluster % shards
        })
        .collect()
}

/// FNV-1a 64 over the canonical encoding of every case in expansion
/// order: the identity of the work list a part file belongs to.
pub fn grid_hash(cases: &[SweepCase]) -> u64 {
    let mut text = String::new();
    for case in cases {
        text.push_str(&case_to_json(case).to_compact());
        text.push('\n');
    }
    codec::fnv1a64(text.as_bytes())
}

/// A part file's header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartHeader {
    /// [`grid_hash`] of the grid this part belongs to.
    pub grid_hash: u64,
    /// Total cases in the whole grid (all shards).
    pub cases: usize,
    /// The grid's seeds-per-group, so `merge` can fold without `--grid`.
    pub seeds_per_group: usize,
    /// Which shard wrote this part, 1-based.
    pub shard: usize,
    /// Total shards in the partition.
    pub shards: usize,
}

/// A loaded part file: its header and every durable cell, in file
/// order. Produced by [`load_part`]; consumed by [`run_shard`] (resume)
/// and [`merge_parts`].
#[derive(Debug, Clone)]
pub struct PartFile {
    /// The schema header.
    pub header: PartHeader,
    /// `(cell index, outcome)` for every complete record.
    pub cells: Vec<(usize, CaseOutcome)>,
    /// Byte length of the durable prefix. Anything past it is a torn
    /// final line (a kill mid-append); a resuming writer truncates to
    /// this before appending, so the next record starts a fresh line.
    pub clean_bytes: u64,
}

/// What one [`run_shard`] invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRun {
    /// Cells in the whole grid.
    pub total_cells: usize,
    /// Cells owned by this shard.
    pub shard_cells: usize,
    /// Cells loaded from an existing part file and skipped.
    pub resumed: usize,
    /// Cells computed (and appended) by this invocation.
    pub ran: usize,
}

/// Run shard `spec` of `grid`, streaming each completed cell to the
/// part file at `out`. If `out` already holds a part for this exact
/// grid and shard, its cells are **resumed** — loaded, skipped, never
/// re-run — and only the missing cells execute (on the usual worker
/// pool, grouped into work units over just the missing cases). A part
/// for a *different* grid or shard is rejected
/// with a named error, not overwritten.
pub fn run_shard(
    grid: &SweepGrid,
    spec: ShardSpec,
    out: &Path,
    jobs: usize,
) -> Result<ShardRun, FaircrowdError> {
    run_shard_opts(grid, spec, out, jobs, None)
}

/// [`run_shard`] with a per-cell completion hook (the CLI's
/// `--progress`), called with each cell's **grid** index as it
/// finishes. The hook fires only for cells computed now, not for
/// resumed ones.
pub fn run_shard_opts(
    grid: &SweepGrid,
    spec: ShardSpec,
    out: &Path,
    jobs: usize,
    progress: super::CellHook<'_>,
) -> Result<ShardRun, FaircrowdError> {
    let cases = grid.expand()?;
    let header = PartHeader {
        grid_hash: grid_hash(&cases),
        cases: cases.len(),
        seeds_per_group: grid.seeds_per_group(),
        shard: spec.index,
        shards: spec.count,
    };
    let shard_of = partition(&cases, spec.count);
    let mine: Vec<usize> = (0..cases.len())
        .filter(|&i| shard_of[i] == spec.index - 1)
        .collect();

    // Resume: an existing non-empty file must be this part, exactly.
    let existing = match std::fs::metadata(out) {
        Ok(meta) if meta.len() > 0 => {
            let part = load_part(out)?;
            ensure_part_matches(&part, &header, &cases, &shard_of, out)?;
            if part.clean_bytes < meta.len() {
                // Drop the torn final line a kill left behind, so the
                // next append starts on a fresh line instead of gluing
                // onto half a record.
                truncate_to(out, part.clean_bytes)?;
            }
            part.cells
        }
        _ => {
            append_line(out, &header_to_json(&header).to_compact())?;
            Vec::new()
        }
    };
    let done: HashSet<usize> = existing.iter().map(|(i, _)| *i).collect();
    let missing: Vec<usize> = mine.iter().copied().filter(|i| !done.contains(i)).collect();
    let missing_cases: Vec<SweepCase> = missing.iter().map(|&i| cases[i].clone()).collect();

    // Stream completions straight to disk: one flushed line per cell,
    // so a kill loses at most the cell being appended (a torn final
    // line, which the loader drops). The first write failure is kept
    // and surfaced after the pool drains — later cells compute but
    // must not be trusted as durable.
    let file = Mutex::new(open_append(out)?);
    let write_err: Mutex<Option<FaircrowdError>> = Mutex::new(None);
    let on_done = |subset_index: usize, outcome: &CaseOutcome| {
        let cell = missing[subset_index];
        let line = cell_to_json(cell, outcome).to_compact();
        let mut file = file.lock().expect("part writer poisoned");
        let result = writeln!(file, "{line}").and_then(|()| file.flush());
        if let Err(e) = result {
            let mut slot = write_err.lock().expect("write-error slot poisoned");
            if slot.is_none() {
                *slot = Some(FaircrowdError::Io {
                    path: out.display().to_string(),
                    message: e.to_string(),
                });
            }
        }
        if let Some(progress) = progress {
            progress(cell, outcome);
        }
    };
    super::run_cases(&missing_cases, jobs, Some(&on_done))?;
    if let Some(err) = write_err.into_inner().expect("write-error slot poisoned") {
        return Err(err);
    }
    Ok(ShardRun {
        total_cells: cases.len(),
        shard_cells: mine.len(),
        resumed: existing.len(),
        ran: missing.len(),
    })
}

/// Load a part file through the three gates (positioned parse, schema,
/// per-record integrity). Cross-grid integrity — does this part belong
/// to *that* grid — is the caller's second step ([`run_shard`] checks
/// against its expansion; [`merge_parts`] checks parts against each
/// other and the merged case list against the declared hash).
pub fn load_part(path: &Path) -> Result<PartFile, FaircrowdError> {
    let bytes = std::fs::read(path).map_err(|e| FaircrowdError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    // A kill can land mid-character, not just mid-line. Invalid UTF-8
    // confined to the final line is the same torn-tail artifact and is
    // dropped with it; invalid bytes before a newline are corruption.
    let text = match std::str::from_utf8(&bytes) {
        Ok(text) => text,
        Err(e) if !bytes[e.valid_up_to()..].contains(&b'\n') => {
            std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix")
        }
        Err(e) => {
            return Err(FaircrowdError::persist(format!(
                "part file {} has invalid UTF-8 at byte {} (before the final line)",
                path.display(),
                e.valid_up_to()
            )))
        }
    };
    let ctx = |line: usize| format!("part file {} line {line}", path.display());

    // Walk raw lines with byte offsets so the durable prefix is known.
    // `(line number, start offset, end offset incl. newline, content)`.
    let mut raw_lines = Vec::new();
    let mut offset = 0;
    for (index, raw) in text.split_inclusive('\n').enumerate() {
        let content = raw.trim_end_matches(['\n', '\r']);
        raw_lines.push((index + 1, offset, offset + raw.len(), content));
        offset += raw.len();
    }
    let mut entries = raw_lines.iter().filter(|(_, _, _, l)| !l.trim().is_empty());

    let &(header_line, _, header_end, header_text) = entries
        .next()
        .ok_or_else(|| FaircrowdError::persist(format!("part file {} is empty", path.display())))?;
    let header_json = Json::parse(header_text)
        .map_err(|e| FaircrowdError::persist(format!("{}: {e}", ctx(header_line))))?;
    let header = header_from_json(&header_json, ctx(header_line))?;
    let mut clean_bytes = header_end;

    let records: Vec<_> = entries.collect();
    let last = records.len().checked_sub(1);
    let mut cells = Vec::with_capacity(records.len());
    let mut seen: HashSet<usize> = HashSet::new();
    for (k, &(line_number, _, line_end, line)) in records.into_iter().enumerate() {
        let ctx = ctx(line_number);
        let json = match Json::parse(line) {
            Ok(json) => json,
            // A torn *final* line is the signature of a kill mid-append:
            // the cell was not durable yet, so drop it. Anywhere else,
            // a parse failure is corruption and must be said.
            Err(_) if Some(k) == last => break,
            Err(e) => return Err(FaircrowdError::persist(format!("{ctx}: {e}"))),
        };
        let (cell, outcome) = cell_from_json(&json, &ctx)?;
        if cell >= header.cases {
            return Err(FaircrowdError::persist(format!(
                "{ctx}: cell {cell} out of range (grid has {} cases)",
                header.cases
            )));
        }
        if !seen.insert(cell) {
            return Err(FaircrowdError::persist(format!(
                "{ctx}: duplicate record for cell {cell}"
            )));
        }
        cells.push((cell, outcome));
        clean_bytes = line_end;
    }
    Ok(PartFile {
        header,
        cells,
        clean_bytes: clean_bytes as u64,
    })
}

/// Resume gate: the part at `out` must describe exactly the shard we
/// are about to run — same grid hash, same partition, every cell owned
/// by this shard and equal to the grid's case at its index.
fn ensure_part_matches(
    part: &PartFile,
    header: &PartHeader,
    cases: &[SweepCase],
    shard_of: &[usize],
    out: &Path,
) -> Result<(), FaircrowdError> {
    let at = |what: String| FaircrowdError::persist(format!("part file {}: {what}", out.display()));
    if part.header.grid_hash != header.grid_hash {
        return Err(at(format!(
            "written for a different grid (grid hash {:#018x}, expected {:#018x}); \
             refusing to resume into it",
            part.header.grid_hash, header.grid_hash
        )));
    }
    if (part.header.cases, part.header.seeds_per_group) != (header.cases, header.seeds_per_group) {
        return Err(at(format!(
            "grid shape mismatch: part has {} case(s) / {} seed(s) per group, \
             expected {} / {}",
            part.header.cases, part.header.seeds_per_group, header.cases, header.seeds_per_group
        )));
    }
    if (part.header.shard, part.header.shards) != (header.shard, header.shards) {
        return Err(at(format!(
            "written by shard {}/{}, but this run is shard {}/{}",
            part.header.shard, part.header.shards, header.shard, header.shards
        )));
    }
    for (cell, outcome) in &part.cells {
        if shard_of[*cell] != header.shard - 1 {
            return Err(at(format!(
                "cell {cell} belongs to shard {}/{}, not this part's shard {}/{}",
                shard_of[*cell] + 1,
                header.shards,
                header.shard,
                header.shards
            )));
        }
        if outcome.case != cases[*cell] {
            return Err(at(format!(
                "cell {cell} does not match the grid's case at that index \
                 (was the grid edited since this part was written?)"
            )));
        }
    }
    Ok(())
}

/// Fold a complete set of loaded parts into the [`SweepResult`] the
/// single-process sweep would have produced. All parts must agree on
/// the grid (hash, case count, seeds per group, shard count), declare
/// pairwise-distinct shards, and together cover every cell exactly
/// once; the merged case list is re-hashed and must equal the declared
/// grid hash. Table, JSON and CSV of the returned result are
/// byte-identical to [`run_grid`](super::run_grid) on the same grid.
pub fn merge_parts(parts: &[PartFile]) -> Result<SweepResult, FaircrowdError> {
    let first = parts
        .first()
        .map(|p| p.header)
        .ok_or_else(|| FaircrowdError::usage("merge needs at least one part file"))?;
    let mut shards_seen: HashMap<usize, usize> = HashMap::new();
    let mut outcomes: Vec<Option<CaseOutcome>> = vec![None; first.cases];
    for (k, part) in parts.iter().enumerate() {
        let h = part.header;
        if (h.grid_hash, h.cases, h.seeds_per_group, h.shards)
            != (
                first.grid_hash,
                first.cases,
                first.seeds_per_group,
                first.shards,
            )
        {
            return Err(FaircrowdError::persist(format!(
                "part {} disagrees with part 1 on the grid: \
                 hash {:#018x} vs {:#018x}, {} vs {} case(s), {} vs {} seed(s) per group, \
                 {} vs {} shard(s) — parts of different sweeps cannot merge",
                k + 1,
                h.grid_hash,
                first.grid_hash,
                h.cases,
                first.cases,
                h.seeds_per_group,
                first.seeds_per_group,
                h.shards,
                first.shards,
            )));
        }
        if let Some(prev) = shards_seen.insert(h.shard, k + 1) {
            return Err(FaircrowdError::persist(format!(
                "part {} and part {prev} are both shard {}/{} — merge each shard once",
                k + 1,
                h.shard,
                h.shards
            )));
        }
        for (cell, outcome) in &part.cells {
            if outcomes[*cell].is_some() {
                return Err(FaircrowdError::persist(format!(
                    "cell {cell} appears in more than one part"
                )));
            }
            outcomes[*cell] = Some(outcome.clone());
        }
    }
    let missing = outcomes.iter().filter(|o| o.is_none()).count();
    if missing > 0 {
        let example = outcomes.iter().position(Option::is_none).unwrap_or(0);
        return Err(FaircrowdError::persist(format!(
            "parts cover {} of {} cell(s); {missing} missing (e.g. cell {example}) — \
             did every shard finish?",
            first.cases - missing,
            first.cases
        )));
    }
    let outcomes: Vec<CaseOutcome> = outcomes.into_iter().flatten().collect();
    let merged_cases: Vec<SweepCase> = outcomes.iter().map(|o| o.case.clone()).collect();
    let rehash = grid_hash(&merged_cases);
    if rehash != first.grid_hash {
        return Err(FaircrowdError::persist(format!(
            "merged cases hash to {rehash:#018x}, but the parts declare {:#018x} — \
             a part carries records for a different grid",
            first.grid_hash
        )));
    }
    Ok(SweepResult {
        groups: fold_groups(&outcomes, first.seeds_per_group),
        cases: outcomes,
    })
}

/// [`merge_parts`] from paths: load each file through the gates, then
/// merge. Errors carry the offending path.
pub fn merge_paths<P: AsRef<Path>>(paths: &[P]) -> Result<SweepResult, FaircrowdError> {
    let parts = paths
        .iter()
        .map(|p| load_part(p.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    merge_parts(&parts)
}

// ---- codecs ---------------------------------------------------------

fn header_to_json(h: &PartHeader) -> Json {
    Json::Obj(vec![
        ("schema".to_owned(), Json::str(SCHEMA)),
        ("version".to_owned(), Json::uint(VERSION)),
        ("grid_hash".to_owned(), Json::uint(h.grid_hash)),
        ("cases".to_owned(), Json::uint(h.cases as u64)),
        (
            "seeds_per_group".to_owned(),
            Json::uint(h.seeds_per_group as u64),
        ),
        ("shard".to_owned(), Json::uint(h.shard as u64)),
        ("shards".to_owned(), Json::uint(h.shards as u64)),
    ])
}

fn header_from_json(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<PartHeader, FaircrowdError> {
    let schema = json.get("schema").and_then(Json::as_str).ok_or_else(|| {
        FaircrowdError::persist(format!("{ctx}: not a sweep part file (no `schema` field)"))
    })?;
    if schema != SCHEMA {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: expected schema `{SCHEMA}`, got `{schema}`"
        )));
    }
    let version = json
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: missing schema `version`")))?;
    if version != VERSION {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: unsupported {SCHEMA} version {version} (this build reads version {VERSION})"
        )));
    }
    let count = |key: &str| -> Result<usize, FaircrowdError> {
        json.get(key)
            .and_then(Json::as_u64)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| {
                FaircrowdError::persist(format!("{ctx}: header field `{key}` should be a count"))
            })
    };
    let header = PartHeader {
        grid_hash: json
            .get("grid_hash")
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                FaircrowdError::persist(format!(
                    "{ctx}: header field `grid_hash` should be an unsigned integer"
                ))
            })?,
        cases: count("cases")?,
        seeds_per_group: count("seeds_per_group")?,
        shard: count("shard")?,
        shards: count("shards")?,
    };
    if header.shard == 0 || header.shards == 0 || header.shard > header.shards {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: header declares shard {}/{}, which is not a valid 1-based shard",
            header.shard, header.shards
        )));
    }
    if header.seeds_per_group == 0 {
        return Err(FaircrowdError::persist(format!(
            "{ctx}: header declares zero seeds per group"
        )));
    }
    Ok(header)
}

/// The grid/CLI spelling of an enforcement — re-parseable by
/// [`Enforcement::parse`], unlike the display [`Enforcement::label`].
fn enforce_spec(e: &Enforcement) -> String {
    match e {
        Enforcement::ExposureParity => "parity".to_owned(),
        Enforcement::ExposureFloor(n) => format!("floor:{n}"),
        Enforcement::MinimalTransparency => "transparency".to_owned(),
        Enforcement::GraceFinish => "grace".to_owned(),
    }
}

fn case_to_json(case: &SweepCase) -> Json {
    Json::Obj(vec![
        ("scenario".to_owned(), Json::str(&*case.scenario)),
        (
            "policy".to_owned(),
            match &case.policy {
                Some(p) => Json::str(&**p),
                None => Json::Null,
            },
        ),
        ("policy_label".to_owned(), Json::str(&*case.policy_label)),
        (
            "strategy".to_owned(),
            match &case.strategy {
                Some(s) => Json::str(&**s),
                None => Json::Null,
            },
        ),
        (
            "strategy_label".to_owned(),
            Json::str(&*case.strategy_label),
        ),
        ("seed".to_owned(), Json::uint(case.seed)),
        ("scale".to_owned(), Json::float(case.scale)),
        ("rounds".to_owned(), Json::uint(u64::from(case.rounds))),
        (
            "aggregator".to_owned(),
            match &case.aggregator {
                Some(a) => Json::str(&**a),
                None => Json::Null,
            },
        ),
        (
            "aggregator_label".to_owned(),
            Json::str(&*case.aggregator_label),
        ),
        (
            "enforce".to_owned(),
            Json::Arr(
                case.enforcements
                    .iter()
                    .map(|e| Json::str(enforce_spec(e)))
                    .collect(),
            ),
        ),
    ])
}

fn case_from_json(json: &Json, ctx: impl std::fmt::Display) -> Result<SweepCase, FaircrowdError> {
    let field = |key: &str| -> Result<&Json, FaircrowdError> {
        json.get(key)
            .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: case is missing field `{key}`")))
    };
    let str_of = |key: &str| -> Result<String, FaircrowdError> {
        field(key)?.as_str().map(str::to_owned).ok_or_else(|| {
            FaircrowdError::persist(format!("{ctx}: case field `{key}` should be a string"))
        })
    };
    let policy = match field("policy")? {
        Json::Null => None,
        other => Some(other.as_str().map(str::to_owned).ok_or_else(|| {
            FaircrowdError::persist(format!(
                "{ctx}: case field `policy` should be a string or null"
            ))
        })?),
    };
    let strategy = match field("strategy")? {
        Json::Null => None,
        other => Some(other.as_str().map(str::to_owned).ok_or_else(|| {
            FaircrowdError::persist(format!(
                "{ctx}: case field `strategy` should be a string or null"
            ))
        })?),
    };
    let aggregator = match field("aggregator")? {
        Json::Null => None,
        other => Some(other.as_str().map(str::to_owned).ok_or_else(|| {
            FaircrowdError::persist(format!(
                "{ctx}: case field `aggregator` should be a string or null"
            ))
        })?),
    };
    let enforcements = field("enforce")?
        .as_arr()
        .ok_or_else(|| {
            FaircrowdError::persist(format!("{ctx}: case field `enforce` should be an array"))
        })?
        .iter()
        .map(|e| {
            let spec = e.as_str().ok_or_else(|| {
                FaircrowdError::persist(format!("{ctx}: enforcement entry should be a string"))
            })?;
            Enforcement::parse(spec).map_err(|e| FaircrowdError::persist(format!("{ctx}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SweepCase {
        scenario: str_of("scenario")?,
        policy,
        policy_label: str_of("policy_label")?,
        strategy,
        strategy_label: str_of("strategy_label")?,
        seed: field("seed")?.as_u64().ok_or_else(|| {
            FaircrowdError::persist(format!("{ctx}: case field `seed` should be an integer"))
        })?,
        scale: field("scale")?.as_f64().ok_or_else(|| {
            FaircrowdError::persist(format!("{ctx}: case field `scale` should be a number"))
        })?,
        rounds: field("rounds")?
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| {
                FaircrowdError::persist(format!(
                    "{ctx}: case field `rounds` should be a round count"
                ))
            })?,
        enforcements,
        aggregator,
        aggregator_label: str_of("aggregator_label")?,
    })
}

fn cell_to_json(cell: usize, outcome: &CaseOutcome) -> Json {
    Json::Obj(vec![
        ("cell".to_owned(), Json::uint(cell as u64)),
        ("case".to_owned(), case_to_json(&outcome.case)),
        (
            "report".to_owned(),
            results::report_to_json(&outcome.report),
        ),
        ("summary".to_owned(), outcome.summary.to_json()),
        (
            "wages".to_owned(),
            match &outcome.wages {
                Some(w) => results::wages_to_json(w),
                None => Json::Null,
            },
        ),
        (
            "consensus".to_owned(),
            match outcome.consensus {
                Some(a) => Json::float(a),
                None => Json::Null,
            },
        ),
    ])
}

fn cell_from_json(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<(usize, CaseOutcome), FaircrowdError> {
    let cell = json
        .get("cell")
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| {
            FaircrowdError::persist(format!("{ctx}: record field `cell` should be a cell index"))
        })?;
    let field = |key: &str| -> Result<&Json, FaircrowdError> {
        json.get(key)
            .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: missing field `{key}`")))
    };
    let wages = match field("wages")? {
        Json::Null => None,
        other => Some(results::wages_from_json(other, &ctx)?),
    };
    let consensus = match field("consensus")? {
        Json::Null => None,
        other => Some(other.as_f64().ok_or_else(|| {
            FaircrowdError::persist(format!(
                "{ctx}: record field `consensus` should be a number or null"
            ))
        })?),
    };
    Ok((
        cell,
        CaseOutcome {
            case: case_from_json(field("case")?, &ctx)?,
            report: results::report_from_json(field("report")?, &ctx)?,
            summary: TraceSummary::from_json(field("summary")?, &ctx)?,
            wages,
            consensus,
        },
    ))
}

// ---- file plumbing --------------------------------------------------

fn open_append(path: &Path) -> Result<std::fs::File, FaircrowdError> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| FaircrowdError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
}

fn truncate_to(path: &Path, len: u64) -> Result<(), FaircrowdError> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len))
        .map_err(|e| FaircrowdError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
}

fn append_line(path: &Path, line: &str) -> Result<(), FaircrowdError> {
    let mut file = open_append(path)?;
    writeln!(file, "{line}")
        .and_then(|()| file.flush())
        .map_err(|e| FaircrowdError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_grid;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fc_shard_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("part.json")
    }

    fn grid() -> SweepGrid {
        SweepGrid::parse("policy=round_robin,kos;seed=1,2;rounds=6;enforce=none,grace").unwrap()
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("2/4").unwrap(),
            ShardSpec { index: 2, count: 4 }
        );
        assert_eq!(ShardSpec::parse("1/1").unwrap().to_string(), "1/1");
        for bad in ["", "3", "0/2", "3/2", "1/0", "a/b", "1/2/3", "-1/2"] {
            let err = ShardSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, FaircrowdError::Usage { .. }),
                "`{bad}`: {err:?}"
            );
            assert!(err.to_string().contains("i/N"), "{err}");
        }
    }

    #[test]
    fn partition_keeps_enforce_clusters_together_and_balances() {
        let cases = grid().expand().unwrap();
        let shard_of = partition(&cases, 3);
        // Cases sharing a sim key (differing only on `enforce`) land
        // on the same shard: the partition clusters on that key.
        let mut shard_of_key: HashMap<_, usize> = HashMap::new();
        for (i, case) in cases.iter().enumerate() {
            let prev = shard_of_key.entry(case.sim_key()).or_insert(shard_of[i]);
            assert_eq!(
                *prev, shard_of[i],
                "cluster split across shards at case {i}"
            );
        }
        // Clusters deal round-robin, so shard loads differ by at most
        // one cluster (= the number of enforcement stacks).
        let mut load = [0usize; 3];
        for &s in &shard_of {
            load[s] += 1;
        }
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(max - min <= 2, "unbalanced shard loads: {load:?}");
    }

    #[test]
    fn no_work_unit_straddles_shards() {
        // A work unit (one shared final run) is a subset of one sim-key
        // cluster, so the partition never splits it across processes.
        let cases = SweepGrid::parse(
            "policy=round_robin,kos;aggregator=majority,parity_constrained;\
             enforce=none,parity,grace;seed=1..4;rounds=6",
        )
        .unwrap()
        .expand()
        .unwrap();
        for shards in [2, 3] {
            let shard_of = partition(&cases, shards);
            for unit in super::super::work_units(&cases) {
                assert!(
                    unit.iter().all(|&i| shard_of[i] == shard_of[unit[0]]),
                    "unit {unit:?} straddles shards at N={shards}"
                );
            }
        }
    }

    #[test]
    fn resume_with_one_sibling_of_a_unit_done_merges_byte_identical() {
        // A part killed between two aggregator siblings holds half a
        // work unit; the resume runs the other half as a unit of its own.
        let grid =
            SweepGrid::parse("rounds=6;seed=1,2;aggregator=majority,parity_constrained").unwrap();
        let single = run_grid(&grid, 2).unwrap();
        let (p1, p2) = (temp_path("sib1"), temp_path("sib2"));
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        let spec1 = ShardSpec { index: 1, count: 2 };
        run_shard(&grid, spec1, &p1, 2).unwrap();
        run_shard(&grid, ShardSpec { index: 2, count: 2 }, &p2, 2).unwrap();
        // Keep the header and only the record of cell 0, whose unit
        // sibling (cell 2: same seed, other aggregator) is then missing.
        let text = std::fs::read_to_string(&p1).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let cell0 = lines.find(|l| l.starts_with("{\"cell\":0,")).unwrap();
        std::fs::write(&p1, format!("{header}\n{cell0}\n")).unwrap();
        let resumed = run_shard(&grid, spec1, &p1, 2).unwrap();
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.ran, resumed.shard_cells - 1);
        let merged = merge_paths(&[&p1, &p2]).unwrap();
        assert_eq!(merged.to_json(), single.to_json());
        assert_eq!(merged.to_csv(), single.to_csv());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn grid_hash_is_stable_and_discriminating() {
        let cases = grid().expand().unwrap();
        assert_eq!(grid_hash(&cases), grid_hash(&cases));
        let other = SweepGrid::parse("policy=round_robin,kos;seed=1,3;rounds=6;enforce=none,grace")
            .unwrap()
            .expand()
            .unwrap();
        assert_ne!(grid_hash(&cases), grid_hash(&other));
    }

    #[test]
    fn shard_run_resume_and_merge_are_byte_identical() {
        let grid = grid();
        let single = run_grid(&grid, 2).unwrap();
        let spec1 = ShardSpec { index: 1, count: 2 };
        let spec2 = ShardSpec { index: 2, count: 2 };
        let (p1, p2) = (temp_path("m1"), temp_path("m2"));
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        let r1 = run_shard(&grid, spec1, &p1, 2).unwrap();
        let r2 = run_shard(&grid, spec2, &p2, 2).unwrap();
        assert_eq!(r1.total_cells, 8);
        assert_eq!(r1.shard_cells + r2.shard_cells, 8);
        assert_eq!(r1.ran, r1.shard_cells);
        assert_eq!(r1.resumed, 0);

        let merged = merge_paths(&[&p1, &p2]).unwrap();
        assert_eq!(merged.render_table(), single.render_table());
        assert_eq!(merged.to_json(), single.to_json());
        assert_eq!(merged.to_csv(), single.to_csv());

        // Re-running a finished shard resumes every cell and runs none.
        let again = run_shard(&grid, spec1, &p1, 2).unwrap();
        assert_eq!(again.resumed, r1.shard_cells);
        assert_eq!(again.ran, 0);

        // Kill simulation: truncate the part mid-final-line. The torn
        // line is dropped, the resumed run recomputes exactly that
        // cell, and the merge is still byte-identical.
        let text = std::fs::read_to_string(&p1).unwrap();
        let cut = text.trim_end().rfind('\n').unwrap() + 30;
        std::fs::write(&p1, &text[..cut]).unwrap();
        let resumed = run_shard(&grid, spec1, &p1, 2).unwrap();
        assert_eq!(resumed.resumed, r1.shard_cells - 1);
        assert_eq!(resumed.ran, 1);
        let merged = merge_paths(&[&p2, &p1]).unwrap();
        assert_eq!(merged.to_json(), single.to_json());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn aggregator_grids_shard_and_merge_byte_identical() {
        // The aggregator axis rides the part codec (schema v3): a
        // sharded sweep over it must fold back byte-identical, and the
        // axis must not split sim-key clusters across shards.
        let grid =
            SweepGrid::parse("rounds=6;seed=1,2;aggregator=majority,parity_constrained").unwrap();
        let cases = grid.expand().unwrap();
        let shard_of = partition(&cases, 2);
        for (i, case) in cases.iter().enumerate() {
            for (j, other) in cases.iter().enumerate() {
                if case.sim_key() == other.sim_key() {
                    assert_eq!(shard_of[i], shard_of[j], "cluster split at {i}/{j}");
                }
            }
        }
        let single = run_grid(&grid, 2).unwrap();
        let (p1, p2) = (temp_path("agg1"), temp_path("agg2"));
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        run_shard(&grid, ShardSpec { index: 1, count: 2 }, &p1, 2).unwrap();
        run_shard(&grid, ShardSpec { index: 2, count: 2 }, &p2, 2).unwrap();
        let merged = merge_paths(&[&p1, &p2]).unwrap();
        assert_eq!(merged.to_json(), single.to_json());
        assert_eq!(merged.render_table(), single.render_table());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn resume_rejects_a_part_for_a_different_grid_or_shard() {
        let grid = grid();
        let path = temp_path("wrong");
        std::fs::remove_file(&path).ok();
        let spec = ShardSpec { index: 1, count: 2 };
        run_shard(&grid, spec, &path, 2).unwrap();

        let other = SweepGrid::parse("policy=round_robin;seed=1,2;rounds=6").unwrap();
        let err = run_shard(&other, spec, &path, 2).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");

        let err = run_shard(&grid, ShardSpec { index: 2, count: 2 }, &path, 2).unwrap_err();
        assert!(err.to_string().contains("shard 1/2"), "{err}");
        assert!(err.to_string().contains("shard 2/2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_gates_reject_incomplete_duplicate_and_foreign_parts() {
        let grid = grid();
        let (p1, p2) = (temp_path("g1"), temp_path("g2"));
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        run_shard(&grid, ShardSpec { index: 1, count: 2 }, &p1, 2).unwrap();
        run_shard(&grid, ShardSpec { index: 2, count: 2 }, &p2, 2).unwrap();

        // Incomplete: one part alone names the missing coverage.
        let err = merge_paths(&[&p1]).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");

        // Duplicate shard.
        let err = merge_paths(&[&p1, &p1]).unwrap_err();
        assert!(err.to_string().contains("both shard 1/2"), "{err}");

        // Foreign part: different grid → hash disagreement, named.
        let p3 = temp_path("g3");
        std::fs::remove_file(&p3).ok();
        let other = SweepGrid::parse("policy=round_robin;seed=1,2;rounds=6").unwrap();
        run_shard(&other, ShardSpec { index: 1, count: 2 }, &p3, 2).unwrap();
        let err = merge_paths(&[&p1, &p3]).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");

        for p in [&p1, &p2, &p3] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn load_rejects_wrong_schema_version_and_midfile_corruption() {
        let path = temp_path("gate");
        std::fs::remove_file(&path).ok();

        std::fs::write(&path, "{\"format\": \"jsonl\"}\n").unwrap();
        let err = load_part(&path).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");

        std::fs::write(
            &path,
            format!("{{\"schema\": \"{SCHEMA}\", \"version\": 99}}\n"),
        )
        .unwrap();
        let err = load_part(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Resuming over a wrong-version part is the same gate.
        let grid = grid();
        let err = run_shard(&grid, ShardSpec { index: 1, count: 1 }, &path, 2).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Corruption before the final line is an error that names the
        // line; only a torn last line is forgiven.
        std::fs::remove_file(&path).ok();
        run_shard(&grid, ShardSpec { index: 1, count: 1 }, &path, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "{\"cell\": 3, \"cas");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = load_part(&path).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
