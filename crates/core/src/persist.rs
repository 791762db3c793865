//! Trace files: write, load, validate — the audit-external-logs path.
//!
//! The paper's transparency tools run over *recorded* platform logs, so
//! the audit engine must accept traces that did not come from the
//! in-process simulator. This module is that boundary: it writes a
//! [`Trace`] in the versioned schema of
//! [`faircrowd_model::trace_io`] and loads one back through three
//! gates, each reporting a [`FaircrowdError`] (never a panic):
//!
//! 1. **Parse** — malformed or truncated JSON/JSONL names the byte or
//!    line where it broke ([`FaircrowdError::Persist`]);
//! 2. **Schema** — a wrong schema name or an unsupported version is
//!    rejected before any record is decoded;
//! 3. **Referential integrity** — [`Trace::ensure_valid`] runs over the
//!    decoded trace, so dangling worker/task/submission ids and a
//!    tampered event log surface as [`FaircrowdError::InvalidTrace`]
//!    with every problem listed.
//!
//! Formats: [`TraceFormat::Json`] is one pretty-printed object (easy to
//! read and diff); [`TraceFormat::Jsonl`] is a header line plus one
//! compact record per line (what a platform would append into);
//! [`TraceFormat::Binary`] is the varint-packed `.fcb` form of
//! [`faircrowd_model::trace_bin`] (same schema version, decodes at
//! memory speed). [`save`] picks by file extension (`.jsonl`, `.fcb`,
//! anything else → JSON); [`load`] sniffs the content, so every format
//! loads from any path.
//!
//! ```
//! use faircrowd_core::persist;
//! use faircrowd_model::trace::Trace;
//!
//! let trace = Trace::default();
//! let text = persist::encode(&trace, persist::TraceFormat::Jsonl);
//! let back = persist::decode(&text)?;
//! assert_eq!(back, trace);
//! let bytes = persist::encode_bytes(&trace, persist::TraceFormat::Binary);
//! assert_eq!(persist::decode_bytes(&bytes)?, trace);
//! # Ok::<(), faircrowd_model::FaircrowdError>(())
//! ```

use faircrowd_model::error::FaircrowdError;
use faircrowd_model::json::Json;
use faircrowd_model::trace::Trace;
use faircrowd_model::trace_bin;
use faircrowd_model::trace_io;
use std::path::Path;

/// The three encodings of the versioned trace schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One pretty-printed JSON object.
    Json,
    /// A schema header line followed by one compact record per line.
    Jsonl,
    /// The length-prefixed binary form (`.fcb`).
    Binary,
}

impl TraceFormat {
    /// The format implied by a path: `.jsonl` means JSONL, `.fcb` means
    /// binary, anything else (including no extension) means whole-file
    /// JSON.
    pub fn for_path(path: &Path) -> TraceFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") => TraceFormat::Jsonl,
            Some("fcb") => TraceFormat::Binary,
            _ => TraceFormat::Json,
        }
    }
}

/// Encode a trace to a string in the given **text** format.
///
/// # Panics
///
/// Panics on [`TraceFormat::Binary`] — a binary trace is not text; use
/// [`encode_bytes`], which handles all three formats.
pub fn encode(trace: &Trace, format: TraceFormat) -> String {
    match format {
        TraceFormat::Json => {
            let mut text = trace_io::trace_to_json(trace).to_pretty();
            text.push('\n');
            text
        }
        TraceFormat::Jsonl => trace_io::trace_to_jsonl(trace),
        TraceFormat::Binary => {
            panic!("binary traces have no text form; use persist::encode_bytes")
        }
    }
}

/// Encode a trace to bytes in any format (the text formats are their
/// UTF-8 bytes).
pub fn encode_bytes(trace: &Trace, format: TraceFormat) -> Vec<u8> {
    match format {
        TraceFormat::Json | TraceFormat::Jsonl => encode(trace, format).into_bytes(),
        TraceFormat::Binary => trace_bin::trace_to_bytes(trace),
    }
}

/// Decode a trace from a string, sniffing the format from the content:
/// a first line that is a complete JSON object carrying
/// `"format": "jsonl"` selects the JSONL reader, anything else is read
/// as one whole-file JSON object. Schema name/version are checked;
/// referential integrity is **not** (see [`load`], which is the path
/// untrusted files come through).
pub fn decode(text: &str) -> Result<Trace, FaircrowdError> {
    if sniff_jsonl(text) {
        return trace_io::trace_from_jsonl(text);
    }
    let json = Json::parse(text).map_err(FaircrowdError::persist)?;
    trace_io::trace_from_json(&json)
}

/// Decode a trace from raw file bytes, sniffing the format from the
/// content: the `.fcb` magic selects the binary decoder; anything else
/// must be UTF-8 text and goes through [`decode`]'s JSON/JSONL sniff.
/// Schema name/version are checked; referential integrity is **not**
/// (see [`load`], which is the path untrusted files come through).
pub fn decode_bytes(bytes: &[u8]) -> Result<Trace, FaircrowdError> {
    if trace_bin::sniff_binary(bytes) {
        return trace_bin::trace_from_bytes(bytes);
    }
    let text = std::str::from_utf8(bytes).map_err(|e| {
        FaircrowdError::persist(format!(
            "trace file is neither a binary trace nor UTF-8 text (invalid byte at offset {})",
            e.valid_up_to()
        ))
    })?;
    decode(text)
}

/// Does the first non-empty line look like a complete JSONL header?
fn sniff_jsonl(text: &str) -> bool {
    let Some(first) = text.lines().find(|l| !l.trim().is_empty()) else {
        return false;
    };
    match Json::parse(first) {
        Ok(header) => header.get("format").and_then(Json::as_str) == Some("jsonl"),
        Err(_) => false,
    }
}

/// Write a trace to `path` in the format implied by its extension
/// (`.jsonl` → JSONL, `.fcb` → binary, else JSON). A regular file (or
/// a new one) is written to `<path>.tmp` first, which is then renamed
/// over `path`, so a kill or a full disk mid-write leaves the previous
/// file whole; a failed write removes the `.tmp`. Anything else at
/// `path` — a symlink, `/dev/stdout`, a pipe — is written through in
/// place. I/O failures carry the path.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> Result<(), FaircrowdError> {
    let path = path.as_ref();
    let bytes = encode_bytes(trace, TraceFormat::for_path(path));
    let in_place = std::fs::symlink_metadata(path).is_ok_and(|m| !m.is_file());
    let written = if in_place {
        std::fs::write(path, bytes)
    } else {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        written
    };
    written.map_err(|e| FaircrowdError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Load and **validate** a trace from `path`: read, sniff the format,
/// decode under the schema-version check, then run the referential
/// integrity pass ([`Trace::ensure_valid`]). Every failure mode is a
/// descriptive [`FaircrowdError`] carrying the path — truncated files,
/// wrong schema versions and dangling ids never panic.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, FaircrowdError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| FaircrowdError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let trace = decode_bytes(&bytes).map_err(|e| e.at_path(path.display()))?;
    trace.ensure_valid()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircrowd_model::attributes::DeclaredAttrs;
    use faircrowd_model::contribution::{Contribution, Submission};
    use faircrowd_model::event::EventKind;
    use faircrowd_model::ids::{RequesterId, SubmissionId, TaskId, WorkerId};
    use faircrowd_model::money::Credits;
    use faircrowd_model::requester::Requester;
    use faircrowd_model::skills::SkillVector;
    use faircrowd_model::task::TaskBuilder;
    use faircrowd_model::time::SimTime;
    use faircrowd_model::worker::Worker;

    fn small_trace() -> Trace {
        let mut trace = Trace::default();
        trace.workers.push(Worker::new(
            WorkerId::new(0),
            DeclaredAttrs::new(),
            SkillVector::with_len(2),
        ));
        trace
            .requesters
            .push(Requester::new(RequesterId::new(0), "acme"));
        trace.tasks.push(
            TaskBuilder::new(
                TaskId::new(0),
                RequesterId::new(0),
                SkillVector::with_len(2),
                Credits::from_cents(10),
            )
            .build(),
        );
        trace.submissions.push(Submission {
            id: SubmissionId::new(0),
            task: TaskId::new(0),
            worker: WorkerId::new(0),
            contribution: Contribution::Label(1),
            started_at: SimTime::from_secs(5),
            submitted_at: SimTime::from_secs(65),
        });
        trace.events.push(
            SimTime::from_secs(70),
            EventKind::PaymentIssued {
                submission: SubmissionId::new(0),
                task: TaskId::new(0),
                worker: WorkerId::new(0),
                amount: Credits::from_cents(10),
            },
        );
        trace.horizon = SimTime::from_secs(100);
        trace
    }

    #[test]
    fn save_load_roundtrips_both_formats() {
        let trace = small_trace();
        let dir = std::env::temp_dir();
        for name in [
            "fc_persist_test.trace.json",
            "fc_persist_test.trace.jsonl",
            "fc_persist_test.trace.fcb",
        ] {
            let path = dir.join(name);
            save(&trace, &path).unwrap();
            assert_eq!(load(&path).unwrap(), trace, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// A scratch directory of its own per test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fc_persist_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn saving_over_an_export_leaves_no_temporary_file() {
        let dir = scratch("over");
        let path = dir.join("t.jsonl");
        std::fs::write(dir.join("t.jsonl.tmp"), "stale").unwrap();
        save(&Trace::default(), &path).unwrap();
        save(&small_trace(), &path).unwrap();
        assert_eq!(load(&path).unwrap(), small_trace());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["t.jsonl"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_names_the_path_and_keeps_the_last_export() {
        let dir = scratch("blocked");
        let path = dir.join("t.fcb");
        save(&small_trace(), &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        std::fs::create_dir_all(dir.join("t.fcb.tmp")).unwrap();
        let err = save(&Trace::default(), &path).unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("t.fcb"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn saving_through_a_symlink_writes_its_target() {
        let dir = scratch("link");
        let (target, link) = (dir.join("target.json"), dir.join("link.json"));
        std::fs::write(&target, "old").unwrap();
        std::os::unix::fs::symlink(&target, &link).unwrap();
        save(&small_trace(), &link).unwrap();
        assert!(std::fs::symlink_metadata(&link).unwrap().is_symlink());
        assert_eq!(load(&target).unwrap(), small_trace());
        assert!(!dir.join("link.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_is_denser_than_json_and_sniffed_by_content() {
        let trace = small_trace();
        let json = encode(&trace, TraceFormat::Json);
        let bytes = encode_bytes(&trace, TraceFormat::Binary);
        assert!(
            bytes.len() * 4 < json.len(),
            "{} vs {} bytes",
            bytes.len(),
            json.len()
        );
        assert!(trace_bin::sniff_binary(&bytes));
        assert!(!trace_bin::sniff_binary(json.as_bytes()));
        assert_eq!(decode_bytes(&bytes).unwrap(), trace);
    }

    #[test]
    fn decode_sniffs_any_format_regardless_of_extension() {
        let trace = small_trace();
        assert_eq!(decode(&encode(&trace, TraceFormat::Json)).unwrap(), trace);
        assert_eq!(decode(&encode(&trace, TraceFormat::Jsonl)).unwrap(), trace);
        for format in [TraceFormat::Json, TraceFormat::Jsonl, TraceFormat::Binary] {
            assert_eq!(
                decode_bytes(&encode_bytes(&trace, format)).unwrap(),
                trace,
                "{format:?}"
            );
        }
    }

    #[test]
    fn non_utf8_non_binary_bytes_are_a_persist_error() {
        let err = decode_bytes(&[0xff, 0xfe, 0x00, 0x41]).unwrap_err();
        assert!(matches!(err, FaircrowdError::Persist { .. }), "{err:?}");
        assert!(
            err.to_string().contains("neither a binary trace nor UTF-8"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "use persist::encode_bytes")]
    fn text_encode_of_binary_panics_with_guidance() {
        encode(&Trace::default(), TraceFormat::Binary);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load("/nonexistent/fc_no_such_dir/trace.json").unwrap_err();
        assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("fc_no_such_dir"), "{err}");
    }

    #[test]
    fn format_for_path() {
        assert_eq!(
            TraceFormat::for_path(Path::new("a/b/t.jsonl")),
            TraceFormat::Jsonl
        );
        assert_eq!(
            TraceFormat::for_path(Path::new("a/b/t.json")),
            TraceFormat::Json
        );
        assert_eq!(
            TraceFormat::for_path(Path::new("a/b/t.fcb")),
            TraceFormat::Binary
        );
        assert_eq!(TraceFormat::for_path(Path::new("bare")), TraceFormat::Json);
    }
}
