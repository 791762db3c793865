//! Failure modes of the checkpoint persistence layer.
//!
//! Every way a checkpoint file can be bad — truncated at any byte,
//! foreign schema, a version this build doesn't read, a version 1 JSON
//! file from before the binary format, a header seq that disagrees
//! with its mirror, monitor state that doesn't cover its entity tables,
//! any single corrupted byte — must surface as a descriptive
//! [`FaircrowdError`], never a panic. These tests drive
//! [`faircrowd_core::checkpoint::load`] and
//! [`faircrowd_core::checkpoint::decode`] (the paths untrusted bytes
//! come through) over byte-level surgery on a real mid-stream snapshot,
//! walking the layout documented in the `checkpoint` module.

use faircrowd_core::checkpoint::{self, MAGIC, SCHEMA_NAME};
use faircrowd_core::persist::{self, TraceFormat};
use faircrowd_core::{AuditConfig, LiveAuditor};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::fields::{At, Field, RecordCtx};
use faircrowd_model::json::Json;
use faircrowd_model::trace::Trace;
use faircrowd_sim::{CampaignSpec, ScenarioConfig, Simulation, WorkerPopulation};
use std::path::PathBuf;

/// Offsets of the fixed-position header fields: magic, then a one-byte
/// name length and the name, then a one-byte version, then the 8-byte
/// header seq.
const NAME_AT: usize = MAGIC.len() + 1;
const VERSION_AT: usize = NAME_AT + SCHEMA_NAME.len();
const SEQ_AT: usize = VERSION_AT + 1;

fn small_trace() -> Trace {
    Simulation::new(ScenarioConfig {
        seed: 7,
        rounds: 10,
        workers: vec![WorkerPopulation::diligent(6)],
        campaigns: vec![CampaignSpec::labeling("acme", 8, 6)],
        ..Default::default()
    })
    .run()
}

/// A real mid-stream checkpoint: a small simulator trace streamed
/// halfway into a live auditor, then snapshotted.
fn mid_stream_checkpoint() -> checkpoint::Checkpoint {
    let trace = small_trace();
    let mut auditor = LiveAuditor::new(AuditConfig::default());
    auditor.set_horizon(trace.horizon);
    auditor.set_disclosure(trace.disclosure.clone());
    auditor.set_ground_truth(trace.ground_truth.clone());
    for w in &trace.workers {
        auditor.add_worker(w.clone());
    }
    for t in &trace.tasks {
        auditor.add_task(t.clone());
    }
    for r in &trace.requesters {
        auditor.add_requester(r.clone());
    }
    for s in &trace.submissions {
        auditor.add_submission(s.clone());
    }
    for e in trace.events.iter().take(trace.events.len() / 2) {
        auditor.ingest(e.clone()).unwrap();
    }
    auditor.checkpoint(40)
}

/// Write `bytes` to a fresh temp file and load it back.
fn load_bytes(name: &str, bytes: &[u8]) -> Result<checkpoint::Checkpoint, FaircrowdError> {
    let path: PathBuf =
        std::env::temp_dir().join(format!("fc_ckfail_{}_{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let result = checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// A reader for walking the documented layout from a test.
struct Walk<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Walk<'_> {
    fn varint(&mut self) -> u64 {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }

    /// A count, then that many varints (an id set).
    fn ids(&mut self) {
        for _ in 0..self.varint() {
            self.varint();
        }
    }
}

/// The offset of the `qual_tasks` section: past the header scalars,
/// the world blob and the mirror.
fn qual_tasks_at(bytes: &[u8]) -> usize {
    let mut w = Walk {
        bytes,
        at: SEQ_AT + 8,
    };
    for _ in 0..3 {
        w.varint(); // events_seen, source_lines, last_time
    }
    w.at += 1; // flags
    w.varint(); // max_findings
    w.varint(); // suppressed
    let world = w.varint() as usize;
    w.at += world;
    for _ in 0..2 {
        // visibility, audience: key gap + id set per entry
        for _ in 0..w.varint() {
            w.varint();
            w.ids();
        }
    }
    for _ in 0..2 {
        // payments, earnings: key gap + amount per entry
        for _ in 0..w.varint() {
            w.varint();
            w.varint();
        }
    }
    for _ in 0..3 {
        w.ids(); // flagged, session_workers, informed_workers
    }
    w.varint(); // work_started
    for _ in 0..w.varint() {
        // interruptions: task, worker, invested, compensated byte
        w.varint();
        w.varint();
        w.varint();
        w.at += 1;
    }
    for _ in 0..w.varint() {
        // quits: worker, reason byte, time
        w.varint();
        w.at += 1;
        w.varint();
    }
    w.at
}

#[test]
fn a_valid_checkpoint_loads_and_resumes() {
    let ckpt = mid_stream_checkpoint();
    let bytes = checkpoint::encode(&ckpt);
    assert_eq!(&bytes[..MAGIC.len()], &MAGIC);
    let loaded = load_bytes("ok.checkpoint", &bytes).unwrap();
    assert_eq!(loaded, ckpt);
    let auditor = LiveAuditor::resume(AuditConfig::default(), &loaded).unwrap();
    assert_eq!(auditor.resumed_events(), ckpt.seq());
}

#[test]
fn the_declaration_also_gives_a_lossless_json_form() {
    // The body's table derives a JSON spelling with the binary one. A
    // finalized snapshot adds end-of-stream findings to the origins.
    let mut finished = LiveAuditor::new(AuditConfig::default());
    finished.ingest_trace(&small_trace()).unwrap();
    finished.finalize();
    let at = At {
        ctx: RecordCtx::Section("checkpoint"),
        key: "checkpoint",
    };
    for ckpt in [mid_stream_checkpoint(), finished.checkpoint(0)] {
        let text = ckpt.to_json().to_compact();
        let back = checkpoint::Checkpoint::from_json(&Json::parse(&text).unwrap(), at).unwrap();
        assert_eq!(back, ckpt);
    }
}

#[test]
fn truncated_checkpoints_error_at_every_byte() {
    let bytes = checkpoint::encode(&mid_stream_checkpoint());
    for cut in 0..bytes.len() {
        let err = checkpoint::decode(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, FaircrowdError::Persist { .. }),
            "cut at {cut}: {err:?}"
        );
    }
    // Through the file loader, the error names the file it refused.
    for cut in [0, SEQ_AT + 3, bytes.len() / 2, bytes.len() - 1] {
        let err = load_bytes("trunc.checkpoint", &bytes[..cut]).unwrap_err();
        assert!(err.to_string().contains("trunc.checkpoint"), "{err}");
        assert!(err.to_string().contains("byte"), "cut at {cut}: {err}");
    }
}

#[test]
fn foreign_schema_is_named_not_guessed() {
    // Checkpoint magic, someone else's schema name (same length).
    let mut bytes = checkpoint::encode(&mid_stream_checkpoint());
    assert_eq!(&bytes[NAME_AT..VERSION_AT], SCHEMA_NAME.as_bytes());
    bytes[NAME_AT..VERSION_AT].copy_from_slice(b"someone-elses-schema");
    let msg = load_bytes("foreign.checkpoint", &bytes)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("someone-elses-schema"), "{msg}");
    assert!(msg.contains("faircrowd-checkpoint"), "{msg}");

    // A trace file is not a checkpoint file, even though both are ours —
    // in either trace format.
    let trace = small_trace();
    for (name, bytes) in [
        (
            "trace.fcb",
            persist::encode_bytes(&trace, TraceFormat::Binary),
        ),
        (
            "trace.json",
            persist::encode_bytes(&trace, TraceFormat::Json),
        ),
    ] {
        let msg = load_bytes(name, &bytes).unwrap_err().to_string();
        assert!(msg.contains("faircrowd-trace"), "{name}: {msg}");
        assert!(msg.contains("faircrowd-checkpoint"), "{name}: {msg}");
    }

    // A JSON document of someone else's, one with no schema at all, and
    // bytes that are nothing of ours.
    let msg = load_bytes(
        "foreign.json",
        b"{\"schema\": \"someone-elses\", \"version\": 1}",
    )
    .unwrap_err()
    .to_string();
    assert!(msg.contains("someone-elses"), "{msg}");
    let err = load_bytes("schemaless.json", b"{\"version\": 1}").unwrap_err();
    assert!(
        err.to_string().contains("not a faircrowd checkpoint"),
        "{err}"
    );
    let err = load_bytes("noise", b"PK\x03\x04 not a checkpoint").unwrap_err();
    assert!(err.to_string().contains("magic bytes missing"), "{err}");
}

#[test]
fn a_version_1_json_checkpoint_is_refused_by_name() {
    let v1 = "{\n  \"schema\": \"faircrowd-checkpoint\",\n  \"version\": 1,\n  \"seq\": 12,\n  \
              \"source_lines\": 40\n}\n";
    let err = load_bytes("v1.checkpoint.json", v1.as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, FaircrowdError::Persist { .. }), "{err:?}");
    assert!(msg.contains("checkpoint version 1 (JSON)"), "{msg}");
    assert!(msg.contains("this build reads version 2"), "{msg}");
}

#[test]
fn future_versions_are_refused_with_both_numbers() {
    let mut bytes = checkpoint::encode(&mid_stream_checkpoint());
    assert_eq!(bytes[VERSION_AT], 2);
    bytes[VERSION_AT] = 99;
    let msg = load_bytes("future.checkpoint", &bytes)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("99"), "{msg}");
    assert!(msg.contains("reads version 2"), "{msg}");
}

#[test]
fn header_seq_disagreeing_with_mirror_is_refused() {
    // A checkpoint stitched from two moments: the header claims one
    // seq, the body's events_seen another. Must fail the cross-check
    // gate with both numbers named, never resume into skewed state.
    let ckpt = mid_stream_checkpoint();
    let seq = ckpt.seq();
    let mut bytes = checkpoint::encode(&ckpt);
    assert_eq!(&bytes[SEQ_AT..SEQ_AT + 8], &seq.to_le_bytes());
    bytes[SEQ_AT..SEQ_AT + 8].copy_from_slice(&(seq + 3).to_le_bytes());
    let err = load_bytes("skewed.checkpoint", &bytes).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, FaircrowdError::Persist { .. }), "{err:?}");
    assert!(msg.contains(&format!("{}", seq + 3)), "{msg}");
    assert!(msg.contains(&format!("{seq}")), "{msg}");
    assert!(msg.contains("disagrees"), "{msg}");
}

#[test]
fn monitor_state_must_cover_the_entity_tables() {
    // Drop one qualification row: the integrity gate must refuse the
    // checkpoint (its monitor state no longer covers the worker table)
    // rather than let `resume` index out of bounds.
    let bytes = checkpoint::encode(&mid_stream_checkpoint());
    let at = qual_tasks_at(&bytes);
    let rows = bytes[at];
    assert_eq!(rows, 6, "one qual_tasks row per worker");
    let mut row = Walk {
        bytes: &bytes,
        at: at + 1,
    };
    row.varint(); // seen
    row.ids();
    let mut gutted = bytes[..at].to_vec();
    gutted.push(rows - 1);
    gutted.extend_from_slice(&bytes[row.at..]);
    let err = load_bytes("uncovered.checkpoint", &gutted).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, FaircrowdError::Persist { .. }), "{err:?}");
    assert!(msg.contains("integrity"), "{msg}");
    assert!(msg.contains("`qual_tasks` has 5 row(s)"), "{msg}");
}

#[test]
fn pair_counter_rows_are_refused_by_name() {
    // No build writes A1/A2 pair counters (a pair fires at its first
    // qualifying exposure); a body holding one row is state this build
    // cannot resume, and the gate names the field that holds it.
    let bytes = checkpoint::encode(&mid_stream_checkpoint());
    let mut w = Walk {
        bytes: &bytes,
        at: qual_tasks_at(&bytes),
    };
    for _ in 0..4 {
        // qual_tasks, qual_workers, similar_ and comparable_partners:
        // rows of a `seen` count and a list of positions or ids.
        for _ in 0..w.varint() {
            w.varint();
            w.ids();
        }
    }
    let a1_at = w.at;
    assert_eq!(&bytes[a1_at..a1_at + 2], &[0, 0], "both lists are empty");
    for (at, name) in [(a1_at, "a1_pairs"), (a1_at + 1, "a2_pairs")] {
        let mut tampered = bytes[..at].to_vec();
        tampered.extend_from_slice(&[1, 0, 1, 1, 0, 0]); // one row [0, 1, 1, 0, 0]
        tampered.extend_from_slice(&bytes[at + 1..]);
        let decoded = checkpoint::decode(&tampered).expect("the row itself is well-formed");
        let msg = decoded.ensure_valid().unwrap_err().to_string();
        assert!(
            msg.contains(&format!("`{name}` holds 1 pair counter row(s)")),
            "{msg}"
        );
        let err = load_bytes("counters.checkpoint", &tampered).unwrap_err();
        assert!(matches!(err, FaircrowdError::Persist { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.starts_with("cannot decode checkpoint file `"), "{msg}");
        assert!(msg.contains(name), "{msg}");
    }
}

#[test]
fn a_truncation_inside_a_field_names_the_field_and_the_byte() {
    // The body's decoder is derived from its declaration; a cut anywhere
    // inside `qual_tasks` (its row count, a row's `seen`, an id count or
    // a gap-coded id) must still name the field and the byte it broke at.
    let bytes = checkpoint::encode(&mid_stream_checkpoint());
    let at = qual_tasks_at(&bytes);
    let mut rows = Walk { bytes: &bytes, at };
    for _ in 0..rows.varint() {
        rows.varint(); // seen
        rows.ids();
    }
    assert!(rows.at > at + 6, "the section holds one row per worker");
    for cut in at..rows.at {
        let msg = checkpoint::decode(&bytes[..cut]).unwrap_err().to_string();
        assert!(msg.contains("qual_tasks"), "cut at {cut}: {msg}");
        assert!(
            msg.contains(&format!("at byte {cut}")),
            "cut at {cut}: {msg}"
        );
    }
}

#[test]
fn every_single_byte_flip_fails_cleanly_or_decodes() {
    // Whatever one corrupted byte does, decoding either refuses it with
    // a positioned `Persist` error or yields a checkpoint that the
    // integrity gate then judges — never a panic, and never an
    // allocation sized by a length the bytes behind it do not back.
    let bytes = checkpoint::encode(&mid_stream_checkpoint());
    let mut decoded = 0;
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            match checkpoint::decode(&flipped) {
                Err(err) => assert!(
                    matches!(err, FaircrowdError::Persist { .. }),
                    "flip {mask:#04x} at {at}: {err:?}"
                ),
                Ok(ckpt) => {
                    decoded += 1;
                    if ckpt.ensure_valid().is_ok() {
                        LiveAuditor::resume(AuditConfig::default(), &ckpt)
                            .expect("a valid checkpoint resumes");
                    }
                }
            }
        }
    }
    assert!(decoded > 0, "some flips land in values, not structure");
}

#[test]
fn missing_checkpoint_file_is_an_io_error() {
    let err = checkpoint::load("/no/such/fc_market.checkpoint").unwrap_err();
    assert!(matches!(err, FaircrowdError::Io { .. }), "{err:?}");
    assert!(err.to_string().contains("fc_market.checkpoint"), "{err}");
}
