//! The binary on-disk encoding for [`Trace`] — `.fcb` files.
//!
//! JSON keeps the audit trail human-readable, but its codec runs an
//! order of magnitude under the hardware; a platform retaining months
//! of event logs (the premise of the paper's transparency axioms —
//! audits run over *recorded* traces) needs a wire format that decodes
//! at memory speed. This module is that format: length-prefixed,
//! varint-packed, columnar where it pays.
//!
//! ## Layout
//!
//! ```text
//! magic            8 bytes: 89 'F' 'C' 'B' 0D 0A 1A 0A
//! schema name      varint length + UTF-8 ("faircrowd-trace")
//! schema version   varint
//! horizon          varint seconds
//! workers          varint count, then one record each
//! tasks            varint count, then one record each
//! requesters       varint count, then one record each
//! submissions      varint count, then one record each
//! events           varint count, then three columns (times, seqs,
//!                  kind tags) followed by the per-event payload stream
//! disclosure       varint count of (item, audience) index pairs
//! ground truth     malicious workers + true labels
//! <end>            decoding past this point is "trailing garbage"
//! ```
//!
//! The PNG-style magic (high bit set, embedded CRLF and ^Z) makes a
//! binary trace unmistakable to the text sniffers and catches newline
//! translation corruption in the first eight bytes. Ids are raw-`u32`
//! varints, money is zigzag-varint millicents, instants and durations
//! are varint seconds, floats are their IEEE-754 bits little-endian —
//! exactly the JSON schema's value conventions, re-spelled in binary,
//! so the two formats decode to identical [`Trace`]s and share
//! [`SCHEMA_NAME`]/`SCHEMA_VERSION`.
//!
//! Each record's field layout is declared once, in the crate's private
//! `schema` module, which derives this codec along with the JSON ones;
//! this module assembles records into the file. The primitives live in
//! [`crate::codec`], shared with the daemon's checkpoint format. Decoding never panics and never trusts a length:
//! every read is bounds-checked against the remaining input and every
//! defect surfaces as a [`FaircrowdError::Persist`] naming the
//! offending byte offset (truncation, foreign magic, an unknown tag, a
//! varint running past ten bytes, an id overflowing `u32`). Referential integrity is left
//! to [`Trace::ensure_valid`], run by the file loader in
//! `faircrowd-core::persist` — the same three-gate contract as the JSON
//! path.

use crate::codec::{put_str, put_u64, Cursor};
use crate::error::FaircrowdError;
use crate::event::{Event, EventKind, EventLog};
use crate::fields::Field;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::trace_io::{SCHEMA_NAME, SCHEMA_VERSION};

/// The eight bytes every `.fcb` file starts with.
pub const MAGIC: [u8; 8] = [0x89, b'F', b'C', b'B', 0x0D, 0x0A, 0x1A, 0x0A];

/// Encode a trace into the binary form.
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    fn records<T: Field>(out: &mut Vec<u8>, items: &[T]) {
        put_u64(out, items.len() as u64);
        for item in items {
            item.put(out);
        }
    }
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    put_str(&mut out, SCHEMA_NAME);
    put_u64(&mut out, SCHEMA_VERSION);
    trace.horizon.put(&mut out);
    records(&mut out, &trace.workers);
    records(&mut out, &trace.tasks);
    records(&mut out, &trace.requesters);
    records(&mut out, &trace.submissions);
    let log = &trace.events;
    put_u64(&mut out, log.len() as u64);
    // Three scalar columns first: same-shaped values compress the
    // varint stream (deltas of times/seqs are short) and let a decoder
    // run tight per-column loops before touching the payload stream.
    for e in log.iter() {
        e.time.put(&mut out);
    }
    for e in log.iter() {
        e.seq.put(&mut out);
    }
    for e in log.iter() {
        out.push(e.kind.wire_tag());
    }
    for e in log.iter() {
        e.kind.put_payload(&mut out);
    }
    trace.disclosure.put(&mut out);
    trace.ground_truth.put(&mut out);
    out
}

/// Decode a trace from its binary form, checking the magic, schema name
/// and version first. Every malformed shape — truncation, an unknown
/// tag, a varint past ten bytes — surfaces as a
/// [`FaircrowdError::Persist`] naming the byte offset; referential
/// integrity is left to [`Trace::ensure_valid`].
pub fn trace_from_bytes(bytes: &[u8]) -> Result<Trace, FaircrowdError> {
    let mut cur = Cursor::new(bytes, "binary trace");
    cur.magic(&MAGIC)?;
    let name = cur.string("schema name")?;
    if name != SCHEMA_NAME {
        return Err(FaircrowdError::persist(format!(
            "binary trace declares schema `{name}`, not `{SCHEMA_NAME}`"
        )));
    }
    let version = cur.u64("schema version")?;
    if version != SCHEMA_VERSION {
        return Err(FaircrowdError::persist(format!(
            "unsupported schema version {version} (this build reads version {SCHEMA_VERSION})"
        )));
    }
    let trace = Trace {
        horizon: SimTime::get(&mut cur, "horizon")?,
        workers: records(&mut cur, "worker")?,
        tasks: records(&mut cur, "task")?,
        requesters: records(&mut cur, "requester")?,
        submissions: records(&mut cur, "submission")?,
        events: events(&mut cur)?,
        disclosure: Field::get(&mut cur, "disclosure")?,
        ground_truth: Field::get(&mut cur, "ground truth")?,
    };
    cur.finish()?;
    Ok(trace)
}

/// A varint count, then that many `kind` records. A decode error is
/// tagged with the record it happened in — paid only on the error path,
/// so the per-record hot loop never formats context.
fn records<T: Field>(cur: &mut Cursor<'_>, kind: &str) -> Result<Vec<T>, FaircrowdError> {
    let n = cur.count(&format!("{kind} count"))?;
    let mut items = Vec::with_capacity(n.min(cur.remaining()));
    for i in 0..n {
        let item = T::get(cur, kind)
            .map_err(|e| FaircrowdError::persist(format!("{e} (in {kind} record {i})")))?;
        items.push(item);
    }
    Ok(items)
}

/// The event section: a count, the time, seq and kind-tag columns, then
/// each event's fields. The two varint columns are skip-scanned first,
/// so a defect in them is reported where a column-by-column read would
/// meet it; then one walk reads each event's time, seq, tag and payload
/// in lockstep and builds the event in place, with no column buffered.
fn events(cur: &mut Cursor<'_>) -> Result<EventLog, FaircrowdError> {
    let n = cur.count("event count")?;
    let mut times = cur.clone();
    for _ in 0..n {
        cur.u64("event time column")?;
    }
    let mut seqs = cur.clone();
    for _ in 0..n {
        cur.u64("event seq column")?;
    }
    let tags = cur.take(n, "event kind column")?;
    let mut events = Vec::with_capacity(n);
    for &tag in tags {
        events.push(Event {
            time: SimTime::get(&mut times, "event time column")?,
            seq: seqs.u64("event seq column")?,
            kind: EventKind::get_payload(tag, cur)?,
        });
    }
    Ok(EventLog::from_events(events))
}

/// Does this byte buffer start with the `.fcb` magic? (The sniff the
/// loaders use before routing to [`trace_from_bytes`] — a binary trace
/// can never be confused with UTF-8 JSON because the first byte has
/// its high bit set.)
pub fn sniff_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skills::SkillVector;
    use crate::task::TaskKind;

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::default();
        let bytes = trace_to_bytes(&trace);
        assert!(sniff_binary(&bytes));
        let back = trace_from_bytes(&bytes).expect("decodes");
        assert_eq!(back, trace);
    }

    #[test]
    fn skills_pack_to_bits_and_back() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let v = SkillVector::from_bools((0..n).map(|i| i % 3 == 0));
            let mut buf = Vec::new();
            v.put(&mut buf);
            assert_eq!(buf.len(), varint_len(n as u64) + n.div_ceil(8));
            let mut cur = Cursor::new(&buf, "probe");
            assert_eq!(
                <SkillVector as Field>::get(&mut cur, "probe").expect("valid"),
                v
            );
        }
    }

    #[test]
    fn an_unknown_task_kind_tag_is_reported_at_the_tag() {
        let mut buf = Vec::new();
        TaskKind::Survey.put(&mut buf);
        buf[0] = 9;
        let err = <TaskKind as Field>::get(&mut Cursor::new(&buf, "probe"), "kind")
            .expect_err("tag 9 is not a task kind");
        assert_eq!(
            err.to_string(),
            "cannot decode trace: probe: unknown task kind tag 9 at byte 0"
        );
    }

    fn varint_len(v: u64) -> usize {
        let mut buf = Vec::new();
        put_u64(&mut buf, v);
        buf.len()
    }

    #[test]
    fn foreign_magic_is_named() {
        let err = trace_from_bytes(b"PK\x03\x04not a trace").expect_err("zip magic");
        assert!(err.to_string().contains("magic"), "got: {err}");
        let err = trace_from_bytes(b"\x89FCB").expect_err("short file");
        assert!(err.to_string().contains("shorter"), "got: {err}");
    }

    #[test]
    fn future_version_is_rejected_by_name() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_str(&mut bytes, SCHEMA_NAME);
        put_u64(&mut bytes, SCHEMA_VERSION + 41);
        let err = trace_from_bytes(&bytes).expect_err("future version");
        assert!(
            err.to_string()
                .contains("unsupported schema version 42 (this build reads version 1)"),
            "got: {err}"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = trace_to_bytes(&Trace::default());
        bytes.extend_from_slice(b"oops");
        let err = trace_from_bytes(&bytes).expect_err("trailing bytes");
        assert!(err.to_string().contains("trailing garbage"), "got: {err}");
    }

    #[test]
    fn hostile_counts_do_not_preallocate() {
        // A tiny file claiming u64::MAX workers must fail on truncation,
        // not abort allocating a zettabyte vector.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_str(&mut bytes, SCHEMA_NAME);
        put_u64(&mut bytes, SCHEMA_VERSION);
        put_u64(&mut bytes, 0); // horizon
        put_u64(&mut bytes, u64::MAX); // worker count
        let err = trace_from_bytes(&bytes).expect_err("no workers follow");
        assert!(err.to_string().contains("unexpected end"), "got: {err}");
    }
}
