//! The checkpoint journal: one append-only file per checkpoint target,
//! holding every market's [`Checkpoint`]s as framed records.
//!
//! A daemon round appends the records of every market it snapshotted,
//! in market order, with one write. Opening the file scans the records
//! once and keeps, per market, the offset of its newest intact record;
//! a record's body is read and decoded only when its market resumes.
//! A kill mid-write leaves a torn last record: the scan cuts it off,
//! with a notice, and that market resumes from its previous record
//! instead of replaying its whole trace.
//!
//! ```text
//! header   magic 89 'F' 'C' 'J' 0D 0A 1A 0A,
//!          "faircrowd-journal" (varint length + UTF-8), version 1
//! record   u64 LE length of what follows up to the checksum,
//!          market name (varint length + UTF-8),
//!          a `faircrowd-checkpoint` v2 body exactly as
//!          [`checkpoint::encode`] writes it,
//!          u64 LE checksum of the length field, name and body
//! ```
//!
//! The checksum is FNV-1a taken a 64-bit word at a time (the last word
//! zero-padded): every step is a bijection on the running hash, so a
//! change confined to one word is always caught.
//!
//! Superseded records are dead bytes. Once they outweigh both the live
//! records and [`COMPACT_FLOOR`], the live records are copied, in
//! market order, to `<journal>.tmp`, which is renamed over the journal:
//! one rename per compaction, none per checkpoint. A kill before the
//! rename leaves the old journal whole; the next open deletes the
//! leftover `.tmp`. Nothing is fsynced: a record is as durable as the
//! page cache that holds it.

use crate::checkpoint::{self, Checkpoint};
use faircrowd_model::codec::{put_str, put_u64, Cursor};
use faircrowd_model::error::FaircrowdError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The journal file's name under a `serve --checkpoint-dir`.
pub(crate) const FILE_NAME: &str = "checkpoints.journal";
/// The eight bytes every journal starts with (the checkpoint magic's
/// shape, with `J` for journal).
const MAGIC: [u8; 8] = [0x89, b'F', b'C', b'J', 0x0D, 0x0A, 0x1A, 0x0A];
const SCHEMA_NAME: &str = "faircrowd-journal";
const SCHEMA_VERSION: u64 = 1;
/// Dead bytes a journal may carry before it is compacted, whatever
/// its live size.
pub(crate) const COMPACT_FLOOR: u64 = 8 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn header() -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    put_str(&mut out, SCHEMA_NAME);
    put_u64(&mut out, SCHEMA_VERSION);
    out
}

/// FNV-1a over 64-bit little-endian words, the last one zero-padded.
fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    (h ^ u64::from_le_bytes(last)).wrapping_mul(FNV_PRIME)
}

/// One framed record, ready to append.
#[derive(Debug)]
pub(crate) struct Record {
    market: String,
    bytes: Vec<u8>,
    /// Where the checkpoint body starts within `bytes`.
    body: usize,
}

impl Record {
    /// Frame `ckpt` as market `market`'s record.
    pub(crate) fn new(market: &str, ckpt: &Checkpoint) -> Record {
        Record::frame(market, |out| checkpoint::encode_into(ckpt, out))
    }

    /// Frame the body `write_body` appends as market `market`'s record.
    pub(crate) fn frame(market: &str, write_body: impl FnOnce(&mut Vec<u8>)) -> Record {
        let mut bytes = vec![0; 8];
        put_str(&mut bytes, market);
        let body = bytes.len();
        write_body(&mut bytes);
        let len = (bytes.len() - 8) as u64;
        bytes[..8].copy_from_slice(&len.to_le_bytes());
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        Record {
            market: market.to_owned(),
            bytes,
            body,
        }
    }

    /// The market this record checkpoints.
    pub(crate) fn market(&self) -> &str {
        &self.market
    }
}

/// Where one record sits in the file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset of the record's length field.
    at: u64,
    /// The whole record's size, checksum included.
    len: u64,
    /// Offset of the checkpoint body.
    body: u64,
}

/// An open checkpoint journal. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    /// The journal file, opened for reading and appending; `None` until
    /// the first append creates it (or replaces a pre-journal file).
    file: Option<File>,
    /// Why this path is never written: a file that is not a journal
    /// sits there, and it is not ours to overwrite.
    refused: Option<String>,
    /// Length of the intact journal: header plus whole records.
    end: u64,
    /// Each market's newest intact record.
    newest: BTreeMap<String, Slot>,
    /// Total size of the records in `newest`.
    live: u64,
}

impl Journal {
    /// Open the journal at `path`, scanning its records. A missing file
    /// is an empty journal, created at the first append. Returns the
    /// journal and a notice when something was cut, refused or set aside.
    pub(crate) fn open(path: &Path) -> (Journal, Option<String>) {
        let mut journal = Journal {
            path: path.to_owned(),
            file: None,
            refused: None,
            end: 0,
            newest: BTreeMap::new(),
            live: 0,
        };
        // A compaction killed before its rename; the journal itself is whole.
        let _ = std::fs::remove_file(tmp_path(path));
        let file = match OpenOptions::new().read(true).append(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return (journal, None),
            Err(e) => return journal.refuse(format!("cannot open it: {e}")),
        };
        let shown = path.display();
        match journal.scan(&file) {
            Ok(Scanned::Journal) => {
                journal.file = Some(file);
                (journal, None)
            }
            Ok(Scanned::Torn { at, cut }) => {
                if let Err(e) = file.set_len(at) {
                    return journal.refuse(format!("cannot cut its torn tail: {e}"));
                }
                journal.file = Some(file);
                let notice = format!(
                    "checkpoint journal `{shown}`: cut {cut} byte(s) of torn or corrupt record \
                     at byte {at}; the markets it held resume from their previous record"
                );
                (journal, Some(notice))
            }
            Ok(Scanned::Empty) => (journal, None),
            Ok(Scanned::PreJournal) => {
                let notice = format!(
                    "`{shown}` is a single checkpoint from before the checkpoint journal; it is \
                     not read, its market replays from the trace, and the first checkpoint \
                     replaces it with a journal"
                );
                (journal, Some(notice))
            }
            Ok(Scanned::Foreign(why)) => journal.refuse(why),
            Err(e) => journal.refuse(format!("cannot read it: {e}")),
        }
    }

    fn refuse(mut self, why: String) -> (Journal, Option<String>) {
        let notice = format!(
            "checkpoint journal `{}` refused: {why}; its markets replay from the trace and it \
             is never written",
            self.path.display()
        );
        self.refused = Some(why);
        (self, Some(notice))
    }

    /// Read the header and every record, keeping each market's newest
    /// intact one. Stops at the first record that is torn or fails its
    /// checksum.
    fn scan(&mut self, file: &File) -> io::Result<Scanned> {
        let size = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(1 << 20, file);
        let want = header();
        // Enough to name a foreign schema, not just to match ours.
        let mut head = Vec::with_capacity(256);
        (&mut reader).take(256).read_to_end(&mut head)?;
        if head.len() < want.len() && want.starts_with(&head) {
            // Empty, or killed while writing its header.
            return Ok(Scanned::Empty);
        }
        if head.starts_with(&checkpoint::MAGIC) {
            return Ok(Scanned::PreJournal);
        }
        if let Err(why) = check_header(&head) {
            return Ok(Scanned::Foreign(why));
        }
        let mut at = reader.seek(SeekFrom::Start(want.len() as u64))?;
        let mut buf = Vec::new();
        while at < size {
            let Some((market, slot)) = next_record(&mut reader, at, size - at, &mut buf)? else {
                self.end = at;
                return Ok(Scanned::Torn { at, cut: size - at });
            };
            self.keep(market, slot);
            at += slot.len;
        }
        self.end = at;
        Ok(Scanned::Journal)
    }

    /// Make `slot` the newest record of `market`.
    fn keep(&mut self, market: String, slot: Slot) {
        self.live += slot.len;
        if let Some(old) = self.newest.insert(market, slot) {
            self.live -= old.len;
        }
    }

    /// The newest checkpoint of `market`, decoded and validated; `None`
    /// when the journal holds no record for it.
    pub(crate) fn load(&self, market: &str) -> Option<Result<Checkpoint, String>> {
        let slot = self.newest.get(market)?;
        let file = self.file.as_ref()?;
        let mut body = vec![0; (slot.at + slot.len - 8 - slot.body) as usize];
        let loaded = read_at(file, slot.body, &mut body)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                let at = format!("{} (record at byte {})", self.path.display(), slot.at);
                let ckpt = checkpoint::decode(&body).map_err(|e| e.at_path(&at).to_string())?;
                ckpt.ensure_valid()
                    .map_err(|e| e.at_path(&at).to_string())?;
                Ok(ckpt)
            });
        Some(loaded)
    }

    /// The markets holding a record, in name order.
    pub(crate) fn markets(&self) -> impl Iterator<Item = &str> {
        self.newest.keys().map(String::as_str)
    }

    /// Append `records` in one write. On failure the journal is cut
    /// back to where it ended, so no partial record stays behind.
    pub(crate) fn append(&mut self, records: &[Record]) -> io::Result<()> {
        if let Some(why) = &self.refused {
            return Err(io::Error::other(format!(
                "checkpoint journal `{}` was refused when opened: {why}",
                self.path.display()
            )));
        }
        if self.file.is_none() {
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&self.path)?;
            file.set_len(0)?;
            (&file).write_all(&header())?;
            self.end = header().len() as u64;
            self.file = Some(file);
        }
        let file = self.file.as_ref().expect("created above");
        let written = match records {
            [one] => (&*file).write_all(&one.bytes),
            _ => {
                let batch: Vec<&[u8]> = records.iter().map(|r| r.bytes.as_slice()).collect();
                (&*file).write_all(&batch.concat())
            }
        };
        if let Err(e) = written {
            let _ = file.set_len(self.end);
            return Err(e);
        }
        for record in records {
            let slot = Slot {
                at: self.end,
                len: record.bytes.len() as u64,
                body: self.end + record.body as u64,
            };
            self.end += slot.len;
            self.keep(record.market.clone(), slot);
        }
        Ok(())
    }

    /// Compact when the dead bytes outweigh both the live records and
    /// `floor`. Returns whether it did; on failure the old journal
    /// stays in use, whole.
    pub(crate) fn compact_if_due(&mut self, floor: u64) -> io::Result<bool> {
        let Some(file) = &self.file else {
            return Ok(false);
        };
        let dead = self.end - header().len() as u64 - self.live;
        if dead <= self.live || dead <= floor {
            return Ok(false);
        }
        let tmp = tmp_path(&self.path);
        let _ = std::fs::remove_file(&tmp);
        match copy_live(file, &self.newest, &tmp).and_then(|moved| {
            std::fs::rename(&tmp, &self.path)?;
            Ok(moved)
        }) {
            Ok((compacted, slots)) => {
                self.newest = slots;
                self.end = header().len() as u64 + self.live;
                self.file = Some(compacted);
                Ok(true)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// The byte range of `market`'s newest record.
    #[cfg(test)]
    pub(crate) fn span(&self, market: &str) -> Option<std::ops::Range<usize>> {
        let slot = self.newest.get(market)?;
        Some(slot.at as usize..(slot.at + slot.len) as usize)
    }
}

/// What a scan found at a journal path.
enum Scanned {
    /// A journal, every record intact.
    Journal,
    /// A journal whose records are intact up to byte `at`; the `cut`
    /// bytes from there on are a torn or corrupt record.
    Torn { at: u64, cut: u64 },
    /// An empty file, or one holding part of a journal header.
    Empty,
    /// A bare checkpoint file, as written before the journal.
    PreJournal,
    /// Anything else, and why it is not a journal.
    Foreign(String),
}

/// Read the record at byte `at` of a journal with `left` bytes from
/// there on, through `buf`: its market and slot, or `None` when it is
/// torn (cut short) or corrupt (fails its checksum). No length is
/// trusted past `left`.
fn next_record(
    reader: &mut impl Read,
    at: u64,
    left: u64,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(String, Slot)>> {
    if left < 16 {
        return Ok(None);
    }
    let mut len = [0; 8];
    reader.read_exact(&mut len)?;
    let Some(total) = u64::from_le_bytes(len)
        .checked_add(16)
        .filter(|&total| total <= left)
    else {
        return Ok(None);
    };
    buf.resize(total as usize, 0);
    buf[..8].copy_from_slice(&len);
    reader.read_exact(&mut buf[8..])?;
    let (covered, stored) = buf.split_at(buf.len() - 8);
    if checksum(covered) != u64::from_le_bytes(stored.try_into().expect("8 bytes")) {
        return Ok(None);
    }
    let mut cur = Cursor::new(&covered[8..], "checkpoint journal");
    let Ok(market) = cur.string("market name") else {
        return Ok(None);
    };
    let body = at + 8 + cur.pos() as u64;
    Ok(Some((
        market,
        Slot {
            at,
            len: total,
            body,
        },
    )))
}

/// Check a complete header's magic, schema name and version.
fn check_header(head: &[u8]) -> Result<(), String> {
    let mut cur = Cursor::new(head, "checkpoint journal");
    cur.magic(&MAGIC).map_err(message)?;
    let name = cur.string("schema name").map_err(message)?;
    if name != SCHEMA_NAME {
        return Err(format!(
            "it declares schema `{name}`, expected `{SCHEMA_NAME}`"
        ));
    }
    match cur.u64("schema version") {
        Ok(SCHEMA_VERSION) => Ok(()),
        Ok(v) => Err(format!(
            "unsupported journal version {v} (this build reads version {SCHEMA_VERSION})"
        )),
        Err(e) => Err(message(e)),
    }
}

/// A cursor error's own words, without the "cannot decode …" its
/// display leads with.
fn message(e: FaircrowdError) -> String {
    match e {
        FaircrowdError::Persist { message, .. } => message,
        other => other.to_string(),
    }
}

/// `<path>.tmp`, the compaction's scratch file.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

fn read_at(file: &File, at: u64, buf: &mut [u8]) -> io::Result<()> {
    let mut file = file;
    file.seek(SeekFrom::Start(at))?;
    file.read_exact(buf)
}

/// Write a journal holding only the newest records, in market order, to
/// `tmp`; return it open for appending, with the records' new slots.
fn copy_live(
    from: &File,
    newest: &BTreeMap<String, Slot>,
    tmp: &Path,
) -> io::Result<(File, BTreeMap<String, Slot>)> {
    let file = OpenOptions::new()
        .read(true)
        .append(true)
        .create_new(true)
        .open(tmp)?;
    let mut out = BufWriter::with_capacity(1 << 20, &file);
    let head = header();
    out.write_all(&head)?;
    let mut at = head.len() as u64;
    let mut slots = BTreeMap::new();
    let mut buf = Vec::new();
    for (market, slot) in newest {
        buf.resize(slot.len as usize, 0);
        read_at(from, slot.at, &mut buf)?;
        out.write_all(&buf)?;
        let moved = Slot {
            at,
            body: at + (slot.body - slot.at),
            ..*slot
        };
        slots.insert(market.clone(), moved);
        at += slot.len;
    }
    out.flush()?;
    drop(out);
    Ok((file, slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::live::LiveAuditor;
    use faircrowd_model::event::EventLog;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc_journal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Checkpoints of one catalog market after 1, 2, … `n` slices of
    /// its events, each a distinct size.
    fn checkpoints(n: usize) -> Vec<Checkpoint> {
        let config = faircrowd_sim::catalog::get("spam_campaign").unwrap();
        let trace = faircrowd_sim::Simulation::new(config).run();
        (1..=n)
            .map(|i| {
                let mut prefix = trace.clone();
                let cut = i * trace.events.len() / n;
                prefix.events = EventLog::from_events(trace.events.as_slice()[..cut].to_vec());
                let mut auditor = LiveAuditor::new(AuditConfig::default());
                auditor.ingest_trace(&prefix).unwrap();
                auditor.checkpoint(0)
            })
            .collect()
    }

    #[test]
    fn compaction_keeps_exactly_the_newest_records_in_market_order() {
        let dir = temp_dir("compact");
        let (path, fresh) = (dir.join(FILE_NAME), dir.join("fresh.journal"));
        let ckpts = checkpoints(6);
        let (mut journal, _) = Journal::open(&path);
        // Rounds of records for markets `b` and `a`, each superseding
        // the last; a floor of one byte lets the dead bytes decide.
        let mut compactions = 0;
        for (i, ckpt) in ckpts.iter().enumerate() {
            let (a, b) = (&ckpts[i / 2], ckpt);
            journal
                .append(&[Record::new("b", b), Record::new("a", a)])
                .unwrap();
            if !journal.compact_if_due(1).unwrap() {
                continue;
            }
            compactions += 1;
            assert!(!tmp_path(&path).exists());
            // A compacted journal is what a fresh one holding only the
            // newest records, in market order, would be.
            std::fs::remove_file(&fresh).ok();
            let (mut other, _) = Journal::open(&fresh);
            other
                .append(&[Record::new("a", a), Record::new("b", b)])
                .unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                std::fs::read(&fresh).unwrap()
            );
            // The open journal reads its records where the copy put them.
            for (market, want) in [("a", a), ("b", b)] {
                let got = journal.load(market).unwrap().unwrap();
                assert_eq!(
                    checkpoint::encode(&got),
                    checkpoint::encode(want),
                    "{market}"
                );
            }
        }
        assert!(compactions > 0);
        let want_a = &ckpts[(ckpts.len() - 1) / 2];
        for (market, want) in [("a", want_a), ("b", ckpts.last().unwrap())] {
            let got = Journal::open(&path).0.load(market).unwrap().unwrap();
            assert_eq!(
                checkpoint::encode(&got),
                checkpoint::encode(want),
                "{market}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_compaction_killed_before_its_rename_leaves_the_old_journal_readable() {
        let dir = temp_dir("killed_compaction");
        let path = dir.join(FILE_NAME);
        let ckpts = checkpoints(3);
        let (mut journal, _) = Journal::open(&path);
        for ckpt in &ckpts {
            journal.append(&[Record::new("m", ckpt)]).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        // The compaction's copy is written, and the process dies before
        // the rename; a second, half-written copy fares no better.
        copy_live(
            journal.file.as_ref().unwrap(),
            &journal.newest,
            &tmp_path(&path),
        )
        .unwrap();
        drop(journal);
        for tmp in [
            std::fs::read(tmp_path(&path)).unwrap(),
            header()[..5].to_vec(),
        ] {
            std::fs::write(tmp_path(&path), &tmp).unwrap();
            let (reopened, notice) = Journal::open(&path);
            assert_eq!(notice, None);
            assert!(!tmp_path(&path).exists(), "the leftover copy is removed");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "the journal is untouched"
            );
            let got = reopened.load("m").unwrap().unwrap();
            assert_eq!(checkpoint::encode(&got), checkpoint::encode(&ckpts[2]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_word_checksum_catches_every_single_byte_change() {
        let body: Vec<u8> = (0..=255u8).chain(0..100).collect();
        let record = Record::frame("m", |out| out.extend_from_slice(&body));
        let covered = &record.bytes[..record.bytes.len() - 8];
        let sum = checksum(covered);
        let mut flipped = covered.to_vec();
        for i in 0..flipped.len() {
            for bit in [0x01, 0x80, 0xff] {
                flipped[i] ^= bit;
                assert_ne!(checksum(&flipped), sum, "byte {i} ^ {bit:#x}");
                flipped[i] ^= bit;
            }
        }
    }
}
