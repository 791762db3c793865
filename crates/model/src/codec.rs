//! The wire primitives shared by faircrowd's binary formats — `.fcb`
//! traces ([`crate::trace_bin`]) and daemon checkpoints
//! (`faircrowd-core::checkpoint`).
//!
//! Unsigned integers are LEB128 varints, signed ones zigzag varints,
//! floats their IEEE-754 bits little-endian, strings a varint byte
//! length plus UTF-8. Writers append to a `Vec<u8>`; the read side is a
//! [`Cursor`] that never panics and never trusts a length: every read
//! is bounds-checked against the remaining input, and every defect
//! surfaces as a [`FaircrowdError::Persist`] naming the format and the
//! offending byte offset.

use crate::error::FaircrowdError;

/// Append `v` as a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` as a zigzag varint.
pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append `v` as eight little-endian bytes (a fixed-width field).
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`'s IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64_le(out, v.to_bits());
}

/// Append a varint byte length and the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A closed set of values spelled by name in JSON and, in the binary
/// formats, as one byte: the value's index in [`Named::ALL`].
pub trait Named: Copy + PartialEq + 'static {
    /// Every value, in wire-tag order.
    const ALL: &'static [Self];
    /// What a value is, as errors name it ("quit reason").
    const WHAT: &'static str;
    /// The JSON spelling.
    fn name(self) -> &'static str;

    /// The value spelled `name`.
    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|v| v.name() == name)
    }
}

/// Append `v` as its one-byte wire tag.
pub fn put_named<T: Named>(out: &mut Vec<u8>, v: T) {
    let tag = T::ALL
        .iter()
        .position(|&x| x == v)
        .expect("every value appears in Named::ALL");
    out.push(tag as u8);
}

/// FNV-1a 64 over `bytes`, one byte at a time: the stable content hash
/// behind the daemon's market → shard pinning and a sweep part file's
/// grid identity. Unlike the standard library's hasher it is the same
/// in every process. (The checkpoint journal's checksum is a different,
/// word-wise function, pinned by the journal format.)
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A bounds-checked reader over one encoded buffer. `label` names the
/// format in every error ("binary trace", "binary checkpoint"). A clone
/// reads on from the same position independently. The reads an event
/// field makes are `#[inline]`, so they inline into the `.fcb` event
/// loop (13% faster decode of `baseline` ×16, best of 75 runs each, on
/// a 2-vCPU host).
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    label: &'static str,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8], label: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            label,
        }
    }

    /// The format's name, as errors give it.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// The byte offset of the next read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A [`FaircrowdError::Persist`] naming the format and the current
    /// byte offset.
    pub fn err(&self, what: impl std::fmt::Display) -> FaircrowdError {
        FaircrowdError::persist(format!("{}: {what} at byte {}", self.label, self.pos))
    }

    /// Check and consume the format's eight magic bytes.
    pub fn magic(&mut self, magic: &[u8; 8]) -> Result<(), FaircrowdError> {
        if self.bytes.len() < magic.len() {
            return Err(FaircrowdError::persist(format!(
                "{}: file is {} byte(s) long, shorter than the 8-byte magic",
                self.label,
                self.bytes.len()
            )));
        }
        if self.bytes[..magic.len()] != magic[..] {
            return Err(FaircrowdError::persist(format!(
                "not a faircrowd {} (magic bytes missing)",
                self.label
            )));
        }
        self.pos = magic.len();
        Ok(())
    }

    /// Fail unless every byte was consumed.
    pub fn finish(&self) -> Result<(), FaircrowdError> {
        if self.remaining() == 0 {
            return Ok(());
        }
        Err(FaircrowdError::persist(format!(
            "{}: {} byte(s) of trailing garbage at byte {}",
            self.label,
            self.remaining(),
            self.pos
        )))
    }

    /// One raw byte.
    #[inline]
    pub(crate) fn byte(&mut self, what: &str) -> Result<u8, FaircrowdError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(self.err(format_args!("unexpected end of file reading {what}")));
        };
        self.pos += 1;
        Ok(b)
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FaircrowdError> {
        if self.remaining() < n {
            return Err(self.err(format_args!(
                "unexpected end of file reading {what} ({n} byte(s) wanted, {} left)",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// A LEB128 varint; more than ten bytes, or bits past 64, is an
    /// overflow error positioned at the varint's first byte.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, FaircrowdError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err(format_args!("unexpected end of file reading {what}")));
            };
            self.pos += 1;
            if self.pos - start > 10 || (shift == 63 && b > 1) {
                self.pos = start;
                return Err(self.err(format_args!("varint overflow in {what}")));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A zigzag varint.
    pub(crate) fn i64(&mut self, what: &str) -> Result<i64, FaircrowdError> {
        let z = self.u64(what)?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Eight little-endian bytes.
    pub fn u64_le(&mut self, what: &str) -> Result<u64, FaircrowdError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("take returned 8 bytes"),
        ))
    }

    /// A varint that must fit `usize` — a count or a position. Callers
    /// bound it against `Cursor::remaining` before allocating for it.
    pub fn count(&mut self, what: &str) -> Result<usize, FaircrowdError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| self.err(format_args!("{what} {v} overflows this platform")))
    }

    /// A varint that must fit a 32-bit id.
    #[inline]
    pub fn id32(&mut self, what: &str) -> Result<u32, FaircrowdError> {
        let v = self.u64(what)?;
        u32::try_from(v).map_err(|_| self.err(format_args!("{what} {v} overflows a 32-bit id")))
    }

    /// A one-byte tag below `limit`.
    #[inline]
    pub fn u8tag(&mut self, what: &str, limit: u8) -> Result<u8, FaircrowdError> {
        let pos = self.pos;
        let b = self.byte(what)?;
        if b >= limit {
            self.pos = pos;
            return Err(self.err(format_args!("unknown {what} tag {b}")));
        }
        Ok(b)
    }

    /// A one-byte boolean (0 or 1).
    pub fn bool(&mut self, what: &str) -> Result<bool, FaircrowdError> {
        Ok(self.u8tag(what, 2)? == 1)
    }

    /// IEEE-754 bits, little-endian.
    pub fn f64(&mut self, what: &str) -> Result<f64, FaircrowdError> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String, FaircrowdError> {
        let len = self.count(what)?;
        let start = self.pos;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|e| {
            FaircrowdError::persist(format!(
                "{}: {what} is not UTF-8 at byte {}",
                self.label,
                start + e.valid_up_to()
            ))
        })
    }

    /// A [`Named`] value's one-byte wire tag.
    pub fn named<T: Named>(&mut self) -> Result<T, FaircrowdError> {
        let tag = self.u8tag(T::WHAT, T::ALL.len() as u8)?;
        Ok(T::ALL[usize::from(tag)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_standard_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn varints_roundtrip_across_the_whole_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut cur = Cursor::new(&buf, "probe");
            assert_eq!(cur.u64("probe").expect("valid varint"), v);
            assert_eq!(cur.pos(), buf.len(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn zigzag_roundtrips_signed_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut cur = Cursor::new(&buf, "probe");
            assert_eq!(cur.i64("probe").expect("valid zigzag"), v);
        }
    }

    #[test]
    fn varint_overflow_is_a_positioned_error_not_a_panic() {
        let bytes = [0xffu8; 11];
        let mut cur = Cursor::new(&bytes, "probe");
        let err = cur.u64("probe").expect_err("11 continuation bytes");
        assert!(err.to_string().contains("varint overflow"), "got: {err}");
        // An unterminated but in-range varint is truncation instead.
        let bytes = [0x80u8, 0x80];
        let mut cur = Cursor::new(&bytes, "probe");
        let err = cur.u64("probe").expect_err("unterminated varint");
        assert!(err.to_string().contains("unexpected end"), "got: {err}");
    }
}
