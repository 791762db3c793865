//! A minimal, dependency-free JSON value with a lossless number
//! representation.
//!
//! The workspace builds hermetically (the vendored `serde` shim is a
//! no-op derive; see `vendor/README.md`), so trace persistence carries
//! its own JSON layer. Two properties matter more than generality:
//!
//! 1. **Lossless integers.** Money is `i64` millicents and event
//!    sequence numbers are `u64`; an `f64`-backed number type would
//!    silently corrupt them past 2⁵³. [`Json::Num`] therefore stores the
//!    *lexical token* and converts on access, so `i64`/`u64`/`f64` all
//!    round-trip exactly.
//! 2. **Deterministic output.** Object members keep insertion order and
//!    floats print via Rust's shortest-round-trip `Display`, so encoding
//!    the same trace twice is byte-identical — the property the replay
//!    acceptance tests pin.
//!
//! The parser is a recursive-descent reader over the full JSON grammar
//! (strings with `\uXXXX` escapes and surrogate pairs included) with a
//! depth limit instead of unbounded recursion, and reports positions in
//! its error messages so a truncated trace file names where it broke.

use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts. Trace files nest a handful
/// of levels; anything deeper is malformed input, not data.
const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers keep their lexical form (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its token so integers survive losslessly.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an `i64` (lossless).
    pub fn int(v: i64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `u64` (lossless).
    pub fn uint(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `f64`. Finite values use Rust's shortest
    /// round-trip form; non-finite values are encoded as the strings
    /// `"NaN"` / `"inf"` / `"-inf"` (JSON has no literal for them) and
    /// [`Json::as_f64`] reads those back.
    pub fn float(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else if v.is_nan() {
            Json::Str("NaN".to_owned())
        } else if v > 0.0 {
            Json::Str("inf".to_owned())
        } else {
            Json::Str("-inf".to_owned())
        }
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// The value as `i64`, when it is a number token that parses as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a number token that parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`: any number token, or the non-finite string
    /// spellings written by [`Json::float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, when it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object members, when it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Look up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serialise compactly (no whitespace) — the JSONL record form.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialise with two-space indentation — the whole-file form.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (one value, possibly surrounded by
    /// whitespace). Errors name the byte offset they occurred at.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!(
                "trailing content after the JSON value at byte {}",
                p.pos
            ));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} (input ends at byte {})",
                b as char,
                self.pos,
                self.bytes.len()
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let len = number_len(&self.bytes[start..])
            .ok_or_else(|| format!("malformed number at byte {start}"))?;
        self.pos += len;
        Ok(Json::Num(self.text[start..self.pos].to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(lone_surrogate(self.pos));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(lone_surrogate(self.pos));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(lone_surrogate(self.pos));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or_else(|| lone_surrogate(self.pos))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| lone_surrogate(self.pos))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => {
                            return Err(format!("invalid escape at byte {}", self.pos));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path (the overwhelmingly common case).
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte character: the input is a &str, so
                    // `pos` sits on a char boundary and the O(1) slice
                    // + chars() yields exactly one scalar. (Never
                    // re-validate the tail here — that turns parsing
                    // into O(n²) on megabyte traces.)
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty rest on a char boundary");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(format!("invalid \\u escape at byte {}", self.pos)),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Length of the number token `bytes` starts with, under the JSON
/// grammar (`-`? digits, an optional `.` fraction, an optional `e`/`E`
/// exponent), or `None` when no well-formed token starts there. The tree
/// parser and `trace_io`'s canonical-line decoder both cut tokens with
/// it, so they read the same token text from the same bytes.
pub(crate) fn number_len(bytes: &[u8]) -> Option<usize> {
    let digits = |from: usize| {
        let n = bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        (n > 0).then_some(from + n)
    };
    let mut pos = digits(usize::from(bytes.first() == Some(&b'-')))?;
    if bytes.get(pos) == Some(&b'.') {
        pos = digits(pos + 1)?;
    }
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        pos = digits(pos)?;
    }
    Some(pos)
}

fn lone_surrogate(pos: usize) -> String {
    format!("invalid \\u surrogate at byte {pos}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(&Json::parse(&text).unwrap(), v, "through {text}");
        }
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::str("hello \"quoted\" \\ \n tab\t ünïcode 🎉"));
        roundtrip(&Json::int(i64::MIN));
        roundtrip(&Json::uint(u64::MAX));
    }

    #[test]
    fn integers_are_lossless() {
        // Beyond f64's 2^53 mantissa — the reason Num stores the token.
        let big = 9_007_199_254_740_993i64; // 2^53 + 1
        let v = Json::int(big);
        assert_eq!(Json::parse(&v.to_compact()).unwrap().as_i64(), Some(big));
        assert_eq!(Json::uint(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -0.0, 1e-308] {
            let v = Json::float(x);
            let back = Json::parse(&v.to_compact()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(Json::float(f64::NAN).as_f64().unwrap().is_nan());
        assert_eq!(Json::float(f64::INFINITY).as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = Json::Obj(vec![
            ("zebra".into(), Json::int(1)),
            (
                "alpha".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true)]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::str("v"))]),
            ),
        ]);
        roundtrip(&v);
        // Insertion order survives serialisation (determinism).
        let text = v.to_compact();
        assert!(text.find("zebra").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn accessors_and_get() {
        let v = Json::parse(r#"{"a": 1, "b": "x", "c": [true], "d": 1.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("d").unwrap().as_f64(), Some(1.5));
        assert!(v.get("missing").is_none());
        assert_eq!(v.kind(), "object");
    }

    #[test]
    fn escapes_parse() {
        let v = Json::parse(r#""a\u0041\n\t\"\\ \u00e9 \ud83c\udf89""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\"\\ é 🎉"));
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\": }",
            "tru",
            "1.",
            "1e",
            "\"unterminated",
            "{\"a\":1} extra",
            "01x",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("byte"), "`{bad}` -> {err}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(400) + &"]".repeat(400);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
}
