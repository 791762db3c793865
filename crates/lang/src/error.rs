//! Diagnostics.
//!
//! Every phase reports a [`LangError`] carrying a byte span into the
//! source; `Display` renders the offending line with a caret, the way a
//! compiler should.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Span {
    /// Construct a span.
    pub(crate) fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A single-point span.
    pub(crate) fn point(at: usize) -> Self {
        Span {
            start: at,
            end: at + 1,
        }
    }
}

/// Which phase produced the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Phase {
    /// Tokenisation.
    Lex,
    /// Parsing.
    Parse,
    /// Semantic checking.
    Check,
    /// Anything else (API misuse).
    Other,
}

/// A language error with location and context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LangError {
    /// Producing phase.
    pub(crate) phase: Phase,
    /// What went wrong.
    pub(crate) message: String,
    /// Where (absent for `Other`).
    pub span: Option<Span>,
    /// The source line containing the error, pre-extracted for display.
    pub context: Option<(usize, String, usize)>, // (line number 1-based, line text, column 0-based)
}

impl LangError {
    /// An error at a span within `source`.
    pub(crate) fn at(phase: Phase, message: impl Into<String>, span: Span, source: &str) -> Self {
        let mut line_start = 0usize;
        let mut line_no = 1usize;
        for (i, b) in source.bytes().enumerate() {
            if i >= span.start {
                break;
            }
            if b == b'\n' {
                line_start = i + 1;
                line_no += 1;
            }
        }
        let line_end = source[line_start..]
            .find('\n')
            .map(|i| line_start + i)
            .unwrap_or(source.len());
        let line = source[line_start..line_end].to_owned();
        let col = span.start.saturating_sub(line_start);
        LangError {
            phase,
            message: message.into(),
            span: Some(span),
            context: Some((line_no, line, col)),
        }
    }

    /// A location-free error.
    pub(crate) fn other(message: impl Into<String>) -> Self {
        LangError {
            phase: Phase::Other,
            message: message.into(),
            span: None,
            context: None,
        }
    }
}

impl From<LangError> for faircrowd_model::FaircrowdError {
    /// Carry the full rendered diagnostic (caret line included) into the
    /// workspace error type, so `?` in `Pipeline`/CLI code keeps the
    /// compiler-grade message.
    fn from(err: LangError) -> Self {
        faircrowd_model::FaircrowdError::Lang {
            message: err.to_string(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.phase {
            Phase::Lex => "lex error",
            Phase::Parse => "parse error",
            Phase::Check => "check error",
            Phase::Other => "error",
        };
        write!(f, "{prefix}: {}", self.message)?;
        if let Some((line_no, line, col)) = &self.context {
            writeln!(f)?;
            writeln!(f, "  --> line {line_no}, column {}", col + 1)?;
            writeln!(f, "   | {line}")?;
            write!(f, "   | {}^", " ".repeat(*col))?;
        }
        Ok(())
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_constructors() {
        let s = Span::new(3, 7);
        assert_eq!(s.start, 3);
        assert_eq!(s.end, 7);
        assert_eq!(Span::point(5), Span::new(5, 6));
    }

    #[test]
    fn error_locates_line_and_column() {
        let source = "line one\nline two oops here\nline three";
        let at = source.find("oops").unwrap();
        let err = LangError::at(Phase::Parse, "unexpected word", Span::point(at), source);
        let (line_no, line, col) = err.context.clone().unwrap();
        assert_eq!(line_no, 2);
        assert_eq!(line, "line two oops here");
        assert_eq!(col, 9);
        let shown = err.to_string();
        assert!(shown.contains("parse error: unexpected word"));
        assert!(shown.contains("line 2, column 10"));
        assert!(shown.contains("^"));
    }

    #[test]
    fn other_errors_have_no_context() {
        let err = LangError::other("bad call");
        assert!(err.span.is_none());
        assert_eq!(err.to_string(), "error: bad call");
    }
}
