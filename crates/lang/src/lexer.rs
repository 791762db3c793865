//! The TPL lexer.
//!
//! Tokens: keywords (`policy`, `audience`, `disclose`, `require`, `to`,
//! `when`, `always`, `before`, `requester`, `discloses`, `role`, `public`,
//! `subject`), identifiers (dotted paths allowed: `worker.accuracy`),
//! string literals, and punctuation. `#` starts a comment to end of line.

use crate::error::{LangError, Phase, Span};
use serde::{Deserialize, Serialize};

/// A TPL token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Token {
    /// `policy`
    Policy,
    /// `audience`
    Audience,
    /// `disclose`
    Disclose,
    /// `require`
    Require,
    /// `requester`
    Requester,
    /// `discloses`
    Discloses,
    /// `to`
    To,
    /// `when`
    When,
    /// `always`
    Always,
    /// `before`
    Before,
    /// `role`
    Role,
    /// `public`
    Public,
    /// `subject`
    Subject,
    /// An identifier or dotted path.
    Ident(String),
    /// A double-quoted string literal (contents, unescaped).
    Str(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `;`
    Semi,
}

impl Token {
    /// Human name for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier `{s}`"),
            Token::Str(s) => format!("string {s:?}"),
            other => format!("`{}`", other.literal()),
        }
    }

    fn literal(&self) -> &'static str {
        match self {
            Token::Policy => "policy",
            Token::Audience => "audience",
            Token::Disclose => "disclose",
            Token::Require => "require",
            Token::Requester => "requester",
            Token::Discloses => "discloses",
            Token::To => "to",
            Token::When => "when",
            Token::Always => "always",
            Token::Before => "before",
            Token::Role => "role",
            Token::Public => "public",
            Token::Subject => "subject",
            Token::LBrace => "{",
            Token::RBrace => "}",
            Token::LParen => "(",
            Token::RParen => ")",
            Token::Eq => "=",
            Token::Semi => ";",
            Token::Ident(_) | Token::Str(_) => unreachable!(),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SpannedToken {
    /// The token.
    pub(crate) token: Token,
    /// Where it came from.
    pub(crate) span: Span,
}

/// Tokenise a TPL document.
pub(crate) fn lex(source: &str) -> Result<Vec<SpannedToken>, LangError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' => {
                tokens.push(tok(Token::LBrace, i, i + 1));
                i += 1;
            }
            b'}' => {
                tokens.push(tok(Token::RBrace, i, i + 1));
                i += 1;
            }
            b'(' => {
                tokens.push(tok(Token::LParen, i, i + 1));
                i += 1;
            }
            b')' => {
                tokens.push(tok(Token::RParen, i, i + 1));
                i += 1;
            }
            b'=' => {
                tokens.push(tok(Token::Eq, i, i + 1));
                i += 1;
            }
            b';' => {
                tokens.push(tok(Token::Semi, i, i + 1));
                i += 1;
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut value = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LangError::at(
                            Phase::Lex,
                            "unterminated string literal",
                            Span::new(start, source.len()),
                            source,
                        ));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            let esc = bytes[i + 1];
                            match esc {
                                b'"' => value.push('"'),
                                b'\\' => value.push('\\'),
                                b'n' => value.push('\n'),
                                _ => {
                                    return Err(LangError::at(
                                        Phase::Lex,
                                        format!("unknown escape `\\{}`", esc as char),
                                        Span::new(i, i + 2),
                                        source,
                                    ))
                                }
                            }
                            i += 2;
                        }
                        b'\n' => {
                            return Err(LangError::at(
                                Phase::Lex,
                                "string literal crosses a line break",
                                Span::new(start, i),
                                source,
                            ))
                        }
                        c => {
                            value.push(c as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(tok(Token::Str(value), start, i));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    i += 1;
                }
                let word = &source[start..i];
                let token = match word {
                    "policy" => Token::Policy,
                    "audience" => Token::Audience,
                    "disclose" => Token::Disclose,
                    "require" => Token::Require,
                    "requester" => Token::Requester,
                    "discloses" => Token::Discloses,
                    "to" => Token::To,
                    "when" => Token::When,
                    "always" => Token::Always,
                    "before" => Token::Before,
                    "role" => Token::Role,
                    "public" => Token::Public,
                    "subject" => Token::Subject,
                    _ => Token::Ident(word.to_owned()),
                };
                tokens.push(tok(token, start, i));
            }
            other => {
                return Err(LangError::at(
                    Phase::Lex,
                    format!("unexpected character `{}`", other as char),
                    Span::point(i),
                    source,
                ))
            }
        }
    }
    Ok(tokens)
}

fn tok(token: Token, start: usize, end: usize) -> SpannedToken {
    SpannedToken {
        token,
        span: Span::new(start, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<Token> {
        lex(source).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_keywords_and_punctuation() {
        let toks = kinds("policy \"p\" { disclose a.b to workers; }");
        assert_eq!(
            toks,
            vec![
                Token::Policy,
                Token::Str("p".into()),
                Token::LBrace,
                Token::Disclose,
                Token::Ident("a.b".into()),
                Token::To,
                Token::Ident("workers".into()),
                Token::Semi,
                Token::RBrace,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("# a comment\npolicy # trailing\n\"x\"");
        assert_eq!(toks, vec![Token::Policy, Token::Str("x".into())]);
    }

    #[test]
    fn dotted_identifiers() {
        let toks = kinds("worker.acceptance_ratio");
        assert_eq!(toks, vec![Token::Ident("worker.acceptance_ratio".into())]);
    }

    #[test]
    fn string_escapes() {
        let toks = kinds(r#""with \"quotes\" and \\slash""#);
        assert_eq!(toks, vec![Token::Str("with \"quotes\" and \\slash".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("\"never ends").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn multiline_string_errors() {
        let err = lex("\"breaks\nhere\"").unwrap_err();
        assert!(err.message.contains("line break"));
    }

    #[test]
    fn unknown_character_errors_with_location() {
        let err = lex("policy @").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.span.unwrap().start, 7);
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = lex("disclose x").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 8));
        assert_eq!(toks[1].span, Span::new(9, 10));
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(Token::Disclose.describe(), "`disclose`");
        assert_eq!(Token::Ident("x".into()).describe(), "identifier `x`");
        assert_eq!(Token::Str("s".into()).describe(), "string \"s\"");
    }
}
