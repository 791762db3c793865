//! The TPL recursive-descent parser.

use crate::ast::{AudienceExpr, AudienceRef, Condition, Decl, Document, Policy};
use crate::error::{LangError, Phase, Span};
use crate::lexer::{SpannedToken, Token};

/// Parse a token stream into a document.
pub(crate) fn parse(tokens: &[SpannedToken], source: &str) -> Result<Document, LangError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        source,
    };
    let mut policies = Vec::new();
    while !p.at_end() {
        policies.push(p.policy()?);
    }
    if policies.is_empty() {
        return Err(LangError::other("empty document: no policies"));
    }
    Ok(Document { policies })
}

struct Parser<'a> {
    tokens: &'a [SpannedToken],
    pos: usize,
    source: &'a str,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&'a SpannedToken> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<&'a SpannedToken> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn last_span(&self) -> Span {
        self.tokens
            .last()
            .map(|t| t.span)
            .unwrap_or(Span::new(0, 0))
    }

    fn error_here(&self, message: impl Into<String>) -> LangError {
        let span = self.peek().map(|t| t.span).unwrap_or(self.last_span());
        LangError::at(Phase::Parse, message, span, self.source)
    }

    fn expect(&mut self, want: &Token) -> Result<&'a SpannedToken, LangError> {
        match self.peek() {
            Some(t) if &t.token == want => Ok(self.advance().expect("peeked")),
            Some(t) => Err(self.error_here(format!(
                "expected {}, found {}",
                want.describe(),
                t.token.describe()
            ))),
            None => {
                Err(self.error_here(format!("expected {}, found end of input", want.describe())))
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), LangError> {
        match self.peek() {
            Some(SpannedToken {
                token: Token::Ident(name),
                span,
            }) => {
                self.advance();
                Ok((name.clone(), *span))
            }
            Some(t) => {
                Err(self.error_here(format!("expected {what}, found {}", t.token.describe())))
            }
            None => Err(self.error_here(format!("expected {what}, found end of input"))),
        }
    }

    fn policy(&mut self) -> Result<Policy, LangError> {
        self.expect(&Token::Policy)?;
        let (name, name_span) = match self.peek() {
            Some(SpannedToken {
                token: Token::Str(s),
                span,
            }) => {
                self.advance();
                (s.clone(), *span)
            }
            _ => return Err(self.error_here("expected a quoted policy name")),
        };
        self.expect(&Token::LBrace)?;
        let mut decls = Vec::new();
        loop {
            match self.peek().map(|t| &t.token) {
                Some(Token::RBrace) => {
                    self.advance();
                    break;
                }
                Some(Token::Audience) => decls.push(self.audience_def()?),
                Some(Token::Disclose) => decls.push(self.disclose()?),
                Some(Token::Require) => decls.push(self.require()?),
                Some(_) => {
                    return Err(self.error_here("expected `audience`, `disclose`, `require` or `}`"))
                }
                None => {
                    return Err(self.error_here("unclosed policy block: missing `}`"));
                }
            }
        }
        Ok(Policy {
            name,
            name_span,
            decls,
        })
    }

    fn audience_def(&mut self) -> Result<Decl, LangError> {
        self.expect(&Token::Audience)?;
        let (name, name_span) = self.expect_ident("an audience name")?;
        self.expect(&Token::Eq)?;
        let expr = match self.peek().map(|t| &t.token) {
            Some(Token::Public) => {
                self.advance();
                AudienceExpr::Public
            }
            Some(Token::Subject) => {
                self.advance();
                AudienceExpr::Subject
            }
            Some(Token::Role) => {
                self.advance();
                self.expect(&Token::LParen)?;
                let (role, span) = match self.peek() {
                    Some(SpannedToken {
                        token: Token::Ident(r),
                        span,
                    }) => {
                        let out = (r.clone(), *span);
                        self.advance();
                        out
                    }
                    // `requester` is a keyword but also a valid role name
                    Some(SpannedToken {
                        token: Token::Requester,
                        span,
                    }) => {
                        let out = ("requester".to_owned(), *span);
                        self.advance();
                        out
                    }
                    _ => return Err(self.error_here("expected a role name")),
                };
                self.expect(&Token::RParen)?;
                AudienceExpr::Role { role, span }
            }
            _ => return Err(self.error_here("expected `public`, `subject` or `role(...)`")),
        };
        self.expect(&Token::Semi)?;
        Ok(Decl::AudienceDef {
            name,
            name_span,
            expr,
        })
    }

    fn disclose(&mut self) -> Result<Decl, LangError> {
        self.expect(&Token::Disclose)?;
        let (item, item_span) = self.expect_ident("a disclosure item path")?;
        self.expect(&Token::To)?;
        let audience = match self.peek() {
            Some(SpannedToken {
                token: Token::Public,
                span,
            }) => {
                let r = AudienceRef {
                    name: "public".into(),
                    span: *span,
                };
                self.advance();
                r
            }
            Some(SpannedToken {
                token: Token::Subject,
                span,
            }) => {
                let r = AudienceRef {
                    name: "subject".into(),
                    span: *span,
                };
                self.advance();
                r
            }
            Some(SpannedToken {
                token: Token::Ident(name),
                span,
            }) => {
                let r = AudienceRef {
                    name: name.clone(),
                    span: *span,
                };
                self.advance();
                r
            }
            _ => return Err(self.error_here("expected an audience after `to`")),
        };
        let condition = match self.peek().map(|t| &t.token) {
            Some(Token::When) => {
                self.advance();
                let (context, span) = self.expect_ident("a context name after `when`")?;
                Condition::When { context, span }
            }
            Some(Token::Always) => {
                self.advance();
                Condition::Always
            }
            _ => Condition::Always,
        };
        self.expect(&Token::Semi)?;
        Ok(Decl::Disclose {
            item,
            item_span,
            audience,
            condition,
        })
    }

    fn require(&mut self) -> Result<Decl, LangError> {
        self.expect(&Token::Require)?;
        self.expect(&Token::Requester)?;
        self.expect(&Token::Discloses)?;
        let (item, item_span) = self.expect_ident("a required item")?;
        let before = match self.peek().map(|t| &t.token) {
            Some(Token::Before) => {
                self.advance();
                let (phase, _) = self.expect_ident("a phase name after `before`")?;
                Some(phase)
            }
            _ => None,
        };
        self.expect(&Token::Semi)?;
        Ok(Decl::Require {
            item,
            item_span,
            before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_ok(source: &str) -> Document {
        parse(&lex(source).unwrap(), source).unwrap()
    }

    fn parse_err(source: &str) -> LangError {
        match lex(source) {
            Ok(tokens) => parse(&tokens, source).unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn parses_full_policy() {
        let doc = parse_ok(
            r#"
            policy "crowdflower" {
                audience workers = role(worker);
                audience everyone = public;
                disclose task.rating to everyone when browsing;
                disclose worker.quality_estimate to subject always;
                require requester discloses rejection_criteria before posting;
            }
            "#,
        );
        assert_eq!(doc.policies.len(), 1);
        let p = &doc.policies[0];
        assert_eq!(p.name, "crowdflower");
        assert_eq!(p.decls.len(), 5);
        assert!(matches!(p.decls[0], Decl::AudienceDef { .. }));
        assert!(matches!(p.decls[2], Decl::Disclose { .. }));
        assert!(matches!(p.decls[4], Decl::Require { .. }));
    }

    #[test]
    fn condition_defaults_to_always() {
        let doc = parse_ok(r#"policy "p" { disclose task.rating to public; }"#);
        match &doc.policies[0].decls[0] {
            Decl::Disclose { condition, .. } => assert_eq!(condition, &Condition::Always),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_policies_in_one_document() {
        let doc = parse_ok(
            r#"policy "a" { disclose task.rating to public; }
               policy "b" { disclose task.rating to public; }"#,
        );
        assert_eq!(doc.policies.len(), 2);
        assert_eq!(doc.policies[1].name, "b");
    }

    #[test]
    fn role_requester_is_allowed() {
        let doc = parse_ok(r#"policy "p" { audience reqs = role(requester); }"#);
        match &doc.policies[0].decls[0] {
            Decl::AudienceDef { expr, .. } => {
                assert!(matches!(expr, AudienceExpr::Role { role, .. } if role == "requester"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_is_a_parse_error() {
        let err = parse_err(r#"policy "p" { disclose task.rating to public }"#);
        assert!(err.message.contains("`;`"), "{}", err.message);
    }

    #[test]
    fn unclosed_block_reported() {
        let err = parse_err(r#"policy "p" { disclose task.rating to public;"#);
        assert!(err.message.contains("missing `}`"), "{}", err.message);
    }

    #[test]
    fn unquoted_name_rejected() {
        let err = parse_err("policy nope { }");
        assert!(err.message.contains("quoted policy name"));
    }

    #[test]
    fn garbage_decl_rejected_with_position() {
        let err = parse_err(r#"policy "p" { banana; }"#);
        assert!(err.message.contains("expected `audience`"));
        assert!(err.context.is_some());
    }

    #[test]
    fn empty_document_rejected() {
        let err = parse_err("   # nothing but a comment\n");
        assert!(err.message.contains("empty document"));
    }

    #[test]
    fn require_without_before() {
        let doc = parse_ok(r#"policy "p" { require requester discloses hourly_wage; }"#);
        match &doc.policies[0].decls[0] {
            Decl::Require { before, item, .. } => {
                assert!(before.is_none());
                assert_eq!(item, "hourly_wage");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
