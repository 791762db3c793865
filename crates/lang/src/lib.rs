//! # faircrowd-lang
//!
//! **TPL** — the Transparency Policy Language.
//!
//! §3.3.2 of the paper: *"We advocate the use of a declarative high-level
//! language to specify fairness rules. Such rules can be used by
//! requesters to disclose task requirements, recruitment criteria,
//! evaluation scheme, and payment schedule. Platform designers can use
//! these rules to disclose relevant information … Rules can also be
//! translated into human-readable descriptions for workers' consumption.
//! Last but not least, the declarative nature of those rules will allow
//! easy comparison across platforms."*
//!
//! This crate delivers all four promises:
//!
//! 1. a small declarative language (lexer → parser → semantic checker);
//! 2. compilation into [`faircrowd_model::DisclosureSet`]s that the
//!    simulator enacts and the Axiom-6/7 checkers audit;
//! 3. a [`render`] back-end producing human-readable descriptions;
//! 4. a [`compare()`] back-end diffing policies across platforms, plus a
//!    [`catalog`] of policies modelling AMT, AMT+Turkopticon, CrowdFlower
//!    and MobileWorks as the paper describes them.
//!
//! ## Example
//!
//! ```
//! let source = r#"
//!     policy "demo" {
//!         audience everyone = public;
//!         disclose task.rating to everyone when browsing;
//!         disclose worker.acceptance_ratio to subject always;
//!         require requester discloses rejection_criteria before posting;
//!     }
//! "#;
//! let policy = faircrowd_lang::compile_one(source).expect("valid policy");
//! assert_eq!(policy.name, "demo");
//! assert!(policy.disclosure_set().axiom7_coverage() > 0.0);
//! println!("{}", faircrowd_lang::render::render_policy(&policy));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ast;
pub mod catalog;
pub(crate) mod compare;
pub(crate) mod error;
pub(crate) mod lexer;
pub(crate) mod parser;
pub mod printer;
pub mod render;
pub(crate) mod sema;

pub use compare::{compare, PolicyComparison};
pub use error::LangError;
pub use sema::CompiledPolicy;

/// Parse and check a TPL document (one or more policies).
pub fn compile(source: &str) -> Result<Vec<CompiledPolicy>, LangError> {
    let tokens = lexer::lex(source)?;
    let document = parser::parse(&tokens, source)?;
    document
        .policies
        .iter()
        .map(|p| sema::check(p, source))
        .collect()
}

/// Parse and check a document expected to contain exactly one policy.
pub fn compile_one(source: &str) -> Result<CompiledPolicy, LangError> {
    let mut policies = compile(source)?;
    match policies.len() {
        1 => Ok(policies.remove(0)),
        n => Err(LangError::other(format!(
            "expected exactly one policy, found {n}"
        ))),
    }
}
