//! The TPL abstract syntax tree.
//!
//! ```text
//! document  := policy*
//! policy    := "policy" STRING "{" decl* "}"
//! decl      := "audience" IDENT "=" audience-expr ";"
//!            | "disclose" PATH "to" audience-ref condition? ";"
//!            | "require" "requester" "discloses" PATH ("before" IDENT)? ";"
//! audience-expr := "public" | "subject" | "role" "(" IDENT ")"
//! audience-ref  := IDENT | "public" | "subject"
//! condition     := "when" IDENT | "always"
//! ```

use crate::error::Span;
use serde::{Deserialize, Serialize};

/// A parsed document: one or more policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Document {
    /// The policies, in source order.
    pub(crate) policies: Vec<Policy>,
}

/// A named policy block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Policy {
    /// The policy name (string literal).
    pub(crate) name: String,
    /// Span of the name literal.
    pub(crate) name_span: Span,
    /// Declarations in source order.
    pub(crate) decls: Vec<Decl>,
}

/// An audience expression on the right of an `audience` definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum AudienceExpr {
    /// `public`
    Public,
    /// `subject`
    Subject,
    /// `role(worker)` / `role(requester)`
    Role {
        /// The role name as written.
        role: String,
        /// Span of the role identifier.
        span: Span,
    },
}

/// A reference to an audience in a `disclose` rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AudienceRef {
    /// The name as written (`public`, `subject`, or a defined audience).
    pub(crate) name: String,
    /// Where it was written.
    pub(crate) span: Span,
}

/// When a disclosure applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Condition {
    /// `always` (also the default when omitted).
    Always,
    /// `when <context>`
    When {
        /// The context name as written.
        context: String,
        /// Where.
        span: Span,
    },
}

/// One declaration inside a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Decl {
    /// `audience NAME = expr;`
    AudienceDef {
        /// The audience name.
        name: String,
        /// Where the name was written.
        name_span: Span,
        /// The expression.
        expr: AudienceExpr,
    },
    /// `disclose PATH to AUDIENCE [when CTX | always];`
    Disclose {
        /// The disclosed item path (e.g. `worker.acceptance_ratio`).
        item: String,
        /// Where the path was written.
        item_span: Span,
        /// Who gets to see it.
        audience: AudienceRef,
        /// When.
        condition: Condition,
    },
    /// `require requester discloses PATH [before CTX];`
    Require {
        /// The required item path (short names allowed, e.g.
        /// `rejection_criteria`).
        item: String,
        /// Where the path was written.
        item_span: Span,
        /// The phase before which disclosure must happen, if stated.
        before: Option<String>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_are_constructible_and_comparable() {
        let d1 = Decl::Disclose {
            item: "task.rating".into(),
            item_span: Span::new(0, 11),
            audience: AudienceRef {
                name: "public".into(),
                span: Span::new(15, 21),
            },
            condition: Condition::Always,
        };
        let d2 = d1.clone();
        assert_eq!(d1, d2);
        let p = Policy {
            name: "x".into(),
            name_span: Span::new(7, 10),
            decls: vec![d1],
        };
        assert_eq!(p.decls.len(), 1);
    }
}
