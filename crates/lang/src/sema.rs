//! Semantic checking and compilation.
//!
//! Resolves the parsed AST against the platform schema: disclosure item
//! paths must name real [`DisclosureItem`]s, audiences must be built-in or
//! defined, roles and contexts must exist, and `require` rules must name
//! requester-side items. The output, [`CompiledPolicy`], is what the
//! evaluator, renderer and comparator work with.

use crate::ast::{AudienceExpr, Condition, Decl, Policy};
use crate::error::{LangError, Phase, Span};
use faircrowd_model::disclosure::{Audience, DisclosureCategory, DisclosureItem, DisclosureSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The lifecycle contexts a disclosure can be scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) enum Context {
    /// While a worker browses available tasks.
    Browsing,
    /// When a worker accepts a task.
    Accepting,
    /// While working on a task.
    Working,
    /// When a requester posts a task.
    Posting,
    /// Around payment time.
    Payment,
    /// At session start.
    SessionStart,
}

impl Context {
    /// All contexts.
    pub(crate) const ALL: [Context; 6] = [
        Context::Browsing,
        Context::Accepting,
        Context::Working,
        Context::Posting,
        Context::Payment,
        Context::SessionStart,
    ];

    /// The name used in TPL source.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Context::Browsing => "browsing",
            Context::Accepting => "accepting",
            Context::Working => "working",
            Context::Posting => "posting",
            Context::Payment => "payment",
            Context::SessionStart => "session_start",
        }
    }

    /// Parse a TPL context name.
    pub(crate) fn from_name(s: &str) -> Option<Context> {
        Context::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A compiled condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum CompiledCondition {
    /// Applies in every context.
    Always,
    /// Applies only in one context.
    When(Context),
}

/// A compiled `disclose` rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompiledRule {
    /// What is disclosed.
    pub(crate) item: DisclosureItem,
    /// To whom.
    pub(crate) audience: Audience,
    /// When.
    pub(crate) condition: CompiledCondition,
}

/// A compiled `require requester discloses …` rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Requirement {
    /// The requester-side item that must be disclosed.
    pub(crate) item: DisclosureItem,
    /// The phase before which it must be available.
    pub(crate) before: Option<Context>,
}

/// A checked, resolved policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledPolicy {
    /// Policy name.
    pub name: String,
    /// Disclose rules in source order.
    pub rules: Vec<CompiledRule>,
    /// Requirements in source order.
    pub(crate) requirements: Vec<Requirement>,
}

impl CompiledPolicy {
    /// The full disclosure set the policy grants. `require` rules count
    /// as worker-visible grants: an obligation on requesters makes the
    /// information available to workers.
    pub fn disclosure_set(&self) -> DisclosureSet {
        let mut set = DisclosureSet::opaque();
        for rule in &self.rules {
            set.grant(rule.item, rule.audience);
        }
        for req in &self.requirements {
            set.grant(req.item, Audience::Workers);
        }
        set
    }

    /// Number of rules plus requirements.
    pub fn rule_count(&self) -> usize {
        self.rules.len() + self.requirements.len()
    }
}

/// Resolve the short item names allowed in `require` rules.
fn resolve_requirement_item(name: &str) -> Option<DisclosureItem> {
    match name {
        "hourly_wage" => Some(DisclosureItem::HourlyWage),
        "payment_delay" | "payment_schedule" => Some(DisclosureItem::PaymentDelay),
        "recruitment_criteria" => Some(DisclosureItem::RecruitmentCriteria),
        "rejection_criteria" => Some(DisclosureItem::RejectionCriteria),
        "evaluation_scheme" => Some(DisclosureItem::EvaluationScheme),
        dotted => DisclosureItem::from_name(dotted),
    }
}

/// Check one parsed policy against the schema.
pub(crate) fn check(policy: &Policy, source: &str) -> Result<CompiledPolicy, LangError> {
    let mut audiences: BTreeMap<String, Audience> = BTreeMap::new();
    // Built-ins.
    audiences.insert("public".into(), Audience::Public);
    audiences.insert("subject".into(), Audience::Subject);
    audiences.insert("workers".into(), Audience::Workers);
    audiences.insert("requesters".into(), Audience::Requesters);

    let err =
        |msg: String, span: Span| -> LangError { LangError::at(Phase::Check, msg, span, source) };

    let mut rules = Vec::new();
    let mut requirements = Vec::new();
    for decl in &policy.decls {
        match decl {
            Decl::AudienceDef {
                name,
                name_span,
                expr,
            } => {
                if matches!(
                    name.as_str(),
                    "public" | "subject" | "workers" | "requesters"
                ) {
                    return Err(err(
                        format!("cannot redefine built-in audience `{name}`"),
                        *name_span,
                    ));
                }
                if audiences.contains_key(name) {
                    return Err(err(format!("audience `{name}` defined twice"), *name_span));
                }
                let resolved = match expr {
                    AudienceExpr::Public => Audience::Public,
                    AudienceExpr::Subject => Audience::Subject,
                    AudienceExpr::Role { role, span } => match role.as_str() {
                        "worker" | "workers" => Audience::Workers,
                        "requester" | "requesters" => Audience::Requesters,
                        other => {
                            return Err(err(
                                format!(
                                    "unknown role `{other}` (expected `worker` or `requester`)"
                                ),
                                *span,
                            ))
                        }
                    },
                };
                audiences.insert(name.clone(), resolved);
            }
            Decl::Disclose {
                item,
                item_span,
                audience,
                condition,
            } => {
                let resolved_item = DisclosureItem::from_name(item).ok_or_else(|| {
                    err(
                        format!(
                            "unknown disclosure item `{item}` (see the schema for valid \
                             dotted names, e.g. `worker.acceptance_ratio`)"
                        ),
                        *item_span,
                    )
                })?;
                let resolved_audience =
                    audiences.get(&audience.name).copied().ok_or_else(|| {
                        err(
                            format!("unknown audience `{}`", audience.name),
                            audience.span,
                        )
                    })?;
                let resolved_condition = match condition {
                    Condition::Always => CompiledCondition::Always,
                    Condition::When { context, span } => {
                        let ctx = Context::from_name(context).ok_or_else(|| {
                            err(
                                format!(
                                    "unknown context `{context}` (valid: {})",
                                    Context::ALL
                                        .iter()
                                        .map(|c| c.name())
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                                *span,
                            )
                        })?;
                        CompiledCondition::When(ctx)
                    }
                };
                rules.push(CompiledRule {
                    item: resolved_item,
                    audience: resolved_audience,
                    condition: resolved_condition,
                });
            }
            Decl::Require {
                item,
                item_span,
                before,
            } => {
                let resolved = resolve_requirement_item(item)
                    .ok_or_else(|| err(format!("unknown requirement item `{item}`"), *item_span))?;
                if resolved.category() != DisclosureCategory::Requester {
                    return Err(err(
                        format!(
                            "`require requester discloses` needs a requester-side item, \
                             but `{item}` is platform-side"
                        ),
                        *item_span,
                    ));
                }
                let before_ctx = match before {
                    None => None,
                    Some(phase) => Some(
                        Context::from_name(phase)
                            .ok_or_else(|| err(format!("unknown phase `{phase}`"), *item_span))?,
                    ),
                };
                requirements.push(Requirement {
                    item: resolved,
                    before: before_ctx,
                });
            }
        }
    }

    Ok(CompiledPolicy {
        name: policy.name.clone(),
        rules,
        requirements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_one;

    #[test]
    fn compiles_and_grants() {
        let p = compile_one(
            r#"
            policy "p" {
                audience everyone = public;
                disclose task.rating to everyone when browsing;
                disclose worker.acceptance_ratio to subject;
                require requester discloses rejection_criteria before posting;
            }
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.requirements.len(), 1);
        assert_eq!(p.rule_count(), 3);
        let set = p.disclosure_set();
        assert!(set.allows(DisclosureItem::TaskRating, Audience::Public));
        assert!(set.allows(DisclosureItem::WorkerAcceptanceRatio, Audience::Subject));
        assert!(set.allows(DisclosureItem::RejectionCriteria, Audience::Workers));
    }

    #[test]
    fn unknown_item_rejected_with_span() {
        let err =
            compile_one(r#"policy "p" { disclose worker.shoe_size to public; }"#).unwrap_err();
        assert!(err.message.contains("worker.shoe_size"));
        assert!(err.context.is_some());
    }

    #[test]
    fn unknown_audience_rejected() {
        let err = compile_one(r#"policy "p" { disclose task.rating to martians; }"#).unwrap_err();
        assert!(err.message.contains("unknown audience `martians`"));
    }

    #[test]
    fn unknown_context_rejected_and_lists_valid() {
        let err = compile_one(r#"policy "p" { disclose task.rating to public when dreaming; }"#)
            .unwrap_err();
        assert!(err.message.contains("dreaming"));
        assert!(err.message.contains("browsing"));
    }

    #[test]
    fn builtin_audience_cannot_be_redefined() {
        // `public`/`subject` are keywords (parse error); `workers` and
        // `requesters` lex as identifiers and hit the semantic guard.
        let err = compile_one(r#"policy "p" { audience workers = role(requester); }"#).unwrap_err();
        assert!(err.message.contains("built-in"), "{}", err.message);
        let kw = compile_one(r#"policy "p" { audience public = role(worker); }"#).unwrap_err();
        assert!(kw.message.contains("expected an audience name"));
    }

    #[test]
    fn duplicate_audience_rejected() {
        let err = compile_one(
            r#"policy "p" {
                audience a = role(worker);
                audience a = public;
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn unknown_role_rejected() {
        let err = compile_one(r#"policy "p" { audience a = role(wizard); }"#).unwrap_err();
        assert!(err.message.contains("wizard"));
    }

    #[test]
    fn require_platform_item_rejected() {
        let err = compile_one(r#"policy "p" { require requester discloses worker.history; }"#)
            .unwrap_err();
        assert!(err.message.contains("platform-side"));
    }

    #[test]
    fn requirement_short_names_resolve() {
        for (short, item) in [
            ("hourly_wage", DisclosureItem::HourlyWage),
            ("payment_schedule", DisclosureItem::PaymentDelay),
            ("payment_delay", DisclosureItem::PaymentDelay),
            ("recruitment_criteria", DisclosureItem::RecruitmentCriteria),
            ("rejection_criteria", DisclosureItem::RejectionCriteria),
            ("evaluation_scheme", DisclosureItem::EvaluationScheme),
        ] {
            let src = format!(r#"policy "p" {{ require requester discloses {short}; }}"#);
            let p = compile_one(&src).unwrap();
            assert_eq!(p.requirements[0].item, item, "{short}");
        }
    }

    #[test]
    fn user_audience_resolves_roles() {
        let p = compile_one(
            r#"policy "p" {
                audience crowd = role(worker);
                audience posters = role(requester);
                disclose requester.rating to crowd;
                disclose requester.campaign_progress to posters;
            }"#,
        )
        .unwrap();
        assert_eq!(p.rules[0].audience, Audience::Workers);
        assert_eq!(p.rules[1].audience, Audience::Requesters);
    }

    #[test]
    fn context_names_roundtrip() {
        for c in Context::ALL {
            assert_eq!(Context::from_name(c.name()), Some(c));
        }
        assert_eq!(Context::from_name("nope"), None);
    }
}
