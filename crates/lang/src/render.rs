//! Human-readable rendering.
//!
//! "Rules can also be translated into human-readable descriptions for
//! workers' consumption" (§3.3.2). Each compiled rule becomes an English
//! sentence; a policy becomes a titled bullet list.

use crate::sema::{CompiledCondition, CompiledPolicy, CompiledRule, Context, Requirement};
use faircrowd_model::disclosure::{Audience, DisclosureItem};
use std::fmt::Write as _;

/// English noun phrase for a disclosure item.
pub(crate) fn item_phrase(item: DisclosureItem) -> &'static str {
    match item {
        DisclosureItem::HourlyWage => "the expected hourly wage of each task",
        DisclosureItem::PaymentDelay => "how long payment takes after submission",
        DisclosureItem::RecruitmentCriteria => "who may work on each task",
        DisclosureItem::RejectionCriteria => "the conditions under which work is rejected",
        DisclosureItem::EvaluationScheme => "how contributions are evaluated",
        DisclosureItem::WorkerAcceptanceRatio => "their own acceptance ratio",
        DisclosureItem::WorkerQualityEstimate => "their own estimated accuracy",
        DisclosureItem::WorkerHistory => "their own submission history",
        DisclosureItem::WorkerApprovalLatency => "how quickly their work gets judged",
        DisclosureItem::WorkerEarnings => "their own lifetime earnings",
        DisclosureItem::WorkerSessions => "their own session history",
        DisclosureItem::RequesterRating => "the community rating of each requester",
        DisclosureItem::TaskRating => "the community rating of each task",
        DisclosureItem::AutoApprovalTime => "the time until automatic approval",
        DisclosureItem::CampaignProgress => "live progress of their own campaigns",
    }
}

/// English subject phrase for an audience.
pub(crate) fn audience_phrase(audience: Audience) -> &'static str {
    match audience {
        Audience::Public => "Anyone",
        Audience::Workers => "Workers",
        Audience::Requesters => "Requesters",
        Audience::Subject => "Each worker",
    }
}

/// English adverbial for a context.
pub(crate) fn context_phrase(ctx: Context) -> &'static str {
    match ctx {
        Context::Browsing => "while browsing tasks",
        Context::Accepting => "when accepting a task",
        Context::Working => "while working on a task",
        Context::Posting => "when a task is posted",
        Context::Payment => "around payment time",
        Context::SessionStart => "at the start of each session",
    }
}

/// Render one disclose rule as a sentence.
pub(crate) fn render_rule(rule: &CompiledRule) -> String {
    let who = audience_phrase(rule.audience);
    let what = item_phrase(rule.item);
    match rule.condition {
        CompiledCondition::Always => format!("{who} can see {what}."),
        CompiledCondition::When(ctx) => {
            format!("{who} can see {what} {}.", context_phrase(ctx))
        }
    }
}

/// Render one requirement as a sentence.
pub(crate) fn render_requirement(req: &Requirement) -> String {
    let what = item_phrase(req.item);
    match req.before {
        Some(ctx) => format!(
            "Requesters must publish {what} {}.",
            context_phrase(ctx).replace("when a task is posted", "before posting a task")
        ),
        None => format!("Requesters must publish {what}."),
    }
}

/// Render a whole policy as a titled bullet list.
pub fn render_policy(policy: &CompiledPolicy) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Transparency policy \"{}\":", policy.name);
    if policy.rules.is_empty() && policy.requirements.is_empty() {
        let _ = writeln!(out, "  (discloses nothing)");
        return out;
    }
    for rule in &policy.rules {
        let _ = writeln!(out, "  - {}", render_rule(rule));
    }
    for req in &policy.requirements {
        let _ = writeln!(out, "  - {}", render_requirement(req));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_one;

    #[test]
    fn renders_sentences() {
        let p = compile_one(
            r#"
            policy "demo" {
                disclose task.rating to public when browsing;
                disclose worker.acceptance_ratio to subject always;
                require requester discloses rejection_criteria before posting;
            }
            "#,
        )
        .unwrap();
        let text = render_policy(&p);
        assert!(text.contains("Transparency policy \"demo\""));
        assert!(
            text.contains("Anyone can see the community rating of each task while browsing tasks.")
        );
        assert!(text.contains("Each worker can see their own acceptance ratio."));
        assert!(text.contains(
            "Requesters must publish the conditions under which work is rejected before \
             posting a task."
        ));
    }

    #[test]
    fn empty_policy_renders_gracefully() {
        let p = CompiledPolicy {
            name: "void".into(),
            rules: vec![],
            requirements: vec![],
        };
        assert!(render_policy(&p).contains("discloses nothing"));
    }

    #[test]
    fn every_item_has_a_phrase() {
        for item in DisclosureItem::ALL {
            assert!(!item_phrase(item).is_empty());
        }
        for a in Audience::ALL {
            assert!(!audience_phrase(a).is_empty());
        }
        for c in Context::ALL {
            assert!(!context_phrase(c).is_empty());
        }
    }

    #[test]
    fn requirement_without_phase() {
        let p = compile_one(r#"policy "p" { require requester discloses hourly_wage; }"#).unwrap();
        let text = render_requirement(&p.requirements[0]);
        assert_eq!(
            text,
            "Requesters must publish the expected hourly wage of each task."
        );
    }
}
