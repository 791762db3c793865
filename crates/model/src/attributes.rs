//! Worker attributes.
//!
//! The paper splits worker attributes into **self-declared** attributes
//! `A_w` "such as demographics and location" and **computed** attributes
//! `C_w` "such as a worker's acceptance ratio" (§3.2). Axiom 1 compares
//! workers on both sets; Axiom 7 requires the platform to disclose `C_w`.
//!
//! Declared attributes are an open map of typed values. Computed attributes
//! are a struct with the canonical statistics every crowd platform derives,
//! plus an open extension map.

use crate::money::Credits;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Boolean flag (e.g. `adult = true`).
    Bool(bool),
    /// Integer (e.g. `age = 34`).
    Int(i64),
    /// Real number (e.g. `hours_per_week = 12.5`).
    Real(f64),
    /// Free text (e.g. `country = "PH"`).
    Text(String),
}

impl AttrValue {
    /// Similarity between two values in `[0, 1]`.
    ///
    /// * Booleans and text compare by equality.
    /// * Numbers compare by relative closeness: `1 - |a-b| / max(|a|,|b|)`
    ///   (1.0 when both are zero), clamped to `[0, 1]`.
    ///
    /// Values of different types have similarity 0. This implements the
    /// paper's "similarity can be platform-dependent and ranges from perfect
    /// equality to threshold-based similarity" for the attribute leaves.
    pub(crate) fn similarity(&self, other: &AttrValue) -> f64 {
        match (self, other) {
            (AttrValue::Bool(a), AttrValue::Bool(b)) => f64::from(a == b),
            (AttrValue::Text(a), AttrValue::Text(b)) => f64::from(a == b),
            (AttrValue::Int(a), AttrValue::Int(b)) => numeric_sim(*a as f64, *b as f64),
            (AttrValue::Real(a), AttrValue::Real(b)) => numeric_sim(*a, *b),
            (AttrValue::Int(a), AttrValue::Real(b)) | (AttrValue::Real(b), AttrValue::Int(a)) => {
                numeric_sim(*a as f64, *b)
            }
            _ => 0.0,
        }
    }
}

fn numeric_sim(a: f64, b: f64) -> f64 {
    if a == b {
        return 1.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).clamp(0.0, 1.0)
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Real(r) => write!(f, "{r}"),
            AttrValue::Text(s) => write!(f, "{s:?}"),
        }
    }
}

/// Self-declared worker attributes `A_w` (demographics, location, …).
///
/// A sorted map keeps audit reports and serialisations deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeclaredAttrs {
    attrs: BTreeMap<String, AttrValue>,
}

impl DeclaredAttrs {
    /// Empty attribute set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, key: &str, value: AttrValue) -> Self {
        self.set(key, value);
        self
    }

    /// Insert or replace an attribute.
    pub(crate) fn set(&mut self, key: &str, value: AttrValue) {
        self.attrs.insert(key.to_owned(), value);
    }

    /// Look up an attribute.
    pub(crate) fn get(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }

    /// Iterate in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The worker's group along one declared axis: the attribute's
    /// value rendered as a stable grouping key, or `None` when the
    /// attribute is absent. Text values key by their raw contents
    /// (no quotes); other types key by their display form. Diversity-
    /// constrained selection and demographic-parity aggregation both
    /// partition workers by this key.
    pub fn group_key(&self, attr: &str) -> Option<String> {
        self.get(attr).map(|v| match v {
            AttrValue::Text(s) => s.clone(),
            other => other.to_string(),
        })
    }

    /// Mean per-key similarity over the union of keys (missing keys count
    /// as similarity 0). Returns 1.0 when both sets are empty.
    pub fn similarity(&self, other: &DeclaredAttrs) -> f64 {
        let keys: std::collections::BTreeSet<&str> = self
            .attrs
            .keys()
            .chain(other.attrs.keys())
            .map(String::as_str)
            .collect();
        if keys.is_empty() {
            return 1.0;
        }
        let total: f64 = keys
            .iter()
            .map(|k| match (self.get(k), other.get(k)) {
                (Some(a), Some(b)) => a.similarity(b),
                _ => 0.0,
            })
            .sum();
        total / keys.len() as f64
    }
}

/// Platform-computed worker attributes `C_w`.
///
/// These are the statistics the platform derives from a worker's history;
/// Axiom 7 requires them to be disclosed to the worker, and Axiom 1 uses
/// them to decide whether two workers are "similar". The paper names the
/// acceptance ratio explicitly; the remaining fields are the standard
/// derived statistics on AMT-like platforms.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ComputedAttrs {
    /// Submissions approved / submissions judged (the paper's example).
    pub acceptance_ratio: f64,
    /// Total approved submissions.
    pub tasks_approved: u64,
    /// Total rejected submissions.
    pub tasks_rejected: u64,
    /// Total submissions made.
    pub tasks_submitted: u64,
    /// Platform's running estimate of contribution quality in `[0, 1]`.
    pub quality_estimate: f64,
    /// Mean latency between submission and approval/rejection.
    pub mean_approval_latency: SimDuration,
    /// Lifetime earnings actually paid out.
    pub total_earnings: Credits,
    /// Sessions the worker has had on the platform.
    pub sessions: u64,
    /// Open extension attributes (platform-specific).
    pub extra: BTreeMap<String, f64>,
}

impl ComputedAttrs {
    /// A fresh record for a new worker: no history yet. By convention a
    /// fresh worker has acceptance ratio and quality estimate 1.0 (the
    /// platform has no evidence against them).
    pub(crate) fn fresh() -> Self {
        ComputedAttrs {
            acceptance_ratio: 1.0,
            quality_estimate: 1.0,
            ..Default::default()
        }
    }

    /// Recompute the acceptance ratio from the counters. Workers with no
    /// judged work keep ratio 1.0.
    pub fn refresh_acceptance_ratio(&mut self) {
        let judged = self.tasks_approved + self.tasks_rejected;
        self.acceptance_ratio = if judged == 0 {
            1.0
        } else {
            self.tasks_approved as f64 / judged as f64
        };
    }

    /// Similarity in `[0, 1]` between two computed-attribute records, the
    /// `C_wi ~ C_wj` test of Axiom 1: mean of per-field numeric closeness
    /// over (acceptance ratio, quality estimate, log-scaled experience).
    pub fn similarity(&self, other: &ComputedAttrs) -> f64 {
        let r = 1.0 - (self.acceptance_ratio - other.acceptance_ratio).abs();
        let q = 1.0 - (self.quality_estimate - other.quality_estimate).abs();
        // Experience on log scale: 100 vs 110 tasks is similar, 0 vs 100 is not.
        let ea = (1.0 + self.tasks_submitted as f64).ln();
        let eb = (1.0 + other.tasks_submitted as f64).ln();
        let e = if ea == 0.0 && eb == 0.0 {
            1.0
        } else {
            1.0 - (ea - eb).abs() / ea.max(eb)
        };
        ((r + q + e) / 3.0).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_value_similarity() {
        assert_eq!(
            AttrValue::Bool(true).similarity(&AttrValue::Bool(true)),
            1.0
        );
        assert_eq!(
            AttrValue::Bool(true).similarity(&AttrValue::Bool(false)),
            0.0
        );
        assert_eq!(
            AttrValue::Text("PH".into()).similarity(&AttrValue::Text("PH".into())),
            1.0
        );
        assert_eq!(
            AttrValue::Text("PH".into()).similarity(&AttrValue::Text("FR".into())),
            0.0
        );
        // numeric closeness
        let s = AttrValue::Int(90).similarity(&AttrValue::Int(100));
        assert!((s - 0.9).abs() < 1e-12);
        assert_eq!(AttrValue::Int(0).similarity(&AttrValue::Int(0)), 1.0);
        // cross-type
        assert_eq!(AttrValue::Bool(true).similarity(&AttrValue::Int(1)), 0.0);
        // int/real mix
        assert!((AttrValue::Int(1).similarity(&AttrValue::Real(1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn declared_similarity_over_union_of_keys() {
        let a = DeclaredAttrs::new()
            .with("country", AttrValue::Text("PH".into()))
            .with("age", AttrValue::Int(30));
        let b = DeclaredAttrs::new()
            .with("country", AttrValue::Text("PH".into()))
            .with("age", AttrValue::Int(30));
        assert!((a.similarity(&b) - 1.0).abs() < 1e-12);

        let c = DeclaredAttrs::new().with("country", AttrValue::Text("PH".into()));
        // union keys = {country, age}; country 1.0, age missing -> 0.0
        assert!((a.similarity(&c) - 0.5).abs() < 1e-12);

        assert_eq!(DeclaredAttrs::new().similarity(&DeclaredAttrs::new()), 1.0);
    }

    #[test]
    fn declared_attrs_accessors() {
        let mut a = DeclaredAttrs::new();
        a.set("k", AttrValue::Bool(true));
        assert_eq!(a.iter().count(), 1);
        assert_eq!(a.get("k"), Some(&AttrValue::Bool(true)));
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["k"]);
    }

    #[test]
    fn group_key_partitions_on_raw_text() {
        let a = DeclaredAttrs::new()
            .with("region", AttrValue::Text("south".into()))
            .with("age", AttrValue::Int(30));
        assert_eq!(a.group_key("region").as_deref(), Some("south"));
        assert_eq!(a.group_key("age").as_deref(), Some("30"));
        assert_eq!(a.group_key("country"), None);
    }

    #[test]
    fn fresh_computed_attrs() {
        let c = ComputedAttrs::fresh();
        assert_eq!(c.acceptance_ratio, 1.0);
        assert_eq!(c.quality_estimate, 1.0);
        assert_eq!(c.tasks_submitted, 0);
    }

    #[test]
    fn acceptance_ratio_refresh() {
        let mut c = ComputedAttrs::fresh();
        c.tasks_approved = 3;
        c.tasks_rejected = 1;
        c.refresh_acceptance_ratio();
        assert!((c.acceptance_ratio - 0.75).abs() < 1e-12);

        let mut fresh = ComputedAttrs::fresh();
        fresh.refresh_acceptance_ratio();
        assert_eq!(fresh.acceptance_ratio, 1.0);
    }

    #[test]
    fn computed_similarity_identical_is_one() {
        let mut a = ComputedAttrs::fresh();
        a.tasks_submitted = 50;
        a.acceptance_ratio = 0.9;
        a.quality_estimate = 0.8;
        let b = a.clone();
        assert!((a.similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn computed_similarity_decreases_with_distance() {
        let mut a = ComputedAttrs::fresh();
        a.acceptance_ratio = 1.0;
        a.quality_estimate = 1.0;
        a.tasks_submitted = 100;
        let mut b = a.clone();
        b.acceptance_ratio = 0.5;
        let mut c = a.clone();
        c.acceptance_ratio = 0.5;
        c.quality_estimate = 0.2;
        let sab = a.similarity(&b);
        let sac = a.similarity(&c);
        assert!(sab > sac);
        assert!((0.0..=1.0).contains(&sab));
        assert!((0.0..=1.0).contains(&sac));
    }

    #[test]
    fn display_attr_values() {
        assert_eq!(AttrValue::Bool(true).to_string(), "true");
        assert_eq!(AttrValue::Int(5).to_string(), "5");
        assert_eq!(AttrValue::Text("x".into()).to_string(), "\"x\"");
    }
}
