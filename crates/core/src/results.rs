//! JSON codecs for per-cell audit results — the payload of sweep part
//! files.
//!
//! A sharded sweep persists each finished grid cell as one compact JSON
//! record so a killed shard can resume and a `merge` can rebuild the
//! exact [`FairnessReport`] (and wage statistics) the single-process
//! sweep would have produced. Byte-identical merge output therefore
//! rides on these codecs being **lossless**: floats are written in
//! Rust's shortest round-trip form (and non-finite values in the
//! [`faircrowd_model::json::Json::float`] string spellings), counts as
//! integer tokens, and axioms by their stable table labels
//! ([`AxiomId::label`] / `AxiomId::from_label`).
//!
//! Decoding follows the same never-panic discipline as every persisted
//! schema in this crate: a missing field, wrong type, or unknown axiom
//! label is a [`FaircrowdError::Persist`] naming the field and the
//! context it sat in.
//!
//! ```
//! use faircrowd_core::results;
//! use faircrowd_core::{AxiomId, AxiomReport, FairnessReport};
//!
//! let report = FairnessReport {
//!     axioms: vec![AxiomReport::vacuous(AxiomId::A3Compensation, "no shared tasks")],
//! };
//! let json = results::report_to_json(&report);
//! assert_eq!(results::report_from_json(&json, "cell 0")?, report);
//! # Ok::<(), faircrowd_model::FaircrowdError>(())
//! ```

use crate::audit::FairnessReport;
use crate::axiom::{AxiomId, AxiomReport, Violation};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::fields::{arr_field, bool_field, f64_field, str_field, u64_field};
use faircrowd_model::json::Json;
use faircrowd_pay::wage::WageStats;

/// Encode a [`FairnessReport`] as a JSON object (losslessly; see the
/// module docs).
pub fn report_to_json(report: &FairnessReport) -> Json {
    Json::Obj(vec![(
        "axioms".to_owned(),
        Json::Arr(report.axioms.iter().map(axiom_report_to_json).collect()),
    )])
}

/// Decode a [`FairnessReport`] written by [`report_to_json`]. `ctx`
/// names where the object sat (e.g. `part file line 7`) in errors.
pub fn report_from_json(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<FairnessReport, FaircrowdError> {
    let axioms = arr_field(json, "axioms", &ctx)?
        .iter()
        .enumerate()
        .map(|(i, a)| axiom_report_from_json(a, format!("{ctx}: axiom {i}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FairnessReport { axioms })
}

fn axiom_report_to_json(report: &AxiomReport) -> Json {
    Json::Obj(vec![
        ("axiom".to_owned(), Json::str(report.axiom.label())),
        ("score".to_owned(), Json::float(report.score)),
        ("checked".to_owned(), Json::uint(report.checked as u64)),
        (
            "violations".to_owned(),
            Json::Arr(
                report
                    .violations
                    .iter()
                    .map(|v| {
                        Json::Obj(vec![
                            ("severity".to_owned(), Json::float(v.severity)),
                            ("description".to_owned(), Json::str(&*v.description)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "violation_count".to_owned(),
            Json::uint(report.violation_count as u64),
        ),
        ("truncated".to_owned(), Json::Bool(report.truncated)),
        (
            "notes".to_owned(),
            Json::Arr(report.notes.iter().map(Json::str).collect()),
        ),
    ])
}

fn axiom_report_from_json(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<AxiomReport, FaircrowdError> {
    let label = str_field(json, "axiom", &ctx)?;
    let axiom = AxiomId::from_label(label)
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: unknown axiom label `{label}`")))?;
    let violations = arr_field(json, "violations", &ctx)?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let vctx = format!("{ctx}: violation {i}");
            Ok(Violation {
                axiom,
                severity: f64_field(v, "severity", &vctx)?,
                description: str_field(v, "description", &vctx)?.to_owned(),
            })
        })
        .collect::<Result<Vec<_>, FaircrowdError>>()?;
    let notes = arr_field(json, "notes", &ctx)?
        .iter()
        .enumerate()
        .map(|(i, n)| {
            n.as_str().map(str::to_owned).ok_or_else(|| {
                FaircrowdError::persist(format!(
                    "{ctx}: note {i} should be a string, got {}",
                    n.kind()
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AxiomReport {
        axiom,
        score: f64_field(json, "score", &ctx)?,
        checked: usize_field(json, "checked", &ctx)?,
        violations,
        violation_count: usize_field(json, "violation_count", &ctx)?,
        truncated: bool_field(json, "truncated", &ctx)?,
        notes,
    })
}

/// Encode [`WageStats`] as a JSON object (losslessly).
pub fn wages_to_json(wages: &WageStats) -> Json {
    Json::Obj(vec![
        ("n".to_owned(), Json::uint(wages.n as u64)),
        ("mean".to_owned(), Json::float(wages.mean)),
        ("median".to_owned(), Json::float(wages.median)),
        ("p10".to_owned(), Json::float(wages.p10)),
        ("p90".to_owned(), Json::float(wages.p90)),
        ("gini".to_owned(), Json::float(wages.gini)),
        ("theil".to_owned(), Json::float(wages.theil)),
        ("jain".to_owned(), Json::float(wages.jain)),
    ])
}

/// Decode [`WageStats`] written by [`wages_to_json`].
pub fn wages_from_json(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<WageStats, FaircrowdError> {
    Ok(WageStats {
        n: usize_field(json, "n", &ctx)?,
        mean: f64_field(json, "mean", &ctx)?,
        median: f64_field(json, "median", &ctx)?,
        p10: f64_field(json, "p10", &ctx)?,
        p90: f64_field(json, "p90", &ctx)?,
        gini: f64_field(json, "gini", &ctx)?,
        theil: f64_field(json, "theil", &ctx)?,
        jain: f64_field(json, "jain", &ctx)?,
    })
}

fn usize_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<usize, FaircrowdError> {
    let v = u64_field(json, key, &ctx)?;
    usize::try_from(v)
        .map_err(|_| FaircrowdError::persist(format!("{ctx}: field `{key}` overflows a count")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_report() -> FairnessReport {
        let mut a3 = AxiomReport::vacuous(AxiomId::A3Compensation, "note one");
        a3.score = 1.0 / 3.0; // not representable exactly; round-trips via shortest form
        a3.checked = 41;
        a3.violation_count = 3;
        a3.truncated = true;
        a3.violations = vec![Violation {
            axiom: AxiomId::A3Compensation,
            severity: 0.1 + 0.2, // 0.30000000000000004 — shortest-form fodder
            description: "worker 3 vs worker 9: \"quoted\" reward gap".to_owned(),
        }];
        FairnessReport {
            axioms: vec![
                a3,
                AxiomReport::vacuous(AxiomId::A7PlatformTransparency, "all disclosed"),
            ],
        }
    }

    #[test]
    fn report_roundtrips_bit_exact() {
        let report = busy_report();
        let json = report_to_json(&report);
        let back = report_from_json(&json, "test").unwrap();
        assert_eq!(back, report);
        // And through a textual encode/parse cycle, as in a part file.
        let reparsed = Json::parse(&json.to_compact()).unwrap();
        assert_eq!(report_from_json(&reparsed, "test").unwrap(), report);
    }

    #[test]
    fn wages_roundtrip_bit_exact_including_nonfinite() {
        let wages = WageStats {
            n: 17,
            mean: 12.340000000000001,
            median: 11.0,
            p10: 2.5,
            p90: 30.75,
            gini: 0.30000000000000004,
            theil: f64::NAN,
            jain: f64::INFINITY,
        };
        let json = Json::parse(&wages_to_json(&wages).to_compact()).unwrap();
        let back = wages_from_json(&json, "test").unwrap();
        assert_eq!(back.n, wages.n);
        assert_eq!(back.mean.to_bits(), wages.mean.to_bits());
        assert_eq!(back.gini.to_bits(), wages.gini.to_bits());
        assert!(back.theil.is_nan());
        assert_eq!(back.jain, f64::INFINITY);
    }

    #[test]
    fn unknown_axiom_label_is_a_named_persist_error() {
        let mut json = report_to_json(&busy_report());
        if let Json::Obj(members) = &mut json {
            if let Json::Arr(axioms) = &mut members[0].1 {
                if let Json::Obj(fields) = &mut axioms[0] {
                    fields[0].1 = Json::str("A9-imaginary");
                }
            }
        }
        let err = report_from_json(&json, "part line 4").unwrap_err();
        assert!(matches!(err, FaircrowdError::Persist { .. }), "{err:?}");
        assert!(err.to_string().contains("A9-imaginary"), "{err}");
        assert!(err.to_string().contains("part line 4"), "{err}");
    }

    #[test]
    fn missing_field_names_context() {
        let err = wages_from_json(&Json::Obj(vec![]), "cell 12 wages").unwrap_err();
        assert!(err.to_string().contains("cell 12 wages"), "{err}");
        assert!(err.to_string().contains("`n`"), "{err}");
    }

    #[test]
    fn axiom_labels_roundtrip() {
        for id in AxiomId::ALL {
            assert_eq!(AxiomId::from_label(id.label()), Some(id));
        }
        assert_eq!(AxiomId::from_label("A0-nope"), None);
    }
}
