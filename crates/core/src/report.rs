//! Plain-text rendering of audit reports and experiment tables.
//!
//! The [`TextTable`] here is the shared renderer for every experiment in
//! `faircrowd-bench` and for [`render_report`], which turns a
//! [`FairnessReport`] into the human-readable audit summary shown by the
//! examples.

use crate::audit::FairnessReport;
use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Align {
    /// Left-aligned (text).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with headers; all columns left-aligned by default.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; headers.len()];
        TextTable {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Set column alignments (right-align numeric columns).
    pub(crate) fn aligns(mut self, aligns: Vec<Align>) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity mismatch");
        self.aligns = aligns;
        self
    }

    /// Convenience: first column left, the rest right.
    pub fn numeric(mut self) -> Self {
        for (i, a) in self.aligns.iter_mut().enumerate() {
            *a = if i == 0 { Align::Left } else { Align::Right };
        }
        self
    }

    /// Append a row (must match header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with a header rule.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                match self.aligns[i] {
                    Align::Left => {
                        let _ = write!(out, "{cell:<width$}", width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(out, "{cell:>width$}", width = widths[i]);
                    }
                }
            }
            // trim trailing spaces
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Render a fairness report as a human-readable audit summary.
pub fn render_report(report: &FairnessReport) -> String {
    let mut table =
        TextTable::new(["axiom", "score", "checked", "violations", "notes"]).aligns(vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
    for r in &report.axioms {
        table.row([
            r.axiom.label().to_owned(),
            format!("{:.3}", r.score),
            r.checked.to_string(),
            r.violation_count.to_string(),
            r.notes.first().cloned().unwrap_or_default(),
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\noverall {:.3}  (fairness {:.3}, transparency {:.3}); {} violation(s) total",
        report.overall_score(),
        report.fairness_score(),
        report.transparency_score(),
        report.total_violations()
    );
    // Show a few witnesses for colour.
    let witnesses: Vec<&crate::axiom::Violation> = report
        .axioms
        .iter()
        .flat_map(|r| r.violations.iter())
        .take(5)
        .collect();
    if !witnesses.is_empty() {
        let _ = writeln!(out, "example violations:");
        for v in witnesses {
            let _ = writeln!(out, "  [{}] {}", v.axiom.label(), v.description);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEngine;
    use faircrowd_model::trace::Trace;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]).numeric();
        t.row(["alpha", "1.00"]);
        t.row(["a-much-longer-name", "12.50"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // right-aligned numbers end at the same column
        assert!(lines[2].ends_with("1.00"));
        assert!(lines[3].ends_with("12.50"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn empty_table_is_header_and_rule() {
        let t = TextTable::new(["x"]);
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn report_rendering_mentions_every_axiom() {
        let report = AuditEngine::with_defaults().run(&Trace::default());
        let text = render_report(&report);
        for id in crate::axiom::AxiomId::ALL {
            assert!(text.contains(id.label()), "missing {id}");
        }
        assert!(text.contains("overall"));
    }
}
