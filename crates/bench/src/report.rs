//! Result formatting: the paper-versus-measured tables the `repro`
//! binary prints and EXPERIMENTS.md records.

use hyperear::metrics::Cdf;
use hyperear_util::{FromJson, Json, JsonError, ToJson};
use std::fmt::Write as _;

/// One experiment's rendered report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. "fig14").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Rendered body lines.
    pub lines: Vec<String>,
    /// Raw error series per condition label, for CSV export.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub(crate) fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            lines: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Appends a line.
    pub(crate) fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Appends a blank line.
    pub(crate) fn blank(&mut self) {
        self.lines.push(String::new());
    }

    /// Appends a labelled CDF summary row: mean / median / p90 / max.
    /// The raw errors are also retained for CSV export.
    pub(crate) fn cdf_row(&mut self, label: &str, errors: &[f64]) {
        self.series.push((label.to_string(), errors.to_vec()));
        match Cdf::new(errors) {
            Ok(cdf) => {
                let s = cdf.stats();
                self.line(format!(
                    "  {label:<34} n={:<4} mean={:>7} median={:>7} p90={:>7} max={:>7}",
                    s.count,
                    fmt_m(s.mean),
                    fmt_m(s.median),
                    fmt_m(s.p90),
                    fmt_m(s.max),
                ));
            }
            Err(_) => self.line(format!("  {label:<34} (no successful trials)")),
        }
    }

    /// Appends a compact CDF curve: fraction of errors below fixed grid
    /// points (the numeric equivalent of the paper's CDF plots).
    pub(crate) fn cdf_curve(&mut self, label: &str, errors: &[f64], grid_m: &[f64]) {
        match Cdf::new(errors) {
            Ok(cdf) => {
                let mut row = format!("  {label:<34}");
                for &g in grid_m {
                    let cell =
                        format!(" P(e≤{})={:>3.0}%", fmt_m(g), 100.0 * cdf.fraction_below(g));
                    row.push_str(&cell);
                }
                self.line(row);
            }
            Err(_) => self.line(format!("  {label:<34} (no successful trials)")),
        }
    }

    /// Renders the report to a string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== [{}] {} ==", self.id, self.title);
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// Writes the retained raw error series as long-format CSV
    /// (`condition,error_m` per row) into `dir/<id>.csv`. Reports with no
    /// series (analytic experiments) write nothing.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error as `std::io::Error`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()> {
        if self.series.is_empty() {
            return Ok(());
        }
        let mut out = String::from("condition,error_m\n");
        for (label, errors) in &self.series {
            for e in errors {
                let cell = if label.contains(',') || label.contains('"') {
                    format!("\"{}\"", label.replace('"', "\"\""))
                } else {
                    label.clone()
                };
                out.push_str(&format!("{cell},{e}\n"));
            }
        }
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), out)
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::String(self.id.clone())),
            ("title", Json::String(self.title.clone())),
            ("lines", self.lines.to_json()),
            (
                "series",
                Json::Array(
                    self.series
                        .iter()
                        .map(|(label, errors)| {
                            Json::obj(vec![
                                ("label", Json::String(label.clone())),
                                ("errors", errors.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Report {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let raw_series: Vec<Json> = json
            .get("series")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::schema("series must be an array"))?
            .to_vec();
        let mut series = Vec::with_capacity(raw_series.len());
        for entry in &raw_series {
            series.push((entry.field("label")?, entry.field("errors")?));
        }
        Ok(Report {
            id: json.field("id")?,
            title: json.field("title")?,
            lines: json.field("lines")?,
            series,
        })
    }
}

impl Report {}

/// Formats metres adaptively (cm below 1 m).
#[must_use]
pub(crate) fn fmt_m(v: f64) -> String {
    if v.abs() < 1.0 {
        format!("{:.1}cm", v * 100.0)
    } else {
        format!("{v:.2}m")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_header_and_lines() {
        let mut r = Report::new("fig99", "A test figure");
        r.line("hello");
        r.blank();
        r.cdf_row("condition A", &[0.1, 0.2, 0.3]);
        let text = r.render();
        assert!(text.contains("[fig99]"));
        assert!(text.contains("A test figure"));
        assert!(text.contains("hello"));
        assert!(text.contains("mean="));
        assert!(text.contains("n=3"));
    }

    #[test]
    fn empty_errors_do_not_panic() {
        let mut r = Report::new("x", "y");
        r.cdf_row("nothing", &[]);
        r.cdf_curve("nothing", &[], &[0.1]);
        assert!(r.render().contains("no successful trials"));
    }

    #[test]
    fn cdf_curve_percentages() {
        let mut r = Report::new("x", "y");
        r.cdf_curve("c", &[0.05, 0.15, 0.25, 0.35], &[0.1, 0.3]);
        let text = r.render();
        assert!(text.contains("25%"), "{text}");
        assert!(text.contains("75%"), "{text}");
    }

    #[test]
    fn csv_export_round_trips() {
        let mut r = Report::new("csvtest", "t");
        r.cdf_row("cond A", &[0.1, 0.2]);
        r.cdf_row("with,comma", &[0.3]);
        let dir = std::env::temp_dir().join("hyperear_csv_test");
        r.write_csv(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("csvtest.csv")).unwrap();
        assert!(text.starts_with("condition,error_m\n"));
        assert!(text.contains("cond A,0.1"));
        assert!(text.contains("\"with,comma\",0.3"));
        let _ = std::fs::remove_dir_all(&dir);
        // Analytic reports (no series) write nothing.
        let empty = Report::new("none", "t");
        empty.write_csv(&dir).unwrap();
        assert!(!dir.join("none.csv").exists());
    }

    #[test]
    fn json_round_trip_preserves_series() {
        let mut r = Report::new("fig14", "Ranging accuracy");
        r.line("header line");
        r.cdf_row("baseline", &[0.12, 0.34, 0.56]);
        r.cdf_row("with \"quotes\"", &[1.5]);
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.id, r.id);
        assert_eq!(back.title, r.title);
        assert_eq!(back.lines, r.lines);
        assert_eq!(back.series, r.series);
    }

    #[test]
    fn fmt_m_scales() {
        assert_eq!(fmt_m(0.153), "15.3cm");
        assert_eq!(fmt_m(2.5), "2.50m");
    }
}
