//! # dmm-report
//!
//! Rendering of the paper's tables and figures from measured data:
//! ASCII tables (Table 1), CSV artefacts, footprint-over-time ASCII plots
//! (Figure 5) and the percent-improvement arithmetic the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde::{Deserialize, Serialize};

use dmm_core::metrics::TimeSeries;

/// A rectangular results table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers; the first names the row-label column.
    pub columns: Vec<String>,
    /// Rows: a label and one cell per data column.
    pub rows: Vec<(String, Vec<Cell>)>,
}

/// One table cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// A byte count, rendered both raw and in scientific notation like the
    /// paper's Table 1.
    Bytes(usize),
    /// A percentage.
    Percent(f64),
    /// A plain number.
    Number(f64),
    /// Free-form text.
    Text(String),
    /// No measurement (the paper's "-").
    Missing,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Bytes(b) => write!(f, "{}", format_bytes_sci(*b)),
            Cell::Percent(p) => write!(f, "{p:.2}%"),
            Cell::Number(n) => write!(f, "{n:.2}"),
            Cell::Text(s) => write!(f, "{s}"),
            Cell::Missing => write!(f, "-"),
        }
    }
}

/// Format a byte count the way Table 1 does, e.g. `2.09e6`.
pub fn format_bytes_sci(bytes: usize) -> String {
    if bytes == 0 {
        return "0".into();
    }
    let exp = (bytes as f64).log10().floor() as i32;
    let mant = bytes as f64 / 10f64.powi(exp);
    format!("{mant:.2}e{exp}")
}

impl Table {
    /// A new empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the data columns.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len() - 1,
            "row width must match the table"
        );
        self.rows.push((label.into(), cells));
    }

    /// Render as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut grid: Vec<Vec<String>> = Vec::new();
        grid.push(self.columns.clone());
        for (label, cells) in &self.rows {
            let mut row = vec![label.clone()];
            row.extend(cells.iter().map(|c| c.to_string()));
            grid.push(row);
        }
        let cols = self.columns.len();
        let widths: Vec<usize> = (0..cols)
            .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(1))
            .collect();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for (i, row) in grid.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
            if i == 0 {
                let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("-+-"));
                out.push('\n');
            }
        }
        out
    }

    /// Render as CSV (header + rows, raw values).
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for (label, cells) in &self.rows {
            let mut fields = vec![label.clone()];
            fields.extend(cells.iter().map(|c| match c {
                Cell::Bytes(b) => b.to_string(),
                Cell::Percent(p) => format!("{p}"),
                Cell::Number(n) => format!("{n}"),
                Cell::Text(s) => s.clone(),
                Cell::Missing => String::new(),
            }));
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

/// One named footprint curve for the Figure 5 plot.
#[derive(Debug, Clone)]
pub struct NamedSeries<'a> {
    /// Curve label.
    pub name: &'a str,
    /// The sampled series.
    pub series: &'a TimeSeries,
}

/// Render footprint-over-time curves as an ASCII chart (Figure 5).
///
/// Each curve is down-sampled to `width` columns; rows are byte levels.
pub fn ascii_footprint_plot(curves: &[NamedSeries<'_>], width: usize, height: usize) -> String {
    let width = width.max(10);
    let height = height.max(5);
    let max_fp = curves
        .iter()
        .flat_map(|c| c.series.points.iter().map(|p| p.footprint))
        .max()
        .unwrap_or(1)
        .max(1);
    let max_ev = curves
        .iter()
        .flat_map(|c| c.series.points.iter().map(|p| p.event))
        .max()
        .unwrap_or(1)
        .max(1);

    let mut canvas = vec![vec![' '; width]; height];
    let marks = ['#', '*', '+', 'o', 'x'];
    for (ci, curve) in curves.iter().enumerate() {
        let mark = marks[ci % marks.len()];
        for p in &curve.series.points {
            let x = p.event * (width - 1) / max_ev;
            let y = p.footprint * (height - 1) / max_fp;
            let row = height - 1 - y;
            canvas[row][x] = mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("footprint (max {})\n", format_bytes_sci(max_fp)));
    for row in canvas {
        out.push('|');
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str("> events\n");
    for (ci, curve) in curves.iter().enumerate() {
        out.push_str(&format!(
            "  {} = {} (peak {})\n",
            marks[ci % marks.len()],
            curve.name,
            format_bytes_sci(curve.series.peak())
        ));
    }
    out
}

/// The paper's improvement sentence: "X improves Y by P%".
pub fn improvement_sentence(
    ours_name: &str,
    ours: usize,
    theirs_name: &str,
    theirs: usize,
) -> String {
    let p = dmm_core::metrics::percent_improvement(ours, theirs);
    format!(
        "{ours_name} ({}) improves memory footprint by {p:.1}% over {theirs_name} ({})",
        format_bytes_sci(ours),
        format_bytes_sci(theirs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_core::metrics::SeriesPoint;

    #[test]
    fn bytes_sci_matches_paper_style() {
        assert_eq!(format_bytes_sci(2_090_000), "2.09e6");
        assert_eq!(format_bytes_sci(148_000), "1.48e5");
        assert_eq!(format_bytes_sci(0), "0");
        assert_eq!(format_bytes_sci(1), "1.00e0");
    }

    #[test]
    fn table_renders_aligned_ascii_and_csv() {
        let mut t = Table::new(
            "Maximum memory footprint (Bytes)",
            vec!["manager".into(), "DRR".into(), "recon".into()],
        );
        t.push_row(
            "Kingsley",
            vec![Cell::Bytes(2_090_000), Cell::Bytes(2_260_000)],
        );
        t.push_row("ours", vec![Cell::Bytes(148_000), Cell::Missing]);
        let ascii = t.to_ascii();
        assert!(ascii.contains("2.09e6"));
        assert!(ascii.contains("manager"));
        assert!(ascii.lines().count() >= 5);
        let csv = t.to_csv();
        assert!(csv.starts_with("manager,DRR,recon"));
        assert!(csv.contains("2090000"));
        assert!(csv.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_row("x", vec![]);
    }

    #[test]
    fn plot_contains_both_curves() {
        let s1 = TimeSeries {
            sample_every: 1,
            points: (0..50)
                .map(|i| SeriesPoint {
                    event: i,
                    footprint: 100 + i * 10,
                    requested: 0,
                    live_block: 0,
                })
                .collect(),
        };
        let s2 = TimeSeries {
            sample_every: 1,
            points: (0..50)
                .map(|i| SeriesPoint {
                    event: i,
                    footprint: 600 - i * 5,
                    requested: 0,
                    live_block: 0,
                })
                .collect(),
        };
        let plot = ascii_footprint_plot(
            &[
                NamedSeries {
                    name: "Lea",
                    series: &s1,
                },
                NamedSeries {
                    name: "custom",
                    series: &s2,
                },
            ],
            60,
            16,
        );
        assert!(plot.contains('#'));
        assert!(plot.contains('*'));
        assert!(plot.contains("Lea"));
        assert!(plot.contains("custom"));
        assert!(plot.contains("> events"));
    }

    #[test]
    fn improvement_sentence_matches_paper_numbers() {
        let s = improvement_sentence("ours", 148_000, "Lea", 234_000);
        assert!(s.contains("36.8%"), "{s}");
    }
}
