//! Plain-text tables: every experiment renders one, in the same
//! rows/series layout as the paper's figures.

use core::fmt;

/// A rendered experiment result.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Experiment id from README § Experiment index (e.g. "FIG4").
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers; the first column is the x-axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            id,
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the column count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Column index by header name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Numeric values of one column (skips unparsable cells).
    pub fn numeric_column(&self, name: &str) -> Vec<f64> {
        let Some(idx) = self.column_index(name) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|r| r[idx].parse().ok())
            .collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fixed-width text rendering for terminals.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{} — {}", self.id, self.title)?;
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(f, "  {}", header.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "  {}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a float with one decimal, the precision the paper's figures use.
pub fn fmt1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "FIG4",
            "NME vs N",
            vec!["N".into(), "RCV (ours)".into(), "Maekawa".into()],
        );
        t.push_row(vec!["5".into(), "4.2".into(), "9.1".into()]);
        t.push_row(vec!["10".into(), "6.0".into(), "12.4".into()]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.contains("| N | RCV (ours) | Maekawa |"));
        assert!(md.contains("| 5 | 4.2 | 9.1 |"));
        assert!(md.starts_with("### FIG4"));
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "N,RCV (ours),Maekawa");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn numeric_column_parses() {
        let t = sample();
        assert_eq!(t.numeric_column("RCV (ours)"), vec![4.2, 6.0]);
        assert!(t.numeric_column("nonexistent").is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        sample().push_row(vec!["1".into()]);
    }

    #[test]
    fn display_renders_fixed_width() {
        let text = format!("{}", sample());
        assert!(text.contains("FIG4 — NME vs N"));
        assert!(text.lines().count() >= 4);
    }
}
