//! A minimal plain-text table used by the experiment harness.

use std::fmt;

/// A titled table of rows rendered as aligned plain text (what the `experiments`
/// binary prints).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. "E4: consensus rounds vs f").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row must have as many cells as there are headers.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header count"
        );
        self.rows.push(cells);
    }

    /// Column widths needed to align the table.
    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let widths = self.widths();
        let render = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", render(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", render(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut table = Table::new("demo", &["n", "rounds"]);
        table.push_row(vec!["4".into(), "7".into()]);
        table.push_row(vec!["100".into(), "12".into()]);
        let text = table.to_string();
        assert!(text.contains("## demo"));
        assert!(text.contains("n    rounds"));
        assert!(text.contains("100  12"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.push_row(vec!["1".into()]);
    }
}
