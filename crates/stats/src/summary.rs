//! Lightweight tabular result formatting for the experiment harness.

/// A simple rectangular table of string cells with a header row, used to
/// print figure/table reproductions in both Markdown and CSV.
///
/// # Example
///
/// ```
/// use ahs_stats::{format_markdown, Table};
///
/// let mut t = Table::new(vec!["t (h)".into(), "S(t)".into()]);
/// t.push_row(vec!["2".into(), "1.3e-9".into()]).unwrap();
/// let md = format_markdown(&t);
/// assert!(md.contains("| t (h) | S(t) |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Error returned when a row's width does not match the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWidthError {
    expected: usize,
    actual: usize,
}

impl std::fmt::Display for RowWidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row has {} cells but the table header has {} columns",
            self.actual, self.expected
        )
    }
}

impl std::error::Error for RowWidthError {}

impl Table {
    /// Creates a table with the given header.
    ///
    /// # Panics
    ///
    /// Panics if the header is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "table header must not be empty");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`RowWidthError`] if the row width differs from the
    /// header width.
    pub fn push_row(&mut self, row: Vec<String>) -> Result<(), RowWidthError> {
        if row.len() != self.header.len() {
            return Err(RowWidthError {
                expected: self.header.len(),
                actual: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Header cells.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Renders a table as GitHub-flavoured Markdown.
pub fn format_markdown(table: &Table) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&table.header().join(" | "));
    out.push_str(" |\n|");
    for _ in table.header() {
        out.push_str("---|");
    }
    out.push('\n');
    for row in table.rows() {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Renders a table as CSV with minimal quoting (cells containing commas,
/// quotes, or newlines are quoted and inner quotes doubled).
pub fn format_csv(table: &Table) -> String {
    fn cell(s: &str) -> String {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    }
    let mut out = String::new();
    out.push_str(
        &table
            .header()
            .iter()
            .map(|c| cell(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in table.rows() {
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into(), "x,y".into()]).unwrap();
        t.push_row(vec!["2".into(), "he said \"hi\"".into()])
            .unwrap();
        t
    }

    #[test]
    fn markdown_shape() {
        let md = format_markdown(&sample());
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn csv_quoting() {
        let csv = format_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,\"x,y\"");
        assert_eq!(lines[2], "2,\"he said \"\"hi\"\"\"");
    }

    #[test]
    fn row_width_mismatch_is_error() {
        let mut t = Table::new(vec!["only".into()]);
        let err = t.push_row(vec!["a".into(), "b".into()]).unwrap_err();
        assert!(err.to_string().contains("2 cells"));
        assert!(t.is_empty());
    }
}
