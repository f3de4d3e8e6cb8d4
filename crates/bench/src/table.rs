//! A minimal numeric table with CSV output — the interchange format between
//! the experiment functions and the `figures` binary.

use std::io::{self, Write};

/// A named table of `f64` rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Table identifier (used as the CSV file stem, e.g. `fig4b`).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; every row has `columns.len()` entries.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics if the width does not match.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {} in table {}",
            row.len(),
            self.columns.len(),
            self.name
        );
        self.rows.push(row);
    }

    /// The values of the named column.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// Writes the table as CSV.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{}", self.columns.join(","))?;
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            writeln!(w, "{}", line.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_column() {
        let mut t = Table::new("test", &["cycle", "sdm"]);
        t.push(vec![1.0, 100.0]);
        t.push(vec![2.0, 50.0]);
        assert_eq!(t.column("sdm"), Some(vec![100.0, 50.0]));
        assert_eq!(t.column("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("test", &["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("test", &["a", "b"]);
        t.push(vec![1.0, 2.5]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "a,b\n1,2.5\n");
    }
}
