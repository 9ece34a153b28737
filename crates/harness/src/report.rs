//! Paper-style observation tables: rows of `obs/100k` counts across chips
//! (the format of Figs. 1–11) or across incantation columns (Tab. 6).

use std::fmt;

/// A simple text table with a label column followed by data columns.
#[derive(Clone, Debug, Default)]
pub struct ObsTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl ObsTable {
    /// Creates a table with the given title and data-column headers.
    pub fn new(title: impl Into<String>, columns: impl IntoIterator<Item = String>) -> Self {
        ObsTable {
            title: title.into(),
            columns: columns.into_iter().collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row: counts, or preformatted cells such as `n/a`.
    pub fn row(
        &mut self,
        label: impl Into<String>,
        values: impl IntoIterator<Item = impl fmt::Display>,
    ) {
        self.rows.push((
            label.into(),
            values.into_iter().map(|v| v.to_string()).collect(),
        ));
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The cell at `(row, col)` as text, if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|(_, v)| v.get(col))
            .map(String::as_str)
    }
}

impl fmt::Display for ObsTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([self.title.len()])
            .max()
            .unwrap_or(0)
            .max(8);
        let col_w: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .filter_map(|(_, v)| v.get(i).map(String::len))
                    .chain([c.len()])
                    .max()
                    .unwrap_or(6)
                    .max(6)
            })
            .collect();

        write!(f, "{:<label_w$}", self.title)?;
        for (c, w) in self.columns.iter().zip(&col_w) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        let total: usize = label_w + col_w.iter().map(|w| w + 2).sum::<usize>();
        writeln!(f, "{}", "-".repeat(total))?;
        for (label, values) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for (i, w) in col_w.iter().enumerate() {
                let empty = String::new();
                let v = values.get(i).unwrap_or(&empty);
                write!(f, "  {v:>w$}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = ObsTable::new("obs/100k", ["GTX5", "TesC"].map(String::from));
        t.row("no-op", [4979, 10581]);
        t.row("membar.gl", [0, 187]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("GTX5") && lines[0].contains("TesC"));
        assert!(lines[2].contains("4979") && lines[2].contains("10581"));
        assert!(lines[3].starts_with("membar.gl"));
        // Columns right-aligned: all lines same length.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn text_rows_for_na_cells() {
        let mut t = ObsTable::new("obs/100k", ["HD6570".to_string()]);
        t.row("dlb-lb", ["n/a"]);
        assert_eq!(t.cell(0, 0), Some("n/a"));
        assert!(t.to_string().contains("n/a"));
    }

    #[test]
    fn cell_lookup() {
        let mut t = ObsTable::new("t", ["a".to_string(), "b".to_string()]);
        t.row("r", [1, 2]);
        assert_eq!(t.cell(0, 1), Some("2"));
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(t.num_rows(), 1);
    }
}
