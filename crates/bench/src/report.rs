//! Text tables and CSV output for the experiment harness.

use std::fs;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Where experiment CSVs are written.
#[cfg(not(test))]
pub fn results_dir() -> PathBuf {
    std::env::var_os("STEM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Unit tests run the experiments from inside the source tree; their
/// reduced-size output goes to the temp dir, never into it. One fixed
/// directory, so repeated runs overwrite rather than accumulate; the
/// writes are atomic, so concurrent runs cannot tear a file.
#[cfg(test)]
pub fn results_dir() -> PathBuf {
    std::env::temp_dir().join("stem-bench-unit-results")
}

/// Writes `contents` to `results_dir()/name`, creating the directory.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    write_result_in(&results_dir(), name, contents)
}

/// Writes `contents` to `dir/name`, creating the directory. The write
/// is atomic (tmp + fsync + rename), so a crash mid-bench never leaves
/// a torn committed result behind.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_result_in(dir: &Path, name: &str, contents: &str) -> PathBuf {
    let storage = stem_storage::RealFs;
    stem_storage::Storage::create_dir_all(&storage, dir).expect("create results directory");
    let path = dir.join(name);
    stem_storage::write_atomic(&storage, &path, contents).expect("write result file");
    path
}

/// Formats a float compactly (3 significant decimals for small numbers,
/// fewer for large ones).
pub fn fnum(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Reads back a result file (used by tests).
pub fn read_result(path: &Path) -> String {
    fs::read_to_string(path).expect("read result file")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["method", "error"]);
        t.row(vec!["STEM".to_string(), "0.36".to_string()]);
        t.row(vec!["Random".to_string(), "28.39".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("method"));
        assert!(lines[2].ends_with("0.36"));
    }

    #[test]
    fn csv_roundtrip_via_profile_crate() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".to_string(), "2".to_string()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.3612), "0.361");
        assert_eq!(fnum(31.719), "31.72");
        assert_eq!(fnum(31719.0), "31719");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_rejected() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".to_string(), "2".to_string()]);
    }

    #[test]
    fn write_and_read_result() {
        let dir = std::env::temp_dir().join("stem_report_test");
        let path = write_result_in(&dir, "t.csv", "a\n1\n");
        let back = read_result(&path);
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
