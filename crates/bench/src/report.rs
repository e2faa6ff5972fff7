//! Report tables: what the harness prints (a markdown pipe table) and
//! saves as CSV.

use std::fmt::Write as _;
use std::path::Path;

/// One experiment's output table.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `"e3"`.
    pub id: String,
    /// Human title, e.g. the claim being reproduced.
    pub title: String,
    /// Free-form notes printed under the title.
    pub notes: Vec<String>,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            notes: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Appends `held` if `ok`, else `WARNING: ` + `failed` — how an
    /// experiment reports a check that depends on timing or scale, where
    /// a miss is a finding to read, not a bug to abort on.
    pub fn verdict(&mut self, ok: bool, held: &str, failed: &str) {
        self.note(if ok {
            held.to_string()
        } else {
            format!("WARNING: {failed}")
        });
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the title, the notes and the table as a padded GitHub pipe
    /// table: aligned in a terminal, and valid markdown as it stands.
    /// Columns whose every cell starts with a digit are right-aligned.
    pub fn render(&self) -> String {
        let width = |s: &String| s.chars().count();
        // Three dashes are the narrowest rule every markdown renderer takes.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| width(h).max(3)).collect();
        let mut numeric = vec![!self.rows.is_empty(); widths.len()];
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
                numeric[i] &= cell.starts_with(|c: char| c.is_ascii_digit() || c == '-');
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id.to_uppercase(), self.title);
        for note in &self.notes {
            let _ = writeln!(out, "   {note}");
        }
        out.push('\n');
        let rule: Vec<String> = (0..widths.len())
            .map(|i| "-".repeat(widths[i] - 1) + if numeric[i] { ":" } else { "-" })
            .collect();
        for cells in [&self.headers, &rule].into_iter().chain(&self.rows) {
            for (i, cell) in cells.iter().enumerate() {
                let w = widths[i];
                let _ = if numeric[i] {
                    write!(out, "| {cell:>w$} ")
                } else {
                    write!(out, "| {cell:<w$} ")
                };
            }
            out.push_str("|\n");
        }
        out
    }

    /// Renders CSV (headers + rows).
    fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// Formats nanoseconds as adaptive-precision milliseconds.
pub fn fmt_ms(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Formats `queries` answered in `elapsed_ns` as thousands per second
/// (two decimals below 10 kq/s, where scan-bound cells live).
pub fn fmt_kqps(queries: u64, elapsed_ns: u64) -> String {
    let kqps = queries as f64 / elapsed_ns.max(1) as f64 * 1e6;
    if kqps < 10.0 {
        format!("{kqps:.2}")
    } else {
        format!("{kqps:.1}")
    }
}

/// Formats nanoseconds as microseconds.
pub fn fmt_us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

/// Formats a speedup factor.
pub fn fmt_x(f: f64) -> String {
    format!("{f:.2}x")
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("e0", "sample", &["name", "value"]);
        r.note("a note");
        r.row(vec!["foo".into(), "1".into()]);
        r.row(vec!["barbaz".into(), "22".into()]);
        r
    }

    #[test]
    fn render_is_a_padded_pipe_table() {
        let text = sample().render();
        assert!(text.contains("E0 — sample"));
        assert!(text.contains("a note"));
        let table: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(
            table,
            [
                "| name   | value |",
                "| ------ | ----: |",
                "| foo    |     1 |",
                "| barbaz |    22 |",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut r = Report::new("x", "t", &["a", "b"]);
        r.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut r = Report::new("x", "t", &["a"]);
        r.row(vec!["has,comma".into()]);
        let csv = r.to_csv();
        assert!(csv.contains("\"has,comma\""));
    }

    #[test]
    fn write_csv_to_tempdir() {
        let dir = std::env::temp_dir().join("ads_report_test");
        sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("e0.csv")).unwrap();
        assert!(content.starts_with("name,value"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(2_500_000), "2.50");
        assert_eq!(fmt_ms(250_000_000), "250");
        assert_eq!(fmt_ms(250_000), "0.2500");
        assert_eq!(fmt_kqps(30, 2_000_000), "15.0");
        assert_eq!(fmt_kqps(3, 2_000_000), "1.50");
        assert_eq!(fmt_us(1500.0), "1.5");
        assert_eq!(fmt_x(1.4), "1.40x");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }
}
