//! Plain-text table and series formatting shared by the bench harness,
//! and the JSON string escaper shared by every JSON writer.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with fixed precision, using `-` for `None`.
pub fn opt_f(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "-".to_string(),
    }
}

/// Formats a numeric series as `idx<TAB>value` lines (figure data).
pub fn series(name: &str, values: &[f64]) -> String {
    let mut out = format!("# {name}\n");
    for (i, v) in values.iter().enumerate() {
        out.push_str(&format!("{i}\t{v:.6}\n"));
    }
    out
}

/// Summary statistics of a sample: (mean, standard deviation, median,
/// 90th percentile).
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn stats(sample: &[f64]) -> (f64, f64, f64, f64) {
    assert!(!sample.is_empty(), "stats of an empty sample");
    let n = sample.len() as f64;
    let mean = sample.iter().sum::<f64>() / n;
    let var = sample.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let quantile = |q: f64| -> f64 {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    };
    (mean, var.sqrt(), quantile(0.5), quantile(0.9))
}

/// A quoted JSON string literal for `s`: quotes, backslashes and control
/// characters are escaped. Shared by the orchestrator run report, the
/// `pbserve` events and the `pbeval` report.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a-much-longer-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("a-much-longer-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn stats_are_correct() {
        let (mean, std, median, p90) = stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((mean - 3.0).abs() < 1e-12);
        assert!((median - 3.0).abs() < 1e-12);
        assert!((std - (2.0f64).sqrt()).abs() < 1e-12);
        assert!((p90 - 4.6).abs() < 1e-12);
    }

    #[test]
    fn series_format() {
        let s = series("ipc", &[0.5, 0.75]);
        assert!(s.starts_with("# ipc\n0\t0.500000\n"));
    }

    #[test]
    fn opt_f_formats() {
        assert_eq!(opt_f(Some(0.1234), 2), "0.12");
        assert_eq!(opt_f(None, 2), "-");
    }
}
