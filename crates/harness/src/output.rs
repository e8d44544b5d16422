//! Figure/table data containers and CSV/JSON emission.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// One plotted line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Series {
    pub label: String,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }
}

/// A reproducible figure: id, axes, series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Figure {
    pub id: String,
    pub title: String,
    pub xlabel: String,
    pub ylabel: String,
    pub series: Vec<Series>,
}

impl Figure {
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
        }
    }

    /// CSV rendering: `x, <series 1>, <series 2>, …` on the union of x
    /// values (missing points are empty cells).
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.x.iter().copied())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        let mut out = String::new();
        let _ = write!(out, "{}", self.xlabel.replace(',', ";"));
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        out.push('\n');
        for &x in &xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.x.iter().position(|&v| v == x) {
                    Some(i) => {
                        let _ = write!(out, ",{:.6}", s.y[i]);
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A plain table (Table 1, summary tables).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Fixed-width text rendering for the terminal.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                let _ = write!(line, "{c:>w$}  ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Write a string artefact under `dir`.
pub fn write_artifact(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

/// Serialise any serde value as pretty JSON next to the CSV.
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    let text = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    write_artifact(dir, name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_csv_unions_x() {
        let mut f = Figure::new("t", "t", "x", "y");
        let mut s1 = Series::new("a");
        s1.push(1.0, 10.0);
        s1.push(2.0, 20.0);
        let mut s2 = Series::new("b");
        s2.push(2.0, 5.0);
        f.series.push(s1);
        f.series.push(s2);
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10.000000,");
        assert_eq!(lines[2], "2,20.000000,5.000000");
    }

    #[test]
    fn table_text_aligns() {
        let t = Table {
            id: "x".into(),
            title: "demo".into(),
            headers: vec!["a".into(), "bbbb".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        let text = t.to_text();
        assert!(text.contains("demo"));
        assert!(text.contains("bbbb"));
        assert_eq!(t.to_csv(), "a,bbbb\n1,2\n");
    }
}
