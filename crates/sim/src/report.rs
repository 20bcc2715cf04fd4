//! Plain-text tables and CSV output for experiment results.
//!
//! Every bench harness prints the same rows/series the paper reports and
//! drops a CSV next to it, so results can be re-plotted externally.

use std::io::Write;
use std::path::Path;

/// Renders a fixed-width ASCII table with a title line.
///
/// # Example
///
/// ```
/// use polystyrene_sim::report::render_table;
///
/// let s = render_table(
///     "Table II",
///     &["K", "Reshaping time", "Reliability (%)"],
///     &[vec!["2".into(), "5.00 ± 0.00".into(), "87.7".into()]],
/// );
/// assert!(s.contains("Table II"));
/// assert!(s.contains("Reshaping time"));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    out.push_str(&sep);
    out.push('\n');
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    " {:<width$} ",
                    c,
                    width = widths.get(i).copied().unwrap_or(0)
                )
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    out.push_str(&fmt_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Writes a CSV file: a header row, then one row per record.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file (including a
/// missing parent directory).
pub fn write_csv(
    path: impl AsRef<Path>,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

/// Formats a float series as CSV rows `(index, value...)` for multi-series
/// figures: one row per round, one column per labeled series.
pub fn series_rows(series: &[(&str, &[f64])]) -> (Vec<String>, Vec<Vec<String>>) {
    let headers: Vec<String> = std::iter::once("round".to_string())
        .chain(series.iter().map(|(label, _)| label.to_string()))
        .collect();
    let rounds = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut rows = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut row = vec![r.to_string()];
        for (_, s) in series {
            row.push(s.get(r).map(|v| format!("{v:.6}")).unwrap_or_default());
        }
        rows.push(row);
    }
    (headers, rows)
}

/// A crude terminal line plot of one or more series, good enough to see
/// the shape of Figs. 6 and 7 directly in `cargo bench` output.
pub fn ascii_plot(title: &str, series: &[(&str, &[f64])], height: usize, width: usize) -> String {
    let mut out = format!("{title}\n");
    let max = series
        .iter()
        .flat_map(|(_, s)| s.iter())
        .fold(0.0f64, |a, &b| a.max(b));
    let rounds = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    if max <= 0.0 || rounds == 0 || height == 0 || width == 0 {
        out.push_str("(empty)\n");
        return out;
    }
    let markers = ['*', '+', 'o', 'x', '#', '%'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        let marker = markers[si % markers.len()];
        for (i, &v) in s.iter().enumerate() {
            let col = i * (width - 1) / rounds.max(1);
            let row = if v.is_finite() {
                ((v / max) * (height - 1) as f64).round() as usize
            } else {
                height - 1
            };
            let row = (height - 1).saturating_sub(row.min(height - 1));
            grid[row][col.min(width - 1)] = marker;
        }
    }
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (label, _))| format!("{} {label}", markers[i % markers.len()]))
        .collect();
    out.push_str(&format!("  max={max:.3}  {}\n", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_content() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
        );
        assert!(t.contains("long-header"));
        assert!(t.contains("333333"));
        let lines: Vec<&str> = t.lines().collect();
        // title + sep + header + sep + 2 rows + sep
        assert_eq!(lines.len(), 7);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("polystyrene-report-test");
        let path = dir.join("out.csv");
        write_csv(
            &path,
            &["round", "value"],
            &[
                vec!["0".into(), "1.5".into()],
                vec!["1".into(), "2.5".into()],
            ],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "round,value\n0,1.5\n1,2.5\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn series_rows_pads_ragged_series() {
        let a = [1.0, 2.0, 3.0];
        let b = [9.0];
        let (headers, rows) = series_rows(&[("a", &a), ("b", &b)]);
        assert_eq!(headers, vec!["round", "a", "b"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2][2], ""); // missing b value at round 2
    }

    #[test]
    fn ascii_plot_renders_axes_and_legend() {
        let s1 = [0.0, 1.0, 2.0, 3.0];
        let s2 = [3.0, 2.0, 1.0, 0.0];
        let p = ascii_plot("shape", &[("up", &s1), ("down", &s2)], 5, 20);
        assert!(p.contains("shape"));
        assert!(p.contains("* up"));
        assert!(p.contains("+ down"));
        assert!(p.contains("max=3.000"));
    }

    #[test]
    fn ascii_plot_handles_empty() {
        let p = ascii_plot("e", &[("x", &[] as &[f64])], 4, 10);
        assert!(p.contains("(empty)"));
    }
}
