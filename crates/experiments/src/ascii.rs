//! Minimal ASCII table / chart rendering for terminal reports.

/// Renders an aligned table: `header` then `rows`, columns padded to the
/// widest cell.
///
/// # Example
///
/// ```
/// let t = rta_experiments::ascii::table(
///     &["U", "FP-ideal"],
///     &[vec!["1.0".into(), "100.0".into()]],
/// );
/// assert!(t.contains("U   | FP-ideal"));
/// ```
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str(" | ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 3 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Renders one schedulability curve as a horizontal sparkline: one
/// character per point, `█` = 100%, `·` = 0%.
pub fn sparkline(percentages: &[f64]) -> String {
    const GLYPHS: [char; 9] = ['·', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    percentages
        .iter()
        .map(|&p| {
            let idx = ((p / 100.0) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["a", "bbb"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "a  | bbb");
        assert_eq!(lines[2], "xx | 1");
        assert_eq!(lines[3], "y  | 22");
    }

    #[test]
    fn sparkline_extremes() {
        assert_eq!(sparkline(&[0.0, 100.0]), "·█");
        assert_eq!(sparkline(&[50.0]).chars().count(), 1);
    }
}
