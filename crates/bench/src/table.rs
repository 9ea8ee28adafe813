//! Small table-formatting helpers shared by the views.

use spread_trace::SimDuration;

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Speedup of `t` relative to `baseline`, formatted as `1.33x`.
pub fn speedup(baseline: SimDuration, t: SimDuration) -> String {
    format!("{:.2}x", baseline.as_secs_f64() / t.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = markdown_table(
            &["Impl", "Time"],
            &[
                vec!["One Buffer".into(), "13m15.486s".into()],
                vec!["Two".into(), "1s".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Impl"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[2].contains("One Buffer"));
    }

    #[test]
    fn speedup_format() {
        let b = SimDuration::from_secs(1060);
        let t = SimDuration::from_secs(502);
        assert_eq!(speedup(b, t), "2.11x");
    }
}
