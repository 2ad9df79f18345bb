//! Minimal fixed-width table rendering for the CLI and example reports.

use std::fmt::Write as _;

/// Renders a titled table: a rule, the title, the header, the rows.
///
/// # Examples
///
/// ```
/// use scanguard_harness::render_table;
///
/// let out = render_table("Table I", "W l", &["4 260".to_owned()]);
/// assert!(out.contains("Table I"));
/// assert!(out.contains("4 260"));
/// ```
#[must_use]
pub fn render_table(title: &str, header: &str, rows: &[String]) -> String {
    let width = header
        .len()
        .max(rows.iter().map(String::len).max().unwrap_or(0))
        .max(title.len());
    let mut out = String::new();
    let _ = writeln!(out, "{}", "=".repeat(width));
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "-".repeat(width));
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(width));
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    let _ = writeln!(out, "{}", "=".repeat(width));
    out
}

/// Renders and prints a table to stdout.
pub fn print_table(title: &str, header: &str, rows: &[String]) {
    print!("{}", render_table(title, header, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_parts() {
        let t = render_table("T", "h1 h2", &["a b".to_owned(), "c d".to_owned()]);
        assert!(t.contains("T\n"));
        assert!(t.contains("h1 h2"));
        assert!(t.contains("a b"));
        assert!(t.contains("c d"));
        assert!(t.starts_with('='));
    }

    #[test]
    fn width_tracks_longest_row() {
        let t = render_table("T", "h", &["a very considerably long row".to_owned()]);
        let rule_len = t.lines().next().unwrap().len();
        assert_eq!(rule_len, "a very considerably long row".len());
    }
}
