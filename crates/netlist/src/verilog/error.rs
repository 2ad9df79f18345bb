//! Located parse errors for the Verilog importer.

use std::fmt;

/// A structural-Verilog parse or elaboration error, located in the
/// source text.
///
/// `line` and `col` are 1-based. `snippet` is the full source line the
/// error points into (empty when the location is past the last line).
/// The [`fmt::Display`] rendering shows the message, the line, and a
/// caret marker:
///
/// ```text
/// verilog parse error at line 3, column 8: expected `;` after statement
///    3 | wire a wire b;
///      |        ^
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the error.
    pub line: usize,
    /// 1-based source column of the error.
    pub col: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The source line the error points into.
    pub snippet: String,
}

impl ParseError {
    /// Builds an error at `(line, col)` in `src`, capturing the source
    /// line as the snippet.
    pub(super) fn at(src: &str, line: usize, col: usize, message: String) -> Self {
        let snippet = src
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
            .to_owned();
        ParseError {
            line,
            col,
            message,
            snippet,
        }
    }
}

impl ParseError {
    /// Builds an error at byte offset `offset` of `src`: the line is one
    /// plus the number of `\n`s before it, the column one plus the bytes
    /// since the last of them (a tab or a multi-byte character counts
    /// one column per byte). An offset at or past the end of `src`
    /// points just after its last byte.
    pub(super) fn at_offset(src: &str, offset: usize, message: String) -> Self {
        let before = &src.as_bytes()[..offset.min(src.len())];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        ParseError::at(src, line, before.len() - line_start + 1, message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verilog parse error at line {}, column {}: {}",
            self.line, self.col, self.message
        )?;
        // Tab-free caret alignment: render tabs as single spaces.
        let shown: String = self
            .snippet
            .chars()
            .map(|c| if c == '\t' { ' ' } else { c })
            .collect();
        writeln!(f, "{:>5} | {}", self.line, shown)?;
        write!(f, "      |{:>width$}", "^", width = self.col + 1)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_location_and_caret() {
        let src = "module m (a);\nwire a wire b;\nendmodule\n";
        let e = ParseError::at(src, 2, 8, "expected `;` after statement".into());
        let text = e.to_string();
        assert!(text.contains("line 2, column 8"), "{text}");
        assert!(text.contains("wire a wire b;"), "{text}");
        let caret_line = text.lines().last().unwrap();
        // The snippet line prefix `    2 | ` is 8 chars; column 8
        // (1-based) lands at rendered index 8 + 7.
        assert_eq!(caret_line.find('^'), Some(8 + 7), "{text}");
    }

    #[test]
    fn offsets_map_to_lines_and_byte_columns() {
        let src = "ab\n\tc\u{e9}d\r\n\nx";
        let at = |offset| {
            let e = ParseError::at_offset(src, offset, String::new());
            (e.line, e.col)
        };
        assert_eq!(at(0), (1, 1));
        assert_eq!(at(2), (1, 3), "the newline itself ends its line");
        assert_eq!(at(3), (2, 1));
        assert_eq!(at(7), (2, 5), "the two-byte character spans columns 3-4");
        assert_eq!(at(8), (2, 6), "`\\r` is an ordinary column");
        assert_eq!(at(10), (3, 1));
        assert_eq!(at(src.len()), (4, 2));
        let e = ParseError::at_offset("x\n", 2, String::new());
        assert_eq!((e.line, e.col, e.snippet.as_str()), (2, 1, ""));
    }

    #[test]
    fn location_past_end_has_empty_snippet() {
        let e = ParseError::at("x", 9, 1, "unexpected end of input".into());
        assert_eq!(e.snippet, "");
        assert!(e.to_string().contains("line 9"));
    }
}
