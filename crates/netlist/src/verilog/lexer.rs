//! Zero-copy tokenizer for structural Verilog.
//!
//! Produces identifier / number / symbol tokens, each carrying the byte
//! span of its text in the source. Positions are byte offsets: a
//! 1-based line/column is computed only when an error is reported (see
//! [`ParseError::at_offset`]), so the hot loop never counts lines.
//! Comments (`//` and `/* */`) and compiler directives (`` ` `` to end
//! of line) are skipped. Escaped identifiers (`\name `) are a token
//! kind of their own — the importer uses it to tell a real name that
//! *looks* like an anonymous-id pattern from the pattern itself.

use super::error::ParseError;

/// One token: its kind and the byte span `start..end` of its source
/// text (for an escaped identifier the span includes the backslash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Tok {
    pub kind: TokKind,
    pub start: u32,
    pub end: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TokKind {
    /// A simple identifier.
    Ident,
    /// An escaped identifier (`\name `); its text drops the leading
    /// backslash and the span stops before the terminating whitespace.
    Escaped,
    /// A literal number, kept raw (e.g. `1'b0`, `42`).
    Number,
    /// A single punctuation character.
    Sym(u8),
    /// End of input.
    Eof,
}

impl Tok {
    /// The token's text: the identifier's name (without an escaped
    /// identifier's backslash), the literal, or the symbol.
    pub fn text(self, src: &str) -> &str {
        let start = self.start as usize + usize::from(self.kind == TokKind::Escaped);
        &src[start..self.end as usize]
    }

    /// A short human-readable description for error messages.
    pub fn describe(self, src: &str) -> String {
        match self.kind {
            TokKind::Eof => "end of input".to_owned(),
            _ => format!("`{}`", self.text(src)),
        }
    }
}

/// Tokenizes `src` in one pass.
///
/// # Errors
///
/// Returns a located [`ParseError`] for unterminated block comments,
/// bare backslashes, characters outside the structural subset, and
/// sources too long for 32-bit offsets.
pub(super) fn tokenize(src: &str) -> Result<Vec<Tok>, ParseError> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    if u32::try_from(n).is_err() {
        return Err(ParseError::at(src, 1, 1, "source exceeds 4 GiB".into()));
    }
    let mut toks = Vec::new();
    let mut i = 0usize;
    let ident_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'$';
    let tok = |kind, start: usize, end: usize| Tok {
        kind,
        start: start as u32,
        end: end as u32,
    };

    while i < n {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => i = line_end(bytes, i),
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= n {
                        return Err(ParseError::at_offset(
                            src,
                            start,
                            "unterminated block comment".into(),
                        ));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            // Compiler directive (`timescale, `define...): skip the line.
            b'`' => i = line_end(bytes, i),
            b'\\' => {
                // Escaped identifier: backslash to next whitespace.
                let start = i;
                i += 1;
                while i < n && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i == start + 1 {
                    return Err(ParseError::at_offset(
                        src,
                        start,
                        "escaped identifier `\\` must be followed by a name".into(),
                    ));
                }
                toks.push(tok(TokKind::Escaped, start, i));
            }
            b'0'..=b'9' => {
                let start = i;
                // Number with optional based literal: digits ['\'' base digits].
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < n && bytes[i] == b'\'' {
                    i += 1;
                    if i < n && bytes[i].is_ascii_alphabetic() {
                        i += 1;
                    }
                    while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                        i += 1;
                    }
                }
                toks.push(tok(TokKind::Number, start, i));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let start = i;
                while i < n && ident_byte(bytes[i]) {
                    i += 1;
                }
                toks.push(tok(TokKind::Ident, start, i));
            }
            b'(' | b')' | b';' | b',' | b'.' | b'=' | b'~' | b'&' | b'|' | b'^' | b'?' | b':'
            | b'[' | b']' | b'#' | b'{' | b'}' | b'*' | b'/' | b'@' | b'<' | b'>' | b'+' | b'-' => {
                toks.push(tok(TokKind::Sym(c), i, i + 1));
                i += 1;
            }
            _ => {
                return Err(ParseError::at_offset(
                    src,
                    i,
                    format!("unexpected character `{}`", c as char),
                ));
            }
        }
    }
    toks.push(tok(TokKind::Eof, n, n));
    Ok(toks)
}

/// The offset of the `\n` ending the line that holds `i` (or the end of
/// input).
fn line_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| i + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn tokens_are_small() {
        assert!(std::mem::size_of::<Tok>() <= 16);
    }

    #[test]
    fn lexes_idents_numbers_symbols() {
        let k = kinds("module m (a); assign y = 1'b0; endmodule");
        assert!(k.contains(&(TokKind::Ident, "module")));
        assert!(k.contains(&(TokKind::Number, "1'b0")));
        assert!(k.contains(&(TokKind::Sym(b';'), ";")));
        assert_eq!(k.last().unwrap().0, TokKind::Eof);
    }

    #[test]
    fn escaped_identifier_keeps_flag_and_strips_backslash() {
        let k = kinds("wire \\d[0] ;");
        assert!(k.contains(&(TokKind::Escaped, "d[0]")));
    }

    #[test]
    fn comments_and_directives_are_skipped() {
        let k = kinds("// header\n`timescale 1ns/1ps\n/* block\ncomment */ wire a;");
        assert_eq!(
            k,
            vec![
                (TokKind::Ident, "wire"),
                (TokKind::Ident, "a"),
                (TokKind::Sym(b';'), ";"),
                (TokKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn tracks_line_and_column() {
        let src = "wire a;\n  wire b;";
        let toks = tokenize(src).unwrap();
        let b = toks.iter().find(|t| t.text(src) == "b").unwrap();
        let e = ParseError::at_offset(src, b.start as usize, String::new());
        assert_eq!((e.line, e.col), (2, 8));
    }

    #[test]
    fn unterminated_block_comment_is_located() {
        let e = tokenize("wire a;\n/* oops").unwrap_err();
        assert_eq!((e.line, e.col), (2, 1));
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn stray_character_is_located() {
        let e = tokenize("wire a%;").unwrap_err();
        assert_eq!((e.line, e.col), (1, 7));
    }
}
