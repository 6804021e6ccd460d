//! A minimal Rust token scanner.
//!
//! This is the same approach as the IDL lexer in `chic::lexer`, extended
//! to the Rust surface the rules need: it must never confuse a `.unwrap()`
//! inside a string literal or a comment with real code, and it must track
//! line numbers precisely so findings are clickable. It is *not* a parser;
//! rules work on the token stream plus a little bracket matching.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`.`, `:`, `(`, `#`, ...).
    Punct,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text. For `Str` this is the *body* of the literal (quotes and
    /// raw-string hashes stripped) so rules can read what it names (lock
    /// names, metric names, flight-event kinds).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A comment with its starting line. Line comments keep their full text
/// (without the `//`); block comments are flattened to one entry.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text without the delimiters.
    pub text: String,
}

/// The scan result: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Scan {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Scans Rust source. Never fails: unrecognised bytes are skipped (the
/// compiler is the authority on validity; the linter only needs to keep
/// its token stream aligned).
pub fn scan(src: &str) -> Scan {
    let bytes = src.as_bytes();
    let mut out = Scan::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances past `n` bytes, counting newlines.
    macro_rules! advance {
        ($n:expr) => {{
            let end = (i + $n).min(bytes.len());
            for &b in &bytes[i..end] {
                if b == b'\n' {
                    line += 1;
                }
            }
            i = end;
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' | b' ' | b'\t' | b'\r' => advance!(1),
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start_line = line;
                let mut j = i + 2;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: src[i + 2..j].to_owned(),
                });
                advance!(j - i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let body_end = j.saturating_sub(2).max(i + 2);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[i + 2..body_end].to_owned(),
                });
                advance!(j - i);
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let start_line = line;
                let (body, len) = scan_raw_string(src, i);
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text: body,
                    line: start_line,
                });
                advance!(len);
            }
            b'"' => {
                let start_line = line;
                let len = scan_string(bytes, i);
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text: src[i + 1..(i + len).saturating_sub(1).max(i + 1)].to_owned(),
                    line: start_line,
                });
                advance!(len);
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let start_line = line;
                let len = 1 + scan_string(bytes, i + 1);
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text: src[i + 2..(i + len).saturating_sub(1).max(i + 2)].to_owned(),
                    line: start_line,
                });
                advance!(len);
            }
            b'\'' => {
                // Lifetime or char literal.
                let start_line = line;
                if is_lifetime(bytes, i) {
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_owned(),
                        line: start_line,
                    });
                    advance!(j - i);
                } else {
                    let len = scan_char(bytes, i);
                    out.tokens.push(Tok {
                        kind: TokKind::Char,
                        text: src[i..i + len].to_owned(),
                        line: start_line,
                    });
                    advance!(len);
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start_line = line;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_owned(),
                    line: start_line,
                });
                advance!(j - i);
            }
            b if b.is_ascii_digit() => {
                let start_line = line;
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'.')
                {
                    // A dot only continues the number when a digit follows:
                    // `1.5` yes; `1..2` ranges and `self.0.field` tuple
                    // access (method calls on a tuple field!) stop at it.
                    if bytes[j] == b'.'
                        && !bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit())
                    {
                        break;
                    }
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Num,
                    text: src[i..j].to_owned(),
                    line: start_line,
                });
                advance!(j - i);
            }
            _ => {
                if b.is_ascii() {
                    out.tokens.push(Tok {
                        kind: TokKind::Punct,
                        text: (b as char).to_string(),
                        line,
                    });
                }
                advance!(1);
            }
        }
    }
    out
}

fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    // 'x' is a char literal; 'x (no closing quote right after) a lifetime.
    match bytes.get(i + 1) {
        Some(c) if c.is_ascii_alphabetic() || *c == b'_' => bytes.get(i + 2) != Some(&b'\''),
        _ => false,
    }
}

fn scan_char(bytes: &[u8], i: usize) -> usize {
    // Opening quote consumed by caller logic; find the closing quote,
    // honouring a single backslash escape.
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'\\') {
        j += 2;
    } else {
        j += 1;
    }
    while j < bytes.len() && bytes[j] != b'\'' {
        j += 1; // multi-byte chars / unicode escapes
    }
    j + 1 - i
}

fn scan_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1 - i,
            _ => j += 1,
        }
    }
    bytes.len() - i
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn scan_raw_string(src: &str, i: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let body_start = j;
    let closer: Vec<u8> = {
        let mut c = vec![b'"'];
        c.extend(std::iter::repeat_n(b'#', hashes));
        c
    };
    while j < bytes.len() {
        if bytes[j] == b'"' && bytes[j..].starts_with(&closer) {
            return (src[body_start..j].to_owned(), j + closer.len() - i);
        }
        j += 1;
    }
    (src[body_start..].to_owned(), bytes.len() - i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r#"
            // x.unwrap() in a comment
            let s = "y.unwrap() in a string";
            /* block .unwrap() */
            real.unwrap();
        "#;
        let scan = scan(src);
        let unwraps = scan
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == "unwrap")
            .count();
        assert_eq!(unwraps, 1, "only the real call site is a token");
        assert_eq!(scan.comments.len(), 2);
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let src = r###"let t = r#"contains "quotes" and thread::sleep"#; after();"###;
        assert!(idents(src).contains(&"after".to_owned()));
        let threads = idents(src).iter().filter(|s| *s == "thread").count();
        assert_eq!(threads, 0, "raw string body is not code");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; }";
        let scan = scan(src);
        assert!(scan
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(scan
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "'x'"));
    }

    #[test]
    fn lines_are_tracked() {
        let src = "a\nb\n  c";
        let scan = scan(src);
        let lines: Vec<u32> = scan.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still */ code";
        let scan = scan(src);
        assert_eq!(scan.tokens.len(), 1);
        assert_eq!(scan.tokens[0].text, "code");
    }

    #[test]
    fn tuple_field_access_does_not_swallow_the_method_chain() {
        // `self.0.idle.notify_all()` — the `0` is a tuple index, not the
        // start of a float; the idents after it must survive as tokens.
        let toks = scan("self.0.idle.notify_all();").tokens;
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["self", ".", "0", ".", "idle", ".", "notify_all", "(", ")", ";"]
        );
        assert_eq!(toks[2].kind, TokKind::Num);
        assert_eq!(toks[4].kind, TokKind::Ident);
    }

    #[test]
    fn numeric_literal_shapes_still_lex_whole() {
        for (src, want) in [
            ("1.5", "1.5"),
            ("1_000", "1_000"),
            ("0x1F", "0x1F"),
            ("1.0f64", "1.0f64"),
            ("2.5e3", "2.5e3"),
        ] {
            let toks = scan(src).tokens;
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].text, want);
            assert_eq!(toks[0].kind, TokKind::Num);
        }
        // Ranges split at the double dot.
        let texts: Vec<String> = scan("1..2").tokens.into_iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["1", ".", ".", "2"]);
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let src = r#"let s = "with \" escape"; next"#;
        assert!(idents(src).contains(&"next".to_owned()));
    }
}
