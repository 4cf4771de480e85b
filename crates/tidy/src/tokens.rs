//! The one Rust lexer in `stem-tidy`.
//!
//! Produces a flat token stream over the entire file: identifiers,
//! single-character punctuation, literals, delimiters, lifetimes and
//! comments, each tagged with its 1-based source line and its byte span.
//! Every non-whitespace byte belongs to exactly one token, so two views
//! derive from the one stream: the item parser (`parse`) reads the code
//! tokens (comments and lifetimes filtered out, string/char literal
//! bodies collapsed into one `Lit`), and the per-line rules read the
//! `lines` view rebuilt from the spans. Both decide what is test code with
//! the same rule, [`test_item_end`].
//!
//! It is deliberately not a full Rust lexer — multi-character operators
//! arrive as adjacent single `Punct` tokens and the parser matches the
//! sequences it cares about (`::`, `->`, `+=`). That keeps this file small
//! enough to audit while staying robust on every construct the workspace
//! actually uses, including nested block comments, raw strings with hash
//! runs, byte strings, raw identifiers and lifetimes.

use std::ops::Range;

/// Token kind. Delimiters are split out so the parser can do cheap
/// balanced-region skips without re-inspecting punct characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers arrive without the `r#`).
    Ident,
    /// Any literal: string, raw string, byte string, char, number.
    Lit,
    /// One punctuation character (`:`, `=`, `+`, `.`, …).
    Punct(char),
    /// `(`, `[` or `{`.
    Open(char),
    /// `)`, `]` or `}`.
    Close(char),
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// A line, block or doc comment.
    Comment,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text; empty for every other kind.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
    /// Byte range of the token in the source, prefixes and quotes included.
    pub span: Range<usize>,
}

impl Tok {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// False for comments and lifetimes, which the item parser never sees.
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokKind::Comment | TokKind::Lifetime)
    }
}

/// Tokenize a whole source file. Never fails: unterminated literals and
/// comments simply run to end of input. The stream is best-effort by
/// design — the semantic pass is a lint, not a compiler.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let (offsets, chars): (Vec<usize>, Vec<char>) = src.char_indices().unzip();
    let byte = |i: usize| offsets.get(i).copied().unwrap_or(src.len());
    let mut toks: Vec<Tok> = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;

    while i < chars.len() {
        let (c, next) = (chars[i], chars.get(i + 1).copied());
        let (start, start_line) = (i, line);
        let mut text = String::new();
        let kind = match c {
            c if c.is_whitespace() => {
                line += u32::from(c == '\n');
                i += 1;
                continue;
            }
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                TokKind::Comment
            }
            '/' if next == Some('*') => {
                let mut depth = 1u32;
                i += 2;
                while i < chars.len() && depth > 0 {
                    match (chars[i], chars.get(i + 1).copied()) {
                        ('\n', _) => line += 1,
                        ('/', Some('*')) => {
                            depth += 1;
                            i += 1;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            i += 1;
                        }
                        _ => {}
                    }
                    i += 1;
                }
                TokKind::Comment
            }
            'r' | 'b' if raw_string_hashes(&chars, i).is_some() => {
                let (hashes, prefix) = raw_string_hashes(&chars, i).expect("checked");
                i += prefix; // lands just past the opening quote
                while i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                    } else if chars[i] == '"' && run_of(&chars, i + 1, '#') >= hashes {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
                TokKind::Lit
            }
            'b' if next == Some('"') => {
                i = consume_string(&chars, i + 2, &mut line);
                TokKind::Lit
            }
            'b' if next == Some('\'') => {
                i = consume_char_lit(&chars, i + 2);
                TokKind::Lit
            }
            '"' => {
                i = consume_string(&chars, i + 1, &mut line);
                TokKind::Lit
            }
            '\'' if is_char_literal(&chars, i) => {
                i = consume_char_lit(&chars, i + 1);
                TokKind::Lit
            }
            '\'' => {
                i = take_ident(&chars, i + 1).1;
                TokKind::Lifetime
            }
            'r' if next == Some('#') && chars.get(i + 2).is_some_and(|&c| is_ident_start(c)) => {
                // Raw identifier `r#type`: token text drops the prefix.
                (text, i) = take_ident(&chars, i + 2);
                TokKind::Ident
            }
            c if is_ident_start(c) => {
                (text, i) = take_ident(&chars, i);
                TokKind::Ident
            }
            c if c.is_ascii_digit() => {
                i = consume_number(&chars, i);
                TokKind::Lit
            }
            '(' | '[' | '{' => {
                i += 1;
                TokKind::Open(c)
            }
            ')' | ']' | '}' => {
                i += 1;
                TokKind::Close(c)
            }
            c => {
                i += 1;
                TokKind::Punct(c)
            }
        };
        toks.push(Tok { kind, text, line: start_line, span: byte(start)..byte(i) });
    }
    toks
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn take_ident(chars: &[char], start: usize) -> (String, usize) {
    let mut end = start;
    while end < chars.len() && is_ident_char(chars[end]) {
        end += 1;
    }
    (chars[start..end].iter().collect(), end)
}

/// Length of the run of `c` starting at `i`.
fn run_of(chars: &[char], i: usize, c: char) -> usize {
    chars[i.min(chars.len())..].iter().take_while(|&&x| x == c).count()
}

/// If position `i` opens a raw (byte) string, return `(hash_count,
/// chars_from_i_to_just_past_the_opening_quote)`.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let prefix = match (chars[i], chars.get(i + 1).copied()) {
        ('r', _) => 1,
        ('b', Some('r')) => 2,
        _ => return None,
    };
    let hashes = run_of(chars, i + prefix, '#');
    (chars.get(i + prefix + hashes) == Some(&'"')).then_some((hashes, prefix + hashes + 1))
}

/// Consume a (byte) string body starting just past the opening quote;
/// returns the index just past the closing quote.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1; // escaped-newline continuation
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Consume a char-literal body starting just past the opening quote.
fn consume_char_lit(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => return i, // malformed; don't eat the newline
            _ => i += 1,
        }
    }
    i
}

/// `'x'` / `'\n'` are char literals, `'static` is a lifetime.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Consume a numeric literal (ints, floats, exponents, suffixes, radix
/// prefixes). `.` is only part of the number when followed by a digit, so
/// `0..n` and `1.max(x)` tokenize correctly.
fn consume_number(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        let c = chars[i];
        if is_ident_char(c) {
            // Exponent sign: `1e-3` / `2.5E+8`.
            if (c == 'e' || c == 'E')
                && matches!(chars.get(i + 1), Some('+') | Some('-'))
                && chars.get(i + 2).is_some_and(|d| d.is_ascii_digit())
            {
                i += 2;
            }
            i += 1;
        } else if c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Index just past the region opened by the delimiter at `open_idx`
/// (which must be `Open(_)`). Counts nested delimiters of every flavour
/// together, which is sound for well-formed code.
pub fn skip_balanced(toks: &[Tok], open_idx: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open_idx;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Where an item ends, as found by [`seek_body_or_semi`].
#[derive(Debug)]
pub enum Body {
    /// Index of the `{` that opens the item body.
    Braced(usize),
    /// Index just past the `;` that ends a body-less item.
    Semi(usize),
}

/// From `start`, find the item's `{` body or terminating `;`, skipping
/// balanced `()`/`[]`/`<>` regions (generics, where-clause bounds).
pub fn seek_body_or_semi(toks: &[Tok], start: usize, end: usize) -> Body {
    let mut i = start;
    let mut angle = 0i64;
    while i < end {
        match toks[i].kind {
            TokKind::Open('{') if angle == 0 => return Body::Braced(i),
            TokKind::Punct(';') if angle == 0 => return Body::Semi(i + 1),
            TokKind::Open(_) => {
                i = skip_balanced(toks, i);
                continue;
            }
            TokKind::Punct('<') => {
                // `->` never reaches here ('-' precedes), `<<` just nests.
                angle += 1;
            }
            TokKind::Punct('>') if angle > 0 => angle -= 1,
            _ => {}
        }
        i += 1;
    }
    Body::Semi(end)
}

/// The test-region rule: when the code tokens at `i` open a `#[test]` or
/// `#[cfg(test)]` attribute, the attribute covers the next item through
/// its closing `}` or `;`, and this returns the index just past that item
/// (bounded by `end`). `None` for any other token.
pub fn test_item_end(toks: &[Tok], i: usize, end: usize) -> Option<usize> {
    if !toks[i].is_punct('#') || toks.get(i + 1)?.kind != TokKind::Open('[') {
        return None;
    }
    let close = skip_balanced(toks, i + 1);
    let attr = &toks[i + 2..close.saturating_sub(1).max(i + 2)];
    let is_test = match attr {
        [t] => t.is_ident("test"),
        [cfg, open, t, _] => cfg.is_ident("cfg") && open.kind == TokKind::Open('(') && t.is_ident("test"),
        _ => false,
    };
    is_test.then(|| match seek_body_or_semi(toks, close, end) {
        Body::Braced(open) => skip_balanced(toks, open),
        Body::Semi(after) => after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_vanish() {
        let src = "fn f() { let s = \"thread_rng()\"; /* now() */ g(); } // now()\n";
        let ids = idents(src);
        assert_eq!(ids, ["fn", "f", "let", "s", "g"]);
    }

    #[test]
    fn raw_strings_span_lines() {
        let src = "let a = r##\"x\ny \"# z\nw\"##; tail();\n";
        let toks = tokenize(src);
        let tail = toks.iter().find(|t| t.is_ident("tail")).expect("tail survives");
        assert_eq!(tail.line, 3);
        assert!(!toks.iter().any(|t| t.is_ident("w")), "raw body leaked into code");
    }

    #[test]
    fn lifetimes_and_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = 'x'; c }\n";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        assert!(!ids.contains(&"a".to_string()), "lifetime label leaked: {ids:?}");
        assert!(!ids.contains(&"x".to_string()) || ids.iter().filter(|s| *s == "x").count() == 1);
    }

    #[test]
    fn raw_identifiers_keep_name() {
        let ids = idents("let r#type = r#match;\n");
        assert_eq!(ids, ["let", "type", "match"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { let x = 1.5e-3; let y = 2.max(i); }\n";
        let toks = tokenize(src);
        assert!(toks.iter().any(|t| t.is_ident("max")), "method after int literal lost");
        let lits = toks.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 4, "0, 10, 1.5e-3, 2");
    }

    #[test]
    fn line_numbers_track_every_literal_form() {
        let src = "a();\n\"two\nthree\";\nb();\n/* four\nfive */\nc();\n";
        let toks = tokenize(src);
        let line_of = |name: &str| toks.iter().find(|t| t.is_ident(name)).map(|t| t.line);
        assert_eq!(line_of("a"), Some(1));
        assert_eq!(line_of("b"), Some(4));
        assert_eq!(line_of("c"), Some(7));
    }

    #[test]
    fn skip_balanced_nested() {
        let toks = tokenize("{ a { b } ( c ) } tail");
        let end = skip_balanced(&toks, 0);
        assert!(toks[end].is_ident("tail"));
    }
}
