//! The per-line view the pattern rules scan, derived from the token stream.
//!
//! Each source line splits into *code* (comments removed, string/char
//! literal bodies blanked down to their quotes) and *comment text*, and is
//! marked when it falls inside a test item. Nothing here lexes: every
//! character's channel follows from the token that covers it, and test
//! regions come from [`test_item_end`], the rule the item parser uses.

use crate::tokens::{test_item_end, tokenize, Tok, TokKind};

/// One source line, split into scannable channels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with comments removed and string/char literal bodies blanked.
    pub code: String,
    /// Concatenated comment text on this line (line, block and doc).
    pub comment: String,
    /// Whether the line is inside (or is the attribute introducing) a
    /// `#[cfg(test)]` or `#[test]` item.
    pub in_test: bool,
}

/// Where one source character goes in the line view.
#[derive(Clone, Copy)]
enum Channel {
    Code,
    Comment,
    Blank,
}

/// Split `source` into per-line code/comment channels and mark test
/// regions. One entry per `source.lines()` line.
pub fn line_view(source: &str) -> Vec<Line> {
    let toks = tokenize(source);
    let mut lines = vec![Line::default()];
    let mut put = |text: &str, channel: &dyn Fn(usize) -> Channel| {
        for (k, c) in text.char_indices() {
            let line = lines.last_mut().expect("never empty");
            match (c, channel(k)) {
                ('\n', _) => {
                    if line.code.ends_with('\r') {
                        line.code.pop(); // `\r\n` ends a line, as in `str::lines`
                    }
                    lines.push(Line::default());
                }
                (_, Channel::Code) => line.code.push(c),
                (_, Channel::Comment) => line.comment.push(c),
                (_, Channel::Blank) => {}
            }
        }
    };
    let mut at = 0;
    for tok in &toks {
        put(&source[at..tok.span.start], &|_| Channel::Code); // whitespace
        let text = &source[tok.span.clone()];
        match tok.kind {
            TokKind::Comment => put(text, &|_| Channel::Comment),
            TokKind::Lifetime => put(&text[1..], &|_| Channel::Code),
            TokKind::Ident => put(&tok.text, &|_| Channel::Code),
            TokKind::Lit if !text.starts_with(|c: char| c.is_ascii_digit()) => {
                let kept = quotes(text);
                put(text, &|k| if kept.contains(&k) { Channel::Code } else { Channel::Blank });
            }
            _ => put(text, &|_| Channel::Code),
        }
        at = tok.span.end;
    }
    put(&source[at..], &|_| Channel::Code);
    if source.is_empty() || source.ends_with('\n') {
        lines.pop(); // `str::lines` yields no empty last line
    }

    let code: Vec<Tok> = toks.into_iter().filter(Tok::is_code).collect();
    let mut i = 0;
    while i < code.len() {
        match test_item_end(&code, i, code.len()) {
            Some(after) => {
                let (first, last) = (code[i].line as usize, code[after - 1].line as usize);
                for line in lines.iter_mut().take(last).skip(first - 1) {
                    line.in_test = true;
                }
                i = after;
            }
            None => i += 1,
        }
    }
    lines
}

/// Byte offsets, within a string or char literal's text, that the code
/// channel keeps: `"…"` and `'…'` keep both quotes, `b"…"` and `b'…'` also
/// their `b`, and raw strings only the quotes (not the `r`, `br` or hash
/// runs). An unterminated literal keeps no closing quote.
fn quotes(text: &str) -> Vec<usize> {
    let open = text.find(['"', '\'']).unwrap_or(0);
    let raw = text.starts_with('r') || text.starts_with("br");
    let hashes = if raw { text[..open].matches('#').count() } else { 0 };
    let close = text.len() - 1 - hashes;
    let mut kept: Vec<usize> = if raw { vec![open] } else { (0..=open).collect() };
    if close > open && text[close..].starts_with(&text[open..=open]) {
        kept.push(close);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_doc_comments() {
        let src = "let x = 1; // unwrap() in comment\n/// doc unwrap()\nfn f() {}\n";
        let lines = line_view(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("unwrap"));
        assert!(lines[1].code.is_empty());
        assert!(lines[2].code.contains("fn f()"));
    }

    #[test]
    fn strips_string_contents() {
        let src = r#"let s = "thread_rng() inside string"; s.len();"#;
        let lines = line_view(src);
        assert!(!lines[0].code.contains("thread_rng"));
        assert!(lines[0].code.contains("s.len()"));
    }

    #[test]
    fn strips_raw_strings_and_chars() {
        let src = "let s = r#\"panic!(raw)\"#; let c = 'x'; let lt: &'static str = \"y\";\n";
        let lines = line_view(src);
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].code.contains("let c ="));
        assert!(lines[0].code.contains("static")); // lifetime survives as code
    }

    #[test]
    fn ident_tail_r_is_not_a_raw_string_open() {
        // `xr` is an identifier; `#` and `""` follow it. Taking the
        // trailing `r` as a raw-string prefix would swallow every later
        // line until a stray `"#` — a multi-line desync that silently
        // blinds all per-line rules downstream.
        let src = "let a = xr #\"\";\nx.unwrap();\n";
        let lines = line_view(src);
        assert!(lines[1].code.contains("unwrap"), "line after ident-tail r lost: {lines:?}");

        // Adjacent form (no space) — ident `xr`, then `#`, then a string.
        let src = "m!(xr#\"\");\nx.unwrap();\n";
        let lines = line_view(src);
        assert!(lines[1].code.contains("unwrap"), "{lines:?}");
    }

    #[test]
    fn ident_tail_r_before_quote_keeps_escape_semantics() {
        // `rr"\""` is ident `rr` + a *normal* string containing an escaped
        // quote; the string stays open past the line end. Read as a raw
        // string it would close at the `\"`, and the real string body on
        // following lines would be treated as code.
        let src = "let a = rr\"\\\"\nnot_code();\n\";\nreal();\n";
        let lines = line_view(src);
        assert!(!lines[1].code.contains("not_code"), "string body leaked as code: {lines:?}");
        assert!(lines[3].code.contains("real"), "{lines:?}");
    }

    #[test]
    fn ident_tail_br_is_not_a_byte_raw_open() {
        let src = "let a = xbr #\"\";\nx.unwrap();\n";
        let lines = line_view(src);
        assert!(lines[1].code.contains("unwrap"), "{lines:?}");
    }

    #[test]
    fn real_raw_strings_still_recognised_after_fix() {
        let src = "let s = r#\"panic!()\"#;\nlet b = br##\"unwrap()\"##;\nok();\n";
        let lines = line_view(src);
        assert!(!lines[0].code.contains("panic"));
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[2].code.contains("ok"));
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "a();\n/* unwrap()\n still comment */ b();\n";
        let lines = line_view(src);
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[2].code.contains("b()"));
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib2() {}\n";
        let lines = line_view(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn test_attribute_function_marked() {
        let src = "fn a() {}\n#[test]\nfn t() {\n    body();\n}\nfn b() {}\n";
        let lines = line_view(src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn line_count_follows_str_lines() {
        for src in ["", "\n", "a", "a\n", "a\r\nb\r\n", "x // c", "/* a\nb */"] {
            let lines = line_view(src);
            assert_eq!(lines.len(), src.lines().count(), "{src:?}");
            assert!(lines.iter().all(|l| !l.code.contains('\r')), "{src:?}");
        }
        let lines = line_view("b\"x\" br#\"y\"# 'c' b'd' r\"e\" \"f\n g\" 1.5e3 '\\''\n");
        assert_eq!(lines[0].code, "b\"\" \"\" '' b'' \"\" \"");
        assert_eq!(lines[1].code, "\" 1.5e3 ''");
    }
}
