//! Per-line source views, built on the real tokenizer.
//!
//! The line rules in [`crate::rules`] work on three views of every line:
//! *raw* (verbatim), *code* (comments removed, string/char literal
//! contents blanked to spaces with delimiters kept) and *comment* (the
//! text of `//…` and the interiors of `/* … */`). Since PR 5 these views
//! are projected from [`crate::token`]'s token stream instead of a
//! hand-rolled line state machine, which fixes the old lexer's edge
//! cases: raw strings with more than three `#` hashes no longer leak
//! their contents into the code view, and lifetimes are never mistaken
//! for char-literal openers.
//!
//! Remaining, accepted approximation: `#[cfg(test)]` detection assumes
//! the attribute directly precedes a `mod` item whose body is
//! brace-delimited — the workspace convention. `#[cfg(test)]` on
//! individual functions outside such a module is treated as regular code.

use crate::token::{self, Tok, TokKind};
use crate::tree::{self, Tree};

/// One scanned source line, in three views.
#[derive(Debug)]
pub struct LineInfo {
    /// The original line, verbatim.
    pub raw: String,
    /// The line with comments removed and string/char literal *contents*
    /// blanked out (delimiters kept), so token searches cannot match
    /// inside prose.
    pub code: String,
    /// The comment text of the line (contents of `//…` and the in-line
    /// parts of `/* … */`), for comment-contract rules.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)] mod … { … }` block.
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Scanned lines, index 0 = line 1.
    pub lines: Vec<LineInfo>,
    /// The full source text, verbatim.
    pub text: String,
    /// The token stream for `text` (round-trip exact).
    pub toks: Vec<Tok>,
    /// The token trees over `toks`, built once for every pass.
    pub trees: Vec<Tree>,
}

impl SourceFile {
    /// Scans `text` as the contents of `rel`.
    pub fn scan(rel: &str, text: &str) -> SourceFile {
        let toks = token::tokenize(text);
        let n_lines = text.lines().count();
        let mut code_lines = vec![String::new(); n_lines];
        let mut comment_lines = vec![String::new(); n_lines];
        for t in &toks {
            project(text, t, &mut code_lines, &mut comment_lines);
        }
        let test_flags = mark_test_regions(&code_lines);
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, raw)| LineInfo {
                raw: raw.to_string(),
                code: std::mem::take(&mut code_lines[i]),
                comment: std::mem::take(&mut comment_lines[i]),
                in_test: test_flags.get(i).copied().unwrap_or(false),
            })
            .collect();
        let trees = tree::build(text, &toks);
        SourceFile {
            rel: rel.to_string(),
            lines,
            text: text.to_string(),
            toks,
            trees,
        }
    }

    /// 1-based enumeration over the lines.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &LineInfo)> {
        self.lines.iter().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// Lines outside every top-level item gated `#[cfg(test)]`, comments
    /// and blanks included: the count `kvs-lint lines` reports.
    pub fn non_test_lines(&self) -> usize {
        let test: usize = tree::cfg_test_items(&self.text, &self.toks, &self.trees)
            .iter()
            .map(|(first, last)| last + 1 - first)
            .sum();
        self.lines.len() - test
    }

    /// True when 1-based `line` is inside a `#[cfg(test)]` module.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.lines
            .get(line.wrapping_sub(1))
            .is_some_and(|l| l.in_test)
    }
}

/// Appends `s` (which may span lines) to the per-line buffers starting at
/// 1-based `line`.
fn push_lines(buf: &mut [String], line: usize, s: &str) {
    for (k, part) in s.split('\n').enumerate() {
        if let Some(slot) = buf.get_mut(line - 1 + k) {
            slot.push_str(part);
        }
    }
}

/// Projects one token into the code/comment line views, reproducing the
/// shapes the line rules were written against.
fn project(src: &str, t: &Tok, code: &mut [String], comment: &mut [String]) {
    let text = t.text(src);
    match t.kind {
        TokKind::Ws | TokKind::Ident | TokKind::Lifetime | TokKind::Number | TokKind::Punct => {
            push_lines(code, t.line, text)
        }
        TokKind::LineComment => {
            // `//xyz` → comment view gets `xyz` (so `/// doc` yields
            // `/ doc` and `//! doc` yields `! doc`, as the doc-table
            // rule expects); the code view gets nothing.
            push_lines(comment, t.line, &text[2..]);
        }
        TokKind::BlockComment => {
            // Interior chars go to the comment view; `/*` and `*/`
            // delimiter pairs (at any nesting depth) go nowhere.
            let chars: Vec<char> = text.chars().collect();
            let mut line = t.line;
            let mut buf = String::new();
            let mut i = 0;
            while i < chars.len() {
                match (chars[i], chars.get(i + 1)) {
                    ('/', Some('*')) | ('*', Some('/')) => i += 2,
                    ('\n', _) => {
                        push_lines(comment, line, &buf);
                        buf.clear();
                        line += 1;
                        i += 1;
                    }
                    (c, _) => {
                        buf.push(c);
                        i += 1;
                    }
                }
            }
            push_lines(comment, line, &buf);
        }
        TokKind::Str | TokKind::ByteStr | TokKind::CharLit | TokKind::ByteLit => {
            let quote = match t.kind {
                TokKind::CharLit | TokKind::ByteLit => '\'',
                _ => '"',
            };
            let prefix = if matches!(t.kind, TokKind::ByteStr | TokKind::ByteLit) {
                2 // `b"` / `b'`
            } else {
                1
            };
            blank_literal(code, t.line, text, prefix, quote, 0);
        }
        TokKind::RawStr | TokKind::RawByteStr => {
            // `r##"` … `"##`: keep the full opener and closer, blank the
            // interior.
            let quote_at = text.find('"').unwrap_or(text.len() - 1);
            let hashes = quote_at.saturating_sub(if text.starts_with('b') { 2 } else { 1 });
            blank_literal(code, t.line, text, quote_at + 1, '"', hashes);
        }
    }
}

/// Emits a literal into the code view: the first `prefix` chars verbatim,
/// interior chars as spaces (newlines preserved), and — when the token is
/// terminated — the closing `quote` plus `closer_hashes` hashes verbatim.
fn blank_literal(
    code: &mut [String],
    start_line: usize,
    text: &str,
    prefix: usize,
    quote: char,
    closer_hashes: usize,
) {
    let chars: Vec<char> = text.chars().collect();
    let closer_len = 1 + closer_hashes;
    let terminated = chars.len() >= prefix + closer_len
        && chars[chars.len() - closer_len] == quote
        && chars[chars.len() - closer_hashes..]
            .iter()
            .all(|&c| c == '#');
    let interior_end = if terminated {
        chars.len() - closer_len
    } else {
        chars.len()
    };
    let mut out = String::with_capacity(text.len());
    for (i, &c) in chars.iter().enumerate() {
        if i < prefix || i >= interior_end {
            out.push(c);
        } else if c == '\n' {
            out.push('\n');
        } else {
            out.push(' ');
        }
    }
    push_lines(code, start_line, &out);
}

/// Marks lines inside `#[cfg(test)] mod … { … }` regions.
fn mark_test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    // Depth *at entry* of the active test module, if any.
    let mut test_depth: Option<i64> = None;
    let mut pending_attr = false;
    for (ix, code) in code_lines.iter().enumerate() {
        let trimmed = code.trim();
        if test_depth.is_none() && trimmed.starts_with("#[cfg(test)]") {
            pending_attr = true;
        } else if pending_attr
            && test_depth.is_none()
            && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod "))
        {
            test_depth = Some(depth);
            pending_attr = false;
        } else if pending_attr && !trimmed.is_empty() && !trimmed.starts_with("#[") {
            // The attribute guarded something other than a module.
            pending_attr = false;
        }
        if test_depth.is_some() {
            flags[ix] = true;
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(td) = test_depth {
                        if depth <= td {
                            test_depth = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"SystemTime::now()\"; // SystemTime::now()\nlet b = 1;\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(!f.lines[0].code.contains("SystemTime"));
        assert!(f.lines[0].comment.contains("SystemTime::now()"));
        assert!(f.lines[1].code.contains("let b = 1;"));
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "/* one\n   SystemTime::now()\n*/ let x = 2;\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(!f.lines[1].code.contains("SystemTime"));
        assert!(f.lines[1].comment.contains("SystemTime::now()"));
        assert!(f.lines[2].code.contains("let x = 2;"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"unsafe { }\"#;\nunsafe {}\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].code.contains("r#\""));
        assert!(f.lines[1].code.contains("unsafe"));
    }

    #[test]
    fn deep_hash_raw_strings_with_embedded_quotes_are_blanked() {
        // The pre-tokenizer scanner capped raw-string hashes at 3: with
        // four hashes the embedded `"hi"` re-opened a plain string and
        // `unsafe` leaked into the code view. Regression for KVS-L005.
        let src = "let s = r####\"say \"hi\" unsafe { SystemTime::now() }\"####;\nlet t = 1;\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(!f.lines[0].code.contains("SystemTime"));
        assert!(f.lines[0].code.contains("r####\""));
        assert!(f.lines[0].code.contains("\"####;"));
        assert!(f.lines[1].code.contains("let t = 1;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // 'q\nlet c = 'x';\nlet n = '\\n';\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(f.lines[0].code.contains("&'a str"));
        assert!(!f.lines[1].code.contains('x'));
        assert!(f.lines[2].code.contains("let n ="));
    }

    #[test]
    fn multiline_strings_stay_blanked_past_the_first_line() {
        let src = "let s = \"one\n  unsafe two\";\nlet u = 3;\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(!f.lines[1].code.contains("unsafe"));
        assert!(f.lines[2].code.contains("let u = 3;"));
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::scan("x.rs", src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_a_function_does_not_open_a_region() {
        let src = "#[cfg(test)]\nfn helper() {}\nfn live() {}\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(f.lines.iter().all(|l| !l.in_test));
    }
}
