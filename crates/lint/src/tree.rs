//! Token trees: the brace/bracket/paren-matched view of a token stream.
//!
//! The semantic passes ([`crate::passes`]) walk these trees instead of raw
//! lines, so a lock acquired inside a nested block, a `stamps:` array
//! split over several lines, or a match arm with a block body all parse
//! the same way `rustfmt` may choose to lay them out.
//!
//! Whitespace and comment tokens are dropped here — the trees hold *code*
//! leaves only. Anything needing exact text (the round-trip invariant,
//! the scanner's per-line views) works on the token stream itself.

use crate::token::{Tok, TokKind};

/// Group delimiter kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// A delimited group of trees.
#[derive(Debug)]
pub struct Group {
    /// Delimiter kind.
    pub delim: Delim,
    /// Token index of the opening delimiter.
    pub open: usize,
    /// Token index of the closing delimiter; `None` when unterminated.
    pub close: Option<usize>,
    /// Children, in order.
    pub children: Vec<Tree>,
}

/// One node: a code token or a delimited group.
#[derive(Debug)]
pub enum Tree {
    /// A single code token (index into the token slice).
    Leaf(usize),
    /// A delimited group.
    Group(Group),
}

fn open_delim(c: char) -> Option<Delim> {
    match c {
        '(' => Some(Delim::Paren),
        '[' => Some(Delim::Bracket),
        '{' => Some(Delim::Brace),
        _ => None,
    }
}

fn close_delim(c: char) -> Option<Delim> {
    match c {
        ')' => Some(Delim::Paren),
        ']' => Some(Delim::Bracket),
        '}' => Some(Delim::Brace),
        _ => None,
    }
}

/// Builds the tree forest for a token stream. Tolerant of unbalanced
/// input: a stray closer becomes a leaf, an unclosed group is closed at
/// EOF with `close: None`.
pub fn build(src: &str, toks: &[Tok]) -> Vec<Tree> {
    let mut stack: Vec<(Delim, usize, Vec<Tree>)> = Vec::new();
    let mut cur: Vec<Tree> = Vec::new();
    for (ix, t) in toks.iter().enumerate() {
        if !t.kind.is_code() {
            continue;
        }
        let ch = if t.kind == TokKind::Punct {
            t.text(src).chars().next()
        } else {
            None
        };
        if let Some(d) = ch.and_then(open_delim) {
            stack.push((d, ix, std::mem::take(&mut cur)));
            continue;
        }
        if let Some(d) = ch.and_then(close_delim) {
            if stack.last().is_some_and(|&(sd, _, _)| sd == d) {
                let (delim, open, parent) = stack.pop().expect("checked non-empty");
                let children = std::mem::replace(&mut cur, parent);
                cur.push(Tree::Group(Group {
                    delim,
                    open,
                    close: Some(ix),
                    children,
                }));
                continue;
            }
            // Stray closer: keep it as a leaf so spans stay visible.
        }
        cur.push(Tree::Leaf(ix));
    }
    while let Some((delim, open, parent)) = stack.pop() {
        let children = std::mem::replace(&mut cur, parent);
        cur.push(Tree::Group(Group {
            delim,
            open,
            close: None,
            children,
        }));
    }
    cur
}

/// A function definition found in the forest: its name, the line of the
/// `fn` keyword, and the body group.
pub struct FnDef<'t> {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The `{ … }` body.
    pub body: &'t Group,
}

/// Extracts every function with a body, at any nesting depth (free
/// functions, impl methods, functions inside `mod`s and other functions).
pub fn functions<'t>(src: &str, toks: &[Tok], trees: &'t [Tree]) -> Vec<FnDef<'t>> {
    let mut out = Vec::new();
    collect_fns(src, toks, trees, &mut out);
    out
}

fn collect_fns<'t>(src: &str, toks: &[Tok], trees: &'t [Tree], out: &mut Vec<FnDef<'t>>) {
    let mut i = 0;
    while i < trees.len() {
        if let Tree::Leaf(ix) = trees[i] {
            if toks[ix].kind == TokKind::Ident && toks[ix].text(src) == "fn" {
                if let Some((def, next)) = fn_at(src, toks, trees, i) {
                    collect_fns(src, toks, &def.body.children, out);
                    out.push(def);
                    i = next;
                    continue;
                }
            }
        }
        if let Tree::Group(g) = &trees[i] {
            collect_fns(src, toks, &g.children, out);
        }
        i += 1;
    }
}

/// Parses `fn name … { body }` starting at sibling index `i` (at the `fn`
/// leaf). Returns the definition and the sibling index just past the
/// body. Bodiless declarations (`fn f();` in traits) return `None`.
fn fn_at<'t>(src: &str, toks: &[Tok], trees: &'t [Tree], i: usize) -> Option<(FnDef<'t>, usize)> {
    let Tree::Leaf(fn_ix) = trees[i] else {
        return None;
    };
    let name = trees.get(i + 1).and_then(|t| match t {
        Tree::Leaf(ix) if toks[*ix].kind == TokKind::Ident => Some(toks[*ix].text(src).to_string()),
        _ => None,
    })?;
    for (j, t) in trees.iter().enumerate().skip(i + 2) {
        match t {
            Tree::Leaf(ix) => {
                let tk = &toks[*ix];
                if tk.kind == TokKind::Punct && tk.text(src) == ";" {
                    return None; // declaration without a body
                }
            }
            Tree::Group(g) if g.delim == Delim::Brace => {
                return Some((
                    FnDef {
                        name,
                        line: toks[fn_ix].line,
                        body: g,
                    },
                    j + 1,
                ));
            }
            Tree::Group(_) => {}
        }
    }
    None
}

/// The text of a leaf, or `None` for a group.
pub fn leaf_text<'a>(src: &'a str, toks: &[Tok], t: &Tree) -> Option<&'a str> {
    match t {
        Tree::Leaf(ix) => Some(toks[*ix].text(src)),
        Tree::Group(_) => None,
    }
}

/// The line a tree starts on.
pub fn leaf_line(toks: &[Tok], t: &Tree) -> usize {
    match t {
        Tree::Leaf(ix) => toks[*ix].line,
        Tree::Group(g) => toks[g.open].line,
    }
}

/// True when `t` is the punctuation leaf `ch`.
pub fn is_punct(src: &str, toks: &[Tok], t: &Tree, ch: &str) -> bool {
    matches!(t, Tree::Leaf(ix) if toks[*ix].kind == TokKind::Punct && toks[*ix].text(src) == ch)
}

/// True when `t` is an identifier leaf.
pub fn is_ident(toks: &[Tok], t: &Tree) -> bool {
    matches!(t, Tree::Leaf(ix) if toks[*ix].kind == TokKind::Ident)
}

/// Line spans `(first, last)` of the items in `trees` gated
/// `#[cfg(test)]`: from the attribute's `#` to the item's first brace
/// group (its body) or `;`.
pub fn cfg_test_items(src: &str, toks: &[Tok], trees: &[Tree]) -> Vec<(usize, usize)> {
    let last_line = |t: &Tree| match t {
        Tree::Leaf(ix) => toks[*ix].line,
        Tree::Group(g) => toks[g.close.unwrap_or(toks.len() - 1)].line,
    };
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < trees.len() {
        let gated = is_punct(src, toks, &trees[i], "#")
            && matches!(&trees[i + 1], Tree::Group(g)
                if g.delim == Delim::Bracket && text_of(src, toks, &g.children) == "cfg(test)");
        if !gated {
            i += 1;
            continue;
        }
        let mut j = (i + 2).min(trees.len() - 1);
        while j + 1 < trees.len()
            && !is_punct(src, toks, &trees[j], ";")
            && !matches!(&trees[j], Tree::Group(g) if g.delim == Delim::Brace)
        {
            j += 1;
        }
        spans.push((last_line(&trees[i]), last_line(&trees[j])));
        i = j + 1;
    }
    spans
}

/// Concatenated source text of a tree slice (code tokens only, no
/// whitespace): `job.frame.stamps[1]`, `wall_ns()`, …
pub fn text_of(src: &str, toks: &[Tok], trees: &[Tree]) -> String {
    let mut s = String::new();
    for t in trees {
        match t {
            Tree::Leaf(ix) => s.push_str(toks[*ix].text(src)),
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    Delim::Paren => ('(', ')'),
                    Delim::Bracket => ('[', ']'),
                    Delim::Brace => ('{', '}'),
                };
                s.push(open);
                s.push_str(&text_of(src, toks, &g.children));
                s.push(close);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn forest(src: &str) -> (Vec<Tok>, Vec<Tree>) {
        let toks = tokenize(src);
        let trees = build(src, &toks);
        (toks, trees)
    }

    #[test]
    fn groups_match_and_nest() {
        let src = "fn f(a: u32) -> u32 { if a > [1, 2][0] { a } else { 0 } }";
        let (toks, trees) = forest(src);
        let fns = functions(src, &toks, &trees);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
        assert_eq!(fns[0].line, 1);
        assert!(fns[0].body.close.is_some());
    }

    #[test]
    fn nested_and_trait_functions() {
        let src =
            "trait T { fn decl(&self); }\nimpl S {\n fn outer(&self) { fn inner() {} inner() } }";
        let (toks, trees) = forest(src);
        let mut names: Vec<String> = functions(src, &toks, &trees)
            .into_iter()
            .map(|f| f.name)
            .collect();
        names.sort();
        assert_eq!(names, vec!["inner", "outer"]);
    }

    #[test]
    fn tolerates_unbalanced_input() {
        let (_, trees) = forest("fn f() { let x = (1; }");
        assert!(!trees.is_empty());
        let (_, trees2) = forest(") } fn g() {}");
        assert!(!trees2.is_empty());
    }

    #[test]
    fn cfg_test_items_cover_helpers_above_live_code() {
        // A gated helper and constant sit above live code, as in the
        // store's block module: only the gated items are test lines.
        let src = "fn a() {}\n#[cfg(test)]\npub(crate) fn fnv1a(h: u64) -> u64 {\n    h\n}\n\n\
                   #[cfg(test)]\npub(crate) const BASIS: [u8; 2] = [1, 2];\n\n\
                   pub fn build_blocks() {\n    let x = S { a: 1 };\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let (toks, trees) = forest(src);
        assert_eq!(
            cfg_test_items(src, &toks, &trees),
            vec![(2, 5), (7, 8), (13, 16)]
        );
        let file = crate::scan::SourceFile::scan("crates/store/src/block.rs", src);
        assert_eq!(file.non_test_lines(), 16 - 4 - 2 - 4);
    }

    #[test]
    fn text_of_reconstructs_expressions() {
        let src = "stamps: [job.frame.stamps[1], wall_ns(), db_end, 0]";
        let (toks, trees) = forest(src);
        assert_eq!(
            text_of(src, &toks, &trees),
            "stamps:[job.frame.stamps[1],wall_ns(),db_end,0]"
        );
    }
}
