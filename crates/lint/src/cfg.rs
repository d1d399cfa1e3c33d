//! Per-function control-flow graphs: statement-ordered, branch-aware.
//!
//! One node per statement, lowered from the token trees: `if`/`else`
//! chains and `match` arms fork and re-join, loops edge back to their
//! header, and `return`/`break`/`continue`/`?` cut or redirect the
//! fall-through. The nodes carry word-separated statement text; two
//! kinds of consumer sit on top: pure graph-reachability queries ("can
//! GC run before the commit?", "is every path to the rename fsynced?"
//! — KVS-L015) and, since the dataflow layer ([`crate::dataflow`]), a
//! gen/kill worklist engine that runs taint and must-reach analyses
//! over these same blocks (KVS-L017 … KVS-L019).
//!
//! Precision boundary, documented so nobody re-learns it: a branch
//! *inside* an expression statement (`let x = if c { a } else { b };`)
//! is flattened into one node — its operations appear unconditionally
//! ordered at that statement. Only statement-position `if`/`match`/loops
//! fork the graph. Nested `fn` items are skipped (they are separate
//! functions); closure bodies are flattened into their statement.

use crate::token::Tok;
use crate::tree::{self, Delim, Group, Tree};

/// One statement node.
#[derive(Debug)]
pub struct Stmt {
    /// 1-based source line of the statement's first token.
    pub line: usize,
    /// Statement text with a single space separating adjacent word
    /// tokens (so identifier boundaries survive flattening — the
    /// dataflow layer parses variables out of this), e.g.
    /// `let mut buf=Vec::with_capacity(header_len+len)`.
    pub text: String,
}

/// The graph. Node `0` is a synthetic entry; [`Cfg::exit`] is a
/// synthetic exit reached by fall-through off the body, `return` and `?`.
#[derive(Debug)]
pub struct Cfg {
    /// Statement nodes; `stmts[0]` is the synthetic entry (empty text).
    pub stmts: Vec<Stmt>,
    /// `succ[i]` = successor node ids (may include [`Cfg::exit`]).
    pub succ: Vec<Vec<usize>>,
    /// The synthetic exit id (`== stmts.len()`).
    pub exit: usize,
}

struct Builder<'a> {
    src: &'a str,
    toks: &'a [Tok],
    stmts: Vec<Stmt>,
    succ: Vec<Vec<usize>>,
}

struct LoopCtx {
    header: usize,
    breaks: Vec<usize>,
}

/// Builds the CFG for one function body.
pub fn build(src: &str, toks: &[Tok], body: &Group) -> Cfg {
    let entry_line = toks[body.open].line;
    let mut b = Builder {
        src,
        toks,
        stmts: vec![Stmt {
            line: entry_line,
            text: String::new(),
        }],
        succ: vec![Vec::new()],
    };
    let mut loops = Vec::new();
    let outs = b.lower_block(&body.children, vec![0], &mut loops);
    let exit = b.stmts.len();
    for o in outs {
        b.succ[o].push(exit);
    }
    // `?` and `return` edges to the exit were recorded as usize::MAX.
    for succs in &mut b.succ {
        for s in succs.iter_mut() {
            if *s == usize::MAX {
                *s = exit;
            }
        }
        succs.sort_unstable();
        succs.dedup();
    }
    Cfg {
        stmts: b.stmts,
        succ: b.succ,
        exit,
    }
}

impl<'a> Builder<'a> {
    fn leaf(&self, t: &Tree) -> Option<&'a str> {
        tree::leaf_text(self.src, self.toks, t)
    }

    fn is_punct(&self, t: &Tree, ch: &str) -> bool {
        tree::is_punct(self.src, self.toks, t, ch)
    }

    fn line_of(&self, t: &Tree) -> usize {
        tree::leaf_line(self.toks, t)
    }

    fn node(&mut self, line: usize, text: String, preds: &[usize]) -> usize {
        let id = self.stmts.len();
        self.stmts.push(Stmt { line, text });
        self.succ.push(Vec::new());
        for &p in preds {
            self.succ[p].push(id);
        }
        id
    }

    fn text_of(&self, trees: &[Tree]) -> String {
        let mut s = String::new();
        spaced_text(self.src, self.toks, trees, &mut s);
        s
    }

    /// Lowers a block's children; returns the fall-through predecessor
    /// set flowing out of the block.
    fn lower_block(
        &mut self,
        children: &[Tree],
        mut preds: Vec<usize>,
        loops: &mut Vec<LoopCtx>,
    ) -> Vec<usize> {
        let mut start = 0;
        for i in 0..=children.len() {
            let boundary = i == children.len() || self.is_punct(&children[i], ";");
            if !boundary {
                continue;
            }
            let stmt = &children[start..i];
            start = i + 1;
            if stmt.is_empty() {
                continue;
            }
            preds = self.lower_stmt(stmt, preds, loops);
        }
        preds
    }

    /// Lowers one statement slice; returns its fall-through set.
    fn lower_stmt(
        &mut self,
        stmt: &[Tree],
        preds: Vec<usize>,
        loops: &mut Vec<LoopCtx>,
    ) -> Vec<usize> {
        let head = self.leaf(&stmt[0]).unwrap_or("");
        let line = self.line_of(&stmt[0]);
        match head {
            "fn" => preds, // nested fn: its own function, not a statement
            "if" => {
                let (outs, used) = self.lower_if(stmt, preds, loops);
                self.lower_tail(stmt, used, outs, loops)
            }
            "match" => {
                let (outs, used) = self.lower_match(stmt, preds, loops);
                self.lower_tail(stmt, used, outs, loops)
            }
            "while" | "for" | "loop" => {
                let (outs, used) = self.lower_loop(stmt, head, preds, loops);
                self.lower_tail(stmt, used, outs, loops)
            }
            "return" => {
                let n = self.node(line, self.text_of(stmt), &preds);
                self.succ[n].push(usize::MAX); // → exit
                Vec::new()
            }
            "break" => {
                let n = self.node(line, self.text_of(stmt), &preds);
                if let Some(ctx) = loops.last_mut() {
                    ctx.breaks.push(n);
                } else {
                    self.succ[n].push(usize::MAX);
                }
                Vec::new()
            }
            "continue" => {
                let n = self.node(line, self.text_of(stmt), &preds);
                if let Some(ctx) = loops.last() {
                    let header = ctx.header;
                    self.succ[n].push(header);
                } else {
                    self.succ[n].push(usize::MAX);
                }
                Vec::new()
            }
            _ => {
                // A bare (or `unsafe`-prefixed) brace block heading the
                // statement is a nested scope, not an opaque expression:
                // lower it so orderings inside stay visible to the path
                // queries (e.g. `{ write; fsync; } rename;`).
                let block_ix = match &stmt[0] {
                    Tree::Group(g) if g.delim == Delim::Brace => Some(0),
                    _ if head == "unsafe" => match stmt.get(1) {
                        Some(Tree::Group(g)) if g.delim == Delim::Brace => Some(1),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some(ix) = block_ix {
                    let Tree::Group(g) = &stmt[ix] else {
                        unreachable!("checked above");
                    };
                    let outs = self.lower_block(&g.children, preds, loops);
                    return self.lower_tail(stmt, ix + 1, outs, loops);
                }
                // Plain statement (branches inside it are flattened).
                let text = self.text_of(stmt);
                let n = self.node(line, text, &preds);
                if self.has_top_level_question(stmt) {
                    self.succ[n].push(usize::MAX); // early return on Err
                }
                vec![n]
            }
        }
    }

    /// True when the statement carries a top-level `?` (early return).
    fn has_top_level_question(&self, stmt: &[Tree]) -> bool {
        stmt.iter().any(|t| self.is_punct(t, "?"))
    }

    /// Lowers the tokens past a block-headed construct (`if c { } tail`)
    /// as a follow-on statement.
    fn lower_tail(
        &mut self,
        stmt: &[Tree],
        used: usize,
        outs: Vec<usize>,
        loops: &mut Vec<LoopCtx>,
    ) -> Vec<usize> {
        if used >= stmt.len() || outs.is_empty() {
            return outs;
        }
        self.lower_stmt(&stmt[used..], outs, loops)
    }

    /// `if cond { … } else if … { … } else { … }` at statement position.
    /// Returns `(fall-through set, siblings consumed)`.
    fn lower_if(
        &mut self,
        stmt: &[Tree],
        preds: Vec<usize>,
        loops: &mut Vec<LoopCtx>,
    ) -> (Vec<usize>, usize) {
        let mut outs: Vec<usize> = Vec::new();
        let mut i = 0;
        let mut cur_preds = preds;
        loop {
            // `if <cond tokens> { then }`
            let cond_start = i + 1; // past `if`
            let mut j = cond_start;
            while j < stmt.len() && !matches!(&stmt[j], Tree::Group(g) if g.delim == Delim::Brace) {
                j += 1;
            }
            let cond_text = format!("if {}", self.text_of(&stmt[cond_start..j.min(stmt.len())]));
            let line = self.line_of(&stmt[i]);
            let cond = self.node(line, cond_text, &cur_preds);
            if self.has_top_level_question(&stmt[cond_start..j.min(stmt.len())]) {
                self.succ[cond].push(usize::MAX);
            }
            let Some(Tree::Group(then_g)) = stmt.get(j) else {
                // Malformed (unterminated); treat the cond as fall-through.
                return (vec![cond], stmt.len());
            };
            let then_outs = self.lower_block(&then_g.children, vec![cond], loops);
            outs.extend(then_outs);
            // `else` / `else if` / end.
            match stmt.get(j + 1).and_then(|t| self.leaf(t)) {
                Some("else") => match stmt.get(j + 2) {
                    Some(Tree::Group(else_g)) if else_g.delim == Delim::Brace => {
                        let else_outs = self.lower_block(&else_g.children, vec![cond], loops);
                        outs.extend(else_outs);
                        return (outs, j + 3);
                    }
                    Some(t) if self.leaf(t) == Some("if") => {
                        cur_preds = vec![cond];
                        i = j + 2;
                        continue;
                    }
                    _ => {
                        outs.push(cond);
                        return (outs, j + 2);
                    }
                },
                _ => {
                    // No else: the condition can fall through.
                    outs.push(cond);
                    return (outs, j + 1);
                }
            }
        }
    }

    /// `match scrutinee { arm => body, … }` at statement position.
    /// Returns `(fall-through set, siblings consumed)`.
    fn lower_match(
        &mut self,
        stmt: &[Tree],
        preds: Vec<usize>,
        loops: &mut Vec<LoopCtx>,
    ) -> (Vec<usize>, usize) {
        let mut j = 1;
        while j < stmt.len() && !matches!(&stmt[j], Tree::Group(g) if g.delim == Delim::Brace) {
            j += 1;
        }
        let scrut_text = format!("match {}", self.text_of(&stmt[1..j.min(stmt.len())]));
        let line = self.line_of(&stmt[0]);
        let scrut = self.node(line, scrut_text, &preds);
        let Some(Tree::Group(body)) = stmt.get(j) else {
            return (vec![scrut], stmt.len());
        };
        let mut outs = Vec::new();
        let ch = &body.children;
        let mut i = 0;
        while i < ch.len() {
            // Pattern tokens up to `=>`.
            let mut arrow = None;
            while i < ch.len() {
                if self.is_punct(&ch[i], "=")
                    && ch.get(i + 1).is_some_and(|t| self.is_punct(t, ">"))
                {
                    arrow = Some(i);
                    break;
                }
                i += 1;
            }
            let Some(arrow) = arrow else {
                break;
            };
            i = arrow + 2;
            // Arm body: a block, or an expression up to `,`.
            if let Some(Tree::Group(g)) = ch.get(i) {
                if g.delim == Delim::Brace {
                    outs.extend(self.lower_block(&g.children, vec![scrut], loops));
                    i += 1;
                    if ch.get(i).is_some_and(|t| self.is_punct(t, ",")) {
                        i += 1;
                    }
                    continue;
                }
            }
            let expr_start = i;
            while i < ch.len() && !self.is_punct(&ch[i], ",") {
                i += 1;
            }
            let expr = &ch[expr_start..i];
            i += 1;
            if !expr.is_empty() {
                outs.extend(self.lower_stmt(expr, vec![scrut], loops));
            } else {
                outs.push(scrut);
            }
        }
        if outs.is_empty() {
            outs.push(scrut); // empty or unparsed match body
        }
        (outs, j + 1)
    }

    /// `while`/`for`/`loop` at statement position.
    /// Returns `(fall-through set, siblings consumed)`.
    fn lower_loop(
        &mut self,
        stmt: &[Tree],
        head: &str,
        preds: Vec<usize>,
        loops: &mut Vec<LoopCtx>,
    ) -> (Vec<usize>, usize) {
        let mut j = 0;
        while j < stmt.len() && !matches!(&stmt[j], Tree::Group(g) if g.delim == Delim::Brace) {
            j += 1;
        }
        let header_text = self.text_of(&stmt[..j.min(stmt.len())]);
        let line = self.line_of(&stmt[0]);
        let header = self.node(line, header_text, &preds);
        if self.has_top_level_question(&stmt[..j.min(stmt.len())]) {
            self.succ[header].push(usize::MAX);
        }
        let Some(Tree::Group(body)) = stmt.get(j) else {
            return (vec![header], stmt.len());
        };
        loops.push(LoopCtx {
            header,
            breaks: Vec::new(),
        });
        let body_outs = self.lower_block(&body.children, vec![header], loops);
        let ctx = loops.pop().expect("pushed above");
        for o in body_outs {
            self.succ[o].push(header);
        }
        let mut outs = ctx.breaks;
        // `loop` without a break never falls through; `while`/`for` exit
        // at the header when the condition fails / iterator ends.
        if head != "loop" {
            outs.push(header);
        }
        (outs, j + 1)
    }
}

/// Renders a tree slice with a single space between adjacent word
/// tokens (`let mut x` rather than `letmutx`), leaving punctuation
/// glued (`wall_ns(`, `receipt.disk_blocks_read+=1`). Rule patterns
/// that anchor on punctuation (`rename(`, `.commit(`) are unaffected;
/// the dataflow layer needs the word boundaries to extract variables.
fn spaced_text(src: &str, toks: &[Tok], trees: &[Tree], s: &mut String) {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let push = |s: &mut String, txt: &str| {
        if s.chars().next_back().is_some_and(is_word) && txt.chars().next().is_some_and(is_word) {
            s.push(' ');
        }
        s.push_str(txt);
    };
    for t in trees {
        match t {
            Tree::Leaf(ix) => push(s, toks[*ix].text(src)),
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    Delim::Paren => ("(", ")"),
                    Delim::Bracket => ("[", "]"),
                    Delim::Brace => ("{", "}"),
                };
                push(s, open);
                spaced_text(src, toks, &g.children, s);
                push(s, close);
            }
        }
    }
}

impl Cfg {
    /// Node ids (excluding entry) whose text satisfies `pred`.
    pub fn find(&self, pred: impl Fn(&str) -> bool) -> Vec<usize> {
        (1..self.stmts.len())
            .filter(|&i| pred(&self.stmts[i].text))
            .collect()
    }

    /// A path `entry → … → target` that avoids every node satisfying
    /// `via` (the target itself is not tested). `Some(path)` is the
    /// witness that `via` does **not** always precede `target`; `None`
    /// means every path to `target` passes a `via` node first.
    pub fn path_avoiding(&self, target: usize, via: impl Fn(usize) -> bool) -> Option<Vec<usize>> {
        self.dfs(0, target, |n| n < self.stmts.len() && n != target && via(n))
    }

    /// A path `from → … → exit` avoiding every `via` node (`from` itself
    /// is not tested): the witness that `via` does **not** always follow
    /// `from` before the function returns.
    pub fn path_to_exit_avoiding(
        &self,
        from: usize,
        via: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        self.dfs(from, self.exit, |n| {
            n < self.stmts.len() && n != from && via(n)
        })
    }

    /// True when `to` is reachable from `from` (along any path).
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        self.dfs(from, to, |_| false).is_some()
    }

    fn dfs(
        &self,
        start: usize,
        target: usize,
        blocked: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        if blocked(start) {
            return None;
        }
        let mut stack = vec![(start, 0usize)];
        let mut seen = vec![false; self.stmts.len() + 1];
        seen[start] = true;
        while let Some(&(n, ei)) = stack.last() {
            if n == target {
                return Some(stack.iter().map(|&(n, _)| n).collect());
            }
            let succs: &[usize] = if n == self.exit { &[] } else { &self.succ[n] };
            if ei < succs.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let next = succs[ei];
                if !seen[next] && !blocked(next) {
                    seen[next] = true;
                    stack.push((next, 0));
                }
            } else {
                stack.pop();
            }
        }
        None
    }

    /// Renders a node path as `file:line → file:line` (consecutive
    /// duplicate lines collapsed, the synthetic entry skipped).
    pub fn witness(&self, file: &str, path: &[usize]) -> String {
        let mut hops: Vec<String> = Vec::new();
        for &n in path {
            if n == 0 || n >= self.stmts.len() {
                continue; // entry / exit
            }
            let hop = format!("{}:{}", file, self.stmts[n].line);
            if hops.last() != Some(&hop) {
                hops.push(hop);
            }
        }
        hops.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;
    use crate::tree::{build as build_trees, Tree};

    fn cfg_of(body_src: &str) -> (Cfg, String) {
        let src = format!("fn f() {body_src}");
        let toks = tokenize(&src);
        let trees = build_trees(&src, &toks);
        let body = trees
            .iter()
            .find_map(|t| match t {
                Tree::Group(g) if g.delim == Delim::Brace => Some(g),
                _ => None,
            })
            .expect("body");
        (build(&src, &toks, body), src)
    }

    fn only(cfg: &Cfg, needle: &str) -> usize {
        let found = cfg.find(|t| t.contains(needle));
        assert_eq!(found.len(), 1, "`{needle}`: {found:?}");
        found[0]
    }

    #[test]
    fn straight_line_order_holds() {
        let (cfg, _) = cfg_of("{ write(); sync(); rename(); }");
        let rename = only(&cfg, "rename(");
        assert!(cfg
            .path_avoiding(rename, |n| cfg.stmts[n].text.contains("sync("))
            .is_none());
        let sync = only(&cfg, "sync(");
        assert!(cfg
            .path_avoiding(sync, |n| cfg.stmts[n].text.contains("rename("))
            .is_some());
    }

    #[test]
    fn branches_create_a_bypass() {
        let (cfg, _) = cfg_of("{ if fast { } else { sync(); } rename(); }");
        let rename = only(&cfg, "rename(");
        let path = cfg
            .path_avoiding(rename, |n| cfg.stmts[n].text.contains("sync("))
            .expect("the then-branch skips the sync");
        assert!(path.contains(&rename));
    }

    #[test]
    fn early_return_cuts_fall_through() {
        let (cfg, _) = cfg_of("{ if bad { return Err(e); } commit(); }");
        let commit = only(&cfg, "commit(");
        // The return path does not reach commit; the fall-through does.
        assert!(cfg.reaches(0, commit));
        let ret = only(&cfg, "return");
        assert!(!cfg.reaches(ret, commit));
    }

    #[test]
    fn loops_edge_back_and_breaks_exit() {
        let (cfg, _) = cfg_of("{ for x in xs { gc(x); } commit(); }");
        let gc = only(&cfg, "gc(");
        let commit = only(&cfg, "commit(");
        assert!(cfg.reaches(gc, commit), "loop exits through the header");
        // And the reverse: commit after the loop cannot reach back to gc.
        assert!(!cfg.reaches(commit, gc));
    }

    #[test]
    fn question_mark_edges_to_exit() {
        let (cfg, _) = cfg_of("{ let x = fallible()?; commit(); }");
        let fallible = only(&cfg, "fallible(");
        assert!(cfg
            .path_to_exit_avoiding(fallible, |n| cfg.stmts[n].text.contains("commit("))
            .is_some());
    }

    #[test]
    fn match_arms_fork_and_rejoin() {
        let (cfg, _) = cfg_of("{ match mode { M::A => { sync(); } M::B => other(), } rename(); }");
        let rename = only(&cfg, "rename(");
        let path = cfg
            .path_avoiding(rename, |n| cfg.stmts[n].text.contains("sync("))
            .expect("arm B bypasses the sync");
        assert!(path.iter().any(|&n| cfg.stmts[n].text.contains("other(")));
    }

    #[test]
    fn witness_renders_lines() {
        let (cfg, _) = cfg_of("{ a();\n b();\n c(); }");
        let c = only(&cfg, "c(");
        let path = cfg.path_avoiding(c, |_| false).expect("reachable");
        let w = cfg.witness("x.rs", &path);
        assert!(w.contains(" → "), "{w}");
        assert!(w.ends_with(&format!("x.rs:{}", cfg.stmts[c].line)), "{w}");
    }
}
