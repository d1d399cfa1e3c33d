//! The workspace call graph: the interprocedural half of the analyzer.
//!
//! Built from the token trees ([`crate::tree`]), not from names alone:
//! function items are discovered with their `impl` block so methods are
//! receiver-qualified (`Manifest::commit`, not just `commit`), and every
//! call site in a body becomes an edge to the set of functions it *may*
//! resolve to. The passes ([`crate::passes`]) run reachability queries
//! over this graph: KVS-L014 (blocking calls reachable from a declared
//! non-blocking zone), KVS-L016 (deadline threading across call sites)
//! and the KVS-L009 one-level lock propagation all share it.
//!
//! Resolution is deliberately conservative (may-call, never must-call):
//!
//! * **free calls** `f(…)` resolve same-file first, then same-crate,
//!   then workspace-wide by name;
//! * **`self.m(…)`** resolves to methods named `m` on the enclosing
//!   `impl`/`trait` type in the same crate, falling back to the file;
//! * **path calls** `Type::f(…)` resolve to `f` on `Type` anywhere,
//!   falling back to every `f`;
//! * **method calls** `x.m(…)` are trait-method edges by name: they
//!   fan out to *every* method named `m` in the workspace. These
//!   may-call edges stay in the graph for queries that want the full
//!   over-approximation, but the reachability passes do not traverse
//!   them (bare names like `get` alias everywhere); a blocking method
//!   call still surfaces through the callee's recorded [`FnInfo::ops`].
//!
//! Closures passed to `spawn` run on another thread: their bodies become
//! synthetic root functions (`outer::spawn@line`) with **no** edge from
//! the spawning function, so a non-blocking zone does not inherit the
//! blocking work it hands off.
//!
//! A `// LINT-ZONE: <tag>` comment within the three lines above a `fn`
//! attaches `tag` to that function (the L014 `nonblocking` roots).

use std::collections::BTreeMap;

use crate::rules::Workspace;
use crate::scan::SourceFile;
use crate::token::{Tok, TokKind};
use crate::tree::{self, is_ident, is_punct, leaf_line, leaf_text, Delim, Group, Tree};

/// How a call site was written, which decides how it resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `f(…)` — a bare free-function call.
    Free,
    /// `self.m(…)` — a method call on the enclosing impl type.
    SelfMethod,
    /// `x.m(…)` — a method call on anything else (may-call by name).
    Method,
    /// `Type::f(…)` — a path-qualified call.
    Path,
}

/// One function (or spawn-closure) node.
#[derive(Debug)]
pub struct FnInfo {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Function name; spawn closures get `outer::spawn@<line>`.
    pub name: String,
    /// Enclosing `impl`/`trait` type, when the fn is a method.
    pub receiver: Option<String>,
    /// 1-based line of the `fn` keyword (or the `spawn` call).
    pub line: usize,
    /// First and last line of the body — used to find the enclosing
    /// function of an arbitrary source line.
    pub body_lines: (usize, usize),
    /// Parameter names in order, `self` excluded (so indices line up
    /// with call-site argument lists).
    pub params: Vec<String>,
    /// `LINT-ZONE:` tag attached by an anchor comment above the fn.
    pub zone: Option<String>,
    /// True for synthetic spawn-closure roots.
    pub is_spawn_root: bool,
    /// Every call name that appears directly in this body (nested fns
    /// and spawn closures excluded), with its line: `(line, name)`.
    /// The passes match these against their blocking-op name sets.
    pub ops: Vec<(usize, String)>,
}

/// One resolved call edge out of a function.
#[derive(Debug)]
pub struct CallEdge {
    /// Index of the callee in [`CallGraph::fns`].
    pub callee: usize,
    /// Call-site line in the caller's file.
    pub line: usize,
    /// Callee name as written at the call site.
    pub name: String,
    /// Call shape.
    pub kind: EdgeKind,
    /// Flattened text of each argument, in order.
    pub args: Vec<String>,
}

/// The graph: nodes plus per-node adjacency.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes.
    pub fns: Vec<FnInfo>,
    /// `edges[i]` = resolved calls out of `fns[i]`.
    pub edges: Vec<Vec<CallEdge>>,
}

/// An unresolved call collected during the tree walk.
struct RawCall {
    caller: usize,
    name: String,
    /// `Type` for `Type::f(…)` path calls.
    qualifier: Option<String>,
    kind: EdgeKind,
    line: usize,
    args: Vec<String>,
}

/// Keywords that look like `ident(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "move", "in", "as", "ref", "mut", "unsafe", "await",
];

struct Builder<'w> {
    ws: &'w Workspace,
    fns: Vec<FnInfo>,
    raw: Vec<RawCall>,
}

/// Builds the call graph over every scanned file. Functions inside test
/// regions are skipped — the graph models the production call structure.
pub fn build(ws: &Workspace) -> CallGraph {
    let mut b = Builder {
        ws,
        fns: Vec::new(),
        raw: Vec::new(),
    };
    for (fix, f) in ws.files.iter().enumerate() {
        b.walk_items(fix, &f.text, &f.toks, &f.trees, None);
    }
    b.resolve()
}

impl<'w> Builder<'w> {
    fn file(&self, fix: usize) -> &'w SourceFile {
        &self.ws.files[fix]
    }

    /// Walks a sibling list at item level: `impl`/`trait` blocks set the
    /// receiver for the fns inside, `fn` items are registered, any other
    /// group is descended into.
    fn walk_items(
        &mut self,
        fix: usize,
        src: &str,
        toks: &[Tok],
        trees: &[Tree],
        receiver: Option<&str>,
    ) {
        let mut i = 0;
        while i < trees.len() {
            if let Some(text) = leaf_text(src, toks, &trees[i]) {
                if text == "fn" {
                    if let Some(next) = self.register_fn(fix, src, toks, trees, i, receiver) {
                        i = next;
                        continue;
                    }
                }
                if text == "impl" || text == "trait" {
                    if let Some((ty, body_ix)) = impl_target(src, toks, trees, i) {
                        if let Tree::Group(g) = &trees[body_ix] {
                            self.walk_items(fix, src, toks, &g.children, Some(&ty));
                        }
                        i = body_ix + 1;
                        continue;
                    }
                }
            }
            if let Tree::Group(g) = &trees[i] {
                self.walk_items(fix, src, toks, &g.children, None);
            }
            i += 1;
        }
    }

    /// Registers the fn whose `fn` keyword sits at sibling `i` and walks
    /// its body for calls. Returns the sibling index past the body.
    fn register_fn(
        &mut self,
        fix: usize,
        src: &str,
        toks: &[Tok],
        trees: &[Tree],
        i: usize,
        receiver: Option<&str>,
    ) -> Option<usize> {
        let Tree::Leaf(fn_ix) = trees[i] else {
            return None;
        };
        let name = match trees.get(i + 1) {
            Some(Tree::Leaf(ix)) if toks[*ix].kind == TokKind::Ident => {
                toks[*ix].text(src).to_string()
            }
            _ => return None,
        };
        // Signature = first paren group before the body; body = first
        // brace group; a `;` first means a bodiless trait declaration.
        let mut sig: Option<&Group> = None;
        let mut body: Option<(&Group, usize)> = None;
        for (j, t) in trees.iter().enumerate().skip(i + 2) {
            match t {
                Tree::Leaf(ix) => {
                    if toks[*ix].kind == TokKind::Punct && toks[*ix].text(src) == ";" {
                        return Some(j + 1);
                    }
                }
                Tree::Group(g) if g.delim == Delim::Paren && sig.is_none() => sig = Some(g),
                Tree::Group(g) if g.delim == Delim::Brace => {
                    body = Some((g, j));
                    break;
                }
                Tree::Group(_) => {}
            }
        }
        let (body, body_at) = body?;
        let line = toks[fn_ix].line;
        let f = self.file(fix);
        if f.line_in_test(line) {
            return Some(body_at + 1); // test-only fn: not part of the graph
        }
        let end_line = body.close.map(|c| toks[c].line).unwrap_or(line);
        let id = self.fns.len();
        self.fns.push(FnInfo {
            file: f.rel.clone(),
            name,
            receiver: receiver.map(str::to_string),
            line,
            body_lines: (line, end_line),
            params: sig.map(|g| params_of(src, toks, g)).unwrap_or_default(),
            zone: zone_of(f, line),
            is_spawn_root: false,
            ops: Vec::new(),
        });
        self.walk_body(fix, id, src, toks, &body.children);
        Some(body_at + 1)
    }

    /// Walks a body sibling list collecting calls and ops for `caller`.
    /// Nested `fn` items and `spawn(…)` closures become their own nodes.
    fn walk_body(&mut self, fix: usize, caller: usize, src: &str, toks: &[Tok], trees: &[Tree]) {
        let mut i = 0;
        while i < trees.len() {
            if leaf_text(src, toks, &trees[i]) == Some("fn") {
                if let Some(next) = self.register_fn(fix, src, toks, trees, i, None) {
                    i = next;
                    continue;
                }
            }
            if is_ident(toks, &trees[i])
                && matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == Delim::Paren)
            {
                let name = leaf_text(src, toks, &trees[i]).unwrap_or("").to_string();
                let line = leaf_line(toks, &trees[i]);
                let Some(Tree::Group(argg)) = trees.get(i + 1) else {
                    unreachable!("matched above");
                };
                if name == "spawn" {
                    // Another thread: the closure is a fresh root with no
                    // edge from the spawner.
                    let outer = self.fns[caller].name.clone();
                    let file = self.fns[caller].file.clone();
                    let id = self.fns.len();
                    self.fns.push(FnInfo {
                        file,
                        name: format!("{outer}::spawn@{line}"),
                        receiver: None,
                        line,
                        body_lines: (line, toks[argg.close.unwrap_or(argg.open)].line),
                        params: Vec::new(),
                        zone: None,
                        is_spawn_root: true,
                        ops: Vec::new(),
                    });
                    self.walk_body(fix, id, src, toks, &argg.children);
                    i += 2;
                    continue;
                }
                if !NON_CALL_KEYWORDS.contains(&name.as_str()) {
                    let (kind, qualifier) = call_shape(src, toks, trees, i);
                    self.fns[caller].ops.push((line, name.clone()));
                    self.raw.push(RawCall {
                        caller,
                        name,
                        qualifier,
                        kind,
                        line,
                        args: split_args(src, toks, argg),
                    });
                }
            }
            if let Tree::Group(g) = &trees[i] {
                self.walk_body(fix, caller, src, toks, &g.children);
            }
            i += 1;
        }
    }

    /// Resolves every raw call to its may-call target set.
    fn resolve(self) -> CallGraph {
        let Builder { fns, raw, .. } = self;
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (ix, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(ix);
        }
        let mut edges: Vec<Vec<CallEdge>> = (0..fns.len()).map(|_| Vec::new()).collect();
        for call in raw {
            let candidates = by_name.get(call.name.as_str()).map_or(&[][..], |v| v);
            let caller = &fns[call.caller];
            let pick: Vec<usize> = match call.kind {
                EdgeKind::Free => narrow(candidates, &fns, |f| {
                    if f.file == caller.file {
                        2
                    } else if same_crate(&f.file, &caller.file) {
                        1
                    } else {
                        0
                    }
                }),
                EdgeKind::SelfMethod => {
                    let same_recv: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&ix| {
                            fns[ix].receiver == caller.receiver
                                && caller.receiver.is_some()
                                && same_crate(&fns[ix].file, &caller.file)
                        })
                        .collect();
                    if !same_recv.is_empty() {
                        same_recv
                    } else {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&ix| fns[ix].file == caller.file)
                            .collect()
                    }
                }
                EdgeKind::Path => {
                    let on_type: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&ix| fns[ix].receiver.as_deref() == call.qualifier.as_deref())
                        .collect();
                    if !on_type.is_empty() {
                        on_type
                    } else {
                        candidates.to_vec()
                    }
                }
                EdgeKind::Method => candidates
                    .iter()
                    .copied()
                    .filter(|&ix| fns[ix].receiver.is_some())
                    .collect(),
            };
            for callee in pick {
                if callee == call.caller {
                    continue; // self-recursion adds nothing to reachability
                }
                edges[call.caller].push(CallEdge {
                    callee,
                    line: call.line,
                    name: call.name.clone(),
                    kind: call.kind,
                    args: call.args.clone(),
                });
            }
        }
        CallGraph { fns, edges }
    }
}

impl CallGraph {
    /// The innermost function whose body spans `line` in `file`.
    pub fn fn_enclosing(&self, file: &str, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.body_lines.0 <= line && line <= f.body_lines.1)
            .min_by_key(|(_, f)| f.body_lines.1 - f.body_lines.0)
            .map(|(ix, _)| ix)
    }

    /// The node whose `fn` keyword sits exactly at `(file, line)`.
    pub fn fn_at(&self, file: &str, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.file == file && f.line == line && !f.is_spawn_root)
    }

    /// Every `(caller, edge)` pair targeting `callee`.
    pub fn callers(&self, callee: usize) -> Vec<(usize, &CallEdge)> {
        let mut out = Vec::new();
        for (caller, es) in self.edges.iter().enumerate() {
            for e in es {
                if e.callee == callee {
                    out.push((caller, e));
                }
            }
        }
        out
    }

    /// Breadth-first search from `root`; returns, for each reached node,
    /// its BFS parent and the call-site line of the edge used — enough to
    /// rebuild a witness chain.
    pub fn bfs(&self, root: usize) -> BTreeMap<usize, (usize, usize)> {
        let mut parent: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([root]);
        let mut seen = vec![false; self.fns.len()];
        seen[root] = true;
        while let Some(n) = queue.pop_front() {
            for e in &self.edges[n] {
                if !seen[e.callee] {
                    seen[e.callee] = true;
                    parent.insert(e.callee, (n, e.line));
                    queue.push_back(e.callee);
                }
            }
        }
        parent
    }

    /// The `root → … → node` witness as `file:line` hops: the root's
    /// definition, each call site along the BFS tree, then `last_line` in
    /// the final node's file (the offending op).
    pub fn witness(
        &self,
        root: usize,
        node: usize,
        parent: &BTreeMap<usize, (usize, usize)>,
        last_line: usize,
    ) -> String {
        let mut hops: Vec<String> = Vec::new();
        let mut cur = node;
        while cur != root {
            let Some(&(p, via_line)) = parent.get(&cur) else {
                break;
            };
            hops.push(format!("{}:{}", self.fns[p].file, via_line));
            cur = p;
        }
        hops.reverse();
        let mut chain = vec![format!("{}:{}", self.fns[root].file, self.fns[root].line)];
        chain.extend(hops);
        chain.push(format!("{}:{}", self.fns[node].file, last_line));
        chain.dedup();
        chain.join(" → ")
    }
}

fn same_crate(a: &str, b: &str) -> bool {
    let key = |p: &str| p.splitn(3, '/').take(2).collect::<Vec<_>>().join("/");
    key(a) == key(b)
}

/// Picks the candidates with the highest score, if any score > 0;
/// otherwise returns all candidates (workspace-wide fallback).
fn narrow(candidates: &[usize], fns: &[FnInfo], score: impl Fn(&FnInfo) -> u8) -> Vec<usize> {
    let best = candidates
        .iter()
        .map(|&ix| score(&fns[ix]))
        .max()
        .unwrap_or(0);
    candidates
        .iter()
        .copied()
        .filter(|&ix| score(&fns[ix]) == best)
        .collect()
}

/// Classifies the call whose name leaf sits at sibling `i`.
fn call_shape(src: &str, toks: &[Tok], trees: &[Tree], i: usize) -> (EdgeKind, Option<String>) {
    if i >= 1 && is_punct(src, toks, &trees[i - 1], ".") {
        let on_self = i >= 2
            && leaf_text(src, toks, &trees[i - 2]) == Some("self")
            && (i < 3 || !is_punct(src, toks, &trees[i - 3], "."));
        return if on_self {
            (EdgeKind::SelfMethod, None)
        } else {
            (EdgeKind::Method, None)
        };
    }
    if i >= 2 && is_punct(src, toks, &trees[i - 1], ":") && is_punct(src, toks, &trees[i - 2], ":")
    {
        let qualifier = trees
            .get(i.wrapping_sub(3))
            .filter(|_| i >= 3)
            .and_then(|t| leaf_text(src, toks, t))
            .map(str::to_string);
        return (EdgeKind::Path, qualifier);
    }
    (EdgeKind::Free, None)
}

/// Flattened text of each top-level comma-separated argument.
fn split_args(src: &str, toks: &[Tok], args: &Group) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur: Vec<&Tree> = Vec::new();
    for t in &args.children {
        if is_punct(src, toks, t, ",") {
            out.push(flat_text(src, toks, &cur));
            cur.clear();
        } else {
            cur.push(t);
        }
    }
    if !cur.is_empty() {
        out.push(flat_text(src, toks, &cur));
    }
    out
}

fn flat_text(src: &str, toks: &[Tok], trees: &[&Tree]) -> String {
    let mut s = String::new();
    for t in trees {
        s.push_str(&tree::text_of(src, toks, std::slice::from_ref(*t)));
    }
    s
}

/// Parameter names from a signature paren group, `self` excluded.
/// Pattern parameters (`(a, b): (u32, u32)`) contribute no name.
fn params_of(src: &str, toks: &[Tok], sig: &Group) -> Vec<String> {
    let mut segs: Vec<Vec<&Tree>> = vec![Vec::new()];
    for t in &sig.children {
        if is_punct(src, toks, t, ",") {
            segs.push(Vec::new());
        } else {
            segs.last_mut().expect("always non-empty").push(t);
        }
    }
    let mut out = Vec::new();
    for seg in segs {
        let mut name: Option<String> = None;
        for t in seg {
            if is_punct(src, toks, t, ":") {
                break;
            }
            match leaf_text(src, toks, t) {
                Some("mut") | Some("&") => continue,
                Some(s) if s.starts_with('\'') => continue,
                Some("self") => break,
                Some(s) if matches!(t, Tree::Leaf(ix) if toks[*ix].kind == TokKind::Ident) => {
                    name = Some(s.to_string());
                    break;
                }
                _ => break, // pattern parameter: no single name
            }
        }
        if let Some(n) = name {
            out.push(n);
        }
    }
    out
}

/// The `impl`/`trait` target type and the sibling index of its brace
/// body, starting from the keyword at `i`. For `impl Trait for Type` the
/// target is `Type`.
fn impl_target(src: &str, toks: &[Tok], trees: &[Tree], i: usize) -> Option<(String, usize)> {
    let mut ty: Option<String> = None;
    let mut after_for = false;
    let mut angle_depth = 0i32;
    for (j, t) in trees.iter().enumerate().skip(i + 1) {
        match t {
            Tree::Leaf(ix) => {
                let text = toks[*ix].text(src);
                match text {
                    "<" => angle_depth += 1,
                    ">" => angle_depth -= 1,
                    "for" => {
                        after_for = true;
                        ty = None;
                    }
                    ";" => return None, // `impl Trait for Type;` — no body
                    _ if toks[*ix].kind == TokKind::Ident
                        && angle_depth == 0
                        && (ty.is_none() || after_for) =>
                    {
                        ty = Some(text.to_string());
                        after_for = false;
                    }
                    _ => {}
                }
            }
            Tree::Group(g) if g.delim == Delim::Brace => {
                return ty.map(|ty| (ty, j));
            }
            Tree::Group(_) => {}
        }
    }
    None
}

/// The `LINT-ZONE:` tag from a comment within the three lines above
/// `fn_line`. Attribute and comment lines in between are allowed, but
/// any other code line ends the search — the anchor binds to the *next*
/// function only, never through a neighbour's definition.
fn zone_of(f: &SourceFile, fn_line: usize) -> Option<String> {
    let first = fn_line.saturating_sub(4).max(1);
    for n in (first..fn_line).rev() {
        let l = &f.lines[n - 1];
        if let Some(pos) = l.comment.find("LINT-ZONE:") {
            let tag = l.comment[pos + "LINT-ZONE:".len()..].trim();
            let tag: String = tag
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !tag.is_empty() {
                return Some(tag);
            }
        }
        let code = l.code.trim();
        if !code.is_empty() && !code.starts_with("#[") {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let ws = Workspace {
            files: files
                .iter()
                .map(|(rel, text)| SourceFile::scan(rel, text))
                .collect(),
            net_md: None,
            store_md: None,
        };
        build(&ws)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn free_calls_prefer_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/net/src/a.rs",
                "fn helper() {} fn top() { helper(); }",
            ),
            ("crates/store/src/b.rs", "fn helper() {}"),
        ]);
        let top = node(&g, "top");
        let targets: Vec<&str> = g.edges[top]
            .iter()
            .map(|e| g.fns[e.callee].file.as_str())
            .collect();
        assert_eq!(targets, vec!["crates/net/src/a.rs"]);
    }

    #[test]
    fn impl_receivers_qualify_methods_and_self_calls_resolve() {
        let src = "struct M; impl M { fn commit(&self) { self.sync(); } fn sync(&self) {} }";
        let g = graph(&[("crates/store/src/m.rs", src)]);
        let commit = node(&g, "commit");
        assert_eq!(g.fns[commit].receiver.as_deref(), Some("M"));
        assert_eq!(g.edges[commit].len(), 1);
        assert_eq!(g.fns[g.edges[commit][0].callee].name, "sync");
    }

    #[test]
    fn method_calls_fan_out_by_name_and_path_calls_respect_the_type() {
        let src = "struct A; struct B;\n\
                   impl A { fn go(&self) {} }\n\
                   impl B { fn go(&self) {} }\n\
                   fn m(a: &A) { a.go(); }\n\
                   fn p() { A::go(&A); }";
        let g = graph(&[("crates/net/src/x.rs", src)]);
        let m = node(&g, "m");
        assert_eq!(g.edges[m].len(), 2, "may-call fans out to both impls");
        let p = node(&g, "p");
        assert_eq!(g.edges[p].len(), 1, "path call resolves on the type");
        assert_eq!(g.fns[g.edges[p][0].callee].receiver.as_deref(), Some("A"));
    }

    #[test]
    fn spawn_closures_are_separate_roots() {
        let src = "fn outer() { std::thread::spawn(move || { blocking(); }); }\n\
                   fn blocking() {}";
        let g = graph(&[("crates/net/src/x.rs", src)]);
        let outer = node(&g, "outer");
        assert!(
            g.edges[outer]
                .iter()
                .all(|e| g.fns[e.callee].name != "blocking"),
            "the spawned closure's calls must not be the spawner's"
        );
        let closure = g.fns.iter().position(|f| f.is_spawn_root).unwrap();
        assert!(g.fns[closure].name.starts_with("outer::spawn@"));
        assert_eq!(g.edges[closure].len(), 1);
    }

    #[test]
    fn zones_params_and_witnesses() {
        let src = "// LINT-ZONE: nonblocking\n\
                   fn root(deadline: u64) { mid(deadline); }\n\
                   fn mid(d: u64) { leaf(d); }\n\
                   fn leaf(d: u64) {}";
        let g = graph(&[("crates/net/src/x.rs", src)]);
        let root = node(&g, "root");
        assert_eq!(g.fns[root].zone.as_deref(), Some("nonblocking"));
        assert_eq!(g.fns[root].params, vec!["deadline"]);
        let leaf = node(&g, "leaf");
        let parent = g.bfs(root);
        assert!(parent.contains_key(&leaf));
        let w = g.witness(root, leaf, &parent, 4);
        assert_eq!(
            w,
            "crates/net/src/x.rs:2 → crates/net/src/x.rs:3 → crates/net/src/x.rs:4"
        );
    }

    #[test]
    fn test_functions_stay_out_of_the_graph() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { live(); }\n}";
        let g = graph(&[("crates/net/src/x.rs", src)]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "live");
    }
}
