//! Gen/kill worklist dataflow over the per-function CFGs, made
//! interprocedural with bottom-up function summaries.
//!
//! Layers, bottom to top:
//!
//! * [`fixpoint`] — a forward worklist engine over a [`Cfg`]'s blocks:
//!   facts are interned `u32`s, the join is set union (a may-analysis),
//!   and the caller supplies a monotone transfer function. The pure
//!   gen/kill form ([`forward_gen_kill`]) is what the property suite
//!   exercises: `out[n] = (in[n] \ kill[n]) ∪ gen[n]`, `in[n] = ⋃
//!   out[pred]`, iterated to a fixed point.
//! * **Taint analysis** ([`TaintSummaries`]) — facts are `(origin,
//!   variable)` pairs: the origin is either a function parameter or an
//!   in-function source site (a statement matching a source pattern
//!   such as `from_be_bytes(`, or one annotated `// LINT-TAINT-SOURCE`).
//!   Assignments propagate taint from right to left, reassignment from
//!   a clean expression kills, and a *validated bound* kills the
//!   compared variable: a comparison against an ALL-CAPS constant, an
//!   integer literal or `::MAX`/`::MIN` (`if len > MAX_PAYLOAD {…}`),
//!   or a `.min(…)`/`.clamp(…)` call. Sinks are configured per rule
//!   ([`TaintSpec`]): allocation calls, slice indexing, loop bounds.
//! * **Summaries** — per function: which parameters flow to the return
//!   value unsanitized (`param_to_return`), which parameters reach a
//!   sink (`param_sink`, the param→sink *obligation* a caller
//!   discharges by sanitizing the argument), and whether the return
//!   value carries source taint (`returns_source`). Summaries are
//!   computed bottom-up over an SCC condensation of the workspace call
//!   graph (Tarjan), iterating each strongly-connected component to a
//!   fixed point so mutual recursion converges; only resolved
//!   `Free`/`SelfMethod`/`Path` edges are followed (may-call `Method`
//!   edges alias bare names workspace-wide and would drown the
//!   analysis in false flows — same boundary as KVS-L014).
//! * **Must-reach obligations** ([`uncharged_paths`]) — the dual shape
//!   KVS-L019 needs: a statement performing a disk block read creates
//!   an obligation that every path to the exit must discharge at a
//!   charge statement; the read's own `?` error edge is exempt (a
//!   failed read moved no bytes). Implemented on the same gen/kill
//!   engine: the obligation is seeded on the read's non-exit,
//!   non-charge successors, killed at charges, and any obligation
//!   alive at the exit is a violation.
//!
//! Witnesses are rendered as `file:line → file:line` chains, same as
//! the call-graph rules; interprocedural flows splice the callee's
//! chain onto the caller's call site.
//!
//! Precision boundaries (documented so nobody re-learns them): the
//! analysis is flow-sensitive but path-insensitive — a bound check
//! sanitizes both branches below it; expression-position branches are
//! one CFG node, so taint through them is joined; `spawn` closure
//! bodies are flattened into their statement (no separate summary);
//! struct-field taint is tracked by field *name* within one function
//! and crosses function boundaries only through arguments and returns.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, EdgeKind};
use crate::cfg::{self, Cfg};
use crate::rules::Workspace;
use crate::scan::SourceFile;
use crate::tree;

/// A set of interned dataflow facts.
pub type FactSet = BTreeSet<u32>;

/// Per-node fixed-point states: `ins[n]` is the join over predecessor
/// outs, `outs[n] = transfer(n, ins[n])`. Index `cfg.exit` is the
/// synthetic exit (its in-state is the "what survives to return" set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// In-state per node (`0 ..= exit`).
    pub ins: Vec<FactSet>,
    /// Out-state per node (`outs[exit] == ins[exit]`).
    pub outs: Vec<FactSet>,
}

/// Runs a forward may-analysis to a fixed point over `succ`/`exit`
/// (the shape of [`Cfg::succ`]/[`Cfg::exit`]). `transfer` must be
/// monotone in its fact-set argument; with finitely many facts the
/// worklist then terminates. A hard iteration valve (documented, never
/// hit by a monotone transfer) bounds adversarial inputs.
pub fn fixpoint(
    succ: &[Vec<usize>],
    exit: usize,
    transfer: impl Fn(usize, &FactSet) -> FactSet,
) -> Flow {
    let n = exit + 1;
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ss) in succ.iter().enumerate() {
        for &v in ss {
            if v < n {
                preds[v].push(u);
            }
        }
    }
    let mut ins = vec![FactSet::new(); n];
    let mut outs = vec![FactSet::new(); n];
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    // Safety valve: a monotone transfer changes each node's out-state
    // at most once per fact, so pops are bounded by n * (facts + 1);
    // this cap only matters for a buggy, oscillating transfer.
    let mut budget = 1_000_000usize;
    while let Some(u) = work.pop_front() {
        queued[u] = false;
        if budget == 0 {
            break;
        }
        budget -= 1;
        let mut inp = FactSet::new();
        for &p in &preds[u] {
            inp.extend(outs[p].iter().copied());
        }
        let out = if u == exit {
            inp.clone()
        } else {
            transfer(u, &inp)
        };
        ins[u] = inp;
        if out != outs[u] {
            outs[u] = out;
            let ss: &[usize] = if u == exit { &[] } else { &succ[u] };
            for &v in ss {
                if v < n && !queued[v] {
                    queued[v] = true;
                    work.push_back(v);
                }
            }
        }
    }
    Flow { ins, outs }
}

/// The pure gen/kill form: `out[n] = (in[n] \ kill[n]) ∪ gen[n]`.
pub fn forward_gen_kill(
    succ: &[Vec<usize>],
    exit: usize,
    gen: &[FactSet],
    kill: &[FactSet],
) -> Flow {
    fixpoint(succ, exit, |u, inp| {
        let mut out: FactSet = inp.difference(&kill[u]).copied().collect();
        out.extend(gen[u].iter().copied());
        out
    })
}

/// Where a taint fact came from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    /// The `i`-th parameter of the function under analysis.
    Param(usize),
    /// A source statement inside the function: line + what matched
    /// (a source pattern, a tainted callee return, or the
    /// `LINT-TAINT-SOURCE` annotation).
    Source {
        /// 1-based line of the source statement.
        line: usize,
        /// Human-readable description of the source.
        what: String,
    },
}

/// A taint fact: this `var` carries taint from `origin`.
pub type Fact = (Origin, String);

/// What a rule considers a source and a sink.
pub struct TaintSpec<'a> {
    /// Substring patterns whose presence in an assignment's right-hand
    /// side marks the defined variables as tainted
    /// (e.g. `"from_be_bytes("`).
    pub sources: &'a [&'a str],
    /// `(pattern, kind)` sink calls: a tainted variable inside the
    /// argument list of `pattern` is a violation of kind `kind`
    /// (e.g. `("with_capacity(", "allocation")`).
    pub sink_calls: &'a [(&'a str, &'a str)],
    /// Also treat slice indexing (`buf[.. v]`) and loop bounds
    /// (`for`/`while` headers mentioning a tainted variable) as sinks.
    pub index_sinks: bool,
}

/// A sink reached by tainted data, with the in-function witness chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkHit {
    /// 1-based line of the sink statement (in the function's file).
    pub line: usize,
    /// Sink kind, e.g. `allocation (Vec::with_capacity)`.
    pub kind: String,
    /// `file:line → file:line` chain from the taint's origin to the
    /// sink; interprocedural hits splice the callee chain on.
    pub chain: String,
}

/// A source-originated flow that reached a sink — a direct violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSink {
    /// Line of the source statement.
    pub source_line: usize,
    /// What made it a source.
    pub what: String,
    /// The sink it reached.
    pub hit: SinkHit,
}

/// One function's taint summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnTaint {
    /// `param_to_return[i]`: parameter `i` flows to the return value
    /// without passing a validated bound.
    pub param_to_return: Vec<bool>,
    /// The return value carries taint originating *inside* the
    /// function (or a callee), e.g. a wire decode or a clock read.
    pub returns_source: bool,
    /// `param_sink[i]`: parameter `i` reaches a sink unsanitized — the
    /// obligation a caller discharges by bounding the argument.
    pub param_sink: Vec<Option<SinkHit>>,
    /// Source→sink flows wholly inside (or through callees of) this
    /// function: the rule's direct findings.
    pub source_sinks: Vec<SourceSink>,
}

/// Bottom-up taint summaries for every function in the call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSummaries {
    /// Indexed like [`CallGraph::fns`].
    pub by_fn: Vec<FnTaint>,
}

// ---------------------------------------------------------------------
// Statement parsing (over the CFG's word-separated statement text).

/// Iterates the identifier words of `text` as `(byte_start, word)`,
/// skipping double-quoted string literals.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut in_str = false;
    while i < b.len() {
        let c = b[i] as char;
        if in_str {
            if c == '\\' {
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        if c == '"' {
            in_str = true;
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push((start, &text[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

const KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "if", "else", "match", "for", "while", "loop", "in", "as", "move",
    "return", "break", "continue", "fn", "pub", "self", "Self", "true", "false", "await",
];

fn is_var_word(w: &str) -> bool {
    !KEYWORDS.contains(&w) && w.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
}

/// Whether `word` occurs in `text` as a whole identifier.
fn mentions(text: &str, word: &str) -> bool {
    idents(text).iter().any(|(_, w)| *w == word)
}

/// Splits `text` at the top-level assignment operator, returning
/// `(lhs, rhs, compound)`. `compound` is true for `+=`-style operators
/// (the left side keeps feeding the right).
fn split_assign(text: &str) -> Option<(&str, &str, bool)> {
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        if in_str {
            if c == '\\' {
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        match c {
            '"' => in_str = true,
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '=' if depth == 0 => {
                let next = b.get(i + 1).map(|&c| c as char);
                let prev = i.checked_sub(1).map(|j| b[j] as char);
                if next == Some('=') || next == Some('>') {
                    i += 2;
                    continue;
                }
                match prev {
                    // ==, <=, >=, !=, ..= are comparisons / ranges.
                    Some('=') | Some('<') | Some('>') | Some('!') | Some('.') => {}
                    // +=, -=, *=, /=, %=, &=, |=, ^=, <<=, >>=
                    Some('+') | Some('-') | Some('*') | Some('/') | Some('%') | Some('&')
                    | Some('|') | Some('^') => {
                        return Some((&text[..i - 1], &text[i + 1..], true));
                    }
                    _ => return Some((&text[..i], &text[i + 1..], false)),
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Variables defined (written) by the statement: the lowercase
/// identifiers of the assignment pattern (`let (a, b) = …`, `x = …`,
/// `*s = …`, `self.field = …` → `field`).
fn defs_of(lhs: &str) -> Vec<String> {
    idents(lhs)
        .iter()
        .filter(|(_, w)| is_var_word(w))
        .map(|(_, w)| w.to_string())
        .collect()
}

/// True when `w` looks like a bound: an ALL-CAPS constant
/// (`MAX_PAYLOAD`), or a numeric-literal-looking word (`0u64`).
fn is_bound_word(w: &str) -> bool {
    (w.len() >= 2
        && w.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        || w.starts_with(|c: char| c.is_ascii_digit())
}

/// Variables sanitized by this statement: compared against a validated
/// bound (`v > MAX_PAYLOAD`, `LIMIT >= v`, `v < 16`, `x::MAX > v`) or
/// clamped (`v.min(…)`, `v.clamp(…)`). Equality comparisons do not
/// sanitize — checking a checksum is not bounding a length.
fn sanitized_vars(text: &str, candidates: &BTreeSet<&str>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if candidates.is_empty() {
        return out;
    }
    let b = text.as_bytes();
    for (start, w) in idents(text) {
        if !candidates.contains(w) {
            continue;
        }
        let end = start + w.len();
        // v.min( / v.clamp(
        let rest = &text[end..];
        if rest.starts_with(".min(") || rest.starts_with(".clamp(") {
            out.insert(w.to_string());
            continue;
        }
        // A comparison operator adjacent to the variable, with a
        // bound-looking word on the far side (scan a short window).
        let cmp_after = rest.starts_with('<') && !rest.starts_with("<<")
            || rest.starts_with('>') && !rest.starts_with(">>");
        let before = &text[..start];
        let cmp_before = (before.ends_with('<')
            || before.ends_with('>')
            || before.ends_with("<=")
            || before.ends_with(">="))
            && !before.ends_with("<<")
            && !before.ends_with(">>")
            // `Vec<u8>`-style generics: `<` glued to a type name.
            && !before.ends_with("::<");
        if cmp_after {
            let after_op = rest.trim_start_matches(['<', '>', '=']);
            let mut w_end = after_op.len().min(48);
            while w_end > 0 && !after_op.is_char_boundary(w_end) {
                w_end -= 1;
            }
            let window = &after_op[..w_end];
            if window.contains("::MAX") || window.contains("::MIN") {
                out.insert(w.to_string());
                continue;
            }
            if idents(window)
                .first()
                .is_some_and(|(_, fw)| is_bound_word(fw))
                || window.starts_with(|c: char| c.is_ascii_digit())
            {
                out.insert(w.to_string());
                continue;
            }
        }
        if cmp_before {
            let op_start = before.trim_end_matches(['<', '>', '=']).len();
            let mut window_start = op_start.saturating_sub(48);
            while window_start < op_start && !text.is_char_boundary(window_start) {
                window_start += 1;
            }
            let window = &text[window_start..op_start];
            if window.contains("::MAX") || window.contains("::MIN") {
                out.insert(w.to_string());
                continue;
            }
            if idents(window)
                .last()
                .is_some_and(|(_, lw)| is_bound_word(lw))
            {
                out.insert(w.to_string());
                continue;
            }
        }
        let _ = b;
    }
    out
}

/// A call site parsed out of a statement: name + top-level argument
/// texts. Glued rendering guarantees `name(` with no space between.
#[derive(Debug)]
struct ParsedCall {
    name: String,
    args: Vec<String>,
}

fn parse_calls(text: &str) -> Vec<ParsedCall> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    for (start, w) in idents(text) {
        let end = start + w.len();
        if b.get(end) != Some(&b'(') || KEYWORDS.contains(&w) {
            continue;
        }
        // Matching paren scan.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut close = None;
        for (j, &c) in b.iter().enumerate().skip(end) {
            let c = c as char;
            if in_str {
                if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        let inner = &text[end + 1..close];
        // Split top-level commas.
        let mut args = Vec::new();
        let mut depth = 0i32;
        let mut in_str = false;
        let mut seg_start = 0;
        for (j, c) in inner.char_indices() {
            if in_str {
                if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                ',' if depth == 0 => {
                    args.push(inner[seg_start..j].to_string());
                    seg_start = j + 1;
                }
                _ => {}
            }
        }
        if seg_start < inner.len() {
            args.push(inner[seg_start..].to_string());
        }
        out.push(ParsedCall {
            name: w.to_string(),
            args,
        });
    }
    out
}

/// True when `v` appears inside a bracket-indexing region of `text`
/// (`buf[hdr + v]`, `buf[v ..]`), excluding `vec![…]` (an allocation
/// sink, reported as such).
fn indexed_by(text: &str, v: &str) -> bool {
    let b = text.as_bytes();
    for (start, w) in idents(text) {
        if w != v {
            continue;
        }
        // Walk backwards counting bracket depth from the statement
        // start; inside at least one `[` that is not `vec![`.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut vec_macro_depth: Vec<bool> = Vec::new();
        for (j, &c) in b.iter().enumerate() {
            if j >= start {
                break;
            }
            let c = c as char;
            if in_str {
                if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '[' => {
                    depth += 1;
                    vec_macro_depth.push(j >= 4 && &text[j - 4..j] == "vec!");
                }
                ']' => {
                    depth -= 1;
                    vec_macro_depth.pop();
                }
                _ => {}
            }
        }
        if depth > 0 && vec_macro_depth.iter().any(|&is_vec| !is_vec) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Per-function taint analysis.

/// The CFG for call-graph function `fid` and the file it sits in, or
/// `None` for spawn roots (closure bodies are flattened into their
/// enclosing statement) and functions whose file is missing.
fn cfg_for<'w>(ws: &'w Workspace, cg: &CallGraph, fid: usize) -> Option<(Cfg, &'w SourceFile)> {
    let info = &cg.fns[fid];
    if info.is_spawn_root {
        return None;
    }
    let file = ws.file(&info.file)?;
    let def = tree::functions(&file.text, &file.toks, &file.trees)
        .into_iter()
        .find(|d| d.line == info.line && d.name == info.name)?;
    Some((cfg::build(&file.text, &file.toks, def.body), file))
}

struct StmtInfo {
    line: usize,
    defs: Vec<String>,
    rhs: String,
    compound: bool,
    annotated_source: bool,
    calls: Vec<ParsedCall>,
}

fn stmt_infos(g: &Cfg, file: &SourceFile) -> Vec<StmtInfo> {
    g.stmts
        .iter()
        .map(|s| {
            let (lhs, rhs, compound) = match split_assign(&s.text) {
                Some((l, r, c)) => (l, r, c),
                None => ("", s.text.as_str(), false),
            };
            // `// LINT-TAINT-SOURCE` on the statement line or the line
            // above marks the defined variables as tainted regardless
            // of the right-hand side.
            let annotated_source = [s.line, s.line.saturating_sub(1)]
                .iter()
                .filter_map(|&l| file.lines.get(l.checked_sub(1)?))
                .any(|li| li.comment.contains("LINT-TAINT-SOURCE"));
            StmtInfo {
                line: s.line,
                defs: defs_of(lhs),
                rhs: rhs.to_string(),
                compound,
                annotated_source,
                calls: parse_calls(&s.text),
            }
        })
        .collect()
}

/// Interner for `(origin, var)` facts, local to one function analysis.
#[derive(Default)]
struct FactTable {
    ids: BTreeMap<Fact, u32>,
    facts: Vec<Fact>,
}

impl FactTable {
    fn intern(&mut self, f: Fact) -> u32 {
        if let Some(&id) = self.ids.get(&f) {
            return id;
        }
        let id = self.facts.len() as u32;
        self.ids.insert(f.clone(), id);
        self.facts.push(f);
        id
    }
}

/// Everything the analysis of one function produces.
struct FnAnalysis {
    flow: Flow,
    table: FactTable,
    summary: FnTaint,
}

/// Edges of a statement keyed by line: resolved callees at that line.
fn callees_at<'a>(
    cg: &'a CallGraph,
    fid: usize,
    line: usize,
    name: &str,
) -> impl Iterator<Item = usize> + 'a {
    let name = name.to_string();
    cg.edges[fid]
        .iter()
        .filter(move |e| {
            e.line == line
                && e.name == name
                && matches!(
                    e.kind,
                    EdgeKind::Free | EdgeKind::SelfMethod | EdgeKind::Path
                )
        })
        .map(|e| e.callee)
}

/// Runs the taint analysis for one function against the current
/// summary table, producing its flow, fact table and (new) summary.
#[allow(clippy::too_many_lines)]
fn analyze_fn(
    cg: &CallGraph,
    fid: usize,
    g: &Cfg,
    infos: &[StmtInfo],
    spec: &TaintSpec<'_>,
    summaries: &[FnTaint],
) -> FnAnalysis {
    let info = &cg.fns[fid];
    let file = info.file.as_str();
    let nparams = info.params.len();

    // Pre-intern every fact the transfer can ever generate, so the
    // closure only reads the table. Facts: (Param(i), var) and
    // (Source{line, what}, var) for every var defined anywhere plus
    // the parameters themselves.
    let mut table = FactTable::default();
    let mut param_seed = FactSet::new();
    for (i, p) in info.params.iter().enumerate() {
        param_seed.insert(table.intern((Origin::Param(i), p.clone())));
    }
    // Collect (node, defs, origin) gen obligations in a pre-pass; the
    // data-dependent part (taint through assignments and call returns)
    // happens in the transfer.
    #[derive(Clone)]
    struct NodeGen {
        source_origins: Vec<Origin>,
    }
    let mut node_sources: Vec<NodeGen> = Vec::with_capacity(infos.len());
    for (n, si) in infos.iter().enumerate() {
        let mut source_origins = Vec::new();
        if n > 0 && !si.defs.is_empty() {
            for pat in spec.sources {
                if si.rhs.contains(pat) {
                    source_origins.push(Origin::Source {
                        line: si.line,
                        what: format!("`{}`", pat.trim_end_matches('(')),
                    });
                }
            }
            if si.annotated_source {
                source_origins.push(Origin::Source {
                    line: si.line,
                    what: "`LINT-TAINT-SOURCE` annotation".to_string(),
                });
            }
            // Calls whose summary says the return carries source taint.
            for c in &si.calls {
                for callee in callees_at(cg, fid, si.line, &c.name) {
                    if summaries[callee].returns_source {
                        source_origins.push(Origin::Source {
                            line: si.line,
                            what: format!("`{}()` (tainted return)", c.name),
                        });
                    }
                }
            }
        }
        node_sources.push(NodeGen { source_origins });
    }
    // Intern the full universe: every origin × every defined var.
    let mut all_origins: Vec<Origin> = (0..nparams).map(Origin::Param).collect();
    for ng in &node_sources {
        all_origins.extend(ng.source_origins.iter().cloned());
    }
    all_origins.sort();
    all_origins.dedup();
    let mut all_vars: BTreeSet<String> = info.params.iter().cloned().collect();
    for si in infos {
        all_vars.extend(si.defs.iter().cloned());
    }
    for o in &all_origins {
        for v in &all_vars {
            table.intern((o.clone(), v.clone()));
        }
    }

    let facts = table.facts.clone();
    let candidates: BTreeSet<&str> = all_vars.iter().map(String::as_str).collect();
    let sanitized_per_node: Vec<BTreeSet<String>> = g
        .stmts
        .iter()
        .map(|s| sanitized_vars(&s.text, &candidates))
        .collect();

    let fact_id = |o: &Origin, v: &str| -> Option<u32> {
        table.ids.get(&(o.clone(), v.to_string())).copied()
    };

    let transfer = |n: usize, inp: &FactSet| -> FactSet {
        if n == 0 {
            let mut out = inp.clone();
            out.extend(param_seed.iter().copied());
            return out;
        }
        let si = &infos[n];
        let sanitized = &sanitized_per_node[n];
        // Which origins taint the RHS under the in-state?
        let mut rhs_origins: Vec<Origin> = node_sources[n].source_origins.clone();
        let rhs_idents: Vec<&str> = idents(&si.rhs)
            .into_iter()
            .map(|(_, w)| w)
            .filter(|w| is_var_word(w) && !sanitized.contains(*w))
            .collect();
        for &f in inp.iter() {
            let (o, v) = &facts[f as usize];
            if rhs_idents.contains(&v.as_str()) {
                rhs_origins.push(o.clone());
            }
        }
        // Call returns carrying a tainted parameter through.
        for c in &si.calls {
            for callee in callees_at(cg, fid, si.line, &c.name) {
                let summ = &summaries[callee];
                for (i, arg) in c.args.iter().enumerate() {
                    if !summ.param_to_return.get(i).copied().unwrap_or(false) {
                        continue;
                    }
                    for &f in inp.iter() {
                        let (o, v) = &facts[f as usize];
                        if !sanitized.contains(v.as_str()) && mentions(arg, v) {
                            rhs_origins.push(o.clone());
                        }
                    }
                }
            }
        }
        rhs_origins.sort();
        rhs_origins.dedup();

        let mut out = FactSet::new();
        for &f in inp.iter() {
            let (_, v) = &facts[f as usize];
            // Kill: sanitized here, or strongly reassigned from a
            // clean RHS (compound assignment keeps the old taint).
            if sanitized.contains(v.as_str()) {
                continue;
            }
            if !si.compound && si.defs.contains(v) && rhs_origins.is_empty() {
                continue;
            }
            out.insert(f);
        }
        for o in &rhs_origins {
            for d in &si.defs {
                if sanitized.contains(d.as_str()) {
                    continue;
                }
                if let Some(id) = fact_id(o, d) {
                    out.insert(id);
                }
            }
        }
        out
    };

    let flow = fixpoint(&g.succ, g.exit, transfer);

    // --- Summary extraction ------------------------------------------
    let mut summary = FnTaint {
        param_to_return: vec![false; nparams],
        returns_source: false,
        param_sink: vec![None; nparams],
        source_sinks: Vec::new(),
    };

    // The chain witness for `fact` ending at `sink_node`: a successor
    // walk from the origin along nodes where the fact stays live.
    let chain_for = |fact: u32, sink_node: usize| -> String {
        let origin_node = match &facts[fact as usize].0 {
            Origin::Param(_) => 0,
            Origin::Source { line, .. } => {
                infos.iter().position(|si| si.line == *line).unwrap_or(0)
            }
        };
        // BFS restricted to nodes that carry the fact (or the origin).
        let mut prev: Vec<Option<usize>> = vec![None; g.exit + 1];
        let mut q = VecDeque::new();
        q.push_back(origin_node);
        let mut seen = vec![false; g.exit + 1];
        seen[origin_node] = true;
        while let Some(u) = q.pop_front() {
            if u == sink_node {
                break;
            }
            if u == g.exit {
                continue;
            }
            for &v in &g.succ[u] {
                // The fact may be *generated* at v (an assignment in
                // the def chain) rather than merely flowing through, so
                // accept either state.
                let carries = v == sink_node
                    || (v < g.exit
                        && (flow.ins[v].contains(&fact) || flow.outs[v].contains(&fact)));
                if v <= g.exit && !seen[v] && carries {
                    seen[v] = true;
                    prev[v] = Some(u);
                    q.push_back(v);
                }
            }
        }
        let mut path = vec![sink_node];
        while let Some(p) = prev[*path.last().expect("non-empty")] {
            path.push(p);
            if p == origin_node {
                break;
            }
        }
        path.reverse();
        g.witness(file, &path)
    };

    let mut pending: Vec<(Origin, SinkHit)> = Vec::new();
    let record_hit = |pending: &mut Vec<(Origin, SinkHit)>,
                      fact: u32,
                      node: usize,
                      kind: String,
                      spliced: Option<&str>| {
        let (o, _) = facts[fact as usize].clone();
        let mut chain = chain_for(fact, node);
        if let Some(callee_chain) = spliced {
            chain = format!("{chain} → {callee_chain}");
        }
        pending.push((
            o,
            SinkHit {
                line: infos[node].line,
                kind,
                chain,
            },
        ));
    };

    for (n, si) in infos.iter().enumerate().skip(1) {
        let inp = &flow.ins[n];
        let sanitized = &sanitized_per_node[n];
        let live: Vec<u32> = inp
            .iter()
            .copied()
            .filter(|&f| !sanitized.contains(facts[f as usize].1.as_str()))
            .collect();
        // Sink calls (allocation and friends) + `vec![…]`.
        for (pat, kind) in spec.sink_calls {
            let Some(pos) = g.stmts[n].text.find(pat) else {
                continue;
            };
            let after = &g.stmts[n].text[pos + pat.len()..];
            // Argument region: up to the matching close of the opener
            // the pattern ends with (`(` or `[`).
            let openc = pat.chars().next_back().unwrap_or('(');
            let closec = if openc == '[' { ']' } else { ')' };
            let mut depth = 1i32;
            let mut endix = after.len();
            for (j, c) in after.char_indices() {
                if c == openc || c == '(' || c == '[' {
                    depth += 1;
                } else if c == closec || c == ')' || c == ']' {
                    depth -= 1;
                    if depth == 0 {
                        endix = j;
                        break;
                    }
                }
            }
            let argtext = &after[..endix];
            for &f in &live {
                if mentions(argtext, &facts[f as usize].1) {
                    record_hit(&mut pending, f, n, format!("{kind} `{}…)`", pat), None);
                }
            }
            // Source directly inside the sink's arguments.
            for sp in spec.sources {
                if argtext.contains(sp) {
                    pending.push((
                        Origin::Source {
                            line: si.line,
                            what: format!("`{}`", sp.trim_end_matches('(')),
                        },
                        SinkHit {
                            line: si.line,
                            kind: format!("{kind} `{}…)`", pat),
                            chain: format!("{}:{}", file, si.line),
                        },
                    ));
                }
            }
        }
        if spec.index_sinks {
            let text = &g.stmts[n].text;
            let is_loop_header = text.starts_with("for ")
                || text.starts_with("while ")
                || text.starts_with("while(");
            for &f in &live {
                let v = &facts[f as usize].1;
                if is_loop_header && mentions(text, v) {
                    record_hit(&mut pending, f, n, "loop bound".to_string(), None);
                } else if indexed_by(text, v) {
                    record_hit(&mut pending, f, n, "slice index".to_string(), None);
                }
            }
        }
        // Interprocedural: passing a tainted argument into a callee
        // whose summary says that parameter reaches a sink.
        for c in &si.calls {
            for callee in callees_at(cg, fid, si.line, &c.name) {
                let callee_summ = summaries[callee].clone();
                for (i, arg) in c.args.iter().enumerate() {
                    let Some(hit) = callee_summ.param_sink.get(i).and_then(|h| h.as_ref()) else {
                        continue;
                    };
                    for &f in &live {
                        if mentions(arg, &facts[f as usize].1) {
                            record_hit(
                                &mut pending,
                                f,
                                n,
                                format!("{} (via `{}()`)", hit.kind, c.name),
                                Some(&hit.chain),
                            );
                        }
                    }
                }
            }
        }
    }

    for (o, hit) in pending {
        match o {
            Origin::Param(i) => {
                if summary.param_sink[i].is_none() {
                    summary.param_sink[i] = Some(hit);
                }
            }
            Origin::Source { line, what } => summary.source_sinks.push(SourceSink {
                source_line: line,
                what,
                hit,
            }),
        }
    }

    // Returns: explicit `return <expr>` plus the highest-id node with
    // an exit edge (the tail expression under fall-through lowering).
    let mut return_nodes: Vec<usize> = (1..g.stmts.len())
        .filter(|&n| g.stmts[n].text.starts_with("return"))
        .collect();
    if let Some(tail) = (1..g.stmts.len())
        .rev()
        .find(|&n| g.succ[n].contains(&g.exit) && !g.stmts[n].text.starts_with("return"))
    {
        return_nodes.push(tail);
    }
    for n in return_nodes {
        let text = &g.stmts[n].text;
        let sanitized = &sanitized_per_node[n];
        for sp in spec.sources {
            if text.contains(sp) {
                summary.returns_source = true;
            }
        }
        if node_sources[n]
            .source_origins
            .iter()
            .any(|o| matches!(o, Origin::Source { .. }))
        {
            summary.returns_source = true;
        }
        for &f in flow.ins[n].iter() {
            let (o, v) = &facts[f as usize];
            if sanitized.contains(v.as_str()) || !mentions(text, v) {
                continue;
            }
            match o {
                Origin::Param(i) => summary.param_to_return[*i] = true,
                Origin::Source { .. } => summary.returns_source = true,
            }
        }
    }

    FnAnalysis {
        flow,
        table,
        summary,
    }
}

// ---------------------------------------------------------------------
// SCC condensation + bottom-up summary computation.

/// Tarjan SCCs of the resolved call graph, returned in reverse
/// topological order (callees before callers) — the order bottom-up
/// summary computation wants.
pub fn sccs(cg: &CallGraph) -> Vec<Vec<usize>> {
    let n = cg.fns.len();
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            let mut vs: Vec<usize> = cg.edges[u]
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EdgeKind::Free | EdgeKind::SelfMethod | EdgeKind::Path
                    )
                })
                .map(|e| e.callee)
                .collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        })
        .collect();
    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (u, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                index[u] = next_index;
                low[u] = next_index;
                next_index += 1;
                stack.push(u);
                on_stack[u] = true;
            }
            if *ei < adj[u].len() {
                let v = adj[u][*ei];
                *ei += 1;
                if index[v] == usize::MAX {
                    call.push((v, 0));
                } else if on_stack[v] {
                    low[u] = low[u].min(index[v]);
                }
            } else {
                if low[u] == index[u] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == u {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[u]);
                }
            }
        }
    }
    // Tarjan emits SCCs in reverse topological order already.
    out
}

impl TaintSummaries {
    /// Computes bottom-up taint summaries for every function under
    /// `spec`, iterating each SCC to a fixed point.
    pub fn build(ws: &Workspace, cg: &CallGraph, spec: &TaintSpec<'_>) -> TaintSummaries {
        let cfgs: Vec<Option<(Cfg, Vec<StmtInfo>)>> = (0..cg.fns.len())
            .map(|fid| {
                let (g, file) = cfg_for(ws, cg, fid)?;
                let infos = stmt_infos(&g, file);
                Some((g, infos))
            })
            .collect();
        let mut by_fn: Vec<FnTaint> = cg
            .fns
            .iter()
            .map(|f| FnTaint {
                param_to_return: vec![false; f.params.len()],
                returns_source: false,
                param_sink: vec![None; f.params.len()],
                source_sinks: Vec::new(),
            })
            .collect();
        for comp in sccs(cg) {
            // Iterate the component until its summaries stabilize;
            // summary flags only grow, so this converges quickly.
            for _round in 0..8 {
                let mut changed = false;
                for &fid in &comp {
                    let Some((g, infos)) = cfgs[fid].as_ref() else {
                        continue;
                    };
                    let res = analyze_fn(cg, fid, g, infos, spec, &by_fn);
                    if res.summary != by_fn[fid] {
                        by_fn[fid] = res.summary;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        TaintSummaries { by_fn }
    }
}

// ---------------------------------------------------------------------
// Must-reach obligations (KVS-L019's shape).

/// An uncharged path: a read at `read_line` reaches the function exit
/// without passing a charge statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Line of the statement that performs the disk read.
    pub read_line: usize,
    /// `file:line → file:line` chain from the read to the escape.
    pub witness: String,
}

/// Must-reach analysis: every path from a statement matching `is_read`
/// to the exit must pass a statement matching `is_charge`. The read's
/// own direct edge to the exit (its `?` error propagation) is exempt —
/// a failed read moved no bytes. Returns one [`Obligation`] per
/// violating read with the escaping path as witness.
pub fn uncharged_paths(
    g: &Cfg,
    file: &str,
    is_read: impl Fn(&str) -> bool,
    is_charge: impl Fn(&str) -> bool,
) -> Vec<Obligation> {
    let reads: Vec<usize> = g.find(|t| is_read(t));
    if reads.is_empty() {
        return Vec::new();
    }
    let charges: BTreeSet<usize> = g.find(|t| is_charge(t)).into_iter().collect();
    // Fact i = "read i not yet charged", seeded on the read's non-exit,
    // non-charge successors, killed at charges.
    let mut gen = vec![FactSet::new(); g.exit + 1];
    let mut kill = vec![FactSet::new(); g.exit + 1];
    for (i, &r) in reads.iter().enumerate() {
        for &s in &g.succ[r] {
            if s != g.exit && !charges.contains(&s) {
                gen[s].insert(i as u32);
            }
        }
    }
    for &c in &charges {
        for i in 0..reads.len() {
            kill[c].insert(i as u32);
        }
    }
    let flow = forward_gen_kill(&g.succ, g.exit, &gen, &kill);
    let mut out = Vec::new();
    for (i, &r) in reads.iter().enumerate() {
        if !flow.ins[g.exit].contains(&(i as u32)) {
            continue;
        }
        // Witness: DFS from the read to the exit avoiding charges and
        // the read's direct error edge.
        let mut path = vec![r];
        let mut seen = vec![false; g.exit + 1];
        seen[r] = true;
        let mut stack: Vec<(usize, usize)> = vec![(r, 0)];
        'dfs: while let Some(&(u, ei)) = stack.last() {
            let succs: &[usize] = if u == g.exit { &[] } else { &g.succ[u] };
            if ei < succs.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let v = succs[ei];
                // Skip the read's own direct exit edge.
                if u == r && v == g.exit {
                    continue;
                }
                if v <= g.exit && !seen[v] && !charges.contains(&v) {
                    seen[v] = true;
                    stack.push((v, 0));
                    if v == g.exit {
                        path = stack.iter().map(|&(n, _)| n).collect();
                        break 'dfs;
                    }
                }
            } else {
                stack.pop();
            }
        }
        out.push(Obligation {
            read_line: g.stmts[r].line,
            witness: g.witness(file, &path),
        });
    }
    out
}

// ---------------------------------------------------------------------

/// Per-function flow states for callers that need them (tests, rule
/// diagnostics needing raw states rather than summaries).
pub fn flow_for(
    ws: &Workspace,
    cg: &CallGraph,
    fid: usize,
    spec: &TaintSpec<'_>,
    summaries: &TaintSummaries,
) -> Option<(Cfg, Flow, Vec<Fact>)> {
    let (g, file) = cfg_for(ws, cg, fid)?;
    let infos = stmt_infos(&g, file);
    let res = analyze_fn(cg, fid, &g, &infos, spec, &summaries.by_fn);
    Some((g, res.flow, res.table.facts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::rules::Workspace;
    use crate::scan::SourceFile;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(rel, text)| SourceFile::scan(rel, text))
                .collect(),
            net_md: None,
            store_md: None,
        }
    }

    const WIRE: TaintSpec<'_> = TaintSpec {
        sources: &["from_be_bytes(", "from_le_bytes("],
        sink_calls: &[("with_capacity(", "allocation")],
        index_sinks: true,
    };

    #[test]
    fn assignment_propagates_and_bound_check_kills() {
        let ws = ws_of(&[(
            "crates/net/src/frame.rs",
            "pub fn f(buf: &[u8]) {\n\
             let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;\n\
             let total = 4 + len;\n\
             let v = Vec::with_capacity(total);\n\
             drop(v);\n\
             }\n\
             pub fn ok(buf: &[u8]) {\n\
             let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);\n\
             if len > MAX_PAYLOAD { return; }\n\
             let v = Vec::with_capacity(len as usize);\n\
             drop(v);\n\
             }\n",
        )]);
        let cg = callgraph::build(&ws);
        let summ = TaintSummaries::build(&ws, &cg, &WIRE);
        let f = cg.fns.iter().position(|x| x.name == "f").expect("fn f");
        let ok = cg.fns.iter().position(|x| x.name == "ok").expect("fn ok");
        assert_eq!(summ.by_fn[f].source_sinks.len(), 1, "{:#?}", summ.by_fn[f]);
        let ss = &summ.by_fn[f].source_sinks[0];
        assert_eq!(ss.source_line, 2);
        assert_eq!(ss.hit.line, 4);
        assert!(
            ss.hit.chain.contains("crates/net/src/frame.rs:2")
                && ss.hit.chain.contains("crates/net/src/frame.rs:4"),
            "{}",
            ss.hit.chain
        );
        assert!(
            summ.by_fn[ok].source_sinks.is_empty(),
            "bound check should sanitize: {:#?}",
            summ.by_fn[ok]
        );
    }

    #[test]
    fn summaries_cross_function_boundaries() {
        let ws = ws_of(&[(
            "crates/net/src/frame.rs",
            "fn wire_len(buf: &[u8]) -> usize {\n\
             u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize\n\
             }\n\
             fn alloc_for(n: usize) -> Vec<u8> {\n\
             Vec::with_capacity(n)\n\
             }\n\
             pub fn f(buf: &[u8]) {\n\
             let n = wire_len(buf);\n\
             let v = alloc_for(n);\n\
             drop(v);\n\
             }\n",
        )]);
        let cg = callgraph::build(&ws);
        let summ = TaintSummaries::build(&ws, &cg, &WIRE);
        let wl = cg.fns.iter().position(|x| x.name == "wire_len").unwrap();
        let af = cg.fns.iter().position(|x| x.name == "alloc_for").unwrap();
        let f = cg.fns.iter().position(|x| x.name == "f").unwrap();
        assert!(summ.by_fn[wl].returns_source, "{:#?}", summ.by_fn[wl]);
        assert!(
            summ.by_fn[af].param_sink[0].is_some(),
            "{:#?}",
            summ.by_fn[af]
        );
        assert_eq!(summ.by_fn[f].source_sinks.len(), 1, "{:#?}", summ.by_fn[f]);
        let ss = &summ.by_fn[f].source_sinks[0];
        assert!(
            ss.hit.chain.contains("crates/net/src/frame.rs:9")
                && ss.hit.chain.contains("crates/net/src/frame.rs:5"),
            "spliced chain: {}",
            ss.hit.chain
        );
    }

    #[test]
    fn loop_and_index_sinks_fire() {
        let ws = ws_of(&[(
            "crates/net/src/frame.rs",
            "pub fn f(buf: &[u8]) -> u64 {\n\
             let n = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;\n\
             let mut acc = 0u64;\n\
             for i in 0..n {\n\
             acc += buf[i] as u64;\n\
             }\n\
             acc\n\
             }\n",
        )]);
        let cg = callgraph::build(&ws);
        let summ = TaintSummaries::build(&ws, &cg, &WIRE);
        let f = cg.fns.iter().position(|x| x.name == "f").unwrap();
        assert!(
            summ.by_fn[f]
                .source_sinks
                .iter()
                .any(|s| s.hit.kind == "loop bound"),
            "{:#?}",
            summ.by_fn[f]
        );
    }

    #[test]
    fn obligation_analysis_finds_uncharged_escape() {
        let src = "fn load(receipt: &mut R) -> io::Result<()> {\n\
                   let mut raw = vec![0u8; 4096];\n\
                   file.read_exact_at(&mut raw, off)?;\n\
                   if crc_bad(&raw) {\n\
                   return Err(bad());\n\
                   }\n\
                   receipt.disk_blocks_read += 1;\n\
                   Ok(())\n\
                   }\n";
        let toks = crate::token::tokenize(src);
        let trees = tree::build(src, &toks);
        let def = tree::functions(src, &toks, &trees)
            .into_iter()
            .next()
            .expect("fn");
        let g = cfg::build(src, &toks, def.body);
        let obs = uncharged_paths(
            &g,
            "crates/store/src/x.rs",
            |t| t.contains("read_exact_at("),
            |t| t.contains("receipt.") && t.contains("+="),
        );
        assert_eq!(obs.len(), 1, "{obs:#?}");
        assert_eq!(obs[0].read_line, 3);
        assert!(
            obs[0].witness.contains("crates/store/src/x.rs:5"),
            "witness should pass the early return: {}",
            obs[0].witness
        );
        // Charging before the check discharges the obligation.
        let src_ok = src.replace(
            "if crc_bad(&raw) {",
            "receipt.disk_blocks_read += 1;\nif crc_bad(&raw) {",
        );
        let src_ok = src_ok.replacen("receipt.disk_blocks_read += 1;\nOk(())", "Ok(())", 1);
        let toks = crate::token::tokenize(&src_ok);
        let trees = tree::build(&src_ok, &toks);
        let def = tree::functions(&src_ok, &toks, &trees)
            .into_iter()
            .next()
            .expect("fn");
        let g = cfg::build(&src_ok, &toks, def.body);
        let obs = uncharged_paths(
            &g,
            "crates/store/src/x.rs",
            |t| t.contains("read_exact_at("),
            |t| t.contains("receipt.") && t.contains("+="),
        );
        assert!(obs.is_empty(), "{obs:#?}");
    }

    #[test]
    fn gen_kill_fixed_point_is_consistent() {
        // Diamond with a back edge: 0→1, 1→2, 1→3, 2→4, 3→4, 4→1, 4→exit(5).
        let succ = vec![vec![1], vec![2, 3], vec![4], vec![4], vec![1, 5]];
        let exit = 5;
        let mk = |ids: &[u32]| ids.iter().copied().collect::<FactSet>();
        let gen = vec![mk(&[]), mk(&[1]), mk(&[2]), mk(&[]), mk(&[]), mk(&[])];
        let kill = vec![mk(&[]), mk(&[]), mk(&[]), mk(&[1]), mk(&[]), mk(&[])];
        let flow = forward_gen_kill(&succ, exit, &gen, &kill);
        // Fact 1 survives via node 2 but is killed on the 3 branch:
        // both reach 4, so the join keeps it.
        assert!(flow.ins[4].contains(&1));
        assert!(flow.ins[exit].contains(&1));
        assert!(flow.ins[exit].contains(&2));
        // Post-hoc fixed-point check: out = (in \ kill) ∪ gen, in = ⋃ preds.
        for u in 0..exit {
            let expect: FactSet = flow.ins[u]
                .difference(&kill[u])
                .copied()
                .chain(gen[u].iter().copied())
                .collect();
            assert_eq!(flow.outs[u], expect, "node {u}");
        }
    }
}
