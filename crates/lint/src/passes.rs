//! Semantic passes over token trees: KVS-L009 … KVS-L012, the
//! interprocedural rules KVS-L014 … KVS-L016, and the dataflow-engine
//! rules KVS-L017 … KVS-L019 (see [`crate::dataflow`]).
//!
//! These are whole-program checks in the spirit of lightweight model
//! checking — not a runtime explorer, but build-time extraction of the
//! concurrency and dataflow structure the paper's methodology leans on:
//!
//! * **KVS-L009** collects every `Mutex`/`RwLock` acquisition in
//!   `net`/`cluster`, builds the acquired-while-held edge set per function
//!   (with call-edge propagation one level deep over the real call graph)
//!   and fails on any cycle — a deadlock candidate — with the full
//!   witness path. The same guard tracker is **KVS-L007**: in
//!   `net/src`, no blocking call in a statement that takes a lock or
//!   while a `let` guard is live; in `net`/`cluster`, no call made while a
//!   guard is held may transitively reach a blocking op.
//! * **KVS-L010** pairs channel/queue endpoints by construction site,
//!   flags unbounded channels (waivable for the documented response
//!   paths) and sends without a matching drain.
//! * **KVS-L011** checks the stage-stamp dataflow on the request paths in
//!   `server.rs`/`master.rs`: every `stamps[0..4]` slot is written exactly
//!   once, at frame construction, per the frame-kind contract — the class
//!   of bug where a refactor drops the in-db timing and the model fit
//!   silently degrades.
//! * **KVS-L012** requires every `match` on the frame kind in
//!   `master.rs`/`server.rs`/`chaos.rs` to handle all kinds declared in
//!   `frame.rs`, or to carry an explicitly waived wildcard.
//! * **KVS-L014** walks the workspace call graph ([`crate::callgraph`])
//!   from every function anchored `// LINT-ZONE: nonblocking` and fails
//!   if any blocking op (lock/condvar wait, blocking socket or file I/O,
//!   fsync, `thread::sleep`, blocking channel recv, `join`) is
//!   transitively reachable, with the witness chain `file:line → …`.
//! * **KVS-L015** checks the durable commit paths in
//!   `store/src/{manifest,durable,wal}.rs` against the docs/STORE.md
//!   ordering contract — write → fsync → rename → dir-fsync — as CFG
//!   statement order ([`crate::cfg`]), with one level of call
//!   propagation (a call to a function that fsyncs, e.g. `write_sst`,
//!   counts as a sync step), and that SSTable GC can never run before
//!   the manifest commit that unreferences the files it deletes.
//! * **KVS-L016** extends L011 across function boundaries: every
//!   `Frame` literal on the request paths must thread an incoming
//!   deadline (value mentions `deadline`, or is a wall-clock portal
//!   expression with an explicit budget). When the value is a parameter,
//!   every call site is checked instead — passing a literal `0` or
//!   `u64::MAX` mints a fresh no-deadline frame and breaks expiry
//!   propagation.
//! * **KVS-L017** runs the [`crate::dataflow`] taint engine over the
//!   wire-decode files (`frame.rs`, `server.rs`, `master.rs`,
//!   `chaos.rs`): any value derived from `from_be_bytes`/`from_le_bytes`
//!   is untrusted and must pass a validated bound (a comparison against
//!   an ALL-CAPS constant or `.min(…)`/`.clamp(…)`) before reaching an
//!   allocation, slice index or loop bound. Interprocedural via the
//!   bottom-up summaries; the finding carries the full
//!   `file:line → file:line` flow.
//! * **KVS-L018** extends KVS-L001 from a call-site ban to value flow:
//!   a wall-clock/RNG-derived value (including the sanctioned
//!   `wall_ns()` portal and tainted returns of helpers that read it)
//!   must not flow through arguments or returns into the L001
//!   deterministic zones. `crates/bench/` callers are exempt — the
//!   bench lane feeds *measured* timings to the model as data — and so
//!   are the two machines both worlds run, the write coordinator
//!   (`cluster/src/coord.rs`) and the read dispatcher
//!   (`cluster/src/dispatch.rs`), as callees: their clock is a parameter.
//! * **KVS-L019** must-reach receipt accounting on the durable read
//!   paths (`durable.rs`, `sst_file.rs`): in any function with a
//!   `ReadReceipt` in scope, every CFG path that performs a disk block
//!   read (`read_exact`/`read_exact_at`, or `mapped_block`, the accessor
//!   that slices a block out of an SSTable's mapping) must charge the
//!   receipt before returning. The read's own `?` error edge is exempt (a
//!   failed read moved no bytes); calls to same-file helpers that charge
//!   count as charges.
//!
//! Heuristic boundaries (documented so nobody re-learns them): lock
//! identity is the receiver's trailing field/binding name, crate-
//! qualified (`net:conn`); two different mutexes sharing a field name in
//! one crate alias. Guards are tracked for `let g = ….lock();` bindings
//! and same-statement nesting; statement temporaries
//! (`table.lock().get(…)`) release before the next statement and create
//! no held state. A statement ends at `;` or at the brace closing a
//! block-like expression statement (`if`, `match`, a loop, a bare
//! block). Closures passed to `spawn` run on another thread and
//! are analyzed as separate synthetic functions. Reachability (L007's
//! transitive shape and L014's zone traversal) follows only
//! `Free`/`SelfMethod`/`Path` call edges — may-call method edges alias
//! bare names like `get` across the whole workspace and would drown
//! every query in false paths. A direct blocking method call
//! (`rx.recv()`, `stream.write_all(…)`) in any *reached* function still
//! surfaces, because each node's recorded ops carry method names too.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{self, CallGraph, EdgeKind};
use crate::cfg;
use crate::dataflow;
use crate::rules::{in_net_or_cluster_src, Diagnostic, Workspace};
use crate::scan::SourceFile;
use crate::token::{Tok, TokKind};
use crate::tree::{self, is_ident, is_punct, leaf_line, leaf_text, Delim, Group, Tree};

/// Runs all semantic passes.
pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let cg = callgraph::build(ws);
    lock_order(ws, &cg, out);
    channel_topology(ws, out);
    stamp_dataflow(ws, out);
    kind_exhaustiveness(ws, out);
    blocking_reachability(&cg, out);
    crash_ordering(ws, &cg, out);
    deadline_propagation(ws, &cg, out);
    wire_taint(ws, &cg, out);
    determinism_escape(ws, &cg, out);
    receipt_accounting(ws, &cg, out);
}

/// Call names that block the calling thread: condvar and channel waits,
/// blocking socket/file I/O, fsync, `thread::sleep`. `join` is excluded
/// (it would alias ubiquitous slice `join`); `send`/`push` are L010's
/// concern — bounded-vs-unbounded is a construction-site property this
/// name set cannot see.
const BLOCKING_OPS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "write_all",
    "read_exact",
    "write_to",
    "read_from",
    "accept",
    "connect",
    "sleep",
    "sync_all",
    "sync_data",
];

/// Additionally blocking from inside a declared non-blocking zone: lock
/// acquisition itself waits on the owner.
const ZONE_EXTRA_BLOCKING: &[&str] = &["lock"];

fn crate_key(rel: &str) -> &str {
    if rel.starts_with("crates/net/") {
        "net"
    } else if rel.starts_with("crates/cluster/") {
        "cluster"
    } else {
        "other"
    }
}

// ---------------------------------------------------------------------------
// KVS-L009: lock-order graph.
// ---------------------------------------------------------------------------

/// Zero-argument methods that acquire a lock.
const ACQ_METHODS: &[&str] = &["lock", "read", "write"];

/// Keywords that open a block-like expression statement.
const BLOCK_KEYWORDS: &[&str] = &["if", "match", "while", "for", "loop", "unsafe"];

/// Keywords that look like `ident(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "move", "in", "as", "ref", "mut", "unsafe", "await", "drop",
];

#[derive(Debug, Clone)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: usize,
    note: String,
}

/// A call made while at least one guard was held: resolved against the
/// same-crate function index for one level of propagation.
struct HeldCall {
    held: Vec<String>,
    callee: String,
    file: String,
    line: usize,
}

#[derive(Default)]
struct FnFacts {
    /// Crate-qualified identities of every lock this function acquires.
    acquired: Vec<String>,
}

/// What one statement does outside its nested blocks: the locks it
/// acquires and the blocking calls it makes, as `(shown name, line)`.
#[derive(Default)]
struct Stmt {
    acqs: Vec<String>,
    blocking: Vec<(String, usize)>,
}

struct LockCollector<'a> {
    src: &'a str,
    toks: &'a [Tok],
    f: &'a SourceFile,
    edges: Vec<LockEdge>,
    calls: Vec<HeldCall>,
    facts: FnFacts,
    /// `spawn(…)` argument groups queued for isolated analysis.
    spawned: Vec<&'a Group>,
    /// Whether KVS-L007's direct shapes apply to this file.
    direct: bool,
    /// KVS-L007 direct findings: `(line, message)`, one per line.
    blocking: Vec<(usize, String)>,
}

impl<'a> LockCollector<'a> {
    /// Walks one block: statements split on `;` (and `,` in match
    /// bodies). Guards bound here go out of scope when the block ends.
    fn walk_block(&mut self, children: &'a [Tree], held: &mut Vec<(String, String)>, comma: bool) {
        let entry = held.len();
        let mut start = 0;
        for i in 0..=children.len() {
            let sep = i < children.len()
                && (is_punct(self.src, self.toks, &children[i], ";")
                    || (comma && is_punct(self.src, self.toks, &children[i], ",")));
            let block_end =
                i < children.len() && self.ends_block_stmt(&children[start..i], &children[i]);
            if !(sep || block_end || i == children.len()) {
                continue;
            }
            let stmt = &children[start..i];
            start = if block_end { i } else { i + 1 };
            if stmt.is_empty() {
                continue;
            }
            if leaf_text(self.src, self.toks, &stmt[0]) == Some("fn") {
                continue; // nested fn: analyzed as its own function
            }
            let mut st = Stmt::default();
            self.scan_stmt(stmt, held, &mut st);
            self.report_blocking(&st, held);
            self.maybe_bind_guard(stmt, held, &st.acqs);
            self.maybe_drop_guard(stmt, held);
        }
        held.truncate(entry);
    }

    /// True when `stmt` is a block-like expression statement (`if`,
    /// `match`, a loop, a bare block) that its last brace group closes:
    /// `next` starts a new statement unless it is `else`.
    fn ends_block_stmt(&self, stmt: &[Tree], next: &Tree) -> bool {
        let block_like = match stmt.first() {
            Some(Tree::Group(g)) => g.delim == Delim::Brace,
            Some(t) => {
                leaf_text(self.src, self.toks, t).is_some_and(|k| BLOCK_KEYWORDS.contains(&k))
            }
            None => false,
        };
        block_like
            && matches!(stmt.last(), Some(Tree::Group(g)) if g.delim == Delim::Brace)
            && leaf_text(self.src, self.toks, next) != Some("else")
    }

    /// Scans one statement (recursing through paren/bracket groups and
    /// into nested blocks) for acquisitions and calls-while-held.
    fn scan_stmt(&mut self, stmt: &'a [Tree], held: &mut Vec<(String, String)>, st: &mut Stmt) {
        let mut seen_match = false;
        let mut i = 0;
        while i < stmt.len() {
            // Acquisition: `.` + lock/read/write + `()`.
            if is_punct(self.src, self.toks, &stmt[i], ".")
                && i + 2 < stmt.len()
                && leaf_text(self.src, self.toks, &stmt[i + 1])
                    .is_some_and(|t| ACQ_METHODS.contains(&t))
                && matches!(&stmt[i + 2], Tree::Group(g) if g.delim == Delim::Paren && g.children.is_empty())
            {
                if let Some(lock) = self.receiver_identity(stmt, i) {
                    let line = leaf_line(self.toks, &stmt[i + 1]);
                    for (h, _) in held.iter() {
                        self.push_edge(h.clone(), lock.clone(), line, String::new());
                    }
                    for prior in st.acqs.iter() {
                        if *prior != lock {
                            self.push_edge(prior.clone(), lock.clone(), line, String::new());
                        }
                    }
                    st.acqs.push(lock.clone());
                    self.facts.acquired.push(lock);
                }
                i += 3;
                continue;
            }
            // Call / spawn handling: `ident(…)`.
            if is_ident(self.toks, &stmt[i])
                && i + 1 < stmt.len()
                && matches!(&stmt[i + 1], Tree::Group(g) if g.delim == Delim::Paren)
            {
                let name = leaf_text(self.src, self.toks, &stmt[i]).unwrap_or("");
                if name == "spawn" {
                    // The closure runs on another thread: no lock held
                    // here is held there. Analyze it in isolation.
                    if let Tree::Group(g) = &stmt[i + 1] {
                        self.spawned.push(g);
                    }
                    i += 2;
                    continue;
                }
                if let Some(call) = self.blocking_call(stmt, i) {
                    st.blocking.push((call, leaf_line(self.toks, &stmt[i])));
                }
                if !held.is_empty() && !NON_CALL_KEYWORDS.contains(&name) {
                    self.calls.push(HeldCall {
                        held: held.iter().map(|(h, _)| h.clone()).collect(),
                        callee: name.to_string(),
                        file: self.f.rel.clone(),
                        line: leaf_line(self.toks, &stmt[i]),
                    });
                }
            }
            match &stmt[i] {
                Tree::Group(g) if g.delim == Delim::Brace => {
                    self.walk_block(&g.children, held, seen_match);
                    seen_match = false;
                }
                Tree::Group(g) => self.scan_stmt(&g.children, held, st),
                Tree::Leaf(_) => {
                    if leaf_text(self.src, self.toks, &stmt[i]) == Some("match") {
                        seen_match = true;
                    }
                }
            }
            i += 1;
        }
    }

    /// How KVS-L007 names the call at `stmt[i]` (an identifier followed by
    /// its argument group) when it is a direct blocking call in a checked
    /// file: `write_all`, `recv()` when called with no arguments,
    /// `thread::sleep`. A bare `join()` counts; `join(sep)` is the slice's.
    fn blocking_call(&self, stmt: &[Tree], i: usize) -> Option<String> {
        let name = leaf_text(self.src, self.toks, &stmt[i])?;
        let bare = matches!(&stmt[i + 1], Tree::Group(g) if g.children.is_empty());
        if !self.direct || !(BLOCKING_OPS.contains(&name) || (name == "join" && bare)) {
            return None;
        }
        let thread = i >= 3
            && leaf_text(self.src, self.toks, &stmt[i - 3]) == Some("thread")
            && is_punct(self.src, self.toks, &stmt[i - 1], ":");
        Some(match (thread, bare) {
            (true, _) => format!("thread::{name}"),
            (false, true) => format!("{name}()"),
            (false, false) => name.to_string(),
        })
    }

    /// KVS-L007's direct shapes: a blocking call in a statement that also
    /// takes a lock, or while a `let` guard from an enclosing block is
    /// live.
    fn report_blocking(&mut self, st: &Stmt, held: &[(String, String)]) {
        for (call, line) in &st.blocking {
            let message = if !st.acqs.is_empty() {
                format!(
                    "lock taken and blocking call `{call}` in one statement — the guard is \
                     held for the whole call"
                )
            } else if let Some((_, guard)) = held.last() {
                format!("blocking call `{call}` while lock guard `{guard}` from this scope is live")
            } else {
                continue;
            };
            if !self.blocking.iter().any(|(l, _)| l == line) {
                self.blocking.push((*line, message));
            }
        }
    }

    /// Lock identity for the acquisition whose `.` sits at `stmt[dot]`:
    /// the trailing identifier of the receiver chain, crate-qualified.
    fn receiver_identity(&self, stmt: &[Tree], dot: usize) -> Option<String> {
        let mut j = dot;
        while j > 0 {
            let prev = &stmt[j - 1];
            if let Some(t) = leaf_text(self.src, self.toks, prev) {
                if matches!(prev, Tree::Leaf(ix) if self.toks[*ix].kind == TokKind::Ident)
                    && t != "self"
                {
                    return Some(format!("{}:{}", crate_key(&self.f.rel), t));
                }
                if t == "." || t == "self" || t == "*" || t == "&" {
                    j -= 1;
                    continue;
                }
            }
            break;
        }
        None
    }

    /// Binds `let [mut] NAME = ….lock();` as a held guard for the rest of
    /// the enclosing block.
    fn maybe_bind_guard(
        &mut self,
        stmt: &'a [Tree],
        held: &mut Vec<(String, String)>,
        stmt_acqs: &[String],
    ) {
        if stmt_acqs.is_empty() || leaf_text(self.src, self.toks, &stmt[0]) != Some("let") {
            return;
        }
        let n = stmt.len();
        let ends_with_acq = n >= 3
            && matches!(&stmt[n - 1], Tree::Group(g) if g.delim == Delim::Paren && g.children.is_empty())
            && leaf_text(self.src, self.toks, &stmt[n - 2])
                .is_some_and(|t| ACQ_METHODS.contains(&t))
            && is_punct(self.src, self.toks, &stmt[n - 3], ".");
        if !ends_with_acq {
            return;
        }
        let mut k = 1;
        if leaf_text(self.src, self.toks, &stmt[k]) == Some("mut") {
            k += 1;
        }
        if let Some(name) = leaf_text(self.src, self.toks, &stmt[k]) {
            if is_ident(self.toks, &stmt[k]) {
                let lock = stmt_acqs.last().expect("checked non-empty").clone();
                held.push((lock, name.to_string()));
            }
        }
    }

    /// `drop(NAME);` releases a held guard early.
    fn maybe_drop_guard(&mut self, stmt: &'a [Tree], held: &mut Vec<(String, String)>) {
        if stmt.len() == 2 && leaf_text(self.src, self.toks, &stmt[0]) == Some("drop") {
            if let Tree::Group(g) = &stmt[1] {
                if g.delim == Delim::Paren && g.children.len() == 1 {
                    if let Some(name) = leaf_text(self.src, self.toks, &g.children[0]) {
                        held.retain(|(_, g)| g != name);
                    }
                }
            }
        }
    }

    fn push_edge(&mut self, from: String, to: String, line: usize, note: String) {
        self.edges.push(LockEdge {
            from,
            to,
            file: self.f.rel.clone(),
            line,
            note,
        });
    }
}

fn lock_order(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut calls: Vec<HeldCall> = Vec::new();
    // Call-graph node → locks that function acquires anywhere.
    let mut acquired: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();

    for f in &ws.files {
        if !in_net_or_cluster_src(&f.rel) {
            continue;
        }
        let src = f.text.as_str();
        for def in tree::functions(src, &f.toks, &f.trees) {
            if f.line_in_test(def.line) {
                continue;
            }
            let mut c = LockCollector {
                src,
                toks: &f.toks,
                f,
                edges: Vec::new(),
                calls: Vec::new(),
                facts: FnFacts::default(),
                spawned: Vec::new(),
                direct: f.rel.starts_with("crates/net/src/"),
                blocking: Vec::new(),
            };
            let mut held = Vec::new();
            c.walk_block(&def.body.children, &mut held, false);
            // Spawn closures: fresh thread, fresh held set, and their
            // acquisitions do not count as the enclosing function's.
            let mut queue = std::mem::take(&mut c.spawned);
            let outer = std::mem::take(&mut c.facts);
            while let Some(g) = queue.pop() {
                let mut held = Vec::new();
                c.walk_block(&g.children, &mut held, false);
                queue.append(&mut c.spawned);
            }
            c.facts = outer;
            if let Some(node) = cg.fn_at(&f.rel, def.line) {
                acquired
                    .entry(node)
                    .or_default()
                    .extend(c.facts.acquired.iter().cloned());
            }
            edges.append(&mut c.edges);
            calls.append(&mut c.calls);
            for (line, message) in c.blocking {
                out.push(Diagnostic {
                    rule: "KVS-L007",
                    path: f.rel.clone(),
                    line,
                    message,
                });
            }
        }
    }

    // Call-site resolution over the real call graph: a held call at
    // (file, line, name) resolves to the same-crate `Free`/`SelfMethod`
    // edges the graph recorded there — method calls on locals and
    // cross-crate paths alias too loosely to propagate.
    let mut site: BTreeMap<(&str, usize, &str), Vec<usize>> = BTreeMap::new();
    for (caller, es) in cg.edges.iter().enumerate() {
        for e in es {
            if !matches!(e.kind, EdgeKind::Free | EdgeKind::SelfMethod) {
                continue;
            }
            if crate_key(&cg.fns[e.callee].file) != crate_key(&cg.fns[caller].file) {
                continue;
            }
            site.entry((cg.fns[caller].file.as_str(), e.line, e.name.as_str()))
                .or_default()
                .push(e.callee);
        }
    }

    // One level of call-edge propagation: a call made while holding H, to
    // a function that acquires L, is an H → L edge.
    for call in &calls {
        let Some(callees) = site.get(&(call.file.as_str(), call.line, call.callee.as_str())) else {
            continue;
        };
        for &callee in callees {
            let Some(locks) = acquired.get(&callee) else {
                continue;
            };
            for l in locks {
                for h in &call.held {
                    edges.push(LockEdge {
                        from: h.clone(),
                        to: l.clone(),
                        file: call.file.clone(),
                        line: call.line,
                        note: format!(" via call to {}()", call.callee),
                    });
                }
            }
        }
    }

    // KVS-L007, transitive shape: a call made while a guard is held must
    // not reach a blocking op through the call graph. The direct shapes
    // were reported per function above.
    let mut l007_sites: BTreeSet<(String, usize)> = BTreeSet::new();
    for call in &calls {
        let Some(callees) = site.get(&(call.file.as_str(), call.line, call.callee.as_str())) else {
            continue;
        };
        for &callee in callees {
            let Some((node, op_line, op, parent)) = blocking_reach(cg, callee) else {
                continue;
            };
            if !l007_sites.insert((call.file.clone(), call.line)) {
                continue;
            }
            let chain = format!(
                "{}:{} → {}",
                call.file,
                call.line,
                cg.witness(callee, node, &parent, op_line)
            );
            out.push(Diagnostic {
                rule: "KVS-L007",
                path: call.file.clone(),
                line: call.line,
                message: format!(
                    "guard `{}` held across call to `{}()` which reaches blocking `{}`: {}",
                    call.held.join("`, `"),
                    call.callee,
                    op,
                    chain
                ),
            });
        }
    }

    // Deduplicate by (from, to), keeping the first witness site.
    let mut adj: BTreeMap<String, Vec<LockEdge>> = BTreeMap::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for e in edges {
        if seen.insert((e.from.clone(), e.to.clone())) {
            adj.entry(e.from.clone()).or_default().push(e);
        }
    }

    // Cycle detection with witness reconstruction.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<String> = adj.keys().cloned().collect();
    for start in &nodes {
        let mut path: Vec<&LockEdge> = Vec::new();
        let mut on_path: Vec<String> = vec![start.clone()];
        find_cycle(&adj, start, &mut on_path, &mut path, &mut reported, out);
    }
}

fn find_cycle<'e>(
    adj: &'e BTreeMap<String, Vec<LockEdge>>,
    node: &str,
    on_path: &mut Vec<String>,
    path: &mut Vec<&'e LockEdge>,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    if on_path.len() > 32 {
        return; // defensive bound; real lock graphs are tiny
    }
    let Some(nexts) = adj.get(node) else {
        return;
    };
    for e in nexts {
        if let Some(pos) = on_path.iter().position(|n| n == &e.to) {
            // Cycle: edges path[pos..] plus e close the loop.
            let cycle: Vec<&LockEdge> = path[pos..].iter().copied().chain([e]).collect();
            let mut key: Vec<String> = cycle.iter().map(|c| c.from.clone()).collect();
            key.sort();
            if reported.insert(key) {
                let witness: Vec<String> = cycle
                    .iter()
                    .map(|c| format!("{} -> {} ({}:{}{})", c.from, c.to, c.file, c.line, c.note))
                    .collect();
                out.push(Diagnostic {
                    rule: "KVS-L009",
                    path: cycle[0].file.clone(),
                    line: cycle[0].line,
                    message: format!(
                        "lock-order cycle (deadlock candidate): {}",
                        witness.join(", then ")
                    ),
                });
            }
            continue;
        }
        on_path.push(e.to.clone());
        path.push(e);
        find_cycle(adj, &e.to, on_path, path, reported, out);
        path.pop();
        on_path.pop();
    }
}

// ---------------------------------------------------------------------------
// KVS-L010: channel / queue topology.
// ---------------------------------------------------------------------------

/// True when `code[pos]` starts `needle` and is not preceded by an
/// identifier character (so `tx.` never matches `retx.`).
fn find_endpoint_use(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(p) = code[from..].find(needle) {
        let at = from + p;
        let ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

fn channel_topology(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    const SENDS: &[&str] = &[".send(", ".try_send(", ".try_push", ".push("];
    const DRAINS: &[&str] = &[".recv", ".try_recv", ".iter(", ".try_iter(", ".drain"];
    for f in &ws.files {
        if !in_net_or_cluster_src(&f.rel) {
            continue;
        }
        for (n, l) in f.numbered() {
            if l.in_test {
                continue;
            }
            let code = l.code.trim();
            // `let (tx, rx) = <builder>…;` — single-line by rustfmt.
            let Some(rest) = code.strip_prefix("let (") else {
                continue;
            };
            let Some((names, init)) = rest.split_once(") =") else {
                continue;
            };
            let names: Vec<&str> = names.split(',').map(str::trim).collect();
            if names.len() != 2 {
                continue;
            }
            let unbounded = init.contains("unbounded")
                || (init.contains("channel(") && !init.contains("sync_channel("));
            let bounded = init.contains("work_queue")
                || init.contains("bounded(")
                || init.contains("sync_channel(");
            if !unbounded && !bounded {
                continue;
            }
            let (tx, rx) = (names[0].trim_start_matches("mut "), names[1]);
            if unbounded {
                out.push(Diagnostic {
                    rule: "KVS-L010",
                    path: f.rel.clone(),
                    line: n,
                    message: format!(
                        "unbounded channel `({tx}, {rx})` — queue depth is a measured quantity \
                         here; bound it, or waive with the invariant that caps its growth"
                    ),
                });
            }
            // Endpoint pairing: a send in this file needs a drain in this
            // file (both sides of every live channel stay in one
            // lifecycle).
            let mut sends = 0usize;
            let mut drains = 0usize;
            for (m, l2) in f.numbered() {
                if l2.in_test || m == n {
                    continue;
                }
                for s in SENDS {
                    if find_endpoint_use(&l2.code, &format!("{tx}{s}")) {
                        sends += 1;
                    }
                }
                for d in DRAINS {
                    if find_endpoint_use(&l2.code, &format!("{rx}{d}")) {
                        drains += 1;
                    }
                }
            }
            if sends > 0 && drains == 0 {
                out.push(Diagnostic {
                    rule: "KVS-L010",
                    path: f.rel.clone(),
                    line: n,
                    message: format!(
                        "channel `({tx}, {rx})` is sent to ({sends} site(s)) but `{rx}` is never \
                         drained in this file — dead-letter path or receiver leak"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// KVS-L011: stage-stamp dataflow.
// ---------------------------------------------------------------------------

/// The four pipeline stages of PAPER.md §IV; `master.rs` must keep
/// recording all of them or the per-stage decomposition silently loses a
/// term.
const STAGES: &[&str] = &[
    "Stage::MasterToSlave",
    "Stage::InQueue",
    "Stage::InDb",
    "Stage::SlaveToMaster",
];

fn stamp_scope(rel: &str) -> bool {
    rel.starts_with("crates/net/src/")
        && (rel.ends_with("/server.rs")
            || rel.ends_with("/master.rs")
            || rel.ends_with("/write_path.rs"))
}

fn stamp_dataflow(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if !stamp_scope(&f.rel) {
            continue;
        }
        check_frame_literals(f, &f.text, &f.trees, out);
        check_stage_completeness(f, out);
        check_stamp_mutations(f, out);
    }
}

/// Walks every sibling list, invoking `cb` on each non-test
/// `Frame { … }` struct literal with its body group and line. Shared by
/// KVS-L011 (stamp slots) and KVS-L016 (deadline threading).
fn for_each_frame_literal<'t>(
    f: &SourceFile,
    src: &str,
    trees: &'t [Tree],
    cb: &mut dyn FnMut(&'t Group, usize),
) {
    let toks = &f.toks;
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            for_each_frame_literal(f, src, &g.children, cb);
        }
        let is_frame = matches!(t, Tree::Leaf(ix) if toks[*ix].text(src) == "Frame");
        if !is_frame {
            continue;
        }
        let Some(Tree::Group(body)) = trees.get(i + 1) else {
            continue;
        };
        if body.delim != Delim::Brace {
            continue;
        }
        // Struct/trait declarations introduce `Frame {` too.
        if i > 0
            && leaf_text(src, toks, &trees[i - 1])
                .is_some_and(|t| matches!(t, "struct" | "enum" | "union" | "impl" | "trait"))
        {
            continue;
        }
        let line = leaf_line(toks, t);
        if f.line_in_test(line) {
            continue;
        }
        cb(body, line);
    }
}

/// Walks every sibling list looking for `Frame { … }` literals.
fn check_frame_literals(f: &SourceFile, src: &str, trees: &[Tree], out: &mut Vec<Diagnostic>) {
    for_each_frame_literal(f, src, trees, &mut |body, line| {
        check_one_frame(f, src, body, line, out);
    });
}

/// Field value trees for `name:` inside a struct-literal body.
fn field_value<'t>(src: &str, toks: &[Tok], body: &'t Group, name: &str) -> Option<Vec<&'t Tree>> {
    let ch = &body.children;
    let mut i = 0;
    while i < ch.len() {
        let here = leaf_text(src, toks, &ch[i]) == Some(name)
            && ch.get(i + 1).is_some_and(|t| is_punct(src, toks, t, ":"))
            && (i == 0 || is_punct(src, toks, &ch[i - 1], ","));
        if here {
            let mut vals = Vec::new();
            let mut j = i + 2;
            while j < ch.len() && !is_punct(src, toks, &ch[j], ",") {
                vals.push(&ch[j]);
                j += 1;
            }
            return Some(vals);
        }
        i += 1;
    }
    None
}

fn check_one_frame(
    f: &SourceFile,
    src: &str,
    body: &Group,
    line: usize,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &f.toks;
    let diag = |line: usize, message: String| Diagnostic {
        rule: "KVS-L011",
        path: f.rel.clone(),
        line,
        message,
    };
    let kind_text = field_value(src, toks, body, "kind")
        .map(|vals| {
            vals.iter()
                .map(|t| tree::text_of(src, toks, std::slice::from_ref(*t)))
                .collect::<String>()
        })
        .unwrap_or_default();
    let Some(stamp_vals) = field_value(src, toks, body, "stamps") else {
        return; // update syntax / destructuring: nothing to check
    };
    let [Tree::Group(arr)] = stamp_vals.as_slice() else {
        out.push(diag(
            line,
            "stamps must be a 4-element array literal written once at construction".to_string(),
        ));
        return;
    };
    if arr.delim != Delim::Bracket {
        return;
    }
    let stamp_line = toks[arr.open].line;
    // Split the array elements on `,`.
    let mut slots: Vec<String> = Vec::new();
    let mut cur: Vec<&Tree> = Vec::new();
    for t in &arr.children {
        if is_punct(src, toks, t, ",") {
            slots.push(slot_text(src, toks, &cur));
            cur.clear();
        } else {
            cur.push(t);
        }
    }
    if !cur.is_empty() {
        slots.push(slot_text(src, toks, &cur));
    }
    if slots.len() != 4 {
        out.push(diag(
            stamp_line,
            format!(
                "stamps literal has {} slot(s) — the stage decomposition needs exactly 4",
                slots.len()
            ),
        ));
        return;
    }
    let kind = kind_text
        .rsplit("FrameKind::")
        .next()
        .filter(|_| kind_text.contains("FrameKind::"))
        .unwrap_or("")
        .to_string();
    match kind.as_str() {
        // Write and Rmw frames follow the request convention: the master
        // owns the first three slots (the LWW timestamp travels in the
        // payload, never in the stamps).
        "Request" | "Write" | "Rmw" => {
            for (i, name) in ["issue", "send", "send-seq"].iter().enumerate() {
                if slots[i] == "0" {
                    out.push(diag(
                        stamp_line,
                        format!(
                            "request stamps[{i}] ({name}) is a literal 0 — the master must \
                             write it before encode"
                        ),
                    ));
                }
            }
            if slots[3] != "0" {
                out.push(diag(
                    stamp_line,
                    "request stamps[3] must be the literal 0 — it belongs to the slave side \
                     of the exchange"
                        .to_string(),
                ));
            }
        }
        // A write-ack carries the same four stage boundaries a response
        // does; losing one degrades the write path's decomposition the
        // same way.
        "Response" | "WriteAck" => {
            for (i, name) in ["send echo", "dequeue", "in-db end", "slave send"]
                .iter()
                .enumerate()
            {
                if slots[i] == "0" {
                    out.push(diag(
                        stamp_line,
                        format!(
                            "response stamps[{i}] ({name}) is a literal 0 — a dropped stage \
                             stamp silently degrades the per-stage model fit"
                        ),
                    ));
                }
            }
            let mut uniq: BTreeSet<&str> = BTreeSet::new();
            for (i, s) in slots.iter().enumerate() {
                if !uniq.insert(s.as_str()) {
                    out.push(diag(
                        stamp_line,
                        format!(
                            "response stamps[{i}] duplicates another slot (`{s}`) — each \
                             stage boundary is written exactly once"
                        ),
                    ));
                }
            }
        }
        // Busy / Expired / a kind passed as a parameter: only the echoed
        // request-send stamp is mandatory.
        _ => {
            if slots[0] == "0" {
                out.push(diag(
                    stamp_line,
                    "stamps[0] must echo the request's send time — a literal 0 erases the \
                     round-trip correlation"
                        .to_string(),
                ));
            }
        }
    }
}

fn slot_text(src: &str, toks: &[Tok], trees: &[&Tree]) -> String {
    let mut s = String::new();
    for t in trees {
        s.push_str(&tree::text_of(src, toks, std::slice::from_ref(*t)));
    }
    s
}

fn check_stage_completeness(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut present: BTreeMap<&str, usize> = BTreeMap::new();
    for (n, l) in f.numbered() {
        if l.in_test {
            continue;
        }
        for s in STAGES {
            if l.code.contains(s) {
                present.entry(s).or_insert(n);
            }
        }
    }
    if present.is_empty() || present.len() == STAGES.len() {
        return;
    }
    let first = *present.values().min().expect("non-empty");
    let missing: Vec<&str> = STAGES
        .iter()
        .filter(|s| !present.contains_key(**s))
        .copied()
        .collect();
    out.push(Diagnostic {
        rule: "KVS-L011",
        path: f.rel.clone(),
        line: first,
        message: format!(
            "stage decomposition incomplete: this file records some stages but not {} — \
             the per-stage model loses a term",
            missing.join(", ")
        ),
    });
}

fn check_stamp_mutations(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (n, l) in f.numbered() {
        if l.in_test {
            continue;
        }
        let code = &l.code;
        let Some(p) = code.find(".stamps[") else {
            continue;
        };
        let Some(close) = code[p..].find(']') else {
            continue;
        };
        let after = code[p + close + 1..].trim_start();
        if after.starts_with('=') && !after.starts_with("==") {
            out.push(Diagnostic {
                rule: "KVS-L011",
                path: f.rel.clone(),
                line: n,
                message: "post-construction write to a stamps slot — each slot is written \
                          exactly once, at frame construction, so no stage can be stamped \
                          twice or lost"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// KVS-L012: frame-kind exhaustiveness.
// ---------------------------------------------------------------------------

fn kind_scope(rel: &str) -> bool {
    rel.starts_with("crates/net/src/")
        && (rel.ends_with("/master.rs")
            || rel.ends_with("/server.rs")
            || rel.ends_with("/chaos.rs")
            || rel.ends_with("/write_path.rs"))
}

/// Variant names of `enum FrameKind` in `frame.rs`, in declaration order.
fn frame_kind_variants(ws: &Workspace) -> Option<Vec<String>> {
    let f = ws
        .files
        .iter()
        .find(|f| f.rel == "crates/net/src/frame.rs")?;
    variants_in(&f.text, &f.toks, &f.trees)
}

fn variants_in(src: &str, toks: &[Tok], trees: &[Tree]) -> Option<Vec<String>> {
    for (i, t) in trees.iter().enumerate() {
        if leaf_text(src, toks, t) == Some("enum")
            && leaf_text(src, toks, trees.get(i + 1)?) == Some("FrameKind")
        {
            if let Some(Tree::Group(g)) = trees.get(i + 2) {
                let mut names = Vec::new();
                let mut take_next = true;
                for c in &g.children {
                    if is_punct(src, toks, c, ",") {
                        take_next = true;
                    } else if take_next && is_ident(toks, c) {
                        names.push(leaf_text(src, toks, c)?.to_string());
                        take_next = false;
                    }
                }
                return Some(names);
            }
        }
        if let Tree::Group(g) = t {
            if let Some(v) = variants_in(src, toks, &g.children) {
                return Some(v);
            }
        }
    }
    None
}

fn kind_exhaustiveness(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(kinds) = frame_kind_variants(ws) else {
        return; // fixture trees without a frame.rs skip the rule
    };
    for f in &ws.files {
        if !kind_scope(&f.rel) {
            continue;
        }
        check_matches(f, &f.text, &f.trees, &kinds, out);
    }
}

fn check_matches(
    f: &SourceFile,
    src: &str,
    trees: &[Tree],
    kinds: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let toks = &f.toks;
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            check_matches(f, src, &g.children, kinds, out);
        }
        if leaf_text(src, toks, t) != Some("match") {
            continue;
        }
        let line = leaf_line(toks, t);
        if f.line_in_test(line) {
            continue;
        }
        // The match body: the next brace group among the siblings.
        let Some(body) = trees[i + 1..].iter().find_map(|t| match t {
            Tree::Group(g) if g.delim == Delim::Brace => Some(g),
            _ => None,
        }) else {
            continue;
        };
        let arms = arm_patterns(src, toks, body);
        if !arms.iter().any(|p| p.contains("FrameKind::")) {
            continue; // not a frame-kind match (codec kinds, byte values…)
        }
        let named: Vec<&String> = kinds
            .iter()
            .filter(|k| arms.iter().any(|p| p.contains(&format!("FrameKind::{k}"))))
            .collect();
        let has_wildcard = arms.iter().any(|p| {
            let p = p.trim();
            p == "_" || p.chars().all(|c| c.is_alphanumeric() || c == '_') && !p.is_empty()
        });
        let missing: Vec<&String> = kinds.iter().filter(|k| !named.contains(k)).collect();
        if missing.is_empty() {
            continue;
        }
        let list = missing
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        if has_wildcard {
            out.push(Diagnostic {
                rule: "KVS-L012",
                path: f.rel.clone(),
                line,
                message: format!(
                    "wildcard arm hides frame kind(s) {list} — name every kind so a new \
                     FrameKind cannot be silently swallowed, or waive the wildcard"
                ),
            });
        } else {
            out.push(Diagnostic {
                rule: "KVS-L012",
                path: f.rel.clone(),
                line,
                message: format!("frame-kind match does not handle {list} and has no wildcard arm"),
            });
        }
    }
}

/// The pattern text of each arm in a match body: tokens up to `=>`, with
/// arm bodies (block or expression-until-`,`) skipped.
fn arm_patterns(src: &str, toks: &[Tok], body: &Group) -> Vec<String> {
    let ch = &body.children;
    let mut arms = Vec::new();
    let mut i = 0;
    while i < ch.len() {
        // Collect the pattern until `=>`.
        let start = i;
        let mut fat_arrow = None;
        while i < ch.len() {
            if is_punct(src, toks, &ch[i], "=")
                && ch.get(i + 1).is_some_and(|t| is_punct(src, toks, t, ">"))
            {
                fat_arrow = Some(i);
                break;
            }
            i += 1;
        }
        let Some(arrow) = fat_arrow else {
            break;
        };
        arms.push(
            ch[start..arrow]
                .iter()
                .map(|t| tree::text_of(src, toks, std::slice::from_ref(t)))
                .collect::<String>(),
        );
        i = arrow + 2;
        // Skip the arm body: a block ends the arm; otherwise scan to `,`.
        if let Some(Tree::Group(g)) = ch.get(i) {
            if g.delim == Delim::Brace {
                i += 1;
                if ch.get(i).is_some_and(|t| is_punct(src, toks, t, ",")) {
                    i += 1;
                }
                continue;
            }
        }
        while i < ch.len() && !is_punct(src, toks, &ch[i], ",") {
            i += 1;
        }
        i += 1;
    }
    arms
}

// ---------------------------------------------------------------------------
// KVS-L014: blocking-call reachability from non-blocking zones.
// ---------------------------------------------------------------------------

/// BFS over `Free`/`SelfMethod`/`Path` edges only, returning the parent
/// map [`CallGraph::witness`] needs. May-call `Method` edges are *not*
/// traversed: bare names like `get`/`map` alias across the whole
/// workspace and would drown every reachability query in false paths. A
/// blocking method call (`rx.recv()`, `stream.write_all(…)`) still
/// surfaces, because each reached node's `ops` records it by name.
fn reach_parents(cg: &CallGraph, root: usize) -> BTreeMap<usize, (usize, usize)> {
    let mut parent: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    let mut seen = vec![false; cg.fns.len()];
    seen[root] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(n) = queue.pop_front() {
        for e in &cg.edges[n] {
            if matches!(e.kind, EdgeKind::Method) {
                continue;
            }
            if !seen[e.callee] {
                seen[e.callee] = true;
                parent.insert(e.callee, (n, e.line));
                queue.push_back(e.callee);
            }
        }
    }
    parent
}

/// A blocking-reachability hit: the reached node, the op's line, the
/// op's name, and the parent map needed to rebuild the witness chain.
type BlockingHit = (usize, usize, String, BTreeMap<usize, (usize, usize)>);

/// Blocking-reachability probe for the L007 interprocedural check: the
/// first reachable node (in node order) whose body contains a blocking
/// op, with the parent map needed to rebuild the witness chain.
fn blocking_reach(cg: &CallGraph, root: usize) -> Option<BlockingHit> {
    let parent = reach_parents(cg, root);
    for n in std::iter::once(root).chain(parent.keys().copied()) {
        if let Some((line, op)) = cg.fns[n]
            .ops
            .iter()
            .find(|(_, name)| BLOCKING_OPS.contains(&name.as_str()))
        {
            return Some((n, *line, op.clone(), parent));
        }
    }
    None
}

/// KVS-L014: nothing reachable from a `// LINT-ZONE: nonblocking`
/// function may block. Each diagnostic anchors at the zone's `fn` line
/// and carries the full witness chain.
fn blocking_reachability(cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let block: BTreeSet<&str> = BLOCKING_OPS
        .iter()
        .chain(ZONE_EXTRA_BLOCKING)
        .copied()
        .collect();
    for (root, f) in cg.fns.iter().enumerate() {
        if f.zone.as_deref() != Some("nonblocking") {
            continue;
        }
        let parent = reach_parents(cg, root);
        for n in std::iter::once(root).chain(parent.keys().copied()) {
            let Some((line, op)) = cg.fns[n]
                .ops
                .iter()
                .find(|(_, name)| block.contains(name.as_str()))
            else {
                continue;
            };
            out.push(Diagnostic {
                rule: "KVS-L014",
                path: f.file.clone(),
                line: f.line,
                message: format!(
                    "non-blocking zone `{}` can reach blocking `{}`: {}",
                    f.name,
                    op,
                    cg.witness(root, n, &parent, *line)
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// KVS-L015: crash ordering on the durable commit paths.
// ---------------------------------------------------------------------------

/// Files whose commit paths carry the docs/STORE.md ordering contract.
fn crash_scope(rel: &str) -> bool {
    [
        "store/src/manifest.rs",
        "store/src/durable.rs",
        "store/src/wal.rs",
    ]
    .iter()
    .any(|s| rel.ends_with(s))
}

/// KVS-L015: the docs/STORE.md durability contract — write → fsync →
/// rename → dir-fsync, and GC strictly after the manifest commit — as CFG
/// statement order. One level of call propagation: a statement calling a
/// workspace function whose body fsyncs (`write_sst`,
/// `WalWriter::create`, …) counts as a sync step; methods are
/// receiver-qualified so `File::create` never matches
/// `WalWriter::create`. "Preceded by" checks are universal over paths;
/// "followed by" checks are existential (can the dir-fsync be reached at
/// all) because `?` error edges legitimately exit before it.
fn crash_ordering(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let mut sync_pats: BTreeSet<String> = BTreeSet::new();
    for f in &cg.fns {
        if f.ops
            .iter()
            .any(|(_, n)| n == "sync_all" || n == "sync_data")
        {
            sync_pats.insert(match &f.receiver {
                Some(r) => format!("{r}::{}(", f.name),
                None => format!("{}(", f.name),
            });
        }
    }
    let is_sync = |text: &str| {
        text.contains("sync_all(")
            || text.contains("sync_data(")
            || sync_pats.iter().any(|p| text.contains(p.as_str()))
    };
    for f in &ws.files {
        if !crash_scope(&f.rel) {
            continue;
        }
        let src = f.text.as_str();
        for def in tree::functions(src, &f.toks, &f.trees) {
            if f.line_in_test(def.line) {
                continue;
            }
            let g = cfg::build(src, &f.toks, def.body);
            let diag = |line: usize, message: String| Diagnostic {
                rule: "KVS-L015",
                path: f.rel.clone(),
                line,
                message,
            };
            for r in g.find(|t| t.contains("rename(")) {
                if let Some(p) = g.path_avoiding(r, |n| is_sync(&g.stmts[n].text)) {
                    out.push(diag(
                        g.stmts[r].line,
                        format!(
                            "rename is reachable without a preceding fsync — a crash can \
                             publish unsynced data (docs/STORE.md order: write → fsync → \
                             rename → dir-fsync): {}",
                            g.witness(&f.rel, &p)
                        ),
                    ));
                }
                let dir_syncs = g.find(|t| t.contains("sync_all("));
                if !dir_syncs.iter().any(|&s| s != r && g.reaches(r, s)) {
                    out.push(diag(
                        g.stmts[r].line,
                        "rename is never followed by a directory fsync — a crash can lose \
                         the directory entry (docs/STORE.md order: write → fsync → rename → \
                         dir-fsync)"
                            .to_string(),
                    ));
                }
            }
            for c in g.find(|t| t.contains(".commit(")) {
                if let Some(p) = g.path_avoiding(c, |n| is_sync(&g.stmts[n].text)) {
                    out.push(diag(
                        g.stmts[c].line,
                        format!(
                            "manifest commit is reachable without a preceding sync of the \
                             data it references (docs/STORE.md: every path to a commit must \
                             pass a sync): {}",
                            g.witness(&f.rel, &p)
                        ),
                    ));
                }
                for rm in g.find(|t| t.contains("remove_file(")) {
                    if rm != c && g.reaches(rm, c) {
                        out.push(diag(
                            g.stmts[rm].line,
                            format!(
                                "GC (remove_file) can run before the manifest commit that \
                                 unreferences it — a crash between them loses the only \
                                 durable copy: {}:{} → {}:{}",
                                f.rel, g.stmts[rm].line, f.rel, g.stmts[c].line
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// KVS-L016: deadline propagation across call sites.
// ---------------------------------------------------------------------------

/// Deadline values that mint a fresh no-deadline frame.
const FRESH_DEADLINES: &[&str] = &["0", "u64::MAX", "NO_DEADLINE"];

/// True when the struct-literal body initializes `name` via field
/// shorthand (`Frame { …, deadline, … }`).
fn has_shorthand_field(src: &str, toks: &[Tok], body: &Group, name: &str) -> bool {
    let ch = &body.children;
    ch.iter().enumerate().any(|(i, t)| {
        leaf_text(src, toks, t) == Some(name)
            && (i == 0 || is_punct(src, toks, &ch[i - 1], ","))
            && ch.get(i + 1).is_none_or(|n| is_punct(src, toks, n, ","))
    })
}

/// KVS-L016: every `Frame` literal on the request paths must thread an
/// incoming deadline. A value that names the deadline
/// it threads, or derives a budget from the wall-clock portal
/// (`wall_ns() + …`), passes. When the value is a parameter of the
/// enclosing function the obligation moves to every call site in the
/// call graph: passing a literal `0`/`u64::MAX` there mints a fresh
/// no-deadline frame one function removed — exactly the bug L011 cannot
/// see.
fn deadline_propagation(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let mut caller_sites: BTreeSet<(String, usize)> = BTreeSet::new();
    for f in &ws.files {
        if !stamp_scope(&f.rel) {
            continue;
        }
        let src = f.text.as_str();
        let toks = &f.toks;
        let mut sites: Vec<(usize, String)> = Vec::new();
        for_each_frame_literal(f, src, &f.trees, &mut |body, line| {
            if let Some(vals) = field_value(src, toks, body, "deadline") {
                sites.push((line, slot_text(src, toks, &vals)));
            } else if has_shorthand_field(src, toks, body, "deadline") {
                sites.push((line, "deadline".to_string()));
            }
        });
        for (line, text) in sites {
            if FRESH_DEADLINES.contains(&text.as_str()) {
                out.push(Diagnostic {
                    rule: "KVS-L016",
                    path: f.rel.clone(),
                    line,
                    message: format!(
                        "frame mints a fresh `{text}` deadline — thread the incoming \
                         request's deadline instead"
                    ),
                });
                continue;
            }
            let identish = !text.is_empty()
                && text.chars().all(|c| c.is_alphanumeric() || c == '_')
                && !text.starts_with(|c: char| c.is_ascii_digit());
            if identish {
                // A bare name. When it is a parameter of the enclosing
                // function, the obligation moves to every call site.
                if let Some(node) = cg.fn_enclosing(&f.rel, line) {
                    if let Some(pos) = cg.fns[node].params.iter().position(|p| *p == text) {
                        for (caller, edge) in cg.callers(node) {
                            let Some(arg) = edge.args.get(pos) else {
                                continue;
                            };
                            if !FRESH_DEADLINES.contains(&arg.as_str()) {
                                continue;
                            }
                            let site = (cg.fns[caller].file.clone(), edge.line);
                            if caller_sites.insert(site.clone()) {
                                out.push(Diagnostic {
                                    rule: "KVS-L016",
                                    path: site.0,
                                    line: site.1,
                                    message: format!(
                                        "call to `{}()` passes a fresh `{arg}` deadline \
                                         into a frame — thread the incoming deadline \
                                         across this call",
                                        cg.fns[node].name
                                    ),
                                });
                            }
                        }
                        continue;
                    }
                }
                if text.contains("deadline") {
                    continue;
                }
                out.push(Diagnostic {
                    rule: "KVS-L016",
                    path: f.rel.clone(),
                    line,
                    message: format!(
                        "frame deadline comes from `{text}`, which neither names a \
                         threaded deadline nor is a parameter checked at its call sites"
                    ),
                });
                continue;
            }
            let threaded = text.contains("deadline");
            let portal_budget =
                text.contains("wall_ns") && (text.contains('+') || text.contains("saturating_add"));
            if !threaded && !portal_budget {
                out.push(Diagnostic {
                    rule: "KVS-L016",
                    path: f.rel.clone(),
                    line,
                    message: format!(
                        "frame deadline `{text}` is neither threaded from an incoming \
                         deadline nor a wall-clock budget (`wall_ns() + …`) — fresh \
                         deadlines break expiry propagation"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// KVS-L017 … KVS-L019: the dataflow-engine rules.
// ---------------------------------------------------------------------------

/// Files whose `from_be_bytes`/`from_le_bytes` results decode socket
/// bytes and are therefore untrusted wire input (suffix-matched so the
/// rule also runs on fixture trees mirroring the layout).
const WIRE_FILES: &[&str] = &[
    "net/src/frame.rs",
    "net/src/server.rs",
    "net/src/master.rs",
    "net/src/chaos.rs",
];

fn wire_scope(rel: &str) -> bool {
    WIRE_FILES.iter().any(|s| rel.ends_with(s))
}

/// KVS-L017's taint spec: wire decodes are sources; allocations sized
/// from them, slice indexing and loop bounds are sinks.
const WIRE_SPEC: dataflow::TaintSpec<'static> = dataflow::TaintSpec {
    sources: &["from_be_bytes(", "from_le_bytes("],
    sink_calls: &[
        ("with_capacity(", "allocation"),
        (".reserve(", "allocation"),
        (".resize(", "allocation"),
        ("vec![", "allocation"),
    ],
    index_sinks: true,
};

/// KVS-L017: untrusted wire-input taint. Summaries are built workspace-
/// wide (so a decode helper in another file still taints its callers),
/// but findings are reported only for functions living in the wire
/// files — `from_be_bytes` on locally produced data (store block
/// decode, checksums) is not wire input.
fn wire_taint(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    if !ws.files.iter().any(|f| wire_scope(&f.rel)) {
        return;
    }
    let summaries = dataflow::TaintSummaries::build(ws, cg, &WIRE_SPEC);
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for (fid, info) in cg.fns.iter().enumerate() {
        if !wire_scope(&info.file) {
            continue;
        }
        for ss in &summaries.by_fn[fid].source_sinks {
            let message = format!(
                "untrusted wire length: {} (line {}) reaches {} without a validated \
                 bound — compare against a MAX_PAYLOAD-style limit first; flow: {}",
                ss.what, ss.source_line, ss.hit.kind, ss.hit.chain
            );
            if seen.insert((info.file.clone(), ss.hit.line, message.clone())) {
                out.push(Diagnostic {
                    rule: "KVS-L017",
                    path: info.file.clone(),
                    line: ss.hit.line,
                    message,
                });
            }
        }
    }
}

/// Wall-clock and RNG portals whose results must not flow into the
/// deterministic zones. `wall_ns(` is the *sanctioned* live portal —
/// L001 allows calling it anywhere — but its value is still host time
/// and smuggling it into a zone breaks replayability just the same.
const TIME_SOURCES: &[&str] = &[
    "SystemTime::now(",
    "Instant::now(",
    "wall_ns(",
    "thread_rng(",
    "from_entropy(",
    "rand::random(",
];

const TIME_SPEC: dataflow::TaintSpec<'static> = dataflow::TaintSpec {
    sources: TIME_SOURCES,
    sink_calls: &[],
    index_sinks: false,
};

/// Callers exempt from KVS-L018: the bench lane feeds *measured*
/// timings to the model as data (that is its whole purpose), and the
/// linter itself times its phases.
fn time_exempt_caller(rel: &str) -> bool {
    rel.starts_with("crates/bench/") || rel.starts_with("crates/lint/")
}

/// The callees exempt from KVS-L018: the write coordinator and the read
/// dispatcher are pure machines that the socket world and the simulator
/// both run, so time (and the LWW clock) are their parameters by design —
/// the socket side passes the clock, the simulator simulated time. Their
/// own bodies stay in the L001 zone: they may read no clock.
const TIME_EXEMPT_CALLEES: &[&str] = &[
    "crates/cluster/src/coord.rs",
    "crates/cluster/src/dispatch.rs",
];

/// True when the source line at a call site is plausibly a call to
/// *this specific* callee. The call graph resolves `Path` calls whose
/// qualifier matches no workspace type by name alone, so `Instant::now()`
/// aliases every workspace `now()`; L018 must not report through such
/// edges. Accepts `Q::name(…)` only when `Q` is the callee's receiver
/// (or a module-looking lowercase path segment and the callee is a free
/// function), bare `name(…)` only for free callees, and `self.name(…)`
/// only within the callee's own impl.
fn plausible_call(
    line_text: &str,
    caller: &callgraph::FnInfo,
    callee: &callgraph::FnInfo,
    name: &str,
) -> bool {
    let pat = format!("{name}(");
    let b = line_text.as_bytes();
    let mut from = 0;
    while let Some(p) = line_text[from..].find(&pat) {
        let start = from + p;
        from = start + 1;
        if start > 0 && ((b[start - 1] as char).is_ascii_alphanumeric() || b[start - 1] == b'_') {
            continue; // substring of a longer identifier
        }
        let before = &line_text[..start];
        if let Some(qpath) = before.strip_suffix("::") {
            let q: String = qpath
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            match &callee.receiver {
                Some(r) => {
                    if *r == q {
                        return true;
                    }
                }
                None => {
                    if q.starts_with(|c: char| c.is_ascii_lowercase()) {
                        return true;
                    }
                }
            }
        } else if before.ends_with('.') {
            if before.trim_end_matches('.').ends_with("self")
                && callee.receiver.is_some()
                && caller.receiver == callee.receiver
            {
                return true;
            }
        } else if callee.receiver.is_none() {
            return true;
        }
    }
    false
}

/// KVS-L018: determinism escape by value flow. Two directions:
///
/// * a non-zone function passes a time/RNG-derived value (directly, or
///   a variable the taint engine tracked — including tainted returns of
///   helpers) as an argument to a function living in a deterministic
///   zone;
/// * a zone function calls a non-zone function whose summary says the
///   return value carries time/RNG taint.
///
/// Heuristic boundaries: a non-zone function that merely *forwards its
/// own parameter* into a zone call is not flagged (the caller passing
/// time into it is, one level up, only if that call site is itself a
/// zone call) — mark such conduits with `// LINT-TAINT-SOURCE` when the
/// parameter is known to carry host time. Pure value constructors
/// (`new`, `from_*`, `with_*`) are exempt sinks: wrapping a measured
/// duration into a typed sim value is the sanctioned live→sim bridge.
/// And because the call graph aliases unqualified names workspace-wide,
/// an edge only counts when the call site text plausibly names the
/// callee ([`plausible_call`]).
fn determinism_escape(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    use crate::rules::in_deterministic_zone;
    let resolved =
        |k: &EdgeKind| matches!(k, EdgeKind::Free | EdgeKind::SelfMethod | EdgeKind::Path);
    // Collect the call edges the rule cares about before paying for
    // summaries: non-zone → zone (taint-in) and zone → non-zone
    // (taint-back-via-return).
    let by_rel: BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let line_code = |rel: &str, line: usize| -> String {
        by_rel
            .get(rel)
            .and_then(|f| f.lines.get(line.checked_sub(1)?))
            .map(|l| l.code.clone())
            .unwrap_or_default()
    };
    let mut into_zone: Vec<(usize, usize, usize, String)> = Vec::new(); // caller, callee, line, name
    let mut from_zone: Vec<(usize, usize, usize, String)> = Vec::new();
    for (fid, info) in cg.fns.iter().enumerate() {
        let caller_zone = in_deterministic_zone(&info.file);
        for e in &cg.edges[fid] {
            if !resolved(&e.kind) {
                continue;
            }
            let callee_zone = in_deterministic_zone(&cg.fns[e.callee].file);
            if caller_zone == callee_zone {
                continue;
            }
            if !plausible_call(
                &line_code(&info.file, e.line),
                info,
                &cg.fns[e.callee],
                &e.name,
            ) {
                continue;
            }
            // Pure value constructors (`new`, `from_*`, `with_*`) wrap a
            // measured value into a typed one — that is data plumbing
            // (the live→sim measurement bridge), not zone behavior.
            // The escape fires when the value reaches a zone call that
            // *does* something with it.
            let constructor =
                e.name == "new" || e.name.starts_with("from_") || e.name.starts_with("with_");
            let exempt = time_exempt_caller(&info.file)
                || TIME_EXEMPT_CALLEES.contains(&cg.fns[e.callee].file.as_str());
            if !caller_zone && !exempt && !constructor {
                into_zone.push((fid, e.callee, e.line, e.name.clone()));
            } else if caller_zone {
                from_zone.push((fid, e.callee, e.line, e.name.clone()));
            }
        }
    }
    if into_zone.is_empty() && from_zone.is_empty() {
        return;
    }
    let summaries = dataflow::TaintSummaries::build(ws, cg, &TIME_SPEC);
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut emit = |path: &str, line: usize, message: String, out: &mut Vec<Diagnostic>| {
        if seen.insert((path.to_string(), line, message.clone())) {
            out.push(Diagnostic {
                rule: "KVS-L018",
                path: path.to_string(),
                line,
                message,
            });
        }
    };
    for (fid, callee, line, name) in from_zone {
        if summaries.by_fn[callee].returns_source {
            emit(
                &cg.fns[fid].file,
                line,
                format!(
                    "deterministic zone calls `{name}()`, whose return carries a \
                     wall-clock/RNG-derived value — take time from simcore::time \
                     or thread it in as an explicit parameter"
                ),
                out,
            );
        }
    }
    // Group the taint-in edges by caller so each caller's flow is
    // computed once.
    let mut by_caller: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
    for (fid, _callee, line, name) in into_zone {
        by_caller.entry(fid).or_default().push((line, name));
    }
    for (fid, sites) in by_caller {
        let file = cg.fns[fid].file.clone();
        let Some((g, flow, facts)) = dataflow::flow_for(ws, cg, fid, &TIME_SPEC, &summaries) else {
            continue;
        };
        for (line, name) in sites {
            let callpat = format!("{name}(");
            for n in 1..g.stmts.len() {
                if g.stmts[n].line != line || !g.stmts[n].text.contains(callpat.as_str()) {
                    continue;
                }
                let text = &g.stmts[n].text;
                // Direct: a portal read inside the call's own statement.
                for sp in TIME_SOURCES {
                    if text.contains(sp) {
                        emit(
                            &file,
                            line,
                            format!(
                                "`{}` flows into deterministic-zone call `{name}()` — \
                                 zones must take time/randomness from simcore, not \
                                 the host; flow: {file}:{line}",
                                sp.trim_end_matches('(')
                            ),
                            out,
                        );
                    }
                }
                // Tracked: a variable tainted earlier in the function.
                for &f in flow.ins[n].iter() {
                    let (origin, var) = &facts[f as usize];
                    let dataflow::Origin::Source {
                        line: src_line,
                        what,
                    } = origin
                    else {
                        continue;
                    };
                    if !ident_mentions(text, var) {
                        continue;
                    }
                    emit(
                        &file,
                        line,
                        format!(
                            "`{var}` carries {what} (line {src_line}) into \
                             deterministic-zone call `{name}()` — zones must take \
                             time/randomness from simcore, not the host; flow: \
                             {file}:{src_line} → {file}:{line}"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// Identifier-boundary substring: `needle` appears in `hay` not glued
/// to another identifier character on either side.
fn ident_mentions(hay: &str, needle: &str) -> bool {
    let b = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok =
            start == 0 || !((b[start - 1] as char).is_ascii_alphanumeric() || b[start - 1] == b'_');
        let after_ok =
            end >= b.len() || !((b[end] as char).is_ascii_alphanumeric() || b[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn receipt_scope(rel: &str) -> bool {
    rel.ends_with("store/src/durable.rs") || rel.ends_with("store/src/sst_file.rs")
}

/// KVS-L019: receipt accounting on the durable read paths. In any
/// non-test function in `durable.rs`/`sst_file.rs` with a receipt in
/// scope (the rule checks accounting *completeness* where accounting
/// exists, not coverage), every CFG path performing a disk block read
/// must charge the receipt — directly (`receipt.… += …` /
/// `receipt.… = true`) or by calling a same-scope helper that charges —
/// before reaching the exit. The read's own `?` error edge is exempt.
fn receipt_accounting(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    let is_direct_charge =
        |text: &str| text.contains("receipt.") && (text.contains("+=") || text.contains("=true"));
    // Helper functions whose body charges a receipt: calling them
    // counts as charging (`self.charge(receipt)` style indirection).
    let mut charge_helpers: BTreeSet<String> = BTreeSet::new();
    let mut fns: Vec<(&SourceFile, usize, cfg::Cfg)> = Vec::new();
    for f in &ws.files {
        if !receipt_scope(&f.rel) {
            continue;
        }
        for def in tree::functions(&f.text, &f.toks, &f.trees) {
            if f.line_in_test(def.line) {
                continue;
            }
            let g = cfg::build(&f.text, &f.toks, def.body);
            if !g.find(|t| is_direct_charge(t)).is_empty() {
                charge_helpers.insert(def.name.clone());
            }
            fns.push((f, def.line, g));
        }
    }
    let is_charge = |text: &str| {
        is_direct_charge(text)
            || charge_helpers
                .iter()
                .any(|h| text.contains(&format!("{h}(")) && ident_mentions(text, h))
    };
    // A positional read, or a block sliced out of an SSTable's mapping.
    let is_read = |text: &str| text.contains("read_exact") || text.contains("mapped_block(");
    for (f, fn_line, g) in &fns {
        // Receipt in scope: a parameter or any statement names it.
        let param_receipt = cg
            .fn_at(&f.rel, *fn_line)
            .is_some_and(|id| cg.fns[id].params.iter().any(|p| p == "receipt"));
        let in_scope = param_receipt || !g.find(|t| ident_mentions(t, "receipt")).is_empty();
        if !in_scope {
            continue;
        }
        for ob in dataflow::uncharged_paths(g, &f.rel, is_read, is_charge) {
            out.push(Diagnostic {
                rule: "KVS-L019",
                path: f.rel.clone(),
                line: ob.read_line,
                message: format!(
                    "disk block read can reach the function exit without charging the \
                     ReadReceipt — the bench observability silently rots; escaping \
                     path: {}",
                    ob.witness
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run_on(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        run(&ws_of(files), &mut out);
        out
    }

    #[test]
    fn inconsistent_lock_order_is_a_cycle() {
        let src = "pub fn f(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); drop(gb); drop(ga); }\n\
                   pub fn g(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); drop(ga); drop(gb); }\n";
        let out = run_on(&[("crates/net/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "KVS-L009");
        assert!(
            out[0].message.contains("net:a -> net:b"),
            "{}",
            out[0].message
        );
        assert!(
            out[0].message.contains("net:b -> net:a"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn consistent_order_and_temporaries_are_clean() {
        let src = "pub fn f(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); drop(gb); drop(ga); }\n\
                   pub fn g(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); drop(gb); drop(ga); }\n\
                   pub fn h(s: &S) { s.a.lock().push(1); s.b.lock().push(2); }\n";
        assert!(run_on(&[("crates/net/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn spawn_closures_are_isolated_threads() {
        let src = "pub fn f(s: &S) { let g = s.registry.lock();\n\
                   g.push(std::thread::spawn(move || { let h = s.other.lock(); drop(h); }));\n\
                   drop(g); }\n\
                   pub fn k(s: &S) { let h = s.other.lock(); let g2 = s.registry.lock(); drop(g2); drop(h); }\n";
        assert!(run_on(&[("crates/net/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn call_propagation_reaches_one_level() {
        let src = "fn inner(s: &S) { let gb = s.b.lock(); drop(gb); }\n\
                   pub fn f(s: &S) { let ga = s.a.lock(); inner(s); drop(ga); }\n\
                   pub fn g(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); drop(ga); drop(gb); }\n";
        let out = run_on(&[("crates/net/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(
            out[0].message.contains("via call to inner()"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn unbounded_and_undrained_channels_are_flagged() {
        let src = "pub fn leak() {\n    let (tx, rx) = crossbeam::channel::unbounded::<u64>();\n    tx.send(1).ok();\n}\n";
        let out = run_on(&[("crates/cluster/src/x.rs", src)]);
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out.iter().all(|d| d.rule == "KVS-L010"));
        let src_ok = "pub fn ok() {\n    let (tx, rx) = crossbeam::channel::bounded::<u64>(8);\n    tx.send(1).ok();\n    while let Ok(v) = rx.recv() { drop(v); }\n}\n";
        assert!(run_on(&[("crates/cluster/src/x.rs", src_ok)]).is_empty());
    }

    #[test]
    fn dropped_stage_stamp_is_flagged() {
        let src = "fn reply() -> Frame { Frame { kind: FrameKind::Response, id: 7,\n\
                   stamps: [first, dequeued, 0, wall_ns()], payload: p } }\n";
        let out = run_on(&[("crates/net/src/server.rs", src)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "KVS-L011");
        assert!(out[0].message.contains("in-db end"), "{}", out[0].message);
    }

    #[test]
    fn request_and_refusal_stamp_contracts_hold() {
        let src = "fn send() -> Frame { Frame { kind: FrameKind::Request,\n\
                   stamps: [issued, sent, seq, 0] } }\n\
                   fn refuse(kind: FrameKind) -> Frame { Frame { kind,\n\
                   stamps: [echo, wall_ns(), 0, 0] } }\n";
        assert!(run_on(&[("crates/net/src/master.rs", src)]).is_empty());
    }

    #[test]
    fn write_path_kinds_follow_their_stamp_conventions() {
        // Write/Rmw are request-shaped; WriteAck is response-shaped.
        let ok = "fn w() -> Frame { Frame { kind: FrameKind::Write,\n\
                  stamps: [issued, sent, seq, 0] } }\n\
                  fn r() -> Frame { Frame { kind: FrameKind::Rmw,\n\
                  stamps: [issued, sent, seq, 0] } }\n\
                  fn a() -> Frame { Frame { kind: FrameKind::WriteAck,\n\
                  stamps: [echo, dequeued, db_end, wall_ns()] } }\n";
        assert!(run_on(&[("crates/net/src/write_path.rs", ok)]).is_empty());
        let bad_write = "fn w() -> Frame { Frame { kind: FrameKind::Write,\n\
                         stamps: [issued, sent, seq, wall_ns()] } }\n";
        let out = run_on(&[("crates/net/src/write_path.rs", bad_write)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "KVS-L011");
        assert!(out[0].message.contains("stamps[3]"), "{}", out[0].message);
        let bad_ack = "fn a() -> Frame { Frame { kind: FrameKind::WriteAck,\n\
                       stamps: [echo, dequeued, 0, wall_ns()] } }\n";
        let out = run_on(&[("crates/net/src/write_path.rs", bad_ack)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "KVS-L011");
        assert!(out[0].message.contains("in-db end"), "{}", out[0].message);
    }

    #[test]
    fn wildcard_match_on_frame_kind_is_flagged() {
        let frame = "pub enum FrameKind { Request, Response, Busy, Expired }\n";
        let master = "fn on(kind: FrameKind) { match kind { FrameKind::Busy => {}, _ => {} } }\n";
        let out = run_on(&[
            ("crates/net/src/frame.rs", frame),
            ("crates/net/src/master.rs", master),
        ]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "KVS-L012");
        assert!(out[0].message.contains("Request"), "{}", out[0].message);
        let full = "fn on(kind: FrameKind) { match kind {\n\
                    FrameKind::Request => {}\n    FrameKind::Response => {}\n\
                    FrameKind::Busy => {}\n    FrameKind::Expired => {}\n} }\n";
        assert!(run_on(&[
            ("crates/net/src/frame.rs", frame),
            ("crates/net/src/master.rs", full),
        ])
        .is_empty());
    }

    #[test]
    fn nonblocking_zone_reaching_a_blocking_op_is_flagged_with_a_chain() {
        let src = "// LINT-ZONE: nonblocking\n\
                   fn tick(s: &S) { helper(s); }\n\
                   fn helper(s: &S) { s.rx.recv(); }\n";
        let out = run_on(&[("crates/net/src/master.rs", src)]);
        let l014: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L014").collect();
        assert_eq!(l014.len(), 1, "{out:#?}");
        assert_eq!(l014[0].line, 2);
        assert!(
            l014[0]
                .message
                .contains("crates/net/src/master.rs:2 → crates/net/src/master.rs:3"),
            "{}",
            l014[0].message
        );
        // The same chain without the anchor comment is nobody's business.
        let unzoned = "fn tick(s: &S) { helper(s); }\nfn helper(s: &S) { s.rx.recv(); }\n";
        assert!(run_on(&[("crates/net/src/master.rs", unzoned)])
            .iter()
            .all(|d| d.rule != "KVS-L014"));
    }

    #[test]
    fn guard_held_across_a_transitively_blocking_call_is_flagged() {
        let src = "fn push_out(s: &S) { s.stream.write_all(&s.buf); }\n\
                   pub fn f(s: &S) { let g = s.conn.lock(); push_out(s); drop(g); }\n";
        let out = run_on(&[("crates/net/src/master.rs", src)]);
        let l007: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L007").collect();
        assert_eq!(l007.len(), 1, "{out:#?}");
        assert_eq!(l007[0].line, 2);
        assert!(
            l007[0].message.contains("push_out")
                && l007[0].message.contains("write_all")
                && l007[0]
                    .message
                    .contains("crates/net/src/master.rs:2 → crates/net/src/master.rs:1"),
            "{}",
            l007[0].message
        );
    }

    #[test]
    fn rename_without_a_preceding_fsync_is_a_crash_ordering_violation() {
        let bad = "impl Manifest { pub fn commit(&self, dir: &Path) -> io::Result<()> {\n\
                   let tmp = dir.join(TMP);\n\
                   fs::rename(&tmp, &dst)?;\n\
                   f.sync_data()?;\n\
                   File::open(dir)?.sync_all()?;\n\
                   Ok(())\n\
                   } }\n";
        let out = run_on(&[("crates/store/src/manifest.rs", bad)]);
        let l015: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L015").collect();
        assert_eq!(l015.len(), 1, "{out:#?}");
        assert_eq!(l015[0].line, 3);
        assert!(
            l015[0].message.contains("without a preceding fsync")
                && l015[0].message.contains("crates/store/src/manifest.rs:2"),
            "{}",
            l015[0].message
        );
        let good = "impl Manifest { pub fn commit(&self, dir: &Path) -> io::Result<()> {\n\
                    let tmp = dir.join(TMP);\n\
                    { let mut f = open(&tmp)?; f.write_all(&self.encode())?; f.sync_data()?; }\n\
                    fs::rename(&tmp, &dst)?;\n\
                    File::open(dir)?.sync_all()?;\n\
                    Ok(())\n\
                    } }\n";
        assert!(run_on(&[("crates/store/src/manifest.rs", good)])
            .iter()
            .all(|d| d.rule != "KVS-L015"));
    }

    #[test]
    fn gc_before_the_manifest_commit_is_a_crash_ordering_violation() {
        let bad = "impl Durable { fn flush(&mut self) -> io::Result<()> {\n\
                   let sst = write_sst(&self.dir, gen, &cells)?;\n\
                   fs::remove_file(&old)?;\n\
                   self.manifest.commit(&self.dir)?;\n\
                   Ok(())\n\
                   } }\n\
                   fn write_sst(dir: &Path) -> io::Result<()> {\n\
                   let f = open(dir)?; f.sync_data()?; Ok(())\n\
                   }\n";
        let out = run_on(&[("crates/store/src/durable.rs", bad)]);
        let l015: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L015").collect();
        assert_eq!(l015.len(), 1, "{out:#?}");
        assert_eq!(l015[0].line, 3);
        assert!(l015[0].message.contains("GC"), "{}", l015[0].message);
        // One level of call propagation: `write_sst` counts as the sync.
        let good = bad.replace(
            "let sst = write_sst(&self.dir, gen, &cells)?;\nfs::remove_file(&old)?;",
            "let sst = write_sst(&self.dir, gen, &cells)?;",
        );
        assert!(run_on(&[("crates/store/src/durable.rs", &good)])
            .iter()
            .all(|d| d.rule != "KVS-L015"));
    }

    #[test]
    fn fresh_deadline_in_a_frame_literal_is_flagged() {
        let bad = "fn send() -> Frame { Frame { kind: FrameKind::Request,\n\
                   stamps: [issued, sent, seq, 0], deadline: 0 } }\n";
        let out = run_on(&[("crates/net/src/master.rs", bad)]);
        let l016: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L016").collect();
        assert_eq!(l016.len(), 1, "{out:#?}");
        assert!(l016[0].message.contains("fresh `0`"), "{}", l016[0].message);
        let ok = "fn relay(incoming: &Frame) -> Frame { Frame { kind: FrameKind::Request,\n\
                  stamps: [issued, sent, seq, 0], deadline: incoming.deadline } }\n";
        assert!(run_on(&[("crates/net/src/master.rs", ok)])
            .iter()
            .all(|d| d.rule != "KVS-L016"));
    }

    #[test]
    fn deadline_parameters_are_checked_at_their_call_sites() {
        let src =
            "fn send(node: u32, deadline: u64) -> Frame { Frame { kind: FrameKind::Request,\n\
                   stamps: [issued, sent, seq, 0], deadline } }\n\
                   fn go() { send(7, 0); }\n\
                   fn ok(d: u64) { send(7, d); }\n";
        let out = run_on(&[("crates/net/src/master.rs", src)]);
        let l016: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L016").collect();
        assert_eq!(l016.len(), 1, "{out:#?}");
        assert_eq!(
            l016[0].line, 3,
            "the violation is the call site, not the literal"
        );
        assert!(
            l016[0].message.contains("send") && l016[0].message.contains("`0`"),
            "{}",
            l016[0].message
        );
    }

    // ---- KVS-L017: untrusted wire-input taint -----------------------

    #[test]
    fn wire_length_reaching_allocation_unvalidated_is_flagged() {
        let bad = "pub fn read_frame(buf: &[u8]) -> Vec<u8> {\n\
                   let len = u32::from_be_bytes(buf[0..4].try_into().expect(\"4\")) as usize;\n\
                   let payload = Vec::with_capacity(len);\n\
                   payload }\n";
        let out = run_on(&[("crates/net/src/frame.rs", bad)]);
        let l017: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L017").collect();
        assert_eq!(l017.len(), 1, "{out:#?}");
        assert_eq!(l017[0].line, 3);
        assert!(
            l017[0].message.contains("allocation"),
            "{}",
            l017[0].message
        );
        assert!(
            l017[0]
                .message
                .contains("crates/net/src/frame.rs:2 → crates/net/src/frame.rs:3"),
            "witness chain should run source to sink: {}",
            l017[0].message
        );
    }

    #[test]
    fn bounds_check_sanitizes_the_wire_length() {
        let ok = "pub fn read_frame(buf: &[u8]) -> Result<Vec<u8>, Error> {\n\
                  let len = u32::from_be_bytes(buf[0..4].try_into().expect(\"4\"));\n\
                  if len > MAX_PAYLOAD { return Err(Error::TooLarge(len)); }\n\
                  let payload = Vec::with_capacity(len as usize);\n\
                  Ok(payload) }\n";
        let out = run_on(&[("crates/net/src/frame.rs", ok)]);
        assert!(
            out.iter().all(|d| d.rule != "KVS-L017"),
            "validated length must not be flagged: {out:#?}"
        );
    }

    #[test]
    fn non_wire_files_are_out_of_l017_scope() {
        let src = "pub fn decode(buf: &[u8]) -> Vec<u8> {\n\
                   let len = u32::from_be_bytes(buf[0..4].try_into().expect(\"4\")) as usize;\n\
                   Vec::with_capacity(len) }\n";
        // Same shape, but store-side block decode works on locally
        // produced data — a wire file elsewhere keeps the pass alive.
        let out = run_on(&[
            ("crates/store/src/block.rs", src),
            ("crates/net/src/frame.rs", "pub fn ping() {}\n"),
        ]);
        assert!(out.iter().all(|d| d.rule != "KVS-L017"), "{out:#?}");
    }

    // ---- KVS-L018: determinism escape -------------------------------

    #[test]
    fn tracked_wall_clock_value_into_zone_call_is_flagged() {
        let zone = "pub fn advance(model: &mut Model, now: u64) { model.t = now; }\n";
        let live = "pub fn tick(model: &mut Model) {\n\
                    let host_now = wall_ns();\n\
                    advance(model, host_now); }\n";
        let out = run_on(&[
            ("crates/simcore/src/model.rs", zone),
            ("crates/net/src/server.rs", live),
        ]);
        let l018: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L018").collect();
        assert_eq!(l018.len(), 1, "{out:#?}");
        assert_eq!(l018[0].path, "crates/net/src/server.rs");
        assert_eq!(l018[0].line, 3);
        assert!(
            l018[0].message.contains("host_now")
                && l018[0]
                    .message
                    .contains("crates/net/src/server.rs:2 → crates/net/src/server.rs:3"),
            "{}",
            l018[0].message
        );
    }

    #[test]
    fn zone_calling_a_time_returning_helper_is_flagged() {
        let live = "pub fn host_nanos() -> u64 { wall_ns() }\n";
        let zone = "pub fn advance(model: &mut Model) { model.t = host_nanos(); }\n";
        let out = run_on(&[
            ("crates/net/src/server.rs", live),
            ("crates/simcore/src/model.rs", zone),
        ]);
        let l018: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L018").collect();
        assert_eq!(l018.len(), 1, "{out:#?}");
        assert_eq!(l018[0].path, "crates/simcore/src/model.rs");
        assert!(
            l018[0].message.contains("host_nanos"),
            "{}",
            l018[0].message
        );
    }

    #[test]
    fn sim_parameters_and_constructors_stay_clean() {
        // Passing a *sim-derived* value into a zone is fine, and so is
        // wrapping a measured duration via a `from_*` constructor (the
        // sanctioned live→sim bridge).
        let zone = "pub fn advance(model: &mut Model, now: u64) { model.t = now; }\n\
                    impl SimTime { pub fn from_nanos(n: u64) -> SimTime { SimTime(n) } }\n";
        let live = "pub fn tick(model: &mut Model, sim_now: u64) {\n\
                    advance(model, sim_now);\n\
                    let w = wall_ns();\n\
                    let _bridge = SimTime::from_nanos(w); }\n";
        let out = run_on(&[
            ("crates/simcore/src/model.rs", zone),
            ("crates/net/src/server.rs", live),
        ]);
        assert!(out.iter().all(|d| d.rule != "KVS-L018"), "{out:#?}");
    }

    // ---- KVS-L019: receipt accounting -------------------------------

    #[test]
    fn read_escaping_before_the_charge_is_flagged_with_a_path() {
        let bad =
            "pub fn load(file: &mut File, receipt: &mut ReadReceipt) -> io::Result<Vec<u8>> {\n\
                   let mut buf = vec![0u8; 64];\n\
                   file.read_exact(&mut buf)?;\n\
                   if fnv64(&buf) != expected { return Err(corrupt()); }\n\
                   receipt.disk_blocks_read += 1;\n\
                   Ok(buf) }\n";
        let out = run_on(&[("crates/store/src/sst_file.rs", bad)]);
        let l019: Vec<_> = out.iter().filter(|d| d.rule == "KVS-L019").collect();
        assert_eq!(l019.len(), 1, "{out:#?}");
        assert_eq!(l019[0].line, 3);
        assert!(
            l019[0]
                .message
                .contains("crates/store/src/sst_file.rs:3 → crates/store/src/sst_file.rs:4"),
            "the escaping path should pass the early return: {}",
            l019[0].message
        );
    }

    #[test]
    fn charging_before_branching_satisfies_every_path() {
        let ok =
            "pub fn load(file: &mut File, receipt: &mut ReadReceipt) -> io::Result<Vec<u8>> {\n\
                  let mut buf = vec![0u8; 64];\n\
                  file.read_exact(&mut buf)?;\n\
                  receipt.disk_blocks_read += 1;\n\
                  if fnv64(&buf) != expected { return Err(corrupt()); }\n\
                  Ok(buf) }\n";
        assert!(run_on(&[("crates/store/src/sst_file.rs", ok)])
            .iter()
            .all(|d| d.rule != "KVS-L019"));
    }

    #[test]
    fn receiptless_functions_and_helper_charges_are_clean() {
        // No receipt in scope → the rule measures accounting
        // completeness, not coverage; and charging through a same-scope
        // helper counts.
        let src = "pub fn raw(file: &mut File) -> io::Result<()> {\n\
                   let mut b = [0u8; 8]; file.read_exact(&mut b)?; Ok(()) }\n\
                   pub fn charge(receipt: &mut ReadReceipt) { receipt.disk_blocks_read += 1; }\n\
                   pub fn load(file: &mut File, receipt: &mut ReadReceipt) -> io::Result<()> {\n\
                   let mut b = [0u8; 8];\n\
                   file.read_exact(&mut b)?;\n\
                   charge(receipt);\n\
                   Ok(()) }\n";
        assert!(run_on(&[("crates/store/src/durable.rs", src)])
            .iter()
            .all(|d| d.rule != "KVS-L019"));
    }
}
