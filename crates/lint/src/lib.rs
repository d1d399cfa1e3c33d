//! `kvs-lint`: the workspace invariant checker.
//!
//! The paper's methodology stands on two legs this linter guards
//! mechanically: *measured* timings must come only from the sanctioned
//! clock portals, and the *simulated* components must be deterministic
//! enough to cross-validate against live runs. On top of that it pins the
//! wire-protocol documentation to the constants in `frame.rs` and enforces
//! the error- and lock-discipline conventions of the `net`/`cluster` hot
//! paths. See [`rules`] for the rule catalogue and [`waiver`] for the
//! escape hatch.
//!
//! The linter is a three-layer analyzer: a real tokenizer and
//! token-tree builder ([`token`], [`tree`]), the line rules plus
//! semantic passes over the trees ([`rules`], [`passes`]: lock-order
//! cycles, lock guards held across blocking calls, channel topology,
//! stage-stamp dataflow, frame-kind exhaustiveness), and the
//! interprocedural layer — a workspace call graph ([`callgraph`]) and
//! per-function control-flow graphs ([`cfg`](mod@cfg)) that power
//! blocking-reachability, crash-ordering and deadline-propagation
//! passes. On top of those sits the dataflow engine ([`dataflow`]): a
//! gen/kill worklist fixed point over the CFG blocks with bottom-up
//! interprocedural taint summaries over the call graph's SCC
//! condensation, powering the wire-input-taint, determinism-escape and
//! receipt-accounting rules (KVS-L017 … KVS-L019). Findings print as
//! `file:line: RULE: message` text; [`waiver`]s are the one exception
//! channel.
//!
//! Deliberately dependency-free (std only): this crate is the tool that
//! guards the shims, so it must build even when every shim is broken.
//! [`json`] is the JSON layer `kvs-bench` and the benchmark share.
//!
//! Run it:
//!
//! ```console
//! $ cargo run -p kvs-lint -- check            # lint the workspace
//! $ cargo run -p kvs-lint -- rules            # list rule IDs
//! $ cargo run -p kvs-lint -- waivers          # waivers with hit counts
//! $ cargo run -p kvs-lint -- lines            # non-test lines per crate
//! ```
//!
//! See `docs/LINT.md` for the architecture and the full rule catalogue.

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod json;
pub mod passes;
pub mod rules;
pub mod scan;
pub mod token;
pub mod tree;
pub mod waiver;

pub use rules::{Diagnostic, RULES};

use scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the waiver file, resolved relative to the workspace root.
pub const WAIVER_FILE: &str = "lint.waivers.toml";

/// Result of linting one workspace root.
pub struct Outcome {
    /// Violations that remain after waivers — non-empty means fail.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by a waiver, with the justification.
    pub waived: Vec<(Diagnostic, String)>,
    /// Every parsed waiver with the number of diagnostics it suppressed
    /// this run; feeds `kvs-lint waivers`.
    pub waiver_hits: Vec<(waiver::Waiver, usize)>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directory names never descended into. `target` is build output;
/// `fixtures` holds the linter's own deliberately-violating test trees,
/// which must not fail the real workspace.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads and scans every `.rs` file under `root/<top>` for each `top`,
/// in path order.
fn scan_dirs(root: &Path, tops: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for dir in tops {
        if dir.is_dir() {
            walk_rs(dir, &mut paths)?;
        }
    }
    paths
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Ok(SourceFile::scan(&rel, &fs::read_to_string(path)?))
        })
        .collect()
}

/// Lints the workspace rooted at `root` (the directory holding `crates/`,
/// `shims/` and `docs/`), applying [`WAIVER_FILE`] when present.
pub fn check_workspace(root: &Path) -> io::Result<Outcome> {
    let load_md = |name: &str| -> io::Result<Option<(String, Vec<String>)>> {
        let path = root.join("docs").join(name);
        if !path.is_file() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)?;
        Ok(Some((
            format!("docs/{name}"),
            text.lines().map(str::to_string).collect(),
        )))
    };
    let ws = rules::Workspace {
        files: scan_dirs(root, &[root.join("crates"), root.join("shims")])?,
        net_md: load_md("NET.md")?,
        store_md: load_md("STORE.md")?,
    };
    let files_scanned = ws.files.len();
    let mut raw = rules::run_all(&ws);

    let waiver_path = root.join(WAIVER_FILE);
    let waivers = if waiver_path.is_file() {
        match waiver::parse(&fs::read_to_string(&waiver_path)?) {
            Ok(ws) => ws,
            Err((line, msg)) => {
                raw.push(Diagnostic {
                    rule: "KVS-L000",
                    path: WAIVER_FILE.to_string(),
                    line,
                    message: format!("waiver file rejected: {msg}"),
                });
                raw.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
                return Ok(Outcome {
                    diagnostics: raw,
                    waived: Vec::new(),
                    waiver_hits: Vec::new(),
                    files_scanned,
                });
            }
        }
    } else {
        Vec::new()
    };

    let raw_line = |path: &str, line: usize| -> Option<String> {
        if let Some(f) = ws.file(path) {
            return f.lines.get(line.checked_sub(1)?).map(|l| l.raw.clone());
        }
        for md in [&ws.net_md, &ws.store_md].into_iter().flatten() {
            if md.0 == path {
                return md.1.get(line.checked_sub(1)?).cloned();
            }
        }
        None
    };
    let applied = waiver::apply(raw, &waivers, WAIVER_FILE, raw_line);
    let mut diagnostics = applied.failing;
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Outcome {
        diagnostics,
        waived: applied.waived,
        waiver_hits: waivers.into_iter().zip(applied.hits).collect(),
        files_scanned,
    })
}

/// Every `.rs` file under `root/crates/*/src`, scanned, in path order:
/// what `kvs-lint lines` counts with [`SourceFile::non_test_lines`].
pub fn crate_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut srcs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path().join("src")))
        .collect::<io::Result<_>>()?;
    srcs.sort();
    scan_dirs(root, &srcs)
}
