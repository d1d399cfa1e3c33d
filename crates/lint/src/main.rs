//! CLI entry point.
//!
//! ```console
//! $ kvs-lint check [--root <path>]
//! $ kvs-lint rules
//! $ kvs-lint waivers [--root <path>]
//! $ kvs-lint lines [--root <path>]
//! ```
//!
//! Findings print as `file:line: RULE: message`, the shape
//! `.github/kvs-lint-problem-matcher.json` turns into annotations.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: kvs-lint <check|rules|waivers|lines> [--root <path>]");
    eprintln!("  check     lint the workspace; exit 0 when clean, 1 on violations");
    eprintln!("  rules     list rule IDs and what they enforce");
    eprintln!("  waivers   list waivers with how many findings each suppressed this run");
    eprintln!("  lines     non-test lines per file and per crate under crates/*/src");
    ExitCode::from(2)
}

/// Parses `<command> [--root <path>]`; the root defaults to the workspace
/// this binary was built in.
fn parse_args() -> Result<(String, PathBuf), ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "rules" | "waivers" | "lines" if cmd.is_none() => cmd = Some(a.clone()),
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    let Some(cmd) = cmd else {
        return Err(usage());
    };
    let root = root.unwrap_or_else(|| {
        // When run via `cargo run -p kvs-lint`, the manifest dir is
        // crates/lint — the workspace root is two levels up.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    Ok((cmd, root))
}

fn main() -> ExitCode {
    let (cmd, root) = match parse_args() {
        Ok(c) => c,
        Err(code) => return code,
    };
    let cannot_scan = |e: std::io::Error| {
        eprintln!("kvs-lint: cannot scan {}: {e}", root.display());
        ExitCode::from(2)
    };
    match cmd.as_str() {
        "rules" => {
            for (id, summary) in kvs_lint::RULES {
                println!("{id}  {summary}");
            }
            ExitCode::SUCCESS
        }
        "lines" => kvs_lint::crate_sources(&root).map_or_else(cannot_scan, |files| lines(&files)),
        _ => match kvs_lint::check_workspace(&root) {
            Ok(outcome) if cmd == "check" => check(&outcome),
            Ok(outcome) => waivers(&outcome),
            Err(e) => cannot_scan(e),
        },
    }
}

fn check(outcome: &kvs_lint::Outcome) -> ExitCode {
    for d in &outcome.diagnostics {
        println!("{d}");
    }
    if outcome.is_clean() {
        println!(
            "kvs-lint: clean — {} files scanned, {} waived finding(s)",
            outcome.files_scanned,
            outcome.waived.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "kvs-lint: {} violation(s) across {} files ({} waived); \
             see docs/LINT.md for rule docs and waivers",
            outcome.diagnostics.len(),
            outcome.files_scanned,
            outcome.waived.len()
        );
        ExitCode::FAILURE
    }
}

/// `kvs-lint lines`: non-test and total lines of every file, then of
/// every crate (`crates/<name>`), then of all of them.
fn lines(files: &[kvs_lint::scan::SourceFile]) -> ExitCode {
    let mut crates: Vec<(&str, usize, usize)> = Vec::new();
    println!("{:>8} {:>6}  FILE", "NON-TEST", "TOTAL");
    for f in files {
        let (non_test, total) = (f.non_test_lines(), f.lines.len());
        println!("{non_test:>8} {total:>6}  {}", f.rel);
        let krate = f.rel.split("/src/").next().unwrap_or(&f.rel);
        match crates.last_mut() {
            Some(c) if c.0 == krate => (c.1, c.2) = (c.1 + non_test, c.2 + total),
            _ => crates.push((krate, non_test, total)),
        }
    }
    println!("\n{:>8} {:>6}  CRATE", "NON-TEST", "TOTAL");
    for (krate, non_test, total) in &crates {
        println!("{non_test:>8} {total:>6}  {krate}");
    }
    let sum = |pick: fn(&(&str, usize, usize)) -> usize| crates.iter().map(pick).sum::<usize>();
    println!("{:>8} {:>6}  all crates", sum(|c| c.1), sum(|c| c.2));
    ExitCode::SUCCESS
}

fn waivers(outcome: &kvs_lint::Outcome) -> ExitCode {
    if outcome.waiver_hits.is_empty() {
        println!("kvs-lint: no waivers on file");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<9} {:>4}  {:<44} OWNER",
        "RULE", "HITS", "PATH (contains)"
    );
    let mut stale = 0usize;
    for (w, hits) in &outcome.waiver_hits {
        if *hits == 0 {
            stale += 1;
        }
        println!(
            "{:<9} {:>4}  {:<44} {}",
            w.rule,
            hits,
            format!("{} ({})", w.path, truncate(&w.contains, 24)),
            w.owner
        );
    }
    if stale > 0 {
        // Fail pointing at each stale entry's own `file:line` — the
        // `KVS-L000` diagnostics the check pass minted carry the
        // `[[waiver]]` header line, so the fix is one jump away. The
        // old exit only printed the count.
        for d in outcome
            .diagnostics
            .iter()
            .filter(|d| d.rule == "KVS-L000" && d.path == kvs_lint::WAIVER_FILE)
        {
            println!("{d}");
        }
    }
    println!(
        "kvs-lint: {} waiver(s), {} suppressed finding(s), {} stale",
        outcome.waiver_hits.len(),
        outcome.waived.len(),
        stale
    );
    if stale > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{head}…")
    }
}
