//! bench_schema_check — validates emitted `BENCH_*.json` files.
//!
//! CI runs the drills and then this checker, so a drill whose emitter
//! regresses (wrong envelope, missing field, NaN quantile, unparseable
//! output) fails the build instead of shipping a report nothing can read.
//!
//! Usage: `bench_schema_check [file ...]` — with no file arguments it
//! validates every `BENCH_*.json` under `target/figures/` and fails if
//! there are none (a drill lane that produced no reports is itself a
//! regression).

use kvs_bench::figures_dir;
use kvs_bench::json::{parse, validate, Value};
use std::fs;
use std::path::{Path, PathBuf};

fn discovered() -> Vec<PathBuf> {
    let dir = figures_dir();
    let mut found: Vec<PathBuf> = fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| is_bench_report(p))
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

fn is_bench_report(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
}

fn check(path: &PathBuf) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parse error: {e}"))?;
    validate(&doc)?;
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .expect("validated doc has a bench name")
        .to_string();
    let expected = format!("BENCH_{bench}.json");
    let actual = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if actual != expected {
        return Err(format!(
            "file name {actual} does not match bench field (want {expected})"
        ));
    }
    Ok(bench)
}

fn main() {
    let mut files: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if files.is_empty() {
        files = discovered();
    }
    if files.is_empty() {
        eprintln!(
            "bench_schema_check: no BENCH_*.json found under {}",
            figures_dir().display()
        );
        std::process::exit(1);
    }
    let mut failures = 0;
    for path in &files {
        match check(path) {
            Ok(bench) => println!("ok   {} (bench {bench:?})", path.display()),
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("bench_schema_check: {failures} invalid report(s)");
        std::process::exit(1);
    }
    println!("bench_schema_check: {} report(s) valid", files.len());
}
