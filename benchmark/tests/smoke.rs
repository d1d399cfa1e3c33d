//! One-second runs of every workload through the real command line,
//! checked against `BENCHMARK.json` so metric names live in one place.

use kvs_benchmark::workloads::WorkDir;
use kvs_benchmark::Workload;
use kvs_lint::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric listed under `key`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Runs the benchmark for one second and returns its summary line, parsed.
fn run(workload: Workload, trace: bool, out_dir: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_kvs-benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{} exited with {}: {}",
        workload.name(),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a summary line");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn assert_summary(summary: &Value, workload: Workload, expected: &[(String, String)]) {
    let Value::Obj(fields) = summary else {
        panic!("summary is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let name = workload.name();
    assert_eq!(summary.get("correct"), Some(&Value::Bool(true)), "{name}");
    assert_eq!(
        summary.get("failed").and_then(Value::as_num),
        Some(0.0),
        "{name}"
    );
    assert!(summary.get("attempted").and_then(Value::as_num).unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = summary.get("metrics") else {
        panic!("metrics is not an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, m)| {
            assert!(
                m.get("value").and_then(Value::as_num).is_some(),
                "{name} {n}"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (n.clone(), unit.to_string())
        })
        .collect();
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(printed), sorted(expected.to_vec()), "{name}");
}

// One test, so the eight runs do not compete with each other for two cores.
#[test]
fn every_workload_runs_correctly_and_prints_the_declared_metrics() {
    let spec = benchmark_json();
    let declared_workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared_workloads, ours);

    let out_dir = scratch("smoke-out");
    for workload in Workload::ALL {
        let summary = run(workload, false, &out_dir);
        assert_summary(&summary, workload, &declared(&spec, "end_to_end"));

        let _ = std::fs::remove_file(out_dir.join("trace.json"));
        let summary = run(workload, true, &out_dir);
        assert_summary(&summary, workload, &declared(&spec, "per_layer"));
        // One span per line between the brackets; the file can hold
        // 50 000 of them, so only a few are parsed in full.
        let trace = std::fs::read_to_string(out_dir.join("trace.json")).expect("trace.json");
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!((lines[0], lines[lines.len() - 1]), ("[", "]"));
        let spans = &lines[1..lines.len() - 1];
        for line in spans.iter().take(8) {
            let span = parse(line.trim_end_matches(',')).expect("a span is JSON");
            for key in ["id", "parent", "request", "start_ns", "end_ns"] {
                assert!(span.get(key).and_then(Value::as_num).is_some(), "{key}");
            }
        }
        let named = |n: &str| {
            spans
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{n}\"")))
        };
        assert!(named("warmup") && (named("query") || named("op")));
    }
    // The durable tier and the durable rungs cleaned up after themselves.
    let left: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("out dir")
        .flatten()
        .map(|e| e.file_name())
        .filter(|n| n != "trace.json")
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn work_dirs_are_removed_on_success_and_on_panic() {
    let root = scratch("work-dirs");
    let kept = {
        let dir = WorkDir::create(&root, "ok").expect("scratch dir");
        std::fs::write(dir.path().join("file"), b"x").expect("write");
        dir.path().to_path_buf()
    };
    assert!(!kept.exists());

    let seen = std::sync::Mutex::new(None);
    let outcome = std::panic::catch_unwind(|| {
        let dir = WorkDir::create(&root, "panic").expect("scratch dir");
        *seen.lock().unwrap() = Some(dir.path().to_path_buf());
        panic!("mid-run failure");
    });
    assert!(outcome.is_err());
    let path = seen.lock().unwrap().take().expect("the directory was made");
    assert!(!path.exists());
}

#[test]
fn rejects_bad_arguments_without_a_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_kvs-benchmark"))
        .args(["--workload", "nonsense", "--seed", "1"])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
