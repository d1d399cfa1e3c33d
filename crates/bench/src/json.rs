//! The shared `BENCH_*.json` emitter.
//!
//! The `drill` binary writes its machine-readable results through this
//! module: one file, one envelope shape, one schema tag. The value type
//! (order-preserving objects, pretty printer, parser) is borrowed from
//! `kvs_lint::json` — the dependency-free JSON layer of the linter's
//! crate — and this module adds the envelope builder, the
//! latency-summary shape, and the checks [`write_report`] runs before it
//! writes: the report validates, and its text parses back to the same
//! document.
//!
//! ## Envelope (`kvs-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "kvs-bench/v1",
//!   "bench": "drill",
//!   "config": { ... the sizes and seeds that shaped the run ... },
//!   "results": { ... or [ ... ] }
//! }
//! ```
//!
//! `schema` pins the envelope version; `bench` names the emitter (the
//! file is `BENCH_<bench>.json`); `config` records everything needed to
//! reproduce the run; `results` is emitter-specific. The
//! validator additionally rejects non-finite numbers anywhere in the
//! document — a NaN percentile means a bug, not a result.

use std::fs;
use std::io;
use std::path::PathBuf;

use kvs_simcore::Summary;

pub use kvs_lint::json::{obj, parse, s, Value};

/// The envelope version this workspace emits and validates.
pub const SCHEMA: &str = "kvs-bench/v1";

/// Shorthand for a number value.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// Shorthand for an integer value.
pub fn int(x: u64) -> Value {
    Value::Num(x as f64)
}

/// Builds the `kvs-bench/v1` envelope around a drill's config and
/// results.
pub fn report(bench: &str, config: Value, results: Value) -> Value {
    obj(vec![
        ("schema", s(SCHEMA)),
        ("bench", s(bench)),
        ("config", config),
        ("results", results),
    ])
}

/// The standard latency-summary object: [`Summary`]'s count, mean and
/// the quantiles the drills report (p50/p95/p99, plus p90 and the
/// extremes). `samples` need not be sorted.
///
/// # Panics
/// If `samples` is empty.
pub fn latency_summary_ms(samples: &[f64]) -> Value {
    let s = Summary::from_samples(samples).expect("latency summary of an empty sample");
    obj(vec![
        ("count", int(s.count as u64)),
        ("mean_ms", num(s.mean)),
        ("min_ms", num(s.min)),
        ("p50_ms", num(s.p50)),
        ("p90_ms", num(s.p90)),
        ("p95_ms", num(s.p95)),
        ("p99_ms", num(s.p99)),
        ("max_ms", num(s.max)),
    ])
}

/// Checks a document against the `kvs-bench/v1` envelope. Returns the
/// first violation found.
pub fn validate(v: &Value) -> Result<(), String> {
    let Value::Obj(_) = v else {
        return Err("top level must be an object".to_string());
    };
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema {other:?} (want {SCHEMA:?})")),
        None => return Err("missing string field \"schema\"".to_string()),
    }
    match v.get("bench").and_then(Value::as_str) {
        Some(name) if !name.is_empty() => {}
        _ => return Err("missing non-empty string field \"bench\"".to_string()),
    }
    match v.get("config") {
        Some(Value::Obj(_)) => {}
        _ => return Err("missing object field \"config\"".to_string()),
    }
    match v.get("results") {
        Some(Value::Obj(_)) | Some(Value::Arr(_)) => {}
        _ => return Err("missing object/array field \"results\"".to_string()),
    }
    check_finite(v, "$")
}

fn check_finite(v: &Value, path: &str) -> Result<(), String> {
    match v {
        Value::Num(n) if !n.is_finite() => Err(format!("non-finite number at {path}")),
        Value::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| check_finite(item, &format!("{path}[{i}]"))),
        Value::Obj(fields) => fields
            .iter()
            .try_for_each(|(k, val)| check_finite(val, &format!("{path}.{k}"))),
        _ => Ok(()),
    }
}

/// Checks that `text` parses back to exactly `report`.
fn round_trips(report: &Value, text: &str) -> Result<(), String> {
    match parse(text) {
        Ok(back) if back == *report => Ok(()),
        Ok(_) => Err("report text parses to a different document".to_string()),
        Err(e) => Err(format!("report text does not parse: {e}")),
    }
}

/// Validates a report, serialises it, checks the text parses back to the
/// same document, and writes it to `target/figures/BENCH_<bench>.json`
/// (the `bench` field names the file), reporting the path on stdout like
/// [`crate::Csv::finish`] does.
///
/// # Panics
/// If the report fails [`validate`] or does not round-trip through its
/// text — a malformed emitter is a bug the drill must not paper over.
pub fn write_report(report: &Value) -> io::Result<PathBuf> {
    validate(report).expect("BENCH report failed schema validation");
    let text = report.to_pretty();
    round_trips(report, &text).expect("BENCH report failed its round trip");
    let bench = report
        .get("bench")
        .and_then(Value::as_str)
        .expect("validated report has a bench name");
    let path = crate::figures_dir().join(format!("BENCH_{bench}.json"));
    fs::write(&path, text)?;
    println!("[json] {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Value {
        report(
            "selftest_json",
            obj(vec![("requests", int(100)), ("theta", num(0.99))]),
            obj(vec![
                (
                    "latency",
                    latency_summary_ms(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
                ),
                ("curve", Value::Arr(vec![num(0.25), num(0.5), num(0.75)])),
                ("note", s("escaped \"quotes\" and\nnewlines")),
            ]),
        )
    }

    #[test]
    fn report_round_trips_through_text() {
        let r = sample_report();
        validate(&r).unwrap();
        let parsed = parse(&r.to_pretty()).unwrap();
        assert_eq!(parsed, r);
        validate(&parsed).unwrap();
    }

    #[test]
    fn latency_summary_quantiles_are_ordered() {
        let v = latency_summary_ms(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        let get = |k: &str| v.get(k).and_then(Value::as_num).unwrap();
        assert_eq!(get("count"), 5.0);
        assert_eq!(get("min_ms"), 1.0);
        assert_eq!(get("max_ms"), 9.0);
        assert!(get("p50_ms") <= get("p90_ms"));
        assert!(get("p90_ms") <= get("p95_ms"));
        assert!(get("p95_ms") <= get("p99_ms"));
        assert!(get("p99_ms") <= get("max_ms"));
    }

    #[test]
    fn validator_rejects_broken_envelopes() {
        let missing_schema = obj(vec![("bench", s("x"))]);
        assert!(validate(&missing_schema).is_err());

        let wrong_schema = obj(vec![
            ("schema", s("kvs-bench/v0")),
            ("bench", s("x")),
            ("config", obj(vec![])),
            ("results", obj(vec![])),
        ]);
        assert!(validate(&wrong_schema)
            .unwrap_err()
            .contains("kvs-bench/v0"));

        let nan = report("x", obj(vec![]), obj(vec![("bad", num(f64::NAN))]));
        assert!(validate(&nan).unwrap_err().contains("$.results.bad"));

        assert!(validate(&s("not an object")).is_err());
    }

    #[test]
    fn write_report_lands_in_figures_dir() {
        let r = sample_report();
        let path = write_report(&r).unwrap();
        assert!(path.ends_with("BENCH_selftest_json.json"));
        let text = fs::read_to_string(&path).unwrap();
        round_trips(&r, &text).unwrap();
        // The equality check catches a document that parses but differs,
        // not only one that does not parse.
        let changed = text.replace("0.99", "0.98");
        assert!(round_trips(&r, &changed).unwrap_err().contains("different"));
        assert!(round_trips(&r, &text[1..]).unwrap_err().contains("parse"));
    }
}
