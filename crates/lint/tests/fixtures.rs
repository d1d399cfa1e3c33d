//! Fixture-tree suite: one passing workspace plus one violating tree per
//! rule. Each fixture is a miniature workspace root under `fixtures/`
//! (excluded from the real scan by the walker's `fixtures` skip).

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn clean_fixture_passes_every_rule() {
    let outcome = kvs_lint::check_workspace(&fixture("clean")).expect("scan clean fixture");
    assert!(
        outcome.is_clean(),
        "clean fixture should pass, got: {:#?}",
        outcome.diagnostics
    );
    // The tree contains one waived violation — proves the waiver matched
    // (a non-matching waiver would surface as a KVS-L000 failure above).
    assert_eq!(outcome.waived.len(), 1);
    assert_eq!(outcome.waived[0].0.rule, "KVS-L004");
}

#[test]
fn each_violating_fixture_fails_with_its_rule() {
    let cases = [
        ("l000_stale", "KVS-L000", "lint.waivers.toml"),
        ("l001_systemtime", "KVS-L001", "crates/cluster/src/sim.rs"),
        ("l001_coord", "KVS-L001", "crates/cluster/src/coord.rs"),
        (
            "l001_dispatch",
            "KVS-L001",
            "crates/cluster/src/dispatch.rs",
        ),
        ("l002_drift", "KVS-L002", "docs/NET.md"),
        ("l003_drop", "KVS-L003", "crates/net/src/io.rs"),
        ("l004_unwrap", "KVS-L004", "crates/net/src/io.rs"),
        ("l005_unsafe", "KVS-L005", "crates/store/src/raw.rs"),
        ("l006_mutex", "KVS-L006", "crates/net/src/locks.rs"),
        ("l007_lock", "KVS-L007", "crates/net/src/srv.rs"),
        ("l008_reset", "KVS-L008", "crates/net/src/master.rs"),
        ("l009_deadlock", "KVS-L009", "crates/net/src/locks.rs"),
        ("l010_channel", "KVS-L010", "crates/cluster/src/chan.rs"),
        ("l011_stamp", "KVS-L011", "crates/net/src/server.rs"),
        ("l012_kind", "KVS-L012", "crates/net/src/master.rs"),
        ("l013_drift", "KVS-L013", "docs/STORE.md"),
        ("l014_blocking", "KVS-L014", "crates/net/src/pool.rs"),
        ("l015_crash", "KVS-L015", "crates/store/src/durable.rs"),
        ("l016_deadline", "KVS-L016", "crates/net/src/write_path.rs"),
        ("l017_taint", "KVS-L017", "crates/net/src/server.rs"),
        (
            "l018_det_escape",
            "KVS-L018",
            "crates/net/src/clock_bridge.rs",
        ),
        ("l019_receipt", "KVS-L019", "crates/store/src/durable.rs"),
        ("l019_mapped", "KVS-L019", "crates/store/src/durable.rs"),
    ];
    for (name, rule, path) in cases {
        let outcome = kvs_lint::check_workspace(&fixture(name))
            .unwrap_or_else(|e| panic!("scan fixture {name}: {e}"));
        assert!(!outcome.is_clean(), "{name}: expected a violation");
        assert!(
            outcome
                .diagnostics
                .iter()
                .any(|d| d.rule == rule && d.path == path),
            "{name}: expected a {rule} diagnostic in {path}, got: {:#?}",
            outcome.diagnostics
        );
        // No collateral noise: a violating fixture trips exactly its rule.
        assert!(
            outcome.diagnostics.iter().all(|d| d.rule == rule),
            "{name}: unexpected extra rules: {:#?}",
            outcome.diagnostics
        );
        // Diagnostics carry real line numbers for `file:line` output.
        assert!(outcome.diagnostics.iter().all(|d| d.line >= 1));
    }
}

#[test]
fn lock_guard_findings_cover_both_direct_shapes() {
    // KVS-L007: a blocking call while a `let` guard is live, and a
    // blocking call in the statement that takes the lock.
    let outcome = kvs_lint::check_workspace(&fixture("l007_lock")).expect("scan l007");
    let rendered: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        rendered,
        vec![
            "crates/net/src/srv.rs:9: KVS-L007: blocking call `write_all` while lock guard \
             `guard` from this scope is live",
            "crates/net/src/srv.rs:14: KVS-L007: lock taken and blocking call `write_to` in \
             one statement — the guard is held for the whole call",
        ]
    );
}

#[test]
fn interprocedural_diagnostics_carry_full_witness_chains() {
    // KVS-L014: the zone function, the two call sites and the blocking
    // op, every hop as `file:line`.
    let outcome = kvs_lint::check_workspace(&fixture("l014_blocking")).expect("scan l014");
    let msg = &outcome.diagnostics[0].message;
    assert!(
        msg.contains(
            "non-blocking zone `classify` can reach blocking `sleep`: \
             crates/net/src/pool.rs:7 → crates/net/src/pool.rs:8 → \
             crates/net/src/pool.rs:12 → crates/net/src/pool.rs:17"
        ),
        "unexpected L014 witness: {msg}"
    );

    // KVS-L015: the real flush shape (write → WAL rotate → commit → GC)
    // with the GC step hoisted above the commit; the witness names both
    // ends of the reordered pair.
    let outcome = kvs_lint::check_workspace(&fixture("l015_crash")).expect("scan l015");
    let msg = &outcome.diagnostics[0].message;
    assert!(
        msg.contains("GC (remove_file) can run before the manifest commit"),
        "unexpected L015 message: {msg}"
    );
    assert!(
        msg.contains("crates/store/src/durable.rs:22 → crates/store/src/durable.rs:23"),
        "unexpected L015 witness: {msg}"
    );

    // KVS-L016: one direct fresh literal plus one caught at the call
    // site of a deadline-parameter function.
    let outcome = kvs_lint::check_workspace(&fixture("l016_deadline")).expect("scan l016");
    assert_eq!(outcome.diagnostics.len(), 2);
    assert!(outcome.diagnostics[0]
        .message
        .contains("mints a fresh `u64::MAX` deadline"));
    assert!(outcome.diagnostics[1]
        .message
        .contains("call to `send_frame()` passes a fresh `0` deadline"));
    assert_eq!(
        outcome.diagnostics[1].line, 23,
        "diag sits at the call site"
    );
}

#[test]
fn dataflow_diagnostics_carry_source_to_sink_witness_chains() {
    // KVS-L017: the `read_frame` shape — decode at line 7, allocation at
    // line 8, fill at line 9; each sink's chain starts at the decode.
    let outcome = kvs_lint::check_workspace(&fixture("l017_taint")).expect("scan l017");
    assert_eq!(outcome.diagnostics.len(), 2, "{:#?}", outcome.diagnostics);
    let alloc = &outcome.diagnostics[0];
    assert_eq!(alloc.line, 8);
    assert!(
        alloc.message.contains(
            "reaches allocation `with_capacity(…)` without a validated bound \
             — compare against a MAX_PAYLOAD-style limit first; flow: \
             crates/net/src/server.rs:7 → crates/net/src/server.rs:8"
        ),
        "unexpected L017 witness: {}",
        alloc.message
    );
    assert!(
        outcome.diagnostics[1]
            .message
            .contains("crates/net/src/server.rs:7 →"),
        "the resize sink chains back to the same decode: {}",
        outcome.diagnostics[1].message
    );

    // KVS-L018: the tracked wall-clock value, named, with the
    // source-to-call-site flow.
    let outcome = kvs_lint::check_workspace(&fixture("l018_det_escape")).expect("scan l018");
    assert_eq!(outcome.diagnostics.len(), 1, "{:#?}", outcome.diagnostics);
    let msg = &outcome.diagnostics[0].message;
    assert!(
        msg.contains(
            "`host_now` carries `wall_ns` (line 5) into deterministic-zone call \
             `advance()`"
        ) && msg
            .contains("flow: crates/net/src/clock_bridge.rs:5 → crates/net/src/clock_bridge.rs:6"),
        "unexpected L018 witness: {msg}"
    );

    // KVS-L019: the escaping path threads the read, the checksum branch
    // and the early return — the charge at line 10 is never reached.
    let outcome = kvs_lint::check_workspace(&fixture("l019_receipt")).expect("scan l019");
    assert_eq!(outcome.diagnostics.len(), 1, "{:#?}", outcome.diagnostics);
    let d = &outcome.diagnostics[0];
    assert_eq!(d.line, 6, "anchored at the read");
    assert!(
        d.message.contains(
            "escaping path: crates/store/src/durable.rs:6 → \
             crates/store/src/durable.rs:7 → crates/store/src/durable.rs:8"
        ),
        "unexpected L019 witness: {}",
        d.message
    );

    // KVS-L019 over a mapped read: slicing a block out of the mapping is
    // the read, and the same early return escapes the charge at line 9.
    let outcome = kvs_lint::check_workspace(&fixture("l019_mapped")).expect("scan l019 mapped");
    assert_eq!(outcome.diagnostics.len(), 1, "{:#?}", outcome.diagnostics);
    let d = &outcome.diagnostics[0];
    assert_eq!(d.line, 5, "anchored at the mapped read");
    assert!(
        d.message.ends_with(
            "escaping path: crates/store/src/durable.rs:5 → \
             crates/store/src/durable.rs:6 → crates/store/src/durable.rs:7"
        ),
        "unexpected mapped L019 witness: {}",
        d.message
    );
}

#[test]
fn stale_waivers_are_anchored_at_their_entry_lines() {
    // Each KVS-L000 must carry the `[[waiver]]` header line of the stale
    // entry it reports — `file:line` is the fix-it jump target.
    let outcome = kvs_lint::check_workspace(&fixture("l000_stale")).expect("scan l000_stale");
    let lines: Vec<usize> = outcome
        .diagnostics
        .iter()
        .filter(|d| d.rule == "KVS-L000" && d.path == "lint.waivers.toml")
        .map(|d| d.line)
        .collect();
    assert_eq!(
        lines,
        vec![4, 11],
        "expected one KVS-L000 per [[waiver]] header, got: {:#?}",
        outcome.diagnostics
    );
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let outcome = kvs_lint::check_workspace(&fixture("l004_unwrap")).expect("scan fixture");
    let rendered = outcome.diagnostics[0].to_string();
    assert!(
        rendered.starts_with("crates/net/src/io.rs:4: KVS-L004:"),
        "unexpected rendering: {rendered}"
    );
}
