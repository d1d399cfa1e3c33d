//! The layout drift rules (KVS-L002 for the wire frame, KVS-L013 for the
//! WAL segment header and the SSTable footer) over edited copies of the
//! live sources and docs. For every layout, in each of its two tables, a
//! shifted row and a deleted row are each reported exactly once.

use std::path::PathBuf;

use kvs_lint::rules::{run_all, Diagnostic, Workspace};
use kvs_lint::scan::SourceFile;

const SOURCES: [&str; 3] = [
    "crates/net/src/frame.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/sst_file.rs",
];

fn read(rel: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The drift findings for the three layout sources and both docs, with
/// `edit` applied to the file `target`.
fn drift(target: &str, edit: &dyn Fn(&str) -> String) -> Vec<Diagnostic> {
    let text = |rel: &str| {
        let t = read(rel);
        if rel == target {
            edit(&t)
        } else {
            t
        }
    };
    let md = |rel: &str| {
        Some((
            rel.to_string(),
            text(rel).lines().map(String::from).collect(),
        ))
    };
    let ws = Workspace {
        files: SOURCES
            .iter()
            .map(|rel| SourceFile::scan(rel, &text(rel)))
            .collect(),
        net_md: md("docs/NET.md"),
        store_md: md("docs/STORE.md"),
    };
    run_all(&ws)
        .into_iter()
        .filter(|d| d.rule == "KVS-L002" || d.rule == "KVS-L013")
        .collect()
}

/// Index of the first table row naming `field`: a module-doc row
/// `//!  offset  size  field …` or a markdown row
/// `| offset | size | field | … |`.
fn row(text: &str, field: &str) -> usize {
    text.lines()
        .position(|l| {
            let cells: Vec<&str> = l
                .trim_start_matches("//!")
                .split(|c: char| c == '|' || c.is_whitespace())
                .filter(|c| !c.is_empty())
                .collect();
            cells.len() >= 3 && cells[0].parse::<u64>().is_ok() && cells[2] == field
        })
        .unwrap_or_else(|| panic!("no `{field}` row"))
}

/// `text` with the `field` row rewritten by `f` (`None` deletes it).
fn edit_row(text: &str, field: &str, f: &dyn Fn(&str) -> Option<String>) -> String {
    let at = row(text, field);
    let mut out: Vec<String> = Vec::new();
    for (ix, l) in text.lines().enumerate() {
        match (ix == at).then(|| f(l)) {
            None => out.push(l.to_string()),
            Some(Some(edited)) => out.push(edited),
            Some(None) => {}
        }
    }
    out.join("\n") + "\n"
}

#[test]
fn live_layouts_have_no_drift() {
    assert_eq!(drift("", &str::to_string), Vec::new());
}

#[test]
fn each_layout_reports_one_shifted_and_one_deleted_row_per_table() {
    // (rule, source, doc, a field with a one-line row in both tables)
    let cases = [
        ("KVS-L002", SOURCES[0], "docs/NET.md", "flags"),
        ("KVS-L013", SOURCES[1], "docs/STORE.md", "segment_seq"),
        ("KVS-L013", SOURCES[2], "docs/STORE.md", "index_len"),
    ];
    for (rule, src, doc, field) in cases {
        for table in [src, doc] {
            let shift = |l: &str| {
                let off = l
                    .trim_start_matches("//!")
                    .split(|c: char| c == '|' || c.is_whitespace())
                    .find(|c| !c.is_empty())
                    .expect("offset cell");
                let bumped = off.parse::<u64>().expect("numeric offset") + 1;
                Some(l.replacen(off, &bumped.to_string(), 1))
            };
            let shifted = drift(table, &|t| edit_row(t, field, &shift));
            assert_eq!(shifted.len(), 1, "{table} `{field}` shifted: {shifted:#?}");
            let d = &shifted[0];
            assert!(
                d.rule == rule
                    && d.path == table
                    && d.message.contains(&format!("`{field}`"))
                    && d.message.contains("offset"),
                "{table} `{field}` shifted: {d:#?}"
            );

            let deleted = drift(table, &|t| edit_row(t, field, &|_| None));
            assert_eq!(deleted.len(), 1, "{table} `{field}` deleted: {deleted:#?}");
            let d = &deleted[0];
            assert!(
                d.rule == rule
                    && d.path == table
                    && d.message.contains(&format!("field `{field}` is missing")),
                "{table} `{field}` deleted: {d:#?}"
            );
        }
    }
}
