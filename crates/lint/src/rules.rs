//! The rule set. Every rule has a stable ID (`KVS-L00x`) that diagnostics
//! carry and the waiver file references.
//!
//! | ID | Invariant |
//! |---|---|
//! | KVS-L001 | determinism guard: no ambient clock/RNG where runs must replay |
//! | KVS-L002 | protocol drift: frame constants vs the documented tables |
//! | KVS-L003 | no `let _ =` result drops in `net`/`cluster`/persistence hot paths |
//! | KVS-L004 | no `unwrap()`/`expect()` in `net`/`cluster`/persistence hot paths |
//! | KVS-L005 | every `unsafe` carries a `SAFETY:` comment |
//! | KVS-L006 | `std::sync::Mutex` forbidden where `parking_lot` is standard |
//! | KVS-L007 | no lock guard held across a blocking socket/channel call |
//! | KVS-L008 | comment contracts: send-seq monotonicity, Busy re-arm |
//! | KVS-L009 | lock-order: the acquired-while-held graph must be acyclic |
//! | KVS-L010 | channel topology: bounded channels, every sender drained |
//! | KVS-L011 | stage stamps: every stamps slot written exactly once |
//! | KVS-L012 | frame kinds: FrameKind matches handle every declared kind |
//! | KVS-L013 | store-format drift: WAL/SSTable constants vs documented tables |
//! | KVS-L014 | non-blocking zones must not transitively reach blocking ops |
//! | KVS-L015 | crash ordering: write → fsync → rename → dir-fsync, GC after commit |
//! | KVS-L016 | deadline propagation: v2 frames thread the incoming deadline |
//! | KVS-L017 | wire-input taint: untrusted lengths bounded before allocation/indexing |
//! | KVS-L018 | determinism escape: no wall-clock/RNG value flow into L001 zones |
//! | KVS-L019 | receipt accounting: every disk block read charges the ReadReceipt |
//!
//! KVS-L007 and KVS-L009 are interprocedural since PR 9: they resolve
//! calls through the workspace call graph ([`crate::callgraph`]) instead
//! of a per-file name index. L014–L016 are implemented in
//! [`crate::passes`] on top of the call graph and the per-function CFG
//! ([`crate::cfg`]). L017–L019 run on the gen/kill dataflow engine
//! ([`crate::dataflow`]): interprocedural taint with bottom-up function
//! summaries and must-reach obligation analysis.
//!
//! `KVS-L000` is reserved for the waiver machinery itself (a stale waiver
//! that matches nothing is an error — waivers must not outlive the code
//! they excuse).

use crate::scan::SourceFile;

/// One finding: a rule violated at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule ID (`KVS-L001` … `KVS-L019`, `KVS-L000` for waiver
    /// and baseline machinery errors).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Rule IDs with one-line summaries, for `kvs-lint rules` and the docs.
pub const RULES: &[(&str, &str)] = &[
    (
        "KVS-L001",
        "determinism guard: no SystemTime::now/Instant::now/ambient RNG in code that must replay",
    ),
    (
        "KVS-L002",
        "protocol drift: frame.rs constants must match the frame tables in frame.rs and docs/NET.md",
    ),
    (
        "KVS-L003",
        "error discipline: no `let _ =` result drops in net/cluster/persistence non-test code",
    ),
    (
        "KVS-L004",
        "error discipline: no .unwrap()/.expect() in net/cluster/persistence non-test code \
         without a waiver",
    ),
    (
        "KVS-L005",
        "every `unsafe` block needs a `// SAFETY:` comment on or directly above it",
    ),
    (
        "KVS-L006",
        "lock hygiene: std::sync::Mutex forbidden in crate code (use the parking_lot shim)",
    ),
    (
        "KVS-L007",
        "lock hygiene: no lock guard held across a blocking socket/channel call",
    ),
    (
        "KVS-L008",
        "comment contracts: send-seq monotonicity and the Busy re-arm contract stay documented",
    ),
    (
        "KVS-L009",
        "lock order: the acquired-while-held graph over net/cluster must be acyclic",
    ),
    (
        "KVS-L010",
        "channel topology: no unbounded channels without a waiver, no sends without a drain",
    ),
    (
        "KVS-L011",
        "stage stamps: every stamps[0..4] slot written exactly once, per the frame-kind contract",
    ),
    (
        "KVS-L012",
        "frame kinds: matches on FrameKind handle every declared kind or waive the wildcard",
    ),
    (
        "KVS-L013",
        "store-format drift: wal.rs/sst_file.rs constants must match their module-doc tables \
         and docs/STORE.md",
    ),
    (
        "KVS-L014",
        "blocking reachability: a `LINT-ZONE: nonblocking` function must not transitively \
         reach a blocking op (witnessed over the workspace call graph)",
    ),
    (
        "KVS-L015",
        "crash ordering: durable commit paths order write → fsync → rename → dir-fsync and \
         never GC before the manifest commit (docs/STORE.md contract, checked on the CFG)",
    ),
    (
        "KVS-L016",
        "deadline propagation: every forwarded v2 frame threads the incoming deadline — no \
         fresh 0/u64::MAX deadlines, checked across call sites",
    ),
    (
        "KVS-L017",
        "wire-input taint: values decoded from socket bytes must pass a validated bound \
         (MAX_PAYLOAD-style) before reaching an allocation, slice index or loop bound",
    ),
    (
        "KVS-L018",
        "determinism escape: wall-clock/RNG-derived values must not flow through returns or \
         arguments into the L001 determinism zones",
    ),
    (
        "KVS-L019",
        "receipt accounting: on durable read paths every CFG path performing a disk block \
         read charges the ReadReceipt before returning",
    ),
];

/// Everything the rules look at: scanned Rust sources plus the protocol
/// documentation the drift rule diffs against.
pub struct Workspace {
    /// All `.rs` files under `crates/` and `shims/` (fixtures and build
    /// output excluded).
    pub files: Vec<SourceFile>,
    /// `docs/NET.md`, when present: `(rel_path, lines)`.
    pub net_md: Option<(String, Vec<String>)>,
    /// `docs/STORE.md`, when present: `(rel_path, lines)` — the durable
    /// store's on-disk format documentation the L013 drift rule diffs
    /// against.
    pub store_md: Option<(String, Vec<String>)>,
}

impl Workspace {
    fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Runs every rule over the workspace and returns the findings, sorted by
/// path and line.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    run_all_timed(ws).0
}

/// [`run_all`] plus the wall-clock milliseconds the dataflow-engine
/// passes (KVS-L017 … KVS-L019, including summary construction) took —
/// the bench lane's `dataflow_ms` phase timing.
pub fn run_all_timed(ws: &Workspace) -> (Vec<Diagnostic>, f64) {
    let mut out = Vec::new();
    determinism_guard(ws, &mut out);
    protocol_drift(ws, &mut out);
    store_format_drift(ws, &mut out);
    result_drops(ws, &mut out);
    unwrap_discipline(ws, &mut out);
    unsafe_safety_comments(ws, &mut out);
    std_mutex_forbidden(ws, &mut out);
    lock_across_blocking(ws, &mut out);
    comment_contracts(ws, &mut out);
    let dataflow_ms = crate::passes::run(ws, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    (out, dataflow_ms)
}

/// The wall-clock portal: the only file allowed to call
/// `SystemTime::now()`.
const CLOCK_PORTAL: &str = "crates/net/src/clock.rs";

/// Crates (or single files) whose runs must be bit-reproducible: time
/// flows through `simcore::time`, randomness through seeded
/// `simcore::rng` streams. An ambient clock or RNG here silently breaks
/// the sim-vs-live cross-validation the methodology rests on.
const DETERMINISTIC_ZONES: &[&str] = &[
    "crates/simcore/src/",
    "crates/model/src/",
    "crates/balance/src/",
    "crates/stages/src/",
    "crates/store/src/",
    "crates/workloads/src/",
    "crates/core/src/",
    "crates/cluster/src/sim.rs",
    "crates/cluster/src/replication.rs",
];

pub(crate) fn in_deterministic_zone(rel: &str) -> bool {
    DETERMINISTIC_ZONES
        .iter()
        .any(|z| rel.starts_with(z) || rel == z.trim_end_matches('/'))
}

fn in_net_or_cluster_src(rel: &str) -> bool {
    rel.starts_with("crates/net/src/") || rel.starts_with("crates/cluster/src/")
}

/// The durable store's persistence modules: crash-safety code where a
/// silently dropped error or a panic can lose acknowledged writes, so the
/// error-discipline rules (L003/L004) apply with the same force as on the
/// net/cluster hot paths. `table.rs` and `engine.rs` hold the one table's
/// put/flush/compact/read bodies and the journal steps they call on both
/// media.
const PERSISTENCE_FILES: &[&str] = &[
    "crates/store/src/block.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/sst_file.rs",
    "crates/store/src/manifest.rs",
    "crates/store/src/recovery.rs",
    "crates/store/src/durable.rs",
    "crates/store/src/table.rs",
    "crates/store/src/engine.rs",
];

fn in_error_discipline_zone(rel: &str) -> bool {
    in_net_or_cluster_src(rel) || PERSISTENCE_FILES.contains(&rel)
}

/// KVS-L001.
fn determinism_guard(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // Ambient RNG constructors: banned workspace-wide. Every random draw
    // must trace back to a seed (`simcore::RngHub` streams or an explicit
    // `seed_from_u64`).
    const AMBIENT_RNG: &[&str] = &["thread_rng(", "from_entropy(", "rand::random("];
    for f in &ws.files {
        if !f.rel.starts_with("crates/") {
            continue;
        }
        let det = in_deterministic_zone(&f.rel);
        for (n, l) in f.numbered() {
            for tok in AMBIENT_RNG {
                if l.code.contains(tok) {
                    out.push(Diagnostic {
                        rule: "KVS-L001",
                        path: f.rel.clone(),
                        line: n,
                        message: format!(
                            "ambient RNG `{}` — derive a seeded stream from simcore::rng instead",
                            tok.trim_end_matches('(')
                        ),
                    });
                }
            }
            if l.code.contains("SystemTime::now") {
                let allowed = f.rel == CLOCK_PORTAL
                    || f.rel.starts_with("crates/bench/")
                    || (!det && !f.rel.contains("/src/"))
                    || (!det && l.in_test);
                if !allowed {
                    out.push(Diagnostic {
                        rule: "KVS-L001",
                        path: f.rel.clone(),
                        line: n,
                        message: "wall clock read outside the clock portal — route through \
                                  kvs_net::clock::wall_ns (live code) or simcore::time (sim code)"
                            .to_string(),
                    });
                }
            }
            if det && l.code.contains("Instant::now") {
                out.push(Diagnostic {
                    rule: "KVS-L001",
                    path: f.rel.clone(),
                    line: n,
                    message: "monotonic clock read in deterministic code — simulated components \
                              must take time from simcore::time, not the host"
                        .to_string(),
                });
            }
        }
    }
}

/// The frame header layout, as derived from `frame.rs` constants. Field
/// offsets follow from the fixed field order; `HEADER_LEN` pins the total.
struct FrameLayout {
    magic: u64,
    version: u64,
    header_len: u64,
    kinds: Vec<(String, u64)>,
}

impl FrameLayout {
    /// `(name, offset, size)` for every fixed header field. `payload` is
    /// reported with size 0 (its size is the `len` field).
    fn fields(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            ("magic", 0, 2),
            ("version", 2, 1),
            ("kind", 3, 1),
            ("flags", 4, 1),
            ("id", 5, 8),
            ("len", 13, 4),
            ("stamps", 17, 32),
            ("deadline", self.header_len - 12, 8),
            ("crc", self.header_len - 4, 4),
            ("payload", self.header_len, 0),
        ]
    }
}

fn parse_int(tok: &str) -> Option<u64> {
    let t = tok.trim().trim_end_matches(';').trim().replace('_', "");
    if let Some(hex) = t.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Extracts `pub const NAME: ty = value;` from the code view.
fn parse_const(f: &SourceFile, name: &str) -> Option<(u64, usize)> {
    let needle = format!("const {name}:");
    for (n, l) in f.numbered() {
        if let Some(pos) = l.code.find(&needle) {
            let rest = &l.code[pos..];
            let val = rest.split('=').nth(1)?;
            return parse_int(val).map(|v| (v, n));
        }
    }
    None
}

fn parse_frame_layout(f: &SourceFile, out: &mut Vec<Diagnostic>) -> Option<FrameLayout> {
    let mut get = |name: &str| -> Option<u64> {
        match parse_const(f, name) {
            Some((v, _)) => Some(v),
            None => {
                out.push(Diagnostic {
                    rule: "KVS-L002",
                    path: f.rel.clone(),
                    line: 1,
                    message: format!("could not parse `pub const {name}` — drift rule cannot run"),
                });
                None
            }
        }
    };
    let magic = get("MAGIC")?;
    let version = get("VERSION")?;
    let header_len = get("HEADER_LEN")?;
    let mut kinds = Vec::new();
    for (n, l) in f.numbered() {
        // `FrameKind::Request => 1,` — the to_byte arms. (from_byte's arms
        // are written value-first and don't match this shape.)
        let code = l.code.trim();
        if let Some(rest) = code.strip_prefix("FrameKind::") {
            if let Some((name, val)) = rest.split_once("=>") {
                let name = name.trim();
                if name.chars().all(|c| c.is_alphanumeric()) && !name.is_empty() {
                    if let Some(v) = parse_int(val.trim().trim_end_matches(',')) {
                        kinds.push((name.to_string(), v));
                    }
                }
            }
        }
        let _ = n;
    }
    if kinds.is_empty() {
        out.push(Diagnostic {
            rule: "KVS-L002",
            path: f.rel.clone(),
            line: 1,
            message: "could not parse FrameKind discriminants — drift rule cannot run".to_string(),
        });
        return None;
    }
    Some(FrameLayout {
        magic,
        version,
        header_len,
        kinds,
    })
}

/// KVS-L002: the frame constants in `frame.rs` are the single source of
/// truth; the ASCII table in the `frame.rs` module docs and the markdown
/// table in `docs/NET.md` must agree with them byte for byte.
fn protocol_drift(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(frame) = ws.file("crates/net/src/frame.rs") else {
        return; // fixture trees without a frame.rs skip the rule
    };
    let Some(layout) = parse_frame_layout(frame, out) else {
        return;
    };
    check_moduledoc_table(frame, &layout, out);
    if let Some((rel, lines)) = &ws.net_md {
        check_netmd_table(rel, lines, &layout, out);
    }
}

fn normalize_doc_name(name: &str) -> &str {
    match name {
        "checksum" | "crc" => "crc",
        s if s.starts_with("stamps") => "stamps",
        s => s,
    }
}

/// The ASCII table in frame.rs's own module docs: rows look like
/// `     0     2  magic        0x4B56 ("KV")`.
fn check_moduledoc_table(f: &SourceFile, layout: &FrameLayout, out: &mut Vec<Diagnostic>) {
    let expected = layout.fields();
    let mut seen = Vec::new();
    for (n, l) in f.numbered() {
        // Doc comments reach the comment view as `!      0     2  magic …`
        // (the `//` is consumed, the `!` or third `/` is not).
        let text = l
            .comment
            .trim_start()
            .trim_start_matches(['!', '/'])
            .trim_start();
        let toks: Vec<&str> = text.split_whitespace().collect();
        if toks.len() < 3 {
            continue;
        }
        let Some(offset) = parse_int(toks[0]) else {
            continue;
        };
        let size = parse_int(toks[1]);
        let name = normalize_doc_name(toks[2]).to_string();
        let Some(&(_, want_off, want_size)) = expected.iter().find(|(fname, _, _)| *fname == name)
        else {
            continue;
        };
        seen.push(name.clone());
        if offset != want_off {
            out.push(Diagnostic {
                rule: "KVS-L002",
                path: f.rel.clone(),
                line: n,
                message: format!(
                    "module-doc table: `{name}` at offset {offset}, but the constants put it \
                     at {want_off}"
                ),
            });
        }
        if name != "payload" && size != Some(want_size) {
            out.push(Diagnostic {
                rule: "KVS-L002",
                path: f.rel.clone(),
                line: n,
                message: format!(
                    "module-doc table: `{name}` sized {} bytes, but the constants say {want_size}",
                    toks[1]
                ),
            });
        }
    }
    for (name, _, _) in expected {
        if !seen.contains(&name.to_string()) {
            out.push(Diagnostic {
                rule: "KVS-L002",
                path: f.rel.clone(),
                line: 1,
                message: format!("module-doc table: field `{name}` is missing"),
            });
        }
    }
}

/// The markdown table in docs/NET.md: rows look like
/// `| 0 | 2 | magic | \`0x4B56\` (\`"KV"\`) |`.
fn check_netmd_table(rel: &str, lines: &[String], layout: &FrameLayout, out: &mut Vec<Diagnostic>) {
    let expected = layout.fields();
    let mut seen = Vec::new();
    let diag = |line: usize, message: String| Diagnostic {
        rule: "KVS-L002",
        path: rel.to_string(),
        line,
        message,
    };
    for (ix, raw) in lines.iter().enumerate() {
        let n = ix + 1;
        let plain = raw.replace('`', "");
        let cells: Vec<&str> = plain
            .trim()
            .trim_start_matches('|')
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 4 {
            continue;
        }
        let Some(offset) = parse_int(cells[0]) else {
            continue;
        };
        let size = parse_int(cells[1]);
        let name = normalize_doc_name(cells[2]).to_string();
        let notes = cells[3];
        let Some(&(_, want_off, want_size)) = expected.iter().find(|(fname, _, _)| *fname == name)
        else {
            continue;
        };
        seen.push(name.clone());
        if offset != want_off {
            out.push(diag(
                n,
                format!(
                    "frame table: `{name}` documented at offset {offset}, but frame.rs puts it \
                     at {want_off}"
                ),
            ));
        }
        if name != "payload" && size != Some(want_size) {
            out.push(diag(
                n,
                format!(
                    "frame table: `{name}` documented as {} bytes, but frame.rs says {want_size}",
                    cells[1]
                ),
            ));
        }
        match name.as_str() {
            "magic" => {
                let want = format!("0x{:04X}", layout.magic);
                if !notes.contains(&want) {
                    out.push(diag(
                        n,
                        format!("frame table: magic notes must state {want}"),
                    ));
                }
            }
            "version" if !notes.contains(&layout.version.to_string()) => {
                out.push(diag(
                    n,
                    format!("frame table: version notes must state {}", layout.version),
                ));
            }
            "kind" => {
                for (kname, kval) in &layout.kinds {
                    if !notes.contains(&format!("{kval} {kname}")) {
                        out.push(diag(
                            n,
                            format!(
                                "frame table: kind notes must map `{kval}` to `{kname}` \
                                 (frame.rs to_byte drifted from the docs)"
                            ),
                        ));
                    }
                }
            }
            "crc" => {
                let last_covered = layout.header_len - 5;
                if !notes.contains(&format!("0\u{2013}{last_covered}"))
                    && !notes.contains(&format!("0-{last_covered}"))
                {
                    out.push(diag(
                        n,
                        format!(
                            "frame table: crc notes must state coverage of header bytes \
                             0\u{2013}{last_covered} plus payload"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    for (name, _, _) in expected {
        if !seen.contains(&name.to_string()) {
            out.push(diag(1, format!("frame table: field `{name}` is missing")));
        }
    }
    let body = lines.join("\n");
    if !body.contains(&format!("{} bytes", layout.header_len)) {
        out.push(diag(
            1,
            format!(
                "prose must state the current header size ({} bytes)",
                layout.header_len
            ),
        ));
    }
}

/// One on-disk store layout pinned by KVS-L013: the source file its
/// constants come from, the field list those constants imply, and how the
/// documentation must restate it.
struct StoreLayout {
    /// `crates/store/src/…` file the constants live in.
    src: String,
    /// Lowercase substring identifying this layout's section heading in
    /// `docs/STORE.md` (rows outside a matching section are ignored, so
    /// the two tables' shared field names cannot cross-talk).
    heading: &'static str,
    magic: u64,
    version: u64,
    /// What the prose must call the structure, e.g. `72-byte footer`.
    prose: String,
    /// `(name, offset, size)`, offsets derived from the fixed field order.
    fields: Vec<(&'static str, u64, u64)>,
}

/// Derives one [`StoreLayout`] from a store source file, or reports why it
/// can't. `sizes` is the fixed field order; offsets follow from it and the
/// `len_const` constant pins the total, so a resized field that forgets to
/// bump the length constant is itself a finding.
fn parse_store_layout(
    f: &SourceFile,
    prefix: &str,
    len_const: &str,
    heading: &'static str,
    noun: &str,
    sizes: &[(&'static str, u64)],
    out: &mut Vec<Diagnostic>,
) -> Option<StoreLayout> {
    let mut get = |name: String| -> Option<u64> {
        match parse_const(f, &name) {
            Some((v, _)) => Some(v),
            None => {
                out.push(Diagnostic {
                    rule: "KVS-L013",
                    path: f.rel.clone(),
                    line: 1,
                    message: format!("could not parse `pub const {name}` — drift rule cannot run"),
                });
                None
            }
        }
    };
    let magic = get(format!("{prefix}_MAGIC"))?;
    let version = get(format!("{prefix}_VERSION"))?;
    let len = get(len_const.to_string())?;
    let mut fields = Vec::new();
    let mut offset = 0;
    for &(name, size) in sizes {
        fields.push((name, offset, size));
        offset += size;
    }
    if offset != len {
        out.push(Diagnostic {
            rule: "KVS-L013",
            path: f.rel.clone(),
            line: 1,
            message: format!(
                "{len_const} ({len}) disagrees with the sum of the fixed field sizes \
                 ({offset}) — a field was resized without bumping the length constant"
            ),
        });
    }
    Some(StoreLayout {
        src: f.rel.clone(),
        heading,
        magic,
        version,
        prose: format!("{len}-byte {noun}"),
        fields,
    })
}

/// The ASCII table in a store module's own docs: rows look like
/// `!      0    4 magic        0x4B57414C ("KWAL")`.
fn check_store_moduledoc_table(f: &SourceFile, layout: &StoreLayout, out: &mut Vec<Diagnostic>) {
    let mut seen = Vec::new();
    for (n, l) in f.numbered() {
        let text = l
            .comment
            .trim_start()
            .trim_start_matches(['!', '/'])
            .trim_start();
        let toks: Vec<&str> = text.split_whitespace().collect();
        if toks.len() < 3 {
            continue;
        }
        let Some(offset) = parse_int(toks[0]) else {
            continue;
        };
        let size = parse_int(toks[1]);
        let Some(&(name, want_off, want_size)) =
            layout.fields.iter().find(|(fname, _, _)| *fname == toks[2])
        else {
            continue;
        };
        seen.push(name);
        if offset != want_off {
            out.push(Diagnostic {
                rule: "KVS-L013",
                path: f.rel.clone(),
                line: n,
                message: format!(
                    "module-doc table: `{name}` at offset {offset}, but the constants put it \
                     at {want_off}"
                ),
            });
        }
        if size != Some(want_size) {
            out.push(Diagnostic {
                rule: "KVS-L013",
                path: f.rel.clone(),
                line: n,
                message: format!(
                    "module-doc table: `{name}` sized {} bytes, but the constants say {want_size}",
                    toks[1]
                ),
            });
        }
    }
    for &(name, _, _) in &layout.fields {
        if !seen.contains(&name) {
            out.push(Diagnostic {
                rule: "KVS-L013",
                path: f.rel.clone(),
                line: 1,
                message: format!("module-doc table: field `{name}` is missing"),
            });
        }
    }
}

/// The markdown tables in docs/STORE.md: each layout's rows sit under a
/// heading naming it (`### WAL segment header`, `### SSTable footer`);
/// rows look like `| 0 | 4 | magic | \`0x4B57414C\` (\`"KWAL"\`) |`.
fn check_store_md(rel: &str, lines: &[String], layouts: &[StoreLayout], out: &mut Vec<Diagnostic>) {
    let mut active: Option<usize> = None;
    let mut seen: Vec<Vec<&str>> = layouts.iter().map(|_| Vec::new()).collect();
    for (ix, raw) in lines.iter().enumerate() {
        let n = ix + 1;
        if raw.trim_start().starts_with('#') {
            let h = raw.to_ascii_lowercase();
            active = layouts.iter().position(|l| h.contains(l.heading));
            continue;
        }
        let Some(lix) = active else {
            continue;
        };
        let layout = &layouts[lix];
        let plain = raw.replace('`', "");
        let cells: Vec<&str> = plain
            .trim()
            .trim_start_matches('|')
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 4 {
            continue;
        }
        let Some(offset) = parse_int(cells[0]) else {
            continue;
        };
        let size = parse_int(cells[1]);
        let notes = cells[3];
        let Some(&(name, want_off, want_size)) = layout
            .fields
            .iter()
            .find(|(fname, _, _)| *fname == cells[2])
        else {
            continue;
        };
        seen[lix].push(name);
        let diag = |line: usize, message: String| Diagnostic {
            rule: "KVS-L013",
            path: rel.to_string(),
            line,
            message,
        };
        if offset != want_off {
            out.push(diag(
                n,
                format!(
                    "{} table: `{name}` documented at offset {offset}, but {} puts it at \
                     {want_off}",
                    layout.heading, layout.src
                ),
            ));
        }
        if size != Some(want_size) {
            out.push(diag(
                n,
                format!(
                    "{} table: `{name}` documented as {} bytes, but {} says {want_size}",
                    layout.heading, cells[1], layout.src
                ),
            ));
        }
        match name {
            "magic" => {
                let want = format!("0x{:08X}", layout.magic);
                if !notes.contains(&want) {
                    out.push(diag(
                        n,
                        format!("{} table: magic notes must state {want}", layout.heading),
                    ));
                }
            }
            "version" if !notes.contains(&layout.version.to_string()) => {
                out.push(diag(
                    n,
                    format!(
                        "{} table: version notes must state {}",
                        layout.heading, layout.version
                    ),
                ));
            }
            _ => {}
        }
    }
    let body = lines.join("\n");
    for (lix, layout) in layouts.iter().enumerate() {
        for &(name, _, _) in &layout.fields {
            if !seen[lix].contains(&name) {
                out.push(Diagnostic {
                    rule: "KVS-L013",
                    path: rel.to_string(),
                    line: 1,
                    message: format!(
                        "{} table: field `{name}` is missing (or outside a `{}` section)",
                        layout.heading, layout.heading
                    ),
                });
            }
        }
        if !body.contains(&layout.prose) {
            out.push(Diagnostic {
                rule: "KVS-L013",
                path: rel.to_string(),
                line: 1,
                message: format!(
                    "prose must state the encoded size (`{}`) pinned by {}",
                    layout.prose, layout.src
                ),
            });
        }
    }
}

/// KVS-L013: the durable store's format constants in `wal.rs` and
/// `sst_file.rs` are the single source of truth; the ASCII tables in their
/// module docs and the markdown tables in `docs/STORE.md` must agree with
/// them byte for byte. Dormant in trees without the store sources.
fn store_format_drift(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    const WAL_SIZES: &[(&str, u64)] = &[
        ("magic", 4),
        ("version", 1),
        ("reserved", 3),
        ("segment_seq", 8),
    ];
    const SST_SIZES: &[(&str, u64)] = &[
        ("magic", 4),
        ("version", 1),
        ("reserved", 3),
        ("generation", 8),
        ("column_index_size", 8),
        ("index_off", 8),
        ("index_len", 8),
        ("bloom_off", 8),
        ("bloom_len", 8),
        ("meta_crc", 8),
        ("footer_crc", 8),
    ];
    let mut layouts = Vec::new();
    if let Some(f) = ws.file("crates/store/src/wal.rs") {
        if let Some(layout) = parse_store_layout(
            f,
            "WAL",
            "WAL_HEADER_LEN",
            "segment header",
            "header",
            WAL_SIZES,
            out,
        ) {
            check_store_moduledoc_table(f, &layout, out);
            layouts.push(layout);
        }
    }
    if let Some(f) = ws.file("crates/store/src/sst_file.rs") {
        if let Some(layout) = parse_store_layout(
            f,
            "SST",
            "SST_FOOTER_LEN",
            "footer",
            "footer",
            SST_SIZES,
            out,
        ) {
            check_store_moduledoc_table(f, &layout, out);
            layouts.push(layout);
        }
    }
    if layouts.is_empty() {
        return; // fixture trees without the store sources skip the rule
    }
    match &ws.store_md {
        Some((rel, lines)) => check_store_md(rel, lines, &layouts, out),
        None => {
            for layout in &layouts {
                out.push(Diagnostic {
                    rule: "KVS-L013",
                    path: layout.src.clone(),
                    line: 1,
                    message: "docs/STORE.md is missing — the on-disk format this file defines \
                              must be documented there"
                        .to_string(),
                });
            }
        }
    }
}

/// KVS-L003.
fn result_drops(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if !in_error_discipline_zone(&f.rel) {
            continue;
        }
        for (n, l) in f.numbered() {
            if l.in_test {
                continue;
            }
            if l.code.contains("let _ =") || l.code.contains("let _=") {
                out.push(Diagnostic {
                    rule: "KVS-L003",
                    path: f.rel.clone(),
                    line: n,
                    message: "silently dropped result — handle the error, log the branch, or \
                              waive it with a justification"
                        .to_string(),
                });
            }
        }
    }
}

/// KVS-L004.
fn unwrap_discipline(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if !in_error_discipline_zone(&f.rel) {
            continue;
        }
        for (n, l) in f.numbered() {
            if l.in_test {
                continue;
            }
            for tok in [".unwrap()", ".expect("] {
                if l.code.contains(tok) {
                    out.push(Diagnostic {
                        rule: "KVS-L004",
                        path: f.rel.clone(),
                        line: n,
                        message: format!(
                            "`{}` in a hot path — propagate the error or waive with the \
                             invariant that makes it unreachable",
                            tok.trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }
}

fn contains_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0
            || !code[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// KVS-L005.
fn unsafe_safety_comments(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        for (n, l) in f.numbered() {
            if !contains_word(&l.code, "unsafe") {
                continue;
            }
            let covered = (n.saturating_sub(4)..n)
                .filter_map(|ix| f.lines.get(ix))
                .any(|li| li.comment.contains("SAFETY:"));
            if !covered {
                out.push(Diagnostic {
                    rule: "KVS-L005",
                    path: f.rel.clone(),
                    line: n,
                    message: "`unsafe` without a `// SAFETY:` comment on or directly above it"
                        .to_string(),
                });
            }
        }
    }
}

/// KVS-L006.
fn std_mutex_forbidden(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        let in_crate_src = f.rel.starts_with("crates/") && f.rel.contains("/src/");
        if !in_crate_src || f.rel.starts_with("crates/lint/") {
            continue;
        }
        for (n, l) in f.numbered() {
            if l.in_test {
                continue;
            }
            let qualified = l.code.contains("std::sync::Mutex") || l.code.contains("sync::Mutex");
            let imported = l.code.contains("use std::sync::") && contains_word(&l.code, "Mutex");
            if qualified || imported {
                out.push(Diagnostic {
                    rule: "KVS-L006",
                    path: f.rel.clone(),
                    line: n,
                    message: "std::sync::Mutex in crate code — the workspace standard is the \
                              parking_lot shim (poison-free lock())"
                        .to_string(),
                });
            }
        }
    }
}

/// Calls that can block on a peer or another thread. Holding a lock across
/// one of these turns backpressure into a pile-up behind the lock.
const BLOCKING_CALLS: &[&str] = &[
    ".write_all(",
    ".write_to(",
    ".read_exact(",
    "::read_from(",
    ".recv()",
    ".recv_timeout(",
    ".accept()",
    "thread::sleep(",
    ".join()",
];

fn blocking_call_in(code: &str) -> Option<&'static str> {
    BLOCKING_CALLS.iter().find(|t| code.contains(**t)).copied()
}

/// KVS-L007: two heuristics over `crates/net/src`:
///
/// 1. a statement that both takes a lock and makes a blocking call
///    (`frame.write_to(&mut *conn.lock())`);
/// 2. a `let guard = …lock();` binding whose enclosing block performs a
///    blocking call before the guard's scope closes.
fn lock_across_blocking(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if !f.rel.starts_with("crates/net/src/") {
            continue;
        }
        let mut depth: i64 = 0;
        // Open guard scopes: (depth at binding, guard name).
        let mut guards: Vec<(i64, String)> = Vec::new();
        for (n, l) in f.numbered() {
            if l.in_test {
                continue;
            }
            let code = l.code.trim();
            if code.contains(".lock()") {
                if let Some(call) = blocking_call_in(code) {
                    out.push(Diagnostic {
                        rule: "KVS-L007",
                        path: f.rel.clone(),
                        line: n,
                        message: format!(
                            "lock taken and blocking call `{}` in one statement — the guard is \
                             held for the whole call",
                            call.trim_matches(|c| c == '.' || c == ':' || c == '(')
                        ),
                    });
                } else if code.starts_with("let ") && code.ends_with(".lock();") {
                    let name = code
                        .trim_start_matches("let ")
                        .trim_start_matches("mut ")
                        .split(['=', ':'])
                        .next()
                        .unwrap_or("")
                        .trim()
                        .to_string();
                    guards.push((depth, name));
                }
            } else if !guards.is_empty() {
                if let Some(call) = blocking_call_in(code) {
                    out.push(Diagnostic {
                        rule: "KVS-L007",
                        path: f.rel.clone(),
                        line: n,
                        message: format!(
                            "blocking call `{}` while lock guard `{}` from this scope is live",
                            call.trim_matches(|c| c == '.' || c == ':' || c == '('),
                            guards
                                .last()
                                .map(|(_, g)| g.as_str())
                                .unwrap_or("<unknown>")
                        ),
                    });
                }
                guards.retain(|(_, g)| !(code.contains("drop(") && code.contains(g.as_str())));
            }
            for c in l.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        guards.retain(|&(d, _)| d <= depth);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// KVS-L008: the invariants PR 1–3 established by convention, pinned as
/// comment contracts so they cannot silently evaporate in a refactor.
fn comment_contracts(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    if let Some(f) = ws.file("crates/net/src/master.rs") {
        send_seq_monotonicity(f, out);
        busy_rearm_contract(f, out);
    }
    if let Some((rel, lines)) = &ws.net_md {
        let body = lines.join("\n");
        if !body.contains("flow control, never a failure") {
            out.push(Diagnostic {
                rule: "KVS-L008",
                path: rel.clone(),
                line: 1,
                message: "docs/NET.md must state the backpressure contract: \
                          \"Busy is flow control, never a failure\""
                    .to_string(),
            });
        }
    }
}

/// The request send sequence (`stamps[2]`) is what the chaos proxies audit
/// per connection; it must only ever move forward. Statically: every
/// mention of `send_seq` in master.rs must be its declaration, its zero
/// initialization, a read into `seq`, or a `+= 1` bump — any other
/// mutation (a reset, a decrement, arithmetic) breaks the audit.
fn send_seq_monotonicity(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut decl_line = None;
    for (n, l) in f.numbered() {
        if l.in_test || !l.code.contains("send_seq") {
            continue;
        }
        let code = l.code.trim();
        if code.contains("send_seq: u64") {
            decl_line = Some(n);
            continue;
        }
        let allowed = code.contains("send_seq += 1")
            || code.contains("let seq = self.send_seq")
            || code.contains("send_seq: 0");
        if !allowed {
            out.push(Diagnostic {
                rule: "KVS-L008",
                path: f.rel.clone(),
                line: n,
                message: "send_seq may only be read into `seq` or bumped with `+= 1` — any \
                          other use can regress the sequence the chaos proxies audit"
                    .to_string(),
            });
        }
    }
    match decl_line {
        None => out.push(Diagnostic {
            rule: "KVS-L008",
            path: f.rel.clone(),
            line: 1,
            message: "master.rs must declare the `send_seq: u64` monotone send counter".to_string(),
        }),
        Some(n) => {
            let documented = (n.saturating_sub(4)..n)
                .filter_map(|ix| f.lines.get(ix))
                .any(|li| li.comment.to_ascii_lowercase().contains("monotone"));
            if !documented {
                out.push(Diagnostic {
                    rule: "KVS-L008",
                    path: f.rel.clone(),
                    line: n,
                    message: "the send_seq field must document its monotone contract in the \
                              comment directly above it"
                        .to_string(),
                });
            }
        }
    }
}

/// The Busy allowance re-arm is behavior tests pin (`busy_budget.rs`); the
/// code site must keep saying so, or the next refactor will "simplify" it
/// away.
fn busy_rearm_contract(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let arm = f
        .numbered()
        .find(|(_, l)| !l.in_test && l.code.contains("FrameKind::Busy =>"));
    let Some((arm_line, _)) = arm else {
        return; // no Busy handling in this (fixture) master.rs
    };
    let documented = (arm_line..arm_line + 30)
        .filter_map(|n| f.lines.get(n - 1))
        .any(|li| li.comment.contains("re-arm"));
    if !documented {
        out.push(Diagnostic {
            rule: "KVS-L008",
            path: f.rel.clone(),
            line: arm_line,
            message: "the Busy arm must carry the re-arm contract comment (Busy re-arms the \
                      wall-clock allowance; flow control is never a failure)"
                .to_string(),
        });
    }
    let mentions_pin = f
        .lines
        .iter()
        .any(|l| l.comment.contains("busy_budget") || l.code.contains("busy_budget"));
    if !mentions_pin {
        out.push(Diagnostic {
            rule: "KVS-L008",
            path: f.rel.clone(),
            line: arm_line,
            message: "master.rs must reference the pinning test (tests/busy_budget.rs) near \
                      the Busy contract"
                .to_string(),
        });
    }
}
