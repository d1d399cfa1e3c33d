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
//! | KVS-L016 | deadline propagation: frames thread the incoming deadline |
//! | KVS-L017 | wire-input taint: untrusted lengths bounded before allocation/indexing |
//! | KVS-L018 | determinism escape: no wall-clock/RNG value flow into L001 zones |
//! | KVS-L019 | receipt accounting: every disk block read charges the ReadReceipt |
//!
//! KVS-L002 and KVS-L013 are one checker over the layouts in
//! [`LAYOUTS`]. KVS-L007 and KVS-L009 are one lock-guard tracker in
//! [`crate::passes`], interprocedural through the workspace call graph
//! ([`crate::callgraph`]). L014–L016 are implemented in
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
    /// machinery errors).
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
        "deadline propagation: every forwarded frame threads the incoming deadline — no \
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
    pub(crate) fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Runs every rule over the workspace and returns the findings, sorted by
/// path and line.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    determinism_guard(ws, &mut out);
    layout_drift(ws, &mut out);
    result_drops(ws, &mut out);
    unwrap_discipline(ws, &mut out);
    unsafe_safety_comments(ws, &mut out);
    std_mutex_forbidden(ws, &mut out);
    comment_contracts(ws, &mut out);
    crate::passes::run(ws, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
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
    "crates/cluster/src/coord.rs",
    "crates/cluster/src/dispatch.rs",
];

pub(crate) fn in_deterministic_zone(rel: &str) -> bool {
    DETERMINISTIC_ZONES
        .iter()
        .any(|z| rel.starts_with(z) || rel == z.trim_end_matches('/'))
}

pub(crate) fn in_net_or_cluster_src(rel: &str) -> bool {
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

/// A binary layout pinned by a drift rule: the constants in `src` are the
/// single source of truth, and both the ASCII table in `src`'s module
/// docs and the markdown table in `doc` must restate them byte for byte.
struct Layout {
    rule: &'static str,
    src: &'static str,
    /// How markdown findings name the source file.
    named: &'static str,
    doc: &'static str,
    /// What markdown findings call the table (`frame table: …`).
    label: &'static str,
    /// Names of the magic, version and total-length constants.
    consts: [&'static str; 3],
    /// Fields in order with their sizes: offsets follow from the order and
    /// the length constant pins the total. Size 0 is the variable-length
    /// tail, whose size column is not checked.
    fields: &'static [(&'static str, u64)],
    /// A doc name starting with the first string names the second field.
    aliases: &'static [(&'static str, &'static str)],
    extra: Extra,
}

/// What a layout's docs must state beyond its tables.
enum Extra {
    /// The wire frame: the kind discriminants and the CRC's coverage in
    /// the notes, and `<len> bytes` in the prose.
    Frame,
    /// A store format: rows count only under a heading containing the
    /// label, the prose states `<len>-byte <noun>`, and the doc must exist.
    Store { noun: &'static str },
}

const LAYOUTS: &[Layout] = &[
    Layout {
        rule: "KVS-L002",
        src: "crates/net/src/frame.rs",
        named: "frame.rs",
        doc: "docs/NET.md",
        label: "frame",
        consts: ["MAGIC", "VERSION", "HEADER_LEN"],
        fields: &[
            ("magic", 2),
            ("version", 1),
            ("kind", 1),
            ("flags", 1),
            ("id", 8),
            ("len", 4),
            ("stamps", 32),
            ("deadline", 8),
            ("crc", 4),
            ("payload", 0),
        ],
        aliases: &[("checksum", "crc"), ("stamps", "stamps")],
        extra: Extra::Frame,
    },
    Layout {
        rule: "KVS-L013",
        src: "crates/store/src/wal.rs",
        named: "crates/store/src/wal.rs",
        doc: "docs/STORE.md",
        label: "segment header",
        consts: ["WAL_MAGIC", "WAL_VERSION", "WAL_HEADER_LEN"],
        fields: &[
            ("magic", 4),
            ("version", 1),
            ("reserved", 3),
            ("segment_seq", 8),
        ],
        aliases: &[],
        extra: Extra::Store { noun: "header" },
    },
    Layout {
        rule: "KVS-L013",
        src: "crates/store/src/sst_file.rs",
        named: "crates/store/src/sst_file.rs",
        doc: "docs/STORE.md",
        label: "footer",
        consts: ["SST_MAGIC", "SST_VERSION", "SST_FOOTER_LEN"],
        fields: &[
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
        ],
        aliases: &[],
        extra: Extra::Store { noun: "footer" },
    },
];

/// A [`Layout`]'s values as read from its source file.
struct Parsed {
    magic: u64,
    version: u64,
    len: u64,
    /// `(name, offset, size)`.
    fields: Vec<(&'static str, u64, u64)>,
    /// `FrameKind` discriminants, for [`Extra::Frame`] only.
    kinds: Vec<(String, u64)>,
}

impl Layout {
    fn diag(&self, path: &str, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            rule: self.rule,
            path: path.to_string(),
            line,
            message,
        }
    }

    /// A doc table row `offset size name …`: the documented offset and
    /// the field the row names, with its true offset and size.
    fn row<'p>(
        &self,
        p: &'p Parsed,
        cells: &[&str],
    ) -> Option<(u64, &'p (&'static str, u64, u64))> {
        let doc_name = *cells.get(2)?;
        let name = self
            .aliases
            .iter()
            .find(|(from, _)| doc_name.starts_with(from))
            .map_or(doc_name, |(_, to)| to);
        Some((
            parse_int(cells[0])?,
            p.fields.iter().find(|(f, _, _)| *f == name)?,
        ))
    }

    /// Reads the constants (and the frame's kinds) from `f`, or reports
    /// why the rule cannot run.
    fn parse(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) -> Option<Parsed> {
        let mut get = |name: &str| {
            let v = parse_const(f, name);
            if v.is_none() {
                out.push(self.diag(
                    &f.rel,
                    1,
                    format!("could not parse `pub const {name}` — drift rule cannot run"),
                ));
            }
            v
        };
        let [magic, version, len] = self.consts;
        let (magic, version, len_v) = (get(magic)?, get(version)?, get(len)?);
        let mut fields = Vec::new();
        let mut offset = 0;
        for &(name, size) in self.fields {
            fields.push((name, offset, size));
            offset += size;
        }
        if offset != len_v {
            out.push(self.diag(
                &f.rel,
                1,
                format!(
                    "{len} ({len_v}) disagrees with the sum of the fixed field sizes \
                     ({offset}) — a field was resized without bumping the length constant"
                ),
            ));
        }
        let mut kinds = Vec::new();
        if let Extra::Frame = self.extra {
            // `FrameKind::Request => 1,` — the to_byte arms. (from_byte's
            // arms are written value-first and don't match this shape.)
            for l in &f.lines {
                let Some((name, val)) = l
                    .code
                    .trim()
                    .strip_prefix("FrameKind::")
                    .and_then(|rest| rest.split_once("=>"))
                else {
                    continue;
                };
                let name = name.trim();
                if !name.is_empty() && name.chars().all(char::is_alphanumeric) {
                    if let Some(v) = parse_int(val.trim().trim_end_matches(',')) {
                        kinds.push((name.to_string(), v));
                    }
                }
            }
            if kinds.is_empty() {
                out.push(self.diag(
                    &f.rel,
                    1,
                    "could not parse FrameKind discriminants — drift rule cannot run".to_string(),
                ));
                return None;
            }
        }
        Some(Parsed {
            magic,
            version,
            len: len_v,
            fields,
            kinds,
        })
    }

    /// The ASCII table in the source's own module docs: rows look like
    /// `//!      0     2  magic        0x4B56 ("KV")`.
    fn check_moduledoc(&self, f: &SourceFile, p: &Parsed, out: &mut Vec<Diagnostic>) {
        let mut seen = Vec::new();
        for (n, l) in f.numbered() {
            // Doc comments reach the comment view as `!      0     2  magic …`
            // (the `//` is consumed, the `!` or third `/` is not).
            let text = l.comment.trim_start().trim_start_matches(['!', '/']);
            let toks: Vec<&str> = text.split_whitespace().collect();
            let Some((offset, &(name, want_off, want_size))) = self.row(p, &toks) else {
                continue;
            };
            seen.push(name);
            if offset != want_off {
                out.push(self.diag(
                    &f.rel,
                    n,
                    format!(
                        "module-doc table: `{name}` at offset {offset}, but the constants put \
                         it at {want_off}"
                    ),
                ));
            }
            if want_size != 0 && parse_int(toks[1]) != Some(want_size) {
                out.push(self.diag(
                    &f.rel,
                    n,
                    format!(
                        "module-doc table: `{name}` sized {} bytes, but the constants say \
                         {want_size}",
                        toks[1]
                    ),
                ));
            }
        }
        for (name, _, _) in &p.fields {
            if !seen.contains(name) {
                out.push(self.diag(
                    &f.rel,
                    1,
                    format!("module-doc table: field `{name}` is missing"),
                ));
            }
        }
    }

    /// The markdown table in the doc: rows look like
    /// `| 0 | 2 | magic | \`0x4B56\` (\`"KV"\`) |`.
    fn check_markdown(&self, rel: &str, lines: &[String], p: &Parsed, out: &mut Vec<Diagnostic>) {
        let (label, named) = (self.label, self.named);
        let scoped = matches!(self.extra, Extra::Store { .. });
        let mut active = !scoped;
        let mut seen = Vec::new();
        for (ix, raw) in lines.iter().enumerate() {
            let n = ix + 1;
            if raw.trim_start().starts_with('#') {
                active = !scoped || raw.to_ascii_lowercase().contains(label);
                continue;
            }
            let plain = raw.replace('`', "");
            let cells: Vec<&str> = plain
                .trim()
                .trim_start_matches('|')
                .trim_end_matches('|')
                .split('|')
                .map(str::trim)
                .collect();
            if !active || cells.len() < 4 {
                continue;
            }
            let Some((offset, &(name, want_off, want_size))) = self.row(p, &cells) else {
                continue;
            };
            seen.push(name);
            let mut push = |message: String| out.push(self.diag(rel, n, message));
            if offset != want_off {
                push(format!(
                    "{label} table: `{name}` documented at offset {offset}, but {named} puts it \
                     at {want_off}"
                ));
            }
            if want_size != 0 && parse_int(cells[1]) != Some(want_size) {
                push(format!(
                    "{label} table: `{name}` documented as {} bytes, but {named} says {want_size}",
                    cells[1]
                ));
            }
            let notes = cells[3];
            match name {
                "magic" => {
                    let want = format!("0x{:0w$X}", p.magic, w = 2 * want_size as usize);
                    if !notes.contains(&want) {
                        push(format!("{label} table: magic notes must state {want}"));
                    }
                }
                "version" if !notes.contains(&p.version.to_string()) => {
                    push(format!(
                        "{label} table: version notes must state {}",
                        p.version
                    ));
                }
                "kind" => {
                    for (kname, kval) in &p.kinds {
                        if !notes.contains(&format!("{kval} {kname}")) {
                            push(format!(
                                "{label} table: kind notes must map `{kval}` to `{kname}` \
                                 (frame.rs to_byte drifted from the docs)"
                            ));
                        }
                    }
                }
                "crc" => {
                    let last = want_off - 1;
                    if !notes.contains(&format!("0\u{2013}{last}"))
                        && !notes.contains(&format!("0-{last}"))
                    {
                        push(format!(
                            "{label} table: crc notes must state coverage of header bytes \
                             0\u{2013}{last} plus payload"
                        ));
                    }
                }
                _ => {}
            }
        }
        for (name, _, _) in &p.fields {
            if !seen.contains(name) {
                let scope = if scoped {
                    format!(" (or outside a `{label}` section)")
                } else {
                    String::new()
                };
                out.push(self.diag(
                    rel,
                    1,
                    format!("{label} table: field `{name}` is missing{scope}"),
                ));
            }
        }
        let (needle, message) = match self.extra {
            Extra::Frame => (format!("{} bytes", p.len), "the current header size"),
            Extra::Store { noun } => (format!("{}-byte {noun}", p.len), "the encoded size"),
        };
        if !lines.join("\n").contains(&needle) {
            let message = match self.extra {
                Extra::Frame => format!("prose must state {message} ({needle})"),
                Extra::Store { .. } => {
                    format!(
                        "prose must state {message} (`{needle}`) pinned by {}",
                        self.src
                    )
                }
            };
            out.push(self.diag(rel, 1, message));
        }
    }
}

/// KVS-L002 and KVS-L013: every [`LAYOUTS`] entry against its two tables.
/// Trees without a layout's source file (most fixtures) skip it.
fn layout_drift(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for layout in LAYOUTS {
        let Some(f) = ws.file(layout.src) else {
            continue;
        };
        let Some(parsed) = layout.parse(f, out) else {
            continue;
        };
        layout.check_moduledoc(f, &parsed, out);
        let doc = [&ws.net_md, &ws.store_md]
            .into_iter()
            .flatten()
            .find(|(rel, _)| rel == layout.doc);
        match (doc, &layout.extra) {
            (Some((rel, lines)), _) => layout.check_markdown(rel, lines, &parsed, out),
            (None, Extra::Store { .. }) => out.push(layout.diag(
                layout.src,
                1,
                format!(
                    "{} is missing — the on-disk format this file defines must be documented \
                     there",
                    layout.doc
                ),
            )),
            (None, Extra::Frame) => {}
        }
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
fn parse_const(f: &SourceFile, name: &str) -> Option<u64> {
    let needle = format!("const {name}:");
    let l = f.lines.iter().find(|l| l.code.contains(&needle))?;
    parse_int(l.code[l.code.find(&needle)?..].split('=').nth(1)?)
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

/// KVS-L008: the invariants PR 1–3 established by convention, pinned as
/// comment contracts so they cannot silently evaporate in a refactor.
fn comment_contracts(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    if let Some(f) = ws.file("crates/net/src/master.rs") {
        send_seq_monotonicity(f, out);
    }
    if let Some(f) = ws.file("crates/cluster/src/dispatch.rs") {
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
/// read dispatcher's `busy`, where it is decided, must keep saying so, or
/// the next refactor will "simplify" it away.
fn busy_rearm_contract(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let arm = f
        .numbered()
        .find(|(_, l)| !l.in_test && l.code.contains("fn busy("));
    let Some((arm_line, _)) = arm else {
        return; // no Busy handling in this (fixture) dispatcher
    };
    let documented = (arm_line..arm_line + 30)
        .filter_map(|n| f.lines.get(n - 1))
        .any(|li| li.comment.contains("re-arm"));
    if !documented {
        out.push(Diagnostic {
            rule: "KVS-L008",
            path: f.rel.clone(),
            line: arm_line,
            message: "`Dispatcher::busy` must carry the re-arm contract comment (Busy re-arms the \
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
            message: "dispatch.rs must reference the pinning test (tests/busy_budget.rs) near \
                      the Busy contract"
                .to_string(),
        });
    }
}
