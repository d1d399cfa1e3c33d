//! Deterministic fault injection for the TCP engine.
//!
//! [`ChaosProxy`] is a per-slave TCP interposer: the master connects to
//! the proxy, the proxy connects to the real [`crate::SlaveServer`], and
//! every byte crossing it is deframed with the production
//! [`Frame::decode`] so faults land *byte-accurately at frame
//! boundaries* — a dropped frame is exactly one request or response,
//! a corrupted frame is a real CRC failure, a truncation is a mid-frame
//! connection cut. A request or response frame that carries several
//! partitions is relayed as one frame per partition (the layout of
//! [`crate::frame`] allows either), so a fault still hits one partition's
//! request or answer, and frame indexes count partitions.
//!
//! Faults are driven by a declarative [`ChaosSchedule`]: a seed, an
//! optional blackhole instant, and a list of [`ChaosRule`]s matched in
//! order against each frame (direction, frame-index window, probability
//! under a seeded RNG). The same schedule + seed replays the same fault
//! sequence, which is what makes the robustness suite deterministic.
//!
//! The proxy also audits the master's send-sequence discipline: request,
//! write and RMW frames carry a monotone sequence number in `stamps[2]`,
//! and any regression observed on a connection increments
//! [`ChaosStats::seq_regressions`].

use crate::frame::{codec_of, Frame, FrameKind, HEADER_LEN};
use crate::ioutil::{best_effort, join_logged};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which flow a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDirection {
    /// Master → slave (requests).
    ToSlave,
    /// Slave → master (responses and `Busy` frames).
    ToMaster,
    /// Both flows.
    Both,
}

impl ChaosDirection {
    fn covers(self, to_slave: bool) -> bool {
        match self {
            ChaosDirection::ToSlave => to_slave,
            ChaosDirection::ToMaster => !to_slave,
            ChaosDirection::Both => true,
        }
    }
}

/// What happens to a frame a rule fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Hold the frame for the given duration, then forward it intact.
    Delay(Duration),
    /// Silently discard the frame (the retry path must recover it).
    Drop,
    /// Forward the frame twice back-to-back (duplicate delivery).
    Duplicate,
    /// Forward only the first `n` bytes of the frame, then cut the
    /// connection — a mid-frame crash.
    Truncate(usize),
    /// Flip a checksum byte so the receiver sees a CRC failure and must
    /// drop the connection (the stream cannot be re-synchronized).
    CorruptCrc,
    /// Cut the connection instead of forwarding the frame.
    Disconnect,
}

/// One declarative fault rule. Rules are evaluated in order; the first
/// rule whose direction covers the frame, whose frame-index window
/// contains it, and whose probability coin lands, fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRule {
    /// Flow(s) this rule watches.
    pub direction: ChaosDirection,
    /// The fault to inject.
    pub action: FaultAction,
    /// Chance the rule fires on an eligible frame, in `[0, 1]`.
    pub probability: f64,
    /// First frame index (per proxy and direction, 0-based) the rule is
    /// live from.
    pub after_frame: u64,
    /// Frame index the rule stops at (exclusive); `None` = forever. A
    /// bounded window is what makes a schedule
    /// [eventually quiet](ChaosSchedule::eventually_quiet).
    pub until_frame: Option<u64>,
}

/// A complete fault scenario for one proxy: seed, rules, and an optional
/// point in time after which the slave goes silent.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed of the per-connection fault RNG; same seed + same traffic ⇒
    /// same faults.
    pub seed: u64,
    /// Rules, evaluated in order (first match wins).
    pub rules: Vec<ChaosRule>,
    /// From this long after proxy start, every frame in both directions
    /// is swallowed while the connections stay open — the asymmetric
    /// "node alive but unreachable" failure the paper's `NodeFailure`
    /// models. `Duration::ZERO` blackholes from the first byte.
    pub blackhole_from: Option<Duration>,
}

impl ChaosSchedule {
    /// A schedule that injects nothing — the proxy becomes a transparent
    /// (but still frame-auditing) relay.
    pub fn passthrough(seed: u64) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            rules: Vec::new(),
            blackhole_from: None,
        }
    }

    /// A schedule whose only fault is a total blackhole starting `from`
    /// after proxy start.
    pub fn blackhole_at(seed: u64, from: Duration) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            rules: Vec::new(),
            blackhole_from: Some(from),
        }
    }

    /// Whether this schedule stops injecting after finitely many frames:
    /// no blackhole, and every rule's window is bounded (or its
    /// probability is zero). Property tests only generate eventually
    /// quiet schedules — an eventually quiet fault source plus bounded
    /// retries means every query terminates.
    pub fn eventually_quiet(&self) -> bool {
        self.blackhole_from.is_none()
            && self
                .rules
                .iter()
                .all(|r| r.until_frame.is_some() || r.probability <= 0.0)
    }

    /// Parses the schedule file format (a TOML subset; see
    /// `docs/NET.md`). Top-level `key = value` lines set `seed` and
    /// `blackhole_from_ms`; each `[[rule]]` section sets `direction`,
    /// `action`, `probability`, `delay_ms`, `truncate_bytes`,
    /// `after_frame`, `until_frame`. `#` starts a comment.
    pub fn parse(text: &str) -> Result<ChaosSchedule, String> {
        let mut schedule = ChaosSchedule::passthrough(0);
        // Raw per-rule fields, resolved into a ChaosRule at section end.
        #[derive(Default)]
        struct Raw {
            direction: Option<String>,
            action: Option<String>,
            probability: Option<f64>,
            delay_ms: Option<u64>,
            truncate_bytes: Option<usize>,
            after_frame: Option<u64>,
            until_frame: Option<u64>,
        }
        fn resolve(raw: Raw) -> Result<ChaosRule, String> {
            let direction = match raw.direction.as_deref() {
                Some("to_slave") => ChaosDirection::ToSlave,
                Some("to_master") => ChaosDirection::ToMaster,
                Some("both") | None => ChaosDirection::Both,
                Some(other) => return Err(format!("unknown direction {other:?}")),
            };
            let action = match raw.action.as_deref() {
                Some("delay") => FaultAction::Delay(Duration::from_millis(
                    raw.delay_ms.ok_or("delay rule needs delay_ms")?,
                )),
                Some("drop") => FaultAction::Drop,
                Some("duplicate") => FaultAction::Duplicate,
                Some("truncate") => FaultAction::Truncate(
                    raw.truncate_bytes
                        .ok_or("truncate rule needs truncate_bytes")?,
                ),
                Some("corrupt_crc") => FaultAction::CorruptCrc,
                Some("disconnect") => FaultAction::Disconnect,
                Some(other) => return Err(format!("unknown action {other:?}")),
                None => return Err("rule without action".to_string()),
            };
            // Parameters that only one action consumes are rejected on any
            // other — a schedule that silently ignores a knob reads as
            // injecting a fault it is not.
            if raw.delay_ms.is_some() && !matches!(action, FaultAction::Delay(_)) {
                return Err("delay_ms is only valid on action = \"delay\"".to_string());
            }
            if raw.truncate_bytes.is_some() && !matches!(action, FaultAction::Truncate(_)) {
                return Err("truncate_bytes is only valid on action = \"truncate\"".to_string());
            }
            let probability = raw.probability.unwrap_or(1.0);
            if !probability.is_finite() || !(0.0..=1.0).contains(&probability) {
                return Err(format!(
                    "probability {probability} outside [0, 1] (must be a finite fraction)"
                ));
            }
            let after_frame = raw.after_frame.unwrap_or(0);
            if let Some(until) = raw.until_frame {
                if until <= after_frame {
                    return Err(format!(
                        "empty window: until_frame {until} must exceed after_frame {after_frame}"
                    ));
                }
            }
            Ok(ChaosRule {
                direction,
                action,
                probability,
                after_frame,
                until_frame: raw.until_frame,
            })
        }
        /// Rejects the second assignment of one key within a scope: a
        /// duplicated key is almost always an editing mistake, and "last
        /// one wins" would silently run a different schedule than the one
        /// the author reads.
        fn set<T>(slot: &mut Option<T>, value: T, key: &str, lineno: usize) -> Result<(), String> {
            if slot.is_some() {
                return Err(format!("line {}: duplicate key {key:?}", lineno + 1));
            }
            *slot = Some(value);
            Ok(())
        }
        let mut current: Option<Raw> = None;
        let mut seen_seed = false;
        let mut seen_blackhole = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[rule]]" {
                if let Some(raw) = current.take() {
                    schedule.rules.push(resolve(raw)?);
                }
                current = Some(Raw::default());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim().trim_matches('"'));
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            match (&mut current, key) {
                (None, "seed") => {
                    if seen_seed {
                        return Err(format!("line {}: duplicate key \"seed\"", lineno + 1));
                    }
                    seen_seed = true;
                    schedule.seed = parse_u64(value)?;
                }
                (None, "blackhole_from_ms") => {
                    if seen_blackhole {
                        return Err(format!(
                            "line {}: duplicate key \"blackhole_from_ms\"",
                            lineno + 1
                        ));
                    }
                    seen_blackhole = true;
                    schedule.blackhole_from = Some(Duration::from_millis(parse_u64(value)?));
                }
                (None, other) => return Err(format!("unknown top-level key {other:?}")),
                (Some(raw), "direction") => {
                    set(&mut raw.direction, value.to_string(), key, lineno)?;
                }
                (Some(raw), "action") => set(&mut raw.action, value.to_string(), key, lineno)?,
                (Some(raw), "probability") => {
                    let p = value
                        .parse::<f64>()
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                    set(&mut raw.probability, p, key, lineno)?;
                }
                (Some(raw), "delay_ms") => set(&mut raw.delay_ms, parse_u64(value)?, key, lineno)?,
                (Some(raw), "truncate_bytes") => {
                    set(
                        &mut raw.truncate_bytes,
                        parse_u64(value)? as usize,
                        key,
                        lineno,
                    )?;
                }
                (Some(raw), "after_frame") => {
                    set(&mut raw.after_frame, parse_u64(value)?, key, lineno)?;
                }
                (Some(raw), "until_frame") => {
                    set(&mut raw.until_frame, parse_u64(value)?, key, lineno)?;
                }
                (Some(_), other) => return Err(format!("unknown rule key {other:?}")),
            }
        }
        if let Some(raw) = current.take() {
            schedule.rules.push(resolve(raw)?);
        }
        Ok(schedule)
    }
}

/// A point-in-time snapshot of everything one proxy did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Complete frames observed (both directions).
    pub frames_seen: u64,
    /// Frames relayed unmodified.
    pub forwarded: u64,
    /// Frames held by a `Delay` rule (then forwarded).
    pub delayed: u64,
    /// Frames discarded by a `Drop` rule.
    pub dropped: u64,
    /// Frames forwarded twice by a `Duplicate` rule.
    pub duplicated: u64,
    /// Connections cut mid-frame by a `Truncate` rule.
    pub truncated: u64,
    /// Frames forwarded with a flipped CRC byte.
    pub corrupted: u64,
    /// Connections cut by a `Disconnect` rule.
    pub disconnects: u64,
    /// Frames swallowed by the blackhole.
    pub blackholed: u64,
    /// Master send-sequence regressions observed on request frames
    /// (`stamps[2]` not monotone per connection) — always 0 for a
    /// correct master.
    pub seq_regressions: u64,
}

#[derive(Default)]
struct AtomicStats {
    frames_seen: AtomicU64,
    forwarded: AtomicU64,
    delayed: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    truncated: AtomicU64,
    corrupted: AtomicU64,
    disconnects: AtomicU64,
    blackholed: AtomicU64,
    seq_regressions: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ChaosStats {
        ChaosStats {
            frames_seen: self.frames_seen.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            blackholed: self.blackholed.load(Ordering::Relaxed),
            seq_regressions: self.seq_regressions.load(Ordering::Relaxed),
        }
    }
}

/// How long pump threads block on a read before re-checking the stop flag.
const PUMP_POLL: Duration = Duration::from_millis(25);

/// A running fault-injection proxy in front of one slave server.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<AtomicStats>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Everything a pump thread needs, shared per proxy.
struct Shared {
    schedule: ChaosSchedule,
    start: Instant,
    stats: Arc<AtomicStats>,
    stop: Arc<AtomicBool>,
    /// Per-direction frame index shared by all connections, so rule
    /// windows mean "the proxy's Nth frame in that direction".
    frames_to_slave: AtomicU64,
    frames_to_master: AtomicU64,
}

impl ChaosProxy {
    /// Boots a proxy on an ephemeral loopback port, relaying to
    /// `upstream` (a slave server) under `schedule`.
    pub fn spawn(upstream: SocketAddr, schedule: ChaosSchedule) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(AtomicStats::default());
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(Shared {
            schedule,
            start: Instant::now(),
            stats: stats.clone(),
            stop: stop.clone(),
            frames_to_slave: AtomicU64::new(0),
            frames_to_master: AtomicU64::new(0),
        });
        let accept_thread = {
            let stop = stop.clone();
            let conn_threads = conn_threads.clone();
            let shared = shared.clone();
            let conn_seq = AtomicU64::new(0);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let (client, _peer) = match listener.accept() {
                        Ok(pair) => pair,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::Acquire) {
                        break; // the shutdown wake-up connection
                    }
                    let upstream_conn = match TcpStream::connect(upstream) {
                        Ok(s) => s,
                        Err(_) => continue, // slave down: refuse by dropping
                    };
                    best_effort("set_nodelay (client)", client.set_nodelay(true));
                    best_effort("set_nodelay (upstream)", upstream_conn.set_nodelay(true));
                    let conn_id = conn_seq.fetch_add(1, Ordering::Relaxed);
                    let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream_conn.try_clone()) else {
                        continue;
                    };
                    let mut registry = conn_threads.lock();
                    let shared_a = shared.clone();
                    let shared_b = shared.clone();
                    registry.push(std::thread::spawn(move || {
                        pump(client, u2, true, conn_id, &shared_a);
                    }));
                    registry.push(std::thread::spawn(move || {
                        pump(upstream_conn, c2, false, conn_id, &shared_b);
                    }));
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            stop,
            stats,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The proxy's listen address — what the master should connect to in
    /// place of the slave's own address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats.snapshot()
    }

    /// Stops the proxy deterministically: joins the accept loop and every
    /// pump thread. Connections through the proxy are cut.
    pub fn shutdown(mut self) -> ChaosStats {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop; a failed loopback connect would leave it
        // blocked, so it is worth a log line.
        if let Err(e) = TcpStream::connect(self.addr) {
            eprintln!("kvs-net: chaos shutdown wake-up connect failed: {e}");
        }
        if let Some(h) = self.accept_thread.take() {
            join_logged("chaos accept thread", h);
        }
        let conns = std::mem::take(&mut *self.conn_threads.lock());
        for h in conns {
            join_logged("chaos pump thread", h);
        }
        self.stats.snapshot()
    }
}

/// Boots one passthrough-or-faulty proxy per address; `schedules[i]`
/// governs the proxy in front of `upstream_addrs[i]`. Returns the proxies
/// plus the substitute address list to hand to
/// [`crate::NetMaster::connect`].
pub fn wrap_cluster(
    upstream_addrs: &[SocketAddr],
    schedules: Vec<ChaosSchedule>,
) -> std::io::Result<(Vec<ChaosProxy>, Vec<SocketAddr>)> {
    assert_eq!(
        upstream_addrs.len(),
        schedules.len(),
        "one schedule per node"
    );
    let mut proxies = Vec::with_capacity(upstream_addrs.len());
    for (addr, schedule) in upstream_addrs.iter().zip(schedules) {
        proxies.push(ChaosProxy::spawn(*addr, schedule)?);
    }
    let addrs = proxies.iter().map(|p| p.addr()).collect();
    Ok((proxies, addrs))
}

/// One direction's relay loop: deframe, consult the schedule, forward.
///
/// `to_slave` is true for the master→slave pump. Reads from `src`, writes
/// to `dst`; on exit cuts both so the opposite pump and both peers see
/// EOF promptly.
fn pump(src: TcpStream, mut dst: TcpStream, to_slave: bool, conn_id: u64, shared: &Shared) {
    // Without the poll timeout this pump cannot notice `stop`; log, since
    // a stuck pump shows up later as a hung shutdown.
    best_effort(
        "pump set_read_timeout",
        src.set_read_timeout(Some(PUMP_POLL)),
    );
    let mut src_reader = match src.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    // Direction- and connection-distinct but schedule-determined RNG.
    let mut rng = StdRng::seed_from_u64(
        shared
            .schedule
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn_id * 2 + to_slave as u64),
    );
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    // Highest request sequence (stamps[2]) seen on this connection.
    let mut last_seq: Option<u64> = None;
    // Set once Frame::decode fails: the stream can no longer be framed,
    // so relay raw bytes (the receiver's CRC check is the authority).
    let mut dumb = false;
    let cut = |src: &TcpStream, dst: &TcpStream| {
        // Cutting an already-cut socket reports NotConnected; quiet.
        best_effort("pump cut (src)", src.shutdown(Shutdown::Both));
        best_effort("pump cut (dst)", dst.shutdown(Shutdown::Both));
    };
    loop {
        match src_reader.read(&mut chunk) {
            Ok(0) => {
                cut(&src, &dst);
                return;
            }
            Ok(n) => {
                if dumb {
                    if forward(&mut dst, &chunk[..n], shared, true).is_err() {
                        cut(&src, &dst);
                        return;
                    }
                    continue;
                }
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    match Frame::decode(&buf) {
                        Ok(Some((whole, used))) => {
                            let raw: Vec<u8> = buf.drain(..used).collect();
                            for (frame, raw) in one_per_partition(whole, raw) {
                                shared.stats.frames_seen.fetch_add(1, Ordering::Relaxed);
                                if to_slave
                                    && (frame.kind == FrameKind::Request
                                        || frame.kind == FrameKind::Write
                                        || frame.kind == FrameKind::Rmw)
                                {
                                    let seq = frame.stamps[2];
                                    if last_seq.is_some_and(|prev| seq < prev) {
                                        shared
                                            .stats
                                            .seq_regressions
                                            .fetch_add(1, Ordering::Relaxed);
                                    }
                                    last_seq = Some(last_seq.map_or(seq, |p| p.max(seq)));
                                }
                                if !relay_frame(&raw, to_slave, shared, &mut rng, &mut dst) {
                                    cut(&src, &dst);
                                    return;
                                }
                            }
                        }
                        Ok(None) => break, // need more bytes
                        Err(_) => {
                            // Unframeable (e.g. an upstream proxy already
                            // corrupted it): stop interpreting, relay raw.
                            dumb = true;
                            let rest: Vec<u8> = std::mem::take(&mut buf);
                            if forward(&mut dst, &rest, shared, true).is_err() {
                                cut(&src, &dst);
                                return;
                            }
                            break;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::Acquire) {
                    cut(&src, &dst);
                    return;
                }
            }
            Err(_) => {
                cut(&src, &dst);
                return;
            }
        }
    }
}

/// A decoded frame and its wire bytes as one frame per partition: a
/// request or response frame of several entries becomes one frame for
/// each, every other frame (and one whose payload does not parse to its
/// end) stays as it came.
fn one_per_partition(frame: Frame, raw: Vec<u8>) -> Vec<(Frame, Vec<u8>)> {
    let codec = codec_of(frame.flags);
    let mut parts = Vec::new();
    let whole = match frame.kind {
        FrameKind::Request => {
            let mut rest = &frame.payload[..];
            while !rest.is_empty() {
                let entry = rest;
                let Some((id, _)) = codec.next_request(&mut rest) else {
                    break;
                };
                let body = &entry[..entry.len() - rest.len()];
                parts.push(Frame {
                    id,
                    payload: frame.payload.slice_ref(body),
                    ..frame.clone()
                });
            }
            rest.is_empty()
        }
        FrameKind::Response => frame
            .answers(&codec, |answer| {
                let [echo, dequeued, db_end] = answer.stamps;
                parts.push(Frame {
                    id: answer.id,
                    stamps: [echo, dequeued, db_end, frame.stamps[3]],
                    payload: frame.payload.slice_ref(answer.body),
                    ..frame.clone()
                });
            })
            .is_some(),
        FrameKind::Busy
        | FrameKind::Expired
        | FrameKind::Write
        | FrameKind::WriteAck
        | FrameKind::Rmw => false,
    };
    if !whole || parts.len() < 2 {
        return vec![(frame, raw)];
    }
    parts
        .into_iter()
        .map(|part| {
            let raw = part.encode();
            (part, raw)
        })
        .collect()
}

/// Applies the schedule to one complete frame. Returns false when the
/// connection must be cut (truncate/disconnect or a write failure).
fn relay_frame(
    raw: &[u8],
    to_slave: bool,
    shared: &Shared,
    rng: &mut StdRng,
    dst: &mut TcpStream,
) -> bool {
    let stats = &shared.stats;
    // Blackhole trumps everything: swallow silently, keep the conn open.
    if let Some(from) = shared.schedule.blackhole_from {
        if shared.start.elapsed() >= from {
            stats.blackholed.fetch_add(1, Ordering::Relaxed);
            return true;
        }
    }
    let counter = if to_slave {
        &shared.frames_to_slave
    } else {
        &shared.frames_to_master
    };
    let index = counter.fetch_add(1, Ordering::Relaxed);
    let fault = shared.schedule.rules.iter().find_map(|rule| {
        let in_window = index >= rule.after_frame && rule.until_frame.is_none_or(|end| index < end);
        (rule.direction.covers(to_slave)
            && in_window
            && rng.gen_bool(rule.probability.clamp(0.0, 1.0)))
        .then_some(rule.action)
    });
    match fault {
        None => forward(dst, raw, shared, false).is_ok(),
        Some(FaultAction::Delay(d)) => {
            // Sleep in stop-aware slices so shutdown isn't held up by a
            // long delay rule.
            let deadline = Instant::now() + d;
            while Instant::now() < deadline && !shared.stop.load(Ordering::Acquire) {
                std::thread::sleep(PUMP_POLL.min(deadline - Instant::now()));
            }
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            forward(dst, raw, shared, false).is_ok()
        }
        Some(FaultAction::Drop) => {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            true
        }
        Some(FaultAction::Duplicate) => {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            forward(dst, raw, shared, false).is_ok() && forward(dst, raw, shared, false).is_ok()
        }
        Some(FaultAction::Truncate(n)) => {
            stats.truncated.fetch_add(1, Ordering::Relaxed);
            let n = n.min(raw.len().saturating_sub(1));
            // The connection is cut right after; the prefix write is
            // best-effort by design.
            best_effort("truncated forward", forward(dst, &raw[..n], shared, false));
            false // cut the connection mid-frame
        }
        Some(FaultAction::CorruptCrc) => {
            stats.corrupted.fetch_add(1, Ordering::Relaxed);
            let mut bad = raw.to_vec();
            // Flip a checksum byte: the frame stays structurally valid
            // (magic/len intact) but fails CRC validation on receipt.
            bad[HEADER_LEN - 1] ^= 0xFF;
            forward(dst, &bad, shared, false).is_ok()
        }
        Some(FaultAction::Disconnect) => {
            stats.disconnects.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Writes bytes through, bumping `forwarded` once per frame (not for raw
/// dumb-mode chunks unless asked).
fn forward(
    dst: &mut TcpStream,
    bytes: &[u8],
    shared: &Shared,
    raw_mode: bool,
) -> std::io::Result<()> {
    dst.write_all(bytes)?;
    if !raw_mode {
        shared.stats.forwarded.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}
