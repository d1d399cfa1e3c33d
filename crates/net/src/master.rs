//! The network master: a connection pool over every slave, the paper's
//! "fire all requests, then drain responses" query loop, and the stage
//! bookkeeping that turns frame timestamps into a
//! [`kvs_cluster::RunResult`].
//!
//! Flow control is a **credit window** per node: the master keeps at most
//! as many requests in flight on a node as the node's work queue holds,
//! and holds the rest un-issued on a per-node ready list, so every
//! sub-request is sent once. The window is not configured: a slave
//! advertises its queue capacity in every `Busy` frame, the master
//! remembers it per node across queries, and until a node has said
//! anything its window is unlimited. I/O is batched per wake-up: the
//! master takes every frame that is ready, issues the credit they freed
//! into one buffer per node, and writes each buffer once before it blocks
//! again.
//!
//! A request is encoded straight into its node's send buffer from the
//! route's key (a retry or a hedge encodes again: no copy is kept), and a
//! response's counts are folded into the query's totals where they lie.
//! The clock is read per sub-request only for the master's stage stamps
//! (`sent`, `received`); `tx`, `rx` and heartbeats are timed per batch.
//!
//! Reliability model: one TCP connection per slave, a reader thread per
//! connection funneling frames into one channel, per-request deadlines,
//! and bounded retries. A `Busy` frame (slave queue full) is the fallback
//! for what the window cannot see — a second master on the same slave, a
//! node that has not advertised yet — and is flow control, never a
//! failure: it schedules a quick retry that does not consume the failure
//! budget, and — because a `Busy` reply proves the slave alive — it
//! re-arms the request's wall-clock allowance. A timeout re-sends the
//! request at most [`NetConfig::max_retries`] times; once that budget is
//! exhausted (or the connection drops, or a corrupted frame forces a
//! disconnect) the master *fails over* to the next replica of the key.
//!
//! Three mechanisms bound the tail beyond plain retries:
//!
//! * **Deadlines** ([`NetConfig::query_deadline`]) ride in the v2 frame
//!   header; slaves shed expired work before the DB stage and answer
//!   `Expired`, and the master enforces the same limit locally.
//! * **Hedged reads** ([`NetConfig::hedge`]): when a response is slower
//!   than a configured quantile of that node's online latency histogram,
//!   the request is re-issued to the best other replica;
//!   first-response-wins, the loser is cancelled (dropped from pending,
//!   its eventual answer deduplicated), and the extra load is accounted.
//! * **Phi-accrual failure detection** ([`crate::phi`]): suspicion is a
//!   continuous level fed by response inter-arrivals, used to order
//!   replicas on failover and to stop hedging toward dying nodes — not
//!   just a binary verdict after the full timeout window.
//!
//! In the default strict mode, a request whose every replica is dead or
//! exhausted (or whose deadline passed) fails the whole query, as PR 2
//! behaved. In degraded mode ([`QueryMode::Degraded`]) the query instead
//! completes with [`kvs_cluster::Coverage`]` < 1` and an exact
//! per-partition miss list — partial answers over errors.

use crate::clock::wall_ns;
use crate::frame::{Deframer, Frame, FrameKind, FLAG_COMPACT};
use crate::latency::LatencyTracker;
use crate::phi::PhiAccrual;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use kvs_cluster::{Codec, CodecKind, Coverage, QueryResponse, ReplicaPolicy, RunResult};
use kvs_simcore::{SimDuration, SimTime};
use kvs_stages::{analyze, RequestTrace, Span, Stage, TraceRecorder};
use kvs_store::PartitionKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sub-query route: a partition key plus the nodes holding a replica
/// of it, primary first (the order [`kvs_cluster::ClusterData`] placed
/// them in). The master picks among the replicas with
/// [`NetConfig::replica_policy`] and walks the list on failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The partition this sub-query aggregates.
    pub key: PartitionKey,
    /// Replica node indexes, primary first. Must be non-empty.
    pub replicas: Vec<u32>,
}

impl Route {
    /// A single-replica route (replication factor 1).
    pub fn single(key: PartitionKey, node: u32) -> Route {
        Route {
            key,
            replicas: vec![node],
        }
    }
}

/// Hedged-read configuration.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Latency quantile of the node's online histogram after which the
    /// hedge fires (e.g. `0.95`: hedge once the response is slower than
    /// 95% of that node's observed responses).
    pub quantile: f64,
    /// Floor on the hedge delay — also the delay used before the node has
    /// any latency samples. Keeps a cold start from hedging every request.
    pub min_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_millis(5),
        }
    }
}

/// What happens when a sub-query runs out of replicas (or deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Fail the whole query with an `io::Error` (PR 2's behavior).
    #[default]
    Strict,
    /// Complete with partial results: [`kvs_cluster::Coverage`]` < 1` and
    /// a per-partition miss list instead of an error.
    Degraded,
}

/// Master-side configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Request/response serialization (advertised per frame; slaves answer
    /// in kind).
    pub codec: Codec,
    /// Per-request deadline before a retry is issued.
    pub timeout: Duration,
    /// How many times one request may be re-sent to the *same replica*
    /// after a timeout before the master gives up on that replica and
    /// fails over to the next one. `Busy` replies are flow control, not
    /// failures: they retry without consuming this budget, and each one
    /// re-arms the request's wall-clock allowance of
    /// `timeout × (max_retries + 1)` (the slave demonstrably lives).
    pub max_retries: u32,
    /// Back-off before retrying a request a slave answered `Busy` to.
    pub busy_backoff: Duration,
    /// How the master picks a replica for each sub-query (paper §VIII).
    pub replica_policy: ReplicaPolicy,
    /// Seed for the policy RNG (the `Random` policy); fixed seed ⇒
    /// deterministic replica choices.
    pub seed: u64,
    /// Hedged replica reads; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Per-request completion budget, measured from the request's issue
    /// time. Propagated to slaves in the frame header (they shed expired
    /// work before the DB stage) and enforced master-side. `None` means
    /// requests never expire.
    pub query_deadline: Option<Duration>,
    /// Strict (error) vs degraded (partial answers) behavior when a
    /// sub-query runs out of replicas or deadline.
    pub mode: QueryMode,
    /// Phi-accrual suspicion threshold: a node whose phi exceeds this is
    /// not hedged toward and is deprioritized on failover. The default 8
    /// means "this silence has probability ≤ 10⁻⁸ under the node's fitted
    /// arrival distribution".
    pub phi_threshold: f64,
    /// Extra connect attempts on `ConnectionRefused` — a freshly spawned
    /// local cluster may not be listening yet (the cold-start race).
    pub connect_retries: u32,
    /// Initial back-off between connect attempts; doubles each retry.
    pub connect_backoff: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            codec: Codec::compact(),
            timeout: Duration::from_secs(2),
            max_retries: 8,
            busy_backoff: Duration::from_millis(1),
            replica_policy: ReplicaPolicy::Primary,
            seed: 0x5EED,
            hedge: None,
            query_deadline: None,
            mode: QueryMode::Strict,
            phi_threshold: 8.0,
            connect_retries: 6,
            connect_backoff: Duration::from_millis(1),
        }
    }
}

/// One sub-query that completed without an answer (degraded mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissedPartition {
    /// The request id (its index into the route list).
    pub request_id: u64,
    /// The partition that went unanswered.
    pub key: PartitionKey,
    /// Its replica set — every one of these was dead, exhausted or past
    /// deadline when the master gave up.
    pub replicas: Vec<u32>,
}

/// What a network query run reports beyond the shared [`RunResult`]:
/// master-side per-message costs (the calibration inputs), the retry
/// counters, and the failover/hedge bookkeeping.
#[derive(Debug)]
pub struct NetRunReport {
    /// The standard run outcome (traces, stage report, aggregates).
    pub result: RunResult,
    /// Master CPU+syscall time spent encoding/framing/writing requests,
    /// µs: the codec, the frame, and each `write` that carried frames,
    /// timed per issue pass and per call.
    pub tx_micros: u64,
    /// Master CPU time spent on received frames, µs: folding, settling
    /// and tracing every response, timed per drained batch of events.
    pub rx_micros: u64,
    /// Requests re-sent because a slave answered `Busy`.
    pub busy_retries: u64,
    /// Requests re-sent (to the same replica) because their deadline
    /// expired.
    pub timeout_retries: u64,
    /// Requests re-routed to another replica after their current one
    /// timed out, exhausted its retry budget, or dropped its connection.
    pub failovers: u64,
    /// Nodes the master stopped trusting during the run: their connection
    /// died, a corrupted frame forced a disconnect, they exhausted a
    /// request's retry budget, or their phi-accrual suspicion crossed
    /// [`NetConfig::phi_threshold`]. Sorted, deduplicated.
    pub suspected_dead: Vec<u32>,
    /// Master↔slave connections torn down because a frame failed its CRC
    /// (after corruption the byte stream cannot be re-synchronized).
    pub crc_disconnects: u64,
    /// The aggregate retry cost: wall-clock time completed requests spent
    /// between their first send and the send that finally got a response
    /// (0 for a run with no retries). This is the share of the
    /// master-to-slave stage attributable to busy back-off, timeouts and
    /// failover detection.
    pub retry_wait_ms: f64,
    /// Hedged (duplicate) requests issued to a second replica.
    pub hedges_sent: u64,
    /// Hedges whose duplicate answered before the original.
    pub hedges_won: u64,
    /// Sub-queries that completed unanswered (degraded mode only; always
    /// empty in strict mode, which errors instead). Sorted by request id.
    pub missed: Vec<MissedPartition>,
}

impl NetRunReport {
    /// Measured master send cost per message, µs (the paper's `t_msg`).
    pub fn tx_us_per_msg(&self) -> f64 {
        self.tx_micros as f64 / self.result.messages.max(1) as f64
    }

    /// Measured master receive cost per message, µs.
    pub fn rx_us_per_msg(&self) -> f64 {
        self.rx_micros as f64 / self.result.messages.max(1) as f64
    }

    /// Extra request load caused by hedging, as a fraction of the
    /// query's message count (`0.05` ⇒ 5% duplicate requests).
    pub fn hedge_extra_load(&self) -> f64 {
        self.hedges_sent as f64 / self.result.messages.max(1) as f64
    }
}

/// Why a connection reader exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DownReason {
    /// EOF or a transport error: the peer is gone.
    Closed,
    /// A frame failed validation (CRC/framing): the stream is
    /// unrecoverable, so the connection was dropped.
    Corrupt,
}

/// What a reader thread reports to the collect loop.
pub(crate) enum Event {
    Frame(u32, Frame),
    Down(u32, DownReason),
}

/// Where a request is in its send cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Un-issued: on its node's ready list until the node has credit.
    Ready,
    /// On the wire and counted in the node's in-flight; re-sent at
    /// `retry_at` if nothing comes back.
    Sent { retry_at: Instant },
    /// Refused with `Busy`, so off the wire again: back on the ready list
    /// at `retry_at`, unless `expires` — the hard wall-clock limit every
    /// `Busy` re-arms — has passed by then.
    Backoff { retry_at: Instant, expires: Instant },
}

impl Leg {
    /// When the retry pass is to pick the request up again, if ever.
    fn retry_at(self) -> Option<Instant> {
        match self {
            Leg::Ready => None,
            Leg::Sent { retry_at } | Leg::Backoff { retry_at, .. } => Some(retry_at),
        }
    }
}

struct Pending<'r> {
    /// The key and its replica nodes, primary first; every send encodes
    /// the request from here.
    route: &'r Route,
    /// Index into `route.replicas` of the replica currently being tried.
    replica_ix: usize,
    attempts: u32,
    /// Wall-clock stamp of the first send, 0 until there was one.
    first_sent_wall: u64,
    sent_wall: u64,
    issued_wall: u64,
    leg: Leg,
    /// The request's absolute deadline as carried on the wire (0 = none).
    deadline_wall: u64,
    /// Master-side view of the same deadline.
    hard_deadline: Option<Instant>,
    /// When to hedge, if hedging is armed and has not fired yet.
    hedge_at: Option<Instant>,
    /// Outstanding hedge target, if one was issued.
    hedge_node: Option<u32>,
    hedge_sent_wall: u64,
}

impl Pending<'_> {
    fn node(&self) -> u32 {
        self.route.replicas[self.replica_ix]
    }

    /// The earliest instant any of this request's timers is due.
    fn next_timer(&self) -> Option<Instant> {
        [self.leg.retry_at(), self.hedge_at, self.hard_deadline]
            .into_iter()
            .flatten()
            .min()
    }
}

/// Per-node health: continuous phi-accrual suspicion plus the hard
/// verdicts phi cannot express (a closed connection stays closed).
pub(crate) struct NodeHealth {
    phi: PhiAccrual,
    pub(crate) latency: LatencyTracker,
    /// The connection is gone (EOF, transport error, CRC disconnect, or a
    /// failed write). The write half is dropped; only a reconnect could
    /// clear this.
    pub(crate) hard_dead: bool,
    /// A request exhausted its retry budget against this node. Soft:
    /// any later frame from the node clears it.
    exhausted: bool,
    /// Phi crossed the threshold while the master was deciding where to
    /// send work. Latched for reporting; cleared by any frame.
    phi_suspect: bool,
    /// The credit window: how many requests the node's work queue holds,
    /// as its last `Busy` advertised (`stamps[2]`). 0 until a `Busy` says
    /// otherwise, and for peers that advertise nothing: unlimited.
    window: usize,
}

impl NodeHealth {
    pub(crate) fn new() -> NodeHealth {
        NodeHealth {
            phi: PhiAccrual::default(),
            latency: LatencyTracker::default(),
            hard_dead: false,
            exhausted: false,
            phi_suspect: false,
            window: 0,
        }
    }

    fn suspect(&self) -> bool {
        self.hard_dead || self.exhausted || self.phi_suspect
    }
}

/// A connected master.
pub struct NetMaster {
    pub(crate) writers: Vec<Option<TcpStream>>,
    /// Per node, request frames encoded and not yet written. A query
    /// fills these and writes each once per wake-up; a single-frame send
    /// ([`NetMaster::write_frame`]) writes at once.
    out: Vec<Vec<u8>>,
    pub(crate) rx: Receiver<Event>,
    /// Producer half of the event channel, kept so a reconnect
    /// ([`NetMaster::reconnect`]) can spawn a fresh reader thread.
    pub(crate) tx: Sender<Event>,
    readers: Vec<JoinHandle<()>>,
    pub(crate) cfg: NetConfig,
    /// Per-node failure-detector and latency state, and the credit
    /// window. Persists across queries, like the dead set it replaces.
    pub(crate) health: Vec<NodeHealth>,
    crc_disconnects: u64,
    /// Monotone per-master send sequence, stamped into request frames
    /// (`stamps[2]`) so interposers and tests can assert ordering.
    pub(crate) send_seq: u64,
    policy_rng: StdRng,
    /// The replicated write path's coordinator: hint queues, the
    /// read-repair write cache, per-partition acked versions (driven by
    /// `crate::write_path`).
    pub(crate) coord: kvs_cluster::coord::Coordinator,
}

/// `TcpStream::connect` with bounded retry on `ConnectionRefused`: a
/// freshly spawned local cluster (or a slave being restarted by a chaos
/// test) may not have reached `listen()` yet, and the first SYN bounces.
pub(crate) fn connect_with_retry(addr: &SocketAddr, cfg: &NetConfig) -> io::Result<TcpStream> {
    let mut backoff = cfg.connect_backoff.max(Duration::from_micros(100));
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionRefused
                    && attempt < cfg.connect_retries =>
            {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Spawns one connection reader thread funneling frames into `tx`: one
/// `read` per wake-up, every frame it brought forwarded in order.
fn spawn_reader(node: u32, mut read_half: TcpStream, tx: Sender<Event>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut deframer = Deframer::new();
        let reason = 'conn: loop {
            match deframer.fill(&mut read_half) {
                Ok(0) | Err(_) => break DownReason::Closed,
                Ok(_) => {}
            }
            loop {
                match deframer.next_frame() {
                    Ok(Some(frame)) => {
                        if tx.send(Event::Frame(node, frame)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break 'conn DownReason::Corrupt,
                }
            }
        };
        let _ = tx.send(Event::Down(node, reason));
    })
}

/// How many frames the issue pass encodes for one node before it writes
/// them and looks at the event channel again. A node whose window is not
/// known yet has unlimited credit, and this is what lets its first `Busy`
/// be heard before every route has been sent to it.
const ISSUE_BURST: usize = 64;

/// The state of one running query, bundled so helpers can borrow it
/// alongside `self` without fighting the borrow checker.
struct Flight<'r> {
    pending: HashMap<u64, Pending<'r>>,
    /// Requests on the wire per node, hedges included.
    inflight: Vec<usize>,
    /// Per node, the ids waiting un-issued for credit, oldest first. An
    /// entry is checked when it is popped: one whose request has gone, or
    /// moved to another node, is skipped.
    ready: Vec<VecDeque<u64>>,
    /// No pending timer (retry, hedge, hard deadline) is due before this;
    /// the timer passes run only once it has come.
    nearest: Option<Instant>,
    misses: Vec<u64>,
    /// Per node, whether the batch being drained has marked it alive.
    heard: Vec<bool>,
    ctr: Counters,
    send_last: Instant,
    origin_wall: u64,
}

/// What the responses of one query add up to; apart from [`Flight`] so
/// its clocks do not look to KVS-L018 as if they reached the trace analysis.
struct Answers {
    recorder: TraceRecorder,
    /// Every response folded together: the per-kind counts and cell total.
    total: QueryResponse,
}

impl Flight<'_> {
    fn to_sim(&self, wall: u64) -> SimTime {
        SimTime::from_nanos(wall.saturating_sub(self.origin_wall))
    }
}

/// Pulls `nearest` in to `at` if that is sooner.
fn arm(nearest: &mut Option<Instant>, at: Instant) {
    *nearest = Some(nearest.map_or(at, |n| n.min(at)));
}

/// One request fewer on the wire to `node`: it gets the credit back.
fn release_node(inflight: &mut [usize], node: u32) {
    if let Some(slot) = inflight.get_mut(node as usize) {
        *slot = slot.saturating_sub(1);
    }
}

/// Takes `p`'s current attempt off the wire, if it is on it.
fn release(inflight: &mut [usize], p: &Pending) {
    if let Leg::Sent { .. } = p.leg {
        release_node(inflight, p.node());
    }
}

impl NetMaster {
    /// Connects to every slave; `addrs[i]` must be node `i`'s server.
    /// `ConnectionRefused` is retried [`NetConfig::connect_retries`] times
    /// with exponential back-off (the cold-start race against a cluster
    /// that is still binding its listeners).
    pub fn connect(addrs: &[SocketAddr], cfg: NetConfig) -> io::Result<NetMaster> {
        let (tx, rx) = unbounded::<Event>();
        let mut writers = Vec::with_capacity(addrs.len());
        let mut readers = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            let stream = connect_with_retry(addr, &cfg)?;
            stream.set_nodelay(true)?;
            let read_half = stream.try_clone()?;
            writers.push(Some(stream));
            readers.push(spawn_reader(node as u32, read_half, tx.clone()));
        }
        Ok(NetMaster {
            writers,
            out: vec![Vec::new(); addrs.len()],
            rx,
            tx,
            readers,
            health: (0..addrs.len()).map(|_| NodeHealth::new()).collect(),
            crc_disconnects: 0,
            send_seq: 0,
            policy_rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            coord: kvs_cluster::coord::Coordinator::default(),
        })
    }

    /// Re-establishes the connection to a restarted `node`: a fresh TCP
    /// stream, a fresh reader thread, and fresh failure-detector state
    /// (the old incarnation's suspicion, and the credit window it
    /// advertised, do not transfer to the new process). The caller
    /// typically follows up with [`NetMaster::replay_hints`] to drain
    /// writes buffered while the node was dark.
    pub fn reconnect(&mut self, node: u32, addr: SocketAddr) -> io::Result<()> {
        let cfg = self.cfg;
        let stream = connect_with_retry(&addr, &cfg)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        if let Some(slot) = self.writers.get_mut(node as usize) {
            if let Some(old) = slot.take() {
                crate::ioutil::best_effort("close stale connection", old.shutdown(Shutdown::Both));
            }
            *slot = Some(stream);
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("node {node} is outside the connected cluster"),
            ));
        }
        self.readers
            .push(spawn_reader(node, read_half, self.tx.clone()));
        if let Some(h) = self.health.get_mut(node as usize) {
            *h = NodeHealth::new();
        }
        Ok(())
    }

    /// Nodes currently suspected by this master: hard-dead connections,
    /// exhausted retry budgets, or phi-accrual suspicion above the
    /// configured threshold.
    pub fn suspected_dead(&self) -> Vec<u32> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.suspect())
            .map(|(n, _)| n as u32)
            .collect()
    }

    /// Current phi-accrual suspicion level of one node (0.0 for nodes the
    /// detector has too little data on).
    pub fn phi_of(&self, node: u32) -> f64 {
        self.health
            .get(node as usize)
            .map(|h| h.phi.phi(Instant::now()))
            .unwrap_or(0.0)
    }

    /// Any frame from `node` proves it alive: feed the phi detector and
    /// clear the soft suspicion verdicts.
    pub(crate) fn note_alive(&mut self, node: u32, now: Instant) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.phi.heartbeat(now);
            h.exhausted = false;
            h.phi_suspect = false;
        }
    }

    /// Hard verdicts only: the node cannot currently answer (closed
    /// connection) or demonstrably did not (exhausted budget).
    // LINT-ZONE: nonblocking — readiness-loop verdict, must never stall.
    pub(crate) fn hard_suspect(&self, node: u32) -> bool {
        self.health
            .get(node as usize)
            .map(|h| h.hard_dead || h.exhausted)
            .unwrap_or(true)
    }

    /// Whether `node` may be sent one more request: its in-flight count is
    /// below the window its last `Busy` advertised (any count is, while no
    /// window is known).
    fn has_credit(&self, node: usize, inflight: &[usize]) -> bool {
        let window = self.health.get(node).map_or(0, |h| h.window);
        window == 0 || inflight.get(node).copied().unwrap_or(0) < window
    }

    /// Phi of `node`, but only when its silence is *evidence*: a node the
    /// master has requests outstanding against and is actively draining
    /// responses from. An idle node (nothing in flight) is silent because
    /// nothing was asked of it; during the issue phase the collect loop
    /// is not running, so apparent silence is master-side lag. Both read
    /// as zero suspicion.
    // LINT-ZONE: nonblocking — runs inside the collect loop's hot path.
    fn live_phi(&self, node: u32, inflight: &[usize], now: Instant) -> f64 {
        if inflight.get(node as usize).copied().unwrap_or(0) == 0 {
            return 0.0;
        }
        self.health
            .get(node as usize)
            .map(|h| h.phi.phi(now))
            .unwrap_or(f64::INFINITY)
    }

    /// Runs the aggregation query: issues one request per route, then
    /// drains responses, failing over between replicas as needed. All
    /// keys are known up front, as in the paper's simple case.
    pub fn run_query(&mut self, routes: &[Route]) -> io::Result<NetRunReport> {
        self.run_with_arrivals(routes, None)
    }

    /// Like [`NetMaster::run_query`], but each request `i` is released
    /// only once `arrivals_ns[i]` nanoseconds have elapsed since the run
    /// started — the open-loop load generator's entry point. `None` means
    /// release everything immediately (closed batch).
    ///
    /// A released request is *issued* once its node has credit: the
    /// master keeps at most a node's advertised window in flight on it
    /// (see [`NodeHealth`]) and holds the rest un-issued, per node, so one
    /// full node never delays the others.
    pub fn run_with_arrivals(
        &mut self,
        routes: &[Route],
        arrivals_ns: Option<&[u64]>,
    ) -> io::Result<NetRunReport> {
        if let Some(a) = arrivals_ns {
            assert_eq!(a.len(), routes.len(), "one arrival offset per route");
        }
        let flags = match self.cfg.codec.kind {
            CodecKind::Compact => FLAG_COMPACT,
            CodecKind::Verbose => 0,
        };
        let origin_wall = wall_ns();
        let origin = Instant::now();
        let degraded = self.cfg.mode == QueryMode::Degraded;
        let budget = self.cfg.query_deadline;
        let nodes = self.writers.len();

        // A query that failed may have left frames behind: every user of
        // the buffers starts from empty ones.
        for out in &mut self.out {
            out.clear();
        }
        let mut fl = Flight {
            pending: HashMap::with_capacity(routes.len()),
            inflight: vec![0; nodes],
            ready: vec![VecDeque::new(); nodes],
            nearest: None,
            misses: Vec::new(),
            heard: vec![false; nodes],
            ctr: Counters::default(),
            send_last: origin,
            origin_wall,
        };
        let mut answers = Answers {
            recorder: TraceRecorder::with_capacity(routes.len()),
            total: QueryResponse::empty(),
        };
        let mut next_issue = 0usize;

        // Release, issue and collect interleave in one loop. A paced run
        // must keep draining responses and firing hedge/retry timers
        // *between* arrivals: releasing everything first and only then
        // collecting would leave every armed timer long overdue by the
        // time the last request is released, firing a storm of spurious
        // hedges and retries. An unpaced (batch) run releases everything
        // on the first pass; what each node's window does not admit waits
        // on its ready list for the responses that free credit.
        loop {
            // ---- Release every route whose arrival time has come. ----
            while next_issue < routes.len() {
                if let Some(arrivals) = arrivals_ns {
                    if origin.elapsed() < Duration::from_nanos(arrivals[next_issue]) {
                        break;
                    }
                }
                let i = next_issue;
                next_issue += 1;
                let route = &routes[i];
                assert!(!route.replicas.is_empty(), "route {i} has no replicas");
                let arrival_ns = arrivals_ns.map(|a| a[i]).unwrap_or(0);
                let issued_wall = origin_wall + arrival_ns;

                // Replica choice: the configured policy proposes, the health
                // table disposes — a suspected pick slides to the least
                // suspect live replica (counted as a failover, like the
                // sim's). Only the least-loaded policy reads the loads.
                let mut loads = Vec::new();
                if self.cfg.replica_policy == ReplicaPolicy::LeastLoaded {
                    loads.extend(route.replicas.iter().map(|&n| {
                        let n = n as usize;
                        fl.inflight.get(n).copied().unwrap_or(0)
                            + fl.ready.get(n).map_or(0, |r| r.len())
                    }));
                }
                let picked = self.cfg.replica_policy.pick(
                    route.replicas.len(),
                    &loads,
                    i as u64,
                    &mut self.policy_rng,
                );
                let mut p = Pending {
                    route,
                    replica_ix: picked,
                    attempts: 1,
                    first_sent_wall: 0,
                    sent_wall: 0,
                    issued_wall,
                    leg: Leg::Ready,
                    deadline_wall: budget
                        .map(|b| issued_wall + b.as_nanos() as u64)
                        .unwrap_or(0),
                    hard_deadline: budget.map(|b| origin + Duration::from_nanos(arrival_ns) + b),
                    hedge_at: None,
                    hedge_node: None,
                    hedge_sent_wall: 0,
                };
                if self.hard_suspect(p.node())
                    && !self.failover_to_live(&mut p, &mut fl.ctr, &fl.inflight)
                {
                    if degraded {
                        fl.misses.push(i as u64);
                        continue;
                    }
                    return Err(self.no_replica_error(i as u64, &p));
                }
                if let Some(hd) = p.hard_deadline {
                    arm(&mut fl.nearest, hd);
                }
                fl.ready[p.node() as usize].push_back(i as u64);
                fl.pending.insert(i as u64, p);
            }

            // ---- Issue what has credit; one write per node. ----
            let more = self.issue_ready(&mut fl, flags)?;
            if next_issue == routes.len() && fl.pending.is_empty() {
                break;
            }

            // ---- Wait for whichever comes first: a frame, the next
            // arrival to release, or the nearest pending timer — unless
            // the issue pass stopped at its burst limit, in which case
            // only look. Then take everything else that is ready, so the
            // credit it frees is issued in one write per node. ----
            let mut wake = fl.nearest;
            if let (Some(arrivals), true) = (arrivals_ns, next_issue < routes.len()) {
                arm(
                    &mut wake,
                    origin + Duration::from_nanos(arrivals[next_issue]),
                );
            }
            // `wake` is `None` only when nothing is pending and nothing
            // is left to release — the loop break above; a plain poll
            // interval keeps even that impossible case live.
            let wait = if more {
                Duration::ZERO
            } else {
                wake.map_or(Duration::ZERO, |at| {
                    at.saturating_duration_since(Instant::now())
                })
                .max(Duration::from_micros(100))
            };
            let mut next = match self.rx.recv_timeout(wait) {
                Ok(event) => Some(event),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    if degraded {
                        // Every connection is gone: nothing pending can be
                        // answered. Record the losses and finish with what
                        // we have.
                        fl.misses.extend(fl.pending.keys().copied());
                        fl.misses
                            .extend((next_issue..routes.len()).map(|i| i as u64));
                        fl.pending.clear();
                        break;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "every slave connection dropped mid-query",
                    ));
                }
            };
            // One clock read per batch: `rx` is a sum, and a node is as
            // alive after its first frame as after its tenth.
            let drained_from = Instant::now();
            let drained = next.is_some();
            while let Some(event) = next {
                match event {
                    Event::Frame(node, frame) => {
                        if !std::mem::replace(&mut fl.heard[node as usize], true) {
                            self.note_alive(node, drained_from);
                        }
                        self.on_frame(&mut fl, &mut answers, node, frame)?
                    }
                    Event::Down(node, reason) => {
                        if reason == DownReason::Corrupt {
                            self.crc_disconnects += 1;
                            fl.ctr.crc_disconnects += 1;
                        }
                        self.fail_node(&mut fl, node)?;
                    }
                }
                next = self.rx.try_recv().ok();
            }
            fl.heard.fill(false);

            // ---- Timers: hard deadlines, hedges, retries. ----
            let now = Instant::now();
            if drained {
                fl.ctr.rx_ns += now.duration_since(drained_from).as_nanos() as u64;
            }
            if fl.nearest.is_some_and(|at| at <= now) {
                self.on_timers(&mut fl, flags, now)?;
            }
        }

        let Flight {
            mut misses,
            ctr,
            send_last,
            ..
        } = fl;
        let Answers { recorder, total } = answers;
        misses.sort_unstable();
        misses.dedup();
        let missed: Vec<MissedPartition> = misses
            .iter()
            .map(|&id| {
                let route = &routes[id as usize];
                MissedPartition {
                    request_id: id,
                    key: route.key.clone(),
                    replicas: route.replicas.clone(),
                }
            })
            .collect();
        let coverage = Coverage {
            answered: routes.len() as u64 - misses.len() as u64,
            total: routes.len() as u64,
        };
        let traces = recorder.into_traces();
        let report = analyze(&traces);
        Ok(NetRunReport {
            result: RunResult {
                makespan: report.makespan,
                report,
                traces,
                counts_by_kind: total.counts,
                total_cells: total.cells,
                messages: routes.len() as u64,
                bytes_to_slaves: ctr.bytes_to_slaves,
                bytes_to_master: ctr.bytes_to_master,
                issue_span: SimDuration::from_nanos(
                    send_last.saturating_duration_since(origin).as_nanos() as u64,
                ),
                failovers: ctr.failovers,
                coverage,
                missed: misses,
                hedges_sent: ctr.hedges_sent,
                hedges_won: ctr.hedges_won,
                queue: None,
            },
            tx_micros: ctr.tx_ns / 1_000,
            rx_micros: ctr.rx_ns / 1_000,
            busy_retries: ctr.busy_retries,
            timeout_retries: ctr.timeout_retries,
            failovers: ctr.failovers,
            suspected_dead: self.suspected_dead(),
            crc_disconnects: ctr.crc_disconnects,
            retry_wait_ms: ctr.retry_wait_ns as f64 / 1e6,
            hedges_sent: ctr.hedges_sent,
            hedges_won: ctr.hedges_won,
            missed,
        })
    }

    /// The one place requests are sent from. Drains every node's ready
    /// list as far as the node's credit goes, encoding into the node's
    /// buffer, then writes each buffer once. A ready request whose node
    /// has become suspect meanwhile (dead, or out of some request's retry
    /// budget) moves to a live replica instead of waiting for credit that
    /// will not come. Returns whether a node still has ready requests and
    /// credit — the pass stops at [`ISSUE_BURST`] per node so the caller
    /// can look at the event channel in between.
    fn issue_ready(&mut self, fl: &mut Flight, flags: u8) -> io::Result<bool> {
        let degraded = self.cfg.mode == QueryMode::Degraded;
        let mut more = false;
        // A reroute or a failed write puts requests on the ready lists of
        // nodes this pass has already visited: go round again.
        let mut settled = false;
        while !settled {
            settled = true;
            more = false;
            for node in 0..fl.ready.len() {
                if fl.ready[node].is_empty() {
                    continue;
                }
                let started = Instant::now();
                let mut burst = 0usize;
                while let Some(&id) = fl.ready[node].front() {
                    let Some(p) = fl.pending.get_mut(&id) else {
                        fl.ready[node].pop_front();
                        continue;
                    };
                    if p.leg != Leg::Ready || p.node() != node as u32 {
                        fl.ready[node].pop_front();
                        continue;
                    }
                    if self.hard_suspect(node as u32) {
                        fl.ready[node].pop_front();
                        if self.failover_to_live(p, &mut fl.ctr, &fl.inflight) {
                            p.attempts = 1;
                            fl.ready[p.node() as usize].push_back(id);
                            settled = false;
                        } else if degraded {
                            fl.pending.remove(&id);
                            fl.misses.push(id);
                        } else {
                            return Err(self.no_replica_error(id, p));
                        }
                        continue;
                    }
                    if !self.has_credit(node, &fl.inflight) {
                        break;
                    }
                    if burst == ISSUE_BURST {
                        more = true;
                        break;
                    }
                    fl.ready[node].pop_front();
                    burst += 1;
                    let (sent_wall, wire_len) = self.frame_request(node, id, flags, p);
                    p.sent_wall = sent_wall;
                    p.leg = Leg::Sent {
                        retry_at: started + self.cfg.timeout,
                    };
                    if p.first_sent_wall == 0 {
                        p.first_sent_wall = sent_wall;
                        if let (Some(h), true) = (self.cfg.hedge, p.route.replicas.len() > 1) {
                            p.hedge_at = Some(started + self.hedge_delay(node as u32, &h));
                        }
                    }
                    fl.inflight[node] += 1;
                    fl.ctr.bytes_to_slaves += wire_len;
                    if let Some(at) = p.next_timer() {
                        arm(&mut fl.nearest, at);
                    }
                }
                if burst > 0 {
                    fl.send_last = Instant::now();
                    fl.ctr.tx_ns += fl.send_last.duration_since(started).as_nanos() as u64;
                }
            }
            for node in 0..self.out.len() {
                if self.flush(node, &mut fl.ctr).is_err() {
                    // The connection is unusable; suspect the node and
                    // walk its requests to their next replicas.
                    self.fail_node(fl, node as u32)?;
                    settled = false;
                }
            }
        }
        Ok(more)
    }

    /// Encodes `p`'s request, header and body, into `node`'s buffer for the
    /// next [`NetMaster::flush`]; returns its send stamp and body length.
    fn frame_request(&mut self, node: usize, id: u64, flags: u8, p: &Pending) -> (u64, u64) {
        let sent_wall = wall_ns();
        let seq = self.send_seq;
        self.send_seq += 1;
        let codec = self.cfg.codec;
        let wire_len = Frame {
            kind: FrameKind::Request,
            flags,
            id,
            stamps: [p.issued_wall, sent_wall, seq, 0],
            deadline: p.deadline_wall,
            payload: Bytes::new(),
        }
        .encode_with(&mut self.out[node], |out| {
            codec.append_request(out, id, &p.route.key)
        });
        (sent_wall, wire_len as u64)
    }

    /// Writes what `node`'s buffer holds, if anything, in one call; the
    /// time goes to the `tx` cost of the frames it carried.
    fn flush(&mut self, node: usize, ctr: &mut Counters) -> io::Result<()> {
        let out = &mut self.out[node];
        if out.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let res = match self.writers.get_mut(node).and_then(|w| w.as_mut()) {
            Some(writer) => writer.write_all(out),
            None => Err(io::ErrorKind::NotConnected.into()),
        };
        out.clear();
        ctr.tx_ns += t0.elapsed().as_nanos() as u64;
        res
    }

    /// `node` is gone (its reader reported the connection down, or a write
    /// to it failed): everything pending on it fails over now rather than
    /// waiting out its timeout, through the ready lists like any send.
    fn fail_node(&mut self, fl: &mut Flight, node: u32) -> io::Result<()> {
        let degraded = self.cfg.mode == QueryMode::Degraded;
        self.mark_dead(node);
        if let Some(out) = self.out.get_mut(node as usize) {
            out.clear();
        }
        if let Some(ready) = fl.ready.get_mut(node as usize) {
            ready.clear();
        }
        // Outstanding hedges on the dead node are lost.
        for p in fl.pending.values_mut() {
            if p.hedge_node == Some(node) {
                p.hedge_node = None;
                release_node(&mut fl.inflight, node);
            }
        }
        let stranded: Vec<u64> = fl
            .pending
            .iter()
            .filter(|(_, p)| p.node() == node)
            .map(|(&id, _)| id)
            .collect();
        for id in stranded {
            let Some(p) = fl.pending.get_mut(&id) else {
                continue;
            };
            release(&mut fl.inflight, p);
            if !self.failover_to_live(p, &mut fl.ctr, &fl.inflight) {
                if degraded {
                    fl.pending.remove(&id);
                    fl.misses.push(id);
                    continue;
                }
                return Err(self.no_replica_error(id, p));
            }
            p.attempts = 1;
            p.leg = Leg::Ready;
            fl.ready[p.node() as usize].push_back(id);
        }
        Ok(())
    }

    /// One received frame.
    fn on_frame(
        &mut self,
        fl: &mut Flight,
        answers: &mut Answers,
        node: u32,
        frame: Frame,
    ) -> io::Result<()> {
        let degraded = self.cfg.mode == QueryMode::Degraded;
        match frame.kind {
            FrameKind::Response => {
                let Entry::Occupied(entry) = fl.pending.entry(frame.id) else {
                    return Ok(()); // duplicate (a retry or a lost hedge raced the winner)
                };
                let Some(cells) = self
                    .cfg
                    .codec
                    .fold_response(&frame.payload, &mut answers.total)
                else {
                    return Ok(()); // checksummed but undecodable: let the retry path handle it
                };
                let p = entry.remove();
                let done_wall = wall_ns();
                // First response wins; both outstanding attempts are
                // released here, so the loser is cancelled: never
                // retried, its eventual answer dropped as a duplicate
                // above.
                release(&mut fl.inflight, &p);
                let hedge_answered = p.hedge_node == Some(node) && node != p.node();
                if let Some(hn) = p.hedge_node {
                    release_node(&mut fl.inflight, hn);
                    if hedge_answered {
                        fl.ctr.hedges_won += 1;
                    }
                }
                let sent = if hedge_answered {
                    p.hedge_sent_wall
                } else {
                    p.sent_wall
                };
                if let Some(h) = self.health.get_mut(node as usize) {
                    h.latency
                        .record(Duration::from_nanos(done_wall.saturating_sub(sent)));
                }
                fl.ctr.bytes_to_master += frame.payload.len() as u64;
                fl.ctr.retry_wait_ns += p.sent_wall.saturating_sub(p.first_sent_wall);
                let mut spans = [None; 4];
                for (stage, from, to) in [
                    (Stage::MasterToSlave, p.issued_wall, sent),
                    (Stage::InQueue, frame.stamps[0], frame.stamps[1]),
                    (Stage::InDb, frame.stamps[1], frame.stamps[2]),
                    (Stage::SlaveToMaster, frame.stamps[2], done_wall),
                ] {
                    let (start, end) = (fl.to_sim(from), fl.to_sim(to));
                    spans[stage.index()] = Some(Span { start, end });
                }
                answers.recorder.insert(RequestTrace {
                    request_id: frame.id,
                    node,
                    cells,
                    spans,
                });
            }
            FrameKind::Busy => {
                // The refusal names the capacity of the queue that made
                // it: from here on this node gets no more than that in
                // flight, and `Busy` is left for what the window cannot
                // see (a second master sharing the queue).
                if frame.stamps[2] != 0 {
                    if let Some(h) = self.health.get_mut(node as usize) {
                        h.window = usize::try_from(frame.stamps[2]).unwrap_or(usize::MAX);
                    }
                }
                let Some(p) = fl.pending.get_mut(&frame.id) else {
                    return Ok(());
                };
                if p.hedge_node == Some(node) && node != p.node() {
                    // The hedge target is saturated; hedging toward it
                    // buys nothing. Cancel the hedge, keep the original.
                    p.hedge_node = None;
                    release_node(&mut fl.inflight, node);
                } else if p.node() == node && matches!(p.leg, Leg::Sent { .. }) {
                    // The request is off the wire: the node has its
                    // credit back, and the request returns to the ready
                    // list after a short back-off through the common
                    // retry path. The slave demonstrably lives, so re-arm
                    // the wall-clock allowance — Busy is flow control,
                    // never a failure (see the regression test in
                    // tests/busy_budget.rs).
                    release(&mut fl.inflight, p);
                    let now = Instant::now();
                    let retry_at = now + self.cfg.busy_backoff;
                    p.leg = Leg::Backoff {
                        retry_at,
                        expires: now + self.cfg.timeout * (self.cfg.max_retries + 1),
                    };
                    arm(&mut fl.nearest, retry_at);
                }
            }
            FrameKind::Expired => {
                // The slave shed this request: its deadline passed before
                // the DB stage. The deadline will not un-expire, so
                // retrying is useless.
                if let Some(p) = fl.pending.remove(&frame.id) {
                    release(&mut fl.inflight, &p);
                    if let Some(hn) = p.hedge_node {
                        release_node(&mut fl.inflight, hn);
                    }
                    if !degraded {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("request {} expired at node {node} before service", frame.id),
                        ));
                    }
                    fl.misses.push(frame.id);
                }
            }
            // Protocol violations (a slave never sends these) and
            // write-path acks owned by `run_mixed`: ignore.
            FrameKind::Request | FrameKind::Write | FrameKind::WriteAck | FrameKind::Rmw => {}
        }
        Ok(())
    }

    /// The timer passes, run only once `fl.nearest` has come: close out
    /// requests past their hard deadline, fire due hedges, and put
    /// requests whose retry instant has passed back on the ready lists.
    fn on_timers(&mut self, fl: &mut Flight, flags: u8, now: Instant) -> io::Result<()> {
        let degraded = self.cfg.mode == QueryMode::Degraded;

        // ---- Enforce hard deadlines. ----
        let overdue: Vec<u64> = fl
            .pending
            .iter()
            .filter(|(_, p)| p.hard_deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in overdue {
            let Some(p) = fl.pending.remove(&id) else {
                continue;
            };
            release(&mut fl.inflight, &p);
            if let Some(hn) = p.hedge_node {
                release_node(&mut fl.inflight, hn);
            }
            if !degraded {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("request {id} missed its deadline"),
                ));
            }
            fl.misses.push(id);
        }

        // ---- Fire due hedges (written by the next issue pass). ----
        let due: Vec<u64> = fl
            .pending
            .iter()
            .filter(|(_, p)| p.hedge_at.is_some_and(|t| t <= now) && p.hedge_node.is_none())
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let Some(p) = fl.pending.get_mut(&id) else {
                continue;
            };
            p.hedge_at = None;
            let Some(node) = self.pick_hedge_target(p, now, &fl.inflight) else {
                continue;
            };
            let (sent_wall, wire_len) = self.frame_request(node as usize, id, flags, p);
            fl.ctr.hedges_sent += 1;
            fl.ctr.bytes_to_slaves += wire_len;
            p.hedge_node = Some(node);
            p.hedge_sent_wall = sent_wall;
            fl.inflight[node as usize] += 1;
        }

        // ---- Retry expired requests. ----
        let expired: Vec<(u64, Leg)> = fl
            .pending
            .iter()
            .filter(|(_, p)| p.leg.retry_at().is_some_and(|at| at <= now))
            .map(|(&id, p)| (id, p.leg))
            .collect();
        for (id, leg) in expired {
            let Some(p) = fl.pending.get_mut(&id) else {
                continue;
            };
            release(&mut fl.inflight, p);
            // Busy resends are flow control and don't consume the retry
            // budget; their allowance re-arms on every Busy receipt, so
            // hitting `expires` here means the slave went silent after
            // flow-controlling us. Timeout resends are bounded by
            // `max_retries` per replica. Either way, exhaustion suspects
            // the replica and fails over.
            let exhausted = match leg {
                Leg::Backoff { expires, .. } => now >= expires,
                _ => p.attempts > self.cfg.max_retries,
            };
            if exhausted {
                self.mark_exhausted(p.node());
                if !self.failover_to_live(p, &mut fl.ctr, &fl.inflight) {
                    if degraded {
                        fl.pending.remove(&id);
                        fl.misses.push(id);
                        continue;
                    }
                    return Err(self.no_replica_error(id, p));
                }
                p.attempts = 1;
            } else if let Leg::Backoff { .. } = leg {
                fl.ctr.busy_retries += 1;
            } else {
                fl.ctr.timeout_retries += 1;
                p.attempts += 1;
            }
            p.leg = Leg::Ready;
            fl.ready[p.node() as usize].push_back(id);
        }

        fl.nearest = fl.pending.values().filter_map(|p| p.next_timer()).min();
        Ok(())
    }

    /// The per-node hedge trigger: the configured quantile of the node's
    /// online latency histogram, floored at `min_delay` (which also covers
    /// the cold start, before any sample exists). Adapts online: on a slow
    /// machine the quantile inflates and hedges fire later instead of
    /// storming healthy-but-slow replicas.
    fn hedge_delay(&self, node: u32, h: &HedgeConfig) -> Duration {
        let observed = self
            .health
            .get(node as usize)
            .and_then(|n| n.latency.quantile(h.quantile))
            .unwrap_or(Duration::ZERO);
        observed.max(h.min_delay)
    }

    /// Picks the least-suspect other replica to hedge toward, or `None`
    /// when every alternative is hard-suspect or past the phi threshold —
    /// hedging toward a dying node only doubles the damage.
    fn pick_hedge_target(&mut self, p: &Pending, now: Instant, inflight: &[usize]) -> Option<u32> {
        let n = p.route.replicas.len();
        let threshold = self.cfg.phi_threshold;
        let mut best: Option<(u32, f64)> = None;
        for step in 1..n {
            let ix = (p.replica_ix + step) % n;
            let node = p.route.replicas[ix];
            if self.hard_suspect(node) {
                continue;
            }
            let phi = self.live_phi(node, inflight, now);
            if phi > threshold {
                if let Some(h) = self.health.get_mut(node as usize) {
                    h.phi_suspect = true;
                }
                continue;
            }
            if best.is_none_or(|(_, b)| phi < b) {
                best = Some((node, phi));
            }
        }
        best.map(|(node, _)| node)
    }

    /// Advances `p` to the least-suspect other replica — phi-accrual
    /// orders the candidates, hard verdicts exclude them. Returns `false`
    /// when no live replica remains (the caller decides: error in strict
    /// mode, a recorded miss in degraded mode).
    fn failover_to_live(
        &mut self,
        p: &mut Pending,
        ctr: &mut Counters,
        inflight: &[usize],
    ) -> bool {
        let now = Instant::now();
        let n = p.route.replicas.len();
        let mut best: Option<(usize, f64)> = None;
        for step in 1..n {
            let ix = (p.replica_ix + step) % n;
            let node = p.route.replicas[ix];
            if self.hard_suspect(node) {
                continue;
            }
            let phi = self.live_phi(node, inflight, now);
            // Least suspicion wins; ring order breaks ties.
            if best.is_none_or(|(_, b)| phi < b) {
                best = Some((ix, phi));
            }
        }
        match best {
            Some((ix, _)) => {
                p.replica_ix = ix;
                ctr.failovers += 1;
                true
            }
            None => false,
        }
    }

    fn no_replica_error(&self, id: u64, p: &Pending) -> io::Error {
        io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "request {id} has no live replica left (tried {:?}, suspected: {:?})",
                p.route.replicas,
                self.suspected_dead()
            ),
        )
    }

    /// Marks a node hard-dead and drops its write half so no further
    /// frames go to it.
    pub(crate) fn mark_dead(&mut self, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.hard_dead = true;
        }
        if let Some(slot) = self.writers.get_mut(node as usize) {
            if let Some(w) = slot.take() {
                crate::ioutil::best_effort(
                    "close dead node connection",
                    w.shutdown(Shutdown::Both),
                );
            }
        }
    }

    /// Soft suspicion: the node exhausted a request's retry budget. The
    /// connection stays open — a blackholed node may still be reading —
    /// and any later frame from it clears the verdict.
    fn mark_exhausted(&mut self, node: u32) {
        if let Some(h) = self.health.get_mut(node as usize) {
            h.exhausted = true;
        }
    }

    /// Sends one frame to `node` at once (the write path's single-op
    /// sends), through the node's reused encode buffer.
    pub(crate) fn write_frame(&mut self, node: u32, frame: &Frame) -> io::Result<()> {
        let node = node as usize;
        let (Some(Some(writer)), Some(out)) = (self.writers.get_mut(node), self.out.get_mut(node))
        else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no connection for node {node}"),
            ));
        };
        out.clear();
        frame.encode_into(out);
        writer.write_all(out)
    }

    /// Closes every connection and joins the reader threads.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        for w in self.writers.iter().flatten() {
            crate::ioutil::best_effort("close connection", w.shutdown(Shutdown::Both));
        }
        self.writers.clear();
        for h in self.readers.drain(..) {
            crate::ioutil::join_logged("reader thread", h);
        }
    }
}

impl Drop for NetMaster {
    fn drop(&mut self) {
        self.close();
    }
}

/// Per-run counters.
#[derive(Default)]
struct Counters {
    /// Master time encoding, framing and writing requests, ns. Summed in
    /// nanoseconds and divided once for the report: a sub-microsecond
    /// step truncated per message would read as zero.
    tx_ns: u64,
    /// Master time handling received frames, ns, timed per drained batch.
    rx_ns: u64,
    busy_retries: u64,
    timeout_retries: u64,
    failovers: u64,
    crc_disconnects: u64,
    retry_wait_ns: u64,
    bytes_to_slaves: u64,
    bytes_to_master: u64,
    hedges_sent: u64,
    hedges_won: u64,
}
