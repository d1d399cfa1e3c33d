//! The network master: a connection pool over every slave, the paper's
//! "fire all requests, then drain responses" query loop, and the stage
//! bookkeeping that turns frame timestamps into a
//! [`kvs_cluster::RunResult`].
//!
//! Every read-path decision — replica pick, the per-node credit window
//! and ready lists, the `Busy` back-off, the retry budget and its
//! verdicts, hedging, failover, hard deadlines, first-answer dedupe and
//! the misses — is [`kvs_cluster::dispatch::Dispatcher`]'s, the machine
//! `cluster::sim` runs too (docs/NET.md, "The read dispatcher"). This
//! file is its socket driver: it owns the connections, one reader thread
//! per connection funnelling frames into one channel, the framing, the
//! clocks and what only they can measure — the phi-accrual suspicion
//! ([`crate::phi`]) and the per-node latency quantile the hedge delay
//! comes from ([`kvs_simcore::Histogram`]) — and the stage stamps and
//! folding of every answer.
//!
//! I/O is batched per wake-up: the master takes every frame that is ready,
//! issues the credit they freed into one buffer per node, and writes each
//! buffer once before it blocks again. Frames carry many partitions: every
//! request an issue pass releases for one node goes into one frame (a new
//! one only where the deadline differs), each encoded straight into its
//! node's buffer from the route's key (a retry or a hedge encodes again),
//! and a response frame's answers are folded into the query's totals where
//! they lie, the frame whole or not at all. The clock is read per frame for
//! the stage stamps (`sent`, `received`); `tx`, `rx`, heartbeats and the
//! machine's time are read per batch.
//!
//! In the default strict mode a request the dispatcher gives up on (no
//! live replica, deadline passed, shed by its slave) fails the whole query;
//! in degraded mode ([`QueryMode::Degraded`]) the query completes with
//! [`kvs_cluster::Coverage`]` < 1` and an exact per-partition miss list.

use crate::clock::wall_ns;
use crate::frame::{Deframer, Frame, FrameKind, FLAG_COMPACT};
use crate::phi::PhiAccrual;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use kvs_cluster::dispatch::{Dispatcher, Miss, ReadOptions, Send, View};
use kvs_cluster::{Codec, CodecKind, Coverage, QueryResponse, ReplicaPolicy, RunResult};
use kvs_simcore::{Histogram, SimDuration, SimTime};
use kvs_stages::{analyze, RequestTrace, Span, Stage};
use kvs_store::PartitionKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    /// Request frames written: each carries the requests one issue pass
    /// released for one node with one deadline.
    pub request_frames: u64,
    /// Response frames received: each carries the answers one slave worker
    /// served between two flushes.
    pub response_frames: u64,
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

/// What the master measures per node, for the dispatcher's [`View`]: the
/// phi-accrual detector fed by every frame, and the response latencies the
/// hedge delay is a quantile of. Reset by a reconnect.
#[derive(Default)]
struct NodeHealth {
    phi: PhiAccrual,
    latency: Histogram,
}

/// The per-node measurements as the dispatcher reads them at `now`.
struct Gauge<'a> {
    health: &'a [NodeHealth],
    hedge: Option<HedgeConfig>,
    now: Instant,
}

impl View for Gauge<'_> {
    fn phi(&self, node: u32) -> f64 {
        self.health
            .get(node as usize)
            .map_or(f64::INFINITY, |h| h.phi.phi(self.now))
    }

    /// The configured quantile of the node's online latency histogram,
    /// floored at `min_delay` (which also covers the cold start, before any
    /// sample exists): on a slow machine the quantile inflates and hedges
    /// fire later instead of storming healthy-but-slow replicas.
    fn hedge_delay(&self, node: u32) -> Option<u64> {
        let h = self.hedge?;
        let observed = self
            .health
            .get(node as usize)
            .and_then(|n| n.latency.quantile(h.quantile));
        Some(nanos(observed.unwrap_or(Duration::ZERO).max(h.min_delay)))
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The dispatcher's configuration for a master.
fn read_options(cfg: &NetConfig) -> ReadOptions {
    ReadOptions {
        policy: cfg.replica_policy,
        timeout: Some(nanos(cfg.timeout)),
        max_retries: cfg.max_retries,
        busy_backoff: nanos(cfg.busy_backoff),
        deadline: cfg.query_deadline.map(nanos),
        phi_threshold: cfg.phi_threshold,
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
    health: Vec<NodeHealth>,
    /// The read path's decisions: credit windows and verdicts persist
    /// across queries.
    dispatch: Dispatcher,
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

/// How many requests the issue pass encodes for one node before it writes
/// them and looks at the event channel again — so also the most one
/// request frame carries. A node whose window is not known yet has
/// unlimited credit, and this is what lets its first `Busy` be heard
/// before every route has been sent to it.
const ISSUE_BURST: usize = 64;

/// A request frame the issue pass is still adding requests to.
#[derive(Clone, Copy)]
struct OpenRequest {
    /// Where its header starts in its node's buffer.
    at: usize,
    /// The deadline every request in it carries.
    deadline: u64,
    /// Its send stamp, every request's `sent`.
    sent: u64,
}

/// The driver's side of one running query.
struct Query<'r> {
    routes: &'r [Route],
    arrivals: Option<&'r [u64]>,
    origin: Instant,
    origin_wall: u64,
    /// Per request, the wall stamps of its last own-leg send and of its
    /// hedge: the answer is traced from the frame it answers.
    walls: Vec<[u64; 2]>,
    misses: Vec<u64>,
    /// Per node, whether the batch being drained has marked it alive, the
    /// requests the issue pass has encoded for it and the frame it is
    /// encoding them into.
    heard: Vec<bool>,
    burst: Vec<usize>,
    open: Vec<Option<OpenRequest>>,
    ctr: Counters,
    send_last: Instant,
}

impl Query<'_> {
    /// Request `id`'s release time, ns after the query began.
    fn arrival(&self, id: usize) -> u64 {
        self.arrivals.map_or(0, |a| a[id])
    }

    /// `at` as the dispatcher's time: ns since the query began.
    fn ns(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.origin))
    }

    fn to_sim(&self, wall: u64) -> SimTime {
        SimTime::from_nanos(wall.saturating_sub(self.origin_wall))
    }
}

/// What the responses of one query add up to; apart from [`Query`] so
/// its clocks do not look to KVS-L018 as if they reached the trace analysis.
struct Answers {
    /// Per request id (the route index): the accepted answer's trace,
    /// `None` while unanswered.
    traces: Vec<Option<RequestTrace>>,
    /// Every response folded together: the per-kind counts and cell total.
    total: QueryResponse,
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
            health: (0..addrs.len()).map(|_| NodeHealth::default()).collect(),
            dispatch: Dispatcher::new(addrs.len(), read_options(&cfg)),
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
            *h = NodeHealth::default();
        }
        self.dispatch.revive(node);
        Ok(())
    }

    /// Nodes currently suspected by this master: hard-dead connections,
    /// exhausted retry budgets, or phi-accrual suspicion above the
    /// configured threshold.
    pub fn suspected_dead(&self) -> Vec<u32> {
        self.dispatch.suspects()
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
        }
        self.dispatch.heard(node);
    }

    /// Hard verdicts only: the node cannot currently answer (closed
    /// connection) or demonstrably did not (exhausted budget).
    // LINT-ZONE: nonblocking — readiness-loop verdict, must never stall.
    pub(crate) fn hard_suspect(&self, node: u32) -> bool {
        self.dispatch.hard_suspect(node)
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
    /// and holds the rest un-issued, per node, so one full node never
    /// delays the others.
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
        let nodes = self.writers.len();

        // A query that failed may have left frames behind: every user of
        // the buffers starts from empty ones.
        for out in &mut self.out {
            out.clear();
        }
        self.dispatch.begin(routes.len());
        let mut q = Query {
            routes,
            arrivals: arrivals_ns,
            origin,
            origin_wall,
            walls: vec![[0; 2]; routes.len()],
            misses: Vec::new(),
            heard: vec![false; nodes],
            burst: vec![0; nodes],
            open: vec![None; nodes],
            ctr: Counters::default(),
            send_last: origin,
        };
        let mut answers = Answers {
            traces: vec![None; routes.len()],
            total: QueryResponse::empty(),
        };
        let mut next_issue = 0usize;
        let mut loads = Vec::new();

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
            let released = Instant::now();
            while next_issue < routes.len() {
                let (i, at) = (next_issue, q.arrival(next_issue));
                if arrivals_ns.is_some() && origin.elapsed() < Duration::from_nanos(at) {
                    break;
                }
                next_issue += 1;
                let route = &routes[i];
                assert!(!route.replicas.is_empty(), "route {i} has no replicas");
                // Only the least-loaded policy reads the loads.
                loads.clear();
                if self.cfg.replica_policy == ReplicaPolicy::LeastLoaded {
                    loads.extend(route.replicas.iter().map(|&n| self.dispatch.load(n)));
                }
                let view = Gauge {
                    health: &self.health,
                    hedge: self.cfg.hedge,
                    now: released,
                };
                let rng = &mut self.policy_rng;
                self.dispatch
                    .issue(i as u64, &route.replicas, &loads, at, rng, &view);
            }

            // ---- Issue what has credit; one write per node. ----
            self.take_misses(&mut q)?;
            let more = self.issue_ready(&mut q, flags)?;
            if next_issue == routes.len() && self.dispatch.open() == 0 {
                break;
            }

            // ---- Wait for whichever comes first: a frame, the next
            // arrival to release, or the nearest pending timer — unless
            // the issue pass stopped at its burst limit, in which case
            // only look. Then take everything else that is ready, so the
            // credit it frees is issued in one write per node. ----
            let mut wake = self.dispatch.next_deadline();
            if let (Some(arrivals), true) = (arrivals_ns, next_issue < routes.len()) {
                wake = Some(wake.map_or(arrivals[next_issue], |w| w.min(arrivals[next_issue])));
            }
            // `wake` is `None` only when nothing is pending and nothing
            // is left to release — the loop break above; a plain poll
            // interval keeps even that impossible case live.
            let wait = if more {
                Duration::ZERO
            } else {
                wake.map_or(Duration::ZERO, |at| {
                    (origin + Duration::from_nanos(at)).saturating_duration_since(Instant::now())
                })
                .max(Duration::from_micros(100))
            };
            let mut next = match self.rx.recv_timeout(wait) {
                Ok(event) => Some(event),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    if self.cfg.mode == QueryMode::Degraded {
                        // Every connection is gone: nothing pending can be
                        // answered. Record the losses and finish with what
                        // we have.
                        self.dispatch.abandon();
                        self.take_misses(&mut q)?;
                        q.misses
                            .extend((next_issue..routes.len()).map(|i| i as u64));
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
                        if !std::mem::replace(&mut q.heard[node as usize], true) {
                            self.note_alive(node, drained_from);
                        }
                        self.on_frame(&mut q, &mut answers, node, frame, drained_from);
                    }
                    Event::Down(node, reason) => {
                        if reason == DownReason::Corrupt {
                            self.crc_disconnects += 1;
                            q.ctr.crc_disconnects += 1;
                        }
                        self.mark_dead(node);
                    }
                }
                next = self.rx.try_recv().ok();
            }
            q.heard.fill(false);

            // ---- Timers: hard deadlines, hedges, retries. ----
            let now = Instant::now();
            if drained {
                q.ctr.rx_ns += nanos(now.duration_since(drained_from));
            }
            if self
                .dispatch
                .next_deadline()
                .is_some_and(|at| at <= q.ns(now))
            {
                let view = Gauge {
                    health: &self.health,
                    hedge: self.cfg.hedge,
                    now,
                };
                self.dispatch.poll(q.ns(now), &view);
            }
        }

        let Query {
            mut misses,
            ctr,
            send_last,
            ..
        } = q;
        let Answers {
            traces: by_id,
            total,
        } = answers;
        let reads = self.dispatch.counters();
        misses.sort_unstable();
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
        // Sized up front (at most one a route): a `flatten` tells `collect`
        // nothing of its length.
        let mut traces = Vec::with_capacity(by_id.len());
        traces.extend(by_id.into_iter().flatten());
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
                issue_span: SimDuration::from_nanos(nanos(
                    send_last.saturating_duration_since(origin),
                )),
                failovers: reads.failovers,
                coverage,
                missed: misses,
                hedges_sent: reads.hedges_sent,
                hedges_won: reads.hedges_won,
                queue: None,
            },
            tx_micros: ctr.tx_ns / 1_000,
            rx_micros: ctr.rx_ns / 1_000,
            busy_retries: reads.busy_retries,
            timeout_retries: reads.timeout_retries,
            failovers: reads.failovers,
            suspected_dead: self.suspected_dead(),
            crc_disconnects: ctr.crc_disconnects,
            retry_wait_ms: reads.retry_wait_ns as f64 / 1e6,
            request_frames: ctr.request_frames,
            response_frames: ctr.response_frames,
            hedges_sent: reads.hedges_sent,
            hedges_won: reads.hedges_won,
            missed,
        })
    }

    /// Takes the requests the dispatcher gave up on: a degraded query
    /// lists them, a strict one fails on the first.
    fn take_misses(&mut self, q: &mut Query) -> io::Result<()> {
        while let Some((id, why)) = self.dispatch.next_miss() {
            if self.cfg.mode == QueryMode::Degraded {
                q.misses.push(id);
                continue;
            }
            let message = match why {
                Miss::NoReplica => format!(
                    "request {id} has no live replica left (tried {:?}, suspected: {:?})",
                    q.routes[id as usize].replicas,
                    self.suspected_dead()
                ),
                Miss::Deadline => format!("request {id} missed its deadline"),
                Miss::Expired => format!("request {id} expired at its slave before service"),
            };
            return Err(io::Error::new(io::ErrorKind::TimedOut, message));
        }
        Ok(())
    }

    /// The one place requests are sent from: encodes every request the
    /// dispatcher releases into its node's open frame, then seals the
    /// frames and writes each buffer once. A failed write takes the node
    /// down, and its requests fail over through another pass. Returns
    /// whether the pass stopped at [`ISSUE_BURST`] requests to one node, so
    /// the caller can look at the event channel in between.
    fn issue_ready(&mut self, q: &mut Query, flags: u8) -> io::Result<bool> {
        loop {
            let started = Instant::now();
            q.burst.fill(0);
            let mut more = false;
            let mut sent = false;
            loop {
                let view = Gauge {
                    health: &self.health,
                    hedge: self.cfg.hedge,
                    now: started,
                };
                let Some(send) = self.dispatch.next_send(q.ns(started), &view) else {
                    break;
                };
                sent = true;
                q.ctr.bytes_to_slaves += self.frame_request(q, send, flags);
                q.burst[send.node as usize] += 1;
                if q.burst[send.node as usize] == ISSUE_BURST {
                    more = true;
                    break;
                }
            }
            for node in 0..self.out.len() {
                self.seal(q, node);
            }
            if sent {
                q.send_last = Instant::now();
                q.ctr.tx_ns += nanos(q.send_last.duration_since(started));
            }
            let mut failed = false;
            for node in 0..self.out.len() {
                if self.flush(node, &mut q.ctr).is_err() {
                    // The connection is unusable: its requests fail over.
                    self.mark_dead(node as u32);
                    failed = true;
                }
            }
            self.take_misses(q)?;
            if !failed {
                return Ok(more);
            }
        }
    }

    /// Encodes `send`'s request into its node's open frame for the next
    /// [`NetMaster::flush`] — opening one, stamped with when it was sent,
    /// if the node has none or the one it has carries another deadline —
    /// and returns the request's length.
    fn frame_request(&mut self, q: &mut Query, send: Send, flags: u8) -> u64 {
        let (id, node) = (send.id as usize, send.node as usize);
        let issued_wall = q.origin_wall + q.arrival(id);
        let budget = self.cfg.query_deadline.map(nanos);
        let deadline_wall = budget.map_or(0, |b| issued_wall + b);
        let sent_wall = match q.open[node] {
            Some(open) if open.deadline == deadline_wall => open.sent,
            _ => {
                self.seal(q, node);
                let sent_wall = wall_ns();
                let seq = self.send_seq;
                self.send_seq += 1;
                let at = Frame {
                    kind: FrameKind::Request,
                    flags,
                    id: send.id,
                    stamps: [issued_wall, sent_wall, seq, 0],
                    deadline: deadline_wall,
                    payload: Bytes::new(),
                }
                .begin(&mut self.out[node]);
                q.open[node] = Some(OpenRequest {
                    at,
                    deadline: deadline_wall,
                    sent: sent_wall,
                });
                sent_wall
            }
        };
        q.walls[id][send.hedge as usize] = sent_wall;
        let out = &mut self.out[node];
        let before = out.len();
        self.cfg
            .codec
            .append_request(out, send.id, &q.routes[id].key);
        (out.len() - before) as u64
    }

    /// Closes `node`'s open request frame, if it has one.
    fn seal(&mut self, q: &mut Query, node: usize) {
        if let Some(open) = q.open[node].take() {
            Frame::seal(&mut self.out[node], open.at);
            q.ctr.request_frames += 1;
        }
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
        ctr.tx_ns += nanos(t0.elapsed());
        res
    }

    /// One received frame, read in the batch drained from `now`.
    fn on_frame(
        &mut self,
        q: &mut Query,
        answers: &mut Answers,
        node: u32,
        frame: Frame,
        now: Instant,
    ) {
        match frame.kind {
            FrameKind::Response => {
                q.ctr.response_frames += 1;
                let codec = self.cfg.codec;
                let done_wall = wall_ns();
                // A frame that does not parse to its end answers nothing
                // (the retry path covers its requests); in one that does,
                // a duplicate (a retry or a lost hedge raced the winner)
                // or a stray answer is dropped alone.
                frame.answers(&codec, |answer| {
                    if !self.dispatch.accepts(answer.id, node) {
                        return;
                    }
                    let Some(cells) = codec.fold_response(answer.body, &mut answers.total) else {
                        return;
                    };
                    let Some(done) = self.dispatch.answer(answer.id, node) else {
                        return;
                    };
                    q.ctr.bytes_to_master += answer.body.len() as u64;
                    let id = answer.id as usize;
                    let sent = q.walls[id][done.hedge as usize];
                    if let Some(h) = self.health.get_mut(node as usize) {
                        h.latency
                            .record(Duration::from_nanos(done_wall.saturating_sub(sent)));
                    }
                    let [echo, dequeued, db_end] = answer.stamps;
                    let mut spans = [None; 4];
                    for (stage, from, to) in [
                        (Stage::MasterToSlave, q.origin_wall + q.arrival(id), sent),
                        (Stage::InQueue, echo, dequeued),
                        (Stage::InDb, dequeued, db_end),
                        (Stage::SlaveToMaster, db_end, done_wall),
                    ] {
                        let (start, end) = (q.to_sim(from), q.to_sim(to));
                        debug_assert!(end >= start, "span ends before it starts");
                        spans[stage.index()] = Some(Span { start, end });
                    }
                    answers.traces[id] = Some(RequestTrace {
                        request_id: answer.id,
                        node,
                        cells,
                        spans,
                    });
                });
            }
            // The refusal names the capacity of the queue that made it
            // (`stamps[2]`); what a `Busy` does to the window and the
            // request — it re-arms the allowance, never spends the retry
            // budget — is the dispatcher's (`Dispatcher::busy`, pinned by
            // tests/busy_budget.rs).
            FrameKind::Busy => {
                let window = usize::try_from(frame.stamps[2]).unwrap_or(usize::MAX);
                self.dispatch.busy(frame.id, node, window, q.ns(now));
            }
            // The slave shed this request: its deadline passed before the
            // DB stage, and will not un-pass.
            FrameKind::Expired => self.dispatch.expired(frame.id),
            // Protocol violations (a slave never sends these) and
            // write-path acks owned by `run_mixed`: ignore.
            FrameKind::Request | FrameKind::Write | FrameKind::WriteAck | FrameKind::Rmw => {}
        }
    }

    /// Marks a node hard-dead — the dispatcher fails over what was on it —
    /// and drops its write half so no further frames go to it.
    pub(crate) fn mark_dead(&mut self, node: u32) {
        let view = Gauge {
            health: &self.health,
            hedge: self.cfg.hedge,
            now: Instant::now(),
        };
        self.dispatch.down(node, &view);
        if let Some(out) = self.out.get_mut(node as usize) {
            out.clear();
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

/// Per-run counters the driver keeps; the read counters are the
/// dispatcher's.
#[derive(Default)]
struct Counters {
    /// Master time encoding, framing and writing requests, ns. Summed in
    /// nanoseconds and divided once for the report: a sub-microsecond
    /// step truncated per message would read as zero.
    tx_ns: u64,
    /// Master time handling received frames, ns, timed per drained batch.
    rx_ns: u64,
    crc_disconnects: u64,
    bytes_to_slaves: u64,
    bytes_to_master: u64,
    request_frames: u64,
    response_frames: u64,
}
