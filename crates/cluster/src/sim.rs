//! The simulated master/slave distributed query (paper §V).
//!
//! One [`run_query`] call replays the paper's prototype on the virtual
//! cluster: the master — which "knows from the beginning which are all the
//! requests it has to issue" — serializes and dispatches one request per
//! partition key through a single-threaded send loop, each slave queues
//! requests into its database executor, and responses flow back through the
//! master's receive loop. Every request is traced through the four
//! methodology stages.
//!
//! Timing sources:
//! * master CPU per message — the codec model (150 µs verbose / 19 µs
//!   compact, §V-B), plus the replica-policy overhead;
//! * network — latency + bytes/bandwidth over the *actual encoded bytes*
//!   of each message;
//! * database — [`kvs_store::CostModel`] applied to the *actual read
//!   receipt* of the partition, inflated by the USL interference model at
//!   the node's current concurrency, plus the GC model, with log-normal
//!   noise and a heavy-tail mixture.
//!
//! ## Events and the four stages
//!
//! The reads run first and once; the replay then plays out only *time*, as
//! one [`EventQueue`] of `Event`s over indices: `r` into the requests,
//! `a` into their attempts (every frame a request sends: its own leg, a
//! hedge, a failover). Each master shard's send and receive loops and each
//! node's database executor are [`Station`]s holding those indices. Every
//! read-path decision is the socket master's own: the replay drives
//! [`crate::dispatch::Dispatcher`] in its paper-mode configuration. The
//! events are the stage boundaries:
//!
//! | event | boundary |
//! |---|---|
//! | `Issue(r)` | master-to-slaves begins (t = 0 in the batch query) |
//! | `Sent(r)` | the send loop has serialised `r`; the dispatcher issues it |
//! | `AtNode(a)` | master-to-slaves ends and in-queue begins (a dead node drops it) |
//! | a database server takes `a` | in-queue ends and in-db begins |
//! | `Served(a)` | in-db ends and slaves-to-master begins |
//! | `AtMaster(a)` | the response queues for the receive loop |
//! | `Received(a)` | slaves-to-master ends; the first answer settles `r` |
//! | `Timer` | the dispatcher's nearest deadline: hedges fire |
//! | `Down(n)` | `failure_timeout` after `n` died: its requests fail over |
//!
//! ## The replicated write path
//!
//! [`run_replicated`] runs the socket world's write coordinator itself
//! ([`crate::coord::Coordinator`]) on a calendar of its own: operation
//! issues, a frame reaching its replica after half a resampled leg (which
//! applies the version, or reads it, from that replica's LWW map), the
//! reply after the other half, and fault-window closes that replay hints.

use crate::config::ClusterConfig;
use crate::coord::{
    Consistency, Coordinator, Input, MixedOutcome, Op, OpKind, Send, Status, WriteOptions,
};
use crate::data::ClusterData;
use crate::dispatch::{Dispatcher, ReadOptions, View};
use crate::policy::ReplicaPolicy;
use crate::result::{Coverage, RunResult};
use crate::usl::{self, UslParams};
use kvs_simcore::{Dist, EventQueue, RngHub, SimDuration, SimTime, Station};
use kvs_stages::{analyze, RequestTrace, Span};
use kvs_store::{nonzero_counts, PartitionKey, Tally};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::ops::Range;

/// One sub-query resolved against the store, before timing begins.
struct Sub<'a> {
    replicas: &'a [u32],
    cells: u64,
    /// Un-inflated mean database service (receipt → ms).
    base_service_ms: f64,
    /// The interference model for a partition of this size.
    usl: UslParams,
    req_bytes: usize,
    resp_bytes: usize,
    /// Where this sub-query's `(kind, count)` answer lies in [`Prepared::kinds`].
    kinds: Range<usize>,
}

/// Every key's sub-query, plus their answers back to back.
struct Prepared<'a> {
    subs: Vec<Sub<'a>>,
    kinds: Vec<(u8, u64)>,
}

/// Phase 1: reads each key's partition on its primary replica with the
/// store's one aggregation read, into a per-kind tally, and sizes the
/// request and response the codec would put on the wire for it.
fn prepare<'a>(
    cfg: &ClusterConfig,
    data: &'a mut ClusterData,
    keys: &[PartitionKey],
) -> Prepared<'a> {
    assert_eq!(
        cfg.nodes,
        data.nodes(),
        "config/data disagree on cluster size"
    );
    let codec = cfg.master.codec;
    let (placement, tables) = data.placement_and_tables();
    let mut prepared = Prepared {
        subs: Vec::with_capacity(keys.len()),
        kinds: Vec::new(),
    };
    // Every directory look-up first: they do not depend on one another,
    // so the cache misses of a key's bytes and its map entry overlap
    // where, one before each read, each would wait alone.
    let placed: Vec<&[u32]> = keys.iter().map(|pk| placement.replicas_of(pk)).collect();
    let (mut tally, mut wire) = (Tally::default(), Vec::new());
    for (i, (pk, replicas)) in keys.iter().zip(placed).enumerate() {
        assert!(!replicas.is_empty(), "query for unplaced partition {pk:?}");
        let receipt = tables[replicas[0] as usize].aggregate(pk, &mut tally);
        wire.clear();
        codec.append_request(&mut wire, i as u64, pk);
        let req_bytes = wire.len();
        let start = prepared.kinds.len();
        prepared.kinds.extend(nonzero_counts(&tally.kinds));
        let counts = &prepared.kinds[start..];
        let cells = counts.iter().map(|&(_, c)| c).sum();
        // The body `append_response` would write, from the counts at hand.
        wire.clear();
        let answer = counts.iter().copied();
        codec.write_response(&mut wire, i as u64, cells, 0, counts.len(), answer);
        prepared.subs.push(Sub {
            replicas,
            cells,
            base_service_ms: cfg.db.cost.service_ms(&receipt),
            usl: usl::params_for_cells(cells),
            req_bytes,
            resp_bytes: wire.len(),
            kinds: start..prepared.kinds.len(),
        });
    }
    prepared
}

/// True when `node` has failed by instant `at` under the injected failure
/// plan: a frame reaching it from then on is dropped.
fn node_is_dead(cfg: &ClusterConfig, node: u32, at: SimTime) -> bool {
    cfg.failures
        .iter()
        .any(|f| f.node == node && at >= SimTime::ZERO + f.at)
}

/// Samples a noisy service time using the cost model's variance
/// parameters. `mean_ms` is the contention-inflated expectation; on the
/// rare slow path (cache miss / bloom false positive) the request pays an
/// *additive* penalty of `(tail_multiplier − 1) ×` the uninflated
/// single-request cost `base_ms` — re-reading the row from disk costs the
/// row's own time again, not a multiple of the time it spent contending.
fn sample_service_ms(cfg: &ClusterConfig, base_ms: f64, mean_ms: f64, rng: &mut StdRng) -> f64 {
    let cost = &cfg.db.cost;
    let tail = cost.tail_probability > 0.0 && rng.gen_bool(cost.tail_probability.clamp(0.0, 1.0));
    let mean_ms = if tail {
        mean_ms + base_ms * (cost.tail_multiplier - 1.0).max(0.0)
    } else {
        mean_ms
    };
    Dist::lognormal(mean_ms, cost.service_cv).sample(rng)
}

/// A stage boundary in a request's life; see the module docs.
#[derive(Debug, Clone, Copy)]
enum Event {
    Issue(usize),
    Sent(usize),
    /// The dispatcher's nearest deadline.
    Timer,
    /// The master learns that a node died.
    Down(u32),
    AtNode(usize),
    Served(usize),
    AtMaster(usize),
    Received(usize),
}

/// A request of the replay: which sub-query it asks, and its master side.
struct Request {
    sub: usize,
    /// Send-loop CPU for this request.
    tx: SimDuration,
    /// The master shard that issues it and receives its answer.
    shard: usize,
    issued: SimTime,
}

/// One frame of a request to one replica.
struct Attempt {
    r: usize,
    node: u32,
    arrived: SimTime,
    started: SimTime,
    served: SimTime,
}

/// The simulated master's [`View`]: no phi detector, and the configured
/// hedge delay for every node.
struct PaperView(Option<u64>);

impl View for PaperView {
    fn phi(&self, _: u32) -> f64 {
        0.0
    }

    fn hedge_delay(&self, _: u32) -> Option<u64> {
        self.0
    }
}

/// The dispatcher's paper-mode configuration: no credit window (the
/// simulated slaves never refuse), no deadline and no request timeout. The
/// master learns of a node's death `failure_timeout` after it, as the
/// socket master learns of a dropped connection (`Event::Down`); a
/// per-request timeout that short would also give up on live replicas
/// whose queues run longer.
fn paper_mode(cfg: &ClusterConfig) -> ReadOptions {
    ReadOptions {
        policy: cfg.replica_policy,
        timeout: None,
        max_retries: 0,
        busy_backoff: 0,
        deadline: None,
        phi_threshold: f64::INFINITY,
    }
}

/// Phase 2: the discrete-event replay of a set of requests.
struct Replay<'q> {
    cfg: &'q ClusterConfig,
    subs: &'q [Sub<'q>],
    calendar: EventQueue<Event>,
    rng: StdRng,
    rx_time: SimDuration,
    /// Per master shard: the send loop and the receive loop.
    tx: Vec<Station<usize>>,
    rx: Vec<Station<usize>>,
    /// Per node: the database executor, holding attempts and their service.
    dbs: Vec<Station<(usize, SimDuration)>>,
    requests: Vec<Request>,
    attempts: Vec<Attempt>,
    dispatch: Dispatcher,
    view: PaperView,
    /// The earliest `Timer` event pending.
    timer: Option<SimTime>,
    /// Per request: the winning attempt's trace, `None` if unanswered.
    traces: Vec<Option<RequestTrace>>,
    /// Requests in the order they were answered.
    answered: Vec<usize>,
    missed: usize,
    /// Replica loads handed to the policy, reused.
    loads: Vec<usize>,
    bytes_to_slaves: u64,
    send_first: Option<SimTime>,
    send_last: SimTime,
}

impl<'q> Replay<'q> {
    fn new(
        cfg: &'q ClusterConfig,
        subs: &'q [Sub<'q>],
        requests: Vec<Request>,
        rng: StdRng,
    ) -> Self {
        let shards = cfg.master_shards.max(1);
        let mut dispatch = Dispatcher::new(cfg.nodes as usize, paper_mode(cfg));
        dispatch.begin(requests.len());
        Replay {
            cfg,
            subs,
            calendar: EventQueue::new(),
            rng,
            rx_time: cfg.master_rx_time(),
            tx: (0..shards).map(|_| Station::new(1)).collect(),
            rx: (0..shards).map(|_| Station::new(1)).collect(),
            dbs: (0..cfg.nodes)
                .map(|_| Station::new(cfg.db.parallelism))
                .collect(),
            attempts: Vec::with_capacity(requests.len()),
            dispatch,
            view: PaperView(cfg.hedge.map(SimDuration::as_nanos)),
            timer: None,
            traces: (0..requests.len()).map(|_| None).collect(),
            answered: Vec::with_capacity(requests.len()),
            requests,
            missed: 0,
            loads: Vec::new(),
            bytes_to_slaves: 0,
            send_first: None,
            send_last: SimTime::ZERO,
        }
    }

    /// Fires every event. A station that finishes a job hands its server
    /// to the next waiting one before the finished job moves on, which
    /// fixes the order of events scheduled for the same instant.
    fn run(&mut self) {
        while let Some(event) = self.calendar.pop() {
            match event {
                Event::Issue(r) => self.issue(r),
                Event::Sent(r) => {
                    if let Some(next) = self.tx[self.requests[r].shard].finish() {
                        self.calendar
                            .schedule_in(self.requests[next].tx, Event::Sent(next));
                    }
                    self.sent(r);
                }
                Event::Timer => {
                    let now = self.calendar.now();
                    if self.timer == Some(now) {
                        self.timer = None;
                    }
                    self.dispatch.poll(now.as_nanos(), &self.view);
                    self.pump();
                }
                Event::Down(node) => {
                    self.dispatch.down(node, &self.view);
                    self.pump();
                }
                Event::AtNode(a) => self.at_node(a),
                Event::Served(a) => self.served(a),
                Event::AtMaster(a) => {
                    let shard = self.requests[self.attempts[a].r].shard;
                    if let Some(a) = self.rx[shard].arrive(a) {
                        self.calendar.schedule_in(self.rx_time, Event::Received(a));
                    }
                }
                Event::Received(a) => self.received(a),
            }
        }
    }

    /// Request `r` enters its shard's send loop. The paper's
    /// master-to-slaves stage runs from here to slave receipt.
    fn issue(&mut self, r: usize) {
        let request = &mut self.requests[r];
        request.issued = self.calendar.now();
        if let Some(r) = self.tx[request.shard].arrive(r) {
            self.calendar.schedule_in(request.tx, Event::Sent(r));
        }
    }

    /// The send loop has serialised `r`: the dispatcher picks its replica
    /// with live load info.
    fn sent(&mut self, r: usize) {
        let now = self.calendar.now();
        let sub = &self.subs[self.requests[r].sub];
        self.send_first.get_or_insert(now - self.requests[r].tx);
        self.send_last = self.send_last.max(now);
        let dbs = &self.dbs;
        self.loads.clear();
        self.loads.extend(sub.replicas.iter().map(|&n| {
            let db = &dbs[n as usize];
            db.busy() + db.queue_len()
        }));
        let (now, rng) = (now.as_nanos(), &mut self.rng);
        self.dispatch
            .issue(r as u64, sub.replicas, &self.loads, now, rng, &self.view);
        self.pump();
    }

    /// Carries out what the dispatcher decided: its sends, each reaching
    /// its replica after one transit (a hedge bypasses the send loop, as
    /// the real master's is sent from its collect loop), its misses, and a
    /// timer at its nearest deadline.
    fn pump(&mut self) {
        let now = self.calendar.now();
        while let Some(send) = self.dispatch.next_send(now.as_nanos(), &self.view) {
            let r = send.id as usize;
            let bytes = self.subs[self.requests[r].sub].req_bytes;
            self.bytes_to_slaves += bytes as u64;
            self.attempts.push(Attempt {
                r,
                node: send.node,
                arrived: SimTime::ZERO,
                started: SimTime::ZERO,
                served: SimTime::ZERO,
            });
            let a = self.attempts.len() - 1;
            self.calendar
                .schedule_in(self.cfg.network.transit(bytes), Event::AtNode(a));
        }
        while let Some((r, _)) = self.dispatch.next_miss() {
            // Out of replicas: a recorded miss in degraded mode, an
            // experiment-harness failure otherwise.
            assert!(
                self.cfg.degraded,
                "every replica of request {r} is dead — unservable query"
            );
            self.missed += 1;
        }
        if let Some(at) = self.dispatch.next_deadline().map(SimTime::from_nanos) {
            if self.timer.is_none_or(|t| at < t) {
                self.timer = Some(at.max(now));
                self.calendar.schedule_at(at.max(now), Event::Timer);
            }
        }
    }

    /// A frame reaches its replica. A dead node drops it, and one whose
    /// request was answered meanwhile never reaches the database.
    fn at_node(&mut self, a: usize) {
        let (cfg, subs, now) = (self.cfg, self.subs, self.calendar.now());
        let (r, node) = (self.attempts[a].r, self.attempts[a].node);
        if node_is_dead(cfg, node, now) || !self.dispatch.accepts(r as u64, node) {
            return;
        }
        let sub = &subs[self.requests[r].sub];
        let db = &self.dbs[node as usize];
        let k = (db.busy() + db.queue_len() + 1).min(cfg.db.parallelism);
        let mean_ms = sub.base_service_ms * sub.usl.inflation(k) + cfg.gc.db_extra_ms(sub.cells);
        let service = sample_service_ms(cfg, sub.base_service_ms, mean_ms, &mut self.rng);
        self.attempts[a].arrived = now;
        if let Some(job) =
            self.dbs[node as usize].arrive((a, SimDuration::from_millis_f64(service)))
        {
            self.start_db(job);
        }
    }

    fn start_db(&mut self, (a, service): (usize, SimDuration)) {
        self.attempts[a].started = self.calendar.now();
        self.calendar.schedule_in(service, Event::Served(a));
    }

    fn served(&mut self, a: usize) {
        let (cfg, subs, now) = (self.cfg, self.subs, self.calendar.now());
        let node = self.attempts[a].node;
        if let Some(next) = self.dbs[node as usize].finish() {
            self.start_db(next);
        }
        self.attempts[a].served = now;
        let sub = &subs[self.requests[self.attempts[a].r].sub];
        let mut back = cfg.network.transit(sub.resp_bytes);
        for straggle in cfg.stragglers.iter().filter(|s| s.node == node) {
            if self.rng.gen_bool(straggle.probability.clamp(0.0, 1.0)) {
                back += straggle.extra;
            }
        }
        self.calendar.schedule_in(back, Event::AtMaster(a));
    }

    /// The dispatcher settles a request on its first answer, which alone
    /// records its trace; a later one is dropped, as over sockets.
    fn received(&mut self, a: usize) {
        let now = self.calendar.now();
        let attempt = &self.attempts[a];
        let request = &self.requests[attempt.r];
        if let Some(next) = self.rx[request.shard].finish() {
            self.calendar
                .schedule_in(self.rx_time, Event::Received(next));
        }
        if self
            .dispatch
            .answer(attempt.r as u64, attempt.node)
            .is_none()
        {
            return;
        }
        let span = |start, end| Some(Span { start, end });
        self.traces[attempt.r] = Some(RequestTrace {
            request_id: attempt.r as u64,
            node: attempt.node,
            cells: self.subs[request.sub].cells,
            spans: [
                span(request.issued, attempt.arrived),
                span(attempt.arrived, attempt.started),
                span(attempt.started, attempt.served),
                span(attempt.served, now),
            ],
        });
        self.answered.push(attempt.r);
    }
}

/// Runs one distributed aggregation over `keys` and returns the full
/// result. Deterministic for a given `(config, data, keys)` triple.
///
/// ```
/// use kvs_cluster::data::uniform_partitions;
/// use kvs_cluster::{run_query, ClusterConfig, ClusterData};
/// use kvs_store::TableOptions;
///
/// let parts = uniform_partitions(20, 10, 4); // 20 partitions × 10 cells
/// let keys: Vec<_> = parts.iter().map(|(pk, _)| pk.clone()).collect();
/// let mut data = ClusterData::load(4, 1, TableOptions::default(), parts);
/// let cfg = ClusterConfig::paper_optimized_master(4);
/// let result = run_query(&cfg, &mut data, &keys);
/// assert_eq!(result.total_cells, 200);
/// assert_eq!(result.traces.len(), 20);
/// ```
///
/// # Panics
/// If any key was never loaded into `data`, or `config.nodes` disagrees
/// with `data` — both are experiment-harness bugs worth failing loudly on.
pub fn run_query(
    config: &ClusterConfig,
    data: &mut ClusterData,
    keys: &[PartitionKey],
) -> RunResult {
    run_query_inner(config, data, keys, None)
}

/// Like [`run_query`], but request `i` enters the master's send loop only
/// once `arrivals[i]` has elapsed from query start (open-loop pacing), and
/// its master-to-slaves stage is measured from that arrival instead of
/// t=0. `drill chaos` and `drill workloads` use this to replay a
/// measured run's arrival process through the model.
///
/// # Panics
/// Same contracts as [`run_query`], plus one arrival offset per key.
pub fn run_query_paced(
    config: &ClusterConfig,
    data: &mut ClusterData,
    keys: &[PartitionKey],
    arrivals: &[SimDuration],
) -> RunResult {
    assert_eq!(arrivals.len(), keys.len(), "one arrival offset per key");
    run_query_inner(config, data, keys, Some(arrivals))
}

fn run_query_inner(
    cfg: &ClusterConfig,
    data: &mut ClusterData,
    keys: &[PartitionKey],
    arrivals: Option<&[SimDuration]>,
) -> RunResult {
    let prepared = prepare(cfg, data, keys);
    let shards = cfg.master_shards.max(1) as u64;
    let overhead = SimDuration::from_micros_f64(cfg.replica_policy.master_overhead_us());
    let requests = (0..keys.len())
        .map(|r| {
            // Master send CPU: serialization + policy overhead (+ a GC
            // pause every N messages).
            let mut tx = cfg.master_tx_time() + overhead;
            if cfg.gc.enabled && (r as u64 + 1).is_multiple_of(cfg.gc.master_msgs_per_pause) {
                tx += cfg.gc.master_pause;
            }
            // Key space sharded over the coordinating masters: each
            // request is issued by (and returns to) its key's home shard.
            let shard = kvs_balance::hashing::hash_key(&(r as u64).to_le_bytes()) % shards;
            Request {
                sub: r,
                tx,
                shard: shard as usize,
                issued: SimTime::ZERO,
            }
        })
        .collect();
    let rng = RngHub::new(cfg.seed).stream("service-noise");
    let mut replay = Replay::new(cfg, &prepared.subs, requests, rng);
    for f in &cfg.failures {
        let at = SimTime::ZERO + f.at + cfg.failure_timeout;
        replay.calendar.schedule_at(at, Event::Down(f.node));
    }
    for r in 0..keys.len() {
        match arrivals {
            Some(at) => {
                replay
                    .calendar
                    .schedule_at(SimTime::ZERO + at[r], Event::Issue(r));
            }
            None => replay.issue(r),
        }
    }
    replay.run();

    assert_eq!(
        replay.answered.len() + replay.missed,
        keys.len(),
        "requests never completed"
    );
    let (mut counts, mut total_cells) = ([0u64; 256], 0);
    for &r in &replay.answered {
        let sub = &prepared.subs[r];
        for &(kind, count) in &prepared.kinds[sub.kinds.clone()] {
            counts[kind as usize] += count;
        }
        total_cells += sub.cells;
    }
    let missed: Vec<u64> = (0..keys.len() as u64)
        .filter(|&r| replay.traces[r as usize].is_none())
        .collect();
    // Sized up front: a `flatten` tells `collect` nothing of its length.
    let mut traces = Vec::with_capacity(replay.answered.len());
    traces.extend(replay.traces.into_iter().flatten());
    let report = analyze(&traces);
    let ctr = replay.dispatch.counters();
    RunResult {
        makespan: report.makespan,
        report,
        traces,
        counts_by_kind: (0..=u8::MAX).zip(counts).filter(|&(_, c)| c > 0).collect(),
        total_cells,
        messages: keys.len() as u64,
        bytes_to_slaves: replay.bytes_to_slaves,
        bytes_to_master: prepared.subs.iter().map(|s| s.resp_bytes as u64).sum(),
        issue_span: match replay.send_first {
            Some(first) => replay.send_last - first,
            None => SimDuration::ZERO,
        },
        failovers: ctr.failovers,
        coverage: Coverage {
            answered: keys.len() as u64 - missed.len() as u64,
            total: keys.len() as u64,
        },
        missed,
        hedges_sent: ctr.hedges_sent,
        hedges_won: ctr.hedges_won,
        queue: None,
    }
}

/// One observation of the single-node database microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbSample {
    /// Row size in cells.
    pub cells: u64,
    /// Observed response time, ms.
    pub ms: f64,
}

/// Result of a closed-loop database microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchResult {
    /// Per-request observations.
    pub samples: Vec<DbSample>,
    /// Total wall time of the closed loop, ms.
    pub total_ms: f64,
    /// The client parallelism used.
    pub parallelism: usize,
}

/// Replays the paper's database calibration experiments (Figures 6 and 7):
/// a closed loop of `parallelism` clients reads `keys` from the data's
/// primary replicas, measuring each response and the total wall time.
///
/// `label` isolates this run's noise stream so sweeps over parallelism see
/// independent noise.
pub fn db_microbench(
    config: &ClusterConfig,
    data: &mut ClusterData,
    keys: &[PartitionKey],
    parallelism: usize,
    label: &str,
) -> MicrobenchResult {
    assert!(parallelism > 0, "parallelism must be positive");
    let hub = RngHub::new(config.seed);
    let mut rng = hub.stream(&format!("microbench-{label}-{parallelism}"));
    let mut samples = Vec::with_capacity(keys.len());
    // Greedy closed-loop schedule: next request goes to the earliest-free
    // worker.
    let mut worker_free_at = vec![0.0f64; parallelism];
    for pk in keys {
        let node = data
            .primary_of(pk)
            .unwrap_or_else(|| panic!("unplaced partition {pk:?}"));
        let (response, receipt) = data.aggregate(node, 0, pk);
        let cells = response.cells;
        let k = parallelism.min(keys.len());
        let inflation = usl::params_for_cells(cells).inflation(k);
        let base_ms = config.db.cost.service_ms(&receipt);
        let mean_ms = base_ms * inflation + config.gc.db_extra_ms(cells);
        let ms = sample_service_ms(config, base_ms, mean_ms, &mut rng);
        samples.push(DbSample { cells, ms });
        let (slot, free_at) =
            worker_free_at
                .iter()
                .copied()
                .enumerate()
                .fold(
                    (0, f64::INFINITY),
                    |acc, (i, t)| {
                        if t < acc.1 {
                            (i, t)
                        } else {
                            acc
                        }
                    },
                );
        worker_free_at[slot] = free_at + ms;
    }
    let total_ms = worker_free_at.iter().copied().fold(0.0f64, f64::max);
    MicrobenchResult {
        samples,
        total_ms,
        parallelism,
    }
}

/// Result of an open-loop (arrival-driven) run — the "real-time analytics"
/// serving mode of the paper's introduction, as opposed to the batch
/// "master knows all keys" mode of [`run_query`].
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// The offered Poisson arrival rate, requests/second.
    pub offered_rps: f64,
    /// Requests completed within the run.
    pub completed: usize,
    /// Achieved throughput over the measured horizon, requests/second.
    pub achieved_rps: f64,
    /// End-to-end latency summary (ms), `None` when nothing completed.
    pub latency_ms: Option<kvs_simcore::Summary>,
}

/// Drives the cluster with Poisson arrivals at `offered_rps` for
/// `duration`, each request reading one uniformly drawn key from `keys`.
/// All in-flight requests are allowed to drain, but only those *arriving*
/// inside the horizon are issued.
///
/// It is the paced query without the batch master's extras: one master,
/// the primary replica, a send cost of serialization alone, no faults.
///
/// # Panics
/// Same contracts as [`run_query`], plus `offered_rps > 0` and a non-empty
/// key pool.
pub fn run_open_loop(
    config: &ClusterConfig,
    data: &mut ClusterData,
    keys: &[PartitionKey],
    offered_rps: f64,
    duration: SimDuration,
    label: &str,
) -> OpenLoopResult {
    assert!(offered_rps > 0.0, "need a positive arrival rate");
    assert!(!keys.is_empty(), "need a key pool");
    let prepared = prepare(config, data, keys);

    // Poisson arrivals over the horizon.
    let hub = RngHub::new(config.seed);
    let mut arrivals_rng = hub.stream(&format!("open-loop-arrivals-{label}"));
    let mut pick_rng = hub.stream(&format!("open-loop-keys-{label}"));
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    let horizon_s = duration.as_secs_f64();
    loop {
        t += Dist::Exponential {
            mean: 1.0 / offered_rps,
        }
        .sample(&mut arrivals_rng);
        if t >= horizon_s {
            break;
        }
        arrivals.push((t, pick_rng.gen_range(0..keys.len())));
    }

    let cfg = ClusterConfig {
        replica_policy: ReplicaPolicy::Primary,
        master_shards: 1,
        failures: Vec::new(),
        stragglers: Vec::new(),
        hedge: None,
        degraded: false,
        ..config.clone()
    };
    let requests = arrivals
        .iter()
        .map(|&(_, sub)| Request {
            sub,
            tx: cfg.master_tx_time(),
            shard: 0,
            issued: SimTime::ZERO,
        })
        .collect();
    let rng = hub.stream(&format!("open-loop-noise-{label}"));
    let mut replay = Replay::new(&cfg, &prepared.subs, requests, rng);
    for (r, &(arrive_s, _)) in arrivals.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(arrive_s);
        replay.calendar.schedule_at(at, Event::Issue(r));
    }
    replay.run();

    let latencies: Vec<f64> = replay
        .answered
        .iter()
        .filter_map(|&r| replay.traces[r].as_ref())
        .map(|trace| trace.total().as_millis_f64())
        .collect();
    assert_eq!(latencies.len(), arrivals.len(), "requests lost in flight");
    let end_s = replay.calendar.now().as_secs_f64();
    OpenLoopResult {
        offered_rps,
        completed: latencies.len(),
        achieved_rps: if end_s > 0.0 {
            latencies.len() as f64 / end_s
        } else {
            0.0
        },
        latency_ms: kvs_simcore::Summary::from_samples(&latencies),
    }
}

/// A replica that is dark for a window of simulated time: a leg issued
/// inside the window hints it instead of sending to it, and its hints
/// replay when the window closes.
#[derive(Debug, Clone)]
pub struct FaultWindow {
    /// The dark node.
    pub node: usize,
    /// Window start, inclusive (ms).
    pub from_ms: f64,
    /// Window end, exclusive (ms); hints replay at this instant.
    pub until_ms: f64,
}

/// Random per-leg extra delay, the sim twin of a chaos `delay` rule.
#[derive(Debug, Clone, Copy)]
pub struct DelayFault {
    /// Probability a leg is delayed.
    pub probability: f64,
    /// The extra latency a delayed leg pays (ms).
    pub extra_ms: f64,
}

/// Configuration for one simulated run of the replicated write path.
#[derive(Debug, Clone)]
pub struct ReplicationSimConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Replication factor (each partition lives on `rf` nodes).
    pub rf: usize,
    /// Seed for every random draw in the run.
    pub seed: u64,
    /// Empirical one-leg round-trip samples (ms), resampled per leg.
    pub leg_latency_ms: Vec<f64>,
    /// Optional random delay fault applied to every leg.
    pub delay: Option<DelayFault>,
    /// Dark-replica windows (hinted handoff exercises).
    pub down: Vec<FaultWindow>,
    /// Bound on each node's hint queue; overflow drops the hint (and the
    /// dropped write can be lost on that replica — the metric shows it).
    pub hint_queue_cap: usize,
}

/// One operation of a simulated schedule.
#[derive(Debug, Clone)]
pub struct SimOp {
    /// Arrival time (ms).
    pub at_ms: f64,
    /// Partition id; replicas are `(id % nodes) + k` for `k < rf`.
    pub partition: u64,
    /// Read, write or read-modify-write.
    pub kind: OpKind,
    /// The consistency level this operation runs at.
    pub consistency: Consistency,
}

/// What a simulated run came to: the coordinator's outcome, plus what
/// only the simulator can see.
#[derive(Debug, Clone, Default)]
pub struct ReplicationOutcome {
    /// The coordinator's counters and latency samples.
    pub mixed: MixedOutcome,
    /// Hints replayed when their replica's window closed.
    pub hints_replayed: u64,
    /// Acked writes that no replica holds once every window has closed —
    /// the invariant hinted handoff exists to keep at zero.
    pub lost_acked_writes: u64,
}

/// What happens next in a simulated write-path run.
enum Hop {
    /// The next operation is issued.
    Issue,
    /// Frame `id` reaches `node`, which applies the write of a version
    /// to `key` or, given none, reads its own; the reply takes the last
    /// field to return.
    AtReplica(u32, u64, PartitionKey, Option<u64>, SimDuration),
    /// A reply reaches the coordinator.
    Reply(Input),
    /// Fault window `w` closes, and its node's hints replay.
    Close(usize),
}

/// Runs `ops` (sorted by `at_ms`) through the write coordinator
/// ([`Coordinator`]) over simulated legs, one operation at a time as the
/// socket coordinator issues them: an operation starts at its arrival or
/// when the one before it closes, whichever is later. Each frame reaches
/// its replica after half of a leg resampled from
/// [`ReplicationSimConfig::leg_latency_ms`] (plus the delay fault, when
/// its coin lands), and the reply returns after the other half. A write's
/// LWW clock is simulated time.
pub fn run_replicated(cfg: &ReplicationSimConfig, ops: &[SimOp]) -> ReplicationOutcome {
    let nodes = cfg.nodes.max(1);
    let rf = cfg.rf.clamp(1, nodes);
    let at = |ms: f64| SimTime::ZERO + SimDuration::from_millis_f64(ms);
    let keys: Vec<PartitionKey> = ops
        .iter()
        .map(|op| PartitionKey::from_id(op.partition))
        .collect();
    let placement: Vec<u32> = ops
        .iter()
        .flat_map(|op| (0..rf).map(move |k| ((op.partition as usize + k) % nodes) as u32))
        .collect();
    let mut rng = RngHub::new(cfg.seed).stream("replicated-legs");
    let mut coord = Coordinator::default();
    coord.begin(WriteOptions {
        hint_queue_cap: cfg.hint_queue_cap,
        read_repair: true,
    });
    // Per node, each partition's LWW version.
    let mut held: Vec<HashMap<PartitionKey, u64>> = vec![HashMap::new(); nodes];
    let mut calendar = EventQueue::new();
    for (w, window) in cfg.down.iter().enumerate() {
        calendar.schedule_at(at(window.until_ms), Hop::Close(w));
    }
    if let Some(first) = ops.first() {
        calendar.schedule_at(at(first.at_ms), Hop::Issue);
    }
    let (mut next, mut open, mut replayed, mut acked) = (0, None, 0, Vec::new());
    while let Some(hop) = calendar.pop() {
        let now = calendar.now();
        let now_ms = now.as_millis_f64();
        match hop {
            Hop::Issue => {
                let op = Op {
                    kind: ops[next].kind,
                    key: &keys[next],
                    replicas: &placement[next * rf..][..rf],
                    cells: &[],
                    consistency: ops[next].consistency,
                };
                let dark = |node: u32| {
                    let down = |w: &FaultWindow| (w.from_ms..w.until_ms).contains(&now_ms);
                    cfg.down.iter().any(|w| w.node == node as usize && down(w))
                };
                open = Some((next, coord.start(op, now.as_nanos(), now_ms, dark)));
                next += 1;
            }
            Hop::AtReplica(node, id, key, write, back) => {
                let held = held[node as usize].entry(key).or_insert(0);
                *held = (*held).max(write.unwrap_or(0));
                let version = *held;
                calendar.schedule_in(back, Hop::Reply(Input::Reply { id, node, version }));
            }
            Hop::Reply(input) => {
                if let Some((_, leg)) = &mut open {
                    coord.step(leg, input, now_ms);
                }
            }
            Hop::Close(w) => {
                let node = cfg.down[w].node as u32;
                for hint in coord.take_hints(node) {
                    replayed += 1;
                    // No leg waits on a replay's ack: it goes out as id 0.
                    let write = Some(hint.timestamp);
                    fly(&mut calendar, cfg, &mut rng, node, 0, hint.partition, write);
                }
            }
        }
        let Some((i, leg)) = &open else { continue };
        while let Some(send) = coord.next_send() {
            let (node, id, write) = match send {
                Send::Leg(node) => {
                    let write = (ops[*i].kind != OpKind::Read).then(|| leg.stamp());
                    (node, leg.id(), write)
                }
                Send::Repair { node, id } => (node, id, coord.cached(&keys[*i]).map(|c| c.0)),
            };
            let key = keys[*i].clone();
            fly(&mut calendar, cfg, &mut rng, node, id, key, write);
        }
        if leg.status() != Status::Open {
            if leg.status() == Status::Reached && ops[*i].kind != OpKind::Read {
                acked.push((*i, leg.stamp()));
            }
            open = None;
            if let Some(op) = ops.get(next) {
                calendar.schedule_at(at(op.at_ms).max(now), Hop::Issue);
            }
        }
    }
    let mut mixed = coord.finish();
    mixed.makespan_ms = calendar.now().as_millis_f64();
    let held_by_some = |&&(i, version): &&(usize, u64)| {
        held.iter()
            .any(|h| h.get(&keys[i]).is_some_and(|v| *v >= version))
    };
    ReplicationOutcome {
        lost_acked_writes: acked.iter().filter(|a| !held_by_some(a)).count() as u64,
        hints_replayed: replayed,
        mixed,
    }
}

/// Sends frame `id` to `node` over one simulated round trip: a measured
/// leg, resampled, plus the delay fault when its coin lands; half out and
/// half back.
fn fly(
    calendar: &mut EventQueue<Hop>,
    cfg: &ReplicationSimConfig,
    rng: &mut StdRng,
    node: u32,
    id: u64,
    key: PartitionKey,
    write: Option<u64>,
) {
    let samples = &cfg.leg_latency_ms;
    let base = match samples.len() {
        0 => 1.0,
        n => samples[rng.gen_range(0..n)],
    };
    let extra = match cfg.delay {
        Some(d) if rng.gen_bool(d.probability.clamp(0.0, 1.0)) => d.extra_ms,
        _ => 0.0,
    };
    let back = SimDuration::from_millis_f64((base + extra) / 2.0);
    calendar.schedule_in(back, Hop::AtReplica(node, id, key, write, back));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::uniform_partitions;
    use kvs_stages::{Bottleneck, Stage};
    use kvs_store::TableOptions;

    /// `sample_service_ms` as it was, a `Dist::Mixture` built per draw:
    /// the reference the direct draw must equal.
    fn sample_by_mixture(cfg: &ClusterConfig, base_ms: f64, mean_ms: f64, rng: &mut StdRng) -> f64 {
        let cost = &cfg.db.cost;
        let body = Dist::lognormal(mean_ms, cost.service_cv);
        let dist = if cost.tail_probability > 0.0 {
            let tail_mean = mean_ms + base_ms * (cost.tail_multiplier - 1.0).max(0.0);
            body.with_tail(
                Dist::lognormal(tail_mean, cost.service_cv),
                cost.tail_probability,
            )
        } else {
            body
        };
        dist.sample(rng)
    }

    #[test]
    fn service_draws_equal_the_mixture_draw_for_draw() {
        let base = ClusterConfig::paper_optimized_master(1);
        for (cv, p, multiplier) in [
            (base.db.cost.service_cv, base.db.cost.tail_probability, 6.0),
            (0.0, 0.3, 6.0),
            (0.4, 0.0, 6.0),
            (0.4, 1.0, 6.0),
            (0.4, 1.7, 0.5),
            (0.0, 0.0, 1.0),
        ] {
            let mut cfg = base.clone();
            cfg.db.cost.service_cv = cv;
            cfg.db.cost.tail_probability = p;
            cfg.db.cost.tail_multiplier = multiplier;
            for seed in 0..8u64 {
                let hub = RngHub::new(seed);
                let (mut direct, mut mixture) = (hub.stream("s"), hub.stream("s"));
                for i in 0..200u64 {
                    let base_ms = (i % 7) as f64 * 0.9 - 1.0;
                    let mean_ms = base_ms * 1.3 + (i % 3) as f64 - 0.5;
                    let got = sample_service_ms(&cfg, base_ms, mean_ms, &mut direct);
                    let want = sample_by_mixture(&cfg, base_ms, mean_ms, &mut mixture);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "cv {cv} p {p} seed {seed} draw {i}"
                    );
                }
                // Both consumed the stream alike.
                assert_eq!(direct.gen::<u64>(), mixture.gen::<u64>());
            }
        }
    }

    fn small_cluster(nodes: u32, partitions: u64, cells: u64) -> (ClusterData, Vec<PartitionKey>) {
        let parts = uniform_partitions(partitions, cells, 4);
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        let data = ClusterData::load(nodes, 1, TableOptions::default(), parts);
        (data, keys)
    }

    #[test]
    fn aggregation_is_correct() {
        let (mut data, keys) = small_cluster(4, 40, 12);
        let cfg = ClusterConfig::paper_optimized_master(4).deterministic();
        let result = run_query(&cfg, &mut data, &keys);
        // 40 partitions × 12 cells, kinds cycling 0..4 → 120 cells per kind.
        assert_eq!(result.total_cells, 480);
        for kind in 0..4u8 {
            assert_eq!(result.counts_by_kind[&kind], 120, "kind {kind}");
        }
        assert_eq!(result.messages, 40);
    }

    #[test]
    fn run_is_deterministic() {
        let (mut d1, keys) = small_cluster(4, 30, 10);
        let (mut d2, _) = small_cluster(4, 30, 10);
        let cfg = ClusterConfig::paper_slow_master(4);
        let a = run_query(&cfg, &mut d1, &keys);
        let b = run_query(&cfg, &mut d2, &keys);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.report.requests_per_node, b.report.requests_per_node);
    }

    #[test]
    fn different_seeds_change_timing_not_results() {
        let (mut d1, keys) = small_cluster(4, 30, 10);
        let (mut d2, _) = small_cluster(4, 30, 10);
        let mut cfg1 = ClusterConfig::paper_slow_master(4);
        cfg1.seed = 1;
        let mut cfg2 = cfg1.clone();
        cfg2.seed = 2;
        let a = run_query(&cfg1, &mut d1, &keys);
        let b = run_query(&cfg2, &mut d2, &keys);
        assert_eq!(a.counts_by_kind, b.counts_by_kind);
        assert_ne!(a.makespan, b.makespan);
    }

    #[test]
    fn traces_are_complete_and_causal() {
        let (mut data, keys) = small_cluster(2, 20, 8);
        let cfg = ClusterConfig::paper_optimized_master(2).deterministic();
        let result = run_query(&cfg, &mut data, &keys);
        assert_eq!(result.traces.len(), 20);
        for t in &result.traces {
            assert!(t.is_complete(), "incomplete trace {t:?}");
            let m2s = t.spans[Stage::MasterToSlave.index()].unwrap();
            let q = t.spans[Stage::InQueue.index()].unwrap();
            let db = t.spans[Stage::InDb.index()].unwrap();
            let s2m = t.spans[Stage::SlaveToMaster.index()].unwrap();
            assert!(m2s.end == q.start, "queue starts at arrival");
            assert!(q.end == db.start);
            assert!(db.end == s2m.start);
            assert!(s2m.end >= s2m.start);
        }
    }

    #[test]
    fn all_requests_respect_placement() {
        let (mut data, keys) = small_cluster(4, 50, 5);
        let expected: Vec<u32> = keys.iter().map(|k| data.primary_of(k).unwrap()).collect();
        let cfg = ClusterConfig::paper_optimized_master(4).deterministic();
        let result = run_query(&cfg, &mut data, &keys);
        for (t, &node) in result.traces.iter().zip(&expected) {
            assert_eq!(t.node, node, "request {} on wrong node", t.request_id);
        }
    }

    #[test]
    fn slow_master_many_keys_is_master_bound() {
        // 2 000 tiny partitions on 8 nodes, 150 µs per message: issuing
        // takes 300 ms while each DB burns through its ~250 requests in
        // ~80 ms of work — the Figure 4 fine-grained profile.
        let (mut data, keys) = small_cluster(8, 2_000, 2);
        let cfg = ClusterConfig::paper_slow_master(8).deterministic();
        let result = run_query(&cfg, &mut data, &keys);
        assert!(
            matches!(result.report.bottleneck, Bottleneck::MasterSend { .. }),
            "expected master-bound, got {:?}",
            result.report.bottleneck
        );
        // Issue span ≈ keys × 150 µs.
        let expect_ms = 2_000.0 * 0.150;
        assert!(
            (result.issue_span.as_millis_f64() - expect_ms).abs() / expect_ms < 0.15,
            "issue span {} vs {}",
            result.issue_span,
            expect_ms
        );
    }

    #[test]
    fn optimized_master_shifts_bottleneck_off_master() {
        // The paper's fine-grained shape: many 100-cell partitions. With
        // the slow master this profile is master-bound (Figure 4 top); the
        // optimized master moves the constraint into the database tier
        // (Figure 5's near-linear fine-grained line).
        let (mut data, keys) = small_cluster(8, 2_000, 100);
        let cfg = ClusterConfig::paper_optimized_master(8).deterministic();
        let result = run_query(&cfg, &mut data, &keys);
        assert!(
            !matches!(result.report.bottleneck, Bottleneck::MasterSend { .. }),
            "optimized master still the bottleneck: {:?}",
            result.report.bottleneck
        );
    }

    #[test]
    fn few_big_keys_show_imbalance() {
        // 30 keys on 8 nodes: Formula 1 predicts heavy imbalance.
        let (mut data, keys) = small_cluster(8, 30, 400);
        let cfg = ClusterConfig::paper_optimized_master(8).deterministic();
        let result = run_query(&cfg, &mut data, &keys);
        assert!(
            result.load_excess() > 0.2,
            "load excess {} suspiciously flat",
            result.load_excess()
        );
        assert!(result.balanced_time() < result.makespan);
    }

    #[test]
    fn replication_with_least_loaded_spreads_requests() {
        let parts = uniform_partitions(60, 10, 2);
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        let mut data = ClusterData::load(4, 3, TableOptions::default(), parts);
        let mut cfg = ClusterConfig::paper_optimized_master(4).deterministic();
        cfg.replication_factor = 3;
        cfg.replica_policy = ReplicaPolicy::LeastLoaded;
        let result = run_query(&cfg, &mut data, &keys);
        // With rf=3 + least-loaded the excess should be small.
        assert!(
            result.load_excess() < 0.35,
            "least-loaded excess {}",
            result.load_excess()
        );
        assert_eq!(result.total_cells, 600);
    }

    use crate::policy::ReplicaPolicy;

    #[test]
    fn microbench_scales_with_parallelism_then_degrades() {
        let (mut data, keys) = small_cluster(1, 64, 500);
        let cfg = ClusterConfig::paper_optimized_master(1).deterministic();
        let t1 = db_microbench(&cfg, &mut data, &keys, 1, "t").total_ms;
        let t8 = db_microbench(&cfg, &mut data, &keys, 8, "t").total_ms;
        let t32 = db_microbench(&cfg, &mut data, &keys, 32, "t").total_ms;
        let t64 = db_microbench(&cfg, &mut data, &keys, 64, "t").total_ms;
        assert!(t8 < t1 * 0.5, "8-way {t8} vs serial {t1}");
        // 500-cell rows peak near 32 concurrent requests; 64 must be
        // retrograde (strictly worse than the peak).
        assert!(t32 < t8, "t32={t32} should beat t8={t8}");
        assert!(t64 > t32, "no retrograde: t64={t64} t32={t32}");
    }

    #[test]
    fn microbench_sample_times_match_formula6() {
        let (mut data, keys) = small_cluster(1, 10, 250);
        let cfg = ClusterConfig::paper_optimized_master(1).deterministic();
        let r = db_microbench(&cfg, &mut data, &keys, 1, "f6");
        for s in &r.samples {
            assert_eq!(s.cells, 250);
            // 1.163 + 0.0387·250 ≈ 10.84 ms, serial ⇒ no inflation.
            assert!((s.ms - 10.84).abs() < 0.05, "{}", s.ms);
        }
    }

    #[test]
    fn open_loop_latency_grows_with_load() {
        // 4 nodes serving 250-cell rows: capacity ≈ 4·S*(250)/10.84 ms ≈
        // 2 400 rps. Latency at 20 % load must be near the service floor;
        // at 120 % load the queues blow up.
        let (mut data, keys) = small_cluster(4, 200, 250);
        let cfg = ClusterConfig::paper_optimized_master(4).deterministic();
        let low = run_open_loop(
            &cfg,
            &mut data,
            &keys,
            400.0,
            SimDuration::from_secs(2),
            "low",
        );
        let high = run_open_loop(
            &cfg,
            &mut data,
            &keys,
            3_000.0,
            SimDuration::from_secs(2),
            "high",
        );
        let low_p50 = low.latency_ms.as_ref().expect("completions").p50;
        let high_p50 = high.latency_ms.as_ref().expect("completions").p50;
        assert!(low_p50 < 40.0, "low-load p50 {low_p50} too high");
        assert!(
            high_p50 > low_p50 * 3.0,
            "overload did not hurt: {high_p50} vs {low_p50}"
        );
        assert!(low.completed > 500);
        // Under overload the achieved rate saturates below the offer.
        assert!(high.achieved_rps < 3_000.0 * 0.95, "{}", high.achieved_rps);
    }

    #[test]
    fn open_loop_conserves_requests() {
        let (mut data, keys) = small_cluster(2, 50, 100);
        let cfg = ClusterConfig::paper_optimized_master(2);
        let r = run_open_loop(
            &cfg,
            &mut data,
            &keys,
            200.0,
            SimDuration::from_millis(500),
            "conserve",
        );
        assert_eq!(
            r.completed,
            r.latency_ms.as_ref().map(|s| s.count).unwrap_or(0)
        );
        assert!(r.offered_rps == 200.0);
    }

    #[test]
    fn failover_retries_dead_replicas_and_preserves_answers() {
        use crate::config::NodeFailure;
        let parts = uniform_partitions(60, 10, 4);
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        let mut healthy_data = ClusterData::load(4, 2, TableOptions::default(), parts.clone());
        let mut failing_data = ClusterData::load(4, 2, TableOptions::default(), parts);
        let mut cfg = ClusterConfig::paper_optimized_master(4).deterministic();
        cfg.replication_factor = 2;
        let healthy = run_query(&cfg, &mut healthy_data, &keys);
        let mut failing_cfg = cfg.clone();
        failing_cfg.failures = vec![NodeFailure {
            node: 0,
            at: SimDuration::ZERO, // dead from the start
        }];
        failing_cfg.failure_timeout = SimDuration::from_millis(100);
        let failed = run_query(&failing_cfg, &mut failing_data, &keys);
        // Answers identical: every partition has a surviving replica.
        assert_eq!(healthy.counts_by_kind, failed.counts_by_kind);
        assert_eq!(healthy.total_cells, failed.total_cells);
        // Node 0 served nothing; its keys failed over.
        assert!(failed.failovers > 0, "no failovers recorded");
        assert!(
            !failed.report.requests_per_node.contains_key(&0),
            "dead node served requests: {:?}",
            failed.report.requests_per_node
        );
        // The timeouts cost real time.
        assert!(failed.makespan >= healthy.makespan);
        assert_eq!(healthy.failovers, 0);
    }

    #[test]
    #[should_panic(expected = "unservable")]
    fn losing_every_replica_is_loud() {
        use crate::config::NodeFailure;
        let (mut data, keys) = small_cluster(2, 10, 5); // rf = 1
        let mut cfg = ClusterConfig::paper_optimized_master(2).deterministic();
        cfg.failures = (0..2)
            .map(|node| NodeFailure {
                node,
                at: SimDuration::ZERO,
            })
            .collect();
        let _ = run_query(&cfg, &mut data, &keys);
    }

    #[test]
    fn late_failure_only_affects_requests_after_it() {
        use crate::config::NodeFailure;
        let parts = uniform_partitions(40, 2_000, 4);
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        let mut data = ClusterData::load(4, 2, TableOptions::default(), parts);
        let mut cfg = ClusterConfig::paper_optimized_master(4).deterministic();
        cfg.replication_factor = 2;
        // Fail node 1 late enough that the dispatch wave (40 × 19 µs ≈
        // 0.8 ms) has already fully landed — no retries should occur.
        cfg.failures = vec![NodeFailure {
            node: 1,
            at: SimDuration::from_millis(50),
        }];
        let result = run_query(&cfg, &mut data, &keys);
        assert_eq!(result.failovers, 0, "late failure caused failovers");
        assert_eq!(result.total_cells, 40 * 2_000);
    }

    #[test]
    fn sharded_masters_relieve_a_bound_master() {
        // Fine-grained-style workload on a slow master: issue time
        // dominates. Sharding the master over 4 coordinators must cut the
        // makespan while answering identically.
        let (mut d1, keys) = small_cluster(8, 2_000, 20);
        let (mut d2, _) = small_cluster(8, 2_000, 20);
        let single_cfg = ClusterConfig::paper_slow_master(8).deterministic();
        let mut sharded_cfg = single_cfg.clone();
        sharded_cfg.master_shards = 4;
        let single = run_query(&single_cfg, &mut d1, &keys);
        let sharded = run_query(&sharded_cfg, &mut d2, &keys);
        assert_eq!(single.counts_by_kind, sharded.counts_by_kind);
        assert!(
            sharded.makespan.as_millis_f64() < single.makespan.as_millis_f64() * 0.7,
            "sharding bought too little: {} vs {}",
            sharded.makespan,
            single.makespan
        );
        // The dispatch span itself shrinks roughly by the shard count
        // (modulo the hash split's own imbalance).
        assert!(sharded.issue_span.as_millis_f64() < single.issue_span.as_millis_f64() * 0.45);
    }

    #[test]
    #[should_panic(expected = "unplaced partition")]
    fn querying_unknown_key_panics() {
        let (mut data, _) = small_cluster(2, 5, 5);
        let cfg = ClusterConfig::paper_optimized_master(2);
        let bogus = vec![PartitionKey::from_id(999_999)];
        let _ = run_query(&cfg, &mut data, &bogus);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn config_data_mismatch_panics() {
        let (mut data, keys) = small_cluster(2, 5, 5);
        let cfg = ClusterConfig::paper_optimized_master(4);
        let _ = run_query(&cfg, &mut data, &keys);
    }
}
