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

use crate::config::ClusterConfig;
use crate::data::ClusterData;
use crate::messages::{QueryRequest, QueryResponse};
use crate::result::{Coverage, RunResult};
use crate::usl;
use kvs_simcore::{Dist, Engine, Resource, RngHub, SimDuration, SimTime};
use kvs_stages::{analyze, RequestTrace, Span, Stage, TraceRecorder};
use kvs_store::PartitionKey;
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Everything about one sub-query that is known before timing begins.
#[derive(Debug, Clone)]
struct Prepared {
    request_id: u64,
    replicas: Vec<u32>,
    cells: u64,
    /// Un-inflated mean database service (receipt → ms).
    base_service_ms: f64,
    response: QueryResponse,
    req_bytes: usize,
    resp_bytes: usize,
}

struct SharedState {
    recorder: TraceRecorder,
    pending: usize,
    counts: BTreeMap<u8, u64>,
    total_cells: u64,
    rng: StdRng,
    dispatch_counter: u64,
    msgs_sent: u64,
    failovers: u64,
    send_first: Option<SimTime>,
    send_last: SimTime,
    misses: Vec<u64>,
    hedges_sent: u64,
    hedges_won: u64,
    extra_bytes_to_slaves: u64,
}

/// True when `node` has failed by instant `at` under the injected failure
/// plan.
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

/// Everything one in-flight attempt (primary or hedge) of a sub-query
/// needs, shared between the closure hops of its lifecycle.
struct AttemptEnv {
    cfg: Rc<ClusterConfig>,
    st: Rc<RefCell<SharedState>>,
    dbs: Rc<Vec<Resource>>,
    master_rx: Rc<Vec<Resource>>,
    shard: usize,
    p: Rc<Prepared>,
    /// First-response-wins flag shared by the primary and its hedge.
    done: Rc<Cell<bool>>,
    /// When the master-to-slaves stage of this request began (t=0 for the
    /// batch query; the arrival instant for paced runs).
    issued_at: SimTime,
}

/// Plays out one attempt of a sub-query against `node`: request transit
/// (plus any failover `penalty`), database service, response transit
/// (straggler-inflated when one is injected on the node), master receive.
/// Only the first attempt of a request to complete records its trace and
/// its answer; the loser is dropped at the recording point, exactly as the
/// network master deduplicates a lost hedge's late response.
fn launch_attempt(
    eng: &mut Engine,
    env: Rc<AttemptEnv>,
    node: u32,
    penalty: SimDuration,
    is_hedge: bool,
) {
    let transit = env.cfg.network.transit(env.p.req_bytes) + penalty;
    let env0 = env.clone();
    eng.schedule_in(transit, move |eng| {
        let env = env0;
        if env.done.get() {
            return; // answered before this attempt even arrived
        }
        let arrival = eng.now();
        let db = env.dbs[node as usize].clone();
        let service = {
            let mut s = env.st.borrow_mut();
            let k = (db.busy() + db.queue_len() + 1).min(env.cfg.db.parallelism);
            let inflation = usl::params_for_cells(env.p.cells).inflation(k);
            let mean_ms = env.p.base_service_ms * inflation + env.cfg.gc.db_extra_ms(env.p.cells);
            SimDuration::from_millis_f64(sample_service_ms(
                &env.cfg,
                env.p.base_service_ms,
                mean_ms,
                &mut s.rng,
            ))
        };
        let env1 = env.clone();
        db.submit(eng, service, move |eng, job| {
            let env = env1;
            let mut transit_back = env.cfg.network.transit(env.p.resp_bytes);
            {
                let mut s = env.st.borrow_mut();
                for straggle in env.cfg.stragglers.iter().filter(|f| f.node == node) {
                    if rand::Rng::gen_bool(&mut s.rng, straggle.probability.clamp(0.0, 1.0)) {
                        transit_back += straggle.extra;
                    }
                }
            }
            let (enqueued_at, started_at, db_done) =
                (job.enqueued_at, job.started_at, job.completed_at);
            let env2 = env.clone();
            eng.schedule_in(transit_back, move |eng| {
                let env = env2;
                let rx_time = env.cfg.master_rx_time();
                let env3 = env.clone();
                env.master_rx[env.shard].submit(eng, rx_time, move |eng, _rx_job| {
                    let env = env3;
                    if env.done.replace(true) {
                        return; // lost the race; duplicate answer dropped
                    }
                    let mut s = env.st.borrow_mut();
                    let id = env.p.request_id;
                    let mut spans = [None; 4];
                    for (stage, start, end) in [
                        (Stage::MasterToSlave, env.issued_at, arrival),
                        (Stage::InQueue, enqueued_at, started_at),
                        (Stage::InDb, started_at, db_done),
                        (Stage::SlaveToMaster, db_done, eng.now()),
                    ] {
                        spans[stage.index()] = Some(Span { start, end });
                    }
                    s.recorder.insert(RequestTrace {
                        request_id: id,
                        node,
                        cells: env.p.cells,
                        spans,
                    });
                    if is_hedge {
                        s.hedges_won += 1;
                    }
                    for (&kind, &count) in &env.p.response.counts {
                        *s.counts.entry(kind).or_insert(0) += count;
                    }
                    s.total_cells += env.p.response.cells;
                    s.pending -= 1;
                });
            });
        });
    });
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
/// t=0. The chaos drill uses this to replay a measured run's arrival
/// process through the model.
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
    config: &ClusterConfig,
    data: &mut ClusterData,
    keys: &[PartitionKey],
    arrivals: Option<&[SimDuration]>,
) -> RunResult {
    assert_eq!(
        config.nodes,
        data.nodes(),
        "config/data disagree on cluster size"
    );
    let cfg = Rc::new(config.clone());
    let codec = cfg.master.codec;

    // ---- Phase 1: resolve every sub-query against the store. ----
    // The reads themselves are deterministic, so they run up front; the
    // engine then only plays out *time*.
    let mut prepared = Vec::with_capacity(keys.len());
    let mut bytes_to_slaves = 0u64;
    let mut bytes_to_master = 0u64;
    for (i, pk) in keys.iter().enumerate() {
        let replicas: Vec<u32> = data.replicas_of(pk).to_vec();
        assert!(!replicas.is_empty(), "query for unplaced partition {pk:?}");
        let (response, receipt) = data.aggregate(replicas[0], i as u64, pk);
        let request = QueryRequest {
            request_id: i as u64,
            partition: pk.clone(),
        };
        let req_bytes = codec.encode_request(&request).len();
        let resp_bytes = codec.encode_response(&response).len();
        bytes_to_slaves += req_bytes as u64;
        bytes_to_master += resp_bytes as u64;
        prepared.push(Prepared {
            request_id: i as u64,
            replicas,
            cells: response.cells,
            base_service_ms: cfg.db.cost.service_ms(&receipt),
            response,
            req_bytes,
            resp_bytes,
        });
    }

    // ---- Phase 2: the discrete-event replay. ----
    let mut eng = Engine::new();
    let hub = RngHub::new(cfg.seed);
    let state = Rc::new(RefCell::new(SharedState {
        recorder: TraceRecorder::with_capacity(prepared.len()),
        pending: prepared.len(),
        counts: BTreeMap::new(),
        total_cells: 0,
        rng: hub.stream("service-noise"),
        dispatch_counter: 0,
        msgs_sent: 0,
        failovers: 0,
        send_first: None,
        send_last: SimTime::ZERO,
        misses: Vec::new(),
        hedges_sent: 0,
        hedges_won: 0,
        extra_bytes_to_slaves: 0,
    }));
    let shards = cfg.master_shards.max(1);
    let master_tx: Vec<Resource> = (0..shards)
        .map(|i| Resource::new(format!("master-tx-{i}"), 1))
        .collect();
    let master_rx: Rc<Vec<Resource>> = Rc::new(
        (0..shards)
            .map(|i| Resource::new(format!("master-rx-{i}"), 1))
            .collect(),
    );
    let dbs: Rc<Vec<Resource>> = Rc::new(
        (0..cfg.nodes)
            .map(|n| Resource::new(format!("db-{n}"), cfg.db.parallelism))
            .collect(),
    );

    for (idx, p) in prepared.into_iter().enumerate() {
        let p = Rc::new(p);
        // Master send CPU: serialization + policy overhead (+ a GC pause
        // every N messages).
        let mut tx_service = cfg.master_tx_time()
            + SimDuration::from_micros_f64(cfg.replica_policy.master_overhead_us());
        {
            let mut st = state.borrow_mut();
            st.msgs_sent += 1;
            if cfg.gc.enabled && st.msgs_sent.is_multiple_of(cfg.gc.master_msgs_per_pause) {
                tx_service += cfg.gc.master_pause;
            }
        }

        // Key space sharded over the coordinating masters: each request is
        // issued by (and returns to) its key's home shard.
        let shard =
            (kvs_balance::hashing::hash_key(&p.request_id.to_le_bytes()) % shards as u64) as usize;
        let st = state.clone();
        let cfg = cfg.clone();
        let dbs = dbs.clone();
        let master_rx = master_rx.clone();
        let arrival_at = arrivals
            .map(|a| SimTime::ZERO + a[idx])
            .unwrap_or(SimTime::ZERO);
        let mtx = master_tx[shard].clone();
        let dispatch = move |eng: &mut Engine| {
            // The paper's master-to-slaves stage runs from issue (t=0 in
            // the batch query, where the master knows all keys up front;
            // the arrival instant in paced runs) to slave receipt.
            let issued_at = eng.now();
            mtx.submit(eng, tx_service, move |eng, tx_report| {
                // Replica choice happens at send time with live load info.
                let pick = {
                    let mut s = st.borrow_mut();
                    s.send_first.get_or_insert(tx_report.started_at);
                    s.send_last = s.send_last.max(tx_report.completed_at);
                    let loads: Vec<usize> = p
                        .replicas
                        .iter()
                        .map(|&n| dbs[n as usize].busy() + dbs[n as usize].queue_len())
                        .collect();
                    let counter = s.dispatch_counter;
                    s.dispatch_counter += 1;
                    cfg.replica_policy
                        .pick(p.replicas.len(), &loads, counter, &mut s.rng)
                };
                // Failure injection: a dead replica costs a timeout, then
                // the master walks the replica list for the next live one.
                let base_transit = cfg.network.transit(p.req_bytes);
                let mut attempt = pick;
                let mut penalty = SimDuration::ZERO;
                let mut tried = 0usize;
                while node_is_dead(
                    &cfg,
                    p.replicas[attempt],
                    eng.now() + base_transit + penalty,
                ) {
                    tried += 1;
                    if tried > p.replicas.len() {
                        // Out of replicas: a recorded miss in degraded
                        // mode, an experiment-harness failure otherwise.
                        if cfg.degraded {
                            let mut s = st.borrow_mut();
                            s.failovers += tried as u64 - 1;
                            s.misses.push(p.request_id);
                            s.pending -= 1;
                            return;
                        }
                        panic!(
                            "every replica of request {} is dead — unservable query",
                            p.request_id
                        );
                    }
                    penalty += cfg.failure_timeout;
                    attempt = (attempt + 1) % p.replicas.len();
                }
                if tried > 0 {
                    st.borrow_mut().failovers += tried as u64;
                }
                let node = p.replicas[attempt];
                let env = Rc::new(AttemptEnv {
                    cfg: cfg.clone(),
                    st: st.clone(),
                    dbs,
                    master_rx,
                    shard,
                    p: p.clone(),
                    done: Rc::new(Cell::new(false)),
                    issued_at,
                });
                launch_attempt(eng, env.clone(), node, penalty, false);
                // Hedge: if the request is still unanswered `delay` after
                // dispatch, re-issue it to the next live replica. The
                // duplicate bypasses the master-tx resource — a deliberate
                // approximation (the real master's hedge is sent from the
                // collect loop, off the issue path's critical resource).
                if let Some(delay) = cfg.hedge {
                    if p.replicas.len() > 1 {
                        let primary_ix = attempt;
                        eng.schedule_in(delay, move |eng| {
                            if env.done.get() {
                                return;
                            }
                            let n = env.p.replicas.len();
                            let target = (1..n)
                                .map(|step| env.p.replicas[(primary_ix + step) % n])
                                .find(|&cand| !node_is_dead(&env.cfg, cand, eng.now()));
                            let Some(hnode) = target else { return };
                            {
                                let mut s = env.st.borrow_mut();
                                s.hedges_sent += 1;
                                s.extra_bytes_to_slaves += env.p.req_bytes as u64;
                            }
                            launch_attempt(eng, env.clone(), hnode, SimDuration::ZERO, true);
                        });
                    }
                }
            });
        };
        if arrivals.is_some() {
            eng.schedule_at(arrival_at, dispatch);
        } else {
            dispatch(&mut eng);
        }
    }

    eng.run();

    let state = Rc::try_unwrap(state)
        .unwrap_or_else(|_| panic!("simulation closures leaked shared state"))
        .into_inner();
    assert_eq!(state.pending, 0, "requests never completed");
    let traces = state.recorder.into_traces();
    let report = analyze(&traces);
    let issue_span = match state.send_first {
        Some(first) => state.send_last - first,
        None => SimDuration::ZERO,
    };
    let mut misses = state.misses;
    misses.sort_unstable();
    misses.dedup();
    RunResult {
        makespan: report.makespan,
        report,
        traces,
        counts_by_kind: state.counts,
        total_cells: state.total_cells,
        messages: state.msgs_sent,
        bytes_to_slaves: bytes_to_slaves + state.extra_bytes_to_slaves,
        bytes_to_master,
        issue_span,
        failovers: state.failovers,
        coverage: Coverage {
            answered: keys.len() as u64 - misses.len() as u64,
            total: keys.len() as u64,
        },
        missed: misses,
        hedges_sent: state.hedges_sent,
        hedges_won: state.hedges_won,
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
    assert_eq!(
        config.nodes,
        data.nodes(),
        "config/data disagree on cluster size"
    );
    let cfg = Rc::new(config.clone());
    let codec = cfg.master.codec;

    // Resolve the key pool once.
    let mut prepared = Vec::with_capacity(keys.len());
    for (i, pk) in keys.iter().enumerate() {
        let replicas: Vec<u32> = data.replicas_of(pk).to_vec();
        assert!(!replicas.is_empty(), "query for unplaced partition {pk:?}");
        let (response, receipt) = data.aggregate(replicas[0], i as u64, pk);
        let request = QueryRequest {
            request_id: i as u64,
            partition: pk.clone(),
        };
        prepared.push(Prepared {
            request_id: i as u64,
            replicas,
            cells: response.cells,
            base_service_ms: cfg.db.cost.service_ms(&receipt),
            req_bytes: codec.encode_request(&request).len(),
            resp_bytes: codec.encode_response(&response).len(),
            response,
        });
    }
    let prepared = Rc::new(prepared);

    // Poisson arrivals over the horizon.
    let hub = RngHub::new(cfg.seed);
    let mut arrivals_rng = hub.stream(&format!("open-loop-arrivals-{label}"));
    let mut pick_rng = hub.stream(&format!("open-loop-keys-{label}"));
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    let horizon_s = duration.as_secs_f64();
    loop {
        t += kvs_simcore::Dist::Exponential {
            mean: 1.0 / offered_rps,
        }
        .sample(&mut arrivals_rng);
        if t >= horizon_s {
            break;
        }
        arrivals.push((t, rand::Rng::gen_range(&mut pick_rng, 0..prepared.len())));
    }

    let mut eng = Engine::new();
    let latencies: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let noise: Rc<RefCell<StdRng>> = Rc::new(RefCell::new(
        hub.stream(&format!("open-loop-noise-{label}")),
    ));
    let master_tx = Resource::new("ol-master-tx", 1);
    let master_rx = Resource::new("ol-master-rx", 1);
    let dbs: Rc<Vec<Resource>> = Rc::new(
        (0..cfg.nodes)
            .map(|n| Resource::new(format!("ol-db-{n}"), cfg.db.parallelism))
            .collect(),
    );

    for (arrive_s, key_idx) in arrivals.iter().copied() {
        let cfg = cfg.clone();
        let prepared = prepared.clone();
        let dbs = dbs.clone();
        let master_tx = master_tx.clone();
        let master_rx = master_rx.clone();
        let latencies = latencies.clone();
        let noise = noise.clone();
        eng.schedule_at(
            SimTime::ZERO + SimDuration::from_secs_f64(arrive_s),
            move |eng| {
                let born = eng.now();
                let tx_service = cfg.master_tx_time();
                let cfg2 = cfg.clone();
                master_tx.submit(eng, tx_service, move |eng, _| {
                    let p = &prepared[key_idx];
                    let node = p.replicas[0];
                    let transit = cfg2.network.transit(p.req_bytes);
                    let cfg3 = cfg2.clone();
                    let prepared = prepared.clone();
                    let dbs = dbs.clone();
                    let master_rx = master_rx.clone();
                    let latencies = latencies.clone();
                    let noise = noise.clone();
                    eng.schedule_in(transit, move |eng| {
                        let p = &prepared[key_idx];
                        let db = dbs[node as usize].clone();
                        let k = (db.busy() + db.queue_len() + 1).min(cfg3.db.parallelism);
                        let inflation = usl::params_for_cells(p.cells).inflation(k);
                        let mean_ms = p.base_service_ms * inflation + cfg3.gc.db_extra_ms(p.cells);
                        let service = SimDuration::from_millis_f64(sample_service_ms(
                            &cfg3,
                            p.base_service_ms,
                            mean_ms,
                            &mut noise.borrow_mut(),
                        ));
                        let cfg4 = cfg3.clone();
                        let prepared = prepared.clone();
                        let master_rx = master_rx.clone();
                        let latencies = latencies.clone();
                        db.submit(eng, service, move |eng, _| {
                            let p = &prepared[key_idx];
                            let back = cfg4.network.transit(p.resp_bytes);
                            let rx_time = cfg4.master_rx_time();
                            let master_rx = master_rx.clone();
                            let latencies = latencies.clone();
                            eng.schedule_in(back, move |eng| {
                                master_rx.submit(eng, rx_time, move |eng, _| {
                                    latencies
                                        .borrow_mut()
                                        .push((eng.now() - born).as_millis_f64());
                                });
                            });
                        });
                    });
                });
            },
        );
    }

    let offered = arrivals.len();
    eng.run();
    let latencies = Rc::try_unwrap(latencies)
        .unwrap_or_else(|_| panic!("open-loop closures leaked state"))
        .into_inner();
    assert_eq!(latencies.len(), offered, "requests lost in flight");
    let achieved_rps = if eng.now().as_secs_f64() > 0.0 {
        latencies.len() as f64 / eng.now().as_secs_f64()
    } else {
        0.0
    };
    OpenLoopResult {
        offered_rps,
        completed: latencies.len(),
        achieved_rps,
        latency_ms: kvs_simcore::Summary::from_samples(&latencies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::uniform_partitions;
    use kvs_stages::Bottleneck;
    use kvs_store::TableOptions;

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
