//! The four workloads: what each loads, how it is warmed up, and how one
//! measured unit — an aggregation query or a point operation — is issued,
//! checked against the oracle and accounted per layer.
//!
//! Everything here calls the program's public functions and reads its
//! public reports; nothing reaches inside.

use crate::gen::{point_ops, Dataset, PointOp};
use crate::proc::arm_alloc_counting;
use crate::stats::Unit;
use crate::trace::Tracer;
use kvs_cluster::queue::QueueStats;
use kvs_cluster::{ClusterConfig, ClusterData, Consistency, RunResult};
use kvs_net::{
    spawn_local_cluster, spawn_local_cluster_durable, DurableClusterConfig, LocalCluster, MixedOp,
    MixedPlan, NetConfig, NetMaster, NetServerConfig, Route, WriteOptions,
};
use kvs_simcore::SimDuration;
use kvs_stages::Stage;
use kvs_store::{DurableOptions, FsyncPolicy, PartitionKey, TableOptions};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Slave nodes of the socket workloads. A constant sized for a two-core
/// box, not read from the host: the same topology everywhere.
const NODES: u32 = 2;

/// Slave configuration of the socket workloads. `queue_depth` is the
/// shipped default on purpose: `agg_fine` overruns it and pays `Busy`
/// retries, which is a finding for a later change to claim, not something
/// for the benchmark to tune away.
const SERVER: NetServerConfig = NetServerConfig {
    workers_per_node: 2,
    queue_depth: 64,
};

/// Nodes of the simulated cluster (the paper's).
const SIM_NODES: u32 = 16;

/// Operations per second `point_mixed` offers: an open loop at a quarter
/// of the 30 000 a second one closed-loop client completes on the
/// reference machine, so that queues form in the system and not in the
/// generator. Not lower, because what an operation costs after a long
/// pause is what the pause left of the caches, which on a shared host is
/// the neighbours' doing: at 1 000 a second the median latency of
/// identical code ranged over 24 % in six runs, at 8 000 over 11 %.
const POINT_RATE: f64 = 8_000.0;
/// A paced client sleeps until this long before an operation is due and
/// spins the rest of the way: a sleep may overrun by the kernel's timer
/// slack and a wake-up, a spin may not. At [`POINT_RATE`] operations are
/// 125 µs apart, so a client that keeps up only ever spins — on the one
/// core, but only between operations, when the system has nothing to do
/// (anything it does have preempts a thread that has used the core for
/// longer); the time spun is taken out of `proc.cpu_us_per_op`.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);
/// Operations in the client's stream; at its end the client starts over,
/// so memory does not grow with the length of the run.
const POINT_STREAM_OPS: u64 = 65_536;

/// One of the benchmark's four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 200 000 elements as 2 000 × 100, RAM tier, sockets: message-bound.
    AggFine,
    /// The same elements as 20 × 10 000, durable tier, sockets:
    /// store-bound, working set over four times the block cache.
    AggCoarse,
    /// YCSB update-heavy point reads and writes, rf 2, offered at a fixed
    /// rate.
    PointMixed,
    /// The `agg_fine` query through the discrete-event simulator.
    SimAggFine,
}

impl Workload {
    /// All four, in the order the noise check interleaves them.
    pub const ALL: [Workload; 4] = [
        Workload::AggFine,
        Workload::AggCoarse,
        Workload::PointMixed,
        Workload::SimAggFine,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AggFine => "agg_fine",
            Workload::AggCoarse => "agg_coarse",
            Workload::PointMixed => "point_mixed",
            Workload::SimAggFine => "sim_agg_fine",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(partitions, cells per partition)`.
    fn shape(self) -> (usize, usize) {
        match self {
            Workload::AggFine | Workload::SimAggFine => (2_000, 100),
            Workload::AggCoarse => (20, 10_000),
            Workload::PointMixed => (4_096, 32),
        }
    }

    /// Warm-up length in units. A count of
    /// work, never a time: set-up then costs what the work costs, and
    /// moves when work moves into it.
    fn warmup_units(self) -> usize {
        match self {
            Workload::AggFine | Workload::SimAggFine => 30,
            Workload::AggCoarse => 60,
            Workload::PointMixed => 40_000,
        }
    }
}

/// A scratch directory removed when dropped — on success and on unwind.
pub struct WorkDir(PathBuf);

static WORK_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl WorkDir {
    /// Creates `<root>/<tag>-<pid>-<n>`.
    pub fn create(root: &Path, tag: &str) -> io::Result<WorkDir> {
        let n = WORK_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // A leftover scratch directory beats a panic inside a drop.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The answers every aggregation over the whole data set must give.
struct Oracle {
    total_cells: u64,
    counts_by_kind: BTreeMap<u8, u64>,
}

impl Oracle {
    fn accepts(&self, r: &RunResult) -> bool {
        r.coverage.is_complete()
            && r.total_cells == self.total_cells
            && r.counts_by_kind == self.counts_by_kind
    }
}

/// The client of `point_mixed`: a master of its own and its stream of
/// operations.
struct Client {
    master: NetMaster,
    plans: Vec<MixedPlan>,
    /// The next operation of the stream.
    cursor: usize,
}

/// When the client issues its operations.
#[derive(Clone, Copy)]
enum Schedule {
    /// This many, one after another (warm-up: a count of work).
    Unpaced(usize),
    /// Open loop: operation `i` is due `i × every` after `start`,
    /// whatever became of the ones before it. The client stops at `limit`
    /// after `start`: a system that cannot keep up leaves operations
    /// unsent and does not make the run longer.
    Paced {
        start: Instant,
        every: Duration,
        limit: Duration,
    },
}

/// Sleeps to within [`SPIN_BEFORE_DUE`] of `due`, then spins; returns at
/// once if `due` has passed. Returns how long it spun.
fn wait_until(due: Instant) -> Duration {
    if let Some(nap) = due
        .saturating_duration_since(Instant::now())
        .checked_sub(SPIN_BEFORE_DUE)
    {
        std::thread::sleep(nap);
    }
    let spinning = Instant::now();
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    spinning.elapsed()
}

// One engine exists at a time, so the size gap between the variants costs
// nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Sockets {
        master: NetMaster,
        cluster: LocalCluster,
        routes: Vec<Route>,
        /// `point_mixed` only.
        client: Option<Client>,
        /// Declared after the cluster so the store's files close before
        /// their directory goes.
        _dir: Option<WorkDir>,
    },
    Sim {
        cfg: ClusterConfig,
        data: ClusterData,
        keys: Vec<PartitionKey>,
    },
}

/// A loaded, connected and warmed-up system under test.
pub struct World {
    workload: Workload,
    oracle: Oracle,
    engine: Engine,
    /// Simulated makespan of the first query; every later one must equal
    /// it bit for bit.
    sim_makespan: Option<SimDuration>,
}

/// What one measured interval saw, end to end and per layer.
#[derive(Default)]
pub struct Interval {
    /// Every unit (query or point operation), in the order issued.
    pub units: Vec<Unit>,
    /// How long after its due time each paced operation was sent, ms.
    pub late_ms: Vec<f64>,
    /// How long the paced generators spun waiting for due times, seconds:
    /// CPU time of the benchmark's, not the program's.
    pub generator_spin_s: f64,
    /// Sub-requests (partition reads or point operations) completed.
    pub subrequests: u64,
    /// Sub-requests attempted.
    pub attempted: u64,
    /// Sub-requests that failed or belonged to a wrongly answered query.
    pub failed: u64,
    /// Wall time of the interval, seconds.
    pub wall_s: f64,
    /// Sum over sub-requests of each stage's duration, ms.
    pub stage_sum_ms: [f64; 4],
    /// Sub-requests with stage stamps.
    pub stage_n: u64,
    /// Messages the master sent.
    pub messages: u64,
    /// Master time encoding and writing requests, µs.
    pub tx_us: u64,
    /// Master time decoding responses, µs.
    pub rx_us: u64,
    /// Requests re-sent after a `Busy` reply.
    pub busy_retries: u64,
    /// Requests re-sent after a timeout.
    pub timeout_retries: u64,
    /// Requests moved to another replica.
    pub failovers: u64,
    /// Bytes on the wire, both directions.
    pub wire_bytes: u64,
    /// Service time of each read of `point_mixed`, ms.
    pub read_ms: Vec<f64>,
    /// Service time of each write of `point_mixed`, ms.
    pub write_ms: Vec<f64>,
    /// Reads that saw an older version than the newest acked write.
    pub stale_reads: u64,
    /// Repair writes sent to lagging replicas.
    pub read_repairs: u64,
    /// Store reads behind the sub-requests, for the ladder.
    pub store_reads: u64,
    /// Replica writes applied.
    pub store_writes: u64,
    /// Slave work-queue counters over the interval.
    pub queue: QueueStats,
}

impl Interval {
    /// Latency of every unit, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.latency_ms).collect()
    }
}

fn table_options(workload: Workload) -> TableOptions {
    match workload {
        // Key space four times the row cache, and a memtable small enough
        // that the measured writes flush and compact it many times.
        Workload::PointMixed => TableOptions {
            row_cache_partitions: 1_024,
            memtable_flush_bytes: 128 * 1024,
            ..TableOptions::default()
        },
        _ => TableOptions::default(),
    }
}

impl Client {
    /// Issues operations as `schedule` says, on the calling thread.
    /// Returns what it saw and, when `spans` is set, when each operation
    /// was due (or, unpaced, sent) and when it ended.
    fn run(&mut self, schedule: Schedule, spans: bool) -> (Interval, Vec<(Instant, Instant)>) {
        let expected = match schedule {
            Schedule::Unpaced(n) => n,
            Schedule::Paced { every, limit, .. } => {
                (limit.as_secs_f64() / every.as_secs_f64()) as usize + 1
            }
        };
        // Room for the whole run now, so that the bookkeeping of the
        // benchmark allocates nothing while operations are in flight.
        let mut iv = Interval {
            units: Vec::with_capacity(expected),
            late_ms: Vec::with_capacity(expected),
            read_ms: Vec::with_capacity(expected),
            write_ms: Vec::with_capacity(expected),
            ..Interval::default()
        };
        let mut when = Vec::with_capacity(if spans { expected } else { 0 });
        let origin = match schedule {
            Schedule::Unpaced(_) => Instant::now(),
            Schedule::Paced { start, .. } => start,
        };
        for i in 0.. {
            let due = match schedule {
                Schedule::Unpaced(n) if i == n => break,
                Schedule::Unpaced(_) => None,
                Schedule::Paced {
                    start,
                    every,
                    limit,
                } => {
                    let offset = every * i as u32;
                    if offset >= limit || start.elapsed() >= limit {
                        break;
                    }
                    iv.generator_spin_s += wait_until(start + offset).as_secs_f64();
                    Some(start + offset)
                }
            };
            let plan = &self.plans[self.cursor];
            self.cursor = (self.cursor + 1) % self.plans.len();
            let sent = Instant::now();
            let outcome =
                self.master
                    .run_mixed(std::slice::from_ref(plan), None, &WriteOptions::default());
            let ended = Instant::now();
            // An open loop times an operation from when it was due: the
            // wait a stall imposes on the operations behind it counts.
            let from = due.unwrap_or(sent);
            if due.is_some() {
                iv.late_ms
                    .push(sent.duration_since(from).as_secs_f64() * 1e3);
            }
            iv.attempted += 1;
            let is_read = matches!(plan.op, MixedOp::Read);
            let mut completed = 0;
            match outcome {
                Ok(o) if (o.reads, o.writes_acked) == (is_read as u64, !is_read as u64) => {
                    completed = 1;
                    iv.busy_retries += o.busy_retries;
                    iv.stale_reads += o.stale_reads;
                    iv.read_repairs += o.read_repairs;
                    iv.read_ms.extend(o.read_latency_ms);
                    iv.write_ms.extend(o.write_latency_ms);
                    if is_read {
                        iv.messages += 1;
                        iv.store_reads += 1;
                    } else {
                        iv.messages += plan.route.replicas.len() as u64;
                        iv.store_writes += plan.route.replicas.len() as u64;
                    }
                }
                Ok(_) => iv.failed += 1,
                Err(e) => {
                    eprintln!("kvs-benchmark: operation failed: {e}");
                    iv.failed += 1;
                }
            }
            iv.subrequests += completed;
            iv.units.push(Unit {
                end_s: ended.duration_since(origin).as_secs_f64(),
                latency_ms: ended.duration_since(from).as_secs_f64() * 1e3,
                completed,
            });
            if spans {
                when.push((from, ended));
            }
        }
        (iv, when)
    }
}

impl World {
    /// Generates the inputs of `workload` from `seed`, loads them, starts
    /// and connects the system, and warms it up. Each step is a root span
    /// of `tracer`.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        work_root: &Path,
        tracer: &mut Tracer,
    ) -> io::Result<World> {
        let (partitions, cells_each) = workload.shape();
        let (nodes, rf) = match workload {
            Workload::SimAggFine => (SIM_NODES, 1),
            Workload::PointMixed => (NODES, 2),
            Workload::AggFine | Workload::AggCoarse => (NODES, 1),
        };
        let (data, stream) = tracer.timed("setup.generate", || {
            let data = Dataset::generate(seed, nodes, partitions, cells_each);
            // A seed of its own, so that the stream does not repeat the
            // draws the data set was made from.
            let stream: Option<Vec<PointOp>> = (workload == Workload::PointMixed)
                .then(|| point_ops(seed ^ (1 << 32), &data, POINT_STREAM_OPS));
            (data, stream)
        });
        let oracle = Oracle {
            total_cells: data.total_cells,
            counts_by_kind: data.counts_by_kind.clone(),
        };
        let keys = data.keys();
        let loaded = tracer.timed("setup.load", || {
            ClusterData::load(nodes, rf, table_options(workload), data.partitions)
        });
        let per_node = loaded.partitions_per_node();
        assert!(
            per_node
                .values()
                .all(|&n| n as usize == partitions / nodes as usize),
            "generator and loader disagree on placement: {per_node:?}"
        );

        let engine = if workload == Workload::SimAggFine {
            Engine::Sim {
                cfg: ClusterConfig::paper_optimized_master(SIM_NODES),
                data: loaded,
                keys,
            }
        } else {
            let dir = match workload {
                Workload::AggCoarse => Some(WorkDir::create(work_root, "durable")?),
                _ => None,
            };
            let (cluster, routes) = tracer.timed("setup.spawn", || match &dir {
                Some(dir) => spawn_local_cluster_durable(
                    loaded,
                    SERVER,
                    DurableClusterConfig {
                        root: dir.path().to_path_buf(),
                        // 256 blocks = 1 MiB per node against a 4.6 MB
                        // share: every query misses the block cache.
                        store: DurableOptions {
                            fsync: FsyncPolicy::Never,
                            block_cache_blocks: 256,
                            ..DurableOptions::default()
                        },
                        wal_tail: 0,
                    },
                ),
                None => spawn_local_cluster(loaded, SERVER),
            })?;
            let addrs = cluster.addrs();
            let (master, client) = tracer.timed("setup.connect", || {
                let master = NetMaster::connect(&addrs, NetConfig::default())?;
                let client = match &stream {
                    Some(ops) => Some(Client {
                        master: NetMaster::connect(&addrs, NetConfig::default())?,
                        plans: plans_of(ops, &keys, &routes),
                        cursor: 0,
                    }),
                    None => None,
                };
                io::Result::Ok((master, client))
            })?;
            Engine::Sockets {
                master,
                cluster,
                routes,
                client,
                _dir: dir,
            }
        };
        let mut world = World {
            workload,
            oracle,
            engine,
            sim_makespan: None,
        };
        let warm = tracer.timed("warmup", || world.warm_up());
        if warm.failed > 0 {
            return Err(io::Error::other(format!(
                "{} of {} warm-up sub-requests failed",
                warm.failed, warm.attempted
            )));
        }
        Ok(world)
    }

    fn warm_up(&mut self) -> Interval {
        let units = self.workload.warmup_units();
        if self.workload == Workload::PointMixed {
            return self.run_client(Schedule::Unpaced(units), None);
        }
        let mut iv = Interval::default();
        let origin = Instant::now();
        for _ in 0..units {
            self.query(&mut iv, origin, None);
        }
        iv
    }

    /// Measures for `seconds`. An aggregation query goes out when the
    /// previous one has answered — a closed loop, as an HPC caller waits
    /// for its result. The point operations of `point_mixed` go out on a
    /// fixed schedule of [`POINT_RATE`] a second, whatever became of the
    /// ones before — an open loop, as independent users make. With a
    /// tracer, every unit is a span, a query with its stage spans beneath,
    /// and allocations are counted while units are in flight.
    pub fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Interval {
        let queue_before = self.queue_stats();
        let start = Instant::now();
        let limit = Duration::from_secs_f64(seconds);
        let mut iv = if self.workload == Workload::PointMixed {
            self.run_client(
                Schedule::Paced {
                    start,
                    every: Duration::from_secs_f64(1.0 / POINT_RATE),
                    limit,
                },
                tracer,
            )
        } else {
            // Room for more queries than a run makes, so that the
            // benchmark's own record of them is not among the allocations
            // counted.
            let mut iv = Interval {
                units: Vec::with_capacity(1 << 16),
                ..Interval::default()
            };
            arm_alloc_counting(tracer.is_some());
            while start.elapsed() < limit {
                self.query(&mut iv, start, tracer.as_deref_mut());
            }
            arm_alloc_counting(false);
            iv
        };
        iv.wall_s = start.elapsed().as_secs_f64();
        let after = self.queue_stats();
        iv.queue = QueueStats {
            pushed: after.pushed - queue_before.pushed,
            busy_rejections: after.busy_rejections - queue_before.busy_rejections,
            blocked_pushes: after.blocked_pushes - queue_before.blocked_pushes,
            expired: after.expired - queue_before.expired,
            max_depth: after.max_depth,
        };
        iv
    }

    fn queue_stats(&self) -> QueueStats {
        match &self.engine {
            Engine::Sockets { cluster, .. } => cluster.queue_stats(),
            Engine::Sim { .. } => QueueStats::default(),
        }
    }

    /// Runs the client of `point_mixed` on the calling thread, on
    /// `schedule`.
    fn run_client(&mut self, schedule: Schedule, tracer: Option<&mut Tracer>) -> Interval {
        let Engine::Sockets {
            client: Some(client),
            ..
        } = &mut self.engine
        else {
            unreachable!("point operations run on sockets");
        };
        let spans = tracer.is_some();
        // All the benchmark itself allocates while counting is the client's
        // reservation for its records.
        arm_alloc_counting(spans);
        let (iv, when) = client.run(schedule, spans);
        arm_alloc_counting(false);
        if let Some(t) = tracer {
            // Detail spans: a run has tens of thousands.
            for (unit, (began, ended)) in when.into_iter().enumerate() {
                let (a, b) = (t.ns_of(began), t.ns_of(ended));
                t.detail_span(0, unit as u64 + 1, "op", a, b);
            }
        }
        iv
    }

    /// One aggregation query over every partition, checked and accounted;
    /// `origin` is when the interval it belongs to began.
    fn query(&mut self, iv: &mut Interval, origin: Instant, tracer: Option<&mut Tracer>) {
        let trace_start = tracer.as_ref().map(|t| t.now_ns());
        let t0 = Instant::now();
        let (result, subrequests) = match &mut self.engine {
            Engine::Sockets { master, routes, .. } => {
                let n = routes.len() as u64;
                match master.run_query(routes) {
                    Ok(report) => {
                        iv.tx_us += report.tx_micros;
                        iv.rx_us += report.rx_micros;
                        iv.busy_retries += report.busy_retries;
                        iv.timeout_retries += report.timeout_retries;
                        iv.failovers += report.failovers;
                        (Some(report.result), n)
                    }
                    Err(e) => {
                        eprintln!("kvs-benchmark: query failed: {e}");
                        (None, n)
                    }
                }
            }
            Engine::Sim { cfg, data, keys } => {
                let result = kvs_cluster::run_query(cfg, data, keys);
                (Some(result), keys.len() as u64)
            }
        };
        let elapsed = t0.elapsed();
        iv.attempted += subrequests;
        let mut ok = result.as_ref().is_some_and(|r| self.oracle.accepts(r));
        if let (Workload::SimAggFine, Some(r)) = (self.workload, &result) {
            // The simulator must replay a seed's query identically.
            let first = *self.sim_makespan.get_or_insert(r.makespan);
            ok &= r.makespan == first;
        }
        let completed = if ok { subrequests } else { 0 };
        iv.subrequests += completed;
        iv.failed += subrequests - completed;
        iv.units.push(Unit {
            end_s: (t0 + elapsed).duration_since(origin).as_secs_f64(),
            latency_ms: elapsed.as_secs_f64() * 1e3,
            completed,
        });
        let Some(result) = result else { return };
        iv.store_reads += subrequests;
        iv.messages += result.messages;
        iv.wire_bytes += result.bytes_to_slaves + result.bytes_to_master;
        for stage in Stage::ALL {
            if let Some(stats) = result.report.per_stage_ms.get(&stage) {
                iv.stage_sum_ms[stage.index()] += stats.sum();
            }
        }
        iv.stage_n += result.traces.len() as u64;

        if let (Some(t), Some(start_ns)) = (tracer, trace_start) {
            let unit = iv.units.len() as u64;
            let end_ns = start_ns + elapsed.as_nanos() as u64;
            let id = t.span(0, unit, "query", start_ns, end_ns);
            // Stage stamps of a socket run are wall-clock offsets from
            // the query's start. The simulator's are simulated time and
            // do not belong on this clock; its stages are reported as
            // metrics only.
            if self.workload != Workload::SimAggFine {
                for rt in &result.traces {
                    for stage in Stage::ALL {
                        if let Some(s) = rt.spans[stage.index()] {
                            t.detail_span(
                                id,
                                unit,
                                stage.name(),
                                start_ns + s.start.as_nanos(),
                                start_ns + s.end.as_nanos(),
                            );
                        }
                    }
                }
            }
        }
    }

    /// A last check that needs no timing: after all its updates,
    /// `point_mixed` must still aggregate to the oracle, because every
    /// update overwrote a cell with one of the same kind. Then stops the
    /// system and waits for its threads.
    pub fn finish(mut self) -> bool {
        let mut correct = true;
        if self.workload == Workload::PointMixed {
            let mut iv = Interval::default();
            self.query(&mut iv, Instant::now(), None);
            correct = iv.failed == 0;
        }
        if let Engine::Sockets {
            master,
            cluster,
            client,
            ..
        } = self.engine
        {
            if let Some(c) = client {
                c.master.shutdown();
            }
            master.shutdown();
            cluster.shutdown();
        }
        correct
    }
}

/// Lowers generated operations to write-path plans: reads at ONE, updates
/// at QUORUM.
fn plans_of(ops: &[PointOp], keys: &[PartitionKey], routes: &[Route]) -> Vec<MixedPlan> {
    let route_of: HashMap<&PartitionKey, &Route> = routes.iter().map(|r| (&r.key, r)).collect();
    ops.iter()
        .map(|op| {
            let route = route_of[&keys[op.partition]].clone();
            match &op.update {
                None => MixedPlan {
                    route,
                    op: MixedOp::Read,
                    consistency: Consistency::One,
                },
                Some(cell) => MixedPlan {
                    route,
                    op: MixedOp::Write {
                        cells: vec![cell.clone()],
                    },
                    consistency: Consistency::Quorum,
                },
            }
        })
        .collect()
}
