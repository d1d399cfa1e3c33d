//! `drill workloads`: the YCSB-style mixes and the surrogate-model DHT
//! scenario, on both execution engines.
//!
//! For each of the four standard mixes (`kvs_workloads::ycsb`) one seeded
//! operation stream runs the *same* arrival schedule twice. The simulated
//! world (`cluster::sim`, paper cost model, simulated milliseconds) prices
//! the read-path projection (`expand_requests`): every leg shaped as a
//! request, RMW as two sequential rounds. The measured world lowers the
//! stream to *typed* legs (`lower_ops`) and issues them over loopback
//! sockets through the replicated write path (`NetMaster::run_mixed`):
//! reads stay read frames, updates and inserts become LWW `Write` frames,
//! RMWs a single `Rmw` frame. Per-operation latency re-aggregates the
//! legs: scans take the max of their fan-out; in the sim world an RMW is
//! the sum of its two rounds, on the wire it is its one frame. The two
//! worlds' absolute latencies differ by design — the simulator charges
//! 2010-era Cassandra service times, the sockets pay this machine's
//! loopback — so both are reported and closeness is not asserted; the
//! apples-to-apples cross-checks live in `crates/net/tests/workload_mix.rs`
//! (straggler p99) and `drill consistency` (QUORUM p99).
//!
//! The surrogate-DHT scenario (`kvs_workloads::surrogate`) then runs the
//! same seeded walk against the RAM table and the durable tier, reporting
//! the hit-rate curve and the `ReadReceipt` disk-vs-cache split as the
//! table fills.

use super::{field, stages_ms, Rig};
use kvs_bench::fmt_ms;
use kvs_bench::json::{int, latency_summary_ms, num, obj, s, Value};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::sim::run_query_paced;
use kvs_cluster::{ClusterConfig, ClusterData, Consistency};
use kvs_net::{MixedOp, MixedOutcome, MixedPlan, NetConfig, Route, WriteOptions};
use kvs_simcore::SimDuration;
use kvs_stages::RequestTrace;
use kvs_store::{Cell, CostModel, PartitionKey, Table, TableOptions};
use kvs_workloads::surrogate::{run_surrogate, SurrogateConfig, SurrogateOutcome};
use kvs_workloads::ycsb::{
    expand_requests, generate_ops, lower_ops, max_keyspace, standard_mixes, Leg, LegKind, Op,
    OpKind,
};
use std::collections::HashMap;
use std::time::Instant;

const CELLS_PER_PARTITION: u64 = 32;
const KINDS: u8 = 4;
const OPS_PER_MIX: u64 = 1_200;
const INITIAL_KEYS: u64 = 256;
const NODES: u32 = 3;
const GAP_NS: u64 = 250_000;
const SEED: u64 = 0xD87;

/// Re-aggregates the sim world's per-request latencies into
/// per-operation latencies: max over a fan-out (scan), sum over
/// sequential legs (RMW — the read-path projection prices it as two
/// rounds).
fn op_latencies_ms(ops: &[Op], op_of_request: &[usize], traces: &[RequestTrace]) -> Vec<f64> {
    let mut per_op = vec![0.0f64; ops.len()];
    for trace in traces {
        let op_ix = op_of_request[trace.request_id as usize];
        let ms = trace.total().as_millis_f64();
        match ops[op_ix].kind {
            OpKind::ReadModifyWrite => per_op[op_ix] += ms,
            _ => per_op[op_ix] = per_op[op_ix].max(ms),
        }
    }
    per_op
}

/// Turns a typed leg into its mixed-plan operation. Every write carries
/// one fresh 16-byte cell in a clustering range far above the seeded
/// data, so legs never overwrite each other or the pre-loaded cells.
fn leg_op(leg_ix: usize, leg: &Leg) -> MixedOp {
    let cells = vec![Cell::new(
        1_000_000 + leg_ix as u64,
        (leg_ix % KINDS as usize) as u8,
        vec![0x57; 16],
    )];
    match leg.kind {
        LegKind::Read => MixedOp::Read,
        LegKind::Write => MixedOp::Write { cells },
        LegKind::Rmw => MixedOp::Rmw { cells },
    }
}

/// Zips the mixed outcome's completion-ordered latencies back onto the
/// legs (the coordinator is closed-loop, so successful reads complete in
/// plan order and acked writes likewise), then re-aggregates per
/// operation: max over a scan's fan-out, single leg otherwise. Requires a
/// failure-free run, which the caller asserts.
fn op_latencies_from_mixed(ops: &[Op], legs: &[Leg], mixed: &MixedOutcome) -> Vec<f64> {
    let mut per_op = vec![0.0f64; ops.len()];
    let mut reads = mixed.read_latency_ms.iter();
    let mut writes = mixed.write_latency_ms.iter();
    for leg in legs {
        let ms = match leg.kind {
            LegKind::Read => reads.next().expect("a latency per read leg"),
            LegKind::Write | LegKind::Rmw => writes.next().expect("a latency per write leg"),
        };
        per_op[leg.op_ix] = per_op[leg.op_ix].max(*ms);
    }
    per_op
}

/// The world's log line: p50/p95/p99 of its per-operation latency.
fn print_world(mix: &str, world: &str, latency: &Value, tail: String) {
    println!(
        "{mix:<18} {world:<7} p50 {:>9}  p95 {:>9}  p99 {:>9}  ({tail})",
        fmt_ms(field(latency, "p50_ms")),
        fmt_ms(field(latency, "p95_ms")),
        fmt_ms(field(latency, "p99_ms")),
    );
}

/// One mix on both worlds.
fn mix(spec: &kvs_workloads::ycsb::MixSpec, keyspace: u64) -> Value {
    let ops = generate_ops(spec, INITIAL_KEYS, OPS_PER_MIX, SEED);
    let data = || {
        ClusterData::load(
            NODES,
            1,
            TableOptions::default(),
            uniform_partitions(keyspace, CELLS_PER_PARTITION, KINDS),
        )
    };

    // Simulated world: paper cost model, same schedule.
    let requests = expand_requests(&ops);
    let op_of_request: Vec<usize> = requests.iter().map(|&(op, _)| op).collect();
    let keys: Vec<PartitionKey> = requests
        .iter()
        .map(|&(_, key)| PartitionKey::from_id(key))
        .collect();
    let mut cfg = ClusterConfig::paper_optimized_master(NODES).deterministic();
    cfg.replication_factor = 1;
    let arrivals: Vec<SimDuration> = (0..keys.len() as u64)
        .map(|i| SimDuration::from_nanos(i * GAP_NS))
        .collect();
    let sim = run_query_paced(&cfg, &mut data(), &keys, &arrivals);
    let sim_lat = latency_summary_ms(&op_latencies_ms(&ops, &op_of_request, &sim.traces));
    let sim_tput = ops.len() as f64 / sim.makespan.as_secs_f64().max(1e-9);
    let tail = format!("{sim_tput:.0} ops/s simulated");
    print_world(spec.name, "sim", &sim_lat, tail);

    // Measured world: typed legs over loopback sockets through the
    // replicated write path, same arrival schedule. rf = 1, so ONE is
    // also ALL; the point here is the real frame kinds, not replication
    // (`drill consistency` sweeps rf and consistency level).
    let legs = lower_ops(&ops);
    let mut rig = Rig::boot(data(), None, NetConfig::default());
    let route_of: HashMap<&[u8], &Route> =
        rig.routes.iter().map(|r| (r.key.as_bytes(), r)).collect();
    let plans: Vec<MixedPlan> = legs
        .iter()
        .enumerate()
        .map(|(leg_ix, leg)| MixedPlan {
            route: (*route_of[PartitionKey::from_id(leg.key).as_bytes()]).clone(),
            op: leg_op(leg_ix, leg),
            consistency: Consistency::One,
        })
        .collect();
    let arrivals_ns: Vec<u64> = (0..plans.len() as u64).map(|i| i * GAP_NS).collect();
    let mixed = rig
        .master
        .run_mixed(&plans, Some(&arrivals_ns), &WriteOptions::default())
        .expect("socket run succeeds");
    rig.teardown();
    assert_eq!(
        (mixed.reads_failed, mixed.writes_failed),
        (0, 0),
        "healthy loopback run must not fail legs: {mixed:?}"
    );
    let net_lat = latency_summary_ms(&op_latencies_from_mixed(&ops, &legs, &mixed));
    let net_tput = ops.len() as f64 / (mixed.makespan_ms / 1e3).max(1e-9);
    let acked = mixed.writes_acked;
    let tail = format!("{net_tput:.0} ops/s measured, {acked} writes acked");
    print_world("", "sockets", &net_lat, tail);

    obj(vec![
        ("name", s(spec.name)),
        ("distribution", s(spec.dist.name())),
        ("ops", int(ops.len() as u64)),
        ("requests", int(requests.len() as u64)),
        ("legs", int(legs.len() as u64)),
        (
            "sim",
            obj(vec![
                ("latency", sim_lat),
                ("stages_ms", stages_ms(&sim.report)),
                ("throughput_ops_s", num(sim_tput)),
            ]),
        ),
        (
            "sockets",
            obj(vec![
                ("latency", net_lat),
                ("throughput_ops_s", num(net_tput)),
                ("reads", int(mixed.reads)),
                ("writes_acked", int(mixed.writes_acked)),
                ("stale_reads", int(mixed.stale_reads)),
                ("read_repairs", int(mixed.read_repairs)),
                ("busy_retries", int(mixed.busy_retries)),
            ]),
        ),
    ])
}

fn surrogate_obj(label: &str, out: &SurrogateOutcome, wall_ms: f64) -> Value {
    println!(
        "  {label:<8} hit-rate {:.1}% ({} hits / {} misses, {} unique keys), \
         first window {:.2} → last {:.2}, wall {}",
        out.hit_rate() * 100.0,
        out.hits,
        out.misses,
        out.unique_keys,
        out.hit_curve.first().copied().unwrap_or(0.0),
        out.hit_curve.last().copied().unwrap_or(0.0),
        fmt_ms(wall_ms),
    );
    let service: Vec<f64> = out.steps.iter().map(|s| s.service_ms).collect();
    // Decimate the curve so the report stays small at any step count.
    let stride = (out.hit_curve.len() / 32).max(1);
    let curve = out.hit_curve.iter().step_by(stride).map(|&h| num(h));
    let receipt = &out.receipt;
    obj(vec![
        ("steps", int(out.steps.len() as u64)),
        ("hits", int(out.hits)),
        ("misses", int(out.misses)),
        ("unique_keys", int(out.unique_keys)),
        ("hit_rate", num(out.hit_rate())),
        ("hit_rate_curve", Value::Arr(curve.collect())),
        ("service", latency_summary_ms(&service)),
        ("simulated_total_ms", num(out.total_ms)),
        ("wall_ms", num(wall_ms)),
        ("disk_blocks_read", int(receipt.disk_blocks_read)),
        ("disk_block_cache_hits", int(receipt.disk_block_cache_hits)),
        ("disk_bytes_read", int(receipt.disk_bytes_read)),
    ])
}

/// The surrogate DHT on the RAM table, then on the durable tier.
fn surrogate(scfg: &SurrogateConfig) -> Value {
    let cost = CostModel::paper_cassandra().deterministic();
    println!(
        "surrogate DHT: {} steps over a {}^{} grid, kernel {} on a miss",
        scfg.steps,
        scfg.grid.cells_per_dim,
        scfg.grid.dims,
        fmt_ms(scfg.compute_ms)
    );
    let start = Instant::now();
    let ram = run_surrogate(scfg, &mut Table::with_defaults(), &cost, SEED);
    let ram_wall_ms = start.elapsed().as_secs_f64() * 1_000.0;

    let dir = kvs_store::TempDir::new("workload-surrogate");
    let (mut durable_table, _) = kvs_store::DurableTable::open(
        dir.path(),
        kvs_store::DurableOptions {
            fsync: kvs_store::FsyncPolicy::Never,
            ..kvs_store::DurableOptions::default()
        },
    )
    .expect("open durable surrogate store");
    let start = Instant::now();
    let durable = run_surrogate(scfg, &mut durable_table, &cost, SEED);
    let durable_wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    drop(durable_table);

    assert_eq!(
        ram.hits, durable.hits,
        "the two backends disagree on the hit sequence"
    );
    let ram = surrogate_obj("ram", &ram, ram_wall_ms);
    let durable = surrogate_obj("durable", &durable, durable_wall_ms);
    obj(vec![("ram", ram), ("durable", durable)])
}

/// Runs the four mixes and the surrogate DHT; returns the scenario's
/// config and results.
pub fn run() -> (Value, Value) {
    println!(
        "{OPS_PER_MIX} ops/mix over {INITIAL_KEYS}+ keys, {NODES} nodes, \
         arrivals every {} µs, seed {SEED:#x}",
        GAP_NS / 1_000
    );
    let keyspace = max_keyspace(INITIAL_KEYS, OPS_PER_MIX);
    let mixes = standard_mixes().each_ref().map(|spec| mix(spec, keyspace));
    let scfg = SurrogateConfig::smoke();
    let surrogate_results = surrogate(&scfg);
    let config = obj(vec![
        ("ops_per_mix", int(OPS_PER_MIX)),
        ("initial_keys", int(INITIAL_KEYS)),
        ("provisioned_keys", int(keyspace)),
        ("cells_per_partition", int(CELLS_PER_PARTITION)),
        ("nodes", int(NODES.into())),
        ("arrival_gap_ns", int(GAP_NS)),
        ("seed", int(SEED)),
        (
            "surrogate",
            obj(vec![
                ("dims", int(scfg.grid.dims as u64)),
                ("cells_per_dim", int(scfg.grid.cells_per_dim)),
                ("steps", int(scfg.steps)),
                ("walk_step", num(scfg.walk_step)),
                ("jump_probability", num(scfg.jump_probability)),
                ("compute_ms", num(scfg.compute_ms)),
            ]),
        ),
    ]);
    let results = obj(vec![
        ("mixes", Value::Arr(mixes.into())),
        ("surrogate", surrogate_results),
    ]);
    (config, results)
}
