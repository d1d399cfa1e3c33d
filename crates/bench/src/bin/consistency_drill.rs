//! consistency_drill — the consistency–latency–staleness grid of the
//! replicated write path, measured and simulated.
//!
//! For every cell of rf ∈ {2, 3} × consistency ∈ {ONE, QUORUM, ALL} the
//! drill replays the *same* seeded 50/50 read/write schedule twice:
//!
//! * **sockets** — a 3-node loopback cluster behind per-node
//!   [`ChaosProxy`]s injecting seeded master→slave delay faults, driven
//!   through the replicated write path (`NetMaster::run_mixed`);
//! * **sim** — `kvs_cluster::sim::run_replicated`: the same write
//!   coordinator (`kvs_cluster::coord`) over simulated legs, fed
//!   leg-latency samples harvested from a healthy (passthrough-proxied)
//!   calibration run plus the same delay fault parameters.
//!
//! The PCAP-style story the grid tells: ONE acks fast and serves stale
//! reads while a delayed replica lags; QUORUM's overlapping majorities
//! keep acknowledged writes visible at a latency set by the 2nd-fastest
//! replica; ALL reads are never stale but pay the slowest leg. The drill
//! asserts the structural invariants (ALL staleness = 0 in both worlds,
//! no failed operations, no acknowledged-write loss in the sim). How
//! closely the two worlds agree on QUORUM write p99 is reported, against
//! a 25% band, and not asserted: it measures the transport, and a
//! wall-clock band is no test of the protocol the two worlds share.
//!
//! Knobs (environment):
//! - `KVSCALE_CONS_OPS` — operations per cell (default 600)
//! - `KVSCALE_CONS_PARTITIONS` — partitions (default 24)
//! - `KVSCALE_CONS_GAP_NS` — open-loop arrival gap (default 2 ms)
//! - `KVSCALE_CONS_DELAY_MS` — injected delay (default 20 ms)
//! - `KVSCALE_CONS_DELAY_PCT` — per-frame delay probability (default 12)
//! - `KVSCALE_CONS_SEED` — master seed (default 0xC0515)
//!
//! Output: a per-cell table, `target/figures/consistency_drill.csv` and
//! the schema-versioned `target/figures/BENCH_consistency.json`.

use kvs_bench::json::{self, int, num, obj, s, Value};
use kvs_bench::{banner, fmt_ms, Csv};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{
    run_replicated, ClusterData, Consistency, DelayFault, OpKind, ReplicationOutcome,
    ReplicationSimConfig, SimOp,
};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    MixedOp, MixedOutcome, MixedPlan, NetConfig, NetMaster, NetServerConfig, Route, WriteOptions,
};
use kvs_store::{Cell, TableOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const NODES: u32 = 3;
const CELLS_PER_PARTITION: u64 = 8;
const KINDS: u8 = 4;
const CALIBRATION_OPS: usize = 200;
const QUORUM_P99_REL_ERR: f64 = 0.25;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One op of the seeded schedule, world-agnostic.
#[derive(Debug, Clone, Copy)]
struct DrillOp {
    partition: u64,
    write: bool,
}

/// The seeded 50/50 read/write schedule every cell replays.
fn schedule(ops: usize, partitions: u64, seed: u64) -> Vec<DrillOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_5C11D);
    (0..ops)
        .map(|_| DrillOp {
            partition: rng.gen_range(0..partitions),
            write: rng.gen_bool(0.5),
        })
        .collect()
}

fn net_cfg() -> NetConfig {
    NetConfig {
        timeout: Duration::from_millis(250),
        ..NetConfig::default()
    }
}

/// Lowers the schedule to mixed plans against a spawned cluster's routes.
fn plans_for(sched: &[DrillOp], routes: &[Route], cl: Consistency) -> Vec<MixedPlan> {
    sched
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let route = routes[op.partition as usize].clone();
            let op = if op.write {
                MixedOp::Write {
                    // Fresh clustering keys far above the seed data, so
                    // writes accumulate instead of overwriting.
                    cells: vec![Cell::new(
                        2_000_000 + i as u64,
                        (i % KINDS as usize) as u8,
                        vec![0xC5; 16],
                    )],
                }
            } else {
                MixedOp::Read
            };
            MixedPlan {
                route,
                op,
                consistency: cl,
            }
        })
        .collect()
}

/// Runs one socket-world cell: spawn, wrap in chaos proxies, drive the
/// schedule, tear down.
fn socket_cell(
    sched: &[DrillOp],
    partitions: u64,
    rf: usize,
    cl: Consistency,
    gap_ns: u64,
    schedules: Vec<ChaosSchedule>,
) -> MixedOutcome {
    let data = ClusterData::load(
        NODES,
        rf,
        TableOptions::default(),
        uniform_partitions(partitions, CELLS_PER_PARTITION, KINDS),
    );
    let (cluster, routes) =
        spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
    let (proxies, proxied) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies spawn");
    let mut master = NetMaster::connect(&proxied, net_cfg()).expect("master connects");
    let plans = plans_for(sched, &routes, cl);
    let arrivals: Vec<u64> = (0..plans.len() as u64).map(|i| i * gap_ns).collect();
    let out = master
        .run_mixed(&plans, Some(&arrivals), &WriteOptions::default())
        .expect("mixed run succeeds");
    master.shutdown();
    for proxy in proxies {
        proxy.shutdown();
    }
    cluster.shutdown();
    out
}

/// Runs the simulated write path on the same schedule.
fn sim_cell(
    sched: &[DrillOp],
    rf: usize,
    cl: Consistency,
    gap_ns: u64,
    seed: u64,
    legs: &[f64],
    delay: DelayFault,
) -> ReplicationOutcome {
    let cfg = ReplicationSimConfig {
        nodes: NODES as usize,
        rf,
        seed,
        leg_latency_ms: legs.to_vec(),
        delay: Some(delay),
        down: Vec::new(),
        hint_queue_cap: 1024,
    };
    let gap_ms = gap_ns as f64 / 1e6;
    let ops: Vec<SimOp> = sched
        .iter()
        .enumerate()
        .map(|(i, op)| SimOp {
            at_ms: i as f64 * gap_ms,
            partition: op.partition,
            kind: if op.write {
                OpKind::Write
            } else {
                OpKind::Read
            },
            consistency: cl,
        })
        .collect();
    run_replicated(&cfg, &ops)
}

fn p99(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    kvs_simcore::stats::percentile_sorted(&v, 0.99)
}

fn stale_fraction(stale: u64, reads: u64) -> f64 {
    if reads == 0 {
        0.0
    } else {
        stale as f64 / reads as f64
    }
}

fn world_obj(
    writes: &[f64],
    reads: &[f64],
    stale: f64,
    counters: Vec<(&'static str, Value)>,
) -> Value {
    let mut fields = vec![
        ("writes", json::latency_summary_ms(writes)),
        ("reads", json::latency_summary_ms(reads)),
        ("stale_read_fraction", num(stale)),
    ];
    fields.extend(counters);
    obj(fields)
}

fn main() {
    let ops = env_u64("KVSCALE_CONS_OPS", 600).max(50) as usize;
    let partitions = env_u64("KVSCALE_CONS_PARTITIONS", 24).clamp(4, 4096);
    let gap_ns = env_u64("KVSCALE_CONS_GAP_NS", 2_000_000).max(1);
    let delay_ms = env_u64("KVSCALE_CONS_DELAY_MS", 20).max(1);
    let delay_pct = env_u64("KVSCALE_CONS_DELAY_PCT", 12).clamp(1, 90);
    let seed = env_u64("KVSCALE_CONS_SEED", 0xC0515);
    let delay_p = delay_pct as f64 / 100.0;
    banner(
        "consistency_drill",
        "ONE/QUORUM/ALL under seeded delay faults, sim vs sockets",
    );
    println!(
        "\n{ops} ops/cell over {partitions} partitions, {NODES} nodes, arrivals every \
         {} µs, delay {delay_ms} ms at {delay_pct}% (master→slave), seed {seed:#x}\n",
        gap_ns / 1_000
    );

    let sched = schedule(ops, partitions, seed);
    let writes_in_sched = sched.iter().filter(|o| o.write).count();

    // --- Calibration: a healthy rf = 1 run through passthrough proxies
    // harvests the leg-latency pool the sim samples from. Proxies stay
    // in the loop so the calibrated legs include the extra hop the faulty
    // cells also pay.
    let passthrough: Vec<ChaosSchedule> = (0..NODES as u64)
        .map(|n| ChaosSchedule::passthrough(seed ^ n))
        .collect();
    let cal_sched = schedule(CALIBRATION_OPS, partitions, seed ^ 0xCA11B);
    let cal = socket_cell(
        &cal_sched,
        partitions,
        1,
        Consistency::One,
        200_000,
        passthrough,
    );
    assert_eq!(
        (cal.reads_failed, cal.writes_failed),
        (0, 0),
        "calibration must be failure-free: {cal:?}"
    );
    let mut legs: Vec<f64> = Vec::new();
    legs.extend_from_slice(&cal.read_latency_ms);
    legs.extend_from_slice(&cal.write_latency_ms);
    println!(
        "calibration: {} legs harvested, p99 {}\n",
        legs.len(),
        fmt_ms(p99(&legs))
    );

    let delay = DelayFault {
        probability: delay_p,
        extra_ms: delay_ms as f64,
    };
    let mut csv = Csv::new(
        "consistency_drill",
        &[
            "rf",
            "consistency",
            "world",
            "write_p99_ms",
            "read_p99_ms",
            "stale_fraction",
            "writes_acked",
            "read_repairs",
        ],
    );
    let mut cells: Vec<Value> = Vec::new();
    let mut quorum_errs: Vec<(usize, f64)> = Vec::new();

    for rf in [2usize, 3] {
        for cl in [Consistency::One, Consistency::Quorum, Consistency::All] {
            let schedules: Vec<ChaosSchedule> = (0..NODES as u64)
                .map(|n| ChaosSchedule {
                    seed: seed ^ (rf as u64) << 8 ^ n,
                    rules: vec![ChaosRule {
                        direction: ChaosDirection::ToSlave,
                        action: FaultAction::Delay(Duration::from_millis(delay_ms)),
                        probability: delay_p,
                        after_frame: 0,
                        until_frame: None,
                    }],
                    blackhole_from: None,
                })
                .collect();
            let sock = socket_cell(&sched, partitions, rf, cl, gap_ns, schedules);
            assert_eq!(
                (sock.reads_failed, sock.writes_failed),
                (0, 0),
                "rf {rf} {} must be failure-free under delay-only faults: {sock:?}",
                cl.name()
            );
            assert_eq!(sock.writes_acked as usize, writes_in_sched);
            let sim = sim_cell(&sched, rf, cl, gap_ns, seed, &legs, delay);
            assert_eq!(sim.lost_acked_writes, 0, "the sim never loses acks");
            let (lost, sim) = (sim.lost_acked_writes, sim.mixed);
            assert_eq!(
                (sim.reads_failed, sim.writes_failed),
                (0, 0),
                "the sim must be failure-free too: {sim:?}"
            );
            assert_eq!(sim.writes_acked as usize, writes_in_sched);

            let sock_stale = stale_fraction(sock.stale_reads, sock.reads);
            let sim_stale = stale_fraction(sim.stale_reads, sim.reads);
            if cl == Consistency::All {
                assert_eq!(
                    (sock.stale_reads, sim.stale_reads),
                    (0, 0),
                    "ALL reads cover every replica and can never be stale"
                );
            }
            let (sock_wp99, sock_rp99) = (p99(&sock.write_latency_ms), p99(&sock.read_latency_ms));
            let (sim_wp99, sim_rp99) = (p99(&sim.write_latency_ms), p99(&sim.read_latency_ms));
            if cl == Consistency::Quorum {
                let rel = (sim_wp99 - sock_wp99).abs() / sock_wp99.max(1e-9);
                quorum_errs.push((rf, rel));
            }
            println!(
                "rf {rf} {:<6} sockets  write p99 {:>9}  read p99 {:>9}  stale {:>5.1}%  \
                 repairs {}",
                cl.name(),
                fmt_ms(sock_wp99),
                fmt_ms(sock_rp99),
                sock_stale * 100.0,
                sock.read_repairs,
            );
            println!(
                "     {:<6} sim      write p99 {:>9}  read p99 {:>9}  stale {:>5.1}%  \
                 repairs {}",
                "",
                fmt_ms(sim_wp99),
                fmt_ms(sim_rp99),
                sim_stale * 100.0,
                sim.read_repairs,
            );
            for (world, wp99, rp99, stale, acked, repairs) in [
                (
                    "sockets",
                    sock_wp99,
                    sock_rp99,
                    sock_stale,
                    sock.writes_acked,
                    sock.read_repairs,
                ),
                (
                    "sim",
                    sim_wp99,
                    sim_rp99,
                    sim_stale,
                    sim.writes_acked,
                    sim.read_repairs,
                ),
            ] {
                csv.row(&[
                    &rf,
                    &cl.name(),
                    &world,
                    &format!("{wp99:.4}"),
                    &format!("{rp99:.4}"),
                    &format!("{stale:.4}"),
                    &acked,
                    &repairs,
                ]);
            }
            cells.push(obj(vec![
                ("rf", int(rf as u64)),
                ("consistency", s(cl.name())),
                (
                    "sockets",
                    world_obj(
                        &sock.write_latency_ms,
                        &sock.read_latency_ms,
                        sock_stale,
                        vec![
                            ("writes_acked", int(sock.writes_acked)),
                            ("stale_reads", int(sock.stale_reads)),
                            ("divergent_reads", int(sock.divergent_reads)),
                            ("read_repairs", int(sock.read_repairs)),
                            ("hints_queued", int(sock.hints_queued)),
                            ("busy_retries", int(sock.busy_retries)),
                        ],
                    ),
                ),
                (
                    "sim",
                    world_obj(
                        &sim.write_latency_ms,
                        &sim.read_latency_ms,
                        sim_stale,
                        vec![
                            ("writes_acked", int(sim.writes_acked)),
                            ("stale_reads", int(sim.stale_reads)),
                            ("divergent_reads", int(sim.divergent_reads)),
                            ("read_repairs", int(sim.read_repairs)),
                            ("hints_queued", int(sim.hints_queued)),
                            ("lost_acked_writes", int(lost)),
                        ],
                    ),
                ),
            ]));
        }
    }

    // --- Report only: how closely the two worlds agree on QUORUM write
    // p99 at both replication factors.
    println!();
    let mut agreement: Vec<Value> = Vec::new();
    for (rf, rel) in &quorum_errs {
        let within = *rel <= QUORUM_P99_REL_ERR;
        println!(
            "QUORUM write-p99 sim-vs-sockets relative error at rf {rf}: {rel:.3} \
             ({} the {QUORUM_P99_REL_ERR} band)",
            if within { "within" } else { "outside" }
        );
        agreement.push(obj(vec![
            ("rf", int(*rf as u64)),
            ("write_p99_rel_err", num(*rel)),
            ("bound", num(QUORUM_P99_REL_ERR)),
            ("within_bound", Value::Bool(within)),
        ]));
    }

    json::write_report(&json::report(
        "consistency",
        obj(vec![
            ("ops_per_cell", int(ops as u64)),
            ("partitions", int(partitions)),
            ("nodes", int(NODES as u64)),
            ("replication_factors", Value::Arr(vec![int(2), int(3)])),
            ("arrival_gap_ns", int(gap_ns)),
            ("delay_ms", int(delay_ms)),
            ("delay_probability", num(delay_p)),
            ("seed", int(seed)),
            ("calibration_ops", int(CALIBRATION_OPS as u64)),
        ]),
        obj(vec![
            (
                "calibration",
                obj(vec![
                    ("legs", int(legs.len() as u64)),
                    ("leg_latency", json::latency_summary_ms(&legs)),
                ]),
            ),
            ("cells", Value::Arr(cells)),
            ("quorum_agreement", Value::Arr(agreement)),
        ]),
    ))
    .expect("write BENCH_consistency.json");
    csv.finish();
}
