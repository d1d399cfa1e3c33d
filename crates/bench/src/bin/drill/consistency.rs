//! `drill consistency`: the consistency–latency–staleness grid of the
//! replicated write path, measured and simulated.
//!
//! For every cell of rf ∈ {2, 3} × consistency ∈ {ONE, QUORUM, ALL} the
//! same seeded 50/50 read/write schedule runs twice:
//!
//! * **sockets** — a 3-node loopback cluster behind per-node proxies
//!   injecting seeded master→slave delay faults, driven through the
//!   replicated write path (`NetMaster::run_mixed`);
//! * **sim** — `kvs_cluster::sim::run_replicated`: the same write
//!   coordinator (`kvs_cluster::coord`) over simulated legs, fed
//!   leg-latency samples harvested from a healthy (passthrough-proxied)
//!   calibration run plus the same delay fault parameters.
//!
//! ONE acks fast and serves stale reads while a delayed replica lags;
//! QUORUM's overlapping majorities keep acknowledged writes visible at a
//! latency set by the 2nd-fastest replica; ALL reads are never stale but
//! pay the slowest leg. The scenario asserts the structural invariants
//! (ALL staleness = 0 in both worlds, no failed operation, every write
//! acknowledged, no acknowledged-write loss in the sim). How closely the
//! two worlds agree on QUORUM write p99 is reported against a 25% band
//! and not asserted: it measures the transport, and a wall-clock band is
//! no test of the protocol the two worlds share.

use super::{field, Rig};
use kvs_bench::fmt_ms;
use kvs_bench::json::{int, latency_summary_ms, num, obj, s, Value};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{
    run_replicated, ClusterData, Consistency, DelayFault, MixedOutcome, OpKind,
    ReplicationSimConfig, SimOp,
};
use kvs_net::{
    ChaosDirection, ChaosRule, ChaosSchedule, FaultAction, MixedOp, MixedPlan, NetConfig, Route,
    WriteOptions,
};
use kvs_store::{Cell, TableOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const NODES: u32 = 3;
const CELLS_PER_PARTITION: u64 = 8;
const KINDS: u8 = 4;
const OPS: usize = 600;
const PARTITIONS: u64 = 24;
const GAP_NS: u64 = 2_000_000;
const DELAY_MS: u64 = 20;
const DELAY_P: f64 = 0.12;
const SEED: u64 = 0xC0515;
const CALIBRATION_OPS: usize = 200;
const QUORUM_P99_REL_ERR: f64 = 0.25;

/// One op of the seeded schedule, world-agnostic.
#[derive(Debug, Clone, Copy)]
struct DrillOp {
    partition: u64,
    write: bool,
}

/// The seeded 50/50 read/write schedule every cell replays.
fn schedule(ops: usize, seed: u64) -> Vec<DrillOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_5C11D);
    (0..ops)
        .map(|_| DrillOp {
            partition: rng.gen_range(0..PARTITIONS),
            write: rng.gen_bool(0.5),
        })
        .collect()
}

/// Lowers the schedule to mixed plans against a spawned cluster's routes.
fn plans_for(sched: &[DrillOp], routes: &[Route], cl: Consistency) -> Vec<MixedPlan> {
    sched
        .iter()
        .enumerate()
        .map(|(i, op)| MixedPlan {
            route: routes[op.partition as usize].clone(),
            op: if op.write {
                // Fresh clustering keys far above the seed data, so
                // writes accumulate instead of overwriting.
                MixedOp::Write {
                    cells: vec![Cell::new(
                        2_000_000 + i as u64,
                        (i % KINDS as usize) as u8,
                        vec![0xC5; 16],
                    )],
                }
            } else {
                MixedOp::Read
            },
            consistency: cl,
        })
        .collect()
}

/// Runs one socket-world cell through proxies carrying `schedules`.
fn socket_cell(
    sched: &[DrillOp],
    rf: usize,
    cl: Consistency,
    gap_ns: u64,
    schedules: Vec<ChaosSchedule>,
) -> MixedOutcome {
    let data = ClusterData::load(
        NODES,
        rf,
        TableOptions::default(),
        uniform_partitions(PARTITIONS, CELLS_PER_PARTITION, KINDS),
    );
    let cfg = NetConfig {
        timeout: Duration::from_millis(250),
        ..NetConfig::default()
    };
    let mut rig = Rig::boot(data, Some(schedules), cfg);
    let plans = plans_for(sched, &rig.routes, cl);
    let arrivals: Vec<u64> = (0..plans.len() as u64).map(|i| i * gap_ns).collect();
    let out = rig
        .master
        .run_mixed(&plans, Some(&arrivals), &WriteOptions::default())
        .expect("mixed run succeeds");
    rig.teardown();
    out
}

/// Runs the simulated write path on the same schedule; returns the
/// outcome and the acknowledged writes the sim lost.
fn sim_cell(sched: &[DrillOp], rf: usize, cl: Consistency, legs: &[f64]) -> (MixedOutcome, u64) {
    let cfg = ReplicationSimConfig {
        nodes: NODES as usize,
        rf,
        seed: SEED,
        leg_latency_ms: legs.to_vec(),
        delay: Some(DelayFault {
            probability: DELAY_P,
            extra_ms: DELAY_MS as f64,
        }),
        down: Vec::new(),
        hint_queue_cap: 1024,
    };
    let gap_ms = GAP_NS as f64 / 1e6;
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
    let out = run_replicated(&cfg, &ops);
    (out.mixed, out.lost_acked_writes)
}

/// One world's half of a grid cell, after its fatal checks.
fn world_obj(
    label: &str,
    out: &MixedOutcome,
    cl: Consistency,
    writes_in_sched: usize,
    extra: (&'static str, u64),
) -> Value {
    assert_eq!(
        (out.reads_failed, out.writes_failed),
        (0, 0),
        "{label} {} must be failure-free under delay-only faults: {out:?}",
        cl.name()
    );
    assert_eq!(
        out.writes_acked as usize, writes_in_sched,
        "{label}: a write went unacked"
    );
    if cl == Consistency::All {
        assert_eq!(
            out.stale_reads, 0,
            "{label}: ALL reads cover every replica and can never be stale"
        );
    }
    let stale = out.stale_reads as f64 / out.reads.max(1) as f64;
    let (writes, reads) = (
        latency_summary_ms(&out.write_latency_ms),
        latency_summary_ms(&out.read_latency_ms),
    );
    println!(
        "    {label:<14} write p99 {:>9}  read p99 {:>9}  stale {:>5.1}%  repairs {}",
        fmt_ms(field(&writes, "p99_ms")),
        fmt_ms(field(&reads, "p99_ms")),
        stale * 100.0,
        out.read_repairs,
    );
    obj(vec![
        ("writes", writes),
        ("reads", reads),
        ("stale_read_fraction", num(stale)),
        ("writes_acked", int(out.writes_acked)),
        ("stale_reads", int(out.stale_reads)),
        ("divergent_reads", int(out.divergent_reads)),
        ("read_repairs", int(out.read_repairs)),
        ("hints_queued", int(out.hints_queued)),
        (extra.0, int(extra.1)),
    ])
}

/// Runs the calibration and the grid; returns the scenario's config and
/// results.
pub fn run() -> (Value, Value) {
    println!(
        "{OPS} ops/cell over {PARTITIONS} partitions, {NODES} nodes, arrivals every \
         {} µs, delay {DELAY_MS} ms at p = {DELAY_P} (master→slave), seed {SEED:#x}",
        GAP_NS / 1_000
    );
    let sched = schedule(OPS, SEED);
    let writes_in_sched = sched.iter().filter(|o| o.write).count();

    // Calibration: a healthy rf = 1 run through passthrough proxies
    // harvests the leg-latency pool the sim samples from. Proxies stay in
    // the loop so the calibrated legs include the extra hop the faulty
    // cells also pay.
    let passthrough = (0..NODES as u64)
        .map(|n| ChaosSchedule::passthrough(SEED ^ n))
        .collect();
    let cal_sched = schedule(CALIBRATION_OPS, SEED ^ 0xCA11B);
    let cal = socket_cell(&cal_sched, 1, Consistency::One, 200_000, passthrough);
    assert_eq!(
        (cal.reads_failed, cal.writes_failed),
        (0, 0),
        "calibration must be failure-free: {cal:?}"
    );
    let legs: Vec<f64> = [cal.read_latency_ms, cal.write_latency_ms].concat();
    let leg_latency = latency_summary_ms(&legs);
    println!(
        "calibration: {} legs harvested, p99 {}",
        legs.len(),
        fmt_ms(field(&leg_latency, "p99_ms"))
    );

    let mut cells: Vec<Value> = Vec::new();
    let mut agreement: Vec<Value> = Vec::new();
    for rf in [2usize, 3] {
        for cl in [Consistency::One, Consistency::Quorum, Consistency::All] {
            println!("  rf {rf} {}", cl.name());
            let schedules = (0..NODES as u64)
                .map(|n| ChaosSchedule {
                    seed: SEED ^ (rf as u64) << 8 ^ n,
                    rules: vec![ChaosRule {
                        direction: ChaosDirection::ToSlave,
                        action: FaultAction::Delay(Duration::from_millis(DELAY_MS)),
                        probability: DELAY_P,
                        after_frame: 0,
                        until_frame: None,
                    }],
                    blackhole_from: None,
                })
                .collect();
            let sock = socket_cell(&sched, rf, cl, GAP_NS, schedules);
            let busy = ("busy_retries", sock.busy_retries);
            let sock = world_obj("sockets", &sock, cl, writes_in_sched, busy);
            let (sim, lost) = sim_cell(&sched, rf, cl, &legs);
            assert_eq!(lost, 0, "the sim never loses acks");
            let lost = ("lost_acked_writes", lost);
            let sim = world_obj("sim", &sim, cl, writes_in_sched, lost);
            if cl == Consistency::Quorum {
                let p99 = |world: &Value| field(world.get("writes").expect("writes"), "p99_ms");
                let rel = (p99(&sim) - p99(&sock)).abs() / p99(&sock).max(1e-9);
                let within = rel <= QUORUM_P99_REL_ERR;
                println!(
                    "    QUORUM write-p99 sim-vs-sockets relative error {rel:.3} \
                     ({} the {QUORUM_P99_REL_ERR} band)",
                    if within { "within" } else { "outside" }
                );
                agreement.push(obj(vec![
                    ("rf", int(rf as u64)),
                    ("write_p99_rel_err", num(rel)),
                    ("bound", num(QUORUM_P99_REL_ERR)),
                    ("within_bound", Value::Bool(within)),
                ]));
            }
            cells.push(obj(vec![
                ("rf", int(rf as u64)),
                ("consistency", s(cl.name())),
                ("sockets", sock),
                ("sim", sim),
            ]));
        }
    }

    let config = obj(vec![
        ("ops_per_cell", int(OPS as u64)),
        ("partitions", int(PARTITIONS)),
        ("nodes", int(NODES.into())),
        ("replication_factors", Value::Arr(vec![int(2), int(3)])),
        ("arrival_gap_ns", int(GAP_NS)),
        ("delay_ms", int(DELAY_MS)),
        ("delay_probability", num(DELAY_P)),
        ("seed", int(SEED)),
        ("calibration_ops", int(CALIBRATION_OPS as u64)),
    ]);
    let results = obj(vec![
        (
            "calibration",
            obj(vec![
                ("legs", int(legs.len() as u64)),
                ("leg_latency", leg_latency),
            ]),
        ),
        ("cells", Value::Arr(cells)),
        ("quorum_agreement", Value::Arr(agreement)),
    ]);
    (config, results)
}
