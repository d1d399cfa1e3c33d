//! `drill chaos`: the failover and hedging acceptance scenarios.
//!
//! A 3-node, rf = 3 cluster behind [`kvs_net::ChaosProxy`] interposers runs
//! the aggregation query twice: healthy (passthrough proxies) and with
//! node 0 blackholed from the first byte. The same failure is replayed in
//! `cluster::sim` as a `NodeFailure`, and the measured degradation is held
//! against the simulator's.
//!
//! The straggler half holds node 0's responses 40 ms at random, runs the
//! query open loop with and without hedged reads, and cross-validates the
//! measured p99 cut against `cluster::sim`'s `Straggler` + `hedge` replay
//! of the same arrival schedule.

use super::{field, stage_line, stages_ms, Rig};
use kvs_bench::fmt_ms;
use kvs_bench::json::{int, latency_summary_ms, num, obj, Value};
use kvs_cluster::config::{NodeFailure, Straggler};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::sim::{run_query, run_query_paced};
use kvs_cluster::{ClusterConfig, ClusterData, ReplicaPolicy, RunResult};
use kvs_net::{
    ChaosDirection, ChaosRule, ChaosSchedule, ChaosStats, FaultAction, HedgeConfig, NetConfig,
    NetRunReport,
};
use kvs_simcore::SimDuration;
use kvs_store::{PartitionKey, TableOptions};
use std::time::Duration;

const NODES: u32 = 3;
const RF: usize = 3;
const VICTIM: u32 = 0;
const SEED: u64 = 0xD211;
const PARTITIONS: u64 = 48;
const CELLS: u64 = 8;

/// Straggler-scenario constants, shared by the measured run and the
/// simulator replay.
const STRAGGLER_PARTITIONS: u64 = 240;
const STRAGGLE_MS: u64 = 40;
const STRAGGLE_P: f64 = 0.15;
const HEDGE_AFTER_MS: u64 = 8;
const ARRIVAL_GAP_NS: u64 = 3_000_000;
const STRAGGLER_RF: usize = 2;

fn data(partitions: u64, rf: usize) -> ClusterData {
    ClusterData::load(
        NODES,
        rf,
        TableOptions::default(),
        uniform_partitions(partitions, CELLS, 4),
    )
}

fn keys(partitions: u64) -> Vec<PartitionKey> {
    (0..partitions).map(PartitionKey::from_id).collect()
}

/// One measured run of the whole query behind proxies carrying
/// `schedules`.
fn measured_run(cfg: NetConfig, schedules: Vec<ChaosSchedule>) -> (NetRunReport, ChaosStats) {
    let mut rig = Rig::boot(data(PARTITIONS, RF), Some(schedules), cfg);
    let report = rig.master.run_query(&rig.routes).expect("query succeeds");
    (report, rig.teardown().1)
}

fn run_obj(report: &NetRunReport, chaos: &ChaosStats) -> Value {
    let stages = stages_ms(&report.result.report);
    let dead = report.suspected_dead.iter().map(|&n| int(n.into()));
    println!(
        "  makespan {}  failovers {}  suspected dead {:?}  retry wait {:.1} ms  {}",
        report.result.makespan,
        report.failovers,
        report.suspected_dead,
        report.retry_wait_ms,
        stage_line(&stages)
    );
    obj(vec![
        ("makespan_ms", num(report.result.makespan.as_millis_f64())),
        ("stages_ms", stages),
        ("failovers", int(report.failovers)),
        ("suspected_dead", Value::Arr(dead.collect())),
        ("retry_wait_ms", num(report.retry_wait_ms)),
        ("blackholed_frames", int(chaos.blackholed)),
    ])
}

/// One measured open-loop run with node 0's responses randomly held
/// [`STRAGGLE_MS`]; `hedge` toggles hedged reads.
fn straggler_measured(hedge: Option<HedgeConfig>) -> NetRunReport {
    let mut schedules = vec![ChaosSchedule {
        seed: SEED,
        rules: vec![ChaosRule {
            direction: ChaosDirection::ToMaster,
            action: FaultAction::Delay(Duration::from_millis(STRAGGLE_MS)),
            probability: STRAGGLE_P,
            after_frame: 0,
            until_frame: Some(STRAGGLER_PARTITIONS),
        }],
        blackhole_from: None,
    }];
    schedules.extend((1..NODES as u64).map(ChaosSchedule::passthrough));
    let cfg = NetConfig {
        hedge,
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let mut rig = Rig::boot(
        data(STRAGGLER_PARTITIONS, STRAGGLER_RF),
        Some(schedules),
        cfg,
    );
    let arrivals: Vec<u64> = (0..STRAGGLER_PARTITIONS)
        .map(|i| i * ARRIVAL_GAP_NS)
        .collect();
    let report = rig
        .master
        .run_with_arrivals(&rig.routes, Some(&arrivals))
        .expect("query succeeds");
    rig.teardown();
    report
}

/// The simulator's replay: the same arrivals, a [`Straggler`] on the same
/// node and, if `hedged`, the same fixed hedge delay.
fn straggler_simulated(hedged: bool) -> RunResult {
    let mut cfg = ClusterConfig::paper_optimized_master(NODES).deterministic();
    cfg.replication_factor = STRAGGLER_RF;
    cfg.replica_policy = ReplicaPolicy::Primary;
    cfg.stragglers = vec![Straggler {
        node: VICTIM,
        extra: SimDuration::from_millis(STRAGGLE_MS),
        probability: STRAGGLE_P,
    }];
    if hedged {
        cfg.hedge = Some(SimDuration::from_millis(HEDGE_AFTER_MS));
    }
    let arrivals: Vec<SimDuration> = (0..STRAGGLER_PARTITIONS)
        .map(|i| SimDuration::from_nanos(i * ARRIVAL_GAP_NS))
        .collect();
    let mut sim_data = data(STRAGGLER_PARTITIONS, STRAGGLER_RF);
    run_query_paced(&cfg, &mut sim_data, &keys(STRAGGLER_PARTITIONS), &arrivals)
}

fn blackhole() -> Value {
    let cfg = NetConfig {
        timeout: Duration::from_millis(100),
        max_retries: 1,
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let detection = cfg.timeout * (cfg.max_retries + 1);
    println!(
        "blackhole: {NODES} nodes, rf = {RF}, {PARTITIONS} partitions × {CELLS} cells; \
         node {VICTIM} blackholed from t = 0 (seed {SEED:#x}); detection window {detection:?}"
    );
    let passthrough = (0..NODES as u64).map(ChaosSchedule::passthrough).collect();
    let (healthy, healthy_chaos) = measured_run(cfg, passthrough);
    let mut schedules = vec![ChaosSchedule::blackhole_at(SEED, Duration::ZERO)];
    schedules.extend((1..NODES as u64).map(ChaosSchedule::passthrough));
    let (degraded, degraded_chaos) = measured_run(cfg, schedules);
    assert_eq!(
        degraded.result.counts_by_kind, healthy.result.counts_by_kind,
        "degraded run returned wrong values"
    );
    assert_eq!(degraded.result.total_cells, PARTITIONS * CELLS);
    assert!(degraded.failovers > 0, "dead replica caused no failover");
    assert!(
        degraded_chaos.blackholed > 0,
        "the blackhole swallowed nothing"
    );

    let mut sim_cfg = ClusterConfig::paper_optimized_master(NODES).deterministic();
    sim_cfg.replication_factor = RF;
    sim_cfg.replica_policy = ReplicaPolicy::Primary;
    sim_cfg.failure_timeout = SimDuration::from_nanos(detection.as_nanos() as u64);
    let sim_healthy = run_query(&sim_cfg, &mut data(PARTITIONS, RF), &keys(PARTITIONS));
    sim_cfg.failures = vec![NodeFailure {
        node: VICTIM,
        at: SimDuration::ZERO,
    }];
    let sim_failed = run_query(&sim_cfg, &mut data(PARTITIONS, RF), &keys(PARTITIONS));

    let measured_ms = |r: &NetRunReport| r.result.makespan.as_millis_f64();
    let measured_delta = measured_ms(&degraded) - measured_ms(&healthy);
    let predicted_delta =
        sim_failed.makespan.as_millis_f64() - sim_healthy.makespan.as_millis_f64();
    let relative_error = (measured_delta - predicted_delta).abs() / predicted_delta.max(1e-9);
    println!(
        "  degradation: measured {} vs simulated {} ({:.0}% relative error); \
         failovers {} measured, {} simulated",
        fmt_ms(measured_delta),
        fmt_ms(predicted_delta),
        relative_error * 100.0,
        degraded.failovers,
        sim_failed.failovers
    );
    obj(vec![
        ("measured_healthy_ms", num(measured_ms(&healthy))),
        ("measured_degraded_ms", num(measured_ms(&degraded))),
        ("measured_degradation_ms", num(measured_delta)),
        ("sim_degradation_ms", num(predicted_delta)),
        ("relative_error", num(relative_error)),
        ("failovers", int(degraded.failovers)),
        ("blackholed_frames", int(degraded_chaos.blackholed)),
        ("sim_failovers", int(sim_failed.failovers)),
        ("healthy", run_obj(&healthy, &healthy_chaos)),
        ("degraded", run_obj(&degraded, &degraded_chaos)),
    ])
}

fn straggler() -> Value {
    println!(
        "straggler: node {VICTIM} responses held {STRAGGLE_MS} ms with p = {STRAGGLE_P}, \
         rf = {STRAGGLER_RF}, {STRAGGLER_PARTITIONS} requests every {} ms; \
         hedge after {HEDGE_AFTER_MS} ms",
        ARRIVAL_GAP_NS / 1_000_000
    );
    let plain = straggler_measured(None);
    let hedged = straggler_measured(Some(HedgeConfig {
        quantile: 0.95,
        min_delay: Duration::from_millis(HEDGE_AFTER_MS),
    }));
    assert!(plain.result.coverage.is_complete(), "plain run lost data");
    assert!(hedged.result.coverage.is_complete(), "hedged run lost data");
    assert_eq!(
        plain.result.counts_by_kind, hedged.result.counts_by_kind,
        "hedged run returned different values"
    );
    let sim_plain = straggler_simulated(false);
    let sim_hedged = straggler_simulated(true);

    let lat = [
        ("measured_plain", &plain.result.traces),
        ("measured_hedged", &hedged.result.traces),
        ("sim_plain", &sim_plain.traces),
        ("sim_hedged", &sim_hedged.traces),
    ]
    .map(|(run, traces)| {
        let ms: Vec<f64> = traces.iter().map(|t| t.total().as_millis_f64()).collect();
        (run, latency_summary_ms(&ms))
    });
    let p99 = lat.each_ref().map(|(_, l)| field(l, "p99_ms"));
    let measured_improvement = 1.0 - p99[1] / p99[0];
    let sim_improvement = 1.0 - p99[3] / p99[2];
    let improvement_error =
        (measured_improvement - sim_improvement).abs() / sim_improvement.max(1e-9);
    println!(
        "  p99 measured {} → {} ({:.0}% cut, {} hedges, {} won, {:.1}% extra load); \
         simulated {} → {} ({:.0}% cut, {} hedges, {} won); {:.0}% relative error",
        fmt_ms(p99[0]),
        fmt_ms(p99[1]),
        measured_improvement * 100.0,
        hedged.hedges_sent,
        hedged.hedges_won,
        hedged.hedge_extra_load() * 100.0,
        fmt_ms(p99[2]),
        fmt_ms(p99[3]),
        sim_improvement * 100.0,
        sim_hedged.hedges_sent,
        sim_hedged.hedges_won,
        improvement_error * 100.0
    );
    assert!(
        measured_improvement >= 0.30,
        "hedging failed the acceptance bar: {:.0}% p99 cut",
        measured_improvement * 100.0
    );
    assert!(
        improvement_error <= 0.25,
        "measured hedging benefit diverges from the simulator's: \
         {measured_improvement:.2} vs {sim_improvement:.2}"
    );
    obj(vec![
        ("measured_plain_p99_ms", num(p99[0])),
        ("measured_hedged_p99_ms", num(p99[1])),
        ("sim_plain_p99_ms", num(p99[2])),
        ("sim_hedged_p99_ms", num(p99[3])),
        ("measured_improvement", num(measured_improvement)),
        ("sim_improvement", num(sim_improvement)),
        ("improvement_error", num(improvement_error)),
        ("hedges_sent", int(hedged.hedges_sent)),
        ("hedges_won", int(hedged.hedges_won)),
        ("hedge_extra_load", num(hedged.hedge_extra_load())),
        ("sim_hedges_sent", int(sim_hedged.hedges_sent)),
        ("sim_hedges_won", int(sim_hedged.hedges_won)),
        ("latency", obj(lat.into())),
    ])
}

/// Runs both halves; returns the scenario's config and results.
pub fn run() -> (Value, Value) {
    let config = obj(vec![
        ("nodes", int(NODES.into())),
        ("rf", int(RF as u64)),
        ("partitions", int(PARTITIONS)),
        ("cells", int(CELLS)),
        ("straggler_partitions", int(STRAGGLER_PARTITIONS)),
        ("straggle_ms", int(STRAGGLE_MS)),
        ("straggle_p", num(STRAGGLE_P)),
        ("hedge_after_ms", int(HEDGE_AFTER_MS)),
        ("seed", int(SEED)),
    ]);
    let results = obj(vec![("blackhole", blackhole()), ("straggler", straggler())]);
    (config, results)
}
