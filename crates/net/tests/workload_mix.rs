//! Sim-vs-sockets cross-validation for a YCSB-style mix.
//!
//! Runs the `update_heavy` mix's request schedule through both engines
//! under the *same* dominant latency source — node 0's responses held
//! 40 ms with p = 0.15. The tier-1 test asserts what the seeds fix: the
//! socket run answers every request and the straggler sets both p99s. How
//! close the measured p99 lands to `cluster::sim`'s prediction (within
//! 25%, the same acceptance shape as the chaos straggler scenario) is a
//! wall-clock reading that a loaded host moves, so that band lives in an
//! `#[ignore]`d companion the `chaos` CI lane runs with `--ignored`: it
//! reports, it does not gate tier-1.
//!
//! The straggler is what makes the comparison apples-to-apples: the
//! simulator charges 2010-era Cassandra service times while the sockets
//! pay this machine's loopback, so absolute medians differ by design, but
//! a 40 ms injected delay dwarfs both baselines and the tail it builds is
//! governed by the shared parameters (delay, probability, arrival
//! schedule) — exactly what the cross-validation is entitled to pin down.
//!
//! Fixed seeds everywhere: same ops, same faulted frames, every run.

use kvs_cluster::config::Straggler;
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::sim::run_query_paced;
use kvs_cluster::{ClusterConfig, ClusterData, ReplicaPolicy};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    NetConfig, NetMaster, NetServerConfig,
};
use kvs_simcore::SimDuration;
use kvs_stages::RequestTrace;
use kvs_store::{PartitionKey, TableOptions};
use kvs_workloads::ycsb::{expand_requests, generate_ops, max_keyspace, standard_mixes};
use std::time::Duration;

const NODES: u32 = 3;
const RF: usize = 2;
const VICTIM: u32 = 0;
const SEED: u64 = 0x5EED;
const CELLS: u64 = 8;
const OPS: u64 = 220;
const INITIAL_KEYS: u64 = 64;
const STRAGGLE_MS: u64 = 40;
const STRAGGLE_P: f64 = 0.15;
const ARRIVAL_GAP_NS: u64 = 3_000_000;

fn p99_ms(traces: &[RequestTrace]) -> f64 {
    let mut totals: Vec<f64> = traces.iter().map(|t| t.total().as_millis_f64()).collect();
    assert!(!totals.is_empty(), "no traces recorded");
    totals.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((totals.len() as f64 * 0.99).ceil() as usize).clamp(1, totals.len());
    totals[rank - 1]
}

/// Both worlds under the same straggler: `(measured, simulated)` p99 in
/// milliseconds. The socket run must have answered every request.
fn p99_both_worlds() -> (f64, f64) {
    let spec = standard_mixes()
        .into_iter()
        .find(|m| m.name == "update_heavy")
        .expect("update_heavy mix exists");
    let ops = generate_ops(&spec, INITIAL_KEYS, OPS, SEED);
    let requests = expand_requests(&ops);
    let keys: Vec<PartitionKey> = requests
        .iter()
        .map(|&(_, key)| PartitionKey::from_id(key))
        .collect();
    let keyspace = max_keyspace(INITIAL_KEYS, OPS);
    let arrivals_ns: Vec<u64> = (0..keys.len() as u64).map(|i| i * ARRIVAL_GAP_NS).collect();

    // --- Simulated world: Straggler config, same arrival schedule. ---
    let mut cfg = ClusterConfig::paper_optimized_master(NODES).deterministic();
    cfg.replication_factor = RF;
    cfg.replica_policy = ReplicaPolicy::Primary;
    cfg.stragglers = vec![Straggler {
        node: VICTIM,
        extra: SimDuration::from_millis(STRAGGLE_MS),
        probability: STRAGGLE_P,
    }];
    let mut sim_data = ClusterData::load(
        NODES,
        RF,
        TableOptions::default(),
        uniform_partitions(keyspace, CELLS, 4),
    );
    let arrivals_sim: Vec<SimDuration> = arrivals_ns
        .iter()
        .map(|&ns| SimDuration::from_nanos(ns))
        .collect();
    let sim = run_query_paced(&cfg, &mut sim_data, &keys, &arrivals_sim);

    // --- Measured world: ChaosProxy delay on the same node. ---
    let data = ClusterData::load(
        NODES,
        RF,
        TableOptions::default(),
        uniform_partitions(keyspace, CELLS, 4),
    );
    let (cluster, all_routes) =
        spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
    let route_of = |pk: &PartitionKey| {
        all_routes
            .iter()
            .find(|r| &r.key == pk)
            .expect("key has a route")
            .clone()
    };
    let routes: Vec<_> = keys.iter().map(route_of).collect();
    let mut schedules = vec![ChaosSchedule {
        seed: SEED,
        rules: vec![ChaosRule {
            direction: ChaosDirection::ToMaster,
            action: FaultAction::Delay(Duration::from_millis(STRAGGLE_MS)),
            probability: STRAGGLE_P,
            after_frame: 0,
            until_frame: Some(keys.len() as u64),
        }],
        blackhole_from: None,
    }];
    schedules.extend((1..NODES as u64).map(ChaosSchedule::passthrough));
    let (proxies, addrs) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies boot");
    let net_cfg = NetConfig {
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&addrs, net_cfg).expect("master connects");
    let report = master
        .run_with_arrivals(&routes, Some(&arrivals_ns))
        .expect("socket run succeeds");
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    cluster.shutdown();
    assert!(
        report.result.coverage.is_complete(),
        "measured run lost data"
    );

    (p99_ms(&report.result.traces), p99_ms(&sim.traces))
}

#[test]
fn update_heavy_p99_tracks_sim_prediction() {
    let (measured, simulated) = p99_both_worlds();
    assert!(
        measured >= STRAGGLE_MS as f64 && simulated >= STRAGGLE_MS as f64,
        "straggler did not dominate the tail: measured {measured:.1} ms, \
         simulated {simulated:.1} ms"
    );
}

#[test]
#[ignore = "a 25% band on a wall clock: run by the chaos CI lane with --ignored"]
fn update_heavy_p99_within_a_quarter_of_sim_prediction() {
    let (measured, simulated) = p99_both_worlds();
    let relative_error = (measured - simulated).abs() / simulated;
    assert!(
        relative_error <= 0.25,
        "measured p99 {measured:.1} ms diverges from simulated {simulated:.1} ms \
         ({:.0}% relative error)",
        relative_error * 100.0
    );
}
