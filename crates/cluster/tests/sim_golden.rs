//! Golden digests of the simulator: the `Debug` output of whole results,
//! hashed, for seeded configurations that between them reach every branch
//! of `cluster::sim` — every replica policy, rf 1/2/3, both masters,
//! hedging against stragglers, failover across sharded masters, degraded
//! misses, paced and open-loop arrivals and the database microbenchmark.
//!
//! The figures under `results/` pin the simulator only where a figure looks.
//! These digests pin every trace, every stage statistic and every counter,
//! so a change to the simulator that claims to be bit-identical must leave
//! them alone. A change that means to move the numbers recomputes them and
//! says why.

use kvs_cluster::config::{NodeFailure, Straggler};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{
    db_microbench, run_open_loop, run_query, run_query_paced, ClusterConfig, ClusterData,
    ReplicaPolicy,
};
use kvs_simcore::SimDuration;
use kvs_store::{PartitionKey, TableOptions};

/// FNV-1a over the bytes: fixed here, so the digests cannot move with a
/// hasher that is not.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `partitions` × `cells` on `nodes` nodes at replication factor `rf`.
fn cluster(nodes: u32, rf: usize, partitions: u64, cells: u64) -> (ClusterData, Vec<PartitionKey>) {
    let parts = uniform_partitions(partitions, cells, 5);
    let keys = parts.iter().map(|(pk, _)| pk.clone()).collect();
    (
        ClusterData::load(nodes, rf, TableOptions::default(), parts),
        keys,
    )
}

/// One seeded query, noise on: `tweak` sets everything but the size.
fn query(nodes: u32, rf: usize, tweak: impl FnOnce(&mut ClusterConfig)) -> String {
    let (mut data, keys) = cluster(nodes, rf, 400, 30);
    let mut cfg = ClusterConfig::paper_optimized_master(nodes);
    cfg.replication_factor = rf;
    cfg.seed = 7;
    tweak(&mut cfg);
    // Twice on the same data: the second query reads warm state.
    let first = run_query(&cfg, &mut data, &keys);
    let second = run_query(&cfg, &mut data, &keys);
    format!("{first:?}\n{second:?}")
}

fn cases() -> Vec<(&'static str, String)> {
    let policy = |policy| move |cfg: &mut ClusterConfig| cfg.replica_policy = policy;
    vec![
        ("primary rf1", query(8, 1, |_| {})),
        (
            "slow master rf1",
            query(8, 1, |cfg| {
                *cfg = ClusterConfig {
                    seed: cfg.seed,
                    ..ClusterConfig::paper_slow_master(8)
                }
            }),
        ),
        ("random rf2", query(8, 2, policy(ReplicaPolicy::Random))),
        (
            "round robin rf3",
            query(8, 3, policy(ReplicaPolicy::RoundRobin)),
        ),
        (
            "least loaded rf3",
            query(8, 3, policy(ReplicaPolicy::LeastLoaded)),
        ),
        (
            "hedge + stragglers rf3",
            query(8, 3, |cfg| {
                cfg.replica_policy = ReplicaPolicy::LeastLoaded;
                cfg.stragglers = vec![
                    Straggler {
                        node: 2,
                        extra: SimDuration::from_millis(6),
                        probability: 0.4,
                    },
                    Straggler {
                        node: 5,
                        extra: SimDuration::from_millis(3),
                        probability: 0.2,
                    },
                ];
                cfg.hedge = Some(SimDuration::from_micros(1_500));
            }),
        ),
        (
            "failures + failover, 3 master shards",
            query(8, 3, |cfg| {
                cfg.master_shards = 3;
                cfg.replica_policy = ReplicaPolicy::RoundRobin;
                cfg.failures = vec![
                    NodeFailure {
                        node: 1,
                        at: SimDuration::ZERO,
                    },
                    NodeFailure {
                        node: 6,
                        at: SimDuration::from_millis(2),
                    },
                ];
                cfg.failure_timeout = SimDuration::from_millis(5);
                cfg.hedge = Some(SimDuration::from_millis(4));
            }),
        ),
        (
            "degraded with misses",
            query(8, 1, |cfg| {
                cfg.degraded = true;
                cfg.failures = vec![NodeFailure {
                    node: 3,
                    at: SimDuration::from_micros(500),
                }];
                cfg.failure_timeout = SimDuration::from_millis(1);
            }),
        ),
        ("paced", {
            let (mut data, keys) = cluster(8, 2, 400, 30);
            let mut cfg = ClusterConfig::paper_slow_master(8);
            cfg.replication_factor = 2;
            cfg.replica_policy = ReplicaPolicy::Random;
            cfg.hedge = Some(SimDuration::from_millis(3));
            let arrivals: Vec<SimDuration> = (0..keys.len() as u64)
                .map(|i| SimDuration::from_micros(i * 37 % 5_000 + i * 11))
                .collect();
            format!("{:?}", run_query_paced(&cfg, &mut data, &keys, &arrivals))
        }),
        ("open loop", {
            let (mut data, keys) = cluster(4, 1, 200, 250);
            let cfg = ClusterConfig::paper_optimized_master(4);
            let low = run_open_loop(
                &cfg,
                &mut data,
                &keys,
                400.0,
                SimDuration::from_millis(500),
                "low",
            );
            let high = run_open_loop(
                &cfg,
                &mut data,
                &keys,
                3_000.0,
                SimDuration::from_millis(500),
                "high",
            );
            format!("{low:?}\n{high:?}")
        }),
        ("db microbench", {
            let (mut data, keys) = cluster(1, 1, 64, 500);
            let cfg = ClusterConfig::paper_optimized_master(1);
            let runs: Vec<_> = [1, 8, 32]
                .into_iter()
                .map(|p| db_microbench(&cfg, &mut data, &keys, p, "golden"))
                .collect();
            format!("{runs:?}")
        }),
    ]
}

/// The digests, computed at the commit before the simulator's event loop
/// was rewritten on typed events. The two failure runs were re-pinned when
/// the simulator began running the socket master's read dispatcher: its
/// master learns of a death `failure_timeout` after it, once for the node,
/// where it had charged every request the timeout on its own. All but the
/// microbenchmark were re-pinned when `OnlineStats::default()` became
/// `new()`: the text differs only in each stage statistic's `min`, which
/// had read 0.0, and in the open-loop `Summary`'s added `p95`.
const GOLDEN: &[(&str, u64)] = &[
    ("primary rf1", 0x28448621c7600da5),
    ("slow master rf1", 0xa821b7745bd0811b),
    ("random rf2", 0x6e00231cdf334fc9),
    ("round robin rf3", 0x9c6e480f8fc02c89),
    ("least loaded rf3", 0xfe97df4b18b543ed),
    ("hedge + stragglers rf3", 0x1fa03d2cf04b9fad),
    ("failures + failover, 3 master shards", 0x634c1fb154ecfb7d),
    ("degraded with misses", 0x8e6f569a698d360f),
    ("paced", 0xc049d08f08cf61ae),
    ("open loop", 0xd2468c2618a473c1),
    ("db microbench", 0xfc57e03ce4f8720a),
];

#[test]
fn simulator_output_matches_its_golden_digests() {
    let got: Vec<(&str, u64)> = cases()
        .into_iter()
        .map(|(name, text)| (name, digest(&text)))
        .collect();
    for (name, d) in &got {
        println!("(\"{name}\", {d:#018x}),");
    }
    assert_eq!(got, GOLDEN, "simulator output moved (printed above)");
}
