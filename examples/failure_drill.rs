//! Failure drill: what a node death does to a running query, and how much
//! replication + fast detection buy back.
//!
//! Uses the failure-injection hooks (`ClusterConfig::failures`) and the
//! stage-report renderers to walk through the §VIII replication trade-off
//! on a virtual 8-node cluster — then repeats the drill over real TCP
//! sockets: a loopback `kvs-net` cluster with a chaos proxy blackholing
//! one node, so the simulated failover story can be checked against the
//! wire.
//!
//! Run with: `cargo run --release --example failure_drill`

use kvscale::cluster::data::uniform_partitions;
use kvscale::cluster::{run_query, ClusterConfig, ClusterData, NodeFailure, ReplicaPolicy};
use kvscale::net::{
    spawn_local_cluster, wrap_cluster, ChaosSchedule, NetConfig, NetMaster, NetServerConfig,
};
use kvscale::prelude::*;
use kvscale::stages::report::{render_node_table, render_summary};
use std::time::Duration;

fn main() {
    let nodes = 8u32;
    let parts = uniform_partitions(240, 800, 4);
    let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
    println!("== failure drill: 240 partitions × 800 cells on {nodes} nodes, rf=2 ==\n");

    // Healthy baseline.
    let mut cfg = ClusterConfig::paper_optimized_master(nodes);
    cfg.replication_factor = 2;
    let mut data = ClusterData::load(nodes, 2, TableOptions::default(), parts.clone());
    let healthy = run_query(&cfg, &mut data, &keys);
    println!("healthy: {}\n", render_summary(&healthy.report));

    // Node A dies before the query starts; sweep the detection timeout.
    println!("node A dead from the start, rf=2:");
    for timeout_ms in [100u64, 500, 2_000] {
        let mut cfg = cfg.clone();
        cfg.failures = vec![NodeFailure {
            node: 0,
            at: SimDuration::ZERO,
        }];
        cfg.failure_timeout = SimDuration::from_millis(timeout_ms);
        let mut data = ClusterData::load(nodes, 2, TableOptions::default(), parts.clone());
        let result = run_query(&cfg, &mut data, &keys);
        assert_eq!(result.counts_by_kind, healthy.counts_by_kind);
        println!(
            "  timeout {timeout_ms:>5} ms → {} failovers, makespan {} ({:+.0}% vs healthy)",
            result.failovers,
            result.makespan,
            (result.makespan.as_millis_f64() / healthy.makespan.as_millis_f64() - 1.0) * 100.0,
        );
    }

    // Where did the dead node's load go?
    let mut cfg2 = cfg.clone();
    cfg2.failures = vec![NodeFailure {
        node: 0,
        at: SimDuration::ZERO,
    }];
    cfg2.failure_timeout = SimDuration::from_millis(100);
    let mut data = ClusterData::load(nodes, 2, TableOptions::default(), parts);
    let result = run_query(&cfg2, &mut data, &keys);
    println!("\nper-node load after failover (node 0 dead):");
    println!("{}", render_node_table(&result.report));
    println!(
        "every partition answered: {} cells (baseline {})",
        result.total_cells, healthy.total_cells
    );
    println!("\nTakeaway: rf=2 turns a node death into pure latency — and the latency");
    println!("is the detection timeout times the dead node's share of the keys, so");
    println!("the §VII SLA math must include failure detection, not just throughput.");

    // ---- the same drill over real sockets -------------------------------
    // A 3-node rf=2 loopback cluster, each slave behind a chaos proxy;
    // node 0's proxy swallows every byte from t = 0. The master's 100 ms
    // timeout × (1 + 1) attempts gives the same 200 ms detection window
    // the simulator models as `failure_timeout`.
    println!("\n== the same drill over TCP: blackholed slave on a loopback cluster ==\n");
    let net_parts = uniform_partitions(48, 64, 4);
    let net_keys = 48 * 64u64;
    let net_data = ClusterData::load(3, 2, TableOptions::default(), net_parts);
    let (cluster, routes) =
        spawn_local_cluster(net_data, NetServerConfig::default()).expect("cluster boots");
    let mut schedules = vec![ChaosSchedule::blackhole_at(0xD211, Duration::ZERO)];
    schedules.extend([ChaosSchedule::passthrough(1), ChaosSchedule::passthrough(2)]);
    let (proxies, addrs) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies boot");
    let net_cfg = NetConfig {
        timeout: Duration::from_millis(100),
        max_retries: 1,
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&addrs, net_cfg).expect("master connects");
    let report = master
        .run_query(&routes)
        .expect("rf=2 survives one dead node");
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    cluster.shutdown();
    assert_eq!(report.result.total_cells, net_keys);
    println!(
        "measured: makespan {}  failovers {}  suspected dead {:?}  retry wait {:.0} ms",
        report.result.makespan, report.failovers, report.suspected_dead, report.retry_wait_ms
    );
    println!("every partition answered over the wire: {} cells", net_keys);
    println!("\nThe measured makespan is dominated by the same detection window the");
    println!("simulator charges — `cargo run --bin drill -- chaos` quantifies the match.");
}
