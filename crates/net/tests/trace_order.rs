//! The traces a query returns: one per answered request, in request-id
//! order, each naming the node whose answer the master accepted.
//!
//! Both queries run behind chaos proxies that deliver every answer twice
//! and hold some back, so duplicate answers and hedges reach the master;
//! one node is blackholed from the first byte, so an answer from it can
//! never be the accepted one.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, ReplicaPolicy};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    HedgeConfig, NetConfig, NetMaster, NetRunReport, NetServerConfig, QueryMode, Route,
};
use kvs_store::TableOptions;
use std::net::SocketAddr;
use std::time::Duration;

const CELLS: u64 = 8;

fn data(nodes: u32, rf: usize, partitions: u64) -> ClusterData {
    ClusterData::load(
        nodes,
        rf,
        TableOptions::default(),
        uniform_partitions(partitions, CELLS, 4),
    )
}

fn rule(action: FaultAction, probability: f64) -> ChaosRule {
    ChaosRule {
        direction: ChaosDirection::ToMaster,
        action,
        probability,
        after_frame: 0,
        until_frame: None,
    }
}

/// Node 0 is blackholed; every other node sends each response frame
/// twice, except that node 1 holds a fifth of them back, once, long
/// enough to be hedged against.
fn schedules(nodes: usize) -> Vec<ChaosSchedule> {
    (0..nodes)
        .map(|node| match node {
            0 => ChaosSchedule::blackhole_at(0xB1AC, Duration::ZERO),
            1 => ChaosSchedule {
                seed: 0x51,
                rules: vec![
                    rule(FaultAction::Delay(Duration::from_millis(30)), 0.2),
                    rule(FaultAction::Duplicate, 1.0),
                ],
                blackhole_from: None,
            },
            n => ChaosSchedule {
                seed: 0x50 + n as u64,
                rules: vec![rule(FaultAction::Duplicate, 1.0)],
                blackhole_from: None,
            },
        })
        .collect()
}

/// Runs one query through proxies built from [`schedules`]; returns the
/// report and how many frames the proxies delivered twice.
fn run(addrs: &[SocketAddr], routes: &[Route], cfg: NetConfig) -> (NetRunReport, u64) {
    let (proxies, proxied) = wrap_cluster(addrs, schedules(addrs.len())).expect("proxies boot");
    let mut master = NetMaster::connect(&proxied, cfg).expect("master connects");
    let report = master.run_query(routes).expect("query completes");
    master.shutdown();
    let duplicated = proxies.into_iter().map(|p| p.shutdown().duplicated).sum();
    (report, duplicated)
}

/// The contract every check below shares: ids strictly ascending, one
/// trace per answered request and none for a missed one, every span set,
/// and the node one of the request's live replicas.
fn check_traces(report: &NetRunReport, routes: &[Route]) {
    let result = &report.result;
    let ids: Vec<u64> = result.traces.iter().map(|t| t.request_id).collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "traces not strictly ascending by request id: {ids:?}"
    );
    let answered: Vec<u64> = (0..routes.len() as u64)
        .filter(|id| !result.missed.contains(id))
        .collect();
    assert_eq!(ids, answered, "one trace per answered request, none else");
    assert_eq!(result.coverage.answered, ids.len() as u64);
    for trace in &result.traces {
        let replicas = &routes[trace.request_id as usize].replicas;
        assert!(
            trace.is_complete(),
            "request {}: a span is unset",
            trace.request_id
        );
        assert!(
            replicas.contains(&trace.node) && trace.node != 0,
            "request {} traced to node {} (replicas {replicas:?}, node 0 blackholed)",
            trace.request_id,
            trace.node
        );
    }
}

#[test]
fn hedged_query_with_duplicate_answers_traces_each_request_once_in_id_order() {
    const PARTITIONS: u64 = 90;
    let (cluster, routes) = spawn_local_cluster(data(3, 2, PARTITIONS), NetServerConfig::default())
        .expect("cluster boots");
    let cfg = NetConfig {
        hedge: Some(HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_millis(5),
        }),
        replica_policy: ReplicaPolicy::Primary,
        ..NetConfig::default()
    };
    let (report, duplicated) = run(&cluster.addrs(), &routes, cfg);
    cluster.shutdown();

    assert!(report.result.coverage.is_complete());
    assert_eq!(report.result.total_cells, PARTITIONS * CELLS);
    assert!(duplicated > 0, "no answer was delivered twice");
    assert!(report.hedges_won > 0, "no hedge won a race");
    check_traces(&report, &routes);
    // A request whose primary is the blackholed node was answered by its
    // other replica, and that is the node its trace names.
    let mut rerouted = 0;
    for trace in &report.result.traces {
        let replicas = &routes[trace.request_id as usize].replicas;
        if replicas[0] == 0 {
            assert_eq!(trace.node, replicas[1], "request {}", trace.request_id);
            rerouted += 1;
        }
    }
    assert!(
        rerouted > 0,
        "no request had the blackholed node as primary"
    );
}

#[test]
fn degraded_query_lists_no_trace_for_a_missed_request() {
    const PARTITIONS: u64 = 40;
    let (cluster, routes) = spawn_local_cluster(data(2, 1, PARTITIONS), NetServerConfig::default())
        .expect("cluster boots");
    let cfg = NetConfig {
        mode: QueryMode::Degraded,
        timeout: Duration::from_millis(100),
        max_retries: 1,
        ..NetConfig::default()
    };
    let (report, duplicated) = run(&cluster.addrs(), &routes, cfg);
    cluster.shutdown();

    let on_node_0: Vec<u64> = (0..PARTITIONS)
        .filter(|&id| routes[id as usize].replicas == [0])
        .collect();
    assert!(
        !on_node_0.is_empty() && on_node_0.len() < PARTITIONS as usize,
        "placement must split partitions across both nodes"
    );
    assert_eq!(report.result.missed, on_node_0, "miss list exact");
    assert!(duplicated > 0, "no answer was delivered twice");
    assert_eq!(
        report.result.total_cells,
        (PARTITIONS - on_node_0.len() as u64) * CELLS
    );
    check_traces(&report, &routes);
}
