//! Acceptance tests for the replicated write path's hinted handoff: a
//! durable replica killed mid-write-storm misses writes, the coordinator
//! buffers them as hints while still acking at QUORUM, and after the
//! node's crash recovery + hint replay the cluster matches a fault-free
//! oracle — zero acknowledged-write loss at QUORUM with rf = 3.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Consistency};
use kvs_net::{
    spawn_local_cluster, spawn_local_cluster_durable, wrap_cluster, ChaosDirection, ChaosRule,
    ChaosSchedule, DurableClusterConfig, FaultAction, MixedOp, MixedPlan, NetConfig, NetMaster,
    NetServerConfig, Route, WriteOptions,
};
use kvs_store::{Cell, DurableOptions, FsyncPolicy, TableOptions, TempDir};
use std::collections::BTreeMap;
use std::time::Duration;

const NODES: u32 = 3;
const RF: usize = 3;
const PARTITIONS: u64 = 16;
const SEED_CELLS: u64 = 2;
const WRITES_PER_HALF: usize = 48;

fn data() -> ClusterData {
    ClusterData::load(
        NODES,
        RF,
        TableOptions::default(),
        uniform_partitions(PARTITIONS, SEED_CELLS, 4),
    )
}

fn durable_cfg(root: &TempDir) -> DurableClusterConfig {
    DurableClusterConfig {
        root: root.path().to_path_buf(),
        store: DurableOptions {
            fsync: FsyncPolicy::Never,
            ..DurableOptions::default()
        },
        wal_tail: 2,
    }
}

fn cfg() -> NetConfig {
    NetConfig {
        timeout: Duration::from_millis(200),
        max_retries: 2,
        ..NetConfig::default()
    }
}

/// Deterministic write storm: `count` QUORUM writes round-robining the
/// routes, each landing one distinct cell. `phase` keeps clustering keys
/// of the two halves disjoint.
fn storm(routes: &[Route], count: usize, phase: u64) -> Vec<MixedPlan> {
    (0..count)
        .map(|i| {
            let route = routes[i % routes.len()].clone();
            let clustering = phase * 10_000 + i as u64;
            let kind = (i % 5) as u8;
            MixedPlan {
                route,
                op: MixedOp::Write {
                    cells: vec![Cell::new(clustering, kind, vec![0xAB; 16])],
                },
                consistency: Consistency::Quorum,
            }
        })
        .collect()
}

/// ALL-consistency read of every route (the strongest possible audit of
/// what the replica set holds).
fn read_all(routes: &[Route]) -> Vec<MixedPlan> {
    routes
        .iter()
        .map(|route| MixedPlan {
            route: route.clone(),
            op: MixedOp::Read,
            consistency: Consistency::All,
        })
        .collect()
}

/// The fault-free answer: the same two write halves against a RAM
/// cluster that never fails, then the standard aggregation query. The
/// halves are written at ALL: the query reads one replica per partition,
/// and after a QUORUM write it could read the one replica that has not
/// applied it yet.
fn oracle(routes_template: &[Route]) -> (BTreeMap<u8, u64>, u64) {
    let (cluster, routes) =
        spawn_local_cluster(data(), NetServerConfig::default()).expect("oracle cluster boots");
    assert_eq!(routes.len(), routes_template.len());
    let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("oracle connects");
    let wcfg = WriteOptions::default();
    for phase in 0..2u64 {
        let mut plans = storm(&routes, WRITES_PER_HALF, phase);
        for plan in &mut plans {
            plan.consistency = Consistency::All;
        }
        let out = master
            .run_mixed(&plans, None, &wcfg)
            .expect("oracle storm runs");
        assert_eq!(out.writes_acked as usize, WRITES_PER_HALF);
        assert_eq!(out.writes_failed, 0);
    }
    let report = master.run_query(&routes).expect("oracle query succeeds");
    master.shutdown();
    cluster.shutdown();
    (report.result.counts_by_kind, report.result.total_cells)
}

#[test]
fn quorum_storm_survives_replica_kill_with_hint_replay() {
    let root = TempDir::new("hints-storm");
    let (mut cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), durable_cfg(&root))
            .expect("durable cluster boots");
    let (expected_counts, expected_cells) = oracle(&routes);
    let victim: u32 = 2;
    let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("master connects");
    let wcfg = WriteOptions::default();

    // First half against a healthy cluster: everything acks, no hints.
    let healthy = master
        .run_mixed(&storm(&routes, WRITES_PER_HALF, 0), None, &wcfg)
        .expect("healthy storm runs");
    assert_eq!(healthy.writes_acked as usize, WRITES_PER_HALF);
    assert_eq!(healthy.writes_failed, 0);
    assert_eq!(healthy.hints_queued, 0);

    // Kill the victim and pour the second half. rf = 3 QUORUM needs 2
    // acks, so every write still completes; the victim's copies buffer
    // as hints.
    cluster.kill(victim);
    let dark = master
        .run_mixed(&storm(&routes, WRITES_PER_HALF, 1), None, &wcfg)
        .expect("storm with a dark replica runs");
    assert_eq!(
        dark.writes_acked as usize, WRITES_PER_HALF,
        "QUORUM must keep acking with one replica dark: {dark:?}"
    );
    assert_eq!(dark.writes_failed, 0);
    assert_eq!(
        master.hinted_for(victim) as u64,
        dark.hints_queued,
        "every missed write is buffered"
    );
    assert!(
        dark.hints_queued as usize >= WRITES_PER_HALF,
        "the dark replica missed at least one hint per write: {dark:?}"
    );
    assert_eq!(dark.hints_dropped, 0);

    // Recover: real crash recovery from disk, reconnect, replay hints.
    cluster.restart(victim).expect("restart succeeds");
    let report = cluster
        .last_recovery(victim)
        .expect("durable restart records a report");
    assert!(
        report.wal_records_replayed > 0,
        "pre-kill writes come back through WAL replay: {report:?}"
    );
    let buffered = master.hinted_for(victim) as u64;
    master
        .reconnect(victim, cluster.addrs()[victim as usize])
        .expect("reconnect succeeds");
    let replayed = master.replay_hints(victim).expect("hint replay runs");
    assert_eq!(replayed, buffered, "every hint is acknowledged on replay");
    assert_eq!(master.hinted_for(victim), 0);

    // Audit 1: an ALL read of every partition observes every version the
    // coordinator ever acknowledged — zero acknowledged-write staleness.
    let audit = master
        .run_mixed(&read_all(&routes), None, &wcfg)
        .expect("ALL audit runs");
    assert_eq!(audit.reads as usize, routes.len(), "{audit:?}");
    assert_eq!(audit.reads_failed, 0, "{audit:?}");
    assert_eq!(
        audit.stale_reads, 0,
        "an ALL read after replay must see every acked write: {audit:?}"
    );
    assert_eq!(
        audit.divergent_reads, 0,
        "after hint replay all three replicas hold the newest version: {audit:?}"
    );
    master.shutdown();

    // Audit 2: the recovered cluster serves exactly the fault-free
    // aggregation — nothing acknowledged was lost, nothing corrupted.
    let mut fresh = NetMaster::connect(&cluster.addrs(), cfg()).expect("fresh master connects");
    let report = fresh.run_query(&routes).expect("final query succeeds");
    fresh.shutdown();
    assert_eq!(report.result.total_cells, expected_cells, "lost values");
    assert_eq!(
        report.result.counts_by_kind, expected_counts,
        "wrong values"
    );
    cluster.shutdown();
}

#[test]
fn all_consistency_fails_while_quorum_survives() {
    let root = TempDir::new("hints-cl");
    let (mut cluster, routes) =
        spawn_local_cluster_durable(data(), NetServerConfig::default(), durable_cfg(&root))
            .expect("durable cluster boots");
    let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("master connects");
    let wcfg = WriteOptions::default();
    cluster.kill(1);

    // One probe write flushes the Down event into the master's health
    // table (the TCP write itself may still succeed before the RST).
    let _probe = master
        .run_mixed(&storm(&routes, 2, 7), None, &wcfg)
        .expect("probe runs");

    let mut plans = storm(&routes, 8, 8);
    for p in &mut plans {
        p.consistency = Consistency::All;
    }
    let all = master.run_mixed(&plans, None, &wcfg).expect("ALL run");
    assert_eq!(
        all.writes_acked, 0,
        "ALL cannot complete with a replica dark: {all:?}"
    );
    assert_eq!(all.writes_failed, 8);

    let quorum = master
        .run_mixed(&storm(&routes, 8, 9), None, &wcfg)
        .expect("QUORUM run");
    assert_eq!(
        quorum.writes_acked, 8,
        "QUORUM tolerates one dark replica: {quorum:?}"
    );
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn duplicated_replies_never_reach_a_level() {
    // Node 2 swallows every frame while nodes 0 and 1 send every reply
    // twice. Two replicas are two however often they answer: ALL can be
    // reached neither by a write nor by a read, and QUORUM still is.
    let (cluster, routes) =
        spawn_local_cluster(data(), NetServerConfig::default()).expect("cluster boots");
    let duplicate = |seed| ChaosSchedule {
        seed,
        rules: vec![ChaosRule {
            direction: ChaosDirection::ToMaster,
            action: FaultAction::Duplicate,
            probability: 1.0,
            after_frame: 0,
            until_frame: None,
        }],
        blackhole_from: None,
    };
    let schedules = vec![
        duplicate(1),
        duplicate(2),
        ChaosSchedule::blackhole_at(3, Duration::ZERO),
    ];
    let (proxies, proxied) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies spawn");
    let cfg = NetConfig {
        timeout: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&proxied, cfg).expect("master connects");
    let wcfg = WriteOptions::default();

    let mut all_writes = storm(&routes, 8, 0);
    for p in &mut all_writes {
        p.consistency = Consistency::All;
    }
    let writes = master
        .run_mixed(&all_writes, None, &wcfg)
        .expect("ALL writes run");
    assert_eq!(
        (writes.writes_acked, writes.writes_failed),
        (0, 8),
        "{writes:?}"
    );
    let reads = master
        .run_mixed(&read_all(&routes)[..8], None, &wcfg)
        .expect("ALL reads run");
    assert_eq!((reads.reads, reads.reads_failed), (0, 8), "{reads:?}");
    let quorum = master
        .run_mixed(&storm(&routes, 8, 1), None, &wcfg)
        .expect("QUORUM writes run");
    assert_eq!(
        (quorum.writes_acked, quorum.writes_failed),
        (8, 0),
        "{quorum:?}"
    );

    master.shutdown();
    for proxy in proxies {
        proxy.shutdown();
    }
    cluster.shutdown();
}
