//! A durable read that fails — here a data block that no longer matches
//! its checksum — must never turn into an empty partition: the slave
//! answers nothing, so a read fails over to a healthy replica or is
//! reported missing, and a write to the damaged partition is refused.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Consistency};
use kvs_net::{
    spawn_local_cluster_durable, DurableClusterConfig, LocalCluster, MixedOp, MixedPlan, NetConfig,
    NetMaster, NetServerConfig, QueryMode, Route, WriteOptions,
};
use kvs_store::{Cell, DurableOptions, FsyncPolicy, TableOptions, TempDir};
use std::time::Duration;

const NODES: u32 = 3;
const PARTITIONS: u64 = 24;
const CELLS: u64 = 6;

/// Boots a durable cluster and flips one byte in the first data block of
/// one node's SSTable. Partition 0 is the smallest key there is, so on its
/// primary it is the first partition in the file: returns that route — the
/// one whose primary copy is now unreadable — with the cluster and routes.
fn damaged_cluster(rf: usize, root: &TempDir) -> (LocalCluster, Vec<Route>, Route) {
    let data = ClusterData::load(
        NODES,
        rf,
        TableOptions::default(),
        uniform_partitions(PARTITIONS, CELLS, 4),
    );
    let dcfg = DurableClusterConfig {
        root: root.path().to_path_buf(),
        store: DurableOptions {
            fsync: FsyncPolicy::Never,
            // Every read goes to the file.
            block_cache_blocks: 0,
            ..DurableOptions::default()
        },
        wal_tail: 2,
    };
    let (cluster, routes) =
        spawn_local_cluster_durable(data, NetServerConfig::default(), dcfg).expect("boots");
    let damaged = routes
        .iter()
        .min_by(|a, b| a.key.cmp(&b.key))
        .expect("routes")
        .clone();
    let sst = root
        .path()
        .join(format!("node-{}", damaged.replicas[0]))
        .join("sst-0000000001.sst");
    let mut bytes = std::fs::read(&sst).expect("the node's bulk-loaded run");
    bytes[20] ^= 0x01;
    std::fs::write(&sst, bytes).expect("write back");
    (cluster, routes, damaged)
}

fn cfg() -> NetConfig {
    NetConfig {
        timeout: Duration::from_millis(100),
        max_retries: 1,
        ..NetConfig::default()
    }
}

#[test]
fn a_failed_read_fails_over_to_the_healthy_replica() {
    let root = TempDir::new("read-err-rf2");
    let (cluster, routes, _) = damaged_cluster(2, &root);
    let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("connects");
    let report = master.run_query(&routes).expect("the replica answers");
    assert_eq!(report.result.total_cells, PARTITIONS * CELLS);
    assert!(report.result.coverage.is_complete());
    assert!(report.failovers >= 1, "the damaged copy was never asked");
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn a_failed_read_without_a_replica_is_reported_missing() {
    let root = TempDir::new("read-err-rf1");
    let (cluster, routes, damaged) = damaged_cluster(1, &root);
    let cfg = NetConfig {
        mode: QueryMode::Degraded,
        ..cfg()
    };
    let mut master = NetMaster::connect(&cluster.addrs(), cfg).expect("connects");
    let report = master.run_query(&routes).expect("degraded mode completes");
    let coverage = report.result.coverage;
    assert_eq!(coverage.total, PARTITIONS);
    assert_eq!(coverage.answered, PARTITIONS - 1, "only the damaged one");
    assert_eq!(report.missed.len(), 1);
    assert_eq!(report.missed[0].key, damaged.key);
    // Never a full-coverage answer that is short of cells.
    assert_eq!(report.result.total_cells, coverage.answered * CELLS);
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn a_write_is_not_acked_by_the_replica_that_cannot_read() {
    let root = TempDir::new("read-err-write");
    let (cluster, _, damaged) = damaged_cluster(2, &root);
    let mut master = NetMaster::connect(&cluster.addrs(), cfg()).expect("connects");
    let write = |consistency, rmw| {
        let cells = vec![Cell::new(1_000, 9, vec![0xAB; 16])];
        MixedPlan {
            route: damaged.clone(),
            op: if rmw {
                MixedOp::Rmw { cells }
            } else {
                MixedOp::Write { cells }
            },
            consistency,
        }
    };
    // With one of two replicas refusing, ALL cannot be reached — by a
    // plain write (the version lookup fails) or an RMW (the pre-image
    // read fails) — and ONE still can.
    let plans = [
        write(Consistency::All, false),
        write(Consistency::All, true),
        write(Consistency::One, false),
    ];
    let out = master
        .run_mixed(&plans, None, &WriteOptions::default())
        .expect("the run completes");
    assert_eq!((out.writes_failed, out.writes_acked), (2, 1));
    master.shutdown();
    cluster.shutdown();
}
