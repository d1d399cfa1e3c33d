//! The ISSUE's acceptance test: a real 4-slave loopback cluster serving a
//! D8tree-style aggregation query through [`NetMaster`], checked against
//! the simulator's answer, the four methodology stages, the codec cost
//! ordering, and the calibrated Figure 11 sweep.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{run_query, ClusterConfig, ClusterData, Codec};
use kvs_model::{limits, DbModel, SystemModel};
use kvs_net::{calibrate_t_msg, spawn_local_cluster, NetConfig, NetMaster, NetServerConfig};
use kvs_simcore::SimDuration;
use kvs_stages::Stage;
use kvs_store::TableOptions;

const NODES: u32 = 4;
const PARTITIONS: u64 = 96;
const CELLS: u64 = 16;

fn paper_data() -> ClusterData {
    ClusterData::load(
        NODES,
        1,
        TableOptions::default(),
        uniform_partitions(PARTITIONS, CELLS, 4),
    )
}

#[test]
fn net_query_matches_simulator_and_traces_all_stages() {
    // The same placement twice: once over TCP, once through the
    // simulator — the aggregation answer must be identical.
    let (cluster, routes) =
        spawn_local_cluster(paper_data(), NetServerConfig::default()).expect("cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    let net = master.run_query(&routes).expect("net query succeeds");

    let keys: Vec<_> = routes.iter().map(|r| r.key.clone()).collect();
    let sim_cfg = ClusterConfig::paper_optimized_master(NODES).deterministic();
    let sim = run_query(&sim_cfg, &mut paper_data(), &keys);

    assert_eq!(net.result.counts_by_kind, sim.counts_by_kind);
    assert_eq!(net.result.total_cells, sim.total_cells);
    assert_eq!(net.result.total_cells, PARTITIONS * CELLS);
    assert_eq!(net.result.messages, PARTITIONS);
    assert_eq!(net.result.traces.len(), PARTITIONS as usize);

    // Every request traces all four stages; each stage accumulates real
    // (positive) time across the run.
    for t in &net.result.traces {
        assert!(t.is_complete(), "incomplete trace {t:?}");
    }
    for stage in [
        Stage::MasterToSlave,
        Stage::InQueue,
        Stage::InDb,
        Stage::SlaveToMaster,
    ] {
        let total: SimDuration = net
            .result
            .traces
            .iter()
            .map(|t| t.stage_duration(stage))
            .sum();
        assert!(
            total > SimDuration::ZERO,
            "stage {stage:?} recorded no time"
        );
    }
    assert!(net.result.makespan > SimDuration::ZERO);

    master.shutdown();
    let stats = cluster.shutdown();
    assert!(
        stats.pushed >= PARTITIONS,
        "every request passes the work queue: {stats:?}"
    );
}

#[test]
fn busy_backpressure_retries_and_still_answers_correctly() {
    // One worker behind a depth-1 queue: the master outruns the slave,
    // collects Busy frames, retries, and still gets the right answer.
    let data = ClusterData::load(1, 1, TableOptions::default(), uniform_partitions(64, 24, 4));
    let (cluster, routes) = spawn_local_cluster(
        data,
        NetServerConfig {
            workers_per_node: 1,
            queue_depth: 1,
        },
    )
    .expect("cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    let report = master
        .run_query(&routes)
        .expect("query survives backpressure");
    assert_eq!(report.result.total_cells, 64 * 24);
    master.shutdown();
    let stats = cluster.shutdown();
    assert!(
        stats.busy_rejections > 0,
        "depth-1 queue never refused: {stats:?}"
    );
    assert_eq!(report.busy_retries, stats.busy_rejections);
}

#[test]
fn compact_codec_measures_cheaper_than_verbose() {
    // §V-B on the real socket path: the compact (Kryo-like) codec must
    // measure a lower per-message master cost than the verbose one.
    let compact = calibrate_t_msg(Codec::compact(), 1_200).expect("compact calibration");
    let verbose = calibrate_t_msg(Codec::verbose(), 1_200).expect("verbose calibration");
    assert!(
        compact.t_msg_us() < verbose.t_msg_us(),
        "compact {:.2} µs !< verbose {:.2} µs",
        compact.t_msg_us(),
        verbose.t_msg_us()
    );
    assert!(compact.tx_us_per_msg > 0.0 && compact.rx_us_per_msg > 0.0);

    // The measured constants drive the Figure 11 sweep end to end.
    let model = SystemModel {
        master: compact.master_model(),
        db: DbModel::paper(),
        gc: None,
    };
    let nodes: Vec<u64> = (1..=8).map(|i| i * 16).collect();
    let points = limits::master_limit_sweep(&model, 1_000_000.0, &nodes);
    assert_eq!(points.len(), nodes.len());
    assert!(points.iter().all(|p| p.master_ms > 0.0 && p.total_ms > 0.0));
}
