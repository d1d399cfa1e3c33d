//! Integration tests for the beyond-the-paper extensions, driven through
//! the public facade: storage tiering, architecture comparison, open-loop
//! serving, failure injection, persistence and sensitivity analysis.

use kvscale::cluster::data::uniform_partitions;
use kvscale::cluster::{run_open_loop, run_query, ClusterConfig, ClusterData, NodeFailure};
use kvscale::model::architecture::{optimize_for_architecture, Architecture};
use kvscale::model::sensitivity::{dominant_parameter, Parameter};
use kvscale::prelude::*;
use kvscale::store::StorageHierarchy;
use kvscale::workloads::datamodels::custom_partitions;

#[test]
fn tiering_steps_compose_with_the_query_model() {
    let hier = StorageHierarchy::knl_like();
    let row_bytes = 250 * 46;
    // Query-time surcharge grows monotonically with working-set size.
    let mut prev = 0.0;
    for ws_gib in [1u64, 50, 500, 4_096] {
        let ms = hier.read_ms(row_bytes, ws_gib << 30);
        assert!(ms >= prev, "tiering cost not monotone at {ws_gib} GiB");
        prev = ms;
    }
    // The cliffs are exactly the cumulative capacities.
    let cliffs = hier.capacity_cliffs();
    assert_eq!(cliffs.len(), hier.tiers().len() - 1);
}

#[test]
fn sharded_master_model_and_simulator_agree_on_direction() {
    // Model: sharding helps the slow master's fine-grained query.
    let model = SystemModel::paper_slow();
    let (_, single) = optimize_for_architecture(&model, Architecture::SingleMaster, 100_000.0, 8);
    let (_, sharded) = optimize_for_architecture(
        &model,
        Architecture::ShardedMasters { shards: 4 },
        100_000.0,
        8,
    );
    assert!(sharded.total_ms() < single.total_ms());

    // Simulator: same direction on a real run.
    let parts = custom_partitions(20_000, 2_000, 4);
    let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
    let mut d1 = ClusterData::load(8, 1, TableOptions::default(), parts.clone());
    let mut d2 = ClusterData::load(8, 1, TableOptions::default(), parts);
    let cfg1 = ClusterConfig::paper_slow_master(8).deterministic();
    let mut cfg4 = cfg1.clone();
    cfg4.master_shards = 4;
    let t1 = run_query(&cfg1, &mut d1, &keys).makespan;
    let t4 = run_query(&cfg4, &mut d2, &keys).makespan;
    assert!(t4 < t1, "simulated sharding didn't help: {t4} vs {t1}");
}

#[test]
fn open_loop_latency_is_bounded_below_by_service_time() {
    let parts = uniform_partitions(100, 250, 4);
    let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
    let mut data = ClusterData::load(4, 1, TableOptions::default(), parts);
    let cfg = ClusterConfig::paper_optimized_master(4).deterministic();
    let r = run_open_loop(
        &cfg,
        &mut data,
        &keys,
        100.0,
        SimDuration::from_secs(1),
        "floor",
    );
    let s = r.latency_ms.expect("completions");
    // At trivial load, p50 ≈ the serial service time of a 250-cell row.
    let floor = CostModel::paper_cassandra().service_ms_for_cells(250);
    assert!(
        s.p50 >= floor * 0.9,
        "p50 {} below service floor {floor}",
        s.p50
    );
    assert!(
        s.p50 <= floor * 2.5,
        "p50 {} far above the floor {floor}",
        s.p50
    );
}

#[test]
fn failover_end_to_end_through_the_facade_types() {
    let parts = uniform_partitions(80, 50, 4);
    let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
    let mut data = ClusterData::load(5, 3, TableOptions::default(), parts);
    let mut cfg = ClusterConfig::paper_optimized_master(5).deterministic();
    cfg.replication_factor = 3;
    cfg.failures = vec![
        NodeFailure {
            node: 1,
            at: SimDuration::ZERO,
        },
        NodeFailure {
            node: 3,
            at: SimDuration::ZERO,
        },
    ];
    cfg.failure_timeout = SimDuration::from_millis(50);
    // Two of five nodes dead, rf=3: every key still has a live replica.
    let result = run_query(&cfg, &mut data, &keys);
    assert_eq!(result.total_cells, 80 * 50);
    assert!(!result.report.requests_per_node.contains_key(&1));
    assert!(!result.report.requests_per_node.contains_key(&3));
}

#[test]
fn sensitivity_tracks_the_bottleneck_transitions() {
    // The dominant parameter must follow the §V-B story: fixing the master
    // moves the leverage into the database tier.
    let slow = SystemModel::paper_slow();
    let fast = SystemModel::paper_optimized();
    assert_eq!(
        dominant_parameter(&slow, 10_000.0, 100.0, 16),
        Parameter::MasterTxPerMessage
    );
    assert_ne!(
        dominant_parameter(&fast, 10_000.0, 100.0, 16),
        Parameter::MasterTxPerMessage
    );
}

#[test]
fn study_run_custom_matches_preset_granularity() {
    // run_custom at a preset's partition count must behave like the preset.
    let study = Study::new(10_000);
    let preset = study.run(kvscale::workloads::DataModel::Fine, 4);
    let custom = study.run_custom(100, 4); // fine = 10 000/100-cell = 100 parts
    assert_eq!(preset.total_cells, custom.total_cells);
    assert_eq!(preset.messages, custom.messages);
}
