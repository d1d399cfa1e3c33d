//! Cross-crate integration: workloads → store → cluster, through both the
//! simulator and the loopback socket engine.

use kvscale::cluster::data::uniform_partitions;
use kvscale::cluster::{run_query, ClusterConfig, ClusterData, Codec, ReplicaPolicy, RunResult};
use kvscale::net::{spawn_local_cluster, NetConfig, NetMaster, NetServerConfig};
use kvscale::prelude::*;
use kvscale::simcore::RngHub;
use kvscale::workloads::alya::{generate, AlyaConfig};
use kvscale::workloads::{D8Tree, DataModel};

/// The aggregation over every partition of `data`, served by one TCP slave
/// per node on loopback.
fn run_over_sockets(data: ClusterData, codec: Codec) -> RunResult {
    let (cluster, routes) =
        spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
    let cfg = NetConfig {
        codec,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&cluster.addrs(), cfg).expect("master connects");
    let report = master.run_query(&routes).expect("net query succeeds");
    master.shutdown();
    cluster.shutdown();
    report.result
}

#[test]
fn d8tree_query_counts_match_index_populations() {
    let mut rng = RngHub::new(3).stream("alya");
    let particles = generate(
        &AlyaConfig {
            particles: 10_000,
            tree_depth: 5,
            ..Default::default()
        },
        &mut rng,
    );
    let tree = D8Tree::build(&particles, 4);
    let level = 3u8;
    let partitions = tree.level_partitions(level, &particles);
    let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
    let mut data = ClusterData::load(4, 1, TableOptions::default(), partitions);
    let cfg = ClusterConfig::paper_optimized_master(4).deterministic();
    let result = run_query(&cfg, &mut data, &keys);
    // Querying every cube at one level must see every particle exactly once
    // (the denormalization replicates across levels, not within one).
    assert_eq!(result.total_cells, 10_000);
    // Kind totals must match the generator's population.
    let mut expected = std::collections::BTreeMap::new();
    for p in &particles {
        *expected.entry(p.kind).or_insert(0u64) += 1;
    }
    assert_eq!(result.counts_by_kind, expected);
}

/// "Live" is the cluster of real slave servers on loopback sockets.
#[test]
fn live_and_sim_agree_on_answers_for_all_data_models() {
    for model in DataModel::ALL {
        let partitions = model.build_partitions(10_000, 4);
        let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
        let mut sim_data = ClusterData::load(3, 1, TableOptions::default(), partitions.clone());
        let net_data = ClusterData::load(3, 1, TableOptions::default(), partitions);
        let cfg = ClusterConfig::paper_optimized_master(3).deterministic();
        let sim = run_query(&cfg, &mut sim_data, &keys);
        let net = run_over_sockets(net_data, Codec::compact());
        assert_eq!(sim.counts_by_kind, net.counts_by_kind, "{model:?}");
        assert_eq!(sim.total_cells, net.total_cells);
        assert_eq!(sim.messages, net.messages);
    }
}

#[test]
fn replication_policies_preserve_answers_and_spread_load() {
    let partitions = uniform_partitions(90, 20, 4);
    let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
    let mut baseline_excess = None;
    for policy in [
        ReplicaPolicy::Primary,
        ReplicaPolicy::Random,
        ReplicaPolicy::RoundRobin,
        ReplicaPolicy::LeastLoaded,
    ] {
        let mut data = ClusterData::load(5, 3, TableOptions::default(), partitions.clone());
        let mut cfg = ClusterConfig::paper_optimized_master(5).deterministic();
        cfg.replication_factor = 3;
        cfg.replica_policy = policy;
        let result = run_query(&cfg, &mut data, &keys);
        assert_eq!(result.total_cells, 90 * 20, "{policy:?} lost cells");
        match policy {
            ReplicaPolicy::Primary => baseline_excess = Some(result.load_excess()),
            ReplicaPolicy::LeastLoaded => {
                let base = baseline_excess.expect("primary ran first");
                assert!(
                    result.load_excess() <= base + 1e-9,
                    "least-loaded ({}) worse than primary ({base})",
                    result.load_excess()
                );
            }
            _ => {}
        }
    }
}

#[test]
fn wire_bytes_depend_on_codec_not_executor() {
    // 25 requests a node, under the slaves' queue depth: the socket master
    // sends each once, so both sides count one payload per key.
    let partitions = uniform_partitions(50, 10, 2);
    let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
    let mut sizes = std::collections::BTreeMap::new();
    for codec in [Codec::verbose(), Codec::compact()] {
        let mut data = ClusterData::load(2, 1, TableOptions::default(), partitions.clone());
        let mut cfg = ClusterConfig::paper_optimized_master(2).deterministic();
        cfg.master.codec = codec;
        let sim = run_query(&cfg, &mut data, &keys);
        let net_data = ClusterData::load(2, 1, TableOptions::default(), partitions.clone());
        let net = run_over_sockets(net_data, codec);
        assert_eq!(
            sim.bytes_to_slaves, net.bytes_to_slaves,
            "{:?}: sim and sockets disagree on request payload bytes",
            codec.kind
        );
        sizes.insert(format!("{:?}", codec.kind), sim.bytes_to_slaves);
    }
    assert!(sizes["Verbose"] > sizes["Compact"] * 4);
}

#[test]
fn gc_makes_coarse_reads_slower() {
    let partitions = uniform_partitions(30, 5_000, 4);
    let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
    let base_cfg = ClusterConfig::paper_optimized_master(4);

    let mut with_gc_cfg = base_cfg.clone();
    with_gc_cfg.db.cost = with_gc_cfg.db.cost.deterministic(); // keep GC, drop noise
    let mut data1 = ClusterData::load(4, 1, TableOptions::default(), partitions.clone());
    let with_gc = run_query(&with_gc_cfg, &mut data1, &keys);

    let no_gc_cfg = base_cfg.deterministic(); // drops GC and noise
    let mut data2 = ClusterData::load(4, 1, TableOptions::default(), partitions);
    let without_gc = run_query(&no_gc_cfg, &mut data2, &keys);

    assert!(
        with_gc.makespan > without_gc.makespan,
        "GC had no effect: {} vs {}",
        with_gc.makespan,
        without_gc.makespan
    );
}

#[test]
fn node_count_mismatch_is_caught() {
    // The harness-level invariant: every queried key must be resolvable.
    let partitions = uniform_partitions(10, 5, 2);
    let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
    let mut data = ClusterData::load(2, 1, TableOptions::default(), partitions);
    let cfg = ClusterConfig::paper_optimized_master(2).deterministic();
    let result = run_query(&cfg, &mut data, &keys);
    assert_eq!(result.messages, 10);
    for trace in &result.traces {
        assert!(trace.node < 2);
        assert!(trace.is_complete());
    }
}
