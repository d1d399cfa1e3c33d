//! Network cluster: the aggregation query over real TCP sockets.
//!
//! Boots four slave servers on loopback ports (each owning a quarter of a
//! D8tree-style dataset), connects a master over TCP, runs the query with
//! both codecs, and prints the four-stage breakdown, the slave queue
//! counters, and the measured per-message master cost.
//!
//! Run with: `cargo run --release --example net_cluster`

use kvscale::cluster::data::uniform_partitions;
use kvscale::cluster::{ClusterData, Codec};
use kvscale::net::{calibrate_t_msg, spawn_local_cluster, NetConfig, NetMaster, NetServerConfig};
use kvscale::prelude::*;

fn main() {
    let nodes = 4u32;
    let partitions = 2_000u64;
    let cells = 32u64;
    println!("== net cluster ({nodes} TCP slave servers on loopback) ==\n");

    for codec in [Codec::verbose(), Codec::compact()] {
        let data = ClusterData::load(
            nodes,
            1,
            TableOptions::default(),
            uniform_partitions(partitions, cells, 4),
        );
        let (cluster, routes) =
            spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
        let mut master = NetMaster::connect(
            &cluster.addrs(),
            NetConfig {
                codec,
                ..NetConfig::default()
            },
        )
        .expect("master connects");
        let report = master.run_query(&routes).expect("query succeeds");
        assert_eq!(report.result.total_cells, partitions * cells);

        println!(
            "{:?} codec: {} keys  wall {}  {} B out / {} B in  tx {:.1} µs/msg  rx {:.1} µs/msg",
            codec.kind,
            report.result.messages,
            report.result.makespan,
            report.result.bytes_to_slaves,
            report.result.bytes_to_master,
            report.tx_us_per_msg(),
            report.rx_us_per_msg(),
        );
        for stage in Stage::ALL {
            if let Some(stats) = report.result.report.per_stage_ms.get(&stage) {
                println!(
                    "    {:>18}: mean {:>9.3} ms   max {:>9.3} ms",
                    stage.name(),
                    stats.mean(),
                    stats.max()
                );
            }
        }
        master.shutdown();
        let queue = cluster.shutdown();
        println!(
            "    queue: {} pushed, {} busy-rejected, max depth {}\n",
            queue.pushed, queue.busy_rejections, queue.max_depth
        );
    }

    // The §V-B measurement on this machine's socket path.
    println!("t_msg calibration (1 slave, 2000 messages):");
    for codec in [Codec::verbose(), Codec::compact()] {
        let cal = calibrate_t_msg(codec, 2_000).expect("calibration runs");
        println!(
            "    {:?}: t_msg {:>7.2} µs  (tx {:.2} + rx {:.2})",
            cal.codec,
            cal.t_msg_us(),
            cal.tx_us_per_msg,
            cal.rx_us_per_msg
        );
    }
}
