//! Measuring `t_msg` on the real socket path.
//!
//! The paper's master model (Formula 3) is driven by one number: the
//! per-message master CPU cost, 150 µs with default Java serialization and
//! 19 µs after the Kryo optimization (§V-B). This module measures the same
//! quantity for this prototype — encode + frame + `write(2)` on the send
//! side, deframe + decode on the receive side — by running a real query
//! against a loopback slave and timing only the master-side work.
//!
//! The result plugs straight into [`kvs_model::MasterModel`], so the
//! Figure 11 master-saturation sweep can re-run with *measured* constants
//! instead of the paper's (see `fig11_master_limit`'s calibrated mode and
//! `drill load`).

use crate::local::spawn_local_cluster;
use crate::master::{NetConfig, NetMaster};
use crate::server::NetServerConfig;
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Codec, CodecKind};
use kvs_model::MasterModel;
use kvs_store::TableOptions;
use std::io;

/// A measured per-message master cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TMsgCalibration {
    /// Which codec was measured.
    pub codec: CodecKind,
    /// Messages timed (after warm-up).
    pub messages: u64,
    /// Master send cost per message, µs.
    pub tx_us_per_msg: f64,
    /// Master receive cost per message, µs.
    pub rx_us_per_msg: f64,
}

impl TMsgCalibration {
    /// The combined per-message cost — the paper's `t_msg`.
    pub fn t_msg_us(&self) -> f64 {
        self.tx_us_per_msg + self.rx_us_per_msg
    }

    /// The measurement as a [`MasterModel`], ready for
    /// [`kvs_model::SystemModel`] and the Figure 11 sweep.
    pub fn master_model(&self) -> MasterModel {
        MasterModel {
            tx_us_per_msg: self.tx_us_per_msg,
            rx_us_per_msg: self.rx_us_per_msg,
        }
    }
}

/// Measures `t_msg` for `codec` over `messages` requests against one
/// loopback slave (64 partitions × 32 cells; every request is a real
/// store read answered over TCP).
///
/// A short warm-up run precedes the measurement so connection setup,
/// allocator warm-up, and cold caches don't pollute the figure.
pub fn calibrate_t_msg(codec: Codec, messages: u64) -> io::Result<TMsgCalibration> {
    let messages = messages.max(1);
    let parts = uniform_partitions(64, 32, 4);
    let data = ClusterData::load(1, 1, TableOptions::default(), parts);
    let (cluster, routes) = spawn_local_cluster(
        data,
        NetServerConfig {
            workers_per_node: 4,
            queue_depth: 256,
        },
    )?;
    let mut master = NetMaster::connect(
        &cluster.addrs(),
        NetConfig {
            codec,
            ..NetConfig::default()
        },
    )?;

    // Cycle the partition list until the batch is `messages` long.
    let keys: Vec<_> = routes
        .iter()
        .cycle()
        .take(messages as usize)
        .cloned()
        .collect();

    let warmup: Vec<_> = routes.iter().take(32).cloned().collect();
    master.run_query(&warmup)?;

    let report = master.run_query(&keys)?;
    let calibration = TMsgCalibration {
        codec: codec.kind,
        messages,
        tx_us_per_msg: report.tx_us_per_msg(),
        rx_us_per_msg: report.rx_us_per_msg(),
    };
    master.shutdown();
    cluster.shutdown();
    Ok(calibration)
}
