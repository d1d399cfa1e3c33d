//! In-process loopback clusters: N slave servers on ephemeral ports, one
//! per node of a [`ClusterData`] placement, with deterministic teardown.
//! This is the harness the integration tests, the calibration path, the
//! chaos suite, and the `drill` scenarios all boot.
//!
//! Slaves can be [`killed`](LocalCluster::kill) and
//! [`restarted`](LocalCluster::restart) individually. Every node serves
//! the one table type; what a kill means comes from how the cluster was
//! configured, not from the table a node holds:
//!
//! * **RAM cluster** ([`spawn_local_cluster`]): the server tears down
//!   (its connections drop, so a connected master sees EOF and fails
//!   over) but the node's [`Table`] is kept in memory, and a restart
//!   serves the same table on a fresh port — the pre-durability
//!   behavior.
//! * **Durable cluster** ([`spawn_local_cluster_durable`], which keeps a
//!   [`DurableClusterConfig`]): the kill *drops* the node's
//!   [`DurableTable`] entirely — exactly what a crash leaves behind is
//!   what is on disk — and the restart runs real crash recovery from the
//!   node's directory ([`kvs_store::RecoveryReport`] queryable via
//!   [`LocalCluster::last_recovery`]): manifest load, live-SSTable open,
//!   orphan cleanup and WAL replay.

use crate::master::Route;
use crate::server::{NetServerConfig, ServedTable, SlaveHandle, SlaveServer};
use kvs_cluster::queue::QueueStats;
use kvs_cluster::ClusterData;
use kvs_store::{DurableOptions, DurableTable, RecoveryReport, Table};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;

/// One node's slot in the cluster: a running server, or a killed one.
enum Slot {
    Up(SlaveHandle),
    Down {
        /// Last address the server listened on (now closed); kept so
        /// [`LocalCluster::addrs`] stays stable-length while a node is
        /// down.
        addr: SocketAddr,
        /// A killed RAM node's table, waiting in memory for the restart;
        /// `None` for a durable node, whose restart recovers from its
        /// directory.
        table: Option<Box<dyn ServedTable>>,
    },
}

/// Configuration of a durable loopback cluster.
#[derive(Debug, Clone)]
pub struct DurableClusterConfig {
    /// Root directory; node `n` persists under `<root>/node-<n>`.
    pub root: PathBuf,
    /// Storage options for every node's [`DurableTable`].
    pub store: DurableOptions,
    /// During seeding, the trailing `wal_tail` cells of every partition
    /// go through [`DurableTable::put`] (so they live in the WAL, and a
    /// restart exercises replay); the rest bulk-load via
    /// [`DurableTable::ingest_sorted`] straight into an SSTable.
    pub wal_tail: usize,
}

/// A running set of slave servers.
pub struct LocalCluster {
    slots: Vec<Slot>,
    cfg: NetServerConfig,
    /// `Some` when this is a durable cluster: restart options and the
    /// per-node recovery reports.
    durable: Option<DurableClusterConfig>,
    recoveries: Vec<Option<RecoveryReport>>,
    /// Queue stats accumulated from servers that have been killed (their
    /// live counters die with them).
    downed_stats: QueueStats,
}

impl LocalCluster {
    /// The servers' addresses, indexed by node id (feed to
    /// [`crate::NetMaster::connect`]). A down node reports its last
    /// address; connecting to it will fail until it is restarted.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::Up(h) => h.addr(),
                Slot::Down { addr, .. } => *addr,
            })
            .collect()
    }

    /// Number of slave servers (up or down).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether node `node` currently has a running server.
    pub fn is_up(&self, node: u32) -> bool {
        matches!(self.slots.get(node as usize), Some(Slot::Up(_)))
    }

    /// The recovery report of node `node`'s most recent
    /// [`restart`](LocalCluster::restart) — durable clusters only, and
    /// `None` before the first restart.
    pub fn last_recovery(&self, node: u32) -> Option<&RecoveryReport> {
        self.recoveries.get(node as usize)?.as_ref()
    }

    /// Kills node `node`: shuts its server down (connected masters see
    /// EOF immediately). A RAM node keeps its table for a later
    /// [`LocalCluster::restart`]; a durable node's store is dropped —
    /// only its directory survives, as after a real crash. No-op if the
    /// node is already down.
    pub fn kill(&mut self, node: u32) {
        let ix = node as usize;
        assert!(ix < self.slots.len(), "no node {node}");
        // Temporarily park a placeholder so we can move the handle out.
        let placeholder = Slot::Down {
            addr: ([127, 0, 0, 1], 0).into(),
            table: None,
        };
        self.slots[ix] = match std::mem::replace(&mut self.slots[ix], placeholder) {
            Slot::Up(h) => {
                let addr = h.addr();
                let (stats, table) = h.shutdown_take_store();
                self.downed_stats.merge(&stats);
                // Dropping a durable node's table is the crash: whatever it
                // had not committed to WAL/SSTables is gone.
                let table = self.durable.is_none().then_some(table);
                Slot::Down { addr, table }
            }
            down => down,
        };
    }

    /// Restarts a killed node on a fresh ephemeral port. A RAM node
    /// serves the same table it held when killed; a durable node reopens
    /// its directory — manifest load, orphan cleanup, WAL replay — and
    /// records the [`RecoveryReport`] (see
    /// [`LocalCluster::last_recovery`]). Returns the new address. No-op
    /// (returns the current address) if the node is already up.
    pub fn restart(&mut self, node: u32) -> io::Result<SocketAddr> {
        let ix = node as usize;
        assert!(ix < self.slots.len(), "no node {node}");
        if let Slot::Up(h) = &self.slots[ix] {
            return Ok(h.addr());
        }
        let placeholder = Slot::Down {
            addr: ([127, 0, 0, 1], 0).into(),
            table: None,
        };
        let Slot::Down { addr, table } = std::mem::replace(&mut self.slots[ix], placeholder) else {
            unreachable!("checked Up above")
        };
        let served = match (table, &self.durable) {
            (Some(table), _) => Ok(table),
            (None, Some(dcfg)) => {
                let opened = DurableTable::open(&node_dir(&dcfg.root, node), dcfg.store.clone());
                opened.map(|(table, report)| {
                    self.recoveries[ix] = Some(report);
                    Box::new(table) as Box<dyn ServedTable>
                })
            }
            // An empty slot of a RAM cluster: a failed restart lost its
            // table. Fail closed.
            (None, None) => Err(io::Error::other("node has no recoverable state")),
        };
        match served.and_then(|table| SlaveServer::spawn_store(table, self.cfg)) {
            Ok(handle) => {
                let new_addr = handle.addr();
                self.slots[ix] = Slot::Up(handle);
                Ok(new_addr)
            }
            Err(e) => {
                // A durable node loses nothing (its data is on disk); a RAM
                // node's table went with a failed spawn.
                self.slots[ix] = Slot::Down { addr, table: None };
                Err(e)
            }
        }
    }

    /// Work-queue backpressure counters merged over every live server,
    /// plus those of servers killed earlier.
    pub fn queue_stats(&self) -> QueueStats {
        let mut merged = self.downed_stats;
        for s in &self.slots {
            if let Slot::Up(h) = s {
                merged.merge(&h.queue_stats());
            }
        }
        merged
    }

    /// Stops every server deterministically (disconnect masters first so
    /// the connection readers see EOF immediately; they also poll a stop
    /// flag, so shutdown completes regardless). Returns the merged queue
    /// stats, including those of servers killed mid-run.
    pub fn shutdown(self) -> QueueStats {
        let mut merged = self.downed_stats;
        for s in self.slots {
            if let Slot::Up(h) = s {
                merged.merge(&h.shutdown());
            }
        }
        merged
    }
}

fn node_dir(root: &std::path::Path, node: u32) -> PathBuf {
    root.join(format!("node-{node}"))
}

/// Builds the routed key list of `data`: every partition paired with its
/// full replica set (primary first), in placement order.
fn routes_of(data: &ClusterData) -> Vec<Route> {
    data.partitions()
        .map(|(pk, _cells)| {
            let replicas = data.replicas_of(pk).to_vec();
            assert!(!replicas.is_empty(), "unplaced partition {pk:?}");
            Route {
                key: pk.clone(),
                replicas,
            }
        })
        .collect()
}

/// Boots one slave server per node of `data` on ephemeral loopback ports.
///
/// Returns the cluster plus the routed key list — every partition paired
/// with its full replica set (primary first), in placement order — ready
/// for [`crate::NetMaster::run_query`]. With `replication_factor` 1 the
/// routes degenerate to the primary-only placement of earlier revisions.
pub fn spawn_local_cluster(
    data: ClusterData,
    cfg: NetServerConfig,
) -> io::Result<(LocalCluster, Vec<Route>)> {
    spawn_nodes(data, cfg, None)
}

/// Boots a *durable* loopback cluster: each node's data is persisted
/// under `dcfg.root/node-<n>` — the bulk via direct SSTable ingest, the
/// trailing `dcfg.wal_tail` cells of every partition via the WAL — and
/// each slave serves a [`DurableTable`]. A [`kill`](LocalCluster::kill)
/// then drops the node's store outright, and the
/// [`restart`](LocalCluster::restart) performs real crash recovery from
/// the directory.
pub fn spawn_local_cluster_durable(
    data: ClusterData,
    cfg: NetServerConfig,
    dcfg: DurableClusterConfig,
) -> io::Result<(LocalCluster, Vec<Route>)> {
    spawn_nodes(data, cfg, Some(dcfg))
}

/// Boots one server per node of `data`, serving the node's table as it is
/// or, in a durable cluster, [`persist`]ed under its directory.
fn spawn_nodes(
    data: ClusterData,
    cfg: NetServerConfig,
    durable: Option<DurableClusterConfig>,
) -> io::Result<(LocalCluster, Vec<Route>)> {
    let routes = routes_of(&data);
    let mut cluster = LocalCluster {
        slots: Vec::new(),
        cfg,
        durable,
        recoveries: Vec::new(),
        downed_stats: QueueStats::default(),
    };
    for (node, table) in data.into_tables().into_iter().enumerate() {
        let served: io::Result<Box<dyn ServedTable>> = match &cluster.durable {
            None => Ok(Box::new(table)),
            Some(dcfg) => persist(dcfg, node as u32, &table).map(|t| Box::new(t) as _),
        };
        match served.and_then(|table| SlaveServer::spawn_store(table, cfg)) {
            Ok(handle) => {
                cluster.slots.push(Slot::Up(handle));
                cluster.recoveries.push(None);
            }
            Err(e) => {
                // Don't leak the servers that did boot.
                cluster.shutdown();
                return Err(e);
            }
        }
    }
    Ok((cluster, routes))
}

/// Seeds node `node`'s directory with `table`'s data: the bulk of each
/// partition straight to an SSTable, and its trailing `wal_tail` cells
/// through the WAL, so a kill/restart cycle has records to replay even
/// without new writes.
fn persist(dcfg: &DurableClusterConfig, node: u32, table: &Table) -> io::Result<DurableTable> {
    let dir = node_dir(&dcfg.root, node);
    let (mut durable, _report) = DurableTable::open(&dir, dcfg.store.clone())?;
    let mut bulk = table.export_partitions();
    let tails: Vec<_> = bulk
        .iter_mut()
        .map(|(pk, cells)| {
            let split = cells.len().saturating_sub(dcfg.wal_tail);
            (pk.clone(), cells.split_off(split))
        })
        .collect();
    bulk.retain(|(_, cells)| !cells.is_empty());
    durable.ingest_sorted(&bulk)?;
    for (pk, tail) in tails {
        durable.put_all(&pk, tail)?;
    }
    durable.sync_wal()?;
    Ok(durable)
}
