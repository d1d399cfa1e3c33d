//! DHT data placement: partitions → hash ring → per-node tables.
//!
//! The placement directory is flat: a hash map from a partition's key to
//! its slot, and one array of every partition's replicas, `rf` to a slot,
//! so a lookup is one hash probe and its replica list a slice of one
//! contiguous array. The map hashes with the store's fixed hash
//! ([`FixedState`]), safe here for the reason the block cache's is: the
//! loader places every key before any request arrives, and a request
//! only looks one up. The cell counts stay a key-ordered map, which is
//! what the query routes are drawn from.

use crate::messages::QueryResponse;
use kvs_balance::HashRing;
use kvs_store::cache::FixedState;
use kvs_store::{Cell, PartitionKey, ReadReceipt, Table, TableOptions, Tally};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;

/// The cluster's data: one [`Table`] per node, plus the ring and a
/// partition directory.
pub struct ClusterData {
    ring: HashRing,
    tables: Vec<Table>,
    /// partition → replica node indexes (primary first).
    placement: Placement,
    /// partition → cell count (what the planner and the master "know").
    partition_cells: BTreeMap<PartitionKey, u64>,
    replication_factor: usize,
}

/// The placement directory: partition → replica node indexes (primary
/// first).
pub(crate) struct Placement {
    /// partition → its slot.
    slots: HashMap<PartitionKey, u32, FixedState>,
    /// Every slot's replicas, `per_slot` to a slot.
    replicas: Vec<u32>,
    /// The replication factor, or the node count where it is smaller.
    per_slot: usize,
}

impl Placement {
    /// An empty directory of `per_slot` replicas a partition, with room
    /// for `partitions`.
    fn with_capacity(partitions: usize, per_slot: usize) -> Placement {
        Placement {
            slots: HashMap::with_capacity_and_hasher(partitions, FixedState),
            replicas: Vec::with_capacity(partitions * per_slot),
            per_slot,
        }
    }

    /// Places `pk` on `replicas`, unless it is placed already: the ring
    /// places a key loaded twice where it placed it before.
    fn place(&mut self, pk: PartitionKey, replicas: impl IntoIterator<Item = u32>) {
        let slot = (self.replicas.len() / self.per_slot) as u32;
        if let Entry::Vacant(new) = self.slots.entry(pk) {
            new.insert(slot);
            self.replicas.extend(replicas);
        }
    }

    /// The replica node indexes of a partition (primary first). Empty for
    /// unknown partitions.
    pub(crate) fn replicas_of(&self, pk: &PartitionKey) -> &[u32] {
        match self.slots.get(pk) {
            Some(&slot) => &self.replicas[slot as usize * self.per_slot..][..self.per_slot],
            None => &[],
        }
    }
}

impl ClusterData {
    /// Distributes `partitions` over `nodes` nodes with the given
    /// replication factor, bulk-loading each replica's table and flushing
    /// so reads hit SSTables (the steady state the paper measures).
    ///
    /// # Panics
    /// If `nodes == 0` or `replication_factor == 0`.
    pub fn load(
        nodes: u32,
        replication_factor: usize,
        table_opts: TableOptions,
        partitions: Vec<(PartitionKey, Vec<Cell>)>,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(replication_factor > 0, "need rf ≥ 1");
        let ring = HashRing::with_nodes(nodes, 128);
        let mut tables: Vec<Table> = (0..nodes).map(|_| Table::new(table_opts.clone())).collect();
        let per_slot = replication_factor.min(nodes as usize);
        let mut placement = Placement::with_capacity(partitions.len(), per_slot);
        let mut partition_cells = BTreeMap::new();
        for (pk, cells) in partitions {
            let nodes_idx = ring.replicas_for_key(pk.as_bytes(), replication_factor);
            partition_cells.insert(pk.clone(), cells.len() as u64);
            for node in &nodes_idx {
                for cell in &cells {
                    tables[node.0 as usize].put(pk.clone(), cell.clone());
                }
            }
            placement.place(pk, nodes_idx.iter().map(|node| node.0));
        }
        for t in &mut tables {
            t.flush();
        }
        ClusterData {
            ring,
            tables,
            placement,
            partition_cells,
            replication_factor,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.tables.len() as u32
    }

    /// The configured replication factor.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// The replica node indexes of a partition (primary first). Empty for
    /// unknown partitions.
    pub fn replicas_of(&self, pk: &PartitionKey) -> &[u32] {
        self.placement.replicas_of(pk)
    }

    /// The primary node of a partition.
    pub fn primary_of(&self, pk: &PartitionKey) -> Option<u32> {
        self.replicas_of(pk).first().copied()
    }

    /// The cell count the directory records for a partition.
    pub fn cells_of(&self, pk: &PartitionKey) -> u64 {
        self.partition_cells.get(pk).copied().unwrap_or(0)
    }

    /// All partitions, in key order.
    pub fn partitions(&self) -> impl Iterator<Item = (&PartitionKey, u64)> + '_ {
        self.partition_cells.iter().map(|(pk, &c)| (pk, c))
    }

    /// Number of partitions loaded.
    pub fn partition_count(&self) -> usize {
        self.partition_cells.len()
    }

    /// The slave read path: `node` aggregates the partition — counts its
    /// cells by kind with the store's one aggregation read
    /// ([`Table::aggregate`]), owning none — and answers request
    /// `request_id` with the counts, plus the receipt of the work the read
    /// did.
    pub fn aggregate(
        &mut self,
        node: u32,
        request_id: u64,
        pk: &PartitionKey,
    ) -> (QueryResponse, ReadReceipt) {
        let mut tally = Tally::default();
        let receipt = self.tables[node as usize].aggregate(pk, &mut tally);
        (QueryResponse::from_tally(request_id, &tally.kinds), receipt)
    }

    /// The placement directory and the tables, borrowed apart, so a
    /// reader can hold a partition's replicas while it reads their tables.
    pub(crate) fn placement_and_tables(&mut self) -> (&Placement, &mut [Table]) {
        (&self.placement, &mut self.tables)
    }

    /// Mutable access to a node's table.
    pub fn table_mut(&mut self, node: u32) -> &mut Table {
        &mut self.tables[node as usize]
    }

    /// Immutable access to a node's table.
    pub fn table(&self, node: u32) -> &Table {
        &self.tables[node as usize]
    }

    /// Per-node partition counts — the figure-2 style load histogram.
    pub fn partitions_per_node(&self) -> BTreeMap<u32, u64> {
        let mut out: BTreeMap<u32, u64> = (0..self.nodes()).map(|n| (n, 0)).collect();
        let placement = &self.placement;
        for replicas in placement.replicas.chunks_exact(placement.per_slot) {
            *out.get_mut(&replicas[0]).expect("node exists") += 1;
        }
        out
    }

    /// The underlying ring (for placement diagnostics).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Consumes the cluster, handing each node's table to the caller (the
    /// `kvs-net` slave servers move them behind their worker pools).
    pub fn into_tables(self) -> Vec<Table> {
        self.tables
    }
}

/// Convenience: evenly sized synthetic partitions — `partitions` partitions
/// of `cells_each` cells, kinds cycling 0..kinds.
pub fn uniform_partitions(
    partitions: u64,
    cells_each: u64,
    kinds: u8,
) -> Vec<(PartitionKey, Vec<Cell>)> {
    (0..partitions)
        .map(|p| {
            let cells = (0..cells_each)
                .map(|c| Cell::synthetic(c, (c % kinds.max(1) as u64) as u8))
                .collect();
            (PartitionKey::from_id(p), cells)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_places_every_partition() {
        let data = ClusterData::load(
            4,
            1,
            TableOptions::default(),
            uniform_partitions(100, 10, 4),
        );
        assert_eq!(data.partition_count(), 100);
        assert_eq!(data.nodes(), 4);
        let per_node = data.partitions_per_node();
        assert_eq!(per_node.values().sum::<u64>(), 100);
        // Every node should own something at this scale.
        assert!(per_node.values().all(|&c| c > 0), "{per_node:?}");
    }

    #[test]
    fn placement_follows_ring() {
        let data = ClusterData::load(8, 1, TableOptions::default(), uniform_partitions(50, 5, 2));
        for (pk, _) in data.partitions() {
            let expected = data.ring().node_for_key(pk.as_bytes());
            assert_eq!(data.primary_of(pk), Some(expected.0));
        }
    }

    #[test]
    fn replicas_are_loaded_on_all_their_nodes() {
        let mut data =
            ClusterData::load(5, 3, TableOptions::default(), uniform_partitions(20, 8, 2));
        let pk = PartitionKey::from_id(7);
        let replicas: Vec<u32> = data.replicas_of(&pk).to_vec();
        assert_eq!(replicas.len(), 3);
        for node in replicas {
            let (response, _) = data.aggregate(node, 0, &pk);
            assert_eq!(response.cells, 8, "replica on node {node} missing data");
        }
        assert_eq!(data.replication_factor(), 3);
    }

    #[test]
    fn reads_come_from_sstables_after_load() {
        let mut data =
            ClusterData::load(2, 1, TableOptions::default(), uniform_partitions(10, 20, 4));
        let pk = PartitionKey::from_id(3);
        let node = data.primary_of(&pk).unwrap();
        let (response, receipt) = data.aggregate(node, 7, &pk);
        assert_eq!((response.request_id, response.cells), (7, 20));
        assert_eq!(
            response.counts.values().copied().collect::<Vec<_>>(),
            [5; 4]
        );
        assert!(!receipt.memtable_hit, "load() must flush");
        assert_eq!(receipt.sstables_read, 1);
    }

    #[test]
    fn directory_knows_cell_counts() {
        let data = ClusterData::load(
            2,
            1,
            TableOptions::default(),
            vec![
                (PartitionKey::from_id(0), vec![Cell::synthetic(0, 0)]),
                (
                    PartitionKey::from_id(1),
                    (0..5).map(|c| Cell::synthetic(c, 0)).collect(),
                ),
            ],
        );
        assert_eq!(data.cells_of(&PartitionKey::from_id(0)), 1);
        assert_eq!(data.cells_of(&PartitionKey::from_id(1)), 5);
        assert_eq!(data.cells_of(&PartitionKey::from_id(9)), 0);
        assert!(data.replicas_of(&PartitionKey::from_id(9)).is_empty());
    }

    #[test]
    fn the_directory_finds_keys_of_every_length_and_only_those() {
        // Keys of 0 to 12 bytes, among them "ab", "ab\0" and "ab\0\0\0\0\0\0"
        // (one word, three lengths), one of them loaded twice, and a
        // replication factor above the node count.
        let loaded: Vec<&[u8]> = vec![
            b"",
            b"a",
            b"ab",
            b"ab\0",
            b"ab\0\0\0\0\0\0",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefghij",
            b"abcdefghik",
            b"ab",
        ];
        let partitions = loaded
            .iter()
            .map(|&key| (PartitionKey::new(key), vec![Cell::synthetic(0, 0)]))
            .collect();
        let data = ClusterData::load(2, 3, TableOptions::default(), partitions);
        for &key in &loaded {
            let pk = PartitionKey::new(key);
            let ring = data.ring().replicas_for_key(key, 3);
            let want: Vec<u32> = ring.iter().map(|node| node.0).collect();
            assert_eq!(data.replicas_of(&pk), want, "{pk:?}");
            assert_eq!(want.len(), 2);
        }
        for never in [
            &b"ab\0\0"[..],
            b"abcdefg",
            b"abcdefgh\0\0",
            b"abcdefghi",
            b"b",
        ] {
            assert!(data.replicas_of(&PartitionKey::new(never)).is_empty());
        }
        assert_eq!(data.partitions_per_node().values().sum::<u64>(), 9);
        assert_eq!(data.partition_count(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterData::load(0, 1, TableOptions::default(), Vec::new());
    }
}
