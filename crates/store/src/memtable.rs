//! The in-memory write buffer: a sorted map of sorted maps.
//!
//! Exactly Cassandra's shape (§II of the paper): partition key → sorted
//! (clustering key → cell). Newest write wins on a clustering-key conflict.

use crate::schema::{Cell, ClusteringKey, PartitionKey};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// A mutable, sorted write buffer.
#[derive(Debug, Default)]
pub struct Memtable {
    partitions: BTreeMap<PartitionKey, BTreeMap<ClusteringKey, Cell>>,
    bytes: usize,
    cells: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or overwrites) a cell. Returns `true` when the cell
    /// replaced an existing clustering key.
    pub fn insert(&mut self, pk: PartitionKey, cell: Cell) -> bool {
        let size = cell.encoded_len();
        let slot = self.partitions.entry(pk).or_default();
        match slot.insert(cell.clustering, cell) {
            Some(old) => {
                self.bytes = self.bytes - old.encoded_len() + size;
                true
            }
            None => {
                self.bytes += size;
                self.cells += 1;
                false
            }
        }
    }

    /// The partition's cells with clustering keys in `range`, in order and
    /// in place; `None` when the memtable holds none.
    pub fn range(
        &self,
        pk: &PartitionKey,
        range: RangeInclusive<ClusteringKey>,
    ) -> Option<impl Iterator<Item = &Cell>> {
        let mut cells = self.partitions.get(pk)?.range(range).peekable();
        cells.peek()?;
        Some(cells.map(|(_, cell)| cell))
    }

    /// Approximate encoded size of the buffered data.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of buffered cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Clones the contents into `(partition, cells)` pairs in partition
    /// order *without* draining. The durable flush builds its SSTable from
    /// this and only replaces the memtable at the manifest commit, so a
    /// crash mid-flush loses nothing.
    pub fn snapshot_sorted(&self) -> Vec<(PartitionKey, Vec<Cell>)> {
        self.partitions
            .iter()
            .map(|(pk, cells)| (pk.clone(), cells.values().cloned().collect()))
            .collect()
    }

    /// Drains the memtable into `(partition, cells)` pairs in partition
    /// order — the input an SSTable build wants.
    pub fn drain_sorted(&mut self) -> Vec<(PartitionKey, Vec<Cell>)> {
        self.bytes = 0;
        self.cells = 0;
        std::mem::take(&mut self.partitions)
            .into_iter()
            .map(|(pk, cells)| (pk, cells.into_values().collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    /// The partition's cells in `range`, cloned out; `None` when absent.
    fn cells(mt: &Memtable, p: u64, range: RangeInclusive<ClusteringKey>) -> Option<Vec<Cell>> {
        mt.range(&pk(p), range)
            .map(|cells| cells.cloned().collect())
    }

    #[test]
    fn insert_and_get_sorted() {
        let mut mt = Memtable::new();
        for c in [5u64, 1, 3] {
            mt.insert(pk(1), Cell::synthetic(c, 0));
        }
        let cells = cells(&mt, 1, 0..=u64::MAX).unwrap();
        let keys: Vec<u64> = cells.iter().map(|c| c.clustering).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert!(mt.range(&pk(2), 0..=u64::MAX).is_none());
    }

    #[test]
    fn overwrite_keeps_newest_and_accounts_bytes() {
        let mut mt = Memtable::new();
        assert!(!mt.insert(pk(1), Cell::new(7, 0, vec![0u8; 10])));
        let bytes_before = mt.bytes();
        assert!(mt.insert(pk(1), Cell::new(7, 9, vec![0u8; 20])));
        assert_eq!(mt.cells(), 1);
        assert_eq!(mt.bytes(), bytes_before + 10);
        assert_eq!(cells(&mt, 1, 7..=7).unwrap()[0].kind, 9);
    }

    #[test]
    fn range_reads() {
        let mut mt = Memtable::new();
        for c in 0..10u64 {
            mt.insert(pk(1), Cell::synthetic(c, 0));
        }
        let cells = cells(&mt, 1, 3..=6).unwrap();
        let keys: Vec<u64> = cells.iter().map(|c| c.clustering).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
        // An absent partition, and a present one with nothing in range.
        assert!(mt.range(&pk(2), 0..=100).is_none());
        assert!(mt.range(&pk(1), 10..=100).is_none());
    }

    #[test]
    fn drain_returns_partition_order_and_empties() {
        let mut mt = Memtable::new();
        mt.insert(pk(2), Cell::synthetic(1, 0));
        mt.insert(pk(1), Cell::synthetic(2, 0));
        mt.insert(pk(1), Cell::synthetic(1, 0));
        let drained = mt.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, pk(1));
        assert_eq!(drained[0].1.len(), 2);
        assert_eq!(drained[1].0, pk(2));
        assert!(mt.is_empty());
        assert_eq!(mt.bytes(), 0);
        assert_eq!(mt.cells(), 0);
    }

    #[test]
    fn snapshot_matches_drain_but_keeps_contents() {
        let mut mt = Memtable::new();
        mt.insert(pk(2), Cell::synthetic(1, 0));
        mt.insert(pk(1), Cell::synthetic(2, 0));
        let snap = mt.snapshot_sorted();
        assert_eq!(mt.cells(), 2, "snapshot must not drain");
        assert_eq!(snap, mt.drain_sorted());
        assert!(mt.is_empty());
    }

    #[test]
    fn counters_track_inserts() {
        let mut mt = Memtable::new();
        for p in 0..3u64 {
            for c in 0..4u64 {
                mt.insert(pk(p), Cell::synthetic(c, 0));
            }
        }
        assert_eq!(mt.cells(), 12);
        assert_eq!(mt.bytes(), 12 * 46);
        assert_eq!(mt.snapshot_sorted().len(), 3);
        assert!(mt.range(&pk(0), 0..=u64::MAX).is_some());
        assert!(mt.range(&pk(9), 0..=u64::MAX).is_none());
    }
}
