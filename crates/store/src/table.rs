//! The table: the storage engine over runs held in memory ([`crate::run`]),
//! plus a row cache — the per-node database the cluster layer talks to.
//! Reads go row cache → (memtable ∥ every run its bloom filter admits) →
//! merge newest-wins → fill cache, as Cassandra's do.

use crate::cache::Lru;
use crate::engine::Engine;
use crate::memtable::Memtable;
use crate::receipt::ReadReceipt;
use crate::run::{Run, SsTableOptions};
use crate::schema::{Cell, CellRef, ClusteringKey, PartitionKey};
use crate::stream::{CellBuf, ClusteringRange, WHOLE};
use bytes::BytesMut;
use std::io;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Table configuration.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Flush the memtable to an SSTable when it exceeds this many bytes.
    pub memtable_flush_bytes: usize,
    /// Column-index threshold per partition (Cassandra's
    /// `column_index_size_in_kb`, default 64 KiB).
    pub column_index_size: usize,
    /// Bloom-filter target false-positive rate.
    pub bloom_fp_rate: f64,
    /// Row-cache capacity in partitions (0 disables it).
    pub row_cache_partitions: usize,
    /// Trigger a full compaction when this many SSTables accumulate.
    pub compaction_threshold: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            memtable_flush_bytes: 8 * 1024 * 1024,
            column_index_size: 64 * 1024,
            bloom_fp_rate: 0.01,
            row_cache_partitions: 0,
            compaction_threshold: 4,
        }
    }
}

/// Lifetime counters for a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableMetrics {
    /// Cells written.
    pub writes: u64,
    /// Logical reads served.
    pub reads: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Reads served entirely from the row cache.
    pub row_cache_hits: u64,
}

/// A heap run's blocks are the bytes its builder encoded beside their
/// index, so nothing of reading one can fail.
fn held<T>(result: io::Result<T>) -> T {
    result.unwrap_or_else(|e| panic!("a run held in memory disagrees with its own index: {e}"))
}

/// A single-node wide-column table.
///
/// ```
/// use kvs_store::{Cell, PartitionKey, Table, TableOptions};
///
/// let mut table = Table::new(TableOptions::default());
/// table.put(PartitionKey::from("users:eu"), Cell::new(1, 0, vec![0xAA]));
/// table.put(PartitionKey::from("users:eu"), Cell::new(2, 1, vec![0xBB]));
/// table.flush(); // memtable → SSTable
///
/// let (cells, receipt) = table.get(&PartitionKey::from("users:eu"));
/// assert_eq!(cells.len(), 2);
/// assert_eq!(receipt.sstables_read, 1);
/// ```
pub struct Table {
    engine: Engine<BytesMut>,
    row_cache: Lru<PartitionKey, Arc<Vec<Cell>>>,
    row_cache_on: bool,
    metrics: TableMetrics,
}

impl Table {
    /// Creates an empty table.
    pub fn new(opts: TableOptions) -> Self {
        Table {
            engine: Engine {
                memtable: Memtable::new(),
                runs: Vec::new(),
                next_generation: 1,
                cache: (),
                build: SsTableOptions {
                    column_index_size: opts.column_index_size,
                    bloom_fp_rate: opts.bloom_fp_rate,
                },
                flush_bytes: opts.memtable_flush_bytes,
                compaction_threshold: opts.compaction_threshold,
            },
            row_cache: Lru::new(opts.row_cache_partitions),
            row_cache_on: opts.row_cache_partitions > 0,
            metrics: TableMetrics::default(),
        }
    }

    /// Creates a table with default options.
    pub fn with_defaults() -> Self {
        Self::new(TableOptions::default())
    }

    /// Lifetime metrics.
    pub fn metrics(&self) -> TableMetrics {
        self.metrics
    }

    /// Number of live SSTables.
    pub fn sstable_count(&self) -> usize {
        self.engine.runs.len()
    }

    /// Total cells currently buffered in the memtable.
    pub fn memtable_cells(&self) -> usize {
        self.engine.memtable.cells()
    }

    /// Writes one cell, flushing / compacting when thresholds trip.
    pub fn put(&mut self, pk: PartitionKey, cell: Cell) {
        self.metrics.writes += 1;
        self.row_cache.invalidate(&pk);
        self.engine.memtable.insert(pk, cell);
        if self.engine.flush_due() {
            self.flush();
        }
    }

    /// Bulk-loads cells for one partition (test/workload convenience).
    pub fn put_all(&mut self, pk: &PartitionKey, cells: impl IntoIterator<Item = Cell>) {
        for cell in cells {
            self.put(pk.clone(), cell);
        }
    }

    /// Forces the memtable into a new SSTable, possibly compacting.
    pub fn flush(&mut self) {
        if self.engine.memtable.is_empty() {
            return;
        }
        let input = self.engine.memtable.drain_sorted();
        let run = Run::build(&input, &self.engine.build, self.engine.next_generation);
        self.metrics.flushes += 1;
        if self.engine.install_flush(run) {
            self.compact();
        }
    }

    /// Merges all SSTables into one (size-tiered "major" compaction).
    pub fn compact(&mut self) {
        let Some(run) = held(self.engine.compacted()) else {
            return;
        };
        self.engine.install_compaction(run);
        self.metrics.compactions += 1;
        // Data moved; cached rows remain *logically* valid (compaction does
        // not change content), so the cache is kept.
    }

    /// Streams a whole partition's cells, in clustering order and in place,
    /// into `visit`, and returns the work receipt — the read primitive:
    /// [`Table::get`] collects from it, an aggregation folds over it
    /// without ever owning a cell. A row-cache hit visits the cached cells;
    /// a miss on a table whose row cache is enabled keeps what it streams
    /// to fill the cache.
    ///
    /// ```
    /// use kvs_store::{Cell, PartitionKey, Table};
    ///
    /// let mut table = Table::with_defaults();
    /// let pk = PartitionKey::from("users:eu");
    /// table.put_all(&pk, (0..10).map(|c| Cell::synthetic(c, (c % 2) as u8)));
    ///
    /// let mut kinds = [0u64; 256];
    /// let receipt = table.fold_partition(&pk, |cell| kinds[cell.kind as usize] += 1);
    /// assert_eq!((kinds[0], kinds[1]), (5, 5));
    /// assert_eq!(receipt.cells_returned, 10);
    /// ```
    pub fn fold_partition(
        &mut self,
        pk: &PartitionKey,
        mut visit: impl FnMut(CellRef<'_>),
    ) -> ReadReceipt {
        self.metrics.reads += 1;
        if let Some(cached) = self.row_cache.get(pk) {
            self.metrics.row_cache_hits += 1;
            cached.iter().for_each(|cell| visit(cell.as_cell_ref()));
            return ReadReceipt {
                row_cache_hit: true,
                cells_returned: cached.len() as u64,
                ..ReadReceipt::default()
            };
        }
        if !self.row_cache_on {
            return self.stream(pk, WHOLE, visit);
        }
        let mut kept = CellBuf::default();
        let receipt = self.stream(pk, WHOLE, |cell| {
            kept.push(cell);
            visit(cell);
        });
        if kept.len() > 0 {
            self.row_cache.put(pk.clone(), Arc::new(kept.into_cells()));
        }
        receipt
    }

    /// Reads a whole partition, merging memtable and SSTables newest-wins.
    /// Returns the cells in clustering order plus the work receipt.
    pub fn get(&mut self, pk: &PartitionKey) -> (Vec<Cell>, ReadReceipt) {
        let mut cells = CellBuf::default();
        let receipt = self.fold_partition(pk, |cell| cells.push(cell));
        (cells.into_cells(), receipt)
    }

    /// Reads a clustering range of a partition (no row-cache interaction —
    /// Cassandra's row cache also only serves full-row reads).
    pub fn get_range(
        &mut self,
        pk: &PartitionKey,
        range: RangeInclusive<ClusteringKey>,
    ) -> (Vec<Cell>, ReadReceipt) {
        self.metrics.reads += 1;
        let mut cells = CellBuf::default();
        let receipt = self.stream(pk, range.into_inner(), |cell| cells.push(cell));
        (cells.into_cells(), receipt)
    }

    /// The one read path under the row cache
    /// ([`Engine::stream_partition`]).
    fn stream(
        &mut self,
        pk: &PartitionKey,
        range: ClusteringRange,
        visit: impl FnMut(CellRef<'_>),
    ) -> ReadReceipt {
        held(self.engine.stream_partition(pk, range, visit))
    }

    /// Exports the table's full logical contents as `(partition, cells)`
    /// pairs in partition order, merging every run and the memtable
    /// newest-wins — the input a durable bulk-load ingests. Does not
    /// mutate the table.
    pub fn export_partitions(&self) -> Vec<(PartitionKey, Vec<Cell>)> {
        let mut partitions = Vec::new();
        let merged = self.engine.merge(true, |pk, cells| {
            partitions.push((pk, cells.into_cells()));
        });
        held(merged);
        partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    fn small_opts() -> TableOptions {
        TableOptions {
            memtable_flush_bytes: 46 * 100, // flush every 100 cells
            compaction_threshold: 100,      // no auto-compaction
            ..Default::default()
        }
    }

    #[test]
    fn read_your_writes_from_memtable() {
        let mut t = Table::with_defaults();
        t.put(pk(1), Cell::synthetic(10, 2));
        let (cells, receipt) = t.get(&pk(1));
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].kind, 2);
        assert!(receipt.memtable_hit);
        assert_eq!(receipt.sstables_read, 0);
    }

    #[test]
    fn read_after_flush_hits_sstable() {
        let mut t = Table::with_defaults();
        for c in 0..50u64 {
            t.put(pk(1), Cell::synthetic(c, 0));
        }
        t.flush();
        assert_eq!(t.sstable_count(), 1);
        assert_eq!(t.memtable_cells(), 0);
        let (cells, receipt) = t.get(&pk(1));
        assert_eq!(cells.len(), 50);
        assert!(!receipt.memtable_hit);
        assert_eq!(receipt.sstables_read, 1);
    }

    #[test]
    fn newest_write_wins_across_runs() {
        let mut t = Table::new(small_opts());
        t.put(pk(1), Cell::new(7, 1, vec![1]));
        t.flush();
        t.put(pk(1), Cell::new(7, 2, vec![2]));
        t.flush();
        t.put(pk(1), Cell::new(7, 3, vec![3])); // memtable, newest
        let (cells, _) = t.get(&pk(1));
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].kind, 3);
        // And after dropping the memtable version, the newest SSTable wins.
        let mut t2 = Table::new(small_opts());
        t2.put(pk(1), Cell::new(7, 1, vec![1]));
        t2.flush();
        t2.put(pk(1), Cell::new(7, 2, vec![2]));
        t2.flush();
        let (cells2, _) = t2.get(&pk(1));
        assert_eq!(cells2[0].kind, 2);
    }

    #[test]
    fn automatic_flush_on_threshold() {
        let mut t = Table::new(small_opts());
        for c in 0..250u64 {
            t.put(pk(c % 5), Cell::synthetic(c, 0));
        }
        assert!(t.metrics().flushes >= 2, "flushes: {}", t.metrics().flushes);
        // All data still readable.
        let total: usize = (0..5u64).map(|p| t.get(&pk(p)).0.len()).sum();
        assert_eq!(total, 250);
    }

    #[test]
    fn automatic_compaction_on_threshold() {
        let mut t = Table::new(TableOptions {
            memtable_flush_bytes: 46 * 10,
            compaction_threshold: 3,
            ..Default::default()
        });
        for c in 0..200u64 {
            t.put(pk(c % 4), Cell::synthetic(c, 0));
        }
        t.flush();
        assert!(t.metrics().compactions >= 1);
        assert!(t.sstable_count() < 3);
        let total: usize = (0..4u64).map(|p| t.get(&pk(p)).0.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn merged_reads_span_memtable_and_sstables() {
        let mut t = Table::new(small_opts());
        for c in 0..10u64 {
            t.put(pk(1), Cell::synthetic(c, 0));
        }
        t.flush();
        for c in 10..20u64 {
            t.put(pk(1), Cell::synthetic(c, 1));
        }
        let (cells, receipt) = t.get(&pk(1));
        assert_eq!(cells.len(), 20);
        assert!(receipt.memtable_hit);
        assert_eq!(receipt.sstables_read, 1);
        assert!(cells.windows(2).all(|w| w[0].clustering < w[1].clustering));
    }

    #[test]
    fn range_reads_merge_correctly() {
        let mut t = Table::new(small_opts());
        for c in (0..100u64).step_by(2) {
            t.put(pk(1), Cell::synthetic(c, 0));
        }
        t.flush();
        for c in (1..100u64).step_by(2) {
            t.put(pk(1), Cell::synthetic(c, 1));
        }
        let (cells, _) = t.get_range(&pk(1), 10..=19);
        let keys: Vec<u64> = cells.iter().map(|c| c.clustering).collect();
        assert_eq!(keys, (10..=19).collect::<Vec<u64>>());
    }

    #[test]
    fn row_cache_serves_repeat_reads() {
        let mut t = Table::new(TableOptions {
            row_cache_partitions: 8,
            ..small_opts()
        });
        for c in 0..30u64 {
            t.put(pk(1), Cell::synthetic(c, 0));
        }
        t.flush();
        let (_, r1) = t.get(&pk(1));
        assert!(!r1.row_cache_hit);
        let (cells, r2) = t.get(&pk(1));
        assert!(r2.row_cache_hit);
        assert_eq!(cells.len(), 30);
        assert_eq!(t.metrics().row_cache_hits, 1);
    }

    #[test]
    fn writes_invalidate_row_cache() {
        let mut t = Table::new(TableOptions {
            row_cache_partitions: 8,
            ..small_opts()
        });
        t.put(pk(1), Cell::synthetic(0, 0));
        let _ = t.get(&pk(1));
        t.put(pk(1), Cell::synthetic(1, 0));
        let (cells, r) = t.get(&pk(1));
        assert!(!r.row_cache_hit, "stale cache served");
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn missing_partition_reads_empty() {
        let mut t = Table::with_defaults();
        t.put(pk(1), Cell::synthetic(0, 0));
        t.flush();
        let (cells, receipt) = t.get(&pk(99));
        assert!(cells.is_empty());
        assert_eq!(receipt.cells_returned, 0);
        let (cells2, _) = t.get_range(&pk(99), 0..=10);
        assert!(cells2.is_empty());
    }

    #[test]
    fn export_partitions_merges_newest_wins() {
        let mut t = Table::new(small_opts());
        t.put(pk(1), Cell::new(7, 1, vec![1]));
        t.flush();
        t.put(pk(1), Cell::new(7, 2, vec![2]));
        t.flush();
        t.put(pk(0), Cell::synthetic(0, 0)); // stays in the memtable
        t.put(pk(1), Cell::new(7, 3, vec![3]));
        let parts = t.export_partitions();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, pk(0));
        assert_eq!(parts[1].0, pk(1));
        assert_eq!(parts[1].1.len(), 1);
        assert_eq!(parts[1].1[0].kind, 3, "memtable version must win");
        // Export is non-destructive and matches reads.
        assert_eq!(t.get(&pk(1)).0, parts[1].1);
    }

    #[test]
    fn metrics_count_operations() {
        let mut t = Table::new(small_opts());
        for c in 0..10u64 {
            t.put(pk(0), Cell::synthetic(c, 0));
        }
        let _ = t.get(&pk(0));
        let _ = t.get_range(&pk(0), 0..=3);
        let m = t.metrics();
        assert_eq!(m.writes, 10);
        assert_eq!(m.reads, 2);
    }
}
