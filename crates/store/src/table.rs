//! The table: the per-node database the cluster layer talks to — the one
//! storage engine (`engine.rs`) over runs in a [`Medium`], on either
//! tier. [`Table`] holds its runs in memory and may keep a row cache;
//! [`crate::DurableTable`] is the same type over SSTable files, its writes
//! logged and its runs committed by the disk medium's journal. Reads go
//! row cache → (memtable ∥ every run its bloom filter admits) → merge
//! newest-wins → fill cache, as Cassandra's do.

use crate::cache::Lru;
use crate::engine::{Engine, Journal};
use crate::memtable::Memtable;
use crate::receipt::ReadReceipt;
use crate::run::{Medium, Run, SsTableOptions};
use crate::schema::{Cell, CellRef, ClusteringKey, PartitionKey};
use crate::stream::{CellBuf, WHOLE};
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

/// Lifetime counters for a table, on either medium.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableMetrics {
    /// Cells written (on disk, each one logged first).
    pub writes: u64,
    /// Logical reads served.
    pub reads: u64,
    /// Memtable flushes committed.
    pub flushes: u64,
    /// Compactions committed.
    pub compactions: u64,
    /// Reads served entirely from the row cache.
    pub row_cache_hits: u64,
}

/// A single-node wide-column table whose runs lie in `M`: in memory (the
/// default), or in files as a [`crate::DurableTable`], where every
/// operation answers an `io::Result` ([`Medium::Out`]).
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
pub struct Table<M: Medium = BytesMut> {
    pub(crate) engine: Engine<M>,
    pub(crate) journal: M::Journal,
    row_cache: Lru<PartitionKey, Arc<Vec<Cell>>>,
    row_cache_on: bool,
    metrics: TableMetrics,
}

impl Table {
    /// Creates an empty table in memory.
    pub fn new(opts: TableOptions) -> Self {
        let engine = Engine {
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
        };
        Table::assemble(engine, (), opts.row_cache_partitions)
    }

    /// Creates a table in memory with default options.
    pub fn with_defaults() -> Self {
        Self::new(TableOptions::default())
    }
}

/// The heap tier keeps nothing beside its runs: a built run is installed
/// as it is, and nothing of committing it can fail.
impl Journal<BytesMut> for () {
    fn flush(&mut self, engine: &mut Engine<BytesMut>, run: Run<BytesMut>) -> io::Result<bool> {
        Ok(engine.install_flush(run))
    }

    fn compaction(&mut self, engine: &mut Engine<BytesMut>, run: Run<BytesMut>) -> io::Result<()> {
        engine.install_compaction(run);
        Ok(())
    }

    fn ingest(&mut self, engine: &mut Engine<BytesMut>, run: Run<BytesMut>) -> io::Result<()> {
        engine.push(run);
        Ok(())
    }
}

impl<M: Medium> Table<M> {
    /// A table over `engine` and `journal` with a row cache of `rows`
    /// partitions (0 disables it).
    pub(crate) fn assemble(engine: Engine<M>, journal: M::Journal, rows: usize) -> Self {
        Table {
            engine,
            journal,
            row_cache: Lru::new(rows),
            row_cache_on: rows > 0,
            metrics: TableMetrics::default(),
        }
    }

    /// Runs `op` if the journal still trusts the table, and answers as the
    /// medium answers.
    fn run<T>(&mut self, op: impl FnOnce(&mut Self) -> io::Result<T>) -> M::Out<T> {
        M::out(self.journal.check().and_then(|()| op(self)))
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

    /// Writes one cell — on disk, logged first, so once this answers `Ok`
    /// the write is recoverable (modulo the fsync policy's window) — and
    /// flushes / compacts when thresholds trip.
    pub fn put(&mut self, pk: PartitionKey, cell: Cell) -> M::Out<()> {
        self.run(|t| {
            t.journal.log(&pk, &cell)?;
            t.metrics.writes += 1;
            if t.row_cache_on {
                t.row_cache.invalidate(&pk);
            }
            t.engine.memtable.insert(pk, cell);
            if t.engine.flush_due() {
                M::into_result(t.flush())?;
            }
            Ok(())
        })
    }

    /// Writes every cell of one partition ([`Table::put`] each).
    pub fn put_all(
        &mut self,
        pk: &PartitionKey,
        cells: impl IntoIterator<Item = Cell>,
    ) -> M::Out<()> {
        let mut cells = cells.into_iter();
        self.run(|t| cells.try_for_each(|cell| M::into_result(t.put(pk.clone(), cell))))
    }

    /// Forces the memtable into a new SSTable, possibly compacting. No-op
    /// when the memtable is empty.
    pub fn flush(&mut self) -> M::Out<()> {
        self.run(|t| {
            if t.engine.memtable.is_empty() {
                return Ok(());
            }
            let run = t.engine.memtable_run();
            let compact = t.journal.flush(&mut t.engine, run)?;
            t.metrics.flushes += 1;
            if compact {
                M::into_result(t.compact())?;
            }
            Ok(())
        })
    }

    /// Merges every SSTable into one (size-tiered "major" compaction),
    /// newest generation winning conflicts. No-op below two.
    pub fn compact(&mut self) -> M::Out<()> {
        self.run(|t| {
            let Some(run) = t.engine.compacted()? else {
                return Ok(());
            };
            t.journal.compaction(&mut t.engine, run)?;
            t.metrics.compactions += 1;
            // Data moved; cached rows remain *logically* valid (compaction
            // does not change content), so the row cache is kept.
            Ok(())
        })
    }

    /// Bulk-loads already-sorted partitions directly into an SSTable newer
    /// than every other, bypassing the memtable (and on disk the WAL: the
    /// manifest commits it, so it is just as durable). The restart seeding
    /// path — cluster loads use this for the bulk of the data, then
    /// [`Table::put`] for the tail that should exercise WAL replay.
    pub fn ingest_sorted(&mut self, input: &[(PartitionKey, Vec<Cell>)]) -> M::Out<()> {
        self.run(|t| {
            if input.is_empty() {
                return Ok(());
            }
            let run = Run::build(input, &t.engine.build, t.engine.next_generation);
            t.journal.ingest(&mut t.engine, run)?;
            for (pk, _) in input.iter().filter(|_| t.row_cache_on) {
                t.row_cache.invalidate(pk);
            }
            Ok(())
        })
    }

    /// Streams a whole partition's cells, in clustering order and in place,
    /// into `visit`, and returns the work receipt — the read primitive:
    /// [`Table::get`] collects from it, an aggregation folds over it
    /// without ever owning a cell. A row-cache hit visits the cached cells;
    /// a miss on a table whose row cache is enabled keeps what it streams
    /// to fill the cache. On `Err` (disk only: I/O failure, detected
    /// corruption) `visit` may have seen part of the partition.
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
    ) -> M::Out<ReadReceipt> {
        self.run(|t| {
            t.metrics.reads += 1;
            if !t.row_cache_on {
                return t.engine.stream_partition(pk, WHOLE, visit);
            }
            if let Some(cached) = t.row_cache.get(pk) {
                t.metrics.row_cache_hits += 1;
                cached.iter().for_each(|cell| visit(cell.as_cell_ref()));
                return Ok(ReadReceipt {
                    row_cache_hit: true,
                    cells_returned: cached.len() as u64,
                    ..ReadReceipt::default()
                });
            }
            let mut kept = CellBuf::default();
            let receipt = t.engine.stream_partition(pk, WHOLE, |cell| {
                kept.push(cell);
                visit(cell);
            })?;
            if kept.len() > 0 {
                t.row_cache.put(pk.clone(), Arc::new(kept.into_cells()));
            }
            Ok(receipt)
        })
    }

    /// Reads a whole partition, merging memtable and SSTables newest-wins.
    /// Returns the cells in clustering order plus the work receipt.
    pub fn get(&mut self, pk: &PartitionKey) -> M::Out<(Vec<Cell>, ReadReceipt)> {
        let mut cells = CellBuf::default();
        let receipt = M::into_result(self.fold_partition(pk, |cell| cells.push(cell)));
        M::out(receipt.map(|receipt| (cells.into_cells(), receipt)))
    }

    /// Reads a clustering range of a partition; column-indexed partitions
    /// seek to overlapping blocks only. No row-cache interaction —
    /// Cassandra's row cache also only serves full-row reads.
    pub fn get_range(
        &mut self,
        pk: &PartitionKey,
        range: RangeInclusive<ClusteringKey>,
    ) -> M::Out<(Vec<Cell>, ReadReceipt)> {
        self.run(|t| {
            t.metrics.reads += 1;
            let mut cells = CellBuf::default();
            let receipt = t
                .engine
                .stream_partition(pk, range.into_inner(), |cell| cells.push(cell))?;
            Ok((cells.into_cells(), receipt))
        })
    }

    /// Exports the table's full logical contents as `(partition, cells)`
    /// pairs in partition order, merging every run and the memtable
    /// newest-wins — the input a durable bulk-load ingests. Does not
    /// mutate the table.
    pub fn export_partitions(&self) -> M::Out<Vec<(PartitionKey, Vec<Cell>)>> {
        let mut partitions = Vec::new();
        let merged = self.journal.check().and_then(|()| {
            self.engine
                .merge(true, |pk, cells| partitions.push((pk, cells.into_cells())))
        });
        M::out(merged.map(|()| partitions))
    }

    /// Forces logged writes to stable storage (on disk, useful with
    /// [`crate::FsyncPolicy::EveryN`] / [`crate::FsyncPolicy::Never`]
    /// before an ack; on the heap there is nothing to force).
    pub fn sync_wal(&mut self) -> M::Out<()> {
        self.run(|t| t.journal.sync())
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
