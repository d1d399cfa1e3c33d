//! Property tests for the read path's one stream: over arbitrary
//! put / overwrite / flush / compact / ingest histories, `fold_partition`
//! visits exactly the cells `get` returns, in order, and bills the same
//! [`ReadReceipt`] field for field — on the RAM table with the row cache
//! off and on, and on the durable table across block-cache sizes — and
//! both agree with a last-write-wins model of the history. And the two
//! tiers are one engine: a RAM table and a durable one that live through
//! the same history answer alike, bills included but for the disk fields.
//!
//! A read changes what the next read costs (it fills the row cache, it
//! moves blocks through the block cache), so the two sides read from twin
//! tables that lived through the same history and the same earlier reads.

use kvs_store::{Cell, CellRef, PartitionKey, ReadReceipt, Table, TableOptions};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// `(what, partition, clustering, kind, payload length)`; `what` picks the
/// operation, weighted towards puts.
type Op = (u8, u64, u64, u8, usize);

/// One more partition than any op writes to: the absent one.
const PARTITIONS: u64 = 4;

/// Cells a flush holds, and the memtable threshold that makes it so.
const FLUSH_CELLS: usize = 24;

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..16,
            0..PARTITIONS - 1,
            0u64..48,
            any::<u8>(),
            0usize..40,
        ),
        1..160,
    )
}

/// What the history driver needs of either table.
trait Store {
    fn put(&mut self, pk: PartitionKey, cell: Cell);
    fn flush(&mut self);
    fn compact(&mut self);
    /// Adds `run` as a whole new sorted run, if the tier can.
    fn ingest(&mut self, pk: &PartitionKey, run: &[Cell]) -> bool;
    fn memtable_cells(&self) -> usize;
    fn get(&mut self, pk: &PartitionKey) -> (Vec<Cell>, ReadReceipt);
    fn get_range(
        &mut self,
        pk: &PartitionKey,
        range: RangeInclusive<u64>,
    ) -> (Vec<Cell>, ReadReceipt);
    fn fold(&mut self, pk: &PartitionKey, visit: impl FnMut(CellRef<'_>)) -> ReadReceipt;
}

impl Store for Table {
    fn put(&mut self, pk: PartitionKey, cell: Cell) {
        Table::put(self, pk, cell)
    }
    fn flush(&mut self) {
        Table::flush(self)
    }
    fn compact(&mut self) {
        Table::compact(self)
    }
    fn ingest(&mut self, _pk: &PartitionKey, _run: &[Cell]) -> bool {
        false
    }
    fn memtable_cells(&self) -> usize {
        Table::memtable_cells(self)
    }
    fn get(&mut self, pk: &PartitionKey) -> (Vec<Cell>, ReadReceipt) {
        Table::get(self, pk)
    }
    fn get_range(
        &mut self,
        pk: &PartitionKey,
        range: RangeInclusive<u64>,
    ) -> (Vec<Cell>, ReadReceipt) {
        Table::get_range(self, pk, range)
    }
    fn fold(&mut self, pk: &PartitionKey, visit: impl FnMut(CellRef<'_>)) -> ReadReceipt {
        self.fold_partition(pk, visit)
    }
}

/// The history's truth: the latest cell per partition and clustering key,
/// and which keys the memtable holds (an ingested run is newer than every
/// other run but older than the memtable).
#[derive(Default)]
struct Model {
    cells: BTreeMap<u64, BTreeMap<u64, Cell>>,
    in_memtable: BTreeSet<(u64, u64)>,
}

impl Model {
    fn cells(&self, p: u64) -> Vec<Cell> {
        self.cells
            .get(&p)
            .map(|row| row.values().cloned().collect())
            .unwrap_or_default()
    }
}

/// Plays `ops` on both twins, then — every 40 steps and at the end — reads
/// every partition, the absent one included and each twice so that cache
/// hits are compared too, through `get` on one twin and `fold_partition`
/// on the other.
fn twins_agree<S: Store>(mut twins: [S; 2], ops: &[Op]) {
    let mut model = Model::default();
    for (step, &(what, p, clustering, kind, len)) in ops.iter().enumerate() {
        let pk = PartitionKey::from_id(p);
        let cell = Cell::new(clustering, kind, vec![kind; len]);
        // Several blocks of one partition at once.
        let run: Vec<Cell> = (clustering..clustering + 200)
            .map(|c| Cell::new(c, kind, vec![kind; 33]))
            .collect();
        let mut ingested = false;
        for table in &mut twins {
            match what {
                0 => table.flush(),
                1 => table.compact(),
                // A read in mid-history: later reads start from its caches.
                2 => drop(table.get(&pk)),
                3 if table.ingest(&pk, &run) => ingested = true,
                _ => table.put(pk.clone(), cell.clone()),
            }
        }
        match what {
            0..=2 => {}
            3 if ingested => {
                let row = model.cells.entry(p).or_default();
                for cell in run {
                    if !model.in_memtable.contains(&(p, cell.clustering)) {
                        row.insert(cell.clustering, cell);
                    }
                }
            }
            _ => {
                model.in_memtable.insert((p, clustering));
                model.cells.entry(p).or_default().insert(clustering, cell);
            }
        }
        if twins[0].memtable_cells() == 0 {
            model.in_memtable.clear();
        }
        if step % 40 == 39 || step + 1 == ops.len() {
            let [a, b] = &mut twins;
            for p in (0..PARTITIONS).chain(0..PARTITIONS) {
                let pk = PartitionKey::from_id(p);
                let (got, got_receipt) = a.get(&pk);
                let mut folded = Vec::new();
                let fold_receipt = b.fold(&pk, |cell| {
                    folded.push(Cell::new(cell.clustering, cell.kind, cell.payload.to_vec()))
                });
                assert_eq!(folded, got, "partition {p}");
                assert_eq!(fold_receipt, got_receipt, "partition {p}");
                assert_eq!(got, model.cells(p), "partition {p}");
                assert_eq!(got_receipt.cells_returned, got.len() as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ram_fold_visits_what_get_returns(ops in ops(), row_cache in 0usize..3) {
        let opts = TableOptions {
            memtable_flush_bytes: 46 * FLUSH_CELLS,
            compaction_threshold: 4,
            // None; one that evicts from partition to partition; one that
            // holds them all.
            row_cache_partitions: [0, 1, 8][row_cache],
            ..Default::default()
        };
        twins_agree([Table::new(opts.clone()), Table::new(opts)], &ops);
    }
}

mod durable {
    use super::*;
    use kvs_store::{DurableOptions, DurableTable, FsyncPolicy, TempDir};

    impl Store for DurableTable {
        fn put(&mut self, pk: PartitionKey, cell: Cell) {
            DurableTable::put(self, pk, cell).expect("put")
        }
        fn flush(&mut self) {
            DurableTable::flush(self).expect("flush")
        }
        fn compact(&mut self) {
            DurableTable::compact(self).expect("compact")
        }
        fn ingest(&mut self, pk: &PartitionKey, run: &[Cell]) -> bool {
            self.ingest_sorted(&[(pk.clone(), run.to_vec())])
                .expect("ingest");
            true
        }
        fn memtable_cells(&self) -> usize {
            DurableTable::memtable_cells(self)
        }
        fn get(&mut self, pk: &PartitionKey) -> (Vec<Cell>, ReadReceipt) {
            DurableTable::get(self, pk).expect("get")
        }
        fn get_range(
            &mut self,
            pk: &PartitionKey,
            range: RangeInclusive<u64>,
        ) -> (Vec<Cell>, ReadReceipt) {
            DurableTable::get_range(self, pk, range).expect("range")
        }
        fn fold(&mut self, pk: &PartitionKey, visit: impl FnMut(CellRef<'_>)) -> ReadReceipt {
            self.fold_partition(pk, visit).expect("fold")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn durable_fold_visits_what_get_returns(ops in ops(), cache in 0usize..4) {
            let opts = DurableOptions {
                memtable_flush_bytes: 46 * FLUSH_CELLS,
                // Ingests add runs without compacting: leave room for
                // partitions held by many.
                compaction_threshold: 6,
                // None; smaller than a checksum group; one that thrashes;
                // one that holds everything.
                block_cache_blocks: [0, 2, 7, 1024][cache],
                fsync: FsyncPolicy::Never,
                ..Default::default()
            };
            let dirs = [TempDir::new("prop-fold-a"), TempDir::new("prop-fold-b")];
            let twins = dirs
                .each_ref()
                .map(|dir| DurableTable::open(dir.path(), opts.clone()).expect("open").0);
            twins_agree(twins, &ops);
        }

        /// The two tiers are one engine. A `Table` and a `DurableTable` —
        /// neither with a cache — live through the same history of puts,
        /// flushes and compactions, one partition of it past the 64 KiB
        /// column-index threshold, and answer every whole read of every
        /// partition and range reads over the wide one with the same cells
        /// and the same receipt in every field but the three only the disk
        /// medium bills.
        #[test]
        fn ram_and_durable_tiers_bill_alike(
            ops in ops(),
            wide in 1_426u64..2_400,
            ranges in proptest::collection::vec((0u64..2_400, 0u64..400), 1..6),
        ) {
            let flush_bytes = 46 * FLUSH_CELLS * 10;
            let ram = Table::new(TableOptions {
                memtable_flush_bytes: flush_bytes,
                ..Default::default()
            });
            let dir = TempDir::new("prop-tiers");
            let opts = DurableOptions {
                memtable_flush_bytes: flush_bytes,
                block_cache_blocks: 0,
                fsync: FsyncPolicy::Never,
                ..Default::default()
            };
            let (disk, _) = DurableTable::open(dir.path(), opts).expect("open");
            let ranges: Vec<_> = ranges.into_iter().map(|(lo, span)| lo..=lo + span).collect();
            let ram = one_history(ram, wide, &ops, &ranges);
            let disk = one_history(disk, wide, &ops, &ranges);
            for (i, (ram, disk)) in ram.into_iter().zip(disk).enumerate() {
                prop_assert_eq!(ram, disk, "read {}", i);
            }
        }
    }
}

/// Plays the tier case's history on `table` — `wide` cells into the one
/// partition no op writes to, then `ops` with ingests as puts — and returns
/// what every whole read and then every range read over the wide partition
/// answers, the receipt's disk fields zeroed: all that the two media may
/// bill apart.
fn one_history<S: Store>(
    mut table: S,
    wide: u64,
    ops: &[Op],
    ranges: &[RangeInclusive<u64>],
) -> Vec<(Vec<Cell>, ReadReceipt)> {
    let wide_pk = PartitionKey::from_id(PARTITIONS);
    for c in 0..wide {
        table.put(wide_pk.clone(), Cell::synthetic(c, (c % 4) as u8));
    }
    for &(what, p, clustering, kind, len) in ops {
        match what {
            0 => table.flush(),
            1 => table.compact(),
            _ => table.put(
                PartitionKey::from_id(p),
                Cell::new(clustering, kind, vec![kind; len]),
            ),
        }
    }
    let whole = (0..=PARTITIONS).map(|p| table.get(&PartitionKey::from_id(p)));
    let mut reads: Vec<_> = whole.collect();
    assert!(reads[PARTITIONS as usize].1.used_column_index);
    reads.extend(
        ranges
            .iter()
            .map(|range| table.get_range(&wide_pk, range.clone())),
    );
    for (_, receipt) in &mut reads {
        (
            receipt.disk_blocks_read,
            receipt.disk_block_cache_hits,
            receipt.disk_bytes_read,
        ) = (0, 0, 0);
    }
    reads
}
