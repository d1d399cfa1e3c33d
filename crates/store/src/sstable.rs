//! Immutable sorted runs with Cassandra's two-level indexing.
//!
//! An [`SsTable`] holds every cell of its partitions in one contiguous
//! encoded buffer. Lookups go through:
//!
//! 1. the **bloom filter** — skip the run if the key is definitely absent;
//! 2. the **partition index** — binary search for the partition's byte
//!    extent;
//! 3. the **column index** — present *only* for partitions whose encoded
//!    size exceeds [`SsTableOptions::column_index_size`] (Cassandra's
//!    `column_index_size_in_kb`, 64 KiB by default). It subdivides the
//!    partition into blocks and lets range reads seek instead of scanning.
//!
//! The paper traced Figure 6's latency discontinuity at ≈ 1425 cells to
//! exactly this threshold; with the workspace's 46-byte cells the column
//! index appears at 1425 cells here too.

use crate::bloom::BloomFilter;
use crate::receipt::ReadReceipt;
use crate::schema::{Cell, CellRef, ClusteringKey, PartitionKey};
use crate::stream::{ClusteringRange, Run, WHOLE};
use bytes::{Bytes, BytesMut};
use std::ops::RangeInclusive;

/// Build-time options for an SSTable.
#[derive(Debug, Clone)]
pub struct SsTableOptions {
    /// Partitions whose encoded size exceeds this many bytes get a column
    /// index (Cassandra default: 64 KiB).
    pub column_index_size: usize,
    /// Target bloom-filter false-positive rate.
    pub bloom_fp_rate: f64,
}

impl Default for SsTableOptions {
    fn default() -> Self {
        SsTableOptions {
            column_index_size: 64 * 1024,
            bloom_fp_rate: 0.01,
        }
    }
}

/// One column-index entry: the clustering key starting a block and the
/// block's byte extent within the partition's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColumnIndexEntry {
    first_clustering: ClusteringKey,
    last_clustering: ClusteringKey,
    start: usize,
    end: usize,
}

/// Partition-index entry: key → byte extent (+ optional column index).
#[derive(Debug, Clone)]
pub(crate) struct PartitionEntry {
    key: PartitionKey,
    start: usize,
    end: usize,
    cell_count: usize,
    column_index: Option<Vec<ColumnIndexEntry>>,
}

/// An immutable sorted run.
#[derive(Debug)]
pub struct SsTable {
    data: Bytes,
    partitions: Vec<PartitionEntry>,
    bloom: BloomFilter,
    generation: u64,
}

impl SsTable {
    /// Builds a run from `(partition, cells)` pairs.
    ///
    /// # Panics
    /// If partitions are not strictly ascending by key or cells are not
    /// strictly ascending by clustering key — the upstream memtable drain
    /// and compaction merge both guarantee this, so a violation is a bug.
    pub fn build(
        input: Vec<(PartitionKey, Vec<Cell>)>,
        opts: SsTableOptions,
        generation: u64,
    ) -> Self {
        let mut bloom = BloomFilter::with_rate(input.len(), opts.bloom_fp_rate);
        // Sized exactly: freezing keeps the buffer as it is, and a run
        // lives as long as the table.
        let encoded = input.iter().flat_map(|(_, cells)| cells);
        let mut data = BytesMut::with_capacity(encoded.map(Cell::encoded_len).sum());
        let mut partitions = Vec::with_capacity(input.len());
        for (pk, cells) in input {
            if let Some(prev) = partitions.last() {
                let prev: &PartitionEntry = prev;
                assert!(prev.key < pk, "partitions must be strictly ascending");
            }
            bloom.insert(pk.as_bytes());
            let start = data.len();
            let mut column_index: Vec<ColumnIndexEntry> = Vec::new();
            let mut block_start = start;
            let mut block_first: Option<ClusteringKey> = None;
            let mut prev_clustering: Option<ClusteringKey> = None;
            for cell in &cells {
                if let Some(prev) = prev_clustering {
                    assert!(prev < cell.clustering, "cells must be strictly ascending");
                }
                prev_clustering = Some(cell.clustering);
                if block_first.is_none() {
                    block_first = Some(cell.clustering);
                    block_start = data.len();
                }
                cell.encode(&mut data);
                // Close the block once it crosses the configured size.
                if data.len() - block_start >= opts.column_index_size {
                    column_index.push(ColumnIndexEntry {
                        first_clustering: block_first.expect("block has a first cell"),
                        last_clustering: cell.clustering,
                        start: block_start,
                        end: data.len(),
                    });
                    block_first = None;
                }
            }
            if let (Some(first), Some(last)) = (block_first, prev_clustering) {
                column_index.push(ColumnIndexEntry {
                    first_clustering: first,
                    last_clustering: last,
                    start: block_start,
                    end: data.len(),
                });
            }
            let end = data.len();
            // Cassandra only keeps a column index for partitions larger
            // than the threshold: small rows are read whole anyway.
            let column_index = if end - start > opts.column_index_size {
                Some(column_index)
            } else {
                None
            };
            partitions.push(PartitionEntry {
                key: pk,
                start,
                end,
                cell_count: cells.len(),
                column_index,
            });
        }
        SsTable {
            data: data.freeze(),
            partitions,
            bloom,
            generation,
        }
    }

    /// The run's generation number (monotonically increasing at flush /
    /// compaction time; higher = newer data wins merges).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of partitions in the run.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total encoded data bytes.
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Whether this partition carries a column index.
    pub fn has_column_index(&self, pk: &PartitionKey) -> bool {
        self.find(pk)
            .map(|e| e.column_index.is_some())
            .unwrap_or(false)
    }

    /// Reads a whole partition; `None` (with receipt counters updated) when
    /// this run does not contain it.
    pub fn read(&self, pk: &PartitionKey, receipt: &mut ReadReceipt) -> Option<Vec<Cell>> {
        let Ok(cells) = self.collect(pk, WHOLE, &mut (), receipt);
        cells
    }

    /// Reads the cells of a partition within a clustering range, seeking
    /// via the column index when one exists.
    pub fn read_range(
        &self,
        pk: &PartitionKey,
        range: RangeInclusive<ClusteringKey>,
        receipt: &mut ReadReceipt,
    ) -> Vec<Cell> {
        let Ok(cells) = self.collect(pk, range.into_inner(), &mut (), receipt);
        cells.unwrap_or_default()
    }

    /// Iterates all partitions (for compaction).
    pub fn partitions(&self) -> impl Iterator<Item = (PartitionKey, Vec<Cell>)> + '_ {
        self.partitions.iter().map(move |entry| {
            let mut buf = self.data.slice(entry.start..entry.end);
            let mut cells = Vec::with_capacity(entry.cell_count);
            while let Some(cell) = Cell::decode(&mut buf) {
                cells.push(cell);
            }
            (entry.key.clone(), cells)
        })
    }
}

impl Run for SsTable {
    type Entry = PartitionEntry;
    type Cache = ();
    type Error = std::convert::Infallible;

    fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    fn find(&self, pk: &PartitionKey) -> Option<&PartitionEntry> {
        self.partitions
            .binary_search_by(|e| e.key.cmp(pk))
            .ok()
            .map(|i| &self.partitions[i])
    }

    /// A column-indexed partition is entered at the first overlapping
    /// block; one without decodes from its start up to the first cell past
    /// the range.
    fn scan_partition(
        &self,
        entry: &PartitionEntry,
        (from, to): ClusteringRange,
        _cache: &mut (),
        receipt: &mut ReadReceipt,
        mut visit: impl FnMut(CellRef<'_>),
    ) -> Result<(), Self::Error> {
        receipt.sstables_read += 1;
        let (start, end) = match &entry.column_index {
            Some(ci) => {
                receipt.used_column_index = true;
                // Blocks are ascending and disjoint: the overlapping ones
                // are contiguous.
                let lo = ci.partition_point(|b| b.last_clustering < from);
                let hi = ci.partition_point(|b| b.first_clustering <= to).max(lo);
                receipt.column_index_blocks += (hi - lo) as u64;
                match (ci[lo..hi].first(), ci[lo..hi].last()) {
                    (Some(first), Some(last)) => (first.start, last.end),
                    _ => return Ok(()),
                }
            }
            None => (entry.start, entry.end),
        };
        let mut buf = &self.data[start..end];
        while let Some(cell) = CellRef::decode(&mut buf) {
            receipt.cells_scanned += 1;
            receipt.bytes_read += cell.encoded_len() as u64;
            if cell.clustering > to {
                break;
            }
            if cell.clustering >= from {
                visit(cell);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    fn build_one(partition_sizes: &[usize]) -> SsTable {
        let input: Vec<(PartitionKey, Vec<Cell>)> = partition_sizes
            .iter()
            .enumerate()
            .map(|(p, &n)| {
                let cells = (0..n as u64)
                    .map(|c| Cell::synthetic(c, (c % 4) as u8))
                    .collect();
                (pk(p as u64), cells)
            })
            .collect();
        SsTable::build(input, SsTableOptions::default(), 1)
    }

    #[test]
    fn read_returns_all_cells_in_order() {
        let sst = build_one(&[10, 20]);
        let mut r = ReadReceipt::default();
        let cells = sst.read(&pk(1), &mut r).unwrap();
        assert_eq!(cells.len(), 20);
        assert!(cells.windows(2).all(|w| w[0].clustering < w[1].clustering));
        assert_eq!(r.cells_returned, 20);
        assert_eq!(r.bytes_read, 20 * 46);
        assert_eq!(r.sstables_read, 1);
        assert!(!r.used_column_index);
    }

    #[test]
    fn missing_partition_updates_receipt() {
        let sst = build_one(&[5]);
        let mut r = ReadReceipt::default();
        assert!(sst.read(&pk(42), &mut r).is_none());
        assert_eq!(r.bloom_probes, 1);
        // Either the bloom filter rejected it or it was a false positive
        // caught by the partition index.
        assert_eq!(r.bloom_negatives + r.bloom_false_positives, 1);
        assert_eq!(r.cells_returned, 0);
    }

    #[test]
    fn column_index_appears_exactly_above_threshold() {
        // 46-byte cells: 1424 cells = 65504 B ≤ 64 KiB (no index),
        // 1425 cells = 65550 B > 64 KiB (indexed) — the paper's Figure 6
        // discontinuity point.
        let sst = build_one(&[1424, 1425]);
        assert!(!sst.has_column_index(&pk(0)));
        assert!(sst.has_column_index(&pk(1)));
    }

    #[test]
    fn column_index_blocks_are_counted() {
        let sst = build_one(&[5000]);
        let mut r = ReadReceipt::default();
        sst.read(&pk(0), &mut r).unwrap();
        assert!(r.used_column_index);
        // 5000 × 46 B = 230 000 B → 4 blocks of ≥ 64 KiB.
        assert_eq!(r.column_index_blocks, 4);
    }

    #[test]
    fn range_read_small_partition_scans_everything() {
        let sst = build_one(&[100]);
        let mut r = ReadReceipt::default();
        let cells = sst.read_range(&pk(0), 10..=19, &mut r);
        assert_eq!(cells.len(), 10);
        assert_eq!(cells[0].clustering, 10);
        // No column index: the whole partition is decoded up to the range
        // end (cells 0..=20 scanned before the break).
        assert!(r.cells_scanned >= 20);
        assert!(!r.used_column_index);
    }

    #[test]
    fn range_read_large_partition_seeks() {
        let sst = build_one(&[10_000]);
        let mut r = ReadReceipt::default();
        let cells = sst.read_range(&pk(0), 5_000..=5_099, &mut r);
        assert_eq!(cells.len(), 100);
        assert!(r.used_column_index);
        // It must NOT scan all 10 000 cells — only the overlapping block(s).
        assert!(
            r.cells_scanned < 3_000,
            "scanned {} cells, seek failed",
            r.cells_scanned
        );
        assert!(r.column_index_blocks >= 1);
    }

    #[test]
    fn range_read_full_span_equals_point_read() {
        let sst = build_one(&[2000]);
        let mut r1 = ReadReceipt::default();
        let all = sst.read(&pk(0), &mut r1).unwrap();
        let mut r2 = ReadReceipt::default();
        let ranged = sst.read_range(&pk(0), 0..=u64::MAX, &mut r2);
        assert_eq!(all, ranged);
    }

    #[test]
    fn empty_range_returns_nothing() {
        let sst = build_one(&[100]);
        let mut r = ReadReceipt::default();
        let cells = sst.read_range(&pk(0), 500..=600, &mut r);
        assert!(cells.is_empty());
        assert_eq!(r.cells_returned, 0);
    }

    #[test]
    fn partitions_iterator_roundtrips() {
        let sst = build_one(&[3, 7, 1]);
        let collected: Vec<(PartitionKey, Vec<Cell>)> = sst.partitions().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].1.len(), 3);
        assert_eq!(collected[1].1.len(), 7);
        assert_eq!(collected[2].1.len(), 1);
        assert_eq!(sst.partition_count(), 3);
        assert_eq!(sst.data_bytes(), (3 + 7 + 1) * 46);
    }

    #[test]
    fn empty_sstable_is_valid() {
        let sst = SsTable::build(Vec::new(), SsTableOptions::default(), 0);
        let mut r = ReadReceipt::default();
        assert!(sst.read(&pk(0), &mut r).is_none());
        assert_eq!(sst.partition_count(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_partitions_rejected() {
        let input = vec![
            (pk(2), vec![Cell::synthetic(0, 0)]),
            (pk(1), vec![Cell::synthetic(0, 0)]),
        ];
        let _ = SsTable::build(input, SsTableOptions::default(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_cells_rejected() {
        let input = vec![(pk(1), vec![Cell::synthetic(5, 0), Cell::synthetic(3, 0)])];
        let _ = SsTable::build(input, SsTableOptions::default(), 0);
    }
}
