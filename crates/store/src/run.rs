//! One SSTable format on both store tiers.
//!
//! A [`Run`] is a bloom filter over its partition keys, a partition index
//! of [`BlockMeta`] lists and the blocks in a [`Medium`]: a heap buffer on
//! the RAM tier, a file behind the block cache on the durable one
//! ([`crate::sst_file`]). One builder lays out every flush, compaction and
//! ingest; one partition scan serves every read: bloom filter, partition
//! index, then — past [`SsTableOptions::column_index_size`] (64 KiB) — the
//! block list as the *column index*, so a range read seeks to the blocks it
//! overlaps; a smaller partition is decoded from its start to the first
//! cell past the range. With 46-byte cells that is Figure 6's 1425.

use crate::block::{build_blocks, BlockMeta};
use crate::bloom::BloomFilter;
use crate::engine::Journal;
use crate::receipt::ReadReceipt;
use crate::schema::{Cell, CellRef, PartitionKey, CELL_HEADER_BYTES};
use crate::stream::{CellBuf, ClusteringRange, WHOLE};
use bytes::BytesMut;
use std::io;

/// Build-time options for a run.
#[derive(Debug, Clone)]
pub struct SsTableOptions {
    /// Partitions whose encoded size exceeds this many bytes are
    /// column-indexed (Cassandra default: 64 KiB).
    pub column_index_size: usize,
    /// Target bloom-filter false-positive rate.
    pub bloom_fp_rate: f64,
}

/// Where a run's blocks lie: the seam between the one partition scan and
/// the bytes it decodes, and between the one [`crate::Table`] and what
/// each tier adds to it.
pub trait Medium: Sized {
    /// What scans keep from one read to the next (the file medium's block
    /// cache); the default keeps nothing.
    type Cache: Default;

    /// What a table keeps beside its runs — nothing on the heap; the WAL
    /// and the manifest on disk — and how it commits a run it built.
    type Journal: Journal<Self>;

    /// What a table's operations answer: `T` on the heap, where nothing
    /// can fail, `io::Result<T>` on disk.
    type Out<T>;

    /// A table operation's result, answered as this medium answers.
    fn out<T>(result: io::Result<T>) -> Self::Out<T>;

    /// An answer of this medium as a result, for callers of either.
    fn into_result<T>(out: Self::Out<T>) -> io::Result<T>;

    /// Hands `fold` each of `blocks` — consecutive blocks of the run, in
    /// order — with its bytes and the receipt, until `fold` returns
    /// `Ok(false)`; charges the receipt for any I/O.
    fn read_blocks(
        &self,
        blocks: &[BlockMeta],
        cache: &mut Self::Cache,
        receipt: &mut ReadReceipt,
        fold: impl FnMut(&BlockMeta, &[u8], &mut ReadReceipt) -> io::Result<bool>,
    ) -> io::Result<()>;
}

/// The heap medium: the one buffer the builder wrote, lent a block at a
/// time. Nothing is charged to the `disk_*` fields and no checksum is
/// verified — none is computed until a run is written to a file.
impl Medium for BytesMut {
    type Cache = ();
    type Journal = ();
    type Out<T> = T;

    /// A heap run's blocks are the bytes its builder encoded beside their
    /// index, so nothing of reading one can fail.
    fn out<T>(result: io::Result<T>) -> T {
        result.unwrap_or_else(|e| panic!("a run held in memory disagrees with its own index: {e}"))
    }

    fn into_result<T>(out: T) -> io::Result<T> {
        Ok(out)
    }

    fn read_blocks(
        &self,
        blocks: &[BlockMeta],
        _cache: &mut (),
        receipt: &mut ReadReceipt,
        mut fold: impl FnMut(&BlockMeta, &[u8], &mut ReadReceipt) -> io::Result<bool>,
    ) -> io::Result<()> {
        for meta in blocks {
            let block = &self[meta.offset as usize..][..meta.len as usize];
            if !fold(meta, block, receipt)? {
                break;
            }
        }
        Ok(())
    }
}

/// One partition's entry in a run's partition index; its blocks are its
/// column index.
#[derive(Debug, PartialEq)]
pub(crate) struct PartitionEntry {
    pub(crate) key: PartitionKey,
    pub(crate) cell_count: u32,
    /// Encoded size of the partition (sum of its block lengths).
    pub(crate) bytes: u64,
    pub(crate) blocks: Vec<BlockMeta>,
}

/// An immutable sorted run whose blocks lie in `M`.
#[derive(Debug)]
pub struct Run<M> {
    pub(crate) generation: u64,
    pub(crate) column_index_size: usize,
    pub(crate) partitions: Vec<PartitionEntry>,
    pub(crate) bloom: BloomFilter,
    pub(crate) medium: M,
}

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The one run builder: lays partitions out, in the order pushed, as
/// blocks back to back in one buffer, and indexes them — a run held in
/// memory as it is, or written out with the buffer at file offset 0.
pub(crate) struct RunBuilder {
    data: BytesMut,
    partitions: Vec<PartitionEntry>,
}

impl RunBuilder {
    /// A builder whose buffer holds `bytes` of blocks before it grows.
    pub(crate) fn with_capacity(bytes: usize) -> RunBuilder {
        RunBuilder {
            data: BytesMut::with_capacity(bytes),
            partitions: Vec::new(),
        }
    }

    /// Appends a partition. Panics unless keys arrive strictly ascending
    /// (and cells do within a partition) — a bug upstream.
    pub(crate) fn push<'a>(
        &mut self,
        pk: &PartitionKey,
        cells: impl IntoIterator<Item = CellRef<'a>>,
    ) {
        if let Some(prev) = self.partitions.last() {
            assert!(prev.key < *pk, "partitions must be strictly ascending");
        }
        let start = self.data.len();
        let blocks = build_blocks(cells, &mut self.data);
        self.partitions.push(PartitionEntry {
            key: pk.clone(),
            cell_count: blocks.iter().map(|b| b.cells).sum(),
            bytes: (self.data.len() - start) as u64,
            blocks,
        });
    }

    /// The run of generation `generation`, with a bloom filter over every
    /// key pushed.
    pub(crate) fn finish(self, opts: &SsTableOptions, generation: u64) -> Run<BytesMut> {
        let mut bloom = BloomFilter::with_rate(self.partitions.len(), opts.bloom_fp_rate);
        for p in &self.partitions {
            bloom.insert(p.key.as_bytes());
        }
        Run {
            generation,
            column_index_size: opts.column_index_size,
            partitions: self.partitions,
            bloom,
            medium: self.data,
        }
    }
}

impl Run<BytesMut> {
    /// Builds a run of `(partition, cells)` pairs ([`RunBuilder`]).
    pub(crate) fn build(
        input: &[(PartitionKey, Vec<Cell>)],
        opts: &SsTableOptions,
        generation: u64,
    ) -> Self {
        let encoded = input.iter().flat_map(|(_, cells)| cells);
        let mut builder = RunBuilder::with_capacity(encoded.map(Cell::encoded_len).sum());
        for (pk, cells) in input {
            builder.push(pk, cells.iter().map(Cell::as_cell_ref));
        }
        builder.finish(opts, generation)
    }
}

impl<M> Run<M> {
    fn find(&self, pk: &PartitionKey) -> Option<&PartitionEntry> {
        self.partitions
            .binary_search_by(|p| p.key.cmp(pk))
            .ok()
            .map(|i| &self.partitions[i])
    }

    /// Looks the partition up — bloom filter, then partition index —
    /// charging the receipt for each step; `None` when this run does not
    /// hold it.
    pub(crate) fn probe(
        &self,
        pk: &PartitionKey,
        receipt: &mut ReadReceipt,
    ) -> Option<&PartitionEntry> {
        receipt.bloom_probes += 1;
        if !self.bloom.maybe_contains(pk.as_bytes()) {
            receipt.bloom_negatives += 1;
            return None;
        }
        receipt.partition_index_seeks += 1;
        let entry = self.find(pk);
        if entry.is_none() {
            receipt.bloom_false_positives += 1;
        }
        entry
    }
}

impl<M: Medium> Run<M> {
    /// Streams the cells of `entry` whose clustering keys lie in
    /// `from..=to`, in order and in place, into `visit` — the one
    /// partition scan, on both media — charging the receipt for every
    /// cell decoded (and the medium for every block it fetches).
    ///
    /// Which blocks the scan reaches is decided from their metadata: a
    /// column-indexed partition seeks to the overlapping blocks only; a
    /// small one is decoded from its start through the first block holding
    /// a cell past the range. `Err` on I/O failure or detected corruption:
    /// a failed checksum, or a block whose contents disagree with its
    /// [`BlockMeta`]; `visit` may have seen part of the partition by then.
    pub(crate) fn scan_partition(
        &self,
        entry: &PartitionEntry,
        (from, to): ClusteringRange,
        cache: &mut M::Cache,
        receipt: &mut ReadReceipt,
        mut visit: impl FnMut(CellRef<'_>),
    ) -> io::Result<()> {
        receipt.sstables_read += 1;
        // Blocks are ascending and disjoint, so both selections are
        // contiguous.
        let blocks = &entry.blocks;
        let reached = if entry.bytes > self.column_index_size as u64 {
            receipt.used_column_index = true;
            let lo = blocks.partition_point(|b| b.last_clustering < from);
            let hi = blocks.partition_point(|b| b.first_clustering <= to).max(lo);
            receipt.column_index_blocks += (hi - lo) as u64;
            &blocks[lo..hi]
        } else {
            let within = blocks.partition_point(|b| b.last_clustering <= to);
            &blocks[..blocks.len().min(within + 1)]
        };
        let generation = self.generation;
        self.medium
            .read_blocks(reached, cache, receipt, |meta, block, receipt| {
                fold_block(generation, meta, block, (from, to), receipt, &mut visit)
            })
    }

    /// Reads every partition back, in key order and one at a time — what
    /// compactions and exports merge — through the same scan as every read
    /// but with a cache of its own that holds nothing: a whole-run pass
    /// reads each block once, and caching them would only evict hot read
    /// blocks.
    pub(crate) fn scan(&self) -> impl Iterator<Item = io::Result<(PartitionKey, CellBuf)>> + '_ {
        let (mut cache, mut receipt) = (M::Cache::default(), ReadReceipt::default());
        self.partitions.iter().map(move |entry| {
            let count = entry.cell_count as usize;
            let payloads = entry.bytes as usize - count * CELL_HEADER_BYTES;
            let mut cells = CellBuf::with_capacity(count, payloads);
            self.scan_partition(entry, WHOLE, &mut cache, &mut receipt, |cell| {
                cells.push(cell)
            })?;
            if cells.len() != entry.cell_count as usize {
                return Err(bad_data(format!(
                    "run {}: partition {:?} decoded {} cells, index says {}",
                    self.generation,
                    entry.key,
                    cells.len(),
                    entry.cell_count
                )));
            }
            Ok((entry.key.clone(), cells))
        })
    }
}

/// Decodes one block of run `generation` into `visit`, charging the
/// receipt per cell. `Ok(false)` once a cell past `to` ends the scan;
/// `Err` when the block's contents disagree with its [`BlockMeta`].
fn fold_block(
    generation: u64,
    meta: &BlockMeta,
    mut block: &[u8],
    (from, to): ClusteringRange,
    receipt: &mut ReadReceipt,
    visit: &mut impl FnMut(CellRef<'_>),
) -> io::Result<bool> {
    let mut in_block = 0u32;
    while let Some(cell) = CellRef::decode(&mut block) {
        receipt.cells_scanned += 1;
        receipt.bytes_read += cell.encoded_len() as u64;
        if cell.clustering > to {
            return Ok(false);
        }
        if cell.clustering >= from {
            visit(cell);
        }
        in_block += 1;
    }
    if in_block != meta.cells || !block.is_empty() {
        return Err(bad_data(format!(
            "run {generation}: block at offset {} decoded {in_block} cells, index says {}",
            meta.offset, meta.cells
        )));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClusteringKey;
    use std::ops::RangeInclusive;

    /// The tables' defaults, for the tests that build runs directly.
    impl Default for SsTableOptions {
        fn default() -> Self {
            SsTableOptions {
                column_index_size: 64 * 1024,
                bloom_fp_rate: 0.01,
            }
        }
    }

    /// What the tests read a run by directly; the tables read through
    /// [`Run::probe`] and [`Run::scan_partition`] alone.
    impl<M: Medium> Run<M> {
        pub(crate) fn generation(&self) -> u64 {
            self.generation
        }

        pub(crate) fn partition_count(&self) -> usize {
            self.partitions.len()
        }

        /// Every partition, scanned back and collected.
        pub(crate) fn scanned(&self) -> io::Result<Vec<(PartitionKey, Vec<Cell>)>> {
            let cells = |(pk, cells): (PartitionKey, CellBuf)| (pk, cells.into_cells());
            self.scan().map(|scanned| scanned.map(cells)).collect()
        }

        /// Whether this partition is column-indexed (encoded size above
        /// the threshold) — the Figure 6 mechanism.
        pub(crate) fn has_column_index(&self, pk: &PartitionKey) -> bool {
            self.find(pk)
                .is_some_and(|p| p.bytes > self.column_index_size as u64)
        }

        /// Reads a whole partition; `Ok(None)` (with the probe charged)
        /// when this run does not hold it.
        pub(crate) fn read(
            &self,
            pk: &PartitionKey,
            cache: &mut M::Cache,
            receipt: &mut ReadReceipt,
        ) -> io::Result<Option<Vec<Cell>>> {
            let Some(entry) = self.probe(pk, receipt) else {
                return Ok(None);
            };
            let mut cells = CellBuf::default();
            self.scan_partition(entry, WHOLE, cache, receipt, |cell| cells.push(cell))?;
            receipt.cells_returned += cells.len() as u64;
            Ok(Some(cells.into_cells()))
        }

        /// Reads the cells of a partition within a clustering range.
        pub(crate) fn read_range(
            &self,
            pk: &PartitionKey,
            range: RangeInclusive<ClusteringKey>,
            cache: &mut M::Cache,
            receipt: &mut ReadReceipt,
        ) -> io::Result<Vec<Cell>> {
            let Some(entry) = self.probe(pk, receipt) else {
                return Ok(Vec::new());
            };
            let mut cells = CellBuf::default();
            let range = range.into_inner();
            self.scan_partition(entry, range, cache, receipt, |cell| cells.push(cell))?;
            receipt.cells_returned += cells.len() as u64;
            Ok(cells.into_cells())
        }
    }

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    /// A run held in memory with one partition of each size.
    fn build_one(partition_sizes: &[usize]) -> Run<BytesMut> {
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
        Run::build(&input, &SsTableOptions::default(), 1)
    }

    fn read(run: &Run<BytesMut>, p: u64, r: &mut ReadReceipt) -> Option<Vec<Cell>> {
        run.read(&pk(p), &mut (), r).expect("a heap run reads")
    }

    fn read_range(
        run: &Run<BytesMut>,
        range: RangeInclusive<u64>,
        r: &mut ReadReceipt,
    ) -> Vec<Cell> {
        run.read_range(&pk(0), range, &mut (), r)
            .expect("a heap run reads")
    }

    #[test]
    fn read_returns_all_cells_in_order() {
        let run = build_one(&[10, 20]);
        let mut r = ReadReceipt::default();
        let cells = read(&run, 1, &mut r).unwrap();
        assert_eq!(cells.len(), 20);
        assert!(cells.windows(2).all(|w| w[0].clustering < w[1].clustering));
        assert_eq!(r.cells_returned, 20);
        assert_eq!(r.bytes_read, 20 * 46);
        assert_eq!(r.sstables_read, 1);
        assert!(!r.used_column_index);
        // The heap medium bills no disk.
        assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (0, 0));
    }

    #[test]
    fn missing_partition_updates_receipt() {
        let run = build_one(&[5]);
        let mut r = ReadReceipt::default();
        assert!(read(&run, 42, &mut r).is_none());
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
        let run = build_one(&[1424, 1425]);
        assert!(!run.has_column_index(&pk(0)));
        assert!(run.has_column_index(&pk(1)));
    }

    #[test]
    fn column_index_blocks_are_counted() {
        let run = build_one(&[5000]);
        let mut r = ReadReceipt::default();
        read(&run, 0, &mut r).unwrap();
        assert!(r.used_column_index);
        // 5000 × 46 B = 230 000 B → 56 blocks of 90 cells (the last 50).
        assert_eq!(r.column_index_blocks, 56);
    }

    #[test]
    fn range_read_small_partition_scans_everything() {
        let run = build_one(&[100]);
        let mut r = ReadReceipt::default();
        let cells = read_range(&run, 10..=19, &mut r);
        assert_eq!(cells.len(), 10);
        assert_eq!(cells[0].clustering, 10);
        // No column index: the partition is decoded from its start up to
        // the first cell past the range (cells 0..=20).
        assert_eq!(r.cells_scanned, 21);
        assert!(!r.used_column_index);
    }

    #[test]
    fn range_read_large_partition_seeks() {
        let run = build_one(&[10_000]);
        let mut r = ReadReceipt::default();
        let cells = read_range(&run, 5_000..=5_099, &mut r);
        assert_eq!(cells.len(), 100);
        assert!(r.used_column_index);
        // Only the overlapping blocks — 4950..=5039 and 5040..=5129 — are
        // decoded, the second up to the first cell past the range.
        assert_eq!(r.column_index_blocks, 2);
        assert_eq!(r.cells_scanned, 90 + 61);
    }

    #[test]
    fn range_read_full_span_equals_point_read() {
        let run = build_one(&[2000]);
        let mut r1 = ReadReceipt::default();
        let all = read(&run, 0, &mut r1).unwrap();
        let mut r2 = ReadReceipt::default();
        let ranged = read_range(&run, 0..=u64::MAX, &mut r2);
        assert_eq!(all, ranged);
        assert_eq!(r1, r2);
    }

    #[test]
    fn empty_range_returns_nothing() {
        let run = build_one(&[100]);
        let mut r = ReadReceipt::default();
        let cells = read_range(&run, 500..=600, &mut r);
        assert!(cells.is_empty());
        assert_eq!(r.cells_returned, 0);
    }

    #[test]
    fn partitions_iterator_roundtrips() {
        let run = build_one(&[3, 7, 1]);
        let scanned = run.scanned().expect("a heap run reads");
        let lens: Vec<usize> = scanned.iter().map(|(_, cells)| cells.len()).collect();
        assert_eq!(lens, [3, 7, 1]);
        assert_eq!(run.partition_count(), 3);
        assert_eq!(run.medium.len(), (3 + 7 + 1) * 46);
    }

    #[test]
    fn empty_sstable_is_valid() {
        let run = Run::build(&[], &SsTableOptions::default(), 0);
        let mut r = ReadReceipt::default();
        assert!(read(&run, 0, &mut r).is_none());
        assert_eq!(run.partition_count(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_partitions_rejected() {
        let input = vec![
            (pk(2), vec![Cell::synthetic(0, 0)]),
            (pk(1), vec![Cell::synthetic(0, 0)]),
        ];
        let _ = Run::build(&input, &SsTableOptions::default(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_cells_rejected() {
        let input = vec![(pk(1), vec![Cell::synthetic(5, 0), Cell::synthetic(3, 0)])];
        let _ = Run::build(&input, &SsTableOptions::default(), 0);
    }
}
