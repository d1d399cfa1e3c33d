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
//! cell past the range. With 46-byte cells that is Figure 6's 1425. An
//! aggregation of a whole partition reaches the same blocks and counts
//! them a column at a time instead (`Run::tally_partition`).

use crate::block::{build_blocks, check_block, fold_block, last_cell, BlockColumns, BlockMeta};
use crate::bloom::BloomFilter;
use crate::engine::Journal;
use crate::receipt::ReadReceipt;
use crate::schema::{Cell, CellRef, PartitionKey, CELL_HEADER_BYTES};
use crate::stream::{CellBuf, ClusteringRange, Tally, WHOLE};
use bytes::BytesMut;
use std::cmp::Ordering;
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
    /// order, the first of them block number `first` of the run — with its
    /// bytes and the receipt, until `fold` returns `Ok(false)`; charges the
    /// receipt for any I/O.
    fn read_blocks(
        &self,
        first: usize,
        blocks: &[BlockMeta],
        cache: &mut Self::Cache,
        receipt: &mut ReadReceipt,
        fold: impl FnMut(&BlockMeta, &[u8], &mut ReadReceipt) -> io::Result<bool>,
    ) -> io::Result<()>;
}

/// The heap medium: the one buffer the builder wrote, lent a block at a
/// time. Nothing is charged to the `disk_*` fields and no checksum is
/// verified — none is computed until a run is written to a file — and
/// every block passed the column check when the run was sealed
/// ([`RunBuilder::finish`]).
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
        _first: usize,
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

/// One partition's entry in a run's partition index: a fixed-size record
/// that points at nothing on the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PartitionEntry {
    pub(crate) cell_count: u32,
    /// Encoded size of the partition (sum of its block lengths).
    pub(crate) bytes: u64,
    /// Its blocks, its column index: `blocks.0..blocks.1` of the index's
    /// block list.
    blocks: (u32, u32),
}

impl PartitionEntry {
    /// The partition's cells, and the bytes of their payloads: its encoded
    /// size less a header a cell (an SSTable file whose index says less is
    /// refused at open).
    pub(crate) fn held(&self) -> (usize, usize) {
        let cells = self.cell_count as usize;
        (cells, self.bytes as usize - cells * CELL_HEADER_BYTES)
    }
}

/// A run's partition index, pointer-free: every key back to back in one
/// buffer, every key's first 8 bytes as one `u64` (its *head*), every
/// partition's [`BlockMeta`]s in one list, and one [`PartitionEntry`] a
/// partition. A lookup's binary search compares heads, one load and one
/// integer compare a probe, and reads a key's bytes only where the heads
/// tie (Graefe's "poor man's normalized keys", *Modern B-Tree
/// Techniques*, 2011). The heads are derived, never stored: a file's
/// index is the keys alone, and [`PartitionIndex::close`] adds each
/// key's head beside it.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct PartitionIndex {
    keys: Vec<u8>,
    /// Where each key ends in `keys`; it starts where the one before ended.
    key_ends: Vec<u32>,
    /// Each key's [`head`].
    heads: Vec<u64>,
    pub(crate) entries: Vec<PartitionEntry>,
    /// Every partition's blocks, in key order.
    pub(crate) blocks: Vec<BlockMeta>,
}

impl PartitionIndex {
    /// Closes partition `key` over the blocks added to `blocks` since the
    /// last one closed. `None`, adding nothing, unless `key` sorts after
    /// every key before it and its cells fit a `u32`.
    pub(crate) fn close(&mut self, key: &[u8]) -> Option<PartitionEntry> {
        let first = self.entries.last().map_or(0, |last| last.blocks.1);
        let blocks = &self.blocks[first as usize..];
        let cells: u64 = blocks.iter().map(|b| b.cells as u64).sum();
        let entry = PartitionEntry {
            cell_count: u32::try_from(cells).ok()?,
            bytes: blocks.iter().map(|b| b.len as u64).sum(),
            blocks: (first, self.blocks.len() as u32),
        };
        let last = self.entries.len().checked_sub(1);
        if last.is_some_and(|last| self.key(last) >= key) {
            return None;
        }
        self.keys.extend_from_slice(key);
        self.key_ends.push(self.keys.len() as u32);
        self.heads.push(head(key));
        self.entries.push(entry);
        Some(entry)
    }

    /// The key of the `i`-th partition.
    pub(crate) fn key(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |before| self.key_ends[before]);
        &self.keys[start as usize..self.key_ends[i] as usize]
    }

    /// `entry`'s blocks.
    pub(crate) fn blocks(&self, entry: &PartitionEntry) -> &[BlockMeta] {
        &self.blocks[entry.blocks.0 as usize..entry.blocks.1 as usize]
    }

    /// The entry of partition `key`, searched for by head; key bytes are
    /// compared only where the heads tie.
    fn find(&self, key: &[u8]) -> Option<&PartitionEntry> {
        let head = head(key);
        let (mut lo, mut hi) = (0, self.heads.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let order = self.heads[mid].cmp(&head);
            match order.then_with(|| self.tie(mid, key)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(&self.entries[mid]),
            }
        }
        None
    }

    /// How the `i`-th key orders against `key`, whose head is its own.
    /// Keys of at most 8 bytes with one head differ only in how many zero
    /// bytes end them, so the shorter sorts first and no key byte is read;
    /// longer keys are compared whole.
    fn tie(&self, i: usize, key: &[u8]) -> Ordering {
        let mine = self.key(i);
        if mine.len() <= 8 && key.len() <= 8 {
            mine.len().cmp(&key.len())
        } else {
            mine.cmp(key)
        }
    }
}

/// A key's first 8 bytes, big-endian and zero-padded. Heads order as
/// their keys do wherever they differ: the first byte they differ in is
/// either a byte both keys have, or one past the end of the shorter key,
/// which is a prefix of the longer there and so sorts first. Keys
/// shorter than 8 bytes or sharing their first 8 can tie ("ab" and
/// "ab\0" both have head `0x6162_0000_0000_0000`).
fn head(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(first) => u64::from_be_bytes(*first),
        None => (key.iter().enumerate()).fold(0, |head, (i, &b)| head | (b as u64) << (56 - 8 * i)),
    }
}

/// An immutable sorted run whose blocks lie in `M`.
#[derive(Debug)]
pub struct Run<M> {
    pub(crate) generation: u64,
    pub(crate) column_index_size: usize,
    pub(crate) index: PartitionIndex,
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
    index: PartitionIndex,
    columns: BlockColumns,
}

impl RunBuilder {
    /// A builder whose buffer holds `bytes` of blocks before it grows.
    pub(crate) fn with_capacity(bytes: usize) -> RunBuilder {
        RunBuilder {
            data: BytesMut::with_capacity(bytes),
            index: PartitionIndex::default(),
            columns: BlockColumns::default(),
        }
    }

    /// Appends a partition. Panics unless keys arrive strictly ascending
    /// (and cells do within a partition) — a bug upstream.
    pub(crate) fn push<'a>(
        &mut self,
        pk: &PartitionKey,
        cells: impl IntoIterator<Item = CellRef<'a>>,
    ) {
        let index = &mut self.index;
        build_blocks(cells, &mut self.columns, &mut self.data, &mut index.blocks);
        let closed = index.close(pk.as_bytes());
        closed.expect("partitions must be strictly ascending");
    }

    /// The run of generation `generation`, with a bloom filter over every
    /// key pushed. Each block passes the column check ([`check_block`])
    /// here, once, so no read of the run makes it again.
    ///
    /// # Panics
    /// If a block fails it: the builder disagrees with its own layout.
    pub(crate) fn finish(self, opts: &SsTableOptions, generation: u64) -> Run<BytesMut> {
        for meta in &self.index.blocks {
            let block = &self.data[meta.offset as usize..][..meta.len as usize];
            BytesMut::out(check_block(generation, meta, block));
        }
        let count = self.index.entries.len();
        let mut bloom = BloomFilter::with_rate(count, opts.bloom_fp_rate);
        for i in 0..count {
            bloom.insert(self.index.key(i));
        }
        Run {
            generation,
            column_index_size: opts.column_index_size,
            index: self.index,
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
        let entry = self.index.find(pk.as_bytes());
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
        let (first, reached) = self.reach(entry, (from, to), receipt);
        let generation = self.generation;
        self.medium
            .read_blocks(first, reached, cache, receipt, |meta, block, receipt| {
                fold_block(generation, meta, block, (from, to), receipt, &mut visit)
            })
    }

    /// The blocks of `entry` a read of `from..=to` reaches, and the
    /// number in the run of the first, the run and the column index
    /// charged: decided from their metadata alone.
    fn reach(
        &self,
        entry: &PartitionEntry,
        (from, to): ClusteringRange,
        receipt: &mut ReadReceipt,
    ) -> (usize, &[BlockMeta]) {
        receipt.sstables_read += 1;
        // Blocks are ascending and disjoint, so both selections are
        // contiguous.
        let blocks = self.index.blocks(entry);
        let first = entry.blocks.0 as usize;
        if entry.bytes > self.column_index_size as u64 {
            receipt.used_column_index = true;
            let lo = blocks.partition_point(|b| b.last_clustering < from);
            let hi = blocks.partition_point(|b| b.first_clustering <= to).max(lo);
            receipt.column_index_blocks += (hi - lo) as u64;
            (first + lo, &blocks[lo..hi])
        } else {
            let within = blocks.partition_point(|b| b.last_clustering <= to);
            (first, &blocks[..blocks.len().min(within + 1)])
        }
    }

    /// Counts the whole partition of `entry` into `tally` a block at a
    /// time ([`crate::block::tally_block`]) — the blocks the scan of the
    /// whole partition reaches, fetched and verified through the same
    /// [`Medium::read_blocks`] — and returns how many cells it counted.
    /// Bills the receipt exactly as [`Run::scan_partition`] over the
    /// whole partition does. `Err` as that scan's; `tally` may have
    /// counted a prefix of the partition by then.
    pub(crate) fn tally_partition(
        &self,
        entry: &PartitionEntry,
        cache: &mut M::Cache,
        receipt: &mut ReadReceipt,
        tally: &mut Tally,
    ) -> io::Result<u64> {
        let (first, reached) = self.reach(entry, WHOLE, receipt);
        let (generation, mut cells) = (self.generation, 0);
        // Only the final block's last cell is the partition's: copy no other.
        let final_offset = reached.last().map(|meta| meta.offset);
        self.medium
            .read_blocks(first, reached, cache, receipt, |meta, block, receipt| {
                tally.add_block(generation, meta, block, receipt)?;
                if Some(meta.offset) == final_offset {
                    if let Some(last) = last_cell(generation, meta, block)? {
                        tally.set_last(last);
                    }
                }
                cells += meta.cells as u64;
                Ok(true)
            })?;
        Ok(cells)
    }

    /// Reads every partition back, in key order and one at a time — what
    /// compactions and exports merge — through the same scan as every read
    /// but with a cache of its own that holds nothing: a whole-run pass
    /// reads each block once, and caching them would only evict hot read
    /// blocks.
    pub(crate) fn scan(&self) -> impl Iterator<Item = io::Result<(PartitionKey, CellBuf)>> + '_ {
        let (mut cache, mut receipt) = (M::Cache::default(), ReadReceipt::default());
        let index = &self.index;
        index.entries.iter().enumerate().map(move |(i, entry)| {
            let (count, payloads) = entry.held();
            let mut cells = CellBuf::with_capacity(count, payloads);
            self.scan_partition(entry, WHOLE, &mut cache, &mut receipt, |cell| {
                cells.push(cell)
            })?;
            let key = PartitionKey::new(index.key(i));
            if cells.len() != entry.cell_count as usize {
                return Err(bad_data(format!(
                    "run {}: partition {key:?} decoded {} cells, index says {}",
                    self.generation,
                    cells.len(),
                    entry.cell_count
                )));
            }
            Ok((key, cells))
        })
    }
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
            self.index.entries.len()
        }

        /// Every partition, scanned back and collected.
        pub(crate) fn scanned(&self) -> io::Result<Vec<(PartitionKey, Vec<Cell>)>> {
            let cells = |(pk, cells): (PartitionKey, CellBuf)| (pk, cells.into_cells());
            self.scan().map(|scanned| scanned.map(cells)).collect()
        }

        /// Whether this partition is column-indexed (encoded size above
        /// the threshold) — the Figure 6 mechanism.
        pub(crate) fn has_column_index(&self, pk: &PartitionKey) -> bool {
            self.index
                .find(pk.as_bytes())
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
