//! Block-based on-disk SSTables.
//!
//! Unlike [`crate::sstable::SsTable`] (the in-RAM run), an [`SstFile`]
//! keeps only its *metadata* resident — partition index, per-block
//! [`BlockMeta`] lists and the bloom filter — and fetches 4 KiB data
//! blocks ([`crate::block::BLOCK_TARGET_BYTES`]) from disk on demand,
//! verifying each block's checksum and charging the read to the
//! [`ReadReceipt`] (`disk_blocks_read` vs `disk_block_cache_hits`).
//!
//! The column-index mechanics survive on disk: a partition whose encoded
//! size exceeds `column_index_size` is *column-indexed* — its block list
//! doubles as the column index, so range reads seek to overlapping
//! blocks only, and receipts report `used_column_index` exactly as the
//! in-RAM store does. The Formula 6 discontinuity therefore appears at
//! the same ≈ 1425-cell threshold on the durable path.
//!
//! ## File layout
//!
//! ```text
//! [data blocks][partition index][bloom filter][footer]
//! ```
//!
//! The fixed-size footer sits at the end of the file:
//!
//! ```text
//! offset size field              notes
//!      0    4 magic              0x4B535354 ("KSST")
//!      4    1 version            1
//!      5    3 reserved           zero
//!      8    8 generation         newer wins merges
//!     16    8 column_index_size  threshold the run was built with
//!     24    8 index_off          partition index file offset
//!     32    8 index_len          partition index length
//!     40    8 bloom_off          bloom filter file offset
//!     48    8 bloom_len          bloom filter length
//!     56    8 meta_crc           fnv64 over index bytes ⋅ bloom bytes
//!     64    8 footer_crc         fnv64 over footer bytes 0..64
//! ```
//!
//! The partition index is `count (u32)` then, per partition: `key_len
//! (u16) ⋅ key ⋅ cell_count (u32) ⋅ block_count (u32) ⋅ block_count ×`
//! [`BlockMeta`] entries (absolute file offsets). Every data block
//! carries its own checksum in its `BlockMeta`, so point corruption is
//! caught at read time without rescanning the file.

use crate::block::{
    build_blocks, fnv64, fnv64_extend, fnv64_lanes, BlockMeta, BLOCK_META_BYTES, FNV_LANES,
};
use crate::bloom::BloomFilter;
use crate::cache::Lru;
use crate::receipt::ReadReceipt;
use crate::schema::{Cell, CellRef, ClusteringKey, PartitionKey};
use crate::sstable::SsTableOptions;
use crate::stream::{ClusteringRange, Run, WHOLE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::RangeInclusive;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Footer magic: `"KSST"`.
pub const SST_MAGIC: u32 = 0x4B53_5354;
/// Current file format version.
pub const SST_VERSION: u8 = 1;
/// Encoded footer size in bytes.
pub const SST_FOOTER_LEN: usize = 72;

/// The block cache shared across a durable table's runs, keyed by
/// `(generation, block offset)`.
pub type BlockCache = Lru<(u64, u64), Bytes>;

/// File name of generation `generation` (zero-padded so lexicographic
/// order is generation order).
pub fn sst_file_name(generation: u64) -> String {
    format!("sst-{generation:010}.sst")
}

/// Parses a generation back out of a file name produced by
/// [`sst_file_name`]. `None` for anything else.
pub fn parse_sst_generation(name: &str) -> Option<u64> {
    name.strip_prefix("sst-")?
        .strip_suffix(".sst")?
        .parse()
        .ok()
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Totals reported by [`write_sst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SstWriteStats {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Data-block payload bytes.
    pub data_bytes: u64,
    /// Number of data blocks written.
    pub blocks: u64,
    /// Number of partitions.
    pub partitions: u64,
    /// Total cells.
    pub cells: u64,
}

/// Writes one SSTable file: data blocks, partition index, bloom, footer,
/// then `fdatasync`. The file must not already exist (generations are
/// never reused).
///
/// # Panics
/// If partitions are not strictly ascending by key or cells are not
/// strictly ascending by clustering key — the memtable snapshot and the
/// compaction merge both guarantee this, so a violation is a bug.
pub fn write_sst(
    path: &Path,
    input: &[(PartitionKey, Vec<Cell>)],
    opts: &SsTableOptions,
    generation: u64,
) -> io::Result<SstWriteStats> {
    let mut bloom = BloomFilter::with_rate(input.len(), opts.bloom_fp_rate);
    let mut data = BytesMut::new();
    let mut index = BytesMut::new();
    let mut total_blocks = 0u64;
    let mut total_cells = 0u64;
    index.put_u32(input.len() as u32);
    let mut prev_key: Option<&PartitionKey> = None;
    for (pk, cells) in input {
        if let Some(prev) = prev_key {
            assert!(prev < pk, "partitions must be strictly ascending");
        }
        prev_key = Some(pk);
        assert!(
            cells.windows(2).all(|w| w[0].clustering < w[1].clustering),
            "cells must be strictly ascending"
        );
        bloom.insert(pk.as_bytes());
        let blocks = build_blocks(cells, data.len() as u64);
        index.put_u16(pk.len() as u16);
        index.put_slice(pk.as_bytes());
        index.put_u32(cells.len() as u32);
        index.put_u32(blocks.len() as u32);
        for (meta, bytes) in &blocks {
            meta.encode(&mut index);
            data.put_slice(bytes);
        }
        total_blocks += blocks.len() as u64;
        total_cells += cells.len() as u64;
    }
    let mut bloom_bytes = BytesMut::new();
    bloom.serialize(&mut bloom_bytes);

    let data_bytes = data.len() as u64;
    let index_off = data_bytes;
    let index_len = index.len() as u64;
    let bloom_off = index_off + index_len;
    let bloom_len = bloom_bytes.len() as u64;
    let meta_crc = fnv64_extend(fnv64(&index), &bloom_bytes);

    let mut footer = BytesMut::with_capacity(SST_FOOTER_LEN);
    footer.put_u32(SST_MAGIC);
    footer.put_u8(SST_VERSION);
    footer.put_slice(&[0u8; 3]);
    footer.put_u64(generation);
    footer.put_u64(opts.column_index_size as u64);
    footer.put_u64(index_off);
    footer.put_u64(index_len);
    footer.put_u64(bloom_off);
    footer.put_u64(bloom_len);
    footer.put_u64(meta_crc);
    let footer_crc = fnv64(&footer);
    footer.put_u64(footer_crc);

    let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
    use std::io::Write;
    file.write_all(&data)?;
    file.write_all(&index)?;
    file.write_all(&bloom_bytes)?;
    file.write_all(&footer)?;
    file.sync_data()?;
    Ok(SstWriteStats {
        file_bytes: data_bytes + index_len + bloom_len + SST_FOOTER_LEN as u64,
        data_bytes,
        blocks: total_blocks,
        partitions: input.len() as u64,
        cells: total_cells,
    })
}

/// One partition's resident metadata.
#[derive(Debug)]
pub(crate) struct DiskPartition {
    key: PartitionKey,
    cell_count: u32,
    /// Encoded size of the partition (sum of its block lengths).
    bytes: u64,
    blocks: Vec<BlockMeta>,
}

/// An open on-disk SSTable: metadata in RAM, data blocks on disk.
#[derive(Debug)]
pub struct SstFile {
    file: File,
    path: PathBuf,
    generation: u64,
    column_index_size: usize,
    partitions: Vec<DiskPartition>,
    bloom: BloomFilter,
    data_bytes: u64,
}

impl SstFile {
    /// Opens an SSTable file, verifying the footer and metadata checksums
    /// and loading the partition index and bloom filter. Data blocks stay
    /// on disk; their checksums are verified lazily at read time.
    pub fn open(path: &Path) -> io::Result<SstFile> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < SST_FOOTER_LEN as u64 {
            return Err(bad_data(format!(
                "{}: too short for a footer",
                path.display()
            )));
        }
        let mut footer_raw = vec![0u8; SST_FOOTER_LEN];
        file.read_exact_at(&mut footer_raw, file_len - SST_FOOTER_LEN as u64)?;
        let (covered, tail) = footer_raw.split_at(SST_FOOTER_LEN - 8);
        let stored = u64::from_be_bytes(
            tail.try_into()
                .map_err(|_| bad_data(format!("{}: unreadable footer crc", path.display())))?,
        );
        if fnv64(covered) != stored {
            return Err(bad_data(format!("{}: footer crc mismatch", path.display())));
        }
        let mut footer = Bytes::copy_from_slice(covered);
        if footer.get_u32() != SST_MAGIC {
            return Err(bad_data(format!("{}: bad magic", path.display())));
        }
        let version = footer.get_u8();
        if version != SST_VERSION {
            return Err(bad_data(format!(
                "{}: unsupported version {version}",
                path.display()
            )));
        }
        footer.advance(3);
        let generation = footer.get_u64();
        let column_index_size = footer.get_u64() as usize;
        let index_off = footer.get_u64();
        let index_len = footer.get_u64();
        let bloom_off = footer.get_u64();
        let bloom_len = footer.get_u64();
        let meta_crc = footer.get_u64();
        let meta_end = bloom_off.checked_add(bloom_len);
        if index_off
            .checked_add(index_len)
            .is_none_or(|end| end != bloom_off)
            || meta_end.is_none_or(|end| end != file_len - SST_FOOTER_LEN as u64)
        {
            return Err(bad_data(format!(
                "{}: metadata extents inconsistent with file size",
                path.display()
            )));
        }
        let mut index_raw = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_raw, index_off)?;
        let mut bloom_raw = vec![0u8; bloom_len as usize];
        file.read_exact_at(&mut bloom_raw, bloom_off)?;
        if fnv64_extend(fnv64(&index_raw), &bloom_raw) != meta_crc {
            return Err(bad_data(format!(
                "{}: metadata crc mismatch",
                path.display()
            )));
        }
        let partitions = parse_index(&index_raw, index_off)
            .ok_or_else(|| bad_data(format!("{}: malformed partition index", path.display())))?;
        let mut bloom_buf = Bytes::copy_from_slice(&bloom_raw);
        let bloom = BloomFilter::deserialize(&mut bloom_buf)
            .filter(|_| bloom_buf.is_empty())
            .ok_or_else(|| bad_data(format!("{}: malformed bloom filter", path.display())))?;
        Ok(SstFile {
            file,
            path: path.to_path_buf(),
            generation,
            column_index_size,
            partitions,
            bloom,
            data_bytes: index_off,
        })
    }

    /// The run's generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of partitions in the run.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Data-block payload bytes on disk.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The column-index threshold the run was built with.
    pub fn column_index_size(&self) -> usize {
        self.column_index_size
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether this partition is column-indexed (encoded size above the
    /// threshold) — the on-disk continuation of the Figure 6 mechanism.
    pub fn has_column_index(&self, pk: &PartitionKey) -> bool {
        self.find(pk)
            .map(|p| p.bytes > self.column_index_size as u64)
            .unwrap_or(false)
    }

    /// Fetches up to [`FNV_LANES`] consecutive blocks, each from the cache
    /// when it is there. The ones read from disk are checksummed together
    /// ([`fnv64_lanes`]) — every block once per disk read — and only then
    /// offered to the cache; unused slots come back empty.
    fn load_blocks(
        &self,
        group: &[BlockMeta],
        cache: &mut BlockCache,
        receipt: &mut ReadReceipt,
    ) -> io::Result<[Bytes; FNV_LANES]> {
        let mut blocks: [Bytes; FNV_LANES] = Default::default();
        let mut from_disk = [false; FNV_LANES];
        for ((meta, block), from_disk) in group.iter().zip(&mut blocks).zip(&mut from_disk) {
            if let Some(cached) = cache.get(&(self.generation, meta.offset)) {
                receipt.disk_block_cache_hits += 1;
                *block = cached.clone();
                continue;
            }
            let mut raw = vec![0u8; meta.len as usize];
            self.file.read_exact_at(&mut raw, meta.offset)?;
            // Charge before the checksum verdict: the read moved the bytes
            // whether or not they verify, and a corrupt block that escaped
            // the accounting would skew every cost model built on receipts
            // (KVS-L019 checks this must-reach property on all paths).
            receipt.disk_blocks_read += 1;
            receipt.disk_bytes_read += meta.len as u64;
            *block = Bytes::from(raw);
            *from_disk = true;
        }
        let unverified: [&[u8]; FNV_LANES] =
            std::array::from_fn(|i| if from_disk[i] { &blocks[i][..] } else { &[] });
        let digests = fnv64_lanes(unverified);
        for ((meta, digest), from_disk) in group.iter().zip(digests).zip(from_disk) {
            if from_disk && digest != meta.crc {
                return Err(bad_data(format!(
                    "{}: block at offset {} failed its checksum",
                    self.path.display(),
                    meta.offset
                )));
            }
        }
        for ((meta, block), from_disk) in group.iter().zip(&blocks).zip(from_disk) {
            if from_disk {
                cache.put((self.generation, meta.offset), block.clone());
            }
        }
        Ok(blocks)
    }

    /// Reads a whole partition. `Ok(None)` (with receipt counters
    /// updated) when this run does not contain it; `Err` only on I/O
    /// failure or detected corruption.
    pub fn read(
        &self,
        pk: &PartitionKey,
        cache: &mut BlockCache,
        receipt: &mut ReadReceipt,
    ) -> io::Result<Option<Vec<Cell>>> {
        self.collect(pk, WHOLE, cache, receipt)
    }

    /// Reads the cells of a partition within a clustering range (see
    /// [`Run::scan_partition`] on this type for which blocks that touches).
    pub fn read_range(
        &self,
        pk: &PartitionKey,
        range: RangeInclusive<ClusteringKey>,
        cache: &mut BlockCache,
        receipt: &mut ReadReceipt,
    ) -> io::Result<Vec<Cell>> {
        let cells = self.collect(pk, range.into_inner(), cache, receipt)?;
        Ok(cells.unwrap_or_default())
    }

    /// Reads every partition back, verifying all block checksums — the
    /// compaction input path. Bypasses the block cache (compaction reads
    /// each block once; caching them would only evict hot read blocks).
    pub fn scan(&self) -> io::Result<Vec<(PartitionKey, Vec<Cell>)>> {
        let mut out = Vec::with_capacity(self.partitions.len());
        for entry in &self.partitions {
            let mut cells = Vec::with_capacity(entry.cell_count as usize);
            for meta in &entry.blocks {
                let mut raw = vec![0u8; meta.len as usize];
                self.file.read_exact_at(&mut raw, meta.offset)?;
                if fnv64(&raw) != meta.crc {
                    return Err(bad_data(format!(
                        "{}: block at offset {} failed its checksum",
                        self.path.display(),
                        meta.offset
                    )));
                }
                let mut block = Bytes::from(raw);
                while let Some(cell) = Cell::decode(&mut block) {
                    cells.push(cell);
                }
            }
            if cells.len() != entry.cell_count as usize {
                return Err(bad_data(format!(
                    "{}: partition {:?} decoded {} cells, index says {}",
                    self.path.display(),
                    entry.key,
                    cells.len(),
                    entry.cell_count
                )));
            }
            out.push((entry.key.clone(), cells));
        }
        Ok(out)
    }
}

impl Run for SstFile {
    type Entry = DiskPartition;
    type Cache = BlockCache;
    type Error = io::Error;

    fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    fn find(&self, pk: &PartitionKey) -> Option<&DiskPartition> {
        self.partitions
            .binary_search_by(|p| p.key.cmp(pk))
            .ok()
            .map(|i| &self.partitions[i])
    }

    /// Straight off the block bytes, charging the receipt for every block
    /// fetched and every cell decoded. `Err` on I/O failure or detected
    /// corruption: a failed checksum, or a block whose contents disagree
    /// with its [`BlockMeta`].
    ///
    /// Which blocks the scan reaches is decided from their metadata — the
    /// in-RAM [`crate::SsTable`]'s mechanics with disk charges: a
    /// column-indexed partition seeks to the overlapping blocks only; a
    /// small one is decoded from its start through the first block holding
    /// a cell past the range.
    fn scan_partition(
        &self,
        entry: &DiskPartition,
        (from, to): ClusteringRange,
        cache: &mut BlockCache,
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
        for group in reached.chunks(FNV_LANES) {
            let loaded = self.load_blocks(group, cache, receipt)?;
            for (meta, block) in group.iter().zip(&loaded) {
                let mut rest = &block[..];
                let mut in_block = 0u32;
                while let Some(cell) = CellRef::decode(&mut rest) {
                    receipt.cells_scanned += 1;
                    receipt.bytes_read += cell.encoded_len() as u64;
                    if cell.clustering > to {
                        return Ok(());
                    }
                    if cell.clustering >= from {
                        visit(cell);
                    }
                    in_block += 1;
                }
                if in_block != meta.cells || !rest.is_empty() {
                    return Err(bad_data(format!(
                        "{}: block at offset {} decoded {} cells, index says {}",
                        self.path.display(),
                        meta.offset,
                        in_block,
                        meta.cells
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Parses the partition index region. `data_len` is the size of the data
/// region (which starts at file offset 0), so every block extent can be
/// bounds-checked; structural damage yields `None`.
fn parse_index(raw: &[u8], data_len: u64) -> Option<Vec<DiskPartition>> {
    let mut buf = Bytes::copy_from_slice(raw);
    if buf.len() < 4 {
        return None;
    }
    let count = buf.get_u32() as usize;
    let mut out = Vec::with_capacity(count);
    let mut prev_key: Option<PartitionKey> = None;
    for _ in 0..count {
        if buf.len() < 2 {
            return None;
        }
        let key_len = buf.get_u16() as usize;
        if buf.len() < key_len + 8 {
            return None;
        }
        let key = PartitionKey::new(buf.split_to(key_len).to_vec());
        if let Some(prev) = &prev_key {
            if prev >= &key {
                return None;
            }
        }
        let cell_count = buf.get_u32();
        let block_count = buf.get_u32() as usize;
        if buf.len() < block_count * BLOCK_META_BYTES {
            return None;
        }
        let mut blocks = Vec::with_capacity(block_count);
        let mut bytes = 0u64;
        for _ in 0..block_count {
            let meta = BlockMeta::decode(&mut buf)?;
            if meta.offset.checked_add(meta.len as u64)? > data_len {
                return None;
            }
            bytes += meta.len as u64;
            blocks.push(meta);
        }
        prev_key = Some(key.clone());
        out.push(DiskPartition {
            key,
            cell_count,
            bytes,
            blocks,
        });
    }
    if !buf.is_empty() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::TempDir;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    fn build_input(partition_sizes: &[usize]) -> Vec<(PartitionKey, Vec<Cell>)> {
        partition_sizes
            .iter()
            .enumerate()
            .map(|(p, &n)| {
                let cells = (0..n as u64)
                    .map(|c| Cell::synthetic(c, (c % 4) as u8))
                    .collect();
                (pk(p as u64), cells)
            })
            .collect()
    }

    fn write_open(dir: &Path, sizes: &[usize], generation: u64) -> (SstFile, SstWriteStats) {
        let path = dir.join(sst_file_name(generation));
        let stats = write_sst(
            &path,
            &build_input(sizes),
            &SsTableOptions::default(),
            generation,
        )
        .expect("write");
        (SstFile::open(&path).expect("open"), stats)
    }

    #[test]
    fn roundtrip_reads_every_partition() {
        let tmp = TempDir::new("sst-roundtrip");
        let (sst, stats) = write_open(tmp.path(), &[10, 2000, 1], 3);
        assert_eq!(sst.generation(), 3);
        assert_eq!(sst.partition_count(), 3);
        assert_eq!(stats.cells, 2011);
        assert_eq!(stats.data_bytes, 2011 * 46);
        let mut cache = BlockCache::new(64);
        for (pk_in, cells_in) in build_input(&[10, 2000, 1]) {
            let mut r = ReadReceipt::default();
            let cells = sst
                .read(&pk_in, &mut cache, &mut r)
                .expect("io")
                .expect("hit");
            assert_eq!(cells, cells_in);
        }
        let mut r = ReadReceipt::default();
        assert!(sst.read(&pk(99), &mut cache, &mut r).expect("io").is_none());
        assert_eq!(r.bloom_negatives + r.bloom_false_positives, 1);
    }

    #[test]
    fn disk_reads_then_cache_hits() {
        let tmp = TempDir::new("sst-cache");
        let (sst, stats) = write_open(tmp.path(), &[500], 1);
        let mut cache = BlockCache::new(64);
        let mut r1 = ReadReceipt::default();
        sst.read(&pk(0), &mut cache, &mut r1)
            .expect("io")
            .expect("hit");
        assert_eq!(r1.disk_blocks_read, stats.blocks);
        assert_eq!(r1.disk_block_cache_hits, 0);
        assert_eq!(r1.disk_bytes_read, stats.data_bytes);
        let mut r2 = ReadReceipt::default();
        sst.read(&pk(0), &mut cache, &mut r2)
            .expect("io")
            .expect("hit");
        assert_eq!(r2.disk_blocks_read, 0);
        assert_eq!(r2.disk_block_cache_hits, stats.blocks);
        assert_eq!(r2.disk_bytes_read, 0);
    }

    #[test]
    fn column_index_threshold_survives_on_disk() {
        // 1424 cells = 65504 B ≤ 64 KiB (not indexed), 1425 > (indexed):
        // the same Figure 6 boundary as the in-RAM store.
        let tmp = TempDir::new("sst-threshold");
        let (sst, _) = write_open(tmp.path(), &[1424, 1425], 1);
        assert!(!sst.has_column_index(&pk(0)));
        assert!(sst.has_column_index(&pk(1)));
        let mut cache = BlockCache::new(256);
        let mut r = ReadReceipt::default();
        sst.read(&pk(0), &mut cache, &mut r)
            .expect("io")
            .expect("hit");
        assert!(!r.used_column_index);
        let mut r = ReadReceipt::default();
        sst.read(&pk(1), &mut cache, &mut r)
            .expect("io")
            .expect("hit");
        assert!(r.used_column_index);
        assert!(r.column_index_blocks > 0);
    }

    #[test]
    fn range_reads_seek_on_indexed_partitions() {
        let tmp = TempDir::new("sst-range");
        let (sst, stats) = write_open(tmp.path(), &[10_000], 1);
        let mut cache = BlockCache::new(0); // no cache: count real reads
        let mut r = ReadReceipt::default();
        let cells = sst
            .read_range(&pk(0), 5_000..=5_099, &mut cache, &mut r)
            .expect("io");
        assert_eq!(cells.len(), 100);
        assert_eq!(cells[0].clustering, 5_000);
        assert!(r.used_column_index);
        assert!(
            r.disk_blocks_read < stats.blocks / 10,
            "read {} of {} blocks — seek failed",
            r.disk_blocks_read,
            stats.blocks
        );
        // Full-span range equals the point read.
        let mut r2 = ReadReceipt::default();
        let all = sst
            .read(&pk(0), &mut cache, &mut r2)
            .expect("io")
            .expect("hit");
        let mut r3 = ReadReceipt::default();
        let ranged = sst
            .read_range(&pk(0), 0..=u64::MAX, &mut cache, &mut r3)
            .expect("io");
        assert_eq!(all, ranged);
    }

    #[test]
    fn small_partition_range_scans_without_index() {
        let tmp = TempDir::new("sst-range-small");
        let (sst, _) = write_open(tmp.path(), &[100], 1);
        let mut cache = BlockCache::new(8);
        let mut r = ReadReceipt::default();
        let cells = sst
            .read_range(&pk(0), 10..=19, &mut cache, &mut r)
            .expect("io");
        assert_eq!(cells.len(), 10);
        assert!(!r.used_column_index);
    }

    #[test]
    fn oversized_cells_roundtrip() {
        // A >64 KiB single cell: bigger than both the block target and the
        // column-index threshold.
        let tmp = TempDir::new("sst-bigcell");
        let big = Cell::new(5, 1, vec![0x5A; 100_000]);
        let input = vec![(pk(0), vec![Cell::synthetic(1, 0), big.clone()])];
        let path = tmp.path().join(sst_file_name(1));
        write_sst(&path, &input, &SsTableOptions::default(), 1).expect("write");
        let sst = SstFile::open(&path).expect("open");
        assert!(sst.has_column_index(&pk(0)));
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        let cells = sst
            .read(&pk(0), &mut cache, &mut r)
            .expect("io")
            .expect("hit");
        assert_eq!(cells, input[0].1);
    }

    #[test]
    fn scan_returns_everything_in_order() {
        let tmp = TempDir::new("sst-scan");
        let (sst, _) = write_open(tmp.path(), &[7, 3, 90], 2);
        let scanned = sst.scan().expect("scan");
        assert_eq!(scanned, build_input(&[7, 3, 90]));
    }

    #[test]
    fn empty_sst_roundtrips() {
        let tmp = TempDir::new("sst-empty");
        let path = tmp.path().join(sst_file_name(5));
        write_sst(&path, &[], &SsTableOptions::default(), 5).expect("write");
        let sst = SstFile::open(&path).expect("open");
        assert_eq!(sst.partition_count(), 0);
        assert_eq!(sst.generation(), 5);
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        assert!(sst.read(&pk(0), &mut cache, &mut r).expect("io").is_none());
    }

    #[test]
    fn footer_and_metadata_corruption_rejected_at_open() {
        let tmp = TempDir::new("sst-corrupt-meta");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(&path, &build_input(&[200]), &SsTableOptions::default(), 1).expect("write");
        let pristine = std::fs::read(&path).expect("read");
        // Footer corruption (last 72 bytes) and index corruption (just
        // past the data region) must both fail open().
        let data_len = 200 * 46;
        for idx in [
            pristine.len() - 1,
            pristine.len() - SST_FOOTER_LEN,
            data_len + 2,
        ] {
            let mut bad = pristine.clone();
            bad[idx] ^= 0x08;
            std::fs::write(&path, &bad).expect("write");
            assert!(
                SstFile::open(&path).is_err(),
                "corruption at {idx} accepted"
            );
        }
        // Truncation too.
        std::fs::write(&path, &pristine[..30]).expect("write");
        assert!(SstFile::open(&path).is_err());
        std::fs::write(&path, &pristine).expect("write");
        assert!(SstFile::open(&path).is_ok());
    }

    #[test]
    fn data_block_corruption_rejected_at_read() {
        let tmp = TempDir::new("sst-corrupt-block");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(&path, &build_input(&[200]), &SsTableOptions::default(), 1).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[100] ^= 0x01; // inside the first data block
        std::fs::write(&path, &bytes).expect("write");
        let sst = SstFile::open(&path).expect("open still fine");
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        let err = sst.read(&pk(0), &mut cache, &mut r).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sst.scan().is_err());
        // Streamed: nothing of the bad group is visited or cached, and the
        // blocks that were read are on the bill before the verdict.
        let (err, r) = scan_err(&sst, &mut cache);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (3, 200 * 46));
        assert_eq!(r.cells_scanned, 0);
        assert!(cache.is_empty());
    }

    /// Streams partition 0 whole, expecting the scan to fail; returns the
    /// error and what the receipt had been charged by then.
    fn scan_err(sst: &SstFile, cache: &mut BlockCache) -> (io::Error, ReadReceipt) {
        let mut r = ReadReceipt::default();
        let entry = sst.probe(&pk(0), &mut r).expect("present");
        let err = sst
            .scan_partition(entry, (0, u64::MAX), cache, &mut r, |_| {})
            .expect_err("must fail");
        (err, r)
    }

    #[test]
    fn block_cell_count_mismatch_rejected_at_read() {
        // A block that verifies but does not hold the cells its index entry
        // promises: patch the first block's `cells` (90 → 89) and re-seal
        // the metadata and footer checksums around the lie.
        let tmp = TempDir::new("sst-count-mismatch");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(&path, &build_input(&[200]), &SsTableOptions::default(), 1).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        let footer = bytes.len() - SST_FOOTER_LEN;
        let index = 200 * 46;
        // count (4) ⋅ key_len (2) ⋅ key (8) ⋅ cell_count (4) ⋅ block_count
        // (4), then per block offset (8) ⋅ len (4) ⋅ cells (4) ⋅ …
        let cells_at = index + 4 + 2 + 8 + 4 + 4 + 8 + 4;
        assert_eq!(bytes[cells_at..cells_at + 4], 90u32.to_be_bytes());
        bytes[cells_at..cells_at + 4].copy_from_slice(&89u32.to_be_bytes());
        let meta_crc = fnv64(&bytes[index..footer]);
        bytes[footer + 56..footer + 64].copy_from_slice(&meta_crc.to_be_bytes());
        let footer_crc = fnv64(&bytes[footer..footer + 64]);
        bytes[footer + 64..].copy_from_slice(&footer_crc.to_be_bytes());
        std::fs::write(&path, &bytes).expect("write");

        let sst = SstFile::open(&path).expect("the metadata is self-consistent");
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        let err = sst.read(&pk(0), &mut cache, &mut r).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let (err, r) = scan_err(&sst, &mut BlockCache::new(0));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("index says 89"), "{err}");
        assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (3, 200 * 46));
        assert_eq!(r.cells_scanned, 90, "the block was decoded, then refused");
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(sst_file_name(7), "sst-0000000007.sst");
        assert_eq!(parse_sst_generation("sst-0000000007.sst"), Some(7));
        assert_eq!(parse_sst_generation("wal-0000000007.log"), None);
    }

    #[test]
    fn write_refuses_to_clobber() {
        let tmp = TempDir::new("sst-clobber");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(&path, &[], &SsTableOptions::default(), 1).expect("first");
        assert!(write_sst(&path, &[], &SsTableOptions::default(), 1).is_err());
    }
}
