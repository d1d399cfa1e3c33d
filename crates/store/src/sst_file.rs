//! Block-based on-disk SSTables: the file medium of the one run format
//! ([`crate::run`]).
//!
//! An [`SstFile`] is a [`Run`] whose file is mapped read-only at open:
//! each block a scan reaches that the [`BlockCache`] does not hold is
//! charged to the [`ReadReceipt`], verified against its checksum and
//! decoded where it lies, before any cell of it is visited or it is
//! cached. An SST is written once (`create_new`), synced, and never
//! modified or truncated, only unlinked: truncation would fault readers.
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
//!      4    1 version            4
//!      5    3 reserved           zero
//!      8    8 generation         newer wins merges
//!     16    8 column_index_size  threshold the run was built with
//!     24    8 index_off          partition index file offset
//!     32    8 index_len          partition index length
//!     40    8 bloom_off          bloom filter file offset
//!     48    8 bloom_len          bloom filter length
//!     56    8 meta_crc           checksum64 of bloom bytes, seeded with that of index bytes
//!     64    8 footer_crc         checksum64 over footer bytes 0..64
//! ```
//!
//! The partition index is `count (u32)` then, per partition: `key_len
//! (u16) ⋅ key ⋅ cell_count (u32) ⋅ block_count (u32) ⋅ block_count ×`
//! [`BlockMeta`] entries (absolute file offsets). Every data block
//! carries its own checksum in its `BlockMeta`, so point corruption is
//! caught at read time without rescanning the file.

use crate::block::{check_block, checksum64, BlockMeta, BLOCK_META_BYTES};
use crate::bloom::BloomFilter;
use crate::cache::{FixedState, Lru};
use crate::durable::DiskJournal;
use crate::receipt::ReadReceipt;
use crate::run::{bad_data, Medium, PartitionIndex, Run};
use crate::schema::CELL_HEADER_BYTES;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::ffi::{c_int, c_long, c_void};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::ptr::{self, NonNull};

/// Footer magic: `"KSST"`.
pub const SST_MAGIC: u32 = 0x4B53_5354;
/// Current file format version.
pub const SST_VERSION: u8 = 4;
/// Encoded footer size in bytes.
pub const SST_FOOTER_LEN: usize = 72;

/// The block cache of a durable table's runs, keyed by `(generation,
/// offset)`. The default holds none.
///
/// Admission resists scans (2Q's A1out rule, Johnson & Shasha, VLDB '94:
/// "cache on second miss"). While a slot is free a verified block is
/// admitted at once. Once the cache is full, a missed block is admitted
/// only if its key is in the *ghost*, the keys of the last `capacity`
/// blocks refused; otherwise its key joins the ghost and no byte is
/// copied. So a pass over more blocks than the cache holds, such as an
/// aggregation re-reading every partition, leaves the blocks already
/// cached in place and copies nothing, while a block read twice within
/// the ghost's memory gets a slot. Hits promote as in plain LRU.
#[derive(Debug)]
pub struct BlockCache {
    /// Each block an exact-size copy of its own: `capacity` blocks bound
    /// the resident bytes.
    blocks: Lru<(u64, u64), Bytes, FixedState>,
    /// The keys of the last `capacity` blocks refused admission, and
    /// nothing else: no key is in both lists.
    ghost: Lru<(u64, u64), (), FixedState>,
}

impl BlockCache {
    /// A cache of up to `capacity` blocks, remembering as many refused
    /// keys; 0 caches nothing.
    pub fn new(capacity: usize) -> BlockCache {
        BlockCache {
            blocks: Lru::with_hasher(capacity, FixedState),
            ghost: Lru::with_hasher(capacity, FixedState),
        }
    }

    /// Drops every cached block and every remembered key (compaction
    /// retired their generations).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.ghost.clear();
    }

    /// How many blocks it holds and how many refused keys it remembers.
    #[cfg(test)]
    pub(crate) fn lens(&self) -> (usize, usize) {
        (self.blocks.len(), self.ghost.len())
    }
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new(0)
    }
}

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

/// Writes a built run as its SSTable file in `dir`, sealing each block with
/// its checksum as its [`BlockMeta`] is encoded, `fdatasync`s it and opens
/// it. The file must not already exist (generations are never reused).
pub(crate) fn write_sst(dir: &Path, run: &Run<BytesMut>) -> io::Result<SstFile> {
    let mut index = BytesMut::new();
    let partitions = &run.index.entries;
    index.put_u32(partitions.len() as u32);
    for (i, p) in partitions.iter().enumerate() {
        let (key, blocks) = (run.index.key(i), run.index.blocks(p));
        index.put_u16(key.len() as u16);
        index.put_slice(key);
        index.put_u32(p.cell_count);
        index.put_u32(blocks.len() as u32);
        for meta in blocks {
            let block = &run.medium[meta.offset as usize..][..meta.len as usize];
            let crc = checksum64(0, block);
            BlockMeta { crc, ..*meta }.encode(&mut index);
        }
    }
    let mut bloom_bytes = BytesMut::new();
    run.bloom.serialize(&mut bloom_bytes);

    let index_off = run.medium.len() as u64;
    let index_len = index.len() as u64;
    let bloom_off = index_off + index_len;
    let bloom_len = bloom_bytes.len() as u64;
    let meta_crc = checksum64(checksum64(0, &index), &bloom_bytes);

    let mut footer = BytesMut::with_capacity(SST_FOOTER_LEN);
    footer.put_u32(SST_MAGIC);
    footer.put_u8(SST_VERSION);
    footer.put_slice(&[0u8; 3]);
    footer.put_u64(run.generation);
    footer.put_u64(run.column_index_size as u64);
    footer.put_u64(index_off);
    footer.put_u64(index_len);
    footer.put_u64(bloom_off);
    footer.put_u64(bloom_len);
    footer.put_u64(meta_crc);
    let footer_crc = checksum64(0, &footer);
    footer.put_u64(footer_crc);

    let path = dir.join(sst_file_name(run.generation));
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)?;
    file.write_all(&run.medium)?;
    file.write_all(&index)?;
    file.write_all(&bloom_bytes)?;
    file.write_all(&footer)?;
    file.sync_data()?;
    // Read back as recovery will: what is installed is what the file says.
    SstFile::open(&path)
}

// std links the C library, so no crate of bindings is needed.
extern "C" {
    /// `mmap(2)`.
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    /// `munmap(2)`.
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// `PROT_READ` and `MAP_SHARED` of `<sys/mman.h>`.
const PROT_READ: c_int = 1;
const MAP_SHARED: c_int = 1;

/// A read-only shared mapping of a whole file, unmapped on drop.
#[derive(Debug)]
struct Mmap {
    ptr: NonNull<c_void>,
    len: usize,
}

// SAFETY: the mapping is read-only and owned by this value alone, which
// unmaps it once, on drop, when no borrow of its bytes is left.
unsafe impl Send for Mmap {}
// SAFETY: `&Mmap` only reads the mapped bytes, and nothing writes them
// while they are mapped (an SST is never modified once written).
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all `len` bytes of `file`.
    fn map(file: &File, len: usize) -> io::Result<Mmap> {
        let fd = file.as_raw_fd();
        // SAFETY: a new mapping at an address the kernel picks overlaps no
        // memory this program owns; `fd` is open for reading.
        let at = unsafe { mmap(ptr::null_mut(), len, PROT_READ, MAP_SHARED, fd, 0) };
        match NonNull::new(at) {
            // `MAP_FAILED` is `(void *) -1`.
            Some(ptr) if ptr.as_ptr() as usize != usize::MAX => Ok(Mmap { ptr, len }),
            _ => Err(io::Error::last_os_error()),
        }
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` starts `len` readable bytes that stay mapped while
        // `self` lives, and no one writes them (module docs).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast(), self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `len` are the one mapping this value owns, and
        // every slice of it borrowed `self`, so none outlives this call.
        if unsafe { munmap(self.ptr.as_ptr(), self.len) } != 0 {
            // Leaked address space, not a reason to panic in a drop.
            eprintln!("kvs-store: munmap failed: {}", io::Error::last_os_error());
        }
    }
}

/// The file medium: a run's blocks in its file's mapping, read through the
/// [`BlockCache`] and verified against their checksums before use.
#[derive(Debug)]
pub struct DiskBlocks {
    map: Mmap,
    path: PathBuf,
    /// The run's generation: with a block's offset, its cache key.
    generation: u64,
}

/// An open on-disk SSTable: metadata in RAM, data blocks on disk.
pub type SstFile = Run<DiskBlocks>;

impl SstFile {
    /// Opens an SSTable file: maps it, verifies the footer and metadata
    /// checksums and parses the partition index and bloom filter out of
    /// the mapping. Data blocks are verified at read time.
    pub fn open(path: &Path) -> io::Result<SstFile> {
        let bad = |what: &str| bad_data(format!("{}: {what}", path.display()));
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < SST_FOOTER_LEN as u64 {
            return Err(bad("too short for a footer"));
        }
        let len = usize::try_from(file_len).map_err(|_| bad("too large to map"))?;
        let map = Mmap::map(&file, len)?;
        let bytes = map.bytes();
        let (covered, tail) = bytes[len - SST_FOOTER_LEN..].split_at(SST_FOOTER_LEN - 8);
        let stored = tail.try_into().map_err(|_| bad("unreadable footer crc"))?;
        if checksum64(0, covered) != u64::from_be_bytes(stored) {
            return Err(bad("footer crc mismatch"));
        }
        let mut footer = Bytes::copy_from_slice(covered);
        if footer.get_u32() != SST_MAGIC {
            return Err(bad("bad magic"));
        }
        let version = footer.get_u8();
        if version != SST_VERSION {
            return Err(bad(&format!("unsupported version {version}")));
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
            return Err(bad("metadata extents inconsistent with file size"));
        }
        let index_raw = &bytes[index_off as usize..bloom_off as usize];
        let bloom_raw = &bytes[bloom_off as usize..len - SST_FOOTER_LEN];
        if checksum64(checksum64(0, index_raw), bloom_raw) != meta_crc {
            return Err(bad("metadata crc mismatch"));
        }
        let index =
            parse_index(index_raw, index_off).ok_or_else(|| bad("malformed partition index"))?;
        let mut bloom_buf = Bytes::copy_from_slice(bloom_raw);
        let bloom = BloomFilter::deserialize(&mut bloom_buf)
            .filter(|_| bloom_buf.is_empty())
            .ok_or_else(|| bad("malformed bloom filter"))?;
        Ok(Run {
            generation,
            column_index_size,
            index,
            bloom,
            medium: DiskBlocks {
                map,
                path: path.to_path_buf(),
                generation,
            },
        })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.medium.path
    }
}

impl DiskBlocks {
    /// `meta`'s block, sliced out of the mapping: the one disk block read
    /// (KVS-L019 counts each call). [`parse_index`] bounded every block.
    fn mapped_block(&self, meta: &BlockMeta) -> &[u8] {
        &self.map.bytes()[meta.offset as usize..][..meta.len as usize]
    }
}

impl Medium for DiskBlocks {
    type Cache = BlockCache;
    type Journal = DiskJournal;
    type Out<T> = io::Result<T>;

    fn out<T>(result: io::Result<T>) -> io::Result<T> {
        result
    }

    fn into_result<T>(out: io::Result<T>) -> io::Result<T> {
        out
    }

    /// One pass over the blocks, in order. A hit is folded from the cache;
    /// a miss is sliced out of the mapping, charged, verified — its
    /// checksum, then the column check ([`check_block`]), the one place a
    /// file's block meets it — folded while it is still in L1 and then
    /// offered to the cache, so every cached block has passed both. A
    /// block that fails either check is not cached, remembered or
    /// visited; one that fails its fold is not cached or remembered.
    fn read_blocks(
        &self,
        reached: &[BlockMeta],
        cache: &mut BlockCache,
        receipt: &mut ReadReceipt,
        mut fold: impl FnMut(&BlockMeta, &[u8], &mut ReadReceipt) -> io::Result<bool>,
    ) -> io::Result<()> {
        let BlockCache { blocks, ghost } = cache;
        for meta in reached {
            let key = (self.generation, meta.offset);
            if let Some(block) = blocks.get(&key) {
                receipt.disk_block_cache_hits += 1;
                if !fold(meta, block, receipt)? {
                    break;
                }
                continue;
            }
            let block = self.mapped_block(meta);
            // Charge before the checksum verdict: the read moved the bytes
            // whether or not they verify, and a corrupt block that escaped
            // the accounting would skew every cost model built on receipts
            // (KVS-L019 checks this must-reach property on all paths).
            receipt.disk_blocks_read += 1;
            receipt.disk_bytes_read += meta.len as u64;
            if checksum64(0, block) != meta.crc {
                return Err(bad_data(format!(
                    "{}: block at offset {} failed its checksum",
                    self.path.display(),
                    meta.offset
                )));
            }
            check_block(self.generation, meta, block)?;
            let more = fold(meta, block, receipt)?;
            // Admission on the second miss ([`BlockCache`]).
            if !blocks.is_full() || ghost.invalidate(&key) {
                blocks.put(key, Bytes::copy_from_slice(block));
            } else {
                ghost.put(key, ());
            }
            if !more {
                break;
            }
        }
        Ok(())
    }
}

/// Parses the partition index region. `data_len` is the size of the data
/// region (which starts at file offset 0), so every block's bytes can be
/// bounds-checked; structural damage yields `None`. So does a partition
/// whose `cell_count` is not the sum of its blocks' cells, or whose cell
/// headers alone would not fit in its bytes: a whole-run scan sizes its
/// buffers from both.
fn parse_index(raw: &[u8], data_len: u64) -> Option<PartitionIndex> {
    let mut buf = Bytes::copy_from_slice(raw);
    if buf.len() < 4 {
        return None;
    }
    let count = buf.get_u32() as usize;
    let mut index = PartitionIndex::default();
    for _ in 0..count {
        if buf.len() < 2 {
            return None;
        }
        let key_len = buf.get_u16() as usize;
        if buf.len() < key_len + 8 {
            return None;
        }
        let key = buf.split_to(key_len);
        let cell_count = buf.get_u32();
        let block_count = buf.get_u32() as usize;
        if buf.len() < block_count * BLOCK_META_BYTES {
            return None;
        }
        for _ in 0..block_count {
            let meta = BlockMeta::decode(&mut buf)?;
            if meta.offset.checked_add(meta.len as u64)? > data_len {
                return None;
            }
            index.blocks.push(meta);
        }
        let entry = index.close(&key)?;
        if entry.cell_count != cell_count
            || cell_count as u64 * CELL_HEADER_BYTES as u64 > entry.bytes
        {
            return None;
        }
    }
    if !buf.is_empty() {
        return None;
    }
    Some(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{fnv1a, FNV1A_BASIS};
    use crate::durable::{DurableOptions, DurableTable, TempDir};
    use crate::run::SsTableOptions;
    use crate::schema::{Cell, PartitionKey};
    use crate::stream::{Tally, WHOLE};
    use crate::wal::FsyncPolicy;
    use proptest::prelude::*;

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

    /// Writes partitions of `sizes` cells; returns the run on disk with
    /// its block and data-byte totals, having checked that the file indexes
    /// the blocks exactly as the builder laid them out, each sealed with
    /// the checksum of its bytes in the file.
    fn write_open(dir: &Path, sizes: &[usize], generation: u64) -> (SstFile, u64, u64) {
        let input = build_input(sizes);
        let mut built = Run::build(&input, &SsTableOptions::default(), generation);
        let sst = write_sst(dir, &built).expect("write");
        for meta in &mut built.index.blocks {
            meta.crc = checksum64(0, sst.medium.mapped_block(meta));
        }
        assert_eq!(sst.index, built.index);
        let blocks = sst.index.blocks.len() as u64;
        (sst, blocks, sst_data_bytes(&input))
    }

    #[test]
    fn checksums_are_set_when_a_run_is_written_to_a_file() {
        // A run held in memory carries none: nothing reads it from a file.
        let heap = Run::build(&build_input(&[300, 20]), &SsTableOptions::default(), 1);
        let metas = &heap.index.blocks;
        assert_eq!(metas.len(), 5);
        assert!(metas.iter().all(|meta| meta.crc == 0), "{metas:?}");
        // Every block of an ingested, a flushed and a compacted file, read
        // back from disk, verifies; returns the block count of each.
        let verified = |t: &DurableTable| -> Vec<usize> {
            let files = t.engine.runs.iter();
            files
                .map(|run| {
                    let file = SstFile::open(run.path()).expect("reopen");
                    let metas = &file.index.blocks;
                    for meta in metas {
                        let bytes = file.medium.mapped_block(meta);
                        assert_eq!(checksum64(0, bytes), meta.crc, "{}", run.path().display());
                    }
                    metas.len()
                })
                .collect()
        };
        let tmp = TempDir::new("sst-sealed");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..DurableOptions::default()
        };
        let (mut t, _) = DurableTable::open(tmp.path(), opts).expect("open");
        t.ingest_sorted(&build_input(&[300, 20])).expect("ingest");
        assert_eq!(verified(&t), [5]);
        let cells = (0..200).map(|c| Cell::synthetic(c, 1));
        t.put_all(&pk(5), cells).expect("put");
        t.flush().expect("flush");
        assert_eq!(verified(&t), [5, 3]);
        t.compact().expect("compact");
        assert_eq!(verified(&t), [8]);
    }

    fn sst_data_bytes(input: &[(PartitionKey, Vec<Cell>)]) -> u64 {
        let cells = input.iter().flat_map(|(_, cells)| cells);
        cells.map(|cell| cell.encoded_len() as u64).sum()
    }

    #[test]
    fn roundtrip_reads_every_partition() {
        let tmp = TempDir::new("sst-roundtrip");
        let (sst, _, data_bytes) = write_open(tmp.path(), &[10, 2000, 1], 3);
        assert_eq!(sst.generation(), 3);
        assert_eq!(sst.partition_count(), 3);
        assert_eq!(data_bytes, 2011 * 46);
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
        let (sst, blocks, data_bytes) = write_open(tmp.path(), &[500], 1);
        let mut cache = BlockCache::new(64);
        let mut r1 = ReadReceipt::default();
        sst.read(&pk(0), &mut cache, &mut r1)
            .expect("io")
            .expect("hit");
        assert_eq!(r1.disk_blocks_read, blocks);
        assert_eq!(r1.disk_block_cache_hits, 0);
        assert_eq!(r1.disk_bytes_read, data_bytes);
        let mut r2 = ReadReceipt::default();
        sst.read(&pk(0), &mut cache, &mut r2)
            .expect("io")
            .expect("hit");
        assert_eq!(r2.disk_blocks_read, 0);
        assert_eq!(r2.disk_block_cache_hits, blocks);
        assert_eq!(r2.disk_bytes_read, 0);
    }

    #[test]
    fn column_index_threshold_survives_on_disk() {
        // 1424 cells = 65504 B ≤ 64 KiB (not indexed), 1425 > (indexed):
        // the same Figure 6 boundary as the in-RAM store.
        let tmp = TempDir::new("sst-threshold");
        let (sst, _, _) = write_open(tmp.path(), &[1424, 1425], 1);
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
        let (sst, blocks, _) = write_open(tmp.path(), &[10_000], 1);
        let mut cache = BlockCache::new(0); // no cache: count real reads
        let mut r = ReadReceipt::default();
        let cells = sst
            .read_range(&pk(0), 5_000..=5_099, &mut cache, &mut r)
            .expect("io");
        assert_eq!(cells.len(), 100);
        assert_eq!(cells[0].clustering, 5_000);
        assert!(r.used_column_index);
        assert!(
            r.disk_blocks_read < blocks / 10,
            "read {} of {blocks} blocks — seek failed",
            r.disk_blocks_read
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
        let (sst, _, _) = write_open(tmp.path(), &[100], 1);
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
        write_sst(
            tmp.path(),
            &Run::build(&input, &SsTableOptions::default(), 1),
        )
        .expect("write");
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
        let (sst, _, _) = write_open(tmp.path(), &[7, 3, 90], 2);
        let scanned = sst.scanned().expect("scan");
        assert_eq!(scanned, build_input(&[7, 3, 90]));
    }

    #[test]
    fn empty_sst_roundtrips() {
        let tmp = TempDir::new("sst-empty");
        let path = tmp.path().join(sst_file_name(5));
        write_sst(tmp.path(), &Run::build(&[], &SsTableOptions::default(), 5)).expect("write");
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
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200]), &SsTableOptions::default(), 1),
        )
        .expect("write");
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
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[100] ^= 0x01; // inside the first data block
        std::fs::write(&path, &bytes).expect("write");
        let sst = SstFile::open(&path).expect("open still fine");
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        let err = sst.read(&pk(0), &mut cache, &mut r).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sst.scanned().is_err());
        // Streamed: nothing of the bad block is visited or cached, and it
        // is on the bill before the verdict.
        let (err, r) = scan_err(&sst, &mut cache);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (1, 90 * 46));
        assert_eq!(r.cells_scanned, 0);
        assert!(cache.blocks.is_empty());
    }

    /// Re-seals an SST image's metadata and footer digests around a patch,
    /// under `digest` started from `basis`.
    fn reseal(bytes: &mut [u8], basis: u64, digest: fn(u64, &[u8]) -> u64) {
        let footer = bytes.len() - SST_FOOTER_LEN;
        let field = |at: usize| {
            let mut be = [0u8; 8];
            be.copy_from_slice(&bytes[footer + at..footer + at + 8]);
            u64::from_be_bytes(be) as usize
        };
        let (index, bloom) = (field(24), field(40));
        let meta_crc = digest(digest(basis, &bytes[index..bloom]), &bytes[bloom..footer]);
        bytes[footer + 56..footer + 64].copy_from_slice(&meta_crc.to_be_bytes());
        let footer_crc = digest(basis, &bytes[footer..footer + 64]);
        bytes[footer + 64..].copy_from_slice(&footer_crc.to_be_bytes());
    }

    /// Where a one-partition file of 200 cells indexes its partition's
    /// `cell_count` and its first block's `cells`: past the 200 × 46 B of
    /// data, count (4) ⋅ key_len (2) ⋅ key (8) ⋅ cell_count (4) ⋅
    /// block_count (4), then per block offset (8) ⋅ len (4) ⋅ cells (4) ⋅ …
    const CELL_COUNT_AT: usize = 200 * 46 + 4 + 2 + 8;
    const FIRST_BLOCK_CELLS_AT: usize = CELL_COUNT_AT + 4 + 4 + 8 + 4;
    const FIRST_BLOCK_CRC_AT: usize = FIRST_BLOCK_CELLS_AT + 4;

    /// Overwrites the big-endian `u32` at `at`, which must read `was`.
    fn patch_u32(bytes: &mut [u8], at: usize, was: u32, now: u32) {
        assert_eq!(bytes[at..at + 4], was.to_be_bytes());
        bytes[at..at + 4].copy_from_slice(&now.to_be_bytes());
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
        // promises: patch the first block's `cells` (90 → 89) and, so the
        // index still adds up, the partition's `cell_count` (200 → 199);
        // then re-seal the metadata and footer checksums around the lie.
        let tmp = TempDir::new("sst-count-mismatch");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        patch_u32(&mut bytes, CELL_COUNT_AT, 200, 199);
        patch_u32(&mut bytes, FIRST_BLOCK_CELLS_AT, 90, 89);
        reseal(&mut bytes, 0, checksum64);
        std::fs::write(&path, &bytes).expect("write");

        let sst = SstFile::open(&path).expect("the metadata is self-consistent");
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        let err = sst.read(&pk(0), &mut cache, &mut r).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let (err, r) = scan_err(&sst, &mut BlockCache::new(0));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("the 89 cells its index says"),
            "{err}"
        );
        assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (1, 90 * 46));
        assert_eq!(
            r.cells_scanned, 0,
            "the column extents refused it undecoded"
        );
    }

    /// Rewrites, in the one-partition file of 200 cells at `path`, the
    /// first cell's `payload_len` (33 → 34), so the block's lengths no
    /// longer sum to its payload region, then re-seals the block's
    /// checksum in its index entry, the metadata and the footer: a block
    /// only the column check can refuse.
    fn reseal_a_wrong_payload_length(path: &Path) {
        let mut bytes = std::fs::read(path).expect("read");
        // 90 clustering keys (8 B) and 90 kinds (1 B) precede the lengths.
        let first_len_at = 90 * 8 + 90;
        assert_eq!(bytes[first_len_at..first_len_at + 4], 33u32.to_le_bytes());
        bytes[first_len_at] = 34;
        let crc = checksum64(0, &bytes[..90 * 46]);
        bytes[FIRST_BLOCK_CRC_AT..FIRST_BLOCK_CRC_AT + 8].copy_from_slice(&crc.to_be_bytes());
        reseal(&mut bytes, 0, checksum64);
        std::fs::write(path, &bytes).expect("write");
    }

    #[test]
    fn block_payload_lengths_that_do_not_add_up_are_rejected_at_read() {
        // A block that verifies, and whose index entry is true, but whose
        // `payload_len` column no longer sums to its payload region.
        let tmp = TempDir::new("sst-payload-lengths");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        reseal_a_wrong_payload_length(&path);

        let sst = SstFile::open(&path).expect("the metadata is self-consistent");
        let mut cache = BlockCache::new(4);
        let mut r = ReadReceipt::default();
        let entry = sst.probe(&pk(0), &mut r).expect("present");
        let mut visited = 0;
        let err = sst
            .scan_partition(entry, WHOLE, &mut cache, &mut r, |_| visited += 1)
            .expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("the 90 cells its index says"),
            "{err}"
        );
        assert_eq!((visited, r.cells_scanned, r.bytes_read), (0, 0, 0));
        assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (1, 90 * 46));
        assert_eq!(cache.lens(), (0, 0), "nothing cached or remembered");
        assert!(sst.scanned().is_err());
    }

    #[test]
    fn every_read_of_a_table_meets_the_column_check_on_a_miss() {
        // The check runs where a block enters, on a cache miss, and not on
        // a hit: so a block that fails it must never reach the cache, and
        // every read of it must miss and fail again, through both of the
        // table's whole-partition reads.
        let tmp = TempDir::new("sst-entry-check");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            block_cache_blocks: 4,
            ..DurableOptions::default()
        };
        let (mut t, _) = DurableTable::open(tmp.path(), opts.clone()).expect("open");
        t.ingest_sorted(&build_input(&[200])).expect("ingest");
        let path = t.engine.runs[0].path().to_path_buf();
        drop(t);
        reseal_a_wrong_payload_length(&path);
        let (mut t, _) = DurableTable::open(tmp.path(), opts).expect("reopen");
        let refused = |err: io::Error| {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("the 90 cells its index says"),
                "{err}"
            );
        };
        for _ in 0..2 {
            let mut tally = Tally::default();
            refused(t.aggregate(&pk(0), &mut tally).expect_err("must fail"));
            assert_eq!(tally.kinds, [0; 256], "nothing of the block counted");
            assert_eq!(t.engine.cache.lens(), (0, 0), "neither cached nor ghosted");
            let mut visited = 0;
            let folded = t.fold_partition(&pk(0), |_| visited += 1);
            refused(folded.expect_err("must fail"));
            assert_eq!(visited, 0, "nothing of the block visited");
            assert_eq!(t.engine.cache.lens(), (0, 0), "neither cached nor ghosted");
        }
    }

    #[test]
    fn partition_cell_count_must_add_up_at_open() {
        // A whole-run scan (compaction's input) sizes its buffers from a
        // partition's `cell_count` and its bytes less the cell headers: a
        // re-sealed `u32::MAX` once passed open and then panicked there
        // with "capacity overflow".
        let tmp = TempDir::new("sst-cell-count");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        let pristine = std::fs::read(&path).expect("read");
        let refused = |patches: &[(usize, u32, u32)]| {
            let mut bytes = pristine.clone();
            for &(at, was, now) in patches {
                patch_u32(&mut bytes, at, was, now);
            }
            reseal(&mut bytes, 0, checksum64);
            std::fs::write(&path, &bytes).expect("write");
            let err = SstFile::open(&path).expect_err("must refuse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("malformed partition index"),
                "{err}"
            );
        };
        // Not the sum of the blocks' cells (90 + 90 + 20).
        for count in [u32::MAX, 199, 201] {
            refused(&[(CELL_COUNT_AT, 200, count)]);
        }
        // The sum, but 13-byte cell headers alone outgrow the 9 200 bytes.
        refused(&[
            (CELL_COUNT_AT, 200, u32::MAX),
            (FIRST_BLOCK_CELLS_AT, 90, u32::MAX - 110),
        ]);
        std::fs::write(&path, &pristine).expect("write");
        let sst = SstFile::open(&path).expect("open");
        assert_eq!(sst.scanned().expect("scan"), build_input(&[200]));
    }

    #[test]
    fn corrupt_block_deep_in_a_partition_fails_at_that_block() {
        // 10 000 cells = 112 blocks of 4140 B (the last one short).
        let tmp = TempDir::new("sst-corrupt-deep");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[10_000]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        let pristine = std::fs::read(&path).expect("read");
        // Folds the partition with block `bad_block` corrupt — cell by
        // cell, or with `tally` counted a block at a time — and returns
        // the cells visited, the blocks cached and the receipt.
        let scan = |bad_block: usize, tally: Option<&mut Tally>| {
            let mut bytes = pristine.clone();
            bytes[bad_block * 4140 + 100] ^= 0x01;
            std::fs::write(&path, &bytes).expect("write");
            let sst = SstFile::open(&path).expect("open still fine");
            let mut cache = BlockCache::new(256);
            let mut r = ReadReceipt::default();
            let entry = sst.probe(&pk(0), &mut r).expect("present");
            let mut visited = Vec::new();
            let err = match tally {
                Some(tally) => sst.tally_partition(entry, &mut cache, &mut r, tally),
                None => sst
                    .scan_partition(entry, WHOLE, &mut cache, &mut r, |cell| {
                        visited.push(cell.clustering)
                    })
                    .map(|()| 0),
            };
            let err = err.expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let named = format!("block at offset {} failed its checksum", bad_block * 4140);
            assert!(err.to_string().contains(&named), "{err}");
            (visited, cache.blocks.len(), r)
        };
        // The blocks before the bad one were verified, cached and visited
        // (or counted); the bad one is on the bill before the verdict, and
        // no cell of it is visited or counted, nor its bytes cached.
        for bad_block in [0, 37, 100] {
            let (visited, cached, r) = scan(bad_block, None);
            let read = bad_block as u64 + 1;
            assert_eq!((r.disk_blocks_read, r.disk_bytes_read), (read, read * 4140));
            assert_eq!(r.disk_block_cache_hits, 0);
            let cells = bad_block as u64 * 90;
            assert_eq!(visited, (0..cells).collect::<Vec<u64>>());
            assert_eq!((r.cells_scanned, cached), (cells, bad_block));
            let mut tally = Tally::default();
            let (_, tally_cached, tally_r) = scan(bad_block, Some(&mut tally));
            assert_eq!((tally_r, tally_cached), (r, cached));
            let mut kinds = [0u64; 256];
            (0..cells).for_each(|c| kinds[c as usize % 4] += 1);
            assert_eq!(tally.kinds, kinds);
        }
    }

    #[test]
    fn cached_blocks_hit_and_the_rest_charge_per_block() {
        let tmp = TempDir::new("sst-per-block");
        let (sst, blocks, _) = write_open(tmp.path(), &[10_000], 1);
        assert_eq!(blocks, 112);
        let mut cache = BlockCache::new(256);
        // Warm blocks 20..=22 and 70 (90 cells a block).
        for range in [1_800..=2_069u64, 6_300..=6_389] {
            let mut r = ReadReceipt::default();
            sst.read_range(&pk(0), range, &mut cache, &mut r)
                .expect("io");
            assert_eq!(r.column_index_blocks, r.disk_blocks_read);
        }
        assert_eq!(cache.blocks.len(), 4);
        let mut r = ReadReceipt::default();
        let cells = sst
            .read(&pk(0), &mut cache, &mut r)
            .expect("io")
            .expect("hit");
        assert_eq!(cells, build_input(&[10_000])[0].1);
        assert_eq!((r.disk_blocks_read, r.disk_block_cache_hits), (108, 4));
        assert_eq!(r.disk_bytes_read, 10_000 * 46 - 4 * 4140);
        assert_eq!(r.column_index_blocks, 112);
        // Every cached block is a copy of exactly its own bytes.
        assert_eq!(cache.blocks.len(), 112);
        let mut r = ReadReceipt::default();
        sst.read(&pk(0), &mut cache, &mut r).expect("io");
        assert_eq!((r.disk_blocks_read, r.disk_block_cache_hits), (0, 112));
    }

    #[test]
    fn version_1_files_are_refused_not_read() {
        let tmp = TempDir::new("sst-v1");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        let pristine = std::fs::read(&path).expect("read");
        let version_at = pristine.len() - SST_FOOTER_LEN + 4;
        assert_eq!(pristine[version_at], SST_VERSION);
        let open_err = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write");
            SstFile::open(&path).expect_err("must refuse").to_string()
        };
        // Versions 1, 2 (row-layout blocks) and 3 (sealed with XXH64)
        // under today's checksum: the version check refuses them.
        for version in [1, 2, 3] {
            let mut old = pristine.clone();
            old[version_at] = version;
            reseal(&mut old, 0, checksum64);
            let err = open_err(&old);
            assert!(
                err.contains(&format!("unsupported version {version}")),
                "{err}"
            );
        }
        // A real version-1 file is sealed with FNV-1a: the footer checksum
        // refuses it before any field is believed — whatever its version
        // byte says.
        for version in [1, SST_VERSION] {
            let mut fnv = pristine.clone();
            fnv[version_at] = version;
            reseal(&mut fnv, FNV1A_BASIS, fnv1a);
            let err = open_err(&fnv);
            assert!(err.contains("footer crc mismatch"), "{err}");
        }
        // The patch-and-reseal procedure itself is sound.
        let mut same = pristine.clone();
        reseal(&mut same, 0, checksum64);
        assert_eq!(same, pristine);
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
        write_sst(tmp.path(), &Run::build(&[], &SsTableOptions::default(), 1)).expect("first");
        assert!(write_sst(tmp.path(), &Run::build(&[], &SsTableOptions::default(), 1)).is_err());
    }

    // ---- Admission on the second miss ----

    type Key = (u64, u64);

    /// Reads `blocks` of partition `p` — 10 000 cells, so column-indexed,
    /// 90 cells a block — reaching exactly those blocks; returns the
    /// receipt and the cache keys of the blocks read, in order.
    fn read_blocks_of(
        sst: &SstFile,
        p: u64,
        blocks: std::ops::Range<usize>,
        cache: &mut BlockCache,
    ) -> (ReadReceipt, Vec<Key>) {
        let mut r = ReadReceipt::default();
        let (from, to) = (blocks.start as u64 * 90, blocks.end as u64 * 90 - 1);
        sst.read_range(&pk(p), from..=to, cache, &mut r)
            .expect("io");
        assert_eq!(r.column_index_blocks, blocks.len() as u64);
        let entry = sst.probe(&pk(p), &mut ReadReceipt::default());
        let metas = &sst.index.blocks(entry.expect("present"))[blocks];
        let keys = metas.iter().map(|m| (sst.generation, m.offset)).collect();
        (r, keys)
    }

    /// The admission rule written as plainly as possible, over lists kept
    /// most recently used first; with `ghosted` false, plain LRU.
    struct Model {
        capacity: usize,
        ghosted: bool,
        blocks: Vec<Key>,
        ghost: Vec<Key>,
    }

    impl Model {
        fn new(capacity: usize, ghosted: bool) -> Model {
            let blocks = Vec::new();
            let ghost = Vec::new();
            Model {
                capacity,
                ghosted,
                blocks,
                ghost,
            }
        }

        fn admit(&mut self, key: Key) {
            let remembered = self.ghost.contains(&key);
            if self.blocks.len() < self.capacity || !self.ghosted || remembered {
                self.ghost.retain(|k| *k != key);
                self.blocks.insert(0, key);
                self.blocks.truncate(self.capacity);
            } else {
                self.ghost.insert(0, key);
                self.ghost.truncate(self.capacity);
            }
        }

        /// One read of consecutive blocks, strictly in order: a hit is
        /// promoted, a miss offered. Returns `(hits, misses)`.
        fn read(&mut self, keys: &[Key]) -> (u64, u64) {
            let mut hits = 0;
            for &key in keys {
                match self.blocks.iter().position(|k| *k == key) {
                    Some(at) => {
                        let hit = self.blocks.remove(at);
                        self.blocks.insert(0, hit);
                        hits += 1;
                    }
                    None => self.admit(key),
                }
            }
            (hits, keys.len() as u64 - hits)
        }
    }

    #[test]
    fn admission_matches_its_model_and_plain_lru_while_the_working_set_fits() {
        let tmp = TempDir::new("sst-admission");
        let (sst, _, _) = write_open(tmp.path(), &[10_000], 1);
        for capacity in [0usize, 1, 2, 3, 8, 24] {
            // A working set of `capacity` blocks fits; one of 3× + 5 not.
            for window in [capacity, 3 * capacity + 5] {
                if window == 0 {
                    continue;
                }
                let fits = window <= capacity;
                let mut cache = BlockCache::new(capacity);
                let mut model = Model::new(capacity, true);
                let mut lru = Model::new(capacity, false);
                let mut lru_differed = false;
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (capacity * 131 + window) as u64;
                for step in 0..400 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // 1–3 consecutive blocks inside the window, from block 5.
                    let len = (1 + state % 3).min(window as u64) as usize;
                    let first = 5 + (state >> 8) as usize % (window - len + 1);
                    let (r, keys) = read_blocks_of(&sst, 0, first..first + len, &mut cache);
                    let want = model.read(&keys);
                    let what = format!("capacity {capacity}, window {window}, step {step}");
                    assert_eq!(
                        (r.disk_block_cache_hits, r.disk_blocks_read),
                        want,
                        "{what}"
                    );
                    assert_eq!(cache.blocks.keys(), model.blocks, "{what}");
                    assert_eq!(cache.ghost.keys(), model.ghost, "{what}");
                    lru_differed |= lru.read(&keys) != want || lru.blocks != model.blocks;
                    if fits {
                        assert!(!lru_differed, "{what}: plain LRU");
                        assert!(cache.ghost.is_empty(), "{what}");
                    }
                }
                // The stream that does not fit tells the two rules apart.
                assert_eq!(lru_differed, !fits && capacity > 0, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn a_round_robin_larger_than_the_cache_keeps_its_first_blocks_and_copies_none() {
        // One node's share of `agg_coarse`: 10 partitions × 112 blocks,
        // each read whole in turn, through 256 slots.
        let tmp = TempDir::new("sst-round-robin");
        let (sst, blocks, _) = write_open(tmp.path(), &[10_000; 10], 1);
        assert_eq!(blocks, 1_120);
        let mut cache = BlockCache::new(256);
        let round = |cache: &mut BlockCache| -> Vec<u64> {
            let hits = (0..10).map(|p| {
                let mut r = ReadReceipt::default();
                let cells = sst.read(&pk(p), cache, &mut r).expect("io").expect("hit");
                assert_eq!(cells.len(), 10_000);
                assert_eq!(r.disk_blocks_read + r.disk_block_cache_hits, 112);
                r.disk_block_cache_hits
            });
            hits.collect()
        };
        // Where each cached block's bytes live: a copy would move them.
        let resident = |cache: &BlockCache| {
            let held = cache.blocks.recency().into_iter();
            let mut held: Vec<(Key, *const u8)> = held.map(|(k, v)| (*k, v.as_ptr())).collect();
            held.sort_unstable();
            held
        };
        assert_eq!(round(&mut cache), [0; 10]);
        let first = resident(&cache);
        let metas = sst.index.blocks.iter();
        let want: Vec<Key> = metas.take(256).map(|m| (1, m.offset)).collect();
        assert_eq!(first.iter().map(|(k, _)| *k).collect::<Vec<_>>(), want);
        for _ in 0..3 {
            assert_eq!(round(&mut cache), [112, 112, 32, 0, 0, 0, 0, 0, 0, 0]);
            assert_eq!(resident(&cache), first);
            assert_eq!(cache.ghost.len(), 256);
        }
    }

    #[test]
    fn a_new_working_set_that_fits_is_cached_by_its_third_pass() {
        let tmp = TempDir::new("sst-new-set");
        let (sst, _, _) = write_open(tmp.path(), &[10_000], 1);
        let mut cache = BlockCache::new(8);
        let mut pass = |blocks: std::ops::Range<usize>| {
            read_blocks_of(&sst, 0, blocks, &mut cache)
                .0
                .disk_block_cache_hits
        };
        // The first set fills free slots: cached on its first pass.
        assert_eq!((pass(0..8), pass(0..8)), (0, 8));
        // The next is remembered on its first pass, admitted on its
        // second, evicting the first set, and hits on its third.
        assert_eq!((pass(40..48), pass(40..48), pass(40..48)), (0, 0, 8));
        assert_eq!(pass(0..8), 0);
        let (_, set) = read_blocks_of(&sst, 0, 40..48, &mut cache);
        let mut held = cache.blocks.keys();
        held.sort_unstable();
        assert_eq!(held, set);
        assert_eq!(cache.ghost.len(), 8, "the first set, refused once more");
    }

    #[test]
    fn a_block_that_fails_its_checksum_enters_neither_list() {
        // Partition 0 (200 cells, 3 blocks) has a flipped bit in its first
        // block; partition 1 (10 000 cells) is clean.
        let tmp = TempDir::new("sst-corrupt-admission");
        let path = tmp.path().join(sst_file_name(1));
        write_sst(
            tmp.path(),
            &Run::build(&build_input(&[200, 10_000]), &SsTableOptions::default(), 1),
        )
        .expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[100] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let sst = SstFile::open(&path).expect("open");
        // A full cache and a remembered key: a verified miss would now
        // join the ghost.
        let mut cache = BlockCache::new(4);
        read_blocks_of(&sst, 1, 0..4, &mut cache);
        read_blocks_of(&sst, 1, 10..11, &mut cache);
        let (blocks, ghost) = (cache.blocks.keys(), cache.ghost.keys());
        assert_eq!((blocks.len(), ghost.len()), (4, 1));
        let mut r = ReadReceipt::default();
        let err = sst.read(&pk(0), &mut cache, &mut r).expect_err("must fail");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(r.disk_blocks_read, 1);
        assert_eq!((cache.blocks.keys(), cache.ghost.keys()), (blocks, ghost));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A bit flipped in block `k` of a partition of any size fails
        /// every fold at `k` alone: the blocks before it were verified,
        /// offered to the cache as the admission model says and visited;
        /// `k` is on the bill, unvisited, and in neither list.
        #[test]
        fn a_corrupt_block_fails_each_fold_after_the_blocks_before_it(
            cells in 1u64..8_000,
            payload in 0usize..40,
            flip in any::<u64>(),
            capacity in 0usize..96,
        ) {
            let input: Vec<Cell> = (0..cells)
                .map(|c| Cell::new(c, (c % 5) as u8, vec![c as u8; payload + (c % 7) as usize]))
                .collect();
            let run = Run::build(&[(pk(0), input.clone())], &SsTableOptions::default(), 1);
            let metas = run.index.blocks.clone();
            let tmp = TempDir::new("sst-corrupt-prop");
            write_sst(tmp.path(), &run).expect("write");
            let path = tmp.path().join(sst_file_name(1));
            let k = (flip % metas.len() as u64) as usize;
            let bad = &metas[k];
            let mut bytes = std::fs::read(&path).expect("read");
            let at = bad.offset as usize + (flip >> 8) as usize % bad.len as usize;
            bytes[at] ^= 1 << ((flip >> 56) % 8);
            std::fs::write(&path, &bytes).expect("write");
            let sst = SstFile::open(&path).expect("open still fine");

            let keys: Vec<Key> = metas.iter().map(|m| (1, m.offset)).collect();
            let before: u64 = metas[..k].iter().map(|m| m.cells as u64).sum();
            let (mut cache, mut model) = (BlockCache::new(capacity), Model::new(capacity, true));
            for _ in 0..3 {
                let mut r = ReadReceipt::default();
                let entry = sst.probe(&pk(0), &mut r).expect("present");
                let mut visited = Vec::new();
                let err = sst
                    .scan_partition(entry, WHOLE, &mut cache, &mut r, |cell| {
                        visited.push(cell.clustering)
                    })
                    .expect_err("must fail");
                let named = format!("block at offset {} failed its checksum", bad.offset);
                prop_assert!(err.to_string().contains(&named), "{err}");
                prop_assert_eq!(visited, (0..before).collect::<Vec<u64>>());
                let (hits, misses) = model.read(&keys[..k]);
                prop_assert_eq!((r.disk_block_cache_hits, r.disk_blocks_read), (hits, misses + 1));
                prop_assert_eq!(&cache.blocks.keys(), &model.blocks);
                prop_assert_eq!(&cache.ghost.keys(), &model.ghost);
                prop_assert!(!model.blocks.contains(&keys[k]) && !model.ghost.contains(&keys[k]));
            }
        }
    }
}
