//! Disk blocks: the unit of I/O, checksumming and cache residency for the
//! durable tier.
//!
//! The on-disk SSTable ([`crate::sst_file`]) lays each partition's cells
//! out contiguously and chunks them into blocks of
//! [`BLOCK_TARGET_BYTES`] (4 KiB, Cassandra's `column_index` block
//! granularity scaled to a page). A block never splits a cell: it closes
//! at the first cell boundary at or past the target, so a single cell
//! larger than 4 KiB yields one oversized block. Block boundaries also
//! never cross partitions — for partitions above the
//! `column_index_size` threshold the block list *is* the column index
//! (first/last clustering key per block), which is how the paper's
//! Figure 6 discontinuity survives on disk.
//!
//! Every block carries an FNV-1a checksum in its index entry, verified on
//! every read from disk; the same [`fnv64`] hash checksums the WAL
//! records, the manifest and the SSTable footer.

use crate::schema::Cell;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Target encoded size of one data block (bytes). Blocks close at the
/// first cell boundary at or past this size.
pub const BLOCK_TARGET_BYTES: usize = 4096;

/// Encoded size of one [`BlockMeta`] index entry.
pub const BLOCK_META_BYTES: usize = 40;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice — the checksum of every durable artifact
/// (blocks, WAL records, manifest, SSTable footer).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET_BASIS, bytes)
}

/// Chained FNV-1a: continue hashing `bytes` from a previous digest, so a
/// multi-part record can be checksummed without concatenating buffers.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// How many slices [`fnv64_lanes`] digests at once.
pub const FNV_LANES: usize = 4;

/// [`fnv64`] of each of `slices`, computed together. FNV-1a is one
/// dependent multiply per byte, so a single digest runs at the multiplier's
/// latency; stepping independent chains side by side runs them at its
/// throughput. Same function, same digests: over the slices' common length
/// the lanes advance in lockstep, then each finishes on its own.
pub fn fnv64_lanes(slices: [&[u8]; FNV_LANES]) -> [u64; FNV_LANES] {
    let common = slices.iter().map(|s| s.len()).min().unwrap_or(0);
    let split = slices.map(|s| s.split_at(common));
    let [a, b, c, d] = split.map(|(lockstep, _)| lockstep);
    let mut h = [FNV_OFFSET_BASIS; FNV_LANES];
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        for (h, &byte) in h.iter_mut().zip([a, b, c, d]) {
            *h = (*h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    std::array::from_fn(|lane| fnv64_extend(h[lane], split[lane].1))
}

/// Index entry for one data block: its file extent, content checksum and
/// the clustering-key range it covers (the column-index information).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Absolute file offset of the block's first byte.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u32,
    /// Number of cells encoded in the block.
    pub cells: u32,
    /// FNV-1a of the block's bytes, verified on every disk read.
    pub crc: u64,
    /// Clustering key of the first cell in the block.
    pub first_clustering: u64,
    /// Clustering key of the last cell in the block.
    pub last_clustering: u64,
}

impl BlockMeta {
    /// Appends the fixed-size index encoding.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.offset);
        buf.put_u32(self.len);
        buf.put_u32(self.cells);
        buf.put_u64(self.crc);
        buf.put_u64(self.first_clustering);
        buf.put_u64(self.last_clustering);
    }

    /// Decodes one entry; `None` on truncated input.
    pub fn decode(buf: &mut Bytes) -> Option<BlockMeta> {
        if buf.len() < BLOCK_META_BYTES {
            return None;
        }
        Some(BlockMeta {
            offset: buf.get_u64(),
            len: buf.get_u32(),
            cells: buf.get_u32(),
            crc: buf.get_u64(),
            first_clustering: buf.get_u64(),
            last_clustering: buf.get_u64(),
        })
    }

    /// Whether this block's clustering range overlaps `[from, to]`.
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.last_clustering >= from && self.first_clustering <= to
    }
}

/// Splits one partition's cells into blocks: returns `(meta, bytes)` per
/// block, with `meta.offset` relative to `base_offset`. Cells must be in
/// clustering order (the SSTable build contract).
pub fn build_blocks(cells: &[Cell], base_offset: u64) -> Vec<(BlockMeta, Bytes)> {
    let mut out = Vec::new();
    let mut buf = BytesMut::new();
    let mut first: Option<u64> = None;
    let mut last: u64 = 0;
    let mut count: u32 = 0;
    let mut offset = base_offset;
    for cell in cells {
        if first.is_none() {
            first = Some(cell.clustering);
        }
        last = cell.clustering;
        count += 1;
        cell.encode(&mut buf);
        if buf.len() >= BLOCK_TARGET_BYTES {
            let bytes = std::mem::take(&mut buf).freeze();
            let meta = BlockMeta {
                offset,
                len: bytes.len() as u32,
                cells: count,
                crc: fnv64(&bytes),
                first_clustering: first.take().unwrap_or(last),
                last_clustering: last,
            };
            offset += bytes.len() as u64;
            count = 0;
            out.push((meta, bytes));
        }
    }
    if !buf.is_empty() {
        let bytes = buf.freeze();
        out.push((
            BlockMeta {
                offset,
                len: bytes.len() as u32,
                cells: count,
                crc: fnv64(&bytes),
                first_clustering: first.unwrap_or(last),
                last_clustering: last,
            },
            bytes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("a") per the reference implementation.
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64_extend(fnv64(b"ab"), b"c"), fnv64(b"abc"));
    }

    #[test]
    fn lanes_match_the_serial_digest_for_ragged_slices() {
        let bytes: Vec<u8> = (0..4 * 4140u32).map(|i| (i * 31 + 7) as u8).collect();
        let cases: [[usize; FNV_LANES]; 6] = [
            [0, 0, 0, 0],
            [4140, 4140, 4140, 4140],
            [4140, 4140, 4140, 460],
            [1, 0, 4097, 33],
            [4140, 0, 0, 0], // fewer than four blocks: the rest are empty
            [13, 4140, 0, 0],
        ];
        for lens in cases {
            let mut at = 0;
            let slices = lens.map(|len| {
                at += len;
                &bytes[at - len..at]
            });
            assert_eq!(fnv64_lanes(slices), slices.map(fnv64), "lengths {lens:?}");
        }
    }

    #[test]
    fn block_meta_roundtrips() {
        let meta = BlockMeta {
            offset: 12345,
            len: 4096,
            cells: 89,
            crc: 0xDEAD_BEEF,
            first_clustering: 7,
            last_clustering: 95,
        };
        let mut buf = BytesMut::new();
        meta.encode(&mut buf);
        assert_eq!(buf.len(), BLOCK_META_BYTES);
        let mut bytes = buf.freeze();
        assert_eq!(BlockMeta::decode(&mut bytes), Some(meta));
        assert!(bytes.is_empty());
        let mut short = Bytes::copy_from_slice(&[0u8; BLOCK_META_BYTES - 1]);
        assert!(BlockMeta::decode(&mut short).is_none());
    }

    #[test]
    fn blocks_close_at_cell_boundaries() {
        // 46-byte cells: ⌈4096 / 46⌉ = 90 cells close a block at 4140 B.
        let cells: Vec<Cell> = (0..200u64).map(|c| Cell::synthetic(c, 0)).collect();
        let blocks = build_blocks(&cells, 0);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].0.cells, 90);
        assert_eq!(blocks[0].0.len as usize, 90 * 46);
        assert!(blocks[0].0.len as usize >= BLOCK_TARGET_BYTES);
        assert_eq!(blocks[0].0.first_clustering, 0);
        assert_eq!(blocks[0].0.last_clustering, 89);
        // Offsets chain and checksums verify.
        let mut expect_offset = 0u64;
        let mut total_cells = 0u32;
        for (meta, bytes) in &blocks {
            assert_eq!(meta.offset, expect_offset);
            assert_eq!(meta.len as usize, bytes.len());
            assert_eq!(meta.crc, fnv64(bytes));
            expect_offset += meta.len as u64;
            total_cells += meta.cells;
        }
        assert_eq!(total_cells, 200);
    }

    #[test]
    fn oversized_cell_gets_its_own_block() {
        let big = Cell::new(5, 0, vec![0xAB; 3 * BLOCK_TARGET_BYTES]);
        let blocks = build_blocks(&[Cell::synthetic(1, 0), big.clone()], 100);
        // First block closes only when the big cell pushes it past target.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].0.cells, 2);
        assert_eq!(blocks[0].0.offset, 100);
        assert!(blocks[0].0.len as usize > 3 * BLOCK_TARGET_BYTES);
    }

    #[test]
    fn empty_partition_yields_no_blocks() {
        assert!(build_blocks(&[], 0).is_empty());
    }

    #[test]
    fn overlap_predicate() {
        let meta = BlockMeta {
            offset: 0,
            len: 1,
            cells: 1,
            crc: 0,
            first_clustering: 10,
            last_clustering: 20,
        };
        assert!(meta.overlaps(0, 10));
        assert!(meta.overlaps(20, 30));
        assert!(meta.overlaps(12, 13));
        assert!(!meta.overlaps(21, 99));
        assert!(!meta.overlaps(0, 9));
    }
}
