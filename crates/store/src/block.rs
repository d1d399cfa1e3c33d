//! Blocks: the unit every run is laid out in ([`crate::run`]), and on disk
//! the unit of I/O, checksumming and cache residency.
//!
//! A partition's cells lie contiguously, chunked into blocks of
//! [`BLOCK_TARGET_BYTES`] (4 KiB, Cassandra's column-index granularity
//! scaled to a page). A block closes at the first cell boundary at or
//! past the target — never splitting a cell, never crossing a partition —
//! so for a partition above `column_index_size` its block list (first and
//! last clustering key per block) *is* the column index, on both tiers.
//! Every block of an SSTable file carries its XXH64 [`checksum64`] in its
//! index entry, computed as the file is written
//! (`sst_file::write_sst`) and verified on every read from it; the
//! same checksum guards the WAL, the manifest and the SSTable footer.

use crate::schema::CellRef;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Target encoded size of one data block (bytes). Blocks close at the
/// first cell boundary at or past this size.
pub const BLOCK_TARGET_BYTES: usize = 4096;

/// Encoded size of one [`BlockMeta`] index entry.
pub const BLOCK_META_BYTES: usize = 40;

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// XXH64 of `bytes` under `seed` — the checksum of every durable artifact
/// (blocks, WAL records, manifest, SSTable footer and metadata), with seed
/// 0. It consumes 32 bytes a step on four independent lanes, one multiply
/// per eight-byte word, so verifying a block costs about what reading it
/// from memory does.
///
/// A record in two parts is checksummed without joining the buffers by
/// seeding the second part with the first's digest:
/// `checksum64(checksum64(0, a), b)`. That covers every byte of both parts
/// and where the first ends, and is *not* `checksum64(0, a ⋅ b)`.
pub fn checksum64(seed: u64, bytes: &[u8]) -> u64 {
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        seed.wrapping_add(PRIME_5)
    } else {
        let mut lanes = [
            seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
            seed.wrapping_add(PRIME_2),
            seed,
            seed.wrapping_sub(PRIME_1),
        ];
        for stripe in stripes {
            let (words, _) = stripe.as_chunks::<8>();
            for (lane, word) in lanes.iter_mut().zip(words) {
                *lane = round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [a, b, c, d] = lanes;
        let joined = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(joined, merge_round)
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, rest) = rest.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let (halves, tail) = rest.as_chunks::<4>();
    for half in halves {
        h = (h ^ (u32::from_le_bytes(*half) as u64).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
    }
    for &byte in tail {
        h = (h ^ (byte as u64).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^ (h >> 32)
}

/// FNV-1a continued from `h` (a fresh digest starts from
/// [`FNV1A_BASIS`]): the checksum of format version 1, kept for the
/// tests that show a version-1 file is refused.
#[cfg(test)]
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    bytes.iter().fold(h, step)
}

/// [`fnv1a`]'s offset basis.
#[cfg(test)]
pub(crate) const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

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
    /// [`checksum64`] of the block's bytes, set when the run is written to
    /// a file and verified on every read from it; 0 on a run held in
    /// memory, whose blocks nothing verifies.
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
}

/// Appends one partition's cells to `data` as blocks, back to back, and
/// returns their index entries, `offset` counted from the start of `data`.
///
/// # Panics
/// If the cells are not strictly ascending by clustering key — the
/// memtable and the merge both guarantee it, so a violation is a bug.
pub fn build_blocks<'a>(
    cells: impl IntoIterator<Item = CellRef<'a>>,
    data: &mut BytesMut,
) -> Vec<BlockMeta> {
    let mut out = Vec::new();
    let mut start = data.len();
    let (mut first, mut last) = (0, None);
    let mut count: u32 = 0;
    let mut cells = cells.into_iter().peekable();
    while let Some(cell) = cells.next() {
        assert!(
            last < Some(cell.clustering),
            "cells must be strictly ascending"
        );
        last = Some(cell.clustering);
        if count == 0 {
            first = cell.clustering;
        }
        count += 1;
        cell.encode(data);
        if data.len() - start >= BLOCK_TARGET_BYTES || cells.peek().is_none() {
            out.push(BlockMeta {
                offset: start as u64,
                len: (data.len() - start) as u32,
                cells: count,
                crc: 0,
                first_clustering: first,
                last_clustering: cell.clustering,
            });
            start = data.len();
            count = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Cell;

    /// XXH64 as the specification writes it: one accumulator, word and
    /// byte indices spelled out, nothing shared with [`checksum64`] but the
    /// primes.
    fn xxh64_reference(seed: u64, bytes: &[u8]) -> u64 {
        let u64_at = |i: usize| (0..8).fold(0u64, |w, k| w | (bytes[i + k] as u64) << (8 * k));
        let u32_at = |i: usize| (0..4).fold(0u64, |w, k| w | (bytes[i + k] as u64) << (8 * k));
        let lane = |acc: u64, input: u64| {
            acc.wrapping_add(input.wrapping_mul(PRIME_2))
                .rotate_left(31)
                .wrapping_mul(PRIME_1)
        };
        let len = bytes.len();
        let mut at = 0;
        let mut h = if len >= 32 {
            let mut v1 = seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2);
            let mut v2 = seed.wrapping_add(PRIME_2);
            let mut v3 = seed;
            let mut v4 = seed.wrapping_sub(PRIME_1);
            while at + 32 <= len {
                v1 = lane(v1, u64_at(at));
                v2 = lane(v2, u64_at(at + 8));
                v3 = lane(v3, u64_at(at + 16));
                v4 = lane(v4, u64_at(at + 24));
                at += 32;
            }
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in [v1, v2, v3, v4] {
                h = (h ^ lane(0, v)).wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
            }
            h
        } else {
            seed.wrapping_add(PRIME_5)
        };
        h = h.wrapping_add(len as u64);
        while at + 8 <= len {
            h ^= lane(0, u64_at(at));
            h = h
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            at += 8;
        }
        if at + 4 <= len {
            h ^= u32_at(at).wrapping_mul(PRIME_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            at += 4;
        }
        while at < len {
            h ^= (bytes[at] as u64).wrapping_mul(PRIME_5);
            h = h.rotate_left(11).wrapping_mul(PRIME_1);
            at += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }

    #[test]
    fn checksum_matches_the_published_xxh64_vectors() {
        assert_eq!(checksum64(0, b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(0, b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(0, b"abc"), 0x44BC_2CF5_AD77_0999);
        // And the version-1 reference is FNV-1a, so the refusal tests seal
        // their old-format files with what version 1 really used.
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn checksum_matches_the_scalar_reference_at_every_length() {
        let bytes: Vec<u8> = (0..4140u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in (0..=100).chain([127, 128, 129, 4096, 4140]) {
            for seed in [0, 1, PRIME_3, u64::MAX] {
                assert_eq!(
                    checksum64(seed, &bytes[..len]),
                    xxh64_reference(seed, &bytes[..len]),
                    "length {len}, seed {seed:#x}"
                );
            }
        }
        // The reference itself is pinned to a published vector too.
        assert_eq!(xxh64_reference(0, b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn chaining_seeds_the_second_part_with_the_first_digest() {
        let (a, b) = (&b"len+seq prefix"[..], &b"record body"[..]);
        let chained = checksum64(checksum64(0, a), b);
        assert_eq!(chained, xxh64_reference(xxh64_reference(0, a), b));
        // Not the digest of the joined bytes, and the split point counts.
        assert_ne!(chained, checksum64(0, &[a, b].concat()));
        assert_ne!(
            chained,
            checksum64(checksum64(0, &a[..4]), &[&a[4..], b].concat())
        );
        // Every byte of either part moves it.
        assert_ne!(chained, checksum64(checksum64(0, b"len+seq prefiy"), b));
        assert_ne!(chained, checksum64(checksum64(0, a), b"record bodz"));
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
        let mut data = BytesMut::new();
        let blocks = build_blocks(cells.iter().map(Cell::as_cell_ref), &mut data);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].cells, 90);
        assert_eq!(blocks[0].len as usize, 90 * 46);
        assert!(blocks[0].len as usize >= BLOCK_TARGET_BYTES);
        assert_eq!(blocks[0].first_clustering, 0);
        assert_eq!(blocks[0].last_clustering, 89);
        // Offsets chain.
        let mut expect_offset = 0u64;
        let mut total_cells = 0u32;
        for meta in &blocks {
            assert_eq!(meta.offset, expect_offset);
            expect_offset += meta.len as u64;
            total_cells += meta.cells;
        }
        assert_eq!(expect_offset as usize, data.len());
        assert_eq!(total_cells, 200);
    }

    #[test]
    fn oversized_cell_gets_its_own_block() {
        let big = Cell::new(5, 0, vec![0xAB; 3 * BLOCK_TARGET_BYTES]);
        let mut data = BytesMut::new();
        data.put_slice(&[0; 100]);
        let cells = [Cell::synthetic(1, 0), big];
        let blocks = build_blocks(cells.iter().map(Cell::as_cell_ref), &mut data);
        // First block closes only when the big cell pushes it past target.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].cells, 2);
        assert_eq!(blocks[0].offset, 100);
        assert!(blocks[0].len as usize > 3 * BLOCK_TARGET_BYTES);
    }

    #[test]
    fn empty_partition_yields_no_blocks() {
        let mut data = BytesMut::new();
        assert!(build_blocks([], &mut data).is_empty());
        assert!(data.is_empty());
    }
}
