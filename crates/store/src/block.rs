//! Blocks: the unit every run is laid out in ([`crate::run`]), and on disk
//! the unit of I/O, checksumming and cache residency.
//!
//! A partition's cells lie contiguously, chunked into blocks of
//! [`BLOCK_TARGET_BYTES`] (4 KiB, Cassandra's column-index granularity
//! scaled to a page). A block closes at the first cell boundary at or
//! past the target — never splitting a cell, never crossing a partition —
//! so for a partition above `column_index_size` its block list (first and
//! last clustering key per block) *is* the column index, on both tiers.
//!
//! Inside a block the cells lie column by column (PAX, Ailamaki et al.,
//! VLDB 2001): every clustering key (`u64` LE), every kind (`u8`), every
//! payload length (`u32` LE), then the payloads. A block is still
//! `13 n + Σ payload_len` bytes, but [`fold_block`] reads a cell's 13
//! header bytes from three dense columns and no payload byte, and
//! [`tally_block`], what an aggregation reads a block with, reads one of
//! them, its kind. Whether the payload lengths add up to the block is
//! [`check_block`]'s question, asked once where a block enters a read
//! path: at a heap run's build, and on a file run's cache miss.
//!
//! Every block of an SSTable file carries its XXH3 [`checksum64`] in its
//! index entry, computed as the file is written
//! (`sst_file::write_sst`) and verified on every read from it; the
//! same checksum guards the WAL, the manifest and the SSTable footer.

use crate::receipt::ReadReceipt;
use crate::run::bad_data;
use crate::schema::{CellRef, ClusteringKey, CELL_HEADER_BYTES};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io;

/// Target encoded size of one data block (bytes). Blocks close at the
/// first cell boundary at or past this size.
pub const BLOCK_TARGET_BYTES: usize = 4096;

/// Encoded size of one [`BlockMeta`] index entry.
pub const BLOCK_META_BYTES: usize = 40;

const PRIME32_1: u64 = 0x9E37_79B1;
const PRIME32_2: u64 = 0x85EB_CA77;
const PRIME32_3: u64 = 0xC2B2_AE3D;
const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;
const PRIME_MX1: u64 = 0x1656_6791_9E37_79F9;
const PRIME_MX2: u64 = 0x9FB2_1C65_1E98_DF25;

/// Size of XXH3's secret.
const SECRET_BYTES: usize = 192;

/// XXH3's default secret, `XXH3_kSecret` of xxHash 0.8.
const SECRET: [u8; SECRET_BYTES] = [
    0xb8, 0xfe, 0x6c, 0x39, 0x23, 0xa4, 0x4b, 0xbe, 0x7c, 0x01, 0x81, 0x2c, 0xf7, 0x21, 0xad, 0x1c,
    0xde, 0xd4, 0x6d, 0xe9, 0x83, 0x90, 0x97, 0xdb, 0x72, 0x40, 0xa4, 0xa4, 0xb7, 0xb3, 0x67, 0x1f,
    0xcb, 0x79, 0xe6, 0x4e, 0xcc, 0xc0, 0xe5, 0x78, 0x82, 0x5a, 0xd0, 0x7d, 0xcc, 0xff, 0x72, 0x21,
    0xb8, 0x08, 0x46, 0x74, 0xf7, 0x43, 0x24, 0x8e, 0xe0, 0x35, 0x90, 0xe6, 0x81, 0x3a, 0x26, 0x4c,
    0x3c, 0x28, 0x52, 0xbb, 0x91, 0xc3, 0x00, 0xcb, 0x88, 0xd0, 0x65, 0x8b, 0x1b, 0x53, 0x2e, 0xa3,
    0x71, 0x64, 0x48, 0x97, 0xa2, 0x0d, 0xf9, 0x4e, 0x38, 0x19, 0xef, 0x46, 0xa9, 0xde, 0xac, 0xd8,
    0xa8, 0xfa, 0x76, 0x3f, 0xe3, 0x9c, 0x34, 0x3f, 0xf9, 0xdc, 0xbb, 0xc7, 0xc7, 0x0b, 0x4f, 0x1d,
    0x8a, 0x51, 0xe0, 0x4b, 0xcd, 0xb4, 0x59, 0x31, 0xc8, 0x9f, 0x7e, 0xc9, 0xd9, 0x78, 0x73, 0x64,
    0xea, 0xc5, 0xac, 0x83, 0x34, 0xd3, 0xeb, 0xc3, 0xc5, 0x81, 0xa0, 0xff, 0xfa, 0x13, 0x63, 0xeb,
    0x17, 0x0d, 0xdd, 0x51, 0xb7, 0xf0, 0xda, 0x49, 0xd3, 0x16, 0x55, 0x26, 0x29, 0xd4, 0x68, 0x9e,
    0x2b, 0x16, 0xbe, 0x58, 0x7d, 0x47, 0xa1, 0xfc, 0x8f, 0xf8, 0xb8, 0xd1, 0x7a, 0xd0, 0x31, 0xce,
    0x45, 0xcb, 0x3a, 0x8f, 0x95, 0x16, 0x04, 0x28, 0xaf, 0xd7, 0xfb, 0xca, 0xbb, 0x4b, 0x40, 0x7e,
];

/// The longest input hashed without the stripe loop.
const MIDSIZE_MAX: usize = 240;

/// The stripe loop's unit: eight 64-bit lanes.
const STRIPE: usize = 64;

/// The bytes between two scrambles: 16 stripes, as the secret slides 8
/// bytes a stripe across its first `SECRET_BYTES − STRIPE`.
const ROUND: usize = STRIPE * (SECRET_BYTES - STRIPE) / 8;

/// Where in the secret the last stripe's key starts.
const LAST_STRIPE_KEY: usize = SECRET_BYTES - STRIPE - 7;

/// Where in the secret the scramble's key starts.
const SCRAMBLE_KEY: usize = SECRET_BYTES - STRIPE;

/// Where in the secret the key that merges the lanes starts.
const MERGE_KEY: usize = 11;

/// The stripe loop's lanes before the first stripe.
const LANES: [u64; 8] = [
    PRIME32_3, PRIME64_1, PRIME64_2, PRIME64_3, PRIME64_4, PRIME32_2, PRIME64_5, PRIME32_1,
];

/// XXH3-64 of `bytes` under `seed` (xxHash 0.8, bit-exact with
/// libxxhash's `XXH3_64bits_withSeed`) — the checksum of every durable
/// artifact (blocks, WAL records, manifest, SSTable footer and metadata),
/// with seed 0. Past 240 bytes it takes 64-byte stripes as eight lanes,
/// one 32 × 32 → 64 multiply per eight-byte word, in AVX2 where the CPU
/// has it ([`checksum64_portable`] otherwise).
///
/// On a 2-vCPU Xeon host it checks a 4 KiB block in 0.12–0.16 µs
/// (25–34 GB/s) while the block is in L2, and in 0.20–0.23 µs
/// (18–21 GB/s) over a 9 MiB working set, where memory binds. XXH64, the
/// checksum before it, took 0.39–0.48 µs (8.5–10.5 GB/s) in either case,
/// so verifying a block cost more than reading it; the portable code
/// takes 0.27–0.45 µs.
///
/// A record in two parts is checksummed without joining the buffers by
/// seeding the second part with the first's digest:
/// `checksum64(checksum64(0, a), b)`. That covers every byte of both parts
/// and where the first ends, and is *not* `checksum64(0, a ⋅ b)`.
pub fn checksum64(seed: u64, bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() > MIDSIZE_MAX && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::accumulate` requires AVX2 and nothing else, and
        // the line above found that this CPU has it.
        return long(seed, bytes, |lanes, secret| unsafe {
            avx2::accumulate(lanes, bytes, secret)
        });
    }
    checksum64_portable(seed, bytes)
}

/// [`checksum64`] in portable code: the reference its AVX2 loop is tested
/// against, and what runs on a CPU without AVX2.
pub fn checksum64_portable(seed: u64, bytes: &[u8]) -> u64 {
    if bytes.len() > MIDSIZE_MAX {
        return long(seed, bytes, |lanes, secret| {
            accumulate(lanes, bytes, secret)
        });
    }
    let (len, s) = (bytes.len(), &SECRET);
    match len {
        0 => xxh64_avalanche(seed ^ le64(&s[56..]) ^ le64(&s[64..])),
        1..=3 => {
            let (first, middle, last) = (
                bytes[0] as u64,
                bytes[len / 2] as u64,
                bytes[len - 1] as u64,
            );
            let combined = first << 16 | middle << 24 | last | (len as u64) << 8;
            let flip = (le32(s) ^ le32(&s[4..])).wrapping_add(seed);
            xxh64_avalanche(combined ^ flip)
        }
        4..=8 => {
            let seed = seed ^ ((seed as u32).swap_bytes() as u64) << 32;
            let flip = (le64(&s[8..]) ^ le64(&s[16..])).wrapping_sub(seed);
            let words = le32(&bytes[len - 4..]).wrapping_add(le32(bytes) << 32);
            rrmxmx(words ^ flip, len as u64)
        }
        9..=16 => {
            let lo = le64(bytes) ^ (le64(&s[24..]) ^ le64(&s[32..])).wrapping_add(seed);
            let hi = le64(&bytes[len - 8..]) ^ (le64(&s[40..]) ^ le64(&s[48..])).wrapping_sub(seed);
            let acc = (len as u64)
                .wrapping_add(lo.swap_bytes())
                .wrapping_add(hi)
                .wrapping_add(fold_mul(lo, hi));
            avalanche(acc)
        }
        17..=128 => {
            // 16 bytes from each end, then the next 16 in from each, up to
            // four pairs.
            let mut acc = (len as u64).wrapping_mul(PRIME64_1);
            for i in 0..=(len - 1) / 32 {
                acc = acc
                    .wrapping_add(mix16(&bytes[16 * i..], &s[32 * i..], seed))
                    .wrapping_add(mix16(&bytes[len - 16 * (i + 1)..], &s[32 * i + 16..], seed));
            }
            avalanche(acc)
        }
        _ => {
            let mut acc = (len as u64).wrapping_mul(PRIME64_1);
            let (chunks, _) = bytes.as_chunks::<16>();
            for (i, chunk) in chunks.iter().enumerate().take(8) {
                acc = acc.wrapping_add(mix16(chunk, &s[16 * i..], seed));
            }
            acc = avalanche(acc);
            // Past the eighth, chunks are keyed from byte 3 of the secret,
            // and the last 16 bytes from byte 119.
            for (i, chunk) in chunks.iter().enumerate().skip(8) {
                acc = acc.wrapping_add(mix16(chunk, &s[16 * (i - 8) + 3..], seed));
            }
            acc = acc.wrapping_add(mix16(&bytes[len - 16..], &s[119..], seed));
            avalanche(acc)
        }
    }
}

/// XXH3 of an input over [`MIDSIZE_MAX`] bytes: `accumulate` runs the
/// stripe loop over it into the lanes, which then merge into the digest.
/// A seed other than 0 derives a secret of its own, on the stack.
fn long(
    seed: u64,
    bytes: &[u8],
    accumulate: impl FnOnce(&mut [u64; 8], &[u8; SECRET_BYTES]),
) -> u64 {
    let derived;
    let secret = if seed == 0 {
        &SECRET
    } else {
        derived = derive_secret(seed);
        &derived
    };
    let mut lanes = LANES;
    accumulate(&mut lanes, secret);
    let key = &secret[MERGE_KEY..];
    let mut acc = (bytes.len() as u64).wrapping_mul(PRIME64_1);
    for (i, pair) in lanes.as_chunks::<2>().0.iter().enumerate() {
        let key = &key[16 * i..];
        acc = acc.wrapping_add(fold_mul(pair[0] ^ le64(key), pair[1] ^ le64(&key[8..])));
    }
    avalanche(acc)
}

/// The secret of a seeded long input: the default one, `seed` added to
/// each even word and taken from each odd one.
fn derive_secret(seed: u64) -> [u8; SECRET_BYTES] {
    let mut derived = SECRET;
    for (i, word) in derived.as_chunks_mut::<8>().0.iter_mut().enumerate() {
        let w = u64::from_le_bytes(*word);
        let w = if i % 2 == 0 {
            w.wrapping_add(seed)
        } else {
            w.wrapping_sub(seed)
        };
        *word = w.to_le_bytes();
    }
    derived
}

/// The stripe loop, portable: every whole stripe of `bytes` but its last
/// byte, the lanes scrambled after each 16, then the stripe that ends at
/// its last byte.
fn accumulate(lanes: &mut [u64; 8], bytes: &[u8], secret: &[u8; SECRET_BYTES]) {
    let (rounds, tail) = bytes[..bytes.len() - 1].as_chunks::<ROUND>();
    for round in rounds {
        stripes(lanes, round, secret);
        scramble(lanes, &secret[SCRAMBLE_KEY..]);
    }
    stripes(lanes, tail, secret);
    stripe(
        lanes,
        &bytes[bytes.len() - STRIPE..],
        &secret[LAST_STRIPE_KEY..],
    );
}

/// Accumulates the whole stripes of `bytes`, the `i`th keyed by the
/// secret's 64 bytes from byte `8 i`.
fn stripes(lanes: &mut [u64; 8], bytes: &[u8], secret: &[u8; SECRET_BYTES]) {
    let keys = secret.windows(STRIPE).step_by(8);
    for (data, key) in bytes.as_chunks::<STRIPE>().0.iter().zip(keys) {
        stripe(lanes, data, key);
    }
}

/// Adds to each lane the product of its keyed word's two halves, and to
/// its neighbour the word itself.
fn stripe(lanes: &mut [u64; 8], data: &[u8], key: &[u8]) {
    let words = data.as_chunks::<8>().0.iter().zip(key.as_chunks::<8>().0);
    for (i, (word, key)) in words.enumerate().take(8) {
        let word = u64::from_le_bytes(*word);
        let keyed = word ^ u64::from_le_bytes(*key);
        lanes[i ^ 1] = lanes[i ^ 1].wrapping_add(word);
        lanes[i] = lanes[i].wrapping_add((keyed & 0xFFFF_FFFF).wrapping_mul(keyed >> 32));
    }
}

/// Folds each lane's high bits into its low ones, keys it and multiplies
/// it by a 32-bit prime.
fn scramble(lanes: &mut [u64; 8], key: &[u8]) {
    for (lane, key) in lanes.iter_mut().zip(key.as_chunks::<8>().0) {
        *lane = (*lane ^ *lane >> 47 ^ u64::from_le_bytes(*key)).wrapping_mul(PRIME32_1);
    }
}

/// The stripe loop in AVX2: the same steps as the portable [`accumulate`],
/// [`stripe`] and [`scramble`], four lanes to a register.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{LAST_STRIPE_KEY, PRIME32_1, ROUND, SCRAMBLE_KEY, SECRET_BYTES, STRIPE};
    use std::arch::x86_64::*;

    /// [`super::accumulate`] in AVX2. A caller outside this module must
    /// know that the CPU has AVX2 to call it, and says so with `unsafe`.
    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate(lanes: &mut [u64; 8], bytes: &[u8], secret: &[u8; SECRET_BYTES]) {
        let set =
            |l: &[u64]| _mm256_setr_epi64x(l[0] as i64, l[1] as i64, l[2] as i64, l[3] as i64);
        let mut acc = [set(&lanes[..4]), set(&lanes[4..])];
        let (rounds, tail) = bytes[..bytes.len() - 1].as_chunks::<ROUND>();
        for round in rounds {
            stripes(&mut acc, round, secret);
            scramble(&mut acc, &secret[SCRAMBLE_KEY..]);
        }
        stripes(&mut acc, tail, secret);
        stripe(
            &mut acc,
            &bytes[bytes.len() - STRIPE..],
            &secret[LAST_STRIPE_KEY..],
        );
        let [lo, hi] = acc;
        *lanes = [
            _mm256_extract_epi64::<0>(lo) as u64,
            _mm256_extract_epi64::<1>(lo) as u64,
            _mm256_extract_epi64::<2>(lo) as u64,
            _mm256_extract_epi64::<3>(lo) as u64,
            _mm256_extract_epi64::<0>(hi) as u64,
            _mm256_extract_epi64::<1>(hi) as u64,
            _mm256_extract_epi64::<2>(hi) as u64,
            _mm256_extract_epi64::<3>(hi) as u64,
        ];
    }

    #[target_feature(enable = "avx2")]
    fn stripes(acc: &mut [__m256i; 2], bytes: &[u8], secret: &[u8; SECRET_BYTES]) {
        let keys = secret.windows(STRIPE).step_by(8);
        for (data, key) in bytes.as_chunks::<STRIPE>().0.iter().zip(keys) {
            stripe(acc, data, key);
        }
    }

    #[target_feature(enable = "avx2")]
    fn stripe(acc: &mut [__m256i; 2], data: &[u8], key: &[u8]) {
        let halves = data.as_chunks::<32>().0.iter().zip(key.as_chunks::<32>().0);
        for (lanes, (data, key)) in acc.iter_mut().zip(halves) {
            let data = load(data);
            let keyed = _mm256_xor_si256(data, load(key));
            // Each lane's high half beside its low half, and each pair of
            // lanes swapped.
            let high = _mm256_shuffle_epi32::<0b00_11_00_01>(keyed);
            let swapped = _mm256_shuffle_epi32::<0b01_00_11_10>(data);
            let product = _mm256_mul_epu32(keyed, high);
            *lanes = _mm256_add_epi64(*lanes, _mm256_add_epi64(product, swapped));
        }
    }

    #[target_feature(enable = "avx2")]
    fn scramble(acc: &mut [__m256i; 2], key: &[u8]) {
        let prime = _mm256_set1_epi32(PRIME32_1 as i32);
        for (lanes, key) in acc.iter_mut().zip(key.as_chunks::<32>().0) {
            let folded = _mm256_xor_si256(*lanes, _mm256_srli_epi64::<47>(*lanes));
            let keyed = _mm256_xor_si256(folded, load(key));
            let low = _mm256_mul_epu32(keyed, prime);
            let high = _mm256_mul_epu32(_mm256_shuffle_epi32::<0b00_11_00_01>(keyed), prime);
            *lanes = _mm256_add_epi64(low, _mm256_slli_epi64::<32>(high));
        }
    }

    #[target_feature(enable = "avx2")]
    fn load(bytes: &[u8; 32]) -> __m256i {
        // SAFETY: `bytes` is 32 readable bytes, what an unaligned 256-bit
        // load reads.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }
}

/// The low eight bytes of `bytes`, little-endian.
fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.as_chunks::<8>().0[0])
}

/// The low four bytes of `bytes`, little-endian.
fn le32(bytes: &[u8]) -> u64 {
    u32::from_le_bytes(bytes.as_chunks::<4>().0[0]) as u64
}

/// The 128-bit product of `a` and `b`, its two halves xored.
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = a as u128 * b as u128;
    product as u64 ^ (product >> 64) as u64
}

/// Sixteen bytes of input against sixteen of the secret.
fn mix16(bytes: &[u8], secret: &[u8], seed: u64) -> u64 {
    let lo = le64(bytes) ^ le64(secret).wrapping_add(seed);
    let hi = le64(&bytes[8..]) ^ le64(&secret[8..]).wrapping_sub(seed);
    fold_mul(lo, hi)
}

fn avalanche(h: u64) -> u64 {
    let h = (h ^ h >> 37).wrapping_mul(PRIME_MX1);
    h ^ h >> 32
}

fn xxh64_avalanche(h: u64) -> u64 {
    let h = (h ^ h >> 33).wrapping_mul(PRIME64_2);
    let h = (h ^ h >> 29).wrapping_mul(PRIME64_3);
    h ^ h >> 32
}

fn rrmxmx(h: u64, len: u64) -> u64 {
    let h = (h ^ h.rotate_left(49) ^ h.rotate_left(24)).wrapping_mul(PRIME_MX2);
    let h = (h ^ (h >> 35).wrapping_add(len)).wrapping_mul(PRIME_MX2);
    h ^ h >> 28
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

/// One block's four columns while it fills: the scratch [`build_blocks`]
/// lays each block out from, kept by its caller and reused for every block.
#[derive(Debug, Default)]
pub struct BlockColumns {
    clustering: Vec<u8>,
    kind: Vec<u8>,
    payload_len: Vec<u8>,
    payload: Vec<u8>,
}

/// Appends one partition's cells to `data` as blocks, back to back, and
/// their index entries to `metas`, `offset` counted from the start of
/// `data`.
///
/// # Panics
/// If the cells are not strictly ascending by clustering key — the
/// memtable and the merge both guarantee it, so a violation is a bug.
pub fn build_blocks<'a>(
    cells: impl IntoIterator<Item = CellRef<'a>>,
    columns: &mut BlockColumns,
    data: &mut BytesMut,
    metas: &mut Vec<BlockMeta>,
) {
    let (mut first, mut last) = (0, None);
    let mut cells = cells.into_iter().peekable();
    while let Some(cell) = cells.next() {
        assert!(
            last < Some(cell.clustering),
            "cells must be strictly ascending"
        );
        last = Some(cell.clustering);
        if columns.kind.is_empty() {
            first = cell.clustering;
        }
        let BlockColumns {
            clustering,
            kind,
            payload_len,
            payload,
        } = columns;
        clustering.extend_from_slice(&cell.clustering.to_le_bytes());
        kind.push(cell.kind);
        payload_len.extend_from_slice(&(cell.payload.len() as u32).to_le_bytes());
        payload.extend_from_slice(cell.payload);
        let len = kind.len() * CELL_HEADER_BYTES + payload.len();
        if len >= BLOCK_TARGET_BYTES || cells.peek().is_none() {
            metas.push(BlockMeta {
                offset: data.len() as u64,
                len: len as u32,
                cells: kind.len() as u32,
                crc: 0,
                first_clustering: first,
                last_clustering: cell.clustering,
            });
            for column in [clustering, kind, payload_len, payload] {
                data.extend_from_slice(column);
                column.clear();
            }
        }
    }
}

/// A block's four columns: every clustering key, every kind, every payload
/// length, and the payloads back to back.
struct Columns<'a> {
    keys: &'a [[u8; 8]],
    kinds: &'a [u8],
    lens: &'a [[u8; 4]],
    payloads: &'a [u8],
}

/// The columns of the `meta.cells` cells of `block`, a block of run
/// `generation`, sliced by their bounds alone: no payload length is read.
/// `Err` (`InvalidData`) when the three fixed-width columns do not fit the
/// block.
fn columns<'a>(generation: u64, meta: &BlockMeta, block: &'a [u8]) -> io::Result<Columns<'a>> {
    let cells = meta.cells as usize;
    let columns = block.split_at_checked(cells * 8).and_then(|(keys, rest)| {
        let (kinds, rest) = rest.split_at_checked(cells)?;
        let (lens, payloads) = rest.split_at_checked(cells * 4)?;
        Some(Columns {
            keys: keys.as_chunks::<8>().0,
            kinds,
            lens: lens.as_chunks::<4>().0,
            payloads,
        })
    });
    columns.ok_or_else(|| malformed(generation, meta))
}

/// The one error of a block whose columns disagree with its [`BlockMeta`].
fn malformed(generation: u64, meta: &BlockMeta) -> io::Error {
    bad_data(format!(
        "run {generation}: block at offset {} does not hold the {} cells its index says",
        meta.offset, meta.cells
    ))
}

/// The column check: `Ok` when the columns of `meta.cells` cells fit
/// `block`, a block of run `generation`, and their payload lengths add up
/// to exactly the bytes left for payloads; `Err` (`InvalidData`)
/// otherwise. It reads every payload length, so it runs once, where a
/// block enters: when a heap run is sealed (`RunBuilder::finish`), and on
/// a file run's cache miss, after the checksum and before the block is
/// folded or cached (`DiskBlocks::read_blocks`). A cache hit is a block
/// that passed it on its way in.
pub fn check_block(generation: u64, meta: &BlockMeta, block: &[u8]) -> io::Result<()> {
    let Columns { lens, payloads, .. } = columns(generation, meta, block)?;
    let sum: u64 = lens.iter().map(|len| u32::from_le_bytes(*len) as u64).sum();
    if sum != payloads.len() as u64 {
        return Err(malformed(generation, meta));
    }
    Ok(())
}

/// Folds one block of run `generation` into `visit`: the cells in
/// `from..=to`, in order, each a borrow of its payload where it lies.
/// Charges the receipt per cell walked, the first cell past `to`
/// included, and returns `Ok(false)` at that cell, which ends the scan.
/// There is no seek inside a block: the walk starts at its first cell.
///
/// The block must have passed [`check_block`] where it entered. A block
/// that did not may be refused (`InvalidData`, as the check words it)
/// part-way through, when a payload length overruns the payloads; it is
/// never read out of bounds.
pub fn fold_block(
    generation: u64,
    meta: &BlockMeta,
    block: &[u8],
    (from, to): (ClusteringKey, ClusteringKey),
    receipt: &mut ReadReceipt,
    visit: &mut impl FnMut(CellRef<'_>),
) -> io::Result<bool> {
    let Columns {
        keys,
        kinds,
        lens,
        payloads,
    } = columns(generation, meta, block)?;
    let mut start = 0;
    for ((key, &kind), len) in keys.iter().zip(kinds).zip(lens) {
        let (clustering, len) = (u64::from_le_bytes(*key), u32::from_le_bytes(*len) as usize);
        receipt.cells_scanned += 1;
        receipt.bytes_read += (CELL_HEADER_BYTES + len) as u64;
        if clustering > to {
            return Ok(false);
        }
        let payload = payloads
            .get(start..start + len)
            .ok_or_else(|| malformed(generation, meta))?;
        start += len;
        if clustering >= from {
            visit(CellRef {
                clustering,
                kind,
                payload,
            });
        }
    }
    Ok(true)
}

/// Counts the cells of one whole block of run `generation` into `kinds`,
/// one counter per kind: what an aggregation needs of every block but a
/// partition's last, read a column at a time. It reads the kinds column
/// and nothing else, and bills the receipt in one step with what folding
/// every cell of the block would: `cells_scanned` by its cells and
/// `bytes_read` by its length, which [`check_block`], passed where the
/// block entered, showed is exactly their encoded sizes.
///
/// `Err` (`InvalidData`), before any cell is counted or charged, when the
/// columns do not fit the block.
pub fn tally_block(
    generation: u64,
    meta: &BlockMeta,
    block: &[u8],
    receipt: &mut ReadReceipt,
    kinds: &mut [u64; 256],
) -> io::Result<()> {
    let column = columns(generation, meta, block)?.kinds;
    for &kind in column {
        kinds[kind as usize] += 1;
    }
    receipt.cells_scanned += column.len() as u64;
    receipt.bytes_read += block.len() as u64;
    Ok(())
}

/// The last cell of a block of run `generation` (`None` for a block of no
/// cells): what an aggregation reads of a partition's final block past
/// its kinds. Charges nothing. `Err` (`InvalidData`) when the columns do
/// not fit the block or the last payload length overruns the payloads.
pub fn last_cell<'a>(
    generation: u64,
    meta: &BlockMeta,
    block: &'a [u8],
) -> io::Result<Option<CellRef<'a>>> {
    let Columns {
        keys,
        kinds,
        lens,
        payloads,
    } = columns(generation, meta, block)?;
    let Some(((key, &kind), len)) = keys.last().zip(kinds.last()).zip(lens.last()) else {
        return Ok(None);
    };
    let start = payloads
        .len()
        .checked_sub(u32::from_le_bytes(*len) as usize);
    let start = start.ok_or_else(|| malformed(generation, meta))?;
    Ok(Some(CellRef {
        clustering: u64::from_le_bytes(*key),
        kind,
        payload: &payloads[start..],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Cell;

    #[test]
    fn fnv1a_is_what_version_1_sealed_with() {
        // So the refusal tests seal their old-format files with what
        // version 1 really used.
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn chaining_seeds_the_second_part_with_the_first_digest() {
        let (a, b) = (&b"len+seq prefix"[..], &b"record body"[..]);
        let chained = checksum64(checksum64(0, a), b);
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

    /// `cells` laid out as one partition's blocks after `data`'s bytes.
    fn blocks_of(cells: &[Cell], data: &mut BytesMut) -> Vec<BlockMeta> {
        let mut metas = Vec::new();
        let refs = cells.iter().map(Cell::as_cell_ref);
        build_blocks(refs, &mut BlockColumns::default(), data, &mut metas);
        metas
    }

    #[test]
    fn blocks_close_at_cell_boundaries() {
        // 46-byte cells: ⌈4096 / 46⌉ = 90 cells close a block at 4140 B.
        let cells: Vec<Cell> = (0..200u64).map(|c| Cell::synthetic(c, 0)).collect();
        let mut data = BytesMut::new();
        let blocks = blocks_of(&cells, &mut data);
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
    fn a_block_is_laid_out_column_by_column() {
        let cells = [
            Cell::new(7, 1, vec![0xA1, 0xA2]),
            Cell::new(9, 2, Vec::new()),
            Cell::new(12, 3, vec![0xC1, 0xC2, 0xC3]),
        ];
        let mut data = BytesMut::new();
        let blocks = blocks_of(&cells, &mut data);
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].len, blocks[0].cells), (3 * 13 + 5, 3));
        let mut want = Vec::new();
        for key in [7u64, 9, 12] {
            want.extend_from_slice(&key.to_le_bytes());
        }
        want.extend_from_slice(&[1, 2, 3]);
        for len in [2u32, 0, 3] {
            want.extend_from_slice(&len.to_le_bytes());
        }
        want.extend_from_slice(&[0xA1, 0xA2, 0xC1, 0xC2, 0xC3]);
        assert_eq!(&data[..], &want[..]);
    }

    /// Folds `block` whole, returning the verdict, the cells visited and
    /// the receipt.
    fn fold(meta: &BlockMeta, block: &[u8]) -> (io::Result<bool>, Vec<Cell>, ReadReceipt) {
        let (mut visited, mut r) = (Vec::new(), ReadReceipt::default());
        let mut visit = |cell: CellRef<'_>| {
            visited.push(Cell::new(cell.clustering, cell.kind, cell.payload.to_vec()))
        };
        let verdict = fold_block(1, meta, block, (0, u64::MAX), &mut r, &mut visit);
        (verdict, visited, r)
    }

    #[test]
    fn fold_returns_each_cell_and_bills_its_encoded_size() {
        let cells: Vec<Cell> = (0..40u64)
            .map(|c| Cell::new(c * 3, (c % 5) as u8, vec![c as u8; c as usize % 17]))
            .collect();
        let mut data = BytesMut::new();
        let blocks = blocks_of(&cells, &mut data);
        assert_eq!(blocks.len(), 1);
        let (verdict, visited, r) = fold(&blocks[0], &data);
        assert!(verdict.expect("a sound block folds"));
        assert_eq!(visited, cells);
        assert_eq!(r.cells_scanned, 40);
        assert_eq!(r.bytes_read, data.len() as u64);
    }

    #[test]
    fn tally_counts_kinds_and_bills_what_the_fold_bills() {
        let cells: Vec<Cell> = (0..40u64)
            .map(|c| Cell::new(c * 3, (c % 5) as u8, vec![c as u8; c as usize % 17]))
            .collect();
        let mut data = BytesMut::new();
        let meta = blocks_of(&cells, &mut data)[0];
        let (verdict, visited, folded) = fold(&meta, &data);
        verdict.expect("a sound block folds");
        let (mut kinds, mut tallied) = ([0u64; 256], ReadReceipt::default());
        tally_block(1, &meta, &data, &mut tallied, &mut kinds).expect("tallies");
        assert_eq!(tallied, folded);
        let last = last_cell(1, &meta, &data).expect("has columns");
        assert_eq!(last, visited.last().map(Cell::as_cell_ref));
        let mut want = [0u64; 256];
        visited
            .iter()
            .for_each(|cell| want[cell.kind as usize] += 1);
        assert_eq!(kinds, want);
        // A block of no cells counts nothing and has no last cell.
        let empty = BlockMeta {
            len: 0,
            cells: 0,
            ..meta
        };
        let mut r = ReadReceipt::default();
        tally_block(1, &empty, &[], &mut r, &mut kinds).expect("tallies");
        assert_eq!(r, ReadReceipt::default());
        assert_eq!(last_cell(1, &empty, &[]).expect("has columns"), None);
        assert_eq!(kinds, want);
    }

    #[test]
    fn check_refuses_a_block_whose_columns_disagree_with_its_meta() {
        let cells: Vec<Cell> = (0..10u64).map(|c| Cell::synthetic(c, 0)).collect();
        let mut data = BytesMut::new();
        let meta = blocks_of(&cells, &mut data)[0];
        check_block(1, &meta, &data).expect("a sound block passes");
        let refused = |meta: &BlockMeta, block: &[u8]| {
            let err = check_block(1, meta, block).expect_err("must refuse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("cells its index says"), "{err}");
        };
        // Too many cells for the bytes, too few, and a payload length that
        // no longer adds up.
        refused(
            &BlockMeta {
                cells: 1_000,
                ..meta
            },
            &data,
        );
        refused(&BlockMeta { cells: 9, ..meta }, &data);
        let mut patched = data.to_vec();
        patched[10 * 9] += 1;
        refused(&meta, &patched);
        refused(&meta, &data[..data.len() - 1]);
    }

    #[test]
    fn the_kernels_refuse_columns_that_overrun_and_never_read_past_them() {
        let cells: Vec<Cell> = (0..10u64).map(|c| Cell::synthetic(c, 0)).collect();
        let mut data = BytesMut::new();
        let meta = blocks_of(&cells, &mut data)[0];
        let refused = |verdict: io::Result<()>| {
            let err = verdict.expect_err("must refuse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("cells its index says"), "{err}");
        };
        // Columns that do not fit: refused before anything is counted or
        // charged.
        let over = BlockMeta {
            cells: 1_000,
            ..meta
        };
        let (mut kinds, mut r) = ([0u64; 256], ReadReceipt::default());
        refused(tally_block(1, &over, &data, &mut r, &mut kinds));
        assert_eq!((kinds, r), ([0; 256], ReadReceipt::default()));
        refused(last_cell(1, &over, &data).map(drop));
        let (verdict, visited, r) = fold(&over, &data);
        refused(verdict.map(drop));
        assert_eq!((visited.len(), r), (0, ReadReceipt::default()));
        // A last payload length past the payloads, which only the check
        // sees as a sum: the fold stops at that cell, and the last cell is
        // refused.
        let mut patched = data.to_vec();
        patched[10 * 9 + 9 * 4 + 3] = 1;
        let (verdict, visited, _) = fold(&meta, &patched);
        refused(verdict.map(drop));
        assert_eq!(visited.len(), 9);
        refused(last_cell(1, &meta, &patched).map(drop));
    }

    #[test]
    fn oversized_cell_gets_its_own_block() {
        let big = Cell::new(5, 0, vec![0xAB; 3 * BLOCK_TARGET_BYTES]);
        let mut data = BytesMut::new();
        data.put_slice(&[0; 100]);
        let blocks = blocks_of(&[Cell::synthetic(1, 0), big], &mut data);
        // First block closes only when the big cell pushes it past target.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].cells, 2);
        assert_eq!(blocks[0].offset, 100);
        assert!(blocks[0].len as usize > 3 * BLOCK_TARGET_BYTES);
    }

    #[test]
    fn empty_partition_yields_no_blocks() {
        let mut data = BytesMut::new();
        assert!(blocks_of(&[], &mut data).is_empty());
        assert!(data.is_empty());
    }
}
