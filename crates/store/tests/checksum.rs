//! `block::checksum64` is XXH3-64: bit-exact with libxxhash 0.8 on every
//! digest of `xxh3_vectors.txt` (which `xxh3_vectors.py` prints from the
//! library itself) through every stripe loop this CPU has, each vector
//! loop equal to the portable one at every length, and every bit of a
//! block guarded.

use kvs_store::block::{checksum64, checksum64_avx2, checksum64_avx512, checksum64_portable};

const VECTORS: &str = include_str!("xxh3_vectors.txt");

/// The seeds of the table's columns, in order.
const SEEDS: [u64; 4] = [0, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15];

/// The first `len` bytes of xxHash's self-test buffer, as the generator
/// makes them.
fn sanity_buffer(len: usize) -> Vec<u8> {
    let mut gen: u64 = 2_654_435_761;
    (0..len)
        .map(|_| {
            let byte = (gen >> 56) as u8;
            gen = gen.wrapping_mul(11_400_714_785_074_694_797);
            byte
        })
        .collect()
}

/// SplitMix64: seeds and bytes no test picked by hand.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ *state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ z >> 31
}

fn hex(field: &str) -> u64 {
    u64::from_str_radix(field, 16).unwrap_or_else(|e| panic!("{field:?}: {e}"))
}

/// A way to compute the checksum: `None` where this CPU cannot.
type Checksum = fn(u64, &[u8]) -> Option<u64>;

/// Every way to compute the checksum, by name: the dispatching entry
/// point, the portable code and each vector loop through its own.
const CHECKSUMS: [(&str, Checksum); 4] = [
    ("checksum64", |seed, bytes| Some(checksum64(seed, bytes))),
    ("portable", |seed, bytes| {
        Some(checksum64_portable(seed, bytes))
    }),
    ("AVX-512F", checksum64_avx512),
    ("AVX2", checksum64_avx2),
];

/// The ways of [`CHECKSUMS`] this CPU has; prints a line naming each it
/// lacks.
fn every_checksum() -> Vec<(&'static str, Checksum)> {
    let has = |&(name, checksum): &(&str, Checksum)| {
        let has = checksum(0, &[]).is_some();
        if !has {
            eprintln!("skipped: this CPU has no {name}");
        }
        has
    };
    CHECKSUMS.into_iter().filter(has).collect()
}

#[test]
fn equals_libxxhash_on_every_committed_vector() {
    let buf = sanity_buffer(10_007);
    let checksums = every_checksum();
    let (mut lengths, mut chains) = (0, 0);
    for line in VECTORS.lines().filter(|line| !line.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["chain", a, b, digest] = fields[..] {
            let (a, b): (usize, usize) = (a.parse().expect("a_len"), b.parse().expect("b_len"));
            let (first, second) = (&buf[..a], &buf[a..a + b]);
            for (name, hash) in &checksums {
                let chained = hash(hash(0, first).expect(name), second);
                assert_eq!(chained, Some(hex(digest)), "{name}, chain {a} + {b}");
            }
            chains += 1;
            continue;
        }
        let [len, digests @ ..] = &fields[..] else {
            panic!("empty line in the table");
        };
        let len: usize = len.parse().expect("len");
        assert_eq!(digests.len(), SEEDS.len(), "{line}");
        for (&seed, &digest) in SEEDS.iter().zip(digests) {
            for (name, hash) in &checksums {
                let at = format!("{name}, len {len} seed {seed:#x}");
                assert_eq!(hash(seed, &buf[..len]), Some(hex(digest)), "{at}");
            }
        }
        lengths += 1;
    }
    // 0..=300, 1000..=1100, 4090..=4200 and 10 007.
    assert_eq!((lengths, chains), (301 + 101 + 111 + 1, 7));
}

/// `kernel`, the vector loop named `name`, equals the portable code at
/// every length 0..=8 192, under seed 0 at even lengths and a random seed
/// at odd ones; prints a line and compares nothing where this CPU lacks
/// the loop.
fn equals_portable_at_every_length(name: &str, kernel: Checksum) {
    if kernel(0, &[]).is_none() {
        eprintln!("skipped: this CPU has no {name}, so its loop is not compared");
        return;
    }
    let mut state = 0x5EED;
    let bytes: Vec<u8> = (0..8_192).map(|_| splitmix(&mut state) as u8).collect();
    for len in 0..=bytes.len() {
        let seed = if len % 2 == 0 {
            0
        } else {
            splitmix(&mut state)
        };
        let (input, at) = (&bytes[..len], format!("{name}, len {len} seed {seed:#x}"));
        assert_eq!(
            kernel(seed, input),
            Some(checksum64_portable(seed, input)),
            "{at}"
        );
    }
}

#[test]
fn avx2_equals_portable_at_every_length() {
    equals_portable_at_every_length("AVX2", checksum64_avx2);
}

#[test]
fn avx512_equals_portable_at_every_length() {
    equals_portable_at_every_length("AVX-512F", checksum64_avx512);
}

#[test]
fn every_single_bit_flip_of_a_block_moves_the_digest() {
    let mut state = 0xB10C;
    let mut block: Vec<u8> = (0..4_096).map(|_| splitmix(&mut state) as u8).collect();
    let sealed = checksum64(0, &block);
    for bit in 0..block.len() * 8 {
        block[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(checksum64(0, &block), sealed, "bit {bit}");
        block[bit / 8] ^= 1 << (bit % 8);
    }
    assert_eq!(checksum64(0, &block), sealed);
}
