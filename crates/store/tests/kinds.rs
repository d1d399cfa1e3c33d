//! `block::count_kinds`, the aggregation read's kinds count, equals the
//! byte-at-a-time `count_kinds_portable` in every counter and in the kind
//! bound: for every column length 0..=320 and 4 096, placed where its last
//! vector can be read in place and where it cannot, over alphabets on both
//! sides of the vector count's limit of 16 kinds.

use kvs_store::block::{count_kinds, count_kinds_portable};

/// SplitMix64: kinds no test picked by hand.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ *state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ z >> 31
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// A column of `n` kinds, each `pick` of a random word.
fn column(n: usize, seed: u64, pick: Pick) -> Vec<u8> {
    let mut state = seed;
    (0..n).map(|_| pick(splitmix(&mut state))).collect()
}

/// How an alphabet picks a cell's kind from a random word.
type Pick = fn(u64) -> u8;

/// The alphabets: their names and how each picks a cell's kind.
const ALPHABETS: [(&str, Pick); 7] = [
    ("one kind", |_| 2),
    ("kinds 0..4", |r| (r % 4) as u8),
    ("kinds 0..=15", |r| (r % 16) as u8),
    ("kinds 0..=16", |r| (r % 17) as u8),
    ("kind 15 alone", |_| 15),
    ("kinds 0..=255", |r| r as u8),
    ("all 0xFF", |_| 0xFF),
];

/// Counts `kinds` placed at `start` of a buffer with `after` bytes past
/// it, each with `count_kinds` and the portable count, from counters that
/// already hold something, and asserts the two agree. The bytes around
/// the column are kinds of the vector count's alphabet that a lane mask
/// left out would count or take for the greatest.
fn agree(kinds: &[u8], start: usize, after: usize, what: &str) {
    let mut state = kinds.len() as u64 ^ (after as u64) << 32;
    let mut around = || (splitmix(&mut state) % 16) as u8;
    let mut bytes: Vec<u8> = (0..start).map(|_| around()).collect();
    bytes.extend_from_slice(kinds);
    bytes.extend((0..after).map(|_| around()));
    let column = start..start + kinds.len();
    let before: [u64; 256] = std::array::from_fn(|k| k as u64 * 3);
    let (mut counted, mut want) = (before, before);
    let bound = count_kinds(&bytes, column.clone(), &mut counted);
    let want_bound = count_kinds_portable(&bytes[column], &mut want);
    assert_eq!(bound, want_bound, "bound, {what}");
    assert_eq!(counted, want, "counts, {what}");
    let greatest = kinds.iter().max().map_or(0, |&kind| kind as usize + 1);
    assert_eq!(bound, greatest, "bound of the column, {what}");
    let added = counted.iter().zip(before).map(|(now, was)| now - was);
    assert_eq!(added.sum::<u64>(), kinds.len() as u64, "{what}");
}

#[test]
fn the_vector_count_equals_the_portable_one() {
    if !avx2() {
        println!("no AVX2 or POPCNT on this CPU: comparing portable against portable");
    }
    let lengths = (0..=320).chain([4_096]);
    for n in lengths {
        for (seed, (name, pick)) in ALPHABETS.into_iter().enumerate() {
            let kinds = column(n, seed as u64, pick);
            // The last vector read in place: room for it past the column,
            // at an offset of 8 n as in a block, and at an odd one.
            let tail = n.next_multiple_of(32) - n;
            for start in [8 * n, 3] {
                agree(
                    &kinds,
                    start,
                    tail,
                    &format!("{name}, {n} cells at {start}, fits"),
                );
                agree(
                    &kinds,
                    start,
                    tail + 37,
                    &format!("{name}, {n} cells at {start}, room"),
                );
            }
            // No room for it: the column ends a vector's lanes short of
            // the buffer's end, or at it.
            if tail > 0 {
                agree(
                    &kinds,
                    8 * n,
                    tail - 1,
                    &format!("{name}, {n} cells, one short"),
                );
            }
            agree(&kinds, 8 * n, 0, &format!("{name}, {n} cells, at the end"));
        }
    }
}

#[test]
fn a_column_at_the_limit_is_counted_by_either_path() {
    // A block of one version cell among data cells: kind 0xFF past a
    // handful of small kinds, and the same with 15, the greatest kind the
    // vector count takes.
    for top in [15u8, 16, 0xFF] {
        let mut kinds = column(89, 7, |r| (r % 4) as u8);
        kinds[88] = top;
        agree(&kinds, 8 * 89, 4 * 89, &format!("top kind {top}"));
        kinds[0] = top;
        kinds[88] = 0;
        agree(&kinds, 8 * 89, 4 * 89, &format!("top kind {top} first"));
    }
}
