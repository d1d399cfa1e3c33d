//! The partition index's lookup against a sorted map.
//!
//! A run's index searches by each key's first 8 bytes as one `u64` (its
//! head) and reads key bytes only where heads tie. Ties are what the key
//! sets here are made of: a suffix of 0 to 4 bytes over a three-letter
//! alphabet (`0x00`, `0x01`, `a`) after one of three prefixes — none,
//! "ab", or the 8 bytes "abcdefgh" — so most keys are shorter than 8
//! bytes or share their first 8 with keys of their own length. Every set
//! holds the empty key, and each key beside itself plus a `0x00` byte
//! ("ab" and "ab\0" have equal heads). Some of the keys are loaded, one
//! partition each, and every key is probed: a loaded key must find its
//! own partition, any other none. The same partitions are probed as a
//! heap run and as a file run reopened from disk, whose index is parsed
//! back from the file.
//!
//! The bloom filter stands in front of the index, so the runs are built
//! at the highest false-positive rate it takes (0.5): about half of the
//! absent probes still reach the index search.

use kvs_store::{
    Cell, DurableOptions, DurableTable, FsyncPolicy, PartitionKey, Table, TableOptions, Tally,
    TempDir,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const BLOOM_FP_RATE: f64 = 0.5;

/// Every key of a case, and which of them are loaded, each with the
/// partition number it is loaded as.
fn key_sets(raw: &[(u8, Vec<u8>)], loaded: &[bool]) -> (BTreeSet<Vec<u8>>, BTreeMap<Vec<u8>, u64>) {
    const PREFIXES: [&[u8]; 3] = [b"", b"ab", b"abcdefgh"];
    const ALPHABET: [u8; 3] = [0x00, 0x01, b'a'];
    let mut keys = BTreeSet::from([Vec::new()]);
    for (prefix, suffix) in raw {
        let mut key = PREFIXES[*prefix as usize].to_vec();
        key.extend(suffix.iter().map(|&b| ALPHABET[b as usize]));
        keys.insert([&key[..], &[0x00]].concat());
        keys.insert(key);
    }
    let held = keys.iter().zip(loaded.iter().cycle()).filter(|(_, &l)| l);
    let held = held
        .zip(0..)
        .map(|((key, _), p)| (key.clone(), p))
        .collect();
    (keys, held)
}

/// Partition `p` of key `key`: `p + 1` cells, the last carrying the key.
fn partition(key: &[u8], p: u64) -> (PartitionKey, Vec<Cell>) {
    let mut cells: Vec<Cell> = (0..p).map(|c| Cell::synthetic(c, (c % 3) as u8)).collect();
    cells.push(Cell::new(p, 7, key.to_vec()));
    (PartitionKey::new(key), cells)
}

/// Reads partition `key` back as what identifies it: its cell count and
/// its last cell's payload, `None` when the read found no partition.
fn found(
    aggregate: impl FnOnce(&PartitionKey, &mut Tally) -> kvs_store::ReadReceipt,
    key: &[u8],
) -> (Option<(u64, Vec<u8>)>, u64) {
    let mut tally = Tally::default();
    let receipt = aggregate(&PartitionKey::new(key), &mut tally);
    let hit = tally
        .last()
        .map(|last| (tally.cells(), last.payload.to_vec()));
    (hit, receipt.partition_index_seeks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every probe of a heap run and of a file run finds exactly the
    /// partition a sorted map holds under that key, or none.
    #[test]
    fn index_lookup_matches_a_sorted_map(
        raw in proptest::collection::vec((0u8..3, proptest::collection::vec(0u8..3, 0..5)), 0..40),
        loaded in proptest::collection::vec(any::<bool>(), 1..8),
    ) {
        let (keys, held) = key_sets(&raw, &loaded);
        let input: Vec<(PartitionKey, Vec<Cell>)> =
            held.iter().map(|(key, &p)| partition(key, p)).collect();
        let want = |key: &[u8]| held.get(key).map(|&p| (p + 1, key.to_vec()));

        let mut heap = Table::new(TableOptions {
            bloom_fp_rate: BLOOM_FP_RATE,
            ..TableOptions::default()
        });
        heap.ingest_sorted(&input);
        let dir = TempDir::new("prop-index");
        let opts = DurableOptions {
            bloom_fp_rate: BLOOM_FP_RATE,
            fsync: FsyncPolicy::Never,
            ..DurableOptions::default()
        };
        let (mut t, _) = DurableTable::open(dir.path(), opts.clone()).expect("open");
        t.ingest_sorted(&input).expect("ingest");
        drop(t);
        let (mut file, _) = DurableTable::open(dir.path(), opts).expect("reopen");

        let mut absent_searched = 0;
        for key in &keys {
            let (in_heap, seeks) = found(|pk, tally| heap.aggregate(pk, tally), key);
            prop_assert_eq!(&in_heap, &want(key), "heap run, key {:?}", key);
            let on_disk = |pk: &PartitionKey, tally: &mut Tally| {
                file.aggregate(pk, tally).expect("a sound file reads")
            };
            let (in_file, _) = found(on_disk, key);
            prop_assert_eq!(&in_file, &want(key), "file run, key {:?}", key);
            absent_searched += u64::from(in_heap.is_none()) * seeks;
        }
        // The filter let some absent keys through to the search, unless
        // there was no run or too few of them to expect any.
        let absent = keys.len() - held.len();
        let expected = !held.is_empty() && absent >= 12;
        prop_assert!(absent_searched > 0 || !expected, "{} absent keys, none searched", absent);
    }
}
