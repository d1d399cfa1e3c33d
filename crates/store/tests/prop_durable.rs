//! Property tests for the durable tier: WAL damage handling, on-disk
//! SSTable round-trips (including >64 KiB rows), and crash/restart
//! schedules checked against a fault-free oracle.

use bytes::BytesMut;
use kvs_store::wal::{replay_segment, FsyncPolicy, WalTail, WalWriter};
use kvs_store::{Cell, CrashPoint, DurableOptions, DurableTable, PartitionKey, TempDir};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn small_opts(flush_every_cells: usize) -> DurableOptions {
    DurableOptions {
        memtable_flush_bytes: 46 * flush_every_cells.max(1),
        compaction_threshold: 3,
        fsync: FsyncPolicy::Never, // durability windows don't matter here
        ..Default::default()
    }
}

/// A durable table at `dir` holding `input` as its one SSTable
/// (generation 1), reopened from disk, with a cache of `cache_blocks`.
fn reopened_with(
    dir: &std::path::Path,
    input: &[(PartitionKey, Vec<Cell>)],
    cache_blocks: usize,
) -> DurableTable {
    let opts = DurableOptions {
        block_cache_blocks: cache_blocks,
        ..small_opts(1 << 20)
    };
    let (mut t, _) = DurableTable::open(dir, opts.clone()).expect("open");
    t.ingest_sorted(input).expect("ingest");
    drop(t);
    DurableTable::open(dir, opts).expect("reopen").0
}

/// Raw generated partition data: `(key bytes, [(clustering, kind, payload len)])`.
type RawPartitions = Vec<(Vec<u8>, Vec<(u64, u8, usize)>)>;

/// Sorts and deduplicates raw generated data into the ascending
/// `(partition, cells)` shape `write_sst` requires (newest clustering
/// entry wins on duplicates, matching memtable semantics).
fn build_partitions(raw: RawPartitions) -> Vec<(PartitionKey, Vec<Cell>)> {
    let mut merged: BTreeMap<Vec<u8>, BTreeMap<u64, Cell>> = BTreeMap::new();
    for (key, cells) in raw {
        let row = merged.entry(key).or_default();
        for (clustering, kind, payload_len) in cells {
            row.insert(
                clustering,
                Cell::new(clustering, kind, vec![kind; payload_len]),
            );
        }
    }
    merged
        .into_iter()
        .map(|(key, row)| (PartitionKey::new(key), row.into_values().collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a WAL segment at ANY byte offset replays exactly the
    /// records whose bytes fully survived, and reports a torn tail unless
    /// the cut landed on a record boundary.
    #[test]
    fn wal_truncation_replays_exact_prefix(
        n in 1u64..30,
        cut_back in 1usize..200,
    ) {
        let tmp = TempDir::new("prop-wal-torn");
        let mut w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Never).expect("create");
        let mut boundaries = vec![w.bytes()];
        for i in 0..n {
            w.append(&PartitionKey::from_id(i % 4), &Cell::synthetic(i, (i % 3) as u8))
                .expect("append");
            boundaries.push(w.bytes());
        }
        let path = w.path().to_path_buf();
        drop(w);
        let full = std::fs::read(&path).expect("read");
        let cut = full.len().saturating_sub(cut_back % full.len().max(1));
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let replay = replay_segment(&path).expect("replay");
        // Exactly the records wholly below the cut survive.
        let expect = boundaries
            .iter()
            .filter(|&&b| b <= cut as u64)
            .count()
            .saturating_sub(1);
        prop_assert_eq!(replay.records.len(), expect.min(n as usize));
        for (i, rec) in replay.records.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64);
            prop_assert_eq!(&rec.cell, &Cell::synthetic(i as u64, (i % 3) as u8));
        }
        if cut < 16 {
            prop_assert!(matches!(replay.tail, WalTail::Torn { .. }));
        } else if boundaries.contains(&(cut as u64)) {
            prop_assert_eq!(replay.tail, WalTail::Clean);
        } else {
            prop_assert!(matches!(replay.tail, WalTail::Torn { .. }));
        }
    }

    /// Flipping ANY bit anywhere in a WAL segment never yields a wrong
    /// record: replay returns a clean prefix of what was written and
    /// reports the damage.
    #[test]
    fn wal_bit_flip_never_fabricates_records(
        n in 1u64..20,
        byte_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let tmp = TempDir::new("prop-wal-flip");
        let mut w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Never).expect("create");
        for i in 0..n {
            w.append(&PartitionKey::from_id(i), &Cell::synthetic(i, 0)).expect("append");
        }
        let path = w.path().to_path_buf();
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read");
        let pos = (byte_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("write");
        let replay = replay_segment(&path).expect("replay");
        // Whatever replays is a verbatim prefix of what was written —
        // never a fabricated or altered record.
        for (i, rec) in replay.records.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64);
            prop_assert_eq!(&rec.key, &PartitionKey::from_id(i as u64));
            prop_assert_eq!(&rec.cell, &Cell::synthetic(i as u64, 0));
        }
        if pos < 5 {
            // Magic or version damage rejects the whole segment.
            prop_assert!(replay.records.is_empty());
            prop_assert!(matches!(replay.tail, WalTail::Corrupt { valid_bytes: 0 }));
        } else if pos < 8 {
            // Reserved header bytes carry no data; the record stream is
            // untouched and replays in full.
            prop_assert_eq!(replay.records.len(), n as usize);
            prop_assert_eq!(replay.tail, WalTail::Clean);
        } else if pos < 16 {
            // A damaged segment seq replays cleanly here but is caught by
            // recovery's header-vs-filename check.
            prop_assert_eq!(replay.records.len(), n as usize);
            prop_assert_ne!(replay.header_seq, Some(1));
        } else {
            // Damage inside the record stream: the checksum drops at
            // least one record and reports the damage.
            prop_assert!(replay.records.len() < n as usize);
            prop_assert!(replay.tail != WalTail::Clean);
        }
    }

    /// On-disk SSTables round-trip arbitrary keys and values — read back
    /// whole and by range after a reopen — and range reads agree with
    /// filtered point reads.
    #[test]
    fn sst_file_roundtrips_arbitrary_data(
        raw in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..20),
                proptest::collection::vec((any::<u64>(), any::<u8>(), 0usize..120), 1..40),
            ),
            1..8,
        ),
        lo in any::<u64>(),
        span in 0u64..u64::MAX / 2,
    ) {
        let input = build_partitions(raw);
        let tmp = TempDir::new("prop-sst");
        let mut t = reopened_with(tmp.path(), &input, 32);
        let hi = lo.saturating_add(span);
        for (pk, cells) in &input {
            let (got, r) = t.get(pk).expect("get");
            prop_assert_eq!(&got, cells);
            prop_assert_eq!(r.cells_returned, cells.len() as u64);
            let (ranged, _) = t.get_range(pk, lo..=hi).expect("range");
            let filtered: Vec<Cell> = cells
                .iter()
                .filter(|c| c.clustering >= lo && c.clustering <= hi)
                .cloned()
                .collect();
            prop_assert_eq!(ranged, filtered);
        }
    }

    /// Rows past the 64 KiB column-index threshold — including single
    /// cells bigger than a block — survive the disk round-trip, and are
    /// read as column-indexed exactly when they are past it.
    #[test]
    fn sst_file_roundtrips_oversized_rows(
        payloads in proptest::collection::vec(1usize..150_000, 1..5),
    ) {
        let tmp = TempDir::new("prop-sst-big");
        let cells: Vec<Cell> = payloads
            .iter()
            .enumerate()
            .map(|(i, &plen)| Cell::new(i as u64, (i % 7) as u8, vec![i as u8; plen]))
            .collect();
        let input = vec![(PartitionKey::from_id(1), cells)];
        let total: usize = input[0].1.iter().map(Cell::encoded_len).sum();
        let mut t = reopened_with(tmp.path(), &input, 8);
        let (got, r) = t.get(&PartitionKey::from_id(1)).expect("get");
        prop_assert_eq!(&got, &input[0].1);
        prop_assert_eq!(r.used_column_index, total > 64 * 1024);
    }

    /// Arbitrary write schedules with interleaved flushes survive a
    /// restart bit-for-bit (WAL replay + manifest load vs a fault-free
    /// oracle).
    #[test]
    fn restart_recovers_every_acknowledged_write(
        writes in proptest::collection::vec((0u64..6, 0u64..50, any::<u8>()), 1..120),
        flush_every in 1usize..40,
    ) {
        let tmp = TempDir::new("prop-restart");
        let mut oracle: BTreeMap<PartitionKey, BTreeMap<u64, Cell>> = BTreeMap::new();
        {
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts(flush_every)).expect("open");
            for (i, &(p, c, kind)) in writes.iter().enumerate() {
                let pk = PartitionKey::from_id(p);
                let cell = Cell::new(c, kind, vec![kind; 8]);
                t.put(pk.clone(), cell.clone()).expect("put");
                oracle.entry(pk).or_default().insert(c, cell);
                if i % flush_every == 0 {
                    t.flush().expect("flush");
                }
            }
        }
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts(flush_every)).expect("reopen");
        for (pk, cells) in &oracle {
            let expect: Vec<Cell> = cells.values().cloned().collect();
            let (got, _) = t.get(pk).expect("get");
            prop_assert_eq!(got, expect);
        }
    }

    /// A crash injected at ANY protocol step, during a flush or a
    /// compaction triggered at an arbitrary point in the write schedule,
    /// loses no acknowledged write and corrupts no value.
    #[test]
    fn any_crash_point_any_schedule_zero_loss(
        writes in proptest::collection::vec((0u64..5, 0u64..60, any::<u8>()), 10..100),
        crash_seed in any::<u64>(),
        point_idx in 0usize..5,
    ) {
        let points = [
            CrashPoint::AfterFlushSstWrite,
            CrashPoint::AfterFlushWalRotate,
            CrashPoint::AfterFlushManifest,
            CrashPoint::AfterCompactSstWrite,
            CrashPoint::AfterCompactManifest,
        ];
        let point = points[point_idx];
        let tmp = TempDir::new("prop-crash");
        let mut oracle: BTreeMap<PartitionKey, BTreeMap<u64, Cell>> = BTreeMap::new();
        // The write whose flush/compaction crashed: WAL-logged but never
        // acknowledged, so recovery may legitimately surface it.
        let mut inflight: Option<(PartitionKey, Cell)> = None;
        let crash_write = (crash_seed % writes.len() as u64) as usize;
        {
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts(25)).expect("open");
            for (i, &(p, c, kind)) in writes.iter().enumerate() {
                let pk = PartitionKey::from_id(p);
                let cell = Cell::new(c, kind, vec![kind; 8]);
                if i == crash_write {
                    t.arm_crash_point(point);
                }
                match t.put(pk.clone(), cell.clone()) {
                    Ok(()) => {
                        oracle.entry(pk).or_default().insert(c, cell);
                    }
                    Err(_) => {
                        inflight = Some((pk, cell));
                        break;
                    }
                }
            }
            // Not every schedule trips the armed flush/compaction; either
            // way the directory must recover consistently.
        }
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts(25)).expect("reopen");
        for (pk, cells) in &oracle {
            let (got, _) = t.get(pk).expect("get");
            let got_map: BTreeMap<u64, Cell> =
                got.into_iter().map(|c| (c.clustering, c)).collect();
            for (cl, cell) in cells {
                let found = got_map.get(cl);
                let acceptable = found == Some(cell)
                    || inflight
                        .as_ref()
                        .is_some_and(|(ipk, icell)| {
                            ipk == pk && icell.clustering == *cl && found == Some(icell)
                        });
                prop_assert!(
                    acceptable,
                    "acknowledged write lost or corrupted at {:?}/{}: got {:?}, want {:?}",
                    pk, cl, found, cell
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mapped reads are invisible: whatever subset of a partition's blocks
    /// earlier range reads left in the cache, and however small the cache,
    /// a whole fold visits exactly the partition's cells, `get` returns
    /// the same, and every block is either read from its file's mapping
    /// or served from the cache, once. Up to 15 000 cells is up to 167
    /// blocks, hits and misses interleaved.
    #[test]
    fn folds_over_a_partly_cached_partition_visit_every_cell_once(
        cells in 1u64..15_000,
        payload in 0usize..64,
        warm in proptest::collection::vec((0u64..15_000, 0u64..700), 0..5),
        cache_blocks in 0usize..3,
    ) {
        let pk = PartitionKey::from_id(7);
        let input: Vec<Cell> = (0..cells)
            .map(|c| Cell::new(c * 3, (c % 5) as u8, vec![c as u8; payload + (c % 7) as usize]))
            .collect();
        let refs = input.iter().map(Cell::as_cell_ref);
        let mut metas = Vec::new();
        let columns = &mut kvs_store::block::BlockColumns::default();
        kvs_store::block::build_blocks(refs, columns, &mut BytesMut::new(), &mut metas);
        let blocks = metas.len() as u64;
        let tmp = TempDir::new("prop-extent");
        let opts = DurableOptions {
            block_cache_blocks: [0, 8, 4_096][cache_blocks],
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let (mut t, _) = DurableTable::open(tmp.path(), opts).expect("open");
        t.ingest_sorted(&[(pk.clone(), input.clone())]).expect("ingest");
        for (lo, span) in warm {
            let (lo, hi) = (lo * 3, (lo + span) * 3);
            let (got, _) = t.get_range(&pk, lo..=hi).expect("range");
            let want: Vec<Cell> = input
                .iter()
                .filter(|c| c.clustering >= lo && c.clustering <= hi)
                .cloned()
                .collect();
            prop_assert_eq!(got, want);
        }
        for _ in 0..2 {
            let mut visited = Vec::with_capacity(input.len());
            let r = t
                .fold_partition(&pk, |c| visited.push(Cell::new(c.clustering, c.kind, c.payload.to_vec())))
                .expect("fold");
            prop_assert_eq!(&visited, &input);
            prop_assert_eq!(r.disk_blocks_read + r.disk_block_cache_hits, blocks);
            prop_assert_eq!(r.cells_returned, cells);
            let (got, r) = t.get(&pk).expect("get");
            prop_assert_eq!(&got, &input);
            prop_assert_eq!(r.disk_blocks_read + r.disk_block_cache_hits, blocks);
        }
    }
}
