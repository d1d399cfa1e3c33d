//! Crash recovery: rebuild a durable table from whatever a crash left on
//! disk.
//!
//! The recovery contract follows from the flush/compaction ordering in
//! [`crate::durable`] (SSTable write → WAL rotate → manifest commit →
//! garbage collection):
//!
//! 1. **The manifest is the truth.** Load it ([`crate::manifest`]); a
//!    fresh directory gets the default. A corrupt manifest is a hard
//!    error — guessing the live SSTable set can resurrect deleted data.
//! 2. **Open the live SSTables** in generation order. A missing or
//!    corrupt live SSTable is a hard error (it was committed; its data
//!    cannot be recreated).
//! 3. **Delete orphans**: SSTable files whose generation is not live
//!    (flush/compaction completed the write but crashed before the
//!    manifest commit), `*.tmp` leftovers, and WAL segments below
//!    `wal_seq` (their data is in a committed SSTable).
//! 4. **Replay the WAL**: every segment with `seq >= wal_seq`, ascending,
//!    records applied in append order (newest wins). A torn or corrupt
//!    tail stops replay of that segment cleanly — everything before it is
//!    intact — and is reported in the [`RecoveryReport`].
//!
//! The rebuilt memtable is *not* re-flushed and the manifest is *not*
//! rewritten: recovery is read-only apart from garbage collection, so a
//! second crash during recovery is harmless.

use crate::manifest::{Manifest, MANIFEST_TMP_FILE};
use crate::memtable::Memtable;
use crate::sst_file::{parse_sst_generation, sst_file_name, SstFile};
use crate::wal::{self, WalTail};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What recovery found and did — surfaced through
/// [`crate::durable::DurableTable::open`] so tests (and operators) can
/// assert that a restart really replayed the WAL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Live SSTable files opened from the manifest.
    pub sstables_loaded: usize,
    /// WAL segments replayed (seq ≥ the manifest's `wal_seq`).
    pub wal_segments_replayed: usize,
    /// Put records applied to the rebuilt memtable.
    pub wal_records_replayed: u64,
    /// Cells resident in the rebuilt memtable (≤ records replayed when
    /// replays overwrote the same clustering key).
    pub cells_recovered: u64,
    /// A segment ended mid-record — the classic crash-during-append.
    pub wal_torn_tail: bool,
    /// A segment had a checksum mismatch or undecodable record.
    pub wal_corrupt_tail: bool,
    /// Orphan files removed (uncommitted SSTables, tmp files, stale WAL
    /// segments).
    pub orphan_files_removed: usize,
}

/// Everything [`recover`] hands back to [`crate::durable::DurableTable`].
#[derive(Debug)]
pub struct Recovered {
    /// The manifest that was on disk (or the default for a fresh dir).
    pub manifest: Manifest,
    /// Live SSTables, ascending generation.
    pub ssts: Vec<SstFile>,
    /// The memtable rebuilt from WAL replay.
    pub memtable: Memtable,
    /// The record seq the next WAL append must use: strictly above every
    /// replayed record and the manifest's own high-water mark.
    pub next_record_seq: u64,
    /// The segment seq the next WAL segment must use: strictly above
    /// every segment file seen on disk and the manifest's `wal_seq`.
    pub next_segment_seq: u64,
    /// The report, for observability.
    pub report: RecoveryReport,
}

/// Recovers a durable table directory. `dir` must exist.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    let manifest = Manifest::load(dir)?.unwrap_or_default();
    let mut report = RecoveryReport::default();

    // Inventory the directory once.
    let mut sst_files: BTreeMap<u64, PathBuf> = BTreeMap::new();
    let mut tmp_files: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(generation) = parse_sst_generation(name) {
            sst_files.insert(generation, entry.path());
        } else if name.ends_with(".tmp") && name != MANIFEST_TMP_FILE {
            // MANIFEST.tmp is cleaned below with the rest; any other tmp
            // file is an interrupted SSTable write.
            tmp_files.push(entry.path());
        }
    }

    // 2. Open the committed SSTable set; each one must be present and intact.
    let mut ssts = Vec::with_capacity(manifest.live.len());
    for &generation in &manifest.live {
        let path = sst_files.remove(&generation).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "manifest lists generation {generation} but {} is missing",
                    dir.join(sst_file_name(generation)).display()
                ),
            )
        })?;
        ssts.push(SstFile::open(&path)?);
    }
    report.sstables_loaded = ssts.len();

    // 3. Garbage-collect: uncommitted SSTables, tmp leftovers, stale WAL
    // segments, and a stray MANIFEST.tmp.
    for (_, path) in sst_files {
        fs::remove_file(&path)?;
        report.orphan_files_removed += 1;
    }
    for path in tmp_files {
        fs::remove_file(&path)?;
        report.orphan_files_removed += 1;
    }
    let manifest_tmp = dir.join(MANIFEST_TMP_FILE);
    if manifest_tmp.exists() {
        fs::remove_file(&manifest_tmp)?;
        report.orphan_files_removed += 1;
    }

    let mut max_segment_seq: u64 = 0;
    let mut max_record_seq: Option<u64> = None;
    let mut memtable = Memtable::new();

    // 4. Replay live segments ascending; drop stale ones.
    for (seq, path) in wal::list_segments(dir)? {
        max_segment_seq = max_segment_seq.max(seq);
        if seq < manifest.wal_seq {
            fs::remove_file(&path)?;
            report.orphan_files_removed += 1;
            continue;
        }
        let replay = wal::replay_segment(&path)?;
        if replay.header_seq.is_some_and(|h| h != seq) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: header seq {:?} does not match file name",
                    path.display(),
                    replay.header_seq
                ),
            ));
        }
        report.wal_segments_replayed += 1;
        for rec in replay.records {
            max_record_seq = Some(max_record_seq.map_or(rec.seq, |m| m.max(rec.seq)));
            memtable.insert(&rec.key, rec.cell);
            report.wal_records_replayed += 1;
        }
        match replay.tail {
            WalTail::Clean => {}
            WalTail::Torn { .. } => report.wal_torn_tail = true,
            WalTail::Corrupt { .. } => report.wal_corrupt_tail = true,
        }
    }
    report.cells_recovered = memtable.cells() as u64;

    let next_record_seq = manifest
        .next_record_seq
        .max(max_record_seq.map_or(0, |m| m + 1));
    // Strictly above every segment seen (replayed segments stay on disk —
    // their records must survive a second crash — so the fresh segment
    // must not collide), and at least `wal_seq` so the fresh segment
    // itself is replayed next time.
    let next_segment_seq = (max_segment_seq + 1).max(manifest.wal_seq);
    Ok(Recovered {
        manifest,
        ssts,
        memtable,
        next_record_seq,
        next_segment_seq,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::TempDir;
    use crate::run::{Run, SsTableOptions};
    use crate::schema::{Cell, PartitionKey};
    use crate::sst_file::write_sst;
    use crate::wal::{FsyncPolicy, WalWriter};

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    #[test]
    fn fresh_directory_recovers_to_empty() {
        let tmp = TempDir::new("rec-fresh");
        let r = recover(tmp.path()).expect("recover");
        assert_eq!(r.manifest, Manifest::default());
        assert!(r.ssts.is_empty());
        assert!(r.memtable.is_empty());
        assert_eq!(r.next_record_seq, 0);
        assert_eq!(r.next_segment_seq, 1);
        assert_eq!(r.report, RecoveryReport::default());
    }

    #[test]
    fn wal_records_rebuild_the_memtable() {
        let tmp = TempDir::new("rec-replay");
        let mut w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Always).expect("wal");
        for i in 0..25u64 {
            w.append(&pk(i % 4), &Cell::synthetic(i, 0))
                .expect("append");
        }
        drop(w);
        let r = recover(tmp.path()).expect("recover");
        assert_eq!(r.report.wal_segments_replayed, 1);
        assert_eq!(r.report.wal_records_replayed, 25);
        assert_eq!(r.report.cells_recovered, 25);
        assert_eq!(r.memtable.cells(), 25);
        assert_eq!(r.next_record_seq, 25);
        assert_eq!(r.next_segment_seq, 2);
        assert!(!r.report.wal_torn_tail && !r.report.wal_corrupt_tail);
    }

    #[test]
    fn replay_order_lets_newest_win() {
        let tmp = TempDir::new("rec-newest");
        let mut w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Always).expect("wal");
        w.append(&pk(1), &Cell::new(7, 1, vec![1u8; 4])).expect("a");
        w.append(&pk(1), &Cell::new(7, 2, vec![2u8; 4])).expect("b");
        drop(w);
        let r = recover(tmp.path()).expect("recover");
        assert_eq!(r.memtable.cells(), 1);
        let mut cells = r.memtable.range(&pk(1), 0..=u64::MAX).expect("partition");
        assert_eq!(cells.next().map(|cell| cell.kind), Some(2));
        assert_eq!(r.report.wal_records_replayed, 2);
        assert_eq!(r.report.cells_recovered, 1);
    }

    #[test]
    fn torn_tail_is_reported_and_prefix_survives() {
        let tmp = TempDir::new("rec-torn");
        let mut w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Always).expect("wal");
        for i in 0..10u64 {
            w.append(&pk(0), &Cell::synthetic(i, 0)).expect("append");
        }
        let path = w.path().to_path_buf();
        drop(w);
        let full = fs::read(&path).expect("read");
        fs::write(&path, &full[..full.len() - 3]).expect("truncate");
        let r = recover(tmp.path()).expect("recover");
        assert!(r.report.wal_torn_tail);
        assert_eq!(r.report.wal_records_replayed, 9);
        assert_eq!(r.next_record_seq, 9, "torn record 10 never acked");
    }

    #[test]
    fn stale_segments_are_dropped_live_ones_replayed() {
        let tmp = TempDir::new("rec-stale");
        // Segment 1 is below wal_seq (its data "already flushed"); 2 and 3
        // are live.
        for (seg, base) in [(1u64, 0u64), (2, 100), (3, 200)] {
            let mut w = WalWriter::create(tmp.path(), seg, base, FsyncPolicy::Always).expect("wal");
            for i in 0..5u64 {
                w.append(&pk(seg), &Cell::synthetic(base + i, 0))
                    .expect("append");
            }
        }
        let manifest = Manifest {
            wal_seq: 2,
            ..Manifest::default()
        };
        manifest.commit(tmp.path()).expect("commit");
        let r = recover(tmp.path()).expect("recover");
        assert_eq!(r.report.wal_segments_replayed, 2);
        assert_eq!(r.report.wal_records_replayed, 10);
        assert_eq!(r.report.orphan_files_removed, 1);
        assert!(!tmp.path().join(wal::segment_file_name(1)).exists());
        assert!(
            r.memtable.range(&pk(1), 0..=u64::MAX).is_none(),
            "stale data must not replay"
        );
        assert_eq!(r.next_segment_seq, 4);
        assert_eq!(r.next_record_seq, 205);
    }

    #[test]
    fn committed_ssts_load_and_orphans_are_deleted() {
        let tmp = TempDir::new("rec-orphan");
        let input = vec![(pk(0), vec![Cell::synthetic(1, 0)])];
        let opts = SsTableOptions::default();
        write_sst(tmp.path(), &Run::build(&input, &opts, 1)).expect("sst 1");
        write_sst(tmp.path(), &Run::build(&input, &opts, 2)).expect("sst 2");
        fs::write(tmp.path().join("sst-0000000003.sst.tmp"), b"junk").expect("tmp");
        let manifest = Manifest {
            next_generation: 3,
            live: vec![1],
            ..Manifest::default()
        };
        manifest.commit(tmp.path()).expect("commit");
        let r = recover(tmp.path()).expect("recover");
        assert_eq!(r.report.sstables_loaded, 1);
        assert_eq!(r.ssts.len(), 1);
        assert_eq!(r.ssts[0].generation(), 1);
        // Generation 2 (uncommitted) and the tmp file are gone.
        assert_eq!(r.report.orphan_files_removed, 2);
        assert!(!tmp.path().join(sst_file_name(2)).exists());
        assert!(!tmp.path().join("sst-0000000003.sst.tmp").exists());
    }

    #[test]
    fn missing_committed_sst_is_a_hard_error() {
        let tmp = TempDir::new("rec-missing");
        let manifest = Manifest {
            next_generation: 2,
            live: vec![1],
            ..Manifest::default()
        };
        manifest.commit(tmp.path()).expect("commit");
        let err = recover(tmp.path()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn record_seq_continues_from_manifest_after_clean_flush() {
        // After a clean flush the WAL is empty but the manifest remembers
        // the global record counter; a restart must not reuse seqs.
        let tmp = TempDir::new("rec-seq");
        let manifest = Manifest {
            wal_seq: 5,
            next_record_seq: 1000,
            ..Manifest::default()
        };
        manifest.commit(tmp.path()).expect("commit");
        let r = recover(tmp.path()).expect("recover");
        assert_eq!(r.next_record_seq, 1000);
        assert_eq!(r.next_segment_seq, 5, "at least wal_seq so it replays");
    }

    #[test]
    fn segment_header_mismatching_its_name_is_rejected() {
        let tmp = TempDir::new("rec-rename");
        let w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Always).expect("wal");
        let from = w.path().to_path_buf();
        drop(w);
        fs::rename(&from, tmp.path().join(wal::segment_file_name(9))).expect("rename");
        let err = recover(tmp.path()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
