//! [`DurableTable`]: the one [`Table`] over SSTable files, whose journal is
//! a WAL and a manifest — persistent, with real crash recovery. This module
//! holds what the disk medium adds to the table: its journal
//! ([`DiskJournal`]), the commit protocol that installs what the engine
//! builds, and [`DurableTable::open`].
//!
//! ## The write path
//!
//! A put lands in the WAL ([`crate::wal`]) *before* the memtable, so an
//! acknowledged write survives any crash (modulo the chosen
//! [`FsyncPolicy`] window). When the memtable crosses its flush
//! threshold it is written to an on-disk SSTable ([`crate::sst_file`])
//! and the WAL rotates, in this order:
//!
//! 1. write the SSTable file (generation `g`) and `fdatasync` it;
//! 2. create the next WAL segment;
//! 3. commit the manifest (`live += g`, `wal_seq` → new segment) —
//!    **the commit point**;
//! 4. garbage-collect the old WAL segments.
//!
//! A crash before step 3 leaves an orphan SSTable and intact WAL
//! segments: recovery ([`crate::recovery`]) deletes the orphan and
//! replays the log, losing nothing. A crash after step 3 leaves stale
//! segments that recovery deletes; the data is in the committed SSTable.
//! Compaction follows the same shape with the merged SSTable, and the
//! manifest commit atomically swaps the live set.
//!
//! At the commit point the committed run is installed — a flush's with an
//! empty memtable — so memory never lags the manifest, and any failure
//! after it poisons the table (every later call errors). [`CrashPoint`]
//! injects a crash at each step boundary to the same effect: the only way
//! forward is what a real crash forces, [`DurableTable::open`] again.

use crate::engine::{Engine, Journal};
use crate::manifest::Manifest;
use crate::recovery::{recover, RecoveryReport};
use crate::run::{Run, SsTableOptions};
use crate::schema::{Cell, PartitionKey};
use crate::sst_file::{write_sst, BlockCache, DiskBlocks};
use crate::table::{Table, TableMetrics};
use crate::wal::{self, FsyncPolicy, WalWriter};
use bytes::BytesMut;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for a durable table.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Flush the memtable to an SSTable when it exceeds this many bytes.
    pub memtable_flush_bytes: usize,
    /// Column-index threshold per partition (Cassandra's
    /// `column_index_size_in_kb`, default 64 KiB — the Figure 6 knee).
    pub column_index_size: usize,
    /// Bloom-filter target false-positive rate.
    pub bloom_fp_rate: f64,
    /// Trigger a full compaction when this many SSTables accumulate.
    pub compaction_threshold: usize,
    /// Block-cache capacity in 4 KiB blocks (0 disables caching). Once
    /// full, the cache admits a block only on its second miss, which it
    /// tells by remembering the last this many blocks it refused, without
    /// their bytes ([`crate::sst_file::BlockCache`]): the one number
    /// bounds both the blocks held and the blocks remembered.
    pub block_cache_blocks: usize,
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            memtable_flush_bytes: 8 * 1024 * 1024,
            column_index_size: 64 * 1024,
            bloom_fp_rate: 0.01,
            compaction_threshold: 4,
            block_cache_blocks: 1024,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Lifetime counters for a durable table: the one table's.
pub type DurableMetrics = TableMetrics;

/// A step boundary in the flush/compaction protocol where a test can
/// inject a crash. The armed operation returns an error after completing
/// the named step, and the table poisons itself — exactly the state a
/// real crash leaves on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Flush: the SSTable file is on disk, the manifest doesn't know it.
    AfterFlushSstWrite,
    /// Flush: the next WAL segment exists, the manifest still points at
    /// the old one.
    AfterFlushWalRotate,
    /// Flush: the manifest commit landed; old WAL segments not yet GC'd.
    AfterFlushManifest,
    /// Compaction: the merged SSTable is on disk, not yet live.
    AfterCompactSstWrite,
    /// Compaction: the live set swapped; old SSTables not yet deleted.
    AfterCompactManifest,
}

/// A persistent single-node wide-column table: the storage engine over
/// SSTable files, plus the WAL, the manifest and the commit protocol.
/// Every operation is fallible: disk I/O errors and detected corruption
/// propagate instead of panicking.
pub type DurableTable = Table<DiskBlocks>;

/// The disk medium's journal: the table's directory, its WAL and manifest,
/// and the state of a table a failure past a commit point has poisoned.
pub struct DiskJournal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    wal: WalWriter,
    manifest: Manifest,
    crash_armed: Option<CrashPoint>,
    poisoned: bool,
}

impl DurableTable {
    /// Opens (or creates) a durable table at `dir`, running full crash
    /// recovery: manifest load, live-SSTable open, orphan cleanup and WAL
    /// replay. Returns the table plus the recovery report.
    pub fn open(dir: &Path, opts: DurableOptions) -> io::Result<(DurableTable, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let recovered = recover(dir)?;
        let wal = WalWriter::create(
            dir,
            recovered.next_segment_seq,
            recovered.next_record_seq,
            opts.fsync,
        )?;
        // A write acknowledged before the first flush rests on the new
        // segment's directory entry; the flush's manifest commit is the
        // next directory fsync.
        if opts.fsync != FsyncPolicy::Never {
            fs::File::open(dir)?.sync_all()?;
        }
        let engine = Engine {
            memtable: recovered.memtable,
            runs: recovered.ssts,
            next_generation: recovered.manifest.next_generation,
            cache: BlockCache::new(opts.block_cache_blocks),
            build: SsTableOptions {
                column_index_size: opts.column_index_size,
                bloom_fp_rate: opts.bloom_fp_rate,
            },
            flush_bytes: opts.memtable_flush_bytes,
            compaction_threshold: opts.compaction_threshold,
        };
        let journal = DiskJournal {
            dir: dir.to_path_buf(),
            fsync: opts.fsync,
            wal,
            manifest: recovered.manifest,
            crash_armed: None,
            poisoned: false,
        };
        let mut table = Table::assemble(engine, journal, 0);
        // A replayed memtable can already be over the threshold (the
        // crash happened just before its flush) — finish the job now.
        if table.engine.flush_due() {
            table.flush()?;
        }
        Ok((table, recovered.report))
    }

    /// Arms a one-shot crash injection (tests only, but compiled in so
    /// integration tests across crates can use it).
    pub fn arm_crash_point(&mut self, point: CrashPoint) {
        self.journal.crash_armed = Some(point);
    }
}

impl DiskJournal {
    fn trip(&mut self, point: CrashPoint) -> io::Result<()> {
        if self.crash_armed == Some(point) {
            self.crash_armed = None;
            self.poisoned = true;
            return Err(io::Error::other(format!("injected crash at {point:?}")));
        }
        Ok(())
    }

    /// Runs what follows a commit point, poisoning the table if it fails.
    fn past_commit(&mut self, step: impl FnOnce(&mut Self) -> io::Result<()>) -> io::Result<()> {
        let result = step(self);
        self.poisoned |= result.is_err();
        result
    }
}

/// The commit protocol (module docs): each step writes its run as an
/// SSTable file and commits it to the manifest, and installs the run at
/// that commit point.
impl Journal<DiskBlocks> for DiskJournal {
    fn check(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "durable table poisoned by a crash or a failure past a commit point; reopen the directory",
            ));
        }
        Ok(())
    }

    fn log(&mut self, pk: &PartitionKey, cell: &Cell) -> io::Result<()> {
        self.wal.append(pk, cell).map(drop)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Writes the flushed run and rotates the WAL. The memtable stays as
    /// it is until the install: a crash before the manifest commit loses
    /// nothing.
    fn flush(&mut self, engine: &mut Engine<DiskBlocks>, run: Run<BytesMut>) -> io::Result<bool> {
        // 1. SSTable write.
        let generation = run.generation;
        let run = write_sst(&self.dir, &run)?;
        self.trip(CrashPoint::AfterFlushSstWrite)?;
        // 2. WAL rotation.
        let new_wal = WalWriter::create(
            &self.dir,
            self.wal.segment_seq() + 1,
            self.wal.next_record_seq(),
            self.fsync,
        )?;
        self.trip(CrashPoint::AfterFlushWalRotate)?;
        // 3. The commit point, and at it the run replaces the memtable.
        let mut manifest = self.manifest.clone();
        manifest.live.push(generation);
        manifest.next_generation = generation + 1;
        manifest.wal_seq = new_wal.segment_seq();
        manifest.next_record_seq = new_wal.next_record_seq();
        manifest.commit(&self.dir)?;
        self.manifest = manifest;
        self.wal = new_wal;
        let compact = engine.install_flush(run);
        // 4. Garbage collection: recovery re-deletes what a crash leaves.
        self.past_commit(|j| {
            j.trip(CrashPoint::AfterFlushManifest)?;
            for (seq, stale) in wal::list_segments(&j.dir)? {
                if seq < j.manifest.wal_seq {
                    fs::remove_file(stale)?;
                }
            }
            Ok(())
        })?;
        Ok(compact)
    }

    /// Writes the merged run and atomically swaps the manifest's live set.
    fn compaction(
        &mut self,
        engine: &mut Engine<DiskBlocks>,
        run: Run<BytesMut>,
    ) -> io::Result<()> {
        let generation = run.generation;
        let run = write_sst(&self.dir, &run)?;
        self.trip(CrashPoint::AfterCompactSstWrite)?;
        let mut manifest = self.manifest.clone();
        manifest.live = vec![generation];
        manifest.next_generation = generation + 1;
        manifest.commit(&self.dir)?;
        self.manifest = manifest;
        let retired = engine.install_compaction(run);
        self.past_commit(|j| {
            j.trip(CrashPoint::AfterCompactManifest)?;
            // Cached blocks are keyed by dead generations now; drop them.
            engine.cache.clear();
            retired
                .iter()
                .try_for_each(|sst| fs::remove_file(sst.path()))
        })
    }

    /// Writes the ingested run and adds it to the manifest's live set.
    fn ingest(&mut self, engine: &mut Engine<DiskBlocks>, run: Run<BytesMut>) -> io::Result<()> {
        let generation = run.generation;
        let run = write_sst(&self.dir, &run)?;
        let mut manifest = self.manifest.clone();
        manifest.live.push(generation);
        manifest.next_generation = generation + 1;
        manifest.commit(&self.dir)?;
        self.manifest = manifest;
        engine.push(run);
        Ok(())
    }
}

static TEMP_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A self-deleting scratch directory for tests and benches.
///
/// Names derive from the process id and a process-wide counter — no
/// clocks, no ambient randomness (the store crate is a deterministic
/// zone) — so concurrent test processes never collide.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `${TMPDIR}/kvs-<tag>-<pid>-<n>`.
    ///
    /// # Panics
    /// When the directory cannot be created — tests should die loudly.
    pub fn new(tag: &str) -> TempDir {
        let n = TEMP_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("kvs-{tag}-{}-{n}", std::process::id()));
        if let Err(e) = fs::create_dir_all(&path) {
            panic!("failed to create temp dir {}: {e}", path.display());
        }
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best-effort: a leaked scratch dir beats a panicking Drop.
        match fs::remove_dir_all(&self.path) {
            Ok(()) | Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClusteringKey;
    use crate::sst_file::sst_file_name;
    use std::collections::BTreeMap;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    fn small_opts() -> DurableOptions {
        DurableOptions {
            memtable_flush_bytes: 46 * 100, // flush every 100 cells
            compaction_threshold: 100,      // no auto-compaction
            fsync: FsyncPolicy::Never,      // tests don't need real fsync
            ..Default::default()
        }
    }

    /// The fault-free oracle: replays the same writes into a BTreeMap.
    #[derive(Default)]
    struct Oracle {
        data: BTreeMap<PartitionKey, BTreeMap<ClusteringKey, Cell>>,
    }

    impl Oracle {
        fn put(&mut self, pk: PartitionKey, cell: Cell) {
            self.data
                .entry(pk)
                .or_default()
                .insert(cell.clustering, cell);
        }

        fn assert_matches(&self, table: &mut DurableTable) {
            for (pk, cells) in &self.data {
                let expect: Vec<Cell> = cells.values().cloned().collect();
                let (got, _) = table.get(pk).expect("read");
                assert_eq!(got, expect, "partition {pk:?} diverged from oracle");
            }
        }
    }

    #[test]
    fn read_your_writes_without_flush() {
        let tmp = TempDir::new("dur-mem");
        let (mut t, report) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        assert_eq!(report, RecoveryReport::default());
        t.put(pk(1), Cell::synthetic(10, 2)).expect("put");
        let (cells, receipt) = t.get(&pk(1)).expect("get");
        assert_eq!(cells.len(), 1);
        assert!(receipt.memtable_hit);
        assert_eq!(receipt.disk_blocks_read, 0);
    }

    #[test]
    fn flush_rotates_wal_and_reads_from_disk() {
        let tmp = TempDir::new("dur-flush");
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        for c in 0..50u64 {
            t.put(pk(1), Cell::synthetic(c, 0)).expect("put");
        }
        t.flush().expect("flush");
        assert_eq!(t.sstable_count(), 1);
        assert_eq!(t.memtable_cells(), 0);
        assert_eq!(t.metrics().flushes, 1);
        assert_eq!(t.journal.manifest.live, vec![1]);
        // The pre-flush segment (seq 1) is gone; the live one is seq 2.
        assert!(!tmp.path().join(wal::segment_file_name(1)).exists());
        assert!(tmp.path().join(wal::segment_file_name(2)).exists());
        let (cells, receipt) = t.get(&pk(1)).expect("get");
        assert_eq!(cells.len(), 50);
        assert!(!receipt.memtable_hit);
        assert!(receipt.disk_blocks_read > 0);
    }

    #[test]
    fn automatic_flush_on_threshold() {
        let tmp = TempDir::new("dur-auto");
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        let mut oracle = Oracle::default();
        for c in 0..250u64 {
            let cell = Cell::synthetic(c, 0);
            oracle.put(pk(c % 5), cell.clone());
            t.put(pk(c % 5), cell).expect("put");
        }
        assert!(t.metrics().flushes >= 2);
        oracle.assert_matches(&mut t);
    }

    #[test]
    fn restart_replays_wal() {
        let tmp = TempDir::new("dur-replay");
        let mut oracle = Oracle::default();
        {
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
            for c in 0..40u64 {
                let cell = Cell::synthetic(c, 1);
                oracle.put(pk(c % 3), cell.clone());
                t.put(pk(c % 3), cell).expect("put");
            }
            // Dropped without flush: everything lives only in the WAL.
        }
        let (mut t, report) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        assert_eq!(report.wal_records_replayed, 40);
        assert_eq!(report.cells_recovered, 40);
        assert_eq!(report.sstables_loaded, 0);
        oracle.assert_matches(&mut t);
    }

    #[test]
    fn restart_loads_ssts_and_replays_tail() {
        let tmp = TempDir::new("dur-mixed");
        let mut oracle = Oracle::default();
        {
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
            for c in 0..120u64 {
                let cell = Cell::synthetic(c, 0);
                oracle.put(pk(c % 4), cell.clone());
                t.put(pk(c % 4), cell).expect("put");
            }
            t.flush().expect("flush");
            for c in 120..135u64 {
                let cell = Cell::synthetic(c, 2);
                oracle.put(pk(c % 4), cell.clone());
                t.put(pk(c % 4), cell).expect("put");
            }
        }
        let (mut t, report) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        assert!(report.sstables_loaded >= 1);
        assert_eq!(report.wal_records_replayed, 15);
        oracle.assert_matches(&mut t);
        // Overwrites after recovery still win.
        t.put(pk(0), Cell::new(0, 77, vec![7u8; 4])).expect("put");
        let (cells, _) = t.get(&pk(0)).expect("get");
        assert_eq!(cells[0].kind, 77);
    }

    #[test]
    fn record_seqs_never_reused_across_restarts() {
        let tmp = TempDir::new("dur-seq");
        {
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
            for c in 0..10u64 {
                t.put(pk(0), Cell::synthetic(c, 0)).expect("put");
            }
        }
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        t.put(pk(0), Cell::synthetic(100, 0)).expect("put");
        drop(t);
        let (t, report) = DurableTable::open(tmp.path(), small_opts()).expect("reopen 2");
        // 10 from the first incarnation + 1 from the second, all distinct.
        assert_eq!(report.wal_records_replayed, 11);
        assert_eq!(t.memtable_cells(), 11);
    }

    #[test]
    fn compaction_merges_newest_wins_and_deletes_old_files() {
        let tmp = TempDir::new("dur-compact");
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        t.put(pk(1), Cell::new(7, 1, vec![1u8; 4])).expect("put");
        t.flush().expect("flush 1");
        t.put(pk(1), Cell::new(7, 2, vec![2u8; 4])).expect("put");
        t.put(pk(2), Cell::synthetic(0, 0)).expect("put");
        t.flush().expect("flush 2");
        assert_eq!(t.sstable_count(), 2);
        t.compact().expect("compact");
        assert_eq!(t.sstable_count(), 1);
        assert_eq!(t.metrics().compactions, 1);
        assert_eq!(t.journal.manifest.live.len(), 1);
        // Old generation files are gone; only the merged one remains.
        assert!(!tmp.path().join(sst_file_name(1)).exists());
        assert!(!tmp.path().join(sst_file_name(2)).exists());
        assert!(tmp.path().join(sst_file_name(3)).exists());
        let (cells, _) = t.get(&pk(1)).expect("get");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].kind, 2, "newest generation must win the merge");
        // And the state survives a restart.
        drop(t);
        let (mut t, report) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        assert_eq!(report.sstables_loaded, 1);
        assert_eq!(t.get(&pk(1)).expect("get").0[0].kind, 2);
        assert_eq!(t.get(&pk(2)).expect("get").0.len(), 1);
    }

    #[test]
    fn ingest_is_durable_without_wal() {
        let tmp = TempDir::new("dur-ingest");
        let input = vec![
            (pk(1), vec![Cell::synthetic(1, 0), Cell::synthetic(2, 0)]),
            (pk(2), vec![Cell::synthetic(5, 1)]),
        ];
        {
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
            t.ingest_sorted(&input).expect("ingest");
            assert_eq!(t.sstable_count(), 1);
        }
        let (mut t, report) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        assert_eq!(report.sstables_loaded, 1);
        assert_eq!(report.wal_records_replayed, 0);
        assert_eq!(t.get(&pk(1)).expect("get").0, input[0].1);
        assert_eq!(t.get(&pk(2)).expect("get").0, input[1].1);
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let tmp = TempDir::new("dur-cache");
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        for c in 0..90u64 {
            t.put(pk(1), Cell::synthetic(c, 0)).expect("put");
        }
        t.flush().expect("flush");
        let (_, r1) = t.get(&pk(1)).expect("get");
        assert!(r1.disk_blocks_read > 0);
        assert_eq!(r1.disk_block_cache_hits, 0);
        let (_, r2) = t.get(&pk(1)).expect("get");
        assert_eq!(r2.disk_blocks_read, 0);
        assert_eq!(r2.disk_block_cache_hits, r1.disk_blocks_read);
    }

    #[test]
    fn compaction_empties_the_block_cache_and_its_ghost() {
        let opts = DurableOptions {
            block_cache_blocks: 2,
            ..small_opts()
        };
        let tmp = TempDir::new("dur-ghost");
        let (mut t, _) = DurableTable::open(tmp.path(), opts).expect("open");
        // Three runs of 100 cells, two blocks each: two blocks fill the
        // cache, and the ghost remembers the last two of the four refused.
        for c in 0..300u64 {
            t.put(pk(1), Cell::synthetic(c, 0)).expect("put");
        }
        assert_eq!(t.sstable_count(), 3);
        let (_, r) = t.get(&pk(1)).expect("get");
        assert_eq!(r.disk_blocks_read, 6);
        assert_eq!(t.engine.cache.lens(), (2, 2));
        t.compact().expect("compact");
        assert_eq!(t.engine.cache.lens(), (0, 0));
    }

    /// Every crash point: arm, trigger, verify the operation fails and
    /// the table is poisoned, then reopen and check zero acknowledged
    /// writes were lost or corrupted.
    #[test]
    fn every_crash_point_recovers_with_zero_loss() {
        let flush_points = [
            CrashPoint::AfterFlushSstWrite,
            CrashPoint::AfterFlushWalRotate,
            CrashPoint::AfterFlushManifest,
        ];
        let compact_points = [
            CrashPoint::AfterCompactSstWrite,
            CrashPoint::AfterCompactManifest,
        ];
        for &point in &flush_points {
            let tmp = TempDir::new("dur-crash-flush");
            let mut oracle = Oracle::default();
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
            for c in 0..60u64 {
                let cell = Cell::synthetic(c, 3);
                oracle.put(pk(c % 2), cell.clone());
                t.put(pk(c % 2), cell).expect("put");
            }
            t.arm_crash_point(point);
            t.flush().expect_err("armed flush must fail");
            t.put(pk(0), Cell::synthetic(999, 0))
                .expect_err("poisoned table must reject writes");
            t.get(&pk(0)).expect_err("poisoned table must reject reads");
            drop(t);
            let (mut t, report) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
            oracle.assert_matches(&mut t);
            // No stray files: everything on disk is accounted for.
            if point == CrashPoint::AfterFlushManifest {
                // Committed: data lives in the SSTable.
                assert_eq!(report.sstables_loaded, 1, "{point:?}");
            } else {
                // Uncommitted: the orphan SSTable was removed and the WAL
                // replayed everything.
                assert_eq!(report.wal_records_replayed, 60, "{point:?}");
                assert!(report.orphan_files_removed >= 1, "{point:?}");
            }
        }
        for &point in &compact_points {
            let tmp = TempDir::new("dur-crash-compact");
            let mut oracle = Oracle::default();
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
            for round in 0..2u64 {
                for c in 0..30u64 {
                    let cell = Cell::new(c, round as u8 + 1, vec![round as u8; 8]);
                    oracle.put(pk(c % 3), cell.clone());
                    t.put(pk(c % 3), cell).expect("put");
                }
                t.flush().expect("flush");
            }
            t.arm_crash_point(point);
            t.compact().expect_err("armed compact must fail");
            drop(t);
            let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
            oracle.assert_matches(&mut t);
            // Recovery converged: a follow-up compaction works fine.
            t.compact().expect("compact after recovery");
            oracle.assert_matches(&mut t);
        }
    }

    /// A failure past the flush's commit point — here its WAL garbage
    /// collection, which meets a directory where a stale segment's name
    /// is — must not let a later compaction rewrite the manifest from a
    /// memory that never installed the committed run: its cells' WAL
    /// segment is stale by then, and recovery deletes it.
    #[test]
    fn failure_past_the_flush_commit_poisons_and_loses_nothing() {
        let tmp = TempDir::new("dur-post-commit");
        let mut oracle = Oracle::default();
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        for round in 0..3u64 {
            for c in 0..20u64 {
                let cell = Cell::new(c, round as u8, vec![round as u8; 8]);
                oracle.put(pk(c % 3), cell.clone());
                t.put(pk(c % 3), cell).expect("put");
            }
            if round < 2 {
                t.flush().expect("flush");
            }
        }
        let blocker = tmp.path().join(wal::segment_file_name(0));
        fs::create_dir(&blocker).expect("mkdir");
        t.flush().expect_err("the garbage collection fails");
        let _ = t.compact(); // whatever it returns
        drop(t);
        fs::remove_dir(&blocker).expect("rmdir");
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        oracle.assert_matches(&mut t);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn every_live_sstable_is_mapped_once_and_retired_ones_are_unmapped() {
        let tmp = TempDir::new("dur-maps");
        // Lines of this process's memory map naming a file in the table's
        // directory: one per mapped SSTable, unlinked or not.
        let mappings_in = |dir: &Path| {
            let maps = fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
            let dir = format!("{}/", dir.display());
            maps.lines().filter(|line| line.contains(&dir)).count()
        };
        let mut oracle = Oracle::default();
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("open");
        for round in 0..2u64 {
            let cells: Vec<Cell> = (0..300).map(|c| Cell::synthetic(c, round as u8)).collect();
            let mut input = vec![(pk(round), cells.clone()), (pk(7), cells)];
            input.sort_by(|a, b| a.0.cmp(&b.0));
            for (pk, cells) in &input {
                cells.iter().for_each(|c| oracle.put(pk.clone(), c.clone()));
            }
            t.ingest_sorted(&input).expect("ingest");
            assert_eq!(mappings_in(tmp.path()), t.sstable_count());
        }
        let mut write = |t: &mut DurableTable, kind: u8| {
            for c in 0..50u64 {
                let cell = Cell::synthetic(c, kind);
                oracle.put(pk(c % 3), cell.clone());
                t.put(pk(c % 3), cell).expect("put");
            }
            t.flush().expect("flush");
        };
        write(&mut t, 2);
        assert_eq!((t.sstable_count(), mappings_in(tmp.path())), (3, 3));
        t.compact().expect("compact");
        assert_eq!((t.sstable_count(), mappings_in(tmp.path())), (1, 1));
        // A crash after the live set swapped: the retired runs are
        // unmapped with the failed step, their files left for recovery.
        write(&mut t, 3);
        t.arm_crash_point(CrashPoint::AfterCompactManifest);
        t.compact().expect_err("armed compact must fail");
        assert_eq!((t.sstable_count(), mappings_in(tmp.path())), (1, 1));
        drop(t);
        assert_eq!(mappings_in(tmp.path()), 0);
        let (mut t, _) = DurableTable::open(tmp.path(), small_opts()).expect("reopen");
        assert_eq!((t.sstable_count(), mappings_in(tmp.path())), (1, 1));
        oracle.assert_matches(&mut t);
    }

    #[test]
    fn column_index_discontinuity_on_durable_reads() {
        // The Figure 6 knee: 1424 cells below, 1425 above.
        let tmp = TempDir::new("dur-knee");
        let opts = DurableOptions {
            memtable_flush_bytes: usize::MAX,
            ..small_opts()
        };
        let (mut t, _) = DurableTable::open(tmp.path(), opts).expect("open");
        for c in 0..1424u64 {
            t.put(pk(1), Cell::synthetic(c, 0)).expect("put");
        }
        for c in 0..1425u64 {
            t.put(pk(2), Cell::synthetic(c, 0)).expect("put");
        }
        t.flush().expect("flush");
        let (_, r1) = t.get(&pk(1)).expect("get");
        assert!(!r1.used_column_index);
        let (_, r2) = t.get(&pk(2)).expect("get");
        assert!(r2.used_column_index);
    }
}
