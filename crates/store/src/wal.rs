//! The write-ahead log: checksummed, length-prefixed put records.
//!
//! Every durable write lands here *before* it touches the memtable, so a
//! crash can lose at most writes that were never acknowledged. The log is
//! a sequence of segment files (`wal-<seq>.log`, one per memtable
//! incarnation): a flush writes the memtable to an SSTable, starts a new
//! segment, commits the manifest, and only then deletes the old
//! segments — see [`crate::durable`] for the ordering protocol.
//!
//! ## Segment layout
//!
//! 16-byte header, then records back to back:
//!
//! ```text
//! offset size field        notes
//!      0    4 magic        0x4B57414C ("KWAL")
//!      4    1 version      3
//!      5    3 reserved     zero
//!      8    8 segment_seq  must match the file name
//! ```
//!
//! Each record is `len (u32) ⋅ seq (u64) ⋅ body (len bytes) ⋅ crc (u64)`,
//! all big-endian, where the body is `kind (u8 = 1, put) ⋅ key_len (u16) ⋅
//! key ⋅ cell` ([`Cell::encode`]) and the crc is [`checksum64`] of the body
//! seeded with the [`checksum64`] of the len+seq prefix. Replay stops at
//! the first truncated record (a torn tail — the crash interrupted a
//! write) or the first checksum mismatch (bit rot), and reports which;
//! everything before the stop point is intact by construction.

use crate::block::checksum64;
use crate::schema::{Cell, PartitionKey};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Segment header magic: `"KWAL"`.
pub const WAL_MAGIC: u32 = 0x4B57_414C;
/// Current segment format version.
pub const WAL_VERSION: u8 = 3;
/// Encoded segment header size in bytes.
pub const WAL_HEADER_LEN: usize = 16;
/// Record kind byte: a put of one cell.
pub const WAL_RECORD_PUT: u8 = 1;
/// Upper bound on a record body; a parsed length beyond this is treated
/// as corruption, not as an instruction to allocate.
pub const WAL_MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// How eagerly appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record — nothing acknowledged is ever lost.
    Always,
    /// `fdatasync` every N records (Cassandra's periodic commitlog mode);
    /// a crash can lose up to N-1 acknowledged records.
    EveryN(u32),
    /// Never sync explicitly; the OS flushes when it pleases. Fastest,
    /// weakest — fine for tests and for workloads that re-ingest.
    Never,
}

/// File name of segment `seq` (zero-padded so lexicographic order is
/// replay order).
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:010}.log")
}

/// Parses a segment sequence number back out of a file name produced by
/// [`segment_file_name`]. `None` for anything else.
pub fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// An open, appendable WAL segment.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    segment_seq: u64,
    next_record_seq: u64,
    policy: FsyncPolicy,
    unsynced: u32,
    records: u64,
    bytes: u64,
}

impl WalWriter {
    /// Creates segment `segment_seq` in `dir`, with record sequence
    /// numbers continuing from `first_record_seq`. Fails if the segment
    /// file already exists (a seq collision means the lifecycle protocol
    /// was violated).
    pub fn create(
        dir: &Path,
        segment_seq: u64,
        first_record_seq: u64,
        policy: FsyncPolicy,
    ) -> io::Result<WalWriter> {
        let path = dir.join(segment_file_name(segment_seq));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let mut header = BytesMut::with_capacity(WAL_HEADER_LEN);
        header.put_u32(WAL_MAGIC);
        header.put_u8(WAL_VERSION);
        header.put_slice(&[0u8; 3]);
        header.put_u64(segment_seq);
        file.write_all(&header)?;
        if policy != FsyncPolicy::Never {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            path,
            segment_seq,
            next_record_seq: first_record_seq,
            policy,
            unsynced: 0,
            records: 0,
            bytes: WAL_HEADER_LEN as u64,
        })
    }

    /// Appends one put record and applies the fsync policy. Returns the
    /// record's sequence number; once this returns `Ok` the write is
    /// recoverable (modulo the policy's window).
    pub fn append(&mut self, pk: &PartitionKey, cell: &Cell) -> io::Result<u64> {
        let seq = self.next_record_seq;
        let mut body = BytesMut::with_capacity(3 + pk.len() + cell.encoded_len());
        body.put_u8(WAL_RECORD_PUT);
        body.put_u16(pk.len() as u16);
        body.put_slice(pk.as_bytes());
        cell.encode(&mut body);
        let mut rec = BytesMut::with_capacity(4 + 8 + body.len() + 8);
        rec.put_u32(body.len() as u32);
        rec.put_u64(seq);
        rec.put_slice(&body);
        let crc = checksum64(checksum64(0, &rec[..12]), &body);
        rec.put_u64(crc);
        // One write_all per record: a torn write is then (almost always) a
        // clean prefix, which replay detects as a torn tail.
        self.file.write_all(&rec)?;
        self.bytes += rec.len() as u64;
        self.records += 1;
        self.next_record_seq = seq + 1;
        match self.policy {
            FsyncPolicy::Always => self.file.sync_data()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.file.sync_data()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.file.sync_data()
    }

    /// This segment's sequence number.
    pub fn segment_seq(&self) -> u64 {
        self.segment_seq
    }

    /// The sequence number the next appended record will get.
    pub fn next_record_seq(&self) -> u64 {
        self.next_record_seq
    }

    /// Records appended to this segment.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written to this segment, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One replayed put record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's global sequence number.
    pub seq: u64,
    /// Partition written.
    pub key: PartitionKey,
    /// The cell written.
    pub cell: Cell,
}

/// How a segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The segment ended exactly after its last complete record.
    Clean,
    /// The segment ended mid-record — the classic crash-during-append
    /// torn tail. Everything before `valid_bytes` replayed fine.
    Torn {
        /// File offset of the first byte past the last valid record.
        valid_bytes: u64,
    },
    /// A structurally complete record failed its checksum (or the header
    /// was damaged) — bit rot rather than a torn write. Replay stops at
    /// the last valid record.
    Corrupt {
        /// File offset of the first byte past the last valid record.
        valid_bytes: u64,
    },
}

/// The result of replaying one segment file.
#[derive(Debug)]
pub struct SegmentReplay {
    /// The segment seq from the header, when the header was readable.
    pub header_seq: Option<u64>,
    /// Every record up to the first damage, in append order.
    pub records: Vec<WalRecord>,
    /// How the segment ended.
    pub tail: WalTail,
}

/// Replays one segment file. I/O errors are returned; *damage* (torn
/// tails, checksum mismatches) is not an error — it is reported in
/// [`SegmentReplay::tail`] with every record before the damage intact.
pub fn replay_segment(path: &Path) -> io::Result<SegmentReplay> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < WAL_HEADER_LEN {
        return Ok(SegmentReplay {
            header_seq: None,
            records: Vec::new(),
            tail: WalTail::Torn { valid_bytes: 0 },
        });
    }
    let mut header = Bytes::copy_from_slice(&raw[..WAL_HEADER_LEN]);
    let magic = header.get_u32();
    let version = header.get_u8();
    header.advance(3);
    let header_seq = header.get_u64();
    if magic != WAL_MAGIC || version != WAL_VERSION {
        return Ok(SegmentReplay {
            header_seq: None,
            records: Vec::new(),
            tail: WalTail::Corrupt { valid_bytes: 0 },
        });
    }
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let tail = loop {
        let remaining = raw.len() - offset;
        if remaining == 0 {
            break WalTail::Clean;
        }
        if remaining < 4 + 8 {
            break WalTail::Torn {
                valid_bytes: offset as u64,
            };
        }
        let mut prefix = Bytes::copy_from_slice(&raw[offset..offset + 12]);
        let len = prefix.get_u32();
        let seq = prefix.get_u64();
        if len > WAL_MAX_RECORD_BYTES {
            // A length this absurd is damage, not data.
            break WalTail::Corrupt {
                valid_bytes: offset as u64,
            };
        }
        let total = 12 + len as usize + 8;
        if remaining < total {
            break WalTail::Torn {
                valid_bytes: offset as u64,
            };
        }
        let body = &raw[offset + 12..offset + 12 + len as usize];
        let mut crc_bytes = Bytes::copy_from_slice(&raw[offset + total - 8..offset + total]);
        let stored_crc = crc_bytes.get_u64();
        let crc = checksum64(checksum64(0, &raw[offset..offset + 12]), body);
        if crc != stored_crc {
            break WalTail::Corrupt {
                valid_bytes: offset as u64,
            };
        }
        match decode_body(body) {
            Some((key, cell)) => records.push(WalRecord { seq, key, cell }),
            // Checksum fine but body undecodable: a writer bug or an
            // unknown record kind from the future — stop, don't guess.
            None => {
                break WalTail::Corrupt {
                    valid_bytes: offset as u64,
                }
            }
        }
        offset += total;
    };
    Ok(SegmentReplay {
        header_seq: Some(header_seq),
        records,
        tail,
    })
}

fn decode_body(body: &[u8]) -> Option<(PartitionKey, Cell)> {
    let mut buf = Bytes::copy_from_slice(body);
    if buf.len() < 3 || buf.get_u8() != WAL_RECORD_PUT {
        return None;
    }
    let key_len = buf.get_u16() as usize;
    if buf.len() < key_len {
        return None;
    }
    let key = PartitionKey::new(buf.split_to(key_len).to_vec());
    let cell = Cell::decode(&mut buf)?;
    if !buf.is_empty() {
        return None; // trailing garbage inside a checksummed body
    }
    Some((key, cell))
}

/// Lists the WAL segment files in `dir`, as `(seq, path)` sorted by seq.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_segment_seq(name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::TempDir;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    fn write_records(dir: &Path, n: u64) -> PathBuf {
        let mut w = WalWriter::create(dir, 1, 100, FsyncPolicy::Always).expect("create");
        for i in 0..n {
            let seq = w
                .append(&pk(i % 3), &Cell::synthetic(i, 0))
                .expect("append");
            assert_eq!(seq, 100 + i);
        }
        assert_eq!(w.records(), n);
        w.path().to_path_buf()
    }

    #[test]
    fn roundtrip_replays_everything() {
        let tmp = TempDir::new("wal-roundtrip");
        let path = write_records(tmp.path(), 20);
        let replay = replay_segment(&path).expect("replay");
        assert_eq!(replay.header_seq, Some(1));
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(replay.records.len(), 20);
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.seq, 100 + i as u64);
            assert_eq!(rec.key, pk(i as u64 % 3));
            assert_eq!(rec.cell, Cell::synthetic(i as u64, 0));
        }
    }

    #[test]
    fn empty_segment_is_clean() {
        let tmp = TempDir::new("wal-empty");
        let w = WalWriter::create(tmp.path(), 7, 0, FsyncPolicy::Never).expect("create");
        let replay = replay_segment(w.path()).expect("replay");
        assert_eq!(replay.header_seq, Some(7));
        assert!(replay.records.is_empty());
        assert_eq!(replay.tail, WalTail::Clean);
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let tmp = TempDir::new("wal-torn");
        let path = write_records(tmp.path(), 10);
        let full = std::fs::read(&path).expect("read");
        // Truncate mid-way through the last record.
        let cut = full.len() - 5;
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let replay = replay_segment(&path).expect("replay");
        assert_eq!(replay.records.len(), 9, "all but the torn record");
        match replay.tail {
            WalTail::Torn { valid_bytes } => {
                // The valid prefix ends exactly where record 10 started.
                let rec_len = (full.len() - WAL_HEADER_LEN) / 10;
                assert_eq!(valid_bytes as usize, WAL_HEADER_LEN + 9 * rec_len);
            }
            other => panic!("expected torn tail, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_is_detected_as_corruption() {
        let tmp = TempDir::new("wal-flip");
        let path = write_records(tmp.path(), 10);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a bit inside the 6th record's body.
        let rec_len = (bytes.len() - WAL_HEADER_LEN) / 10;
        let target = WAL_HEADER_LEN + 5 * rec_len + 20;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write");
        let replay = replay_segment(&path).expect("replay");
        assert_eq!(replay.records.len(), 5, "stops at last valid record");
        assert!(matches!(replay.tail, WalTail::Corrupt { .. }));
    }

    #[test]
    fn header_damage_yields_zero_records() {
        let tmp = TempDir::new("wal-header");
        let path = write_records(tmp.path(), 3);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let replay = replay_segment(&path).expect("replay");
        assert!(replay.records.is_empty());
        assert_eq!(replay.header_seq, None);
        assert_eq!(replay.tail, WalTail::Corrupt { valid_bytes: 0 });
        // And a header shorter than 16 bytes is a torn tail.
        std::fs::write(&path, &bytes[..7]).expect("write");
        let replay = replay_segment(&path).expect("replay");
        assert_eq!(replay.tail, WalTail::Torn { valid_bytes: 0 });
    }

    #[test]
    fn version_1_segments_are_refused_not_replayed() {
        use crate::block::{fnv1a, FNV1A_BASIS};
        let tmp = TempDir::new("wal-v1");
        let path = write_records(tmp.path(), 4);
        let pristine = std::fs::read(&path).expect("read");
        assert_eq!(pristine[4], WAL_VERSION);
        let replay = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write");
            replay_segment(&path).expect("replay")
        };
        // Re-seals every record of a segment image under `digest`.
        let reseal = |bytes: &mut [u8], basis: u64, digest: fn(u64, &[u8]) -> u64| {
            let rec_len = (bytes.len() - WAL_HEADER_LEN) / 4;
            for rec in bytes[WAL_HEADER_LEN..].chunks_exact_mut(rec_len) {
                let (covered, crc) = rec.split_at_mut(rec_len - 8);
                let sealed = digest(digest(basis, &covered[..12]), &covered[12..]);
                crc.copy_from_slice(&sealed.to_be_bytes());
            }
        };
        // Versions 1 and 2 (sealed with XXH64) over today's records: the
        // header check refuses the segment whole.
        for version in [1, 2] {
            let mut old = pristine.clone();
            old[4] = version;
            reseal(&mut old, 0, checksum64);
            let refused = replay(&old);
            assert!(refused.records.is_empty());
            assert_eq!(refused.header_seq, None);
            assert_eq!(refused.tail, WalTail::Corrupt { valid_bytes: 0 });
        }
        // A real version-1 segment seals its records with FNV-1a: behind
        // today's version byte the first record's checksum refuses it.
        let mut fnv = pristine.clone();
        reseal(&mut fnv, FNV1A_BASIS, fnv1a);
        let refused = replay(&fnv);
        assert!(refused.records.is_empty());
        let valid_bytes = WAL_HEADER_LEN as u64;
        assert_eq!(refused.tail, WalTail::Corrupt { valid_bytes });
        // The reseal procedure itself is sound.
        let mut same = pristine.clone();
        reseal(&mut same, 0, checksum64);
        assert_eq!(same, pristine);
        assert_eq!(replay(&same).records.len(), 4);
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(segment_file_name(42), "wal-0000000042.log");
        assert_eq!(parse_segment_seq("wal-0000000042.log"), Some(42));
        assert_eq!(parse_segment_seq("sst-0000000042.sst"), None);
        assert_eq!(parse_segment_seq("wal-x.log"), None);
        let tmp = TempDir::new("wal-list");
        for seq in [3u64, 1, 2] {
            drop(WalWriter::create(tmp.path(), seq, 0, FsyncPolicy::Never).expect("create"));
        }
        let listed = list_segments(tmp.path()).expect("list");
        let seqs: Vec<u64> = listed.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn create_refuses_to_clobber() {
        let tmp = TempDir::new("wal-clobber");
        drop(WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Never).expect("first"));
        assert!(WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::Never).is_err());
    }

    #[test]
    fn every_n_policy_appends_fine() {
        let tmp = TempDir::new("wal-everyn");
        let mut w = WalWriter::create(tmp.path(), 1, 0, FsyncPolicy::EveryN(3)).expect("create");
        for i in 0..10u64 {
            w.append(&pk(0), &Cell::synthetic(i, 0)).expect("append");
        }
        w.sync().expect("sync");
        let replay = replay_segment(w.path()).expect("replay");
        assert_eq!(replay.records.len(), 10);
        assert_eq!(replay.tail, WalTail::Clean);
    }
}
