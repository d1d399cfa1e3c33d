//! The manifest: the durable tier's single source of truth for which
//! SSTable generations are live and which WAL segments still matter.
//!
//! Commits are atomic: the new image is written to `MANIFEST.tmp`,
//! fsynced, renamed over `MANIFEST`, and the directory is fsynced — a
//! crash leaves either the old manifest or the new one, never a torn
//! mix. Recovery's contract ([`crate::recovery`]): SSTable files whose
//! generation is not in [`Manifest::live`] are orphans (deleted), and
//! every WAL segment with `seq >= wal_seq` replays in ascending order.
//!
//! ## Layout
//!
//! ```text
//! offset size field            notes
//!      0    4 magic            0x4B4D414E ("KMAN")
//!      4    1 version          3
//!      5    3 reserved         zero
//!      8    8 next_generation  next SSTable generation to allocate
//!     16    8 wal_seq          lowest live WAL segment seq
//!     24    8 next_record_seq  next WAL record seq (continuity across
//!                              clean flushes)
//!     32    4 sst_count        number of live generations
//!     36   8n live generations, ascending
//!   36+8n  8 crc              checksum64 over bytes 0..36+8n
//! ```

use crate::block::checksum64;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// The manifest's file name inside a durable table directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Temporary file the atomic-replace protocol writes first.
pub const MANIFEST_TMP_FILE: &str = "MANIFEST.tmp";
/// Manifest magic: `"KMAN"`.
pub const MANIFEST_MAGIC: u32 = 0x4B4D_414E;
/// Current manifest format version.
pub const MANIFEST_VERSION: u8 = 3;

/// The durable tier's commit point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The next SSTable generation to allocate (strictly above every
    /// generation ever committed).
    pub next_generation: u64,
    /// The lowest WAL segment seq that still holds unflushed data; every
    /// segment `>= wal_seq` replays on recovery, everything below is
    /// garbage.
    pub wal_seq: u64,
    /// The next WAL record sequence number (so the global write counter
    /// survives a restart even when all segments were flushed away).
    pub next_record_seq: u64,
    /// Live SSTable generations, ascending (newer wins merges).
    pub live: Vec<u64>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            next_generation: 1,
            wal_seq: 1,
            next_record_seq: 0,
            live: Vec::new(),
        }
    }
}

impl Manifest {
    /// Serializes the manifest, checksum included.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(36 + 8 * self.live.len() + 8);
        buf.put_u32(MANIFEST_MAGIC);
        buf.put_u8(MANIFEST_VERSION);
        buf.put_slice(&[0u8; 3]);
        buf.put_u64(self.next_generation);
        buf.put_u64(self.wal_seq);
        buf.put_u64(self.next_record_seq);
        buf.put_u32(self.live.len() as u32);
        for generation in &self.live {
            buf.put_u64(*generation);
        }
        let crc = checksum64(0, &buf);
        buf.put_u64(crc);
        buf.freeze()
    }

    /// Parses an encoded manifest. `None` on truncation, bad magic /
    /// version, a checksum mismatch, or out-of-order generations — a
    /// damaged manifest must never half-load.
    pub fn decode(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() < 36 + 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_be_bytes(tail.try_into().ok()?);
        if checksum64(0, body) != stored {
            return None;
        }
        let mut buf = Bytes::copy_from_slice(body);
        if buf.get_u32() != MANIFEST_MAGIC || buf.get_u8() != MANIFEST_VERSION {
            return None;
        }
        buf.advance(3);
        let next_generation = buf.get_u64();
        let wal_seq = buf.get_u64();
        let next_record_seq = buf.get_u64();
        let count = buf.get_u32() as usize;
        if buf.len() != count * 8 {
            return None;
        }
        let live: Vec<u64> = (0..count).map(|_| buf.get_u64()).collect();
        if live.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        if live.last().is_some_and(|&g| g >= next_generation) {
            return None;
        }
        Some(Manifest {
            next_generation,
            wal_seq,
            next_record_seq,
            live,
        })
    }

    /// Atomically replaces the manifest in `dir`: tmp write → fsync →
    /// rename → directory fsync. After this returns, a crash at any point
    /// sees exactly this manifest.
    pub fn commit(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join(MANIFEST_TMP_FILE);
        let dst = dir.join(MANIFEST_FILE);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &dst)?;
        // The rename itself must reach the disk before we report success;
        // on Linux that means fsyncing the containing directory.
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Loads the manifest from `dir`. `Ok(None)` when no manifest exists
    /// (a fresh directory); `InvalidData` when one exists but is corrupt —
    /// the live SSTable set is unknowable, so recovery must not guess.
    pub fn load(dir: &Path) -> io::Result<Option<Manifest>> {
        let path = dir.join(MANIFEST_FILE);
        let mut raw = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        match Manifest::decode(&raw) {
            Some(m) => Ok(Some(m)),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt manifest at {}", path.display()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::TempDir;

    fn sample() -> Manifest {
        Manifest {
            next_generation: 9,
            wal_seq: 4,
            next_record_seq: 1234,
            live: vec![2, 5, 8],
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()), Some(m));
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let bytes = sample().encode().to_vec();
        for idx in [0usize, 5, 12, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x01;
            assert!(Manifest::decode(&bad).is_none(), "flip at {idx} accepted");
        }
        for cut in [0usize, 10, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn version_1_manifests_are_refused_not_loaded() {
        use crate::block::{fnv1a, FNV1A_BASIS};
        let pristine = sample().encode().to_vec();
        assert_eq!(pristine[4], MANIFEST_VERSION);
        let sealed = |version: u8, basis: u64, digest: fn(u64, &[u8]) -> u64| {
            let mut bytes = pristine.clone();
            bytes[4] = version;
            let body = bytes.len() - 8;
            let crc = digest(basis, &bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_be_bytes());
            bytes
        };
        // The sealing procedure reproduces a good manifest …
        assert_eq!(sealed(MANIFEST_VERSION, 0, checksum64), pristine);
        // … so what refuses versions 1 and 2 (sealed with XXH64) under
        // today's checksum is the version check, and what refuses FNV-1a
        // seals is the checksum.
        for version in [1, 2] {
            assert_eq!(Manifest::decode(&sealed(version, 0, checksum64)), None);
        }
        assert_eq!(Manifest::decode(&sealed(1, FNV1A_BASIS, fnv1a)), None);
        let fnv_today = sealed(MANIFEST_VERSION, FNV1A_BASIS, fnv1a);
        assert_eq!(Manifest::decode(&fnv_today), None);
        // On disk that is a hard error, never a guessed live set.
        let tmp = TempDir::new("manifest-v1");
        std::fs::write(tmp.path().join(MANIFEST_FILE), sealed(1, 0, checksum64)).expect("write");
        let err = Manifest::load(tmp.path()).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unsorted_or_future_generations_rejected() {
        let mut m = sample();
        m.live = vec![5, 2];
        assert!(Manifest::decode(&m.encode()).is_none());
        m.live = vec![2, 9]; // 9 >= next_generation
        assert!(Manifest::decode(&m.encode()).is_none());
    }

    #[test]
    fn commit_load_roundtrips_and_replaces() {
        let tmp = TempDir::new("manifest");
        assert_eq!(Manifest::load(tmp.path()).expect("load"), None);
        let m1 = sample();
        m1.commit(tmp.path()).expect("commit");
        assert_eq!(Manifest::load(tmp.path()).expect("load"), Some(m1.clone()));
        let mut m2 = m1;
        m2.next_generation = 10;
        m2.live.push(9);
        m2.commit(tmp.path()).expect("commit 2");
        assert_eq!(Manifest::load(tmp.path()).expect("load"), Some(m2));
        // No tmp file left behind.
        assert!(!tmp.path().join(MANIFEST_TMP_FILE).exists());
    }

    #[test]
    fn corrupt_manifest_is_a_hard_error() {
        let tmp = TempDir::new("manifest-corrupt");
        sample().commit(tmp.path()).expect("commit");
        let path = tmp.path().join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = Manifest::load(tmp.path()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
