#![warn(missing_docs)]

//! # kvs-store
//!
//! A single-node wide-column key-value store modelled on Apache Cassandra's
//! storage engine, built as the database substrate for the ICPP'17
//! reproduction. It is a *real* store — writes land in a memtable, flushes
//! produce immutable sorted SSTables with bloom filters and two-level
//! indexing, reads merge all runs with newest-wins semantics — but it is
//! in-memory and instrumented: every read returns a [`ReadReceipt`]
//! describing exactly what work was done (bloom probes, index seeks,
//! column-index blocks touched, cells scanned, cache hits).
//!
//! ## The two-level index (why Figure 6 has a kink)
//!
//! Cassandra indexes data twice: a *partition index* maps each partition
//! key to its location, and — only for partitions larger than
//! `column_index_size` (64 KiB by default) — a *column index* subdivides the
//! partition into blocks so range reads can seek. The paper found that this
//! threshold shows up as a discontinuity in single-request latency at
//! ≈ 1425 cells per row (1425 × 46 B ≈ 64 KiB); our store reproduces the
//! mechanism: [`SsTable`] builds a column index exactly when the encoded
//! partition exceeds the threshold, and [`CostModel`] charges for it.
//!
//! ## Cost model
//!
//! Simulated experiments need a service *time* for each read. Rather than
//! timing this in-memory store (which would be nothing like a 2010 Cassandra
//! node with SATA disks), [`CostModel::paper_cassandra`] converts a
//! [`ReadReceipt`] into milliseconds using the regression constants the
//! paper published (Formula 6), so the virtual cluster's database behaves
//! like the one the authors measured.
//!
//! ## The durable tier (feature `durable`)
//!
//! With the `durable` cargo feature the store gains a real persistence
//! subsystem: a checksummed write-ahead log ([`wal`]), a block-based
//! on-disk SSTable format ([`sst_file`], 4 KiB blocks, block index +
//! bloom + footer-with-CRC), an atomically-replaced [`manifest`] naming
//! the live runs, and crash [`recovery`] that replays the WAL and
//! rebuilds the memtable on open. [`DurableTable`] ties them together
//! with the same flush-on-threshold / tiered-compaction lifecycle as the
//! in-memory [`Table`], and its reads charge disk block reads distinctly
//! from cache hits on the [`ReadReceipt`], so the Formula 6 mechanics —
//! including the 64 KiB column-index threshold — survive on disk. See
//! `docs/STORE.md` for the byte-level formats.

pub mod block;
pub mod bloom;
pub mod cache;
pub mod compaction;
pub mod cost;
#[cfg(feature = "durable")]
pub mod durable;
#[cfg(feature = "durable")]
pub mod manifest;
pub mod memtable;
mod merge;
pub mod receipt;
#[cfg(feature = "durable")]
pub mod recovery;
pub mod schema;
#[cfg(feature = "durable")]
pub mod sst_file;
pub mod sstable;
mod stream;
pub mod table;
pub mod tiering;
#[cfg(feature = "durable")]
pub mod wal;

pub use block::BLOCK_TARGET_BYTES;
pub use bloom::BloomFilter;
pub use cache::Lru;
pub use cost::CostModel;
#[cfg(feature = "durable")]
pub use durable::{CrashPoint, DurableMetrics, DurableOptions, DurableTable, TempDir};
pub use memtable::Memtable;
pub use receipt::ReadReceipt;
#[cfg(feature = "durable")]
pub use recovery::RecoveryReport;
pub use schema::{Cell, CellRef, PartitionKey};
pub use sstable::{SsTable, SsTableOptions};
pub use table::{Table, TableMetrics, TableOptions};
pub use tiering::{StorageHierarchy, Tier};
#[cfg(feature = "durable")]
pub use wal::FsyncPolicy;
