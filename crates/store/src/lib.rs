#![warn(missing_docs)]

//! # kvs-store
//!
//! A single-node wide-column key-value store modelled on Apache Cassandra's
//! storage engine, built as the database substrate for the ICPP'17
//! reproduction: writes land in a memtable, flushes produce immutable
//! sorted SSTables with bloom filters and two-level indexing, reads merge
//! all runs newest-wins, and every read returns a [`ReadReceipt`] itemizing
//! the work done (bloom probes, index seeks, column-index blocks, cells
//! scanned, cache hits, disk blocks read).
//!
//! There is one SSTable format ([`run`]: 4 KiB [`block`]s, a partition
//! index of per-block metadata, a bloom filter), one engine over it
//! (memtable → flush → run list → compaction → reads) and one table type,
//! [`table::Table`]`<M>`, on two [`Medium`]s. [`Table`] holds each run's
//! blocks in one heap buffer and may keep a row cache; its operations
//! cannot fail. [`DurableTable`] is the same table over files
//! ([`sst_file`]) read through a checksum-verifying block cache, with a
//! write-ahead log ([`wal`]) and a [`manifest`] naming the live runs as its
//! journal, and crash [`recovery`] at open; its operations answer
//! `io::Result`. `docs/STORE.md` has the byte-level formats.
//!
//! ## The two-level index (why Figure 6 has a kink)
//!
//! Cassandra indexes data twice: a *partition index* maps each partition
//! key to its location, and — only for partitions larger than
//! `column_index_size` (64 KiB by default) — a *column index* subdivides the
//! partition into blocks so range reads can seek. The paper found that this
//! threshold shows up as a discontinuity in single-request latency at
//! ≈ 1425 cells per row (1425 × 46 B ≈ 64 KiB); both tiers reproduce the
//! mechanism — a partition past the threshold is read through its block
//! list as a column index — and [`CostModel`] charges for it.
//!
//! ## Cost model
//!
//! Simulated experiments price a read's receipt, not its wall time:
//! [`CostModel::paper_cassandra`] converts a [`ReadReceipt`] into the
//! milliseconds of the paper's regression (Formula 6), so the virtual
//! cluster's database behaves like the 2010 one the authors measured.

pub mod block;
pub mod bloom;
pub mod cache;
pub mod cost;
pub mod durable;
mod engine;
pub mod manifest;
pub mod memtable;
mod merge;
pub mod receipt;
pub mod recovery;
pub mod run;
pub mod schema;
pub mod sst_file;
mod stream;
pub mod table;
pub mod wal;

pub use block::BLOCK_TARGET_BYTES;
pub use bloom::BloomFilter;
pub use cache::Lru;
pub use cost::CostModel;
pub use durable::{CrashPoint, DurableMetrics, DurableOptions, DurableTable, TempDir};
pub use memtable::Memtable;
pub use receipt::ReadReceipt;
pub use recovery::RecoveryReport;
pub use run::{Medium, SsTableOptions};
pub use schema::{Cell, CellRef, PartitionKey};
pub use stream::Tally;
pub use table::{Table, TableMetrics, TableOptions};
pub use wal::FsyncPolicy;
