//! The wire protocol between master and slaves.
//!
//! The paper's prototype runs a "count by type" aggregation: the master
//! sends one [`QueryRequest`] per partition key, each slave reads the
//! partition locally and answers with a [`QueryResponse`] holding the
//! per-kind counts.
//!
//! The replicated write path adds two more message bodies:
//! [`WriteRequest`] carries a batch of cells plus a last-write-wins
//! timestamp, and [`WriteAck`] reports whether the replica applied it and
//! which version the partition holds afterwards. Read-modify-write rides
//! the same bodies (frame kind `Rmw`, payload `WriteRequest`): the slave
//! reads the partition pre-image before applying, preserving sequential
//! semantics on the replica.

use kvs_store::{nonzero_counts, Cell, PartitionKey};
use std::collections::BTreeMap;

/// A sub-query: "aggregate this partition".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Unique id within the distributed query.
    pub request_id: u64,
    /// The partition to aggregate.
    pub partition: PartitionKey,
}

/// A partial result: per-kind cell counts for one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// Echoes the request id.
    pub request_id: u64,
    /// kind byte → number of cells of that kind.
    pub counts: BTreeMap<u8, u64>,
    /// Total cells aggregated (Σ counts, precomputed for convenience).
    pub cells: u64,
    /// Last-write-wins version of the partition at read time (the
    /// version cell's timestamp), `0` when the partition has never been
    /// written through the replicated write path. The coordinator uses
    /// this for read-repair and staleness accounting.
    pub version: u64,
}

impl QueryResponse {
    /// Builds a response from raw cell kinds.
    pub fn from_kinds(request_id: u64, kinds: impl IntoIterator<Item = u8>) -> Self {
        let mut tally = [0; 256];
        for kind in kinds {
            tally[kind as usize] += 1;
        }
        Self::from_tally(request_id, &tally)
    }

    /// Builds a response from a tally indexed by kind byte — what a fold
    /// over a partition's cells counts into.
    pub fn from_tally(request_id: u64, tally: &[u64; 256]) -> Self {
        let mut response = QueryResponse {
            request_id,
            ..QueryResponse::empty()
        };
        for (kind, count) in nonzero_counts(tally) {
            response.counts.insert(kind, count);
            response.cells += count;
        }
        response
    }

    /// Sets the partition's LWW version (builder style).
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Merges another partial result into this one (the master's reduce).
    pub fn merge(&mut self, other: &QueryResponse) {
        for (&kind, &count) in &other.counts {
            *self.counts.entry(kind).or_insert(0) += count;
        }
        self.cells += other.cells;
        self.version = self.version.max(other.version);
    }

    /// An empty accumulator for the master's reduce.
    pub fn empty() -> Self {
        QueryResponse {
            request_id: 0,
            counts: BTreeMap::new(),
            cells: 0,
            version: 0,
        }
    }
}

/// The master's reduce of a query's answers, dense: every kind's count in
/// a slot of its own, as a slave's read and the simulator count them, so
/// folding an answer in ([`crate::Codec::fold_response`]) adds one slot a
/// kind and looks nothing up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Totals {
    /// kind byte → number of cells of that kind.
    pub kinds: [u64; 256],
    /// Total cells folded.
    pub cells: u64,
    /// The newest partition version any answer carried.
    pub version: u64,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            kinds: [0; 256],
            cells: 0,
            version: 0,
        }
    }
}

impl Totals {
    /// The counts as a [`QueryResponse`] holds them: every kind counted,
    /// with its count.
    pub fn counts(&self) -> BTreeMap<u8, u64> {
        nonzero_counts(&self.kinds).collect()
    }
}

/// A replicated write: apply `cells` to `partition` iff `timestamp` is
/// newer than the partition's current version (last-write-wins; ties
/// keep the incumbent, so replaying a hint is idempotent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRequest {
    /// Unique id within the distributed operation.
    pub request_id: u64,
    /// The partition to write.
    pub partition: PartitionKey,
    /// LWW timestamp, wall-clock nanoseconds drawn at the coordinator.
    pub timestamp: u64,
    /// The cells to apply.
    pub cells: Vec<Cell>,
}

/// A replica's answer to a [`WriteRequest`] (or an RMW).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteAck {
    /// Echoes the request id.
    pub request_id: u64,
    /// Whether the write was applied (`false`: a newer version already
    /// held the partition, or the store refused the write).
    pub applied: bool,
    /// The partition's LWW version after the decision. The coordinator
    /// counts an ack toward the consistency level iff
    /// `version >= timestamp` — the replica provably holds data at least
    /// as new as this write.
    pub version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_kinds_counts_correctly() {
        let r = QueryResponse::from_kinds(1, [0u8, 1, 1, 2, 2, 2]);
        assert_eq!(r.cells, 6);
        assert_eq!(r.counts[&0], 1);
        assert_eq!(r.counts[&1], 2);
        assert_eq!(r.counts[&2], 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut acc = QueryResponse::empty();
        acc.merge(&QueryResponse::from_kinds(1, [0u8, 1]));
        acc.merge(&QueryResponse::from_kinds(2, [1u8, 2]));
        assert_eq!(acc.cells, 4);
        assert_eq!(acc.counts[&0], 1);
        assert_eq!(acc.counts[&1], 2);
        assert_eq!(acc.counts[&2], 1);
    }

    #[test]
    fn empty_kinds() {
        let r = QueryResponse::from_kinds(9, std::iter::empty());
        assert_eq!(r.cells, 0);
        assert!(r.counts.is_empty());
        assert_eq!(r.version, 0);
    }

    #[test]
    fn merge_keeps_max_version() {
        let mut acc = QueryResponse::empty();
        acc.merge(&QueryResponse::from_kinds(1, [0u8]).with_version(7));
        acc.merge(&QueryResponse::from_kinds(2, [1u8]).with_version(3));
        assert_eq!(acc.version, 7);
    }
}
