//! The data model: partition keys, clustering keys and cells.
//!
//! Mirrors Cassandra's wide-column layout as the paper describes it (§II):
//! "a partitioned distributed HashMap where each entry contains another
//! SortedMap". The *partition key* decides which node (and which slot of
//! the local hash structures) holds the data; the *clustering key* orders
//! cells inside the partition.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// A partition key: opaque bytes, hashed for placement, ordered for the
/// SSTable partition index.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionKey(pub Vec<u8>);

impl PartitionKey {
    /// Builds a key from anything byte-like.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        PartitionKey(bytes.into())
    }

    /// Convenience constructor from an integer id (big-endian so that
    /// numeric order == lexicographic order).
    pub fn from_id(id: u64) -> Self {
        PartitionKey(id.to_be_bytes().to_vec())
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the raw key in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the key is empty (legal, if unusual).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for PartitionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(&self.0) {
            if s.chars().all(|c| c.is_ascii_graphic() || c == ' ') {
                return write!(f, "pk\"{s}\"");
            }
        }
        write!(f, "pk{:02x?}", &self.0)
    }
}

impl From<&str> for PartitionKey {
    fn from(s: &str) -> Self {
        PartitionKey(s.as_bytes().to_vec())
    }
}

impl From<u64> for PartitionKey {
    fn from(id: u64) -> Self {
        PartitionKey::from_id(id)
    }
}

/// The clustering key type: cells within a partition sort by it.
pub type ClusteringKey = u64;

/// One cell (column) of a wide row: clustering key, a one-byte `kind` tag
/// (the attribute the paper's "count by type" aggregation groups on), and
/// an opaque payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Position of the cell inside its partition.
    pub clustering: ClusteringKey,
    /// Small categorical attribute; the cluster layer's `CountByKind`
    /// aggregation groups on this byte.
    pub kind: u8,
    /// Opaque payload bytes.
    pub payload: Bytes,
}

/// Fixed per-cell encoding overhead: clustering (8) + kind (1) + payload
/// length prefix (4).
pub const CELL_HEADER_BYTES: usize = 13;

/// The payload size that makes a cell encode to exactly 46 bytes — chosen
/// so Cassandra's 64 KiB column-index threshold lands at
/// `⌊65536 / 46⌋ = 1424` cells, reproducing the ≈ 1425-element
/// discontinuity the paper observed in Figure 6.
pub const DEFAULT_PAYLOAD_BYTES: usize = 33;

impl Cell {
    /// Builds a cell.
    pub fn new(clustering: ClusteringKey, kind: u8, payload: impl Into<Bytes>) -> Self {
        Cell {
            clustering,
            kind,
            payload: payload.into(),
        }
    }

    /// A cell with a deterministic filler payload of `DEFAULT_PAYLOAD_BYTES`
    /// (46 encoded bytes total — see [`DEFAULT_PAYLOAD_BYTES`]).
    pub fn synthetic(clustering: ClusteringKey, kind: u8) -> Self {
        let mut payload = vec![0u8; DEFAULT_PAYLOAD_BYTES];
        // Derive filler from the clustering key so payloads differ and
        // accidental deduplication in tests would be caught.
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (clustering as u8).wrapping_add(i as u8);
        }
        Cell::new(clustering, kind, payload)
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        CELL_HEADER_BYTES + self.payload.len()
    }

    /// Appends the binary encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        self.as_cell_ref().encode(buf);
    }

    /// Decodes one cell from the front of `buf`, advancing it.
    /// Returns `None` on truncated input.
    pub fn decode(buf: &mut Bytes) -> Option<Cell> {
        if buf.len() < CELL_HEADER_BYTES {
            return None;
        }
        let clustering = buf.get_u64_le();
        let kind = buf.get_u8();
        let len = buf.get_u32_le() as usize;
        if buf.len() < len {
            return None;
        }
        let payload = buf.split_to(len);
        Some(Cell {
            clustering,
            kind,
            payload,
        })
    }
}

/// A cell borrowed from wherever it is stored — block bytes, an SSTable's
/// buffer, a memtable or row-cache entry: what the read path's stream
/// (`fold_partition`) hands to its visitor, so that reading a partition
/// allocates nothing per cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellRef<'a> {
    /// Position of the cell inside its partition.
    pub clustering: ClusteringKey,
    /// The categorical attribute aggregations group on.
    pub kind: u8,
    /// The payload bytes, in place.
    pub payload: &'a [u8],
}

impl CellRef<'_> {
    /// Appends the binary encoding to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.clustering);
        buf.put_u8(self.kind);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_slice(self.payload);
    }
}

impl Cell {
    /// This cell, borrowed.
    pub fn as_cell_ref(&self) -> CellRef<'_> {
        CellRef {
            clustering: self.clustering,
            kind: self.kind,
            payload: &self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_key_constructors_agree() {
        assert_eq!(PartitionKey::from("abc"), PartitionKey::new(*b"abc"));
        assert_eq!(PartitionKey::from(7u64), PartitionKey::from_id(7));
        assert_eq!(PartitionKey::from_id(7).len(), 8);
        assert!(PartitionKey::new(Vec::new()).is_empty());
    }

    #[test]
    fn integer_keys_sort_numerically() {
        let keys: Vec<PartitionKey> = [1u64, 255, 256, 65536].iter().map(|&i| i.into()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "big-endian ids must sort numerically");
    }

    #[test]
    fn debug_renders_printable_keys() {
        assert_eq!(
            format!("{:?}", PartitionKey::from("cube-1")),
            "pk\"cube-1\""
        );
        let raw = format!("{:?}", PartitionKey::new(vec![0xff, 0x00]));
        assert!(raw.starts_with("pk["), "{raw}");
    }

    #[test]
    fn cell_roundtrips() {
        let cell = Cell::new(42, 3, vec![1, 2, 3, 4]);
        let mut buf = BytesMut::new();
        cell.encode(&mut buf);
        assert_eq!(buf.len(), cell.encoded_len());
        let mut bytes = buf.freeze();
        let back = Cell::decode(&mut bytes).unwrap();
        assert_eq!(back, cell);
        assert!(bytes.is_empty());
    }

    #[test]
    fn synthetic_cell_is_exactly_46_bytes() {
        let cell = Cell::synthetic(9, 1);
        assert_eq!(cell.encoded_len(), 46);
        // And the column-index threshold math the workspace relies on:
        assert_eq!(65536 / cell.encoded_len(), 1424);
    }

    #[test]
    fn truncated_decode_returns_none() {
        let cell = Cell::new(1, 2, vec![9; 16]);
        let mut buf = BytesMut::new();
        cell.encode(&mut buf);
        let full = buf.freeze();
        for cut in [0usize, 5, CELL_HEADER_BYTES, full.len() - 1] {
            let mut partial = full.slice(..cut);
            assert!(Cell::decode(&mut partial).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn many_cells_decode_in_sequence() {
        let mut buf = BytesMut::new();
        let cells: Vec<Cell> = (0..10).map(|i| Cell::synthetic(i, (i % 3) as u8)).collect();
        for c in &cells {
            c.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        for expected in &cells {
            assert_eq!(&Cell::decode(&mut bytes).unwrap(), expected);
        }
        assert!(Cell::decode(&mut bytes).is_none());
    }
}
