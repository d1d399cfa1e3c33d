//! Read receipts: an itemized bill of the work a read performed.
//!
//! The paper's methodology hinges on knowing *where time goes*. Inside the
//! database that means counting the mechanical steps of the read path; the
//! [`crate::CostModel`] then converts a receipt into simulated service time,
//! and experiments use receipts to validate that the store did what they
//! intended (e.g. that a Figure 6 run really did cross the
//! column-index threshold).

/// Work accounting for one logical read (possibly merging several runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadReceipt {
    /// Bloom filters probed (one per SSTable consulted).
    pub bloom_probes: u64,
    /// Bloom probes that returned "definitely absent" (run skipped).
    pub bloom_negatives: u64,
    /// Bloom probes that said "maybe" but the partition index then missed —
    /// the false positives the paper blames for latency variance.
    pub bloom_false_positives: u64,
    /// Binary searches in SSTable partition indexes.
    pub partition_index_seeks: u64,
    /// Column-index blocks read (0 when the partition is below the 64 KiB
    /// threshold and has no column index).
    pub column_index_blocks: u64,
    /// Whether any consulted partition carried a column index.
    pub used_column_index: bool,
    /// Cells decoded (scanned), including ones a range filter discarded.
    pub cells_scanned: u64,
    /// Cells actually returned to the caller.
    pub cells_returned: u64,
    /// Data bytes decoded.
    pub bytes_read: u64,
    /// Whether the memtable contributed cells.
    pub memtable_hit: bool,
    /// Whether the row cache served the read outright.
    pub row_cache_hit: bool,
    /// SSTables whose data pages were actually read.
    pub sstables_read: u64,
    /// Data blocks fetched from disk (durable tier; 0 on the in-memory
    /// path). Each one was read, checksummed and decoded.
    pub disk_blocks_read: u64,
    /// Data blocks served from the block cache instead of disk.
    pub disk_block_cache_hits: u64,
    /// Bytes fetched from disk (block payloads only, not index/footer).
    pub disk_bytes_read: u64,
}

impl ReadReceipt {
    /// Merges the accounting of a sub-read into this receipt.
    pub fn absorb(&mut self, other: &ReadReceipt) {
        self.bloom_probes += other.bloom_probes;
        self.bloom_negatives += other.bloom_negatives;
        self.bloom_false_positives += other.bloom_false_positives;
        self.partition_index_seeks += other.partition_index_seeks;
        self.column_index_blocks += other.column_index_blocks;
        self.used_column_index |= other.used_column_index;
        self.cells_scanned += other.cells_scanned;
        self.cells_returned += other.cells_returned;
        self.bytes_read += other.bytes_read;
        self.memtable_hit |= other.memtable_hit;
        self.row_cache_hit |= other.row_cache_hit;
        self.sstables_read += other.sstables_read;
        self.disk_blocks_read += other.disk_blocks_read;
        self.disk_block_cache_hits += other.disk_block_cache_hits;
        self.disk_bytes_read += other.disk_bytes_read;
    }

    /// Scan efficiency: returned / scanned (1.0 for point reads that waste
    /// nothing, lower when a range filter discards cells).
    pub fn scan_efficiency(&self) -> f64 {
        if self.cells_scanned == 0 {
            1.0
        } else {
            self.cells_returned as f64 / self.cells_scanned as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_ors_flags() {
        let mut a = ReadReceipt {
            bloom_probes: 2,
            cells_scanned: 10,
            cells_returned: 10,
            bytes_read: 460,
            ..Default::default()
        };
        let b = ReadReceipt {
            bloom_probes: 1,
            bloom_negatives: 1,
            used_column_index: true,
            memtable_hit: true,
            cells_scanned: 5,
            cells_returned: 2,
            bytes_read: 230,
            sstables_read: 1,
            disk_blocks_read: 3,
            disk_block_cache_hits: 2,
            disk_bytes_read: 4096,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.bloom_probes, 3);
        assert_eq!(a.bloom_negatives, 1);
        assert_eq!(a.cells_scanned, 15);
        assert_eq!(a.cells_returned, 12);
        assert_eq!(a.bytes_read, 690);
        assert!(a.used_column_index);
        assert!(a.memtable_hit);
        assert!(!a.row_cache_hit);
        assert_eq!(a.sstables_read, 1);
        assert_eq!(a.disk_blocks_read, 3);
        assert_eq!(a.disk_block_cache_hits, 2);
        assert_eq!(a.disk_bytes_read, 4096);
    }

    #[test]
    fn scan_efficiency() {
        let r = ReadReceipt {
            cells_scanned: 100,
            cells_returned: 25,
            ..Default::default()
        };
        assert_eq!(r.scan_efficiency(), 0.25);
        assert_eq!(ReadReceipt::default().scan_efficiency(), 1.0);
    }
}
