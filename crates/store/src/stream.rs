//! The read path: [`Engine::stream_partition`], what `fold_partition`,
//! `get` and `get_range` of both tables run. A partition held by a single
//! source — one run, or the memtable alone — streams straight from where
//! it lies; one held by several is copied source by source and merged
//! newest-wins ([`crate::merge::merge_newest_wins`]).

use crate::engine::Engine;
use crate::merge::merge_newest_wins;
use crate::receipt::ReadReceipt;
use crate::run::Medium;
use crate::schema::{Cell, CellRef, ClusteringKey, PartitionKey};
use bytes::Bytes;
use std::io;

/// Clustering keys `from..=to`.
pub(crate) type ClusteringRange = (ClusteringKey, ClusteringKey);

/// Every clustering key: a whole-partition read.
pub(crate) const WHOLE: ClusteringRange = (0, ClusteringKey::MAX);

/// Cells copied out of a source: payloads back to back in one buffer and
/// one fixed-size entry per cell, so collecting allocates per growth step
/// rather than per cell.
#[derive(Debug, Default)]
pub(crate) struct CellBuf {
    payloads: Vec<u8>,
    /// Clustering key, kind, and where the payload ends in `payloads` (it
    /// starts where the previous cell's ended).
    index: Vec<(ClusteringKey, u8, usize)>,
}

impl CellBuf {
    /// Room for `cells` cells whose payloads add up to `payload_bytes`.
    pub(crate) fn with_capacity(cells: usize, payload_bytes: usize) -> CellBuf {
        CellBuf {
            payloads: Vec::with_capacity(payload_bytes),
            index: Vec::with_capacity(cells),
        }
    }

    // Once per cell read: `Table<M>`'s reads are generic, so they are built
    // in the caller's crate, where this would otherwise be a call per cell.
    #[inline]
    pub(crate) fn push(&mut self, cell: CellRef<'_>) {
        self.payloads.extend_from_slice(cell.payload);
        self.index
            .push((cell.clustering, cell.kind, self.payloads.len()));
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The collected cells, in the order they were pushed.
    pub(crate) fn iter(&self) -> impl Iterator<Item = CellRef<'_>> {
        let mut start = 0;
        self.index.iter().map(move |&(clustering, kind, end)| {
            let payload = &self.payloads[start..end];
            start = end;
            CellRef {
                clustering,
                kind,
                payload,
            }
        })
    }

    /// Owned cells whose payloads are views into the one frozen buffer.
    pub(crate) fn into_cells(self) -> Vec<Cell> {
        let payloads = Bytes::from(self.payloads);
        let mut start = 0;
        self.index
            .into_iter()
            .map(|(clustering, kind, end)| {
                let payload = payloads.slice(start..end);
                start = end;
                Cell {
                    clustering,
                    kind,
                    payload,
                }
            })
            .collect()
    }
}

impl<M: Medium> Engine<M> {
    /// Streams the cells of `pk` within `range` — the newest version of
    /// each, in clustering order — from the live runs (ascending
    /// generation) and the memtable (newer than any run) into `visit`, and
    /// returns the receipt of the work. On `Err`, `visit` may have seen part
    /// of the partition.
    pub(crate) fn stream_partition(
        &mut self,
        pk: &PartitionKey,
        range: ClusteringRange,
        mut visit: impl FnMut(CellRef<'_>),
    ) -> io::Result<ReadReceipt> {
        let mut receipt = ReadReceipt::default();
        // The first run holding the partition stays in a local, so a read
        // of a partition one run holds, the common case, allocates nothing.
        let (mut first, mut more) = (None, Vec::new());
        for run in &self.runs {
            if let Some(entry) = run.probe(pk, &mut receipt) {
                match first {
                    None => first = Some((run, entry)),
                    Some(_) => more.push((run, entry)),
                }
            }
        }
        let mem = self.memtable.range(pk, range.0..=range.1);
        receipt.memtable_hit = mem.is_some();
        let cache = &mut self.cache;
        let mut returned = 0;
        let mut visit = |cell: CellRef<'_>| {
            returned += 1;
            visit(cell);
        };
        match (first, mem) {
            (None, None) => {}
            (Some((run, entry)), None) if more.is_empty() => {
                run.scan_partition(entry, range, cache, &mut receipt, &mut visit)?
            }
            (None, Some(cells)) => cells.for_each(|cell| visit(cell.as_cell_ref())),
            (first, mem) => {
                let mut sources = Vec::with_capacity(more.len() + 2);
                for (run, entry) in first.into_iter().chain(more) {
                    let mut cells = CellBuf::default();
                    run.scan_partition(entry, range, cache, &mut receipt, |cell| cells.push(cell))?;
                    sources.push(cells);
                }
                let mut cells = CellBuf::default();
                for cell in mem.into_iter().flatten() {
                    cells.push(cell.as_cell_ref());
                }
                sources.push(cells);
                merge_newest_wins(
                    sources.iter().map(CellBuf::iter),
                    |cell| cell.clustering,
                    &mut visit,
                );
            }
        }
        // Per-run counts would double-count merged cells; report what the
        // caller was handed.
        receipt.cells_returned = returned;
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_buf_keeps_cells_and_order() {
        let cells = [
            Cell::new(3, 1, vec![1, 2, 3]),
            Cell::new(4, 2, Vec::new()),
            Cell::synthetic(9, 0),
        ];
        let mut buf = CellBuf::default();
        for cell in &cells {
            buf.push(cell.as_cell_ref());
        }
        assert_eq!(buf.len(), 3);
        let borrowed: Vec<CellRef<'_>> = buf.iter().collect();
        let expect: Vec<CellRef<'_>> = cells.iter().map(Cell::as_cell_ref).collect();
        assert_eq!(borrowed, expect);
        assert_eq!(buf.into_cells(), cells);
    }
}
