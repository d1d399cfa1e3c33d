//! The read path: [`Engine::stream_partition`], what `fold_partition`,
//! `aggregate`, `get` and `fold_range` of both tables run, into a
//! [`Sink`]. A partition held by a single source — one run, or the
//! memtable alone — streams straight from where it lies; one held by
//! several is copied source by source, each into a buffer sized from the
//! partition index, and merged newest-wins
//! ([`crate::merge::merge_newest_wins`]). A [`Tally`], the aggregation
//! read's sink, counts a partition one run holds a block at a time.

use crate::engine::Engine;
use crate::merge::merge_newest_wins;
use crate::receipt::ReadReceipt;
use crate::run::{Medium, PartitionEntry, Run};
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

/// What one partition read hands what it reads to
/// ([`Engine::stream_partition`]): every cell, in clustering order, unless
/// one run holds the partition alone and the sink reads that run's blocks
/// itself.
pub(crate) trait Sink {
    /// Told, before the first cell, that the read will hand over at most
    /// `cells` cells whose payloads add up to at most `payload_bytes`.
    fn reserve(&mut self, _cells: usize, _payload_bytes: usize) {}

    /// One cell of the partition.
    fn cell(&mut self, cell: CellRef<'_>);

    /// Reads the cells of `entry` within `range` where one run, `run`,
    /// holds the partition and the memtable none of it, and returns how
    /// many it took; the run's scan, cell by cell, unless the sink has a
    /// faster way.
    fn sole_run<M: Medium>(
        &mut self,
        run: &Run<M>,
        entry: &PartitionEntry,
        range: ClusteringRange,
        cache: &mut M::Cache,
        receipt: &mut ReadReceipt,
    ) -> io::Result<u64> {
        scan_cells(self, run, entry, range, cache, receipt)
    }
}

/// [`Sink::sole_run`] cell by cell: the run's one partition scan.
fn scan_cells<M: Medium, S: Sink + ?Sized>(
    sink: &mut S,
    run: &Run<M>,
    entry: &PartitionEntry,
    range: ClusteringRange,
    cache: &mut M::Cache,
    receipt: &mut ReadReceipt,
) -> io::Result<u64> {
    let mut handed = 0;
    run.scan_partition(entry, range, cache, receipt, |cell| {
        handed += 1;
        sink.cell(cell);
    })?;
    Ok(handed)
}

/// A visitor is a sink that takes every cell.
impl<F: FnMut(CellRef<'_>)> Sink for F {
    fn cell(&mut self, cell: CellRef<'_>) {
        self(cell)
    }
}

/// What an aggregation read counts of one partition
/// ([`crate::Table::aggregate`]): how many cells of each kind it holds,
/// and its last cell, the one of greatest clustering key. The tally keeps
/// that cell's payload in a buffer of its own, so a tally reused from
/// read to read stops allocating once the buffer has grown to the
/// largest last payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    /// How many cells of each kind the partition holds.
    pub kinds: [u64; 256],
    /// The last cell's clustering key and kind.
    last: Option<(ClusteringKey, u8)>,
    /// The last cell's payload.
    last_payload: Vec<u8>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            kinds: [0; 256],
            last: None,
            last_payload: Vec::new(),
        }
    }
}

impl Tally {
    /// The partition's last cell; `None` when it holds none.
    pub fn last(&self) -> Option<CellRef<'_>> {
        self.last.map(|(clustering, kind)| CellRef {
            clustering,
            kind,
            payload: &self.last_payload,
        })
    }

    /// Cells counted, of every kind.
    pub fn cells(&self) -> u64 {
        nonzero_counts(&self.kinds).map(|(_, count)| count).sum()
    }

    /// Forgets every count and the last cell, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.kinds = [0; 256];
        self.last = None;
        self.last_payload.clear();
    }

    /// Makes `cell` the last cell.
    pub(crate) fn set_last(&mut self, cell: CellRef<'_>) {
        self.last = Some((cell.clustering, cell.kind));
        self.last_payload.clear();
        self.last_payload.extend_from_slice(cell.payload);
    }
}

/// The counters of `counts` that are not zero, as `(index, count)` in
/// index order: what every reader of a tally's kinds walks them with. A
/// partition holds a handful of kinds among 256, so the walk looks at
/// eight counters at a time and skips the eight when all are zero.
pub fn nonzero_counts(counts: &[u64; 256]) -> impl Iterator<Item = (u8, u64)> + '_ {
    NonZeroCounts {
        counts,
        next: 0,
        mask: 0,
    }
}

/// The walk [`nonzero_counts`] makes.
struct NonZeroCounts<'a> {
    counts: &'a [u64; 256],
    /// The group of eight counters after the one `mask` covers.
    next: usize,
    /// A bit for each non-zero counter of that group not yet handed out.
    mask: u8,
}

impl Iterator for NonZeroCounts<'_> {
    type Item = (u8, u64);

    fn next(&mut self) -> Option<(u8, u64)> {
        while self.mask == 0 {
            let eight: &[u64; 8] = self.counts.as_chunks().0.get(self.next)?;
            self.next += 1;
            if eight.iter().fold(0, |any, &count| any | count) != 0 {
                let bits = eight.iter().enumerate();
                self.mask = bits.fold(0, |mask, (slot, &count)| {
                    mask | u8::from(count != 0) << slot
                });
            }
        }
        let index = (self.next - 1) * 8 + self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some((index as u8, self.counts[index]))
    }
}

/// A tally counts every cell it is handed, and where one run holds the
/// partition alone counts that run's blocks a column at a time
/// ([`Run::tally_partition`]) instead.
impl Sink for Tally {
    fn cell(&mut self, cell: CellRef<'_>) {
        self.kinds[cell.kind as usize] += 1;
        self.set_last(cell);
    }

    fn sole_run<M: Medium>(
        &mut self,
        run: &Run<M>,
        entry: &PartitionEntry,
        range: ClusteringRange,
        cache: &mut M::Cache,
        receipt: &mut ReadReceipt,
    ) -> io::Result<u64> {
        if range != WHOLE {
            return scan_cells(self, run, entry, range, cache, receipt);
        }
        run.tally_partition(entry, cache, receipt, self)
    }
}

impl<M: Medium> Engine<M> {
    /// Streams the cells of `pk` within `range` — the newest version of
    /// each, in clustering order — from the live runs (ascending
    /// generation) and the memtable (newer than any run) into `sink`, and
    /// returns the receipt of the work. On `Err`, `sink` may have seen part
    /// of the partition.
    pub(crate) fn stream_partition(
        &mut self,
        pk: &PartitionKey,
        range: ClusteringRange,
        sink: &mut impl Sink,
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
        // What the memtable holds in range, and at most what the read
        // hands over: every source in full.
        let in_mem = mem.clone().map_or((0, 0), |cells| {
            cells.fold((0, 0), |(n, bytes), cell| {
                (n + 1, bytes + cell.payload.len())
            })
        });
        let held = first.iter().chain(&more).map(|(_, entry)| entry.held());
        sink.reserve(
            held.clone().map(|(n, _)| n).sum::<usize>() + in_mem.0,
            held.map(|(_, bytes)| bytes).sum::<usize>() + in_mem.1,
        );
        let cache = &mut self.cache;
        let mut returned = 0;
        let mut visit = |cell: CellRef<'_>| {
            returned += 1;
            sink.cell(cell);
        };
        match (first, mem) {
            (None, None) => {}
            (Some((run, entry)), None) if more.is_empty() => {
                returned = sink.sole_run(run, entry, range, cache, &mut receipt)?
            }
            (None, Some(cells)) => cells.for_each(|cell| visit(cell.as_cell_ref())),
            (first, mem) => {
                let mut sources = Vec::with_capacity(more.len() + 2);
                for (run, entry) in first.into_iter().chain(more) {
                    // A whole read takes all the run holds; a range, less.
                    let (n, bytes) = if range == WHOLE { entry.held() } else { (0, 0) };
                    let mut cells = CellBuf::with_capacity(n, bytes);
                    run.scan_partition(entry, range, cache, &mut receipt, |cell| cells.push(cell))?;
                    sources.push(cells);
                }
                let mut cells = CellBuf::with_capacity(in_mem.0, in_mem.1);
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

    #[test]
    fn nonzero_counts_lists_every_counter_that_is_not_zero_in_order() {
        let naive = |counts: &[u64; 256]| -> Vec<(u8, u64)> {
            let all = (0..=u8::MAX).zip(counts.iter().copied());
            all.filter(|&(_, count)| count > 0).collect()
        };
        let mut counts = [0u64; 256];
        assert_eq!(nonzero_counts(&counts).count(), 0);
        // Both ends, a whole group of eight, groups with one counter set,
        // and a counter whose bits are only high ones.
        for (kind, count) in [(0, 1), (7, 2), (8, 3), (15, 4), (100, 1 << 63), (255, 5)] {
            counts[kind] = count;
        }
        (16..24).for_each(|kind| counts[kind] = kind as u64);
        assert_eq!(nonzero_counts(&counts).collect::<Vec<_>>(), naive(&counts));
        let all = [1u64; 256];
        assert_eq!(nonzero_counts(&all).collect::<Vec<_>>(), naive(&all));
    }
}
