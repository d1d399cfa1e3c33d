//! The read path: [`Engine::stream_partition`], what `fold_partition`,
//! `aggregate`, `get` and `fold_range` of both tables run, into a
//! [`Sink`]. A partition held by a single source — one run, or the
//! memtable alone — streams straight from where it lies; one held by
//! several is copied source by source, each into a buffer sized from the
//! partition index, and merged newest-wins
//! ([`crate::merge::merge_newest_wins`]). A [`Tally`], the aggregation
//! read's sink, counts a partition one run holds a block at a time.

use crate::block::{tally_block, BlockMeta};
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
///
/// It knows the range of kinds it has counted into, `0..end`, and clears
/// and walks that range alone: a partition holds a handful of kinds among
/// 256.
#[derive(Debug, Clone)]
pub struct Tally {
    /// How many cells of each kind the partition holds; zero from `end`.
    kinds: [u64; 256],
    /// One past the greatest kind counted since the tally was cleared.
    end: usize,
    /// The last cell's clustering key and kind.
    last: Option<(ClusteringKey, u8)>,
    /// The last cell's payload.
    last_payload: Vec<u8>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            kinds: [0; 256],
            end: 0,
            last: None,
            last_payload: Vec::new(),
        }
    }
}

/// Two tallies are equal when they hold the same counts and the same last
/// cell, whatever range each has counted into.
impl PartialEq for Tally {
    fn eq(&self, other: &Self) -> bool {
        self.kinds == other.kinds && self.last() == other.last()
    }
}

impl Eq for Tally {}

impl Tally {
    /// The partition's last cell; `None` when it holds none.
    pub fn last(&self) -> Option<CellRef<'_>> {
        self.last.map(|(clustering, kind)| CellRef {
            clustering,
            kind,
            payload: &self.last_payload,
        })
    }

    /// Every kind counted, with its count, in kind order.
    pub fn counts(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        let counted = self.kinds[..self.end].iter().enumerate();
        counted
            .filter(|&(_, &count)| count != 0)
            .map(|(kind, &count)| (kind as u8, count))
    }

    /// How many cells of `kind` were counted.
    pub fn count(&self, kind: u8) -> u64 {
        self.kinds[kind as usize]
    }

    /// Cells counted, of every kind.
    pub fn cells(&self) -> u64 {
        self.kinds[..self.end].iter().sum()
    }

    /// Counts `count` more cells of `kind`.
    pub fn add(&mut self, kind: u8, count: u64) {
        self.kinds[kind as usize] += count;
        self.end = self.end.max(kind as usize + 1);
    }

    /// Takes one cell of `kind` out of the counts — a cell its reader
    /// counts as bookkeeping, not data — and narrows the range to the
    /// kinds still counted. The tally must count a cell of `kind`.
    pub fn remove(&mut self, kind: u8) {
        self.kinds[kind as usize] -= 1;
        while self.end > 0 && self.kinds[self.end - 1] == 0 {
            self.end -= 1;
        }
    }

    /// Counts one whole block of run `generation` a column at a time
    /// ([`tally_block`]).
    pub(crate) fn add_block(
        &mut self,
        generation: u64,
        meta: &BlockMeta,
        block: &[u8],
        receipt: &mut ReadReceipt,
    ) -> io::Result<()> {
        let bound = tally_block(generation, meta, block, receipt, &mut self.kinds)?;
        self.end = self.end.max(bound);
        Ok(())
    }

    /// Forgets every count and the last cell, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.kinds[..self.end].fill(0);
        self.end = 0;
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

/// A tally counts every cell it is handed, and where one run holds the
/// partition alone counts that run's blocks a column at a time
/// ([`Run::tally_partition`]) instead.
impl Sink for Tally {
    fn cell(&mut self, cell: CellRef<'_>) {
        self.add(cell.kind, 1);
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
    fn a_tally_lists_every_kind_it_counts_in_order() {
        let naive = |tally: &Tally| -> Vec<(u8, u64)> {
            let all = (0..=u8::MAX).map(|kind| (kind, tally.count(kind)));
            all.filter(|&(_, count)| count > 0).collect()
        };
        let mut tally = Tally::default();
        assert_eq!((tally.counts().count(), tally.cells()), (0, 0));
        // Both ends, kinds out of order, a kind counted twice, and a count
        // whose bits are only high ones.
        for (kind, count) in [(7, 2), (0, 1), (255, 5), (8, 3), (100, 1 << 62), (8, 1)] {
            tally.add(kind, count);
        }
        let want = [(0, 1), (7, 2), (8, 4), (100, 1 << 62), (255, 5)];
        assert_eq!(tally.counts().collect::<Vec<_>>(), want);
        assert_eq!(naive(&tally), want);
        assert_eq!(tally.cells(), 12 + (1 << 62));
        // Taking the top kind's last cell out narrows the range to the
        // kinds left, and a cleared tally counts nothing.
        (0..5).for_each(|_| tally.remove(255));
        assert_eq!(tally.end, 101);
        tally.remove(8);
        assert_eq!(tally.count(8), 3);
        tally.clear();
        assert_eq!(
            (tally.counts().count(), tally.cells(), tally.end),
            (0, 0, 0)
        );
        assert_eq!(naive(&tally), []);
    }
}
