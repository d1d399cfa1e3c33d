//! The one storage engine under the one [`crate::Table`] — memtable →
//! flush → run list → compaction → reads ([`Engine::stream_partition`]) —
//! over a run [`Medium`], and the [`Journal`] by which a medium makes what
//! the engine builds outlive the process. Every run is built in memory; a
//! medium's journal commits it and installs it as a run of its own. On the
//! heap that is the install alone. On disk ([`crate::durable`]) it is the
//! SSTable write, the manifest commit and the garbage collection after it.

use crate::memtable::Memtable;
use crate::merge::merge_runs;
use crate::run::{Medium, Run, RunBuilder, SsTableOptions};
use crate::schema::{Cell, PartitionKey};
use crate::stream::CellBuf;
use bytes::BytesMut;
use std::io;

/// What a medium keeps beside its runs ([`Medium::Journal`]), and the
/// commit steps that install a run built in memory in the engine at their
/// commit point, so memory never lags what would be recovered. Nameable
/// only inside the crate: the two media are the only ones.
pub trait Journal<M: Medium> {
    /// `Err` once the table can no longer be trusted.
    fn check(&self) -> io::Result<()> {
        Ok(())
    }

    /// Records a write before the memtable takes it.
    fn log(&mut self, _pk: &PartitionKey, _cell: &Cell) -> io::Result<()> {
        Ok(())
    }

    /// Forces every recorded write to stable storage.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Commits `run`, the memtable laid out, in the memtable's place; true
    /// when compaction is due.
    fn flush(&mut self, engine: &mut Engine<M>, run: Run<BytesMut>) -> io::Result<bool>;

    /// Commits `run`, every live run merged, in their place.
    fn compaction(&mut self, engine: &mut Engine<M>, run: Run<BytesMut>) -> io::Result<()>;

    /// Commits `run` as newer than every live run.
    fn ingest(&mut self, engine: &mut Engine<M>, run: Run<BytesMut>) -> io::Result<()>;
}

/// Memtable, live runs and the thresholds that move data between them.
pub struct Engine<M: Medium> {
    /// The write buffer, newer than every run.
    pub(crate) memtable: Memtable,
    /// Live runs, ascending generation: the last one holding a cell wins.
    pub(crate) runs: Vec<Run<M>>,
    /// The generation of the next run built.
    pub(crate) next_generation: u64,
    /// What reads keep between them (the durable tier's block cache).
    pub(crate) cache: M::Cache,
    /// How runs are built.
    pub(crate) build: SsTableOptions,
    /// Flush the memtable once it holds this many bytes.
    pub(crate) flush_bytes: usize,
    /// Compact once this many runs are live.
    pub(crate) compaction_threshold: usize,
}

impl<M: Medium> Engine<M> {
    /// Whether the memtable has reached the flush threshold.
    pub(crate) fn flush_due(&self) -> bool {
        self.memtable.bytes() >= self.flush_bytes
    }

    /// Installs `run` as newer than every live run and moves the
    /// generation counter past it.
    pub(crate) fn push(&mut self, run: Run<M>) {
        self.next_generation = run.generation + 1;
        self.runs.push(run);
    }

    /// Installs a flush: `run` holds what the memtable held, and the
    /// memtable starts over empty. True when compaction is due.
    pub(crate) fn install_flush(&mut self, run: Run<M>) -> bool {
        self.push(run);
        self.memtable = Memtable::new();
        self.runs.len() >= self.compaction_threshold
    }

    /// The memtable laid out as a run of the next generation, read where
    /// it lies: it stays as it is until its run is installed.
    pub(crate) fn memtable_run(&self) -> Run<BytesMut> {
        let mut builder = RunBuilder::with_capacity(self.memtable.bytes());
        for (pk, cells) in self.memtable.partitions() {
            builder.push(pk, cells.map(Cell::as_cell_ref));
        }
        builder.finish(&self.build, self.next_generation)
    }

    /// Compaction: every live run merged into one of the next generation,
    /// built as the merge streams it; `None` below two runs.
    pub(crate) fn compacted(&self) -> io::Result<Option<Run<BytesMut>>> {
        if self.runs.len() < 2 {
            return Ok(None);
        }
        // At most what the runs hold: cells the merge drops are not written.
        let held = self.runs.iter().flat_map(|run| &run.partitions);
        let mut builder = RunBuilder::with_capacity(held.map(|p| p.bytes as usize).sum());
        self.merge(false, |pk, cells| builder.push(&pk, cells.iter()))?;
        Ok(Some(builder.finish(&self.build, self.next_generation)))
    }

    /// Installs a compaction: `run` replaces every live run. Returns the
    /// runs it retired.
    pub(crate) fn install_compaction(&mut self, run: Run<M>) -> Vec<Run<M>> {
        let retired = std::mem::take(&mut self.runs);
        self.push(run);
        retired
    }

    /// The whole-run merge ([`merge_runs`]) over every live run and, with
    /// `memtable`, the memtable over them: each partition in key order, its
    /// cells merged newest-wins.
    pub(crate) fn merge(
        &self,
        memtable: bool,
        emit: impl FnMut(PartitionKey, CellBuf),
    ) -> io::Result<()> {
        let mut sources: Vec<Box<dyn Iterator<Item = _> + '_>> = Vec::new();
        for run in &self.runs {
            sources.push(Box::new(run.scan()));
        }
        if memtable {
            sources.push(Box::new(self.memtable.partitions().map(|(pk, cells)| {
                let mut buf = CellBuf::default();
                cells.for_each(|cell| buf.push(cell.as_cell_ref()));
                Ok((pk.clone(), buf))
            })));
        }
        merge_runs(sources, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receipt::ReadReceipt;
    use crate::schema::Cell;

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    /// An engine over heap runs, one per entry of `runs`, oldest first.
    fn engine(runs: Vec<Vec<(u64, Vec<Cell>)>>) -> Engine<BytesMut> {
        let mut engine = Engine {
            memtable: Memtable::new(),
            runs: Vec::new(),
            next_generation: 1,
            cache: (),
            build: SsTableOptions::default(),
            flush_bytes: usize::MAX,
            compaction_threshold: usize::MAX,
        };
        for parts in runs {
            let input: Vec<_> = parts.into_iter().map(|(p, cells)| (pk(p), cells)).collect();
            engine.push(Run::build(&input, &engine.build, engine.next_generation));
        }
        engine
    }

    /// Compacts as the RAM table does; false when there was nothing to do.
    fn compact(engine: &mut Engine<BytesMut>) -> bool {
        let Some(run) = engine.compacted().expect("heap runs read") else {
            return false;
        };
        engine.install_compaction(run);
        true
    }

    fn read(engine: &Engine<BytesMut>, p: u64) -> Vec<Cell> {
        let mut r = ReadReceipt::default();
        let cells = engine.runs[0].read(&pk(p), &mut (), &mut r);
        cells.expect("heap runs read").unwrap_or_default()
    }

    #[test]
    fn merge_unions_partitions() {
        let mut e = engine(vec![
            vec![(1, vec![Cell::synthetic(0, 0)])],
            vec![(2, vec![Cell::synthetic(0, 0)])],
        ]);
        assert!(compact(&mut e));
        assert_eq!(e.runs.len(), 1);
        assert_eq!(e.runs[0].partition_count(), 2);
        assert_eq!(e.runs[0].generation(), 3);
        assert_eq!(e.next_generation, 4);
    }

    #[test]
    fn newer_generation_wins_conflicts() {
        let mut e = engine(vec![
            vec![(1, vec![Cell::new(5, 1, vec![1])])],
            vec![(1, vec![Cell::new(5, 2, vec![2])])],
        ]);
        assert!(compact(&mut e));
        let cells = read(&e, 1);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].kind, 2);
    }

    #[test]
    fn merge_interleaves_clustering_keys() {
        let evens = (0..10).step_by(2).map(|c| Cell::synthetic(c, 0));
        let odds = (1..10).step_by(2).map(|c| Cell::synthetic(c, 1));
        let mut e = engine(vec![vec![(1, evens.collect())], vec![(1, odds.collect())]]);
        assert!(compact(&mut e));
        let keys: Vec<u64> = read(&e, 1).iter().map(|c| c.clustering).collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn merging_one_or_zero_runs() {
        assert!(!compact(&mut engine(Vec::new())));
        let mut single = engine(vec![vec![(1, vec![Cell::synthetic(0, 0)])]]);
        assert!(!compact(&mut single));
        assert_eq!(single.runs[0].generation(), 1);
        assert_eq!(read(&single, 1).len(), 1);
    }
}
