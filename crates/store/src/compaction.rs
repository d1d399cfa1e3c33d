//! Compaction: merging sorted runs, newest generation wins.
//!
//! The table uses a simple size-tiered "major" compaction — merge every
//! live run into one — which is all the experiments need: the paper's
//! datasets are bulk-loaded once and then read-only.

use crate::merge::merge_runs;
use crate::sstable::{SsTable, SsTableOptions};

/// Merges all `runs` into a single SSTable with generation `generation`.
/// On clustering-key conflicts the cell from the highest-generation run
/// wins (runs are sorted by generation internally, so callers may pass them
/// in any order).
pub fn merge_all(mut runs: Vec<SsTable>, opts: SsTableOptions, generation: u64) -> SsTable {
    runs.sort_by_key(|s| s.generation());
    let input = merge_runs(runs.iter().map(|run| run.partitions().collect()).collect());
    SsTable::build(input, opts, generation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receipt::ReadReceipt;
    use crate::schema::{Cell, PartitionKey};

    fn pk(i: u64) -> PartitionKey {
        PartitionKey::from_id(i)
    }

    fn run(generation: u64, parts: Vec<(u64, Vec<Cell>)>) -> SsTable {
        let input = parts.into_iter().map(|(p, cells)| (pk(p), cells)).collect();
        SsTable::build(input, SsTableOptions::default(), generation)
    }

    #[test]
    fn merge_unions_partitions() {
        let a = run(1, vec![(1, vec![Cell::synthetic(0, 0)])]);
        let b = run(2, vec![(2, vec![Cell::synthetic(0, 0)])]);
        let merged = merge_all(vec![a, b], SsTableOptions::default(), 3);
        assert_eq!(merged.partition_count(), 2);
        assert_eq!(merged.generation(), 3);
    }

    #[test]
    fn newer_generation_wins_conflicts() {
        let old = run(1, vec![(1, vec![Cell::new(5, 1, vec![1])])]);
        let new = run(2, vec![(1, vec![Cell::new(5, 2, vec![2])])]);
        // Pass out of order to check the internal sort.
        let merged = merge_all(vec![new, old], SsTableOptions::default(), 3);
        let mut r = ReadReceipt::default();
        let cells = merged.read(&pk(1), &mut r).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].kind, 2);
    }

    #[test]
    fn merge_interleaves_clustering_keys() {
        let a = run(
            1,
            vec![(
                1,
                (0..10).step_by(2).map(|c| Cell::synthetic(c, 0)).collect(),
            )],
        );
        let b = run(
            2,
            vec![(
                1,
                (1..10).step_by(2).map(|c| Cell::synthetic(c, 1)).collect(),
            )],
        );
        let merged = merge_all(vec![a, b], SsTableOptions::default(), 3);
        let mut r = ReadReceipt::default();
        let cells = merged.read(&pk(1), &mut r).unwrap();
        let keys: Vec<u64> = cells.iter().map(|c| c.clustering).collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn merging_one_or_zero_runs() {
        let single = merge_all(
            vec![run(1, vec![(1, vec![Cell::synthetic(0, 0)])])],
            SsTableOptions::default(),
            2,
        );
        assert_eq!(single.partition_count(), 1);
        let empty = merge_all(Vec::new(), SsTableOptions::default(), 1);
        assert_eq!(empty.partition_count(), 0);
    }
}
