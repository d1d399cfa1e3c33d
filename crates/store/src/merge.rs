//! Linear newest-wins merging of already-sorted sources: a read of a
//! partition held by several sources and a merge of whole runs are both
//! k-way merges over the handful of sources a table has, so the next key
//! is picked by looking at every source's head — one pass, no tree. The
//! rule, everywhere: **on equal keys the newest source wins** — sources
//! are passed oldest first and the last one holding a key supplies it.

use crate::schema::{ClusteringKey, PartitionKey};
use crate::stream::CellBuf;
use std::io;

/// Merges `sources` — each strictly ascending by `key`, ordered oldest
/// first — into one ascending stream handed to `emit`. An item whose key
/// also occurs in a newer source is dropped.
pub(crate) fn merge_newest_wins<T, I: Iterator<Item = T>>(
    sources: impl IntoIterator<Item = I>,
    key: impl Fn(&T) -> ClusteringKey,
    mut emit: impl FnMut(T),
) {
    let mut sources: Vec<(Option<T>, I)> = sources
        .into_iter()
        .map(|mut source| (source.next(), source))
        .collect();
    loop {
        let mut next: Option<(ClusteringKey, usize)> = None;
        for (i, (head, _)) in sources.iter().enumerate() {
            if let Some(k) = head.as_ref().map(&key) {
                // `<=`: among equal keys the last, i.e. newest, source stays.
                if next.is_none_or(|(min, _)| k <= min) {
                    next = Some((k, i));
                }
            }
        }
        let Some((min, newest)) = next else { return };
        for (i, (head, rest)) in sources.iter_mut().enumerate() {
            if head.as_ref().is_some_and(|item| key(item) == min) {
                let item = std::mem::replace(head, rest.next());
                if let (true, Some(item)) = (i == newest, item) {
                    emit(item);
                }
            }
        }
    }
}

/// Merges whole runs — each a stream of `(partition, cells)` ascending by
/// partition key, with cells ascending by clustering key, ordered oldest
/// first — into one handed to `emit` a partition at a time: the union of
/// the partitions, one held by several merged cell by cell, newest run
/// winning. Each run is read one partition ahead; the first error ends it.
pub(crate) fn merge_runs<I>(
    runs: Vec<I>,
    mut emit: impl FnMut(PartitionKey, CellBuf),
) -> io::Result<()>
where
    I: Iterator<Item = io::Result<(PartitionKey, CellBuf)>>,
{
    let mut heads = Vec::with_capacity(runs.len());
    for mut run in runs {
        heads.push((run.next().transpose()?, run));
    }
    loop {
        let keys = heads.iter().filter_map(|(head, _)| head.as_ref());
        let Some(min) = keys.map(|(pk, _)| pk).min().cloned() else {
            return Ok(());
        };
        let mut holders = Vec::new();
        for (head, rest) in &mut heads {
            if head.as_ref().is_some_and(|(pk, _)| *pk == min) {
                let next = rest.next().transpose()?;
                holders.extend(std::mem::replace(head, next).map(|(_, cells)| cells));
            }
        }
        let cells = if holders.len() == 1 {
            holders.remove(0)
        } else {
            let mut merged = CellBuf::default();
            merge_newest_wins(
                holders.iter().map(CellBuf::iter),
                |cell| cell.clustering,
                |cell| merged.push(cell),
            );
            merged
        };
        emit(min, cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Cell;

    fn merged(sources: Vec<Vec<(u64, u8)>>) -> Vec<(u64, u8)> {
        let mut out = Vec::new();
        merge_newest_wins(
            sources.into_iter().map(Vec::into_iter),
            |&(k, _)| k,
            |item| out.push(item),
        );
        out
    }

    #[test]
    fn newest_source_wins_on_equal_keys() {
        let got = merged(vec![
            vec![(1, 0), (3, 0), (5, 0)],
            vec![(3, 1), (4, 1)],
            vec![(0, 2), (3, 2), (9, 2)],
        ]);
        assert_eq!(got, vec![(0, 2), (1, 0), (3, 2), (4, 1), (5, 0), (9, 2)]);
    }

    #[test]
    fn empty_and_single_sources() {
        assert!(merged(Vec::new()).is_empty());
        assert!(merged(vec![Vec::new(), Vec::new()]).is_empty());
        assert_eq!(
            merged(vec![Vec::new(), vec![(7, 1), (u64::MAX, 1)]]),
            vec![(7, 1), (u64::MAX, 1)]
        );
    }

    #[test]
    fn runs_merge_to_the_union_newest_cells_winning() {
        let pk = PartitionKey::from_id;
        let run = |parts: Vec<(PartitionKey, Vec<Cell>)>| {
            parts.into_iter().map(|(pk, cells)| {
                let mut buf = CellBuf::default();
                cells.iter().for_each(|cell| buf.push(cell.as_cell_ref()));
                Ok((pk, buf))
            })
        };
        let old = run(vec![
            (
                pk(1),
                vec![Cell::new(5, 1, vec![1]), Cell::new(6, 1, vec![1])],
            ),
            (pk(3), vec![Cell::synthetic(0, 0)]),
        ]);
        let new = run(vec![
            (
                pk(1),
                vec![Cell::new(4, 2, vec![2]), Cell::new(5, 2, vec![2])],
            ),
            (pk(2), vec![Cell::synthetic(1, 1)]),
        ]);
        let mut got = Vec::new();
        merge_runs(vec![old, new], |pk, cells| {
            got.push((pk, cells.into_cells()))
        })
        .expect("merge");
        let keys: Vec<&PartitionKey> = got.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [&pk(1), &pk(2), &pk(3)]);
        let kinds: Vec<(u64, u8)> = got[0].1.iter().map(|c| (c.clustering, c.kind)).collect();
        assert_eq!(kinds, [(4, 2), (5, 2), (6, 1)]);
        let none: Vec<std::vec::IntoIter<io::Result<(PartitionKey, CellBuf)>>> = Vec::new();
        merge_runs(none, |_, _| panic!("nothing to merge")).expect("merge");
    }
}
