//! Receipt parity of the columnar block: over arbitrary cells and ranges,
//! [`fold_block`] reads a block exactly as the row layout it replaced
//! (SSTable format version 2) did, which is what keeps every receipt, and
//! so every simulated figure, where it was.
//!
//! The row layout is kept here, and only here, as the reference: its
//! builder, its `fold_block` and its block selection. Over partitions of
//! cells with payloads of 0–300 bytes, many spanning several blocks and
//! some past the column-index threshold, and over ranges that start
//! mid-block and stop early, the two layouts must close the same blocks,
//! visit the same cells in the same order, bill the same `cells_scanned`,
//! `bytes_read` and `column_index_blocks`, and end the scan at the same
//! block.

use bytes::BytesMut;
use kvs_store::block::{build_blocks, fold_block, BlockColumns, BlockMeta};
use kvs_store::{
    Cell, CellRef, PartitionKey, ReadReceipt, Table, TableOptions, BLOCK_TARGET_BYTES,
};
use proptest::prelude::*;

/// Version 2's blocks: each cell's clustering key (`u64` LE), kind,
/// payload length (`u32` LE) and payload, cell after cell, a block closing
/// at the first cell at or past the target.
fn row_blocks(cells: &[Cell]) -> (BytesMut, Vec<BlockMeta>) {
    let (mut data, mut metas) = (BytesMut::new(), Vec::new());
    let (mut start, mut first, mut count) = (0, 0, 0);
    for (i, cell) in cells.iter().enumerate() {
        if count == 0 {
            first = cell.clustering;
        }
        count += 1;
        cell.encode(&mut data);
        if data.len() - start >= BLOCK_TARGET_BYTES || i + 1 == cells.len() {
            metas.push(BlockMeta {
                offset: start as u64,
                len: (data.len() - start) as u32,
                cells: count,
                crc: 0,
                first_clustering: first,
                last_clustering: cell.clustering,
            });
            (start, count) = (data.len(), 0);
        }
    }
    (data, metas)
}

/// Version 2's `fold_block`: decodes row after row, charging each cell it
/// decodes; `false` once a cell past `to` ends the scan.
fn row_fold_block(
    meta: &BlockMeta,
    mut block: &[u8],
    (from, to): (u64, u64),
    receipt: &mut ReadReceipt,
    visit: &mut impl FnMut(CellRef<'_>),
) -> bool {
    let mut in_block = 0;
    while let Some((header, rest)) = block.split_first_chunk::<13>() {
        let (clustering, tail) = header.split_first_chunk::<8>().expect("13 bytes");
        let (&kind, len) = tail.split_first().expect("5 bytes");
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        let (payload, rest) = rest.split_at(len);
        block = rest;
        let clustering = u64::from_le_bytes(*clustering);
        receipt.cells_scanned += 1;
        receipt.bytes_read += (13 + len) as u64;
        if clustering > to {
            return false;
        }
        if clustering >= from {
            visit(CellRef {
                clustering,
                kind,
                payload,
            });
        }
        in_block += 1;
    }
    assert_eq!((in_block, block.len()), (meta.cells, 0));
    true
}

/// Version 2's partition scan: the blocks a read of `from..=to` reaches,
/// chosen from their metadata, folded in order until one ends the scan.
fn row_scan(
    data: &[u8],
    metas: &[BlockMeta],
    column_index_size: usize,
    (from, to): (u64, u64),
) -> (Vec<Cell>, ReadReceipt) {
    let mut r = ReadReceipt::default();
    let bytes: u64 = metas.iter().map(|m| m.len as u64).sum();
    let reached = if bytes > column_index_size as u64 {
        r.used_column_index = true;
        let lo = metas.partition_point(|b| b.last_clustering < from);
        let hi = metas.partition_point(|b| b.first_clustering <= to).max(lo);
        r.column_index_blocks += (hi - lo) as u64;
        &metas[lo..hi]
    } else {
        let within = metas.partition_point(|b| b.last_clustering <= to);
        &metas[..metas.len().min(within + 1)]
    };
    let mut cells = Vec::new();
    let mut visit = |cell: CellRef<'_>| cells.push(owned(cell));
    for meta in reached {
        let block = &data[meta.offset as usize..][..meta.len as usize];
        if !row_fold_block(meta, block, (from, to), &mut r, &mut visit) {
            break;
        }
    }
    (cells, r)
}

fn owned(cell: CellRef<'_>) -> Cell {
    Cell::new(cell.clustering, cell.kind, cell.payload.to_vec())
}

/// Cells from `(gap, kind, payload length)`: keys ascend by the gaps, so a
/// range bound can fall between two cells.
fn cells_of(spec: &[(u64, u8, usize)]) -> Vec<Cell> {
    let mut key = 0;
    let cell = |(i, &(gap, kind, len)): (usize, &(u64, u8, usize))| {
        key += gap;
        Cell::new(key, kind, vec![i as u8 ^ kind; len])
    };
    spec.iter().enumerate().map(cell).collect()
}

/// `from..=to` scaled from two draws over the keys and a little past them;
/// with `open`, to the end of the partition.
fn range_of(cells: &[Cell], (a, b, open): (u16, u16, bool)) -> (u64, u64) {
    let span = cells.last().map_or(0, |c| c.clustering) + 2;
    let at = |x: u16| (x as u64 * span) / u16::MAX as u64;
    (at(a), if open { u64::MAX } else { at(b) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Block by block, from any block on: the same verdict, cells and bill.
    #[test]
    fn a_columnar_block_folds_as_its_row_layout_did(
        spec in proptest::collection::vec((1u64..4, any::<u8>(), 0usize..=300), 1..900),
        range in (any::<u16>(), any::<u16>(), any::<bool>()),
        start in any::<u16>(),
    ) {
        let cells = cells_of(&spec);
        let (row_data, row_metas) = row_blocks(&cells);
        let (mut data, mut metas) = (BytesMut::new(), Vec::new());
        let refs = cells.iter().map(Cell::as_cell_ref);
        build_blocks(refs, &mut BlockColumns::default(), &mut data, &mut metas);
        prop_assert_eq!(&metas, &row_metas);
        prop_assert_eq!(data.len(), row_data.len());

        let range = range_of(&cells, range);
        let (mut row_cells, mut row_r) = (Vec::new(), ReadReceipt::default());
        let (mut col_cells, mut col_r) = (Vec::new(), ReadReceipt::default());
        for meta in &metas[start as usize % metas.len()..] {
            let block = |data: &[u8]| data[meta.offset as usize..][..meta.len as usize].to_vec();
            let mut row_visit = |cell: CellRef<'_>| row_cells.push(owned(cell));
            let row = row_fold_block(meta, &block(&row_data), range, &mut row_r, &mut row_visit);
            let mut col_visit = |cell: CellRef<'_>| col_cells.push(owned(cell));
            let col = fold_block(1, meta, &block(&data), range, &mut col_r, &mut col_visit)
                .expect("a sound block folds");
            prop_assert_eq!(col, row, "early exit differs at block {:?}", meta);
            prop_assert_eq!(&col_cells, &row_cells);
            prop_assert_eq!(col_r, row_r);
            if !row {
                break;
            }
        }
    }

    /// Through the table's read path: a range read of a one-run partition
    /// returns and bills what version 2's scan did.
    #[test]
    fn a_range_read_bills_as_the_row_layout_did(
        spec in proptest::collection::vec((1u64..4, any::<u8>(), 0usize..=300), 1..900),
        range in (any::<u16>(), any::<u16>(), any::<bool>()),
        threshold in 0usize..3,
    ) {
        let cells = cells_of(&spec);
        let column_index_size = [1_024, 16 * 1_024, 64 * 1_024][threshold];
        let mut table = Table::new(TableOptions {
            column_index_size,
            ..TableOptions::default()
        });
        let pk = PartitionKey::from_id(3);
        table.ingest_sorted(&[(pk.clone(), cells.clone())]);
        let (from, to) = range_of(&cells, range);
        let (got, r) = table.get_range(&pk, from..=to);
        let (row_data, row_metas) = row_blocks(&cells);
        let (want, want_r) = row_scan(&row_data, &row_metas, column_index_size, (from, to));
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            (r.cells_scanned, r.bytes_read, r.column_index_blocks, r.used_column_index),
            (want_r.cells_scanned, want_r.bytes_read, want_r.column_index_blocks, want_r.used_column_index)
        );
    }
}
