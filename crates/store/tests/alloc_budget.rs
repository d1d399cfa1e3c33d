//! Allocation budgets for the read path: what one fold of a partition may
//! take from the heap once the table is warm, on either tier.
//!
//! The durable set-up is one node's share of an aggregation over the
//! durable tier: ten partitions of 10 000 cells (1 120 blocks) read whole,
//! round robin, through a 256-block cache. A cache that copied every
//! missed block into itself took 112 allocations a fold here, for blocks
//! it evicted before they came round again. Admission on the second miss
//! copies none. The RAM set-up is one node's share of `agg_fine`: 100-cell
//! partitions folded where they lie, which allocates nothing when one run
//! holds each, and only the merge's buffers, sized from the partition
//! index, when three do. The aggregation read, which counts blocks whole,
//! allocates nothing warm on either tier. The counts repeat from run to
//! run where timings do not.

use kvs_store::{
    Cell, DurableOptions, DurableTable, FsyncPolicy, PartitionKey, Table, TableOptions, Tally,
    TempDir,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

/// The system allocator, counting the calls that hand out memory on each
/// thread, so that a test counts only what its own thread allocates.
struct Counting;

thread_local! {
    static ALLOCATIONS: Counter<u64> = const { Counter::new(0) };
}

fn count_one() {
    // A counter without a destructor is never torn down, but a thread
    // exiting must not be able to make the allocator panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Counter::get)
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract is `GlobalAlloc`'s; the counter touches no memory it manages.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: see above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` through this allocator, with this
    // layout, as `GlobalAlloc::dealloc` requires of the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: as for `dealloc`; a move to a new block counts as an
    // allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: see above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PARTITIONS: u64 = 10;
const CELLS: u64 = 10_000;

#[test]
fn a_warm_durable_fold_stays_within_its_allocation_budget() {
    let tmp = TempDir::new("alloc-budget");
    let opts = DurableOptions {
        block_cache_blocks: 256,
        fsync: FsyncPolicy::Never,
        ..DurableOptions::default()
    };
    let (mut table, _) = DurableTable::open(tmp.path(), opts).expect("open");
    let keys: Vec<PartitionKey> = (0..PARTITIONS).map(PartitionKey::from_id).collect();
    let mut input: Vec<(PartitionKey, Vec<Cell>)> = keys
        .iter()
        .map(|pk| {
            let cells = (0..CELLS).map(|c| Cell::synthetic(c, (c % 4) as u8));
            (pk.clone(), cells.collect())
        })
        .collect();
    input.sort_by(|a, b| a.0.cmp(&b.0));
    table.ingest_sorted(&input).expect("ingest");
    drop(input);

    // A round folds every partition once, counting its cells and kinds the
    // way a slave answers an aggregation.
    let round = |table: &mut DurableTable| -> (u64, u64) {
        let (mut cells, mut hits) = (0u64, 0u64);
        let mut kinds = [0u64; 256];
        for pk in &keys {
            let receipt = table
                .fold_partition(pk, |cell| {
                    cells += 1;
                    kinds[cell.kind as usize] += 1;
                })
                .expect("fold");
            hits += receipt.disk_block_cache_hits;
        }
        assert_eq!(kinds[..4], [CELLS / 4 * PARTITIONS; 4]);
        (cells, hits)
    };
    // The warm-up fills the cache and grows its two hash maps to the size
    // they keep.
    for _ in 0..3 {
        round(&mut table);
    }
    let rounds = 10;
    let before = allocations();
    let mut hits = 0;
    for _ in 0..rounds {
        let (cells, round_hits) = round(&mut table);
        assert_eq!(cells, PARTITIONS * CELLS);
        hits += round_hits;
    }
    let folds = rounds * PARTITIONS;
    let per_fold = (allocations() - before) as f64 / folds as f64;
    println!("allocations per fold: {per_fold:.2}");
    println!("block-cache hits per round: {}", hits / rounds);
    assert!(
        per_fold <= 0.5,
        "a warm fold allocated {per_fold:.2} times, budget 0.5"
    );

    // The aggregation read over the same round robin, its tally reused;
    // the first read grows the tally's last-cell buffer.
    let mut tally = Tally::default();
    table.aggregate(&keys[0], &mut tally).expect("aggregate");
    let before = allocations();
    for _ in 0..rounds {
        for pk in &keys {
            table.aggregate(pk, &mut tally).expect("aggregate");
            assert_eq!(tally.cells(), CELLS);
        }
    }
    let per_read = (allocations() - before) as f64 / folds as f64;
    println!("allocations per aggregation read: {per_read:.2}");
    assert!(
        per_read <= 0.5,
        "a warm aggregation read allocated {per_read:.2} times, budget 0.5"
    );
}

/// Allocations per fold of every partition of `table`, over ten warm
/// rounds, each fold counting cells and kinds as a slave answers an
/// aggregation.
fn ram_folds(table: &mut Table, keys: &[PartitionKey], cells: u64) -> f64 {
    let mut round = || {
        let mut kinds = [0u64; 256];
        for pk in keys {
            let receipt = table.fold_partition(pk, |cell| kinds[cell.kind as usize] += 1);
            assert_eq!(receipt.cells_returned, cells);
        }
        assert_eq!(kinds[..4].iter().sum::<u64>(), cells * keys.len() as u64);
    };
    round();
    let (rounds, before) = (10, allocations());
    for _ in 0..rounds {
        round();
    }
    (allocations() - before) as f64 / (rounds * keys.len()) as f64
}

#[test]
fn a_warm_ram_fold_allocates_nothing() {
    const RAM_PARTITIONS: u64 = 200;
    const RAM_CELLS: u64 = 100;
    let keys: Vec<PartitionKey> = (0..RAM_PARTITIONS).map(PartitionKey::from_id).collect();
    // `runs` runs, each holding every partition: run `r` the cells whose
    // clustering key is `r` modulo `runs`.
    let table = |runs: u64| {
        let mut table = Table::new(TableOptions::default());
        for r in 0..runs {
            let run: Vec<(PartitionKey, Vec<Cell>)> = keys
                .iter()
                .map(|pk| {
                    let cells = (r..RAM_CELLS).step_by(runs as usize);
                    (
                        pk.clone(),
                        cells.map(|c| Cell::synthetic(c, (c % 4) as u8)).collect(),
                    )
                })
                .collect();
            table.ingest_sorted(&run);
        }
        assert_eq!(table.sstable_count(), runs as usize);
        table
    };
    let mut one_run = table(1);
    let one = ram_folds(&mut one_run, &keys, RAM_CELLS);
    // The first read grows the tally's last-cell buffer.
    let mut tally = Tally::default();
    one_run.aggregate(&keys[0], &mut tally);
    let before = allocations();
    for pk in &keys {
        one_run.aggregate(pk, &mut tally);
        assert_eq!(tally.cells(), RAM_CELLS);
    }
    assert_eq!(allocations(), before, "an aggregation read allocated");
    let three = ram_folds(&mut table(3), &keys, RAM_CELLS);
    println!("allocations per RAM fold: one run {one:.2}, three runs {three:.2}");
    assert_eq!(one, 0.0, "a fold of a partition one run holds allocated");
    // The merge copies each run's share into a buffer of its own (payloads
    // and index, each sized once from the run's partition index), keeps
    // the buffers in a list and its heads in another, and the probe keeps
    // the runs past the first in a third: 3 × 2 + 3.
    assert!(
        three <= 9.0,
        "a three-run fold allocated {three:.2} times, budget 9"
    );
}
