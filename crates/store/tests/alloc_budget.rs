//! An allocation budget for the durable read path: what one fold of a
//! 10 000-cell partition may take from the heap once the table is warm.
//!
//! The set-up is one node's share of an aggregation over the durable tier:
//! ten partitions of 10 000 cells (1 120 blocks) read whole, round robin,
//! through a 256-block cache. A cache that copied every missed block into
//! itself took 112 allocations a fold here, for blocks it evicted before
//! they came round again. Admission on the second miss copies none, and
//! the count repeats from run to run where timings do not.

use kvs_store::{Cell, DurableOptions, DurableTable, FsyncPolicy, PartitionKey, TempDir};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract is `GlobalAlloc`'s; the counter touches no memory it manages.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: see above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PARTITIONS: u64 = 10;
const CELLS: u64 = 10_000;

// One test, so that nothing else in the process allocates while it counts.
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut hits = 0;
    for _ in 0..rounds {
        let (cells, round_hits) = round(&mut table);
        assert_eq!(cells, PARTITIONS * CELLS);
        hits += round_hits;
    }
    let folds = rounds * PARTITIONS;
    let per_fold = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / folds as f64;
    println!("allocations per fold: {per_fold:.2}");
    println!("block-cache hits per round: {}", hits / rounds);
    assert!(
        per_fold <= 0.5,
        "a warm fold allocated {per_fold:.2} times, budget 0.5"
    );
}
