//! An allocation budget for the simulator: what one simulated aggregation
//! sub-request may take from the heap, counted over a whole `run_query` —
//! the store reads of phase 1, the event replay and the end-of-query
//! analysis.
//!
//! The count repeats from run to run where timings do not, so it can hold
//! a gain: a boxed event, a per-hop reference count or a map built per
//! request shows here as a whole number. When every hop of a sub-request
//! was a boxed closure over shared cells, one took 22 allocations; with
//! typed events over indices, what is left is per query, not per request.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{run_query, ClusterConfig, ClusterData};
use kvs_store::{PartitionKey, TableOptions};
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

/// Allocations one simulated sub-request may cost, on average.
const BUDGET_PER_SUBREQUEST: f64 = 0.5;

// One test, so that nothing else in the process allocates while it counts.
#[test]
fn a_simulated_subrequest_stays_within_its_allocation_budget() {
    // The benchmark's shape: 2 000 partitions × 100 cells on 16 nodes.
    let parts = uniform_partitions(2_000, 100, 4);
    let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
    let mut data = ClusterData::load(16, 1, TableOptions::default(), parts);
    let cfg = ClusterConfig::paper_optimized_master(16);
    let warm = run_query(&cfg, &mut data, &keys);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run_query(&cfg, &mut data, &keys);
    let per_request = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / keys.len() as f64;
    assert_eq!(result.total_cells, 2_000 * 100);
    assert_eq!(result.makespan, warm.makespan, "the replay must repeat");
    println!("allocations per simulated sub-request: {per_request:.3}");
    assert!(
        per_request <= BUDGET_PER_SUBREQUEST,
        "a simulated sub-request allocated {per_request:.3} times, budget {BUDGET_PER_SUBREQUEST}"
    );
}
