//! An allocation budget for the socket message path: what one aggregation
//! sub-request, and one replicated write, may take from the heap, counted
//! over every thread of a loopback cluster — master, its readers, the
//! slaves' connection readers and their workers.
//!
//! The count repeats from run to run where timings do not, so it can hold
//! a gain: a payload that is copied twice, a map built to be read once or
//! a buffer that grows by doubling each shows here as a whole number.
//! Before the in-place encoders a sub-request took 17 allocations; before
//! frames carried many partitions, 3 (a payload copy per frame at each end
//! and the slave's copy of the key). What is left is a frame's payload
//! copy, shared by the keys it carries.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Consistency};
use kvs_net::{
    spawn_local_cluster, MixedOp, MixedPlan, NetConfig, NetMaster, NetServerConfig, WriteOptions,
};
use kvs_store::{Cell, TableOptions};
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

const SERVER: NetServerConfig = NetServerConfig {
    workers_per_node: 2,
    queue_depth: 64,
};

// One test, so that nothing else in the process allocates while it counts.
#[test]
fn the_message_path_stays_within_its_allocation_budget() {
    // ---- A read: 2 000 partitions × 100 cells over 2 nodes. ----
    let data = ClusterData::load(
        2,
        1,
        TableOptions::default(),
        uniform_partitions(2_000, 100, 4),
    );
    let (cluster, routes) = spawn_local_cluster(data, SERVER).expect("cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    // The warm-up sizes every reused buffer and learns the credit window.
    master.run_query(&routes).expect("warm-up query");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = master.run_query(&routes).expect("counted query");
    let per_request = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / routes.len() as f64;
    assert_eq!(report.result.total_cells, 2_000 * 100);
    let keys_per_frame = routes.len() as f64 / report.request_frames as f64;
    println!(
        "allocations per sub-request: {per_request:.2}; keys per request frame: \
         {keys_per_frame:.1}, per response frame: {:.1}",
        routes.len() as f64 / report.response_frames as f64
    );
    assert!(
        keys_per_frame >= 8.0,
        "a request frame carried {keys_per_frame:.1} keys, at least 8 wanted"
    );
    assert!(
        per_request <= 1.0,
        "a sub-request allocated {per_request:.2} times, budget 1"
    );
    master.shutdown();
    cluster.shutdown();

    // ---- A write: QUORUM at rf 2, one 16-byte cell each. ----
    let data = ClusterData::load(2, 2, TableOptions::default(), uniform_partitions(64, 8, 4));
    let (cluster, routes) = spawn_local_cluster(data, SERVER).expect("cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    let writes = |phase: u64| -> Vec<MixedPlan> {
        (0..1_000u64)
            .map(|i| MixedPlan {
                route: routes[i as usize % routes.len()].clone(),
                op: MixedOp::Write {
                    cells: vec![Cell::new(phase * 10_000 + i, (i % 5) as u8, vec![0xAB; 16])],
                },
                consistency: Consistency::Quorum,
            })
            .collect()
    };
    let options = WriteOptions::default();
    master
        .run_mixed(&writes(0), None, &options)
        .expect("warm-up writes");
    let plans = writes(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = master
        .run_mixed(&plans, None, &options)
        .expect("counted writes");
    let per_write = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / plans.len() as f64;
    assert_eq!(outcome.writes_acked as usize, plans.len());
    println!("allocations per QUORUM write: {per_write:.2}");
    assert!(
        per_write <= PARENT_ALLOCATIONS_PER_WRITE,
        "a QUORUM write allocated {per_write:.2} times, {PARENT_ALLOCATIONS_PER_WRITE} before"
    );
    master.shutdown();
    cluster.shutdown();
}

/// What the same thousand writes took at the commit before the frame
/// payloads lost their second allocation (c58496e; the count repeated
/// exactly over three runs): the write path must not pay for the read
/// path's gain.
const PARENT_ALLOCATIONS_PER_WRITE: f64 = 78.26;
