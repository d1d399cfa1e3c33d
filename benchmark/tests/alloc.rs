//! The counting allocator, alone in its own test process so that no
//! other test's allocations race with the assertions.

use kvs_benchmark::proc::{alloc_counts, arm_alloc_counting};
use std::hint::black_box;

#[test]
fn allocations_are_counted_only_while_armed() {
    let before = alloc_counts();
    black_box(vec![0u8; 4096]);
    black_box(String::from("disarmed"));
    assert_eq!(alloc_counts(), before, "the disarmed path must add nothing");

    arm_alloc_counting(true);
    black_box(vec![0u8; 4096]);
    arm_alloc_counting(false);
    let armed = alloc_counts();
    assert_eq!(armed.0, before.0 + 1);
    assert_eq!(armed.1, before.1 + 4096);

    black_box(vec![0u8; 4096]);
    assert_eq!(alloc_counts(), armed, "disarming stops the count");
}
