//! Concurrent stress for [`kvs_cluster::queue`]: the bounded work queue
//! under ≥ 4 producer threads mixing `try_push` and `push_blocking`,
//! with consumers draining slowly enough to force both backpressure
//! paths.
//!
//! What must hold under contention:
//!
//! * **conservation** — every item accepted (`pushed`) is consumed
//!   exactly once; refused items (`busy_rejections`) are returned to the
//!   caller, never enqueued;
//! * **depth bound** — the observed high-water mark never exceeds the
//!   configured capacity;
//! * **counter consistency** — `pushed` equals the number of successful
//!   push calls, `busy_rejections` the number of `Err` returns from
//!   `try_push`, and the blocked/busy transition is actually exercised
//!   (the queue reports `saturated()`).

use kvs_cluster::queue::{work_queue, QueueStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const PRODUCERS: u64 = 6;
const ITEMS_PER_PRODUCER: u64 = 500;
const CAPACITY: usize = 8;
const CONSUMERS: usize = 2;

/// Tag items `(producer, sequence)` so the consumer side can prove each
/// accepted item arrived exactly once and in per-producer order.
type Item = (u64, u64);

#[test]
fn concurrent_producers_conserve_items_and_respect_capacity() {
    let (queue, source) = work_queue::<Item>(CAPACITY);
    let accepted = Arc::new(AtomicU64::new(0));
    let refused = Arc::new(AtomicU64::new(0));

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let source = source.clone();
            thread::spawn(move || {
                let mut got: Vec<Item> = Vec::new();
                while let Some(item) = source.recv() {
                    // A slow consumer keeps the queue full so producers
                    // hit both the busy and the blocked path.
                    thread::sleep(Duration::from_micros(50));
                    got.push(item);
                }
                got
            })
        })
        .collect();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let queue = queue.clone();
            let accepted = accepted.clone();
            let refused = refused.clone();
            thread::spawn(move || {
                for seq in 0..ITEMS_PER_PRODUCER {
                    // Even producers block (every item lands), odd
                    // producers offer (items may be refused — the wire
                    // `Busy` path).
                    if p % 2 == 0 {
                        queue.push_blocking((p, seq)).expect("consumers alive");
                        accepted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        match queue.try_push((p, seq)) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(item) => {
                                assert_eq!(item, (p, seq), "refused item comes back intact");
                                refused.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
        })
        .collect();

    for t in producers {
        t.join().expect("producer never panics");
    }
    let stats = queue.stats();
    drop(queue); // close the channel so consumers drain and exit
    drop(source);
    let per_consumer: Vec<Vec<Item>> = consumers
        .into_iter()
        .map(|c| c.join().expect("consumer never panics"))
        .collect();
    let consumed: Vec<Item> = per_consumer.iter().flatten().copied().collect();

    // Each consumer sees an order-preserving subsequence of the channel,
    // so a single producer's items must be increasing within any one
    // consumer's stream.
    for (ix, stream) in per_consumer.iter().enumerate() {
        let mut last: BTreeMap<u64, u64> = BTreeMap::new();
        for (p, seq) in stream {
            if let Some(prev) = last.insert(*p, *seq) {
                assert!(
                    prev < *seq,
                    "consumer {ix} saw producer {p} out of order ({prev} then {seq})"
                );
            }
        }
    }

    let accepted = accepted.load(Ordering::Relaxed);
    let refused = refused.load(Ordering::Relaxed);

    // Conservation: accepted == pushed == consumed, refused == rejections.
    assert_eq!(stats.pushed, accepted, "pushed counter matches Ok returns");
    assert_eq!(
        consumed.len() as u64,
        accepted,
        "every accepted item consumed exactly once"
    );
    assert_eq!(
        stats.busy_rejections, refused,
        "busy counter matches Err returns"
    );
    assert_eq!(
        accepted + refused,
        PRODUCERS * ITEMS_PER_PRODUCER,
        "no item vanished without a verdict"
    );

    // Blocking producers always land every item.
    let mut by_producer: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (p, seq) in &consumed {
        by_producer.entry(*p).or_default().push(*seq);
    }
    for p in (0..PRODUCERS).filter(|p| p % 2 == 0) {
        let seqs = by_producer.get(&p).expect("blocking producer delivered");
        assert_eq!(seqs.len() as u64, ITEMS_PER_PRODUCER);
    }
    // No duplicates from anyone (offer path included).
    for (p, seqs) in &by_producer {
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seqs.len(), "producer {p} item duplicated");
    }

    // Depth bound and the blocked/busy transition.
    assert!(
        stats.max_depth <= CAPACITY,
        "high-water mark {} exceeds capacity {CAPACITY}",
        stats.max_depth
    );
    assert!(
        stats.saturated(),
        "stress run never saturated the queue: {stats:?}"
    );
    assert!(
        stats.blocked_pushes > 0,
        "blocking path never waited: {stats:?}"
    );
    assert!(
        stats.busy_rejections > 0,
        "offer path never refused: {stats:?}"
    );
}

/// A queue with no capacity can hold nothing and can serve nobody —
/// construction is the right place to fail, loudly.
#[test]
#[should_panic(expected = "capacity")]
fn zero_capacity_queue_is_refused_at_construction() {
    let _ = work_queue::<Item>(0);
}

/// Deadline pressure under contention: producers race items with mixed
/// deadlines into a tiny queue while a slow consumer keeps it full. What
/// must hold: every already-expired push is refused (never enqueued),
/// every accepted-then-evicted item is handed back exactly once, and
/// conservation covers all three outcomes — consumed + evicted accounted
/// against accepted, with nothing duplicated or lost.
#[test]
fn expired_pushes_and_evictions_conserve_items_under_contention() {
    use kvs_cluster::queue::{TimedPush, NO_DEADLINE};
    let (queue, source) = work_queue::<Item>(4);
    let consumed = {
        let source = source.clone();
        thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(item) = source.recv() {
                thread::sleep(Duration::from_micros(100));
                got.push(item);
            }
            got
        })
    };

    let accepted = Arc::new(AtomicU64::new(0));
    let refused_expired = Arc::new(AtomicU64::new(0));
    let evicted_back = Arc::new(AtomicU64::new(0));
    let full = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let queue = queue.clone();
            let accepted = accepted.clone();
            let refused_expired = refused_expired.clone();
            let evicted_back = evicted_back.clone();
            let full = full.clone();
            thread::spawn(move || {
                for seq in 0..200u64 {
                    // Clock marches one tick per push; every third item is
                    // born with a deadline 2 ticks out, so queue dwell
                    // under the slow consumer routinely expires it.
                    let now = seq;
                    let (deadline, already_expired) = match seq % 3 {
                        0 => (NO_DEADLINE, false),
                        1 => (now + 2, false),
                        _ => (now.saturating_sub(1), true), // expired at push
                    };
                    match queue.try_push_timed((p, seq), deadline, now) {
                        TimedPush::Accepted { evicted } => {
                            assert!(!already_expired, "expired item accepted");
                            accepted.fetch_add(1, Ordering::Relaxed);
                            evicted_back.fetch_add(evicted.len() as u64, Ordering::Relaxed);
                        }
                        TimedPush::AlreadyExpired(item) => {
                            assert!(already_expired, "live item {item:?} refused as expired");
                            refused_expired.fetch_add(1, Ordering::Relaxed);
                        }
                        TimedPush::Full(_) => {
                            full.fetch_add(1, Ordering::Relaxed);
                        }
                        TimedPush::Disconnected(_) => panic!("consumer alive"),
                    }
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer panicked");
    }
    drop(queue);
    let consumed = consumed.join().expect("consumer panicked");

    // Every push with a past deadline was refused: 4 producers × ⌈200/3⌉.
    assert_eq!(refused_expired.load(Ordering::Relaxed), 4 * 66);
    // Conservation: accepted items either reached the consumer or came
    // back out of an eviction.
    let accepted = accepted.load(Ordering::Relaxed);
    let evicted = evicted_back.load(Ordering::Relaxed);
    assert_eq!(
        consumed.len() as u64 + evicted,
        accepted,
        "items lost or duplicated (consumed {} evicted {evicted} accepted {accepted})",
        consumed.len()
    );
    let stats = queue_stats_of(&source);
    assert_eq!(stats.pushed, accepted);
    assert_eq!(
        stats.expired,
        refused_expired.load(Ordering::Relaxed) + evicted
    );
}

fn queue_stats_of(source: &kvs_cluster::queue::WorkSource<Item>) -> QueueStats {
    source.stats()
}

/// Producers hang up with items still queued: the consumer must drain
/// every accepted item before `recv` reports disconnection — shutdown
/// drops the *entrance*, never the work already admitted.
#[test]
fn consumer_drains_fully_after_producers_shut_down() {
    let (queue, source) = work_queue::<Item>(64);
    for seq in 0..40u64 {
        queue.try_push((0, seq)).expect("queue has room");
    }
    drop(queue); // all producers gone, 40 items stranded
    let mut got = Vec::new();
    while let Some(item) = source.recv() {
        got.push(item);
    }
    assert_eq!(got.len(), 40, "shutdown dropped queued work");
    assert!(got.iter().map(|&(_, s)| s).eq(0..40), "order lost in drain");
    assert!(source.recv().is_none(), "recv must stay disconnected");
    assert!(
        source.recv_timeout(Duration::from_millis(1)).is_none(),
        "recv_timeout must stay disconnected"
    );
}

/// Counter saturation: `merge` on stats far beyond any realistic run
/// keeps sums exact (u64 arithmetic, no silent wrap in practice) and
/// maxes the high-water mark.
#[test]
fn stats_merge_is_exact_at_large_magnitudes() {
    let mut total = QueueStats::default();
    let big = QueueStats {
        pushed: u64::MAX / 4,
        busy_rejections: u64::MAX / 8,
        blocked_pushes: u64::MAX / 8,
        expired: u64::MAX / 8,
        max_depth: usize::MAX / 2,
    };
    total.merge(&big);
    total.merge(&big);
    assert_eq!(total.pushed, (u64::MAX / 4) * 2);
    assert_eq!(total.busy_rejections, (u64::MAX / 8) * 2);
    assert_eq!(total.blocked_pushes, (u64::MAX / 8) * 2);
    assert_eq!(total.expired, (u64::MAX / 8) * 2);
    assert_eq!(total.max_depth, usize::MAX / 2);
    assert!(total.saturated());
}

/// Runs `f` on its own thread and fails the test, instead of hanging it,
/// if `f` has not returned within a minute — what a lost wake-up looks
/// like from outside.
fn watchdog(f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("still blocked after 60 s: a wake-up was lost")
        }
        // Finished, or panicked: the join says which.
        _ => body.join().expect("test body"),
    }
}

/// The queue notifies only a thread that has counted itself asleep; a
/// count read at the wrong moment would strand an item (or a producer)
/// for good. 4 blocking producers × 4 blocking consumers, from a queue
/// that makes every hand-off a sleep (capacity 1) to one that makes
/// almost none (64): every item arrives exactly once and nobody hangs.
#[test]
fn no_wakeup_is_lost_between_blocking_producers_and_consumers() {
    const PER_PRODUCER: u32 = 50_000;
    for capacity in [1, 2, 64] {
        watchdog(move || {
            let (queue, source) = work_queue::<u32>(capacity);
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let source = source.clone();
                    thread::spawn(move || std::iter::from_fn(|| source.recv()).collect::<Vec<_>>())
                })
                .collect();
            drop(source);
            let producers: Vec<_> = (0..4u32)
                .map(|p| {
                    let queue = queue.clone();
                    thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            queue
                                .push_blocking(p * PER_PRODUCER + i)
                                .expect("consumers alive");
                        }
                    })
                })
                .collect();
            let stats_of = queue.clone();
            drop(queue);
            for p in producers {
                p.join().expect("producer");
            }
            let stats = stats_of.stats();
            drop(stats_of);
            let mut got: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer"))
                .collect();
            got.sort_unstable();
            assert!(
                got.iter().copied().eq(0..4 * PER_PRODUCER),
                "capacity {capacity}: an item was lost or delivered twice ({} arrived)",
                got.len()
            );
            assert_eq!(stats.pushed, 4 * PER_PRODUCER as u64);
            assert!(stats.max_depth <= capacity, "{stats:?}");
        });
    }
}

/// A consumer asleep in `recv_timeout` with the clock far away can only
/// be released by the last producer's drop: the disconnect wakes everyone,
/// whatever the sleeper counts say.
#[test]
fn recv_timeout_racing_the_last_drop_sees_disconnection() {
    watchdog(|| {
        for round in 0..2_000u32 {
            let (queue, source) = work_queue::<u32>(2);
            let start = Arc::new(std::sync::Barrier::new(2));
            let producer = {
                let start = start.clone();
                thread::spawn(move || {
                    start.wait();
                    queue.push_blocking(round).expect("consumer alive");
                })
            };
            start.wait();
            let hour = Duration::from_secs(3600);
            assert_eq!(source.recv_timeout(hour), Some(round));
            assert_eq!(source.recv_timeout(hour), None);
            producer.join().expect("producer");
        }
    });
}

/// A burst served by a consumer that never sleeps wakes no one; the
/// consumer that parks afterwards must still be woken by the very next
/// push, and a producer parked on a full queue by the very next pop.
#[test]
fn the_first_push_after_a_quiet_burst_wakes_a_parked_consumer() {
    watchdog(|| {
        let (queue, source) = work_queue::<u32>(1);
        for i in 0..10_000 {
            queue.try_push(i).expect("room");
            assert_eq!(source.recv_timeout(Duration::ZERO), Some(i));
        }
        for round in 0..1_000 {
            let parked = {
                let source = source.clone();
                thread::spawn(move || source.recv())
            };
            // Whether or not the consumer has parked yet, it gets the item.
            queue.push_blocking(round).expect("consumer alive");
            assert_eq!(parked.join().expect("consumer"), Some(round));
            // And the other way round: the queue is full, the producer
            // parks (or not), and the pop lets it through.
            queue.try_push(round).expect("room");
            let blocked = {
                let queue = queue.clone();
                thread::spawn(move || queue.push_blocking(round + 1))
            };
            assert_eq!(source.recv(), Some(round));
            assert_eq!(blocked.join().expect("producer"), Ok(()));
            assert_eq!(source.recv(), Some(round + 1));
        }
    });
}
