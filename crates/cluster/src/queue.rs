//! Bounded, deadline-aware work queues with *observable* backpressure.
//!
//! The paper's methodology hinges on the `in-queue` stage being a real,
//! measurable quantity. An unbounded channel hides saturation: requests
//! pile up silently and the only symptom is a growing in-queue time. A
//! bounded queue makes the pressure explicit — producers either block
//! (and the block is counted) or are refused outright (a `Busy` reply on
//! the wire). The TCP `kvs-net` slave servers run their worker pools
//! behind this type.
//!
//! Entries may carry an absolute deadline ([`WorkQueue::try_push_timed`]).
//! A full queue evicts entries whose deadline has already passed before
//! refusing new work, so expired requests never occupy capacity that live
//! requests could use; the evicted items are handed back to the producer,
//! which owns answering them (an `Expired` reply on the wire). Entries
//! pushed through the untimed API never expire.
//!
//! A hand-off wakes only a thread that waits. Consumers and blocked
//! producers count themselves under the queue's mutex (up before a wait,
//! down after it), and a push or pop notifies the other side only when
//! the counts it read under that same lock show a sleeper no wake-up is
//! on its way to yet — a wake-up is a system call, a busy worker finds
//! the next item without one, and a burst wakes a parked worker once.
//! [`WorkSource::recv_timeout`] looks at the queue before the clock, so a
//! zero-timeout poll costs a lock and nothing else.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Deadline value meaning "never expires" (used by the untimed push API).
pub const NO_DEADLINE: u64 = u64::MAX;

/// Counters shared by all handles of one queue.
#[derive(Debug, Default)]
struct Counters {
    pushed: AtomicU64,
    busy_rejections: AtomicU64,
    blocked_pushes: AtomicU64,
    expired: AtomicU64,
    max_depth: AtomicUsize,
}

/// A point-in-time snapshot of a queue's backpressure counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Items accepted into the queue.
    pub pushed: u64,
    /// Offers refused because the queue was full ([`WorkQueue::try_push`]).
    pub busy_rejections: u64,
    /// Blocking pushes that found the queue full and had to wait
    /// ([`WorkQueue::push_blocking`]).
    pub blocked_pushes: u64,
    /// Entries refused or evicted because their deadline had passed
    /// ([`WorkQueue::try_push_timed`]).
    pub expired: u64,
    /// High-water mark of the queue depth, observed at push time.
    pub max_depth: usize,
}

impl QueueStats {
    /// Folds another queue's counters into this one (sum counts, max the
    /// high-water mark) — for per-node queues reported as one figure.
    pub fn merge(&mut self, other: &QueueStats) {
        self.pushed += other.pushed;
        self.busy_rejections += other.busy_rejections;
        self.blocked_pushes += other.blocked_pushes;
        self.expired += other.expired;
        self.max_depth = self.max_depth.max(other.max_depth);
    }

    /// True when the queue ever refused or delayed a producer.
    pub fn saturated(&self) -> bool {
        self.busy_rejections > 0 || self.blocked_pushes > 0
    }
}

/// Outcome of a deadline-carrying push ([`WorkQueue::try_push_timed`]).
#[derive(Debug)]
pub enum TimedPush<T> {
    /// The item was enqueued. Any expired entries evicted to make room are
    /// handed back — the caller owns answering them.
    Accepted {
        /// Expired entries evicted to make room for the accepted item.
        evicted: Vec<T>,
    },
    /// The item's own deadline had already passed; it was never enqueued.
    AlreadyExpired(T),
    /// The queue is full of live (unexpired) work.
    Full(T),
    /// All consumers are gone.
    Disconnected(T),
}

struct Inner<T> {
    items: VecDeque<(T, u64)>,
    producers: usize,
    consumers: usize,
    /// Consumers asleep on `not_empty`.
    sleeping_consumers: Sleepers,
    /// Producers asleep on `not_full`.
    sleeping_producers: Sleepers,
}

/// The threads asleep on one condition variable, and how many of them a
/// notification is already on its way to.
#[derive(Default)]
struct Sleepers {
    asleep: usize,
    notified: usize,
}

impl Sleepers {
    /// Whether a sleeper has no wake-up coming; if so, books the caller's.
    fn claim_one(&mut self) -> bool {
        let owed = self.asleep > self.notified;
        self.notified += owed as usize;
        owed
    }

    /// A sleeper is awake again, for whatever reason, and uses up a booked
    /// wake-up, its own or not: bookings can only run short, which costs
    /// a spare notification, never a missed one.
    fn woke(&mut self) {
        self.asleep -= 1;
        self.notified = self.notified.saturating_sub(1);
    }
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    counters: Counters,
    capacity: usize,
    /// Notifications issued by push and pop paths.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes one thread asleep on `cv`, if `owed` — claimed under the
    /// lock the caller has just released — says one is waiting for it.
    fn wake_one(&self, cv: &Condvar, owed: bool) {
        if owed {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::Relaxed);
            cv.notify_one();
        }
    }

    /// Enqueues an item, counts it, and wakes a sleeping consumer, if any.
    fn push(&self, mut g: MutexGuard<'_, Inner<T>>, item: T, deadline: u64) {
        g.items.push_back((item, deadline));
        let c = &self.counters;
        c.pushed.fetch_add(1, Ordering::Relaxed);
        c.max_depth.fetch_max(g.items.len(), Ordering::Relaxed);
        let owed = g.sleeping_consumers.claim_one();
        drop(g);
        self.wake_one(&self.not_empty, owed);
    }

    /// Takes the oldest item, if any, and wakes a producer blocked on the
    /// slot it frees.
    fn pop<'a>(&self, mut g: MutexGuard<'a, Inner<T>>) -> Result<T, MutexGuard<'a, Inner<T>>> {
        match g.items.pop_front() {
            Some((item, _)) => {
                let owed = g.sleeping_producers.claim_one();
                drop(g);
                self.wake_one(&self.not_full, owed);
                Ok(item)
            }
            None => Err(g),
        }
    }
}

/// Producer handle of a bounded work queue.
pub struct WorkQueue<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer handle of a bounded work queue.
pub struct WorkSource<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded queue of at most `capacity` in-flight items.
///
/// # Panics
/// If `capacity == 0`.
pub fn work_queue<T>(capacity: usize) -> (WorkQueue<T>, WorkSource<T>) {
    assert!(capacity > 0, "work queue needs capacity ≥ 1");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            items: VecDeque::with_capacity(capacity),
            producers: 1,
            consumers: 1,
            sleeping_consumers: Sleepers::default(),
            sleeping_producers: Sleepers::default(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        counters: Counters::default(),
        capacity,
        #[cfg(test)]
        wakes: AtomicUsize::new(0),
    });
    (
        WorkQueue {
            shared: shared.clone(),
        },
        WorkSource { shared },
    )
}

impl<T> WorkQueue<T> {
    /// Offers an item without blocking. Returns it back when the queue is
    /// full (counted as a busy rejection — the caller replies `Busy` or
    /// retries) or when all consumers are gone. The item never expires.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        match self.try_push_timed(item, NO_DEADLINE, 0) {
            TimedPush::Accepted { .. } => Ok(()),
            TimedPush::Full(item) | TimedPush::Disconnected(item) => Err(item),
            // Unreachable: NO_DEADLINE never expires.
            TimedPush::AlreadyExpired(item) => Err(item),
        }
    }

    /// Offers an item carrying an absolute deadline (same clock and unit
    /// as `now` — the caller supplies both, typically wall nanoseconds).
    /// An item whose deadline has already passed is refused outright; a
    /// full queue first evicts entries whose deadlines have passed and
    /// hands them back so the producer can answer them.
    pub fn try_push_timed(&self, item: T, deadline: u64, now: u64) -> TimedPush<T> {
        let c = &self.shared.counters;
        if deadline <= now {
            c.expired.fetch_add(1, Ordering::Relaxed);
            return TimedPush::AlreadyExpired(item);
        }
        let mut g = self.shared.lock();
        if g.consumers == 0 {
            return TimedPush::Disconnected(item);
        }
        let mut evicted = Vec::new();
        if g.items.len() >= self.shared.capacity {
            // In place, oldest first: only the dead leave the deque.
            let mut i = 0;
            while i < g.items.len() {
                if g.items[i].1 > now {
                    i += 1;
                } else if let Some((dead, _)) = g.items.remove(i) {
                    evicted.push(dead);
                }
            }
            if g.items.len() >= self.shared.capacity {
                c.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return TimedPush::Full(item);
            }
            c.expired.fetch_add(evicted.len() as u64, Ordering::Relaxed);
            if evicted.len() > 1 && g.sleeping_producers.asleep > 0 {
                // Eviction freed slots beyond the one this push uses.
                self.shared.not_full.notify_all();
            }
        }
        self.shared.push(g, item, deadline);
        TimedPush::Accepted { evicted }
    }

    /// Pushes an item, blocking while the queue is full. A push that had
    /// to wait is counted, making silent saturation visible in
    /// [`QueueStats::blocked_pushes`]. Returns the item back only when all
    /// consumers are gone. The item never expires.
    pub fn push_blocking(&self, item: T) -> Result<(), T> {
        let mut g = self.shared.lock();
        if g.consumers == 0 {
            return Err(item);
        }
        if g.items.len() >= self.shared.capacity {
            self.shared
                .counters
                .blocked_pushes
                .fetch_add(1, Ordering::Relaxed);
            while g.items.len() >= self.shared.capacity && g.consumers > 0 {
                g.sleeping_producers.asleep += 1;
                g = self
                    .shared
                    .not_full
                    .wait(g)
                    .unwrap_or_else(|e| e.into_inner());
                g.sleeping_producers.woke();
            }
            if g.consumers == 0 {
                return Err(item);
            }
        }
        self.shared.push(g, item, NO_DEADLINE);
        Ok(())
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Snapshot of the backpressure counters.
    pub fn stats(&self) -> QueueStats {
        self.shared.counters.snapshot()
    }
}

impl<T> Clone for WorkQueue<T> {
    fn clone(&self) -> Self {
        self.shared.lock().producers += 1;
        WorkQueue {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for WorkQueue<T> {
    fn drop(&mut self) {
        let mut g = self.shared.lock();
        g.producers -= 1;
        if g.producers == 0 {
            drop(g);
            // Wake consumers blocked on an empty queue so they observe EOF.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> WorkSource<T> {
    /// Takes the next item, blocking until one arrives; `None` once all
    /// producers are gone and the queue drained.
    pub fn recv(&self) -> Option<T> {
        let mut g = self.shared.lock();
        loop {
            g = match self.shared.pop(g) {
                Ok(item) => return Some(item),
                Err(g) => g,
            };
            if g.producers == 0 {
                return None;
            }
            g.sleeping_consumers.asleep += 1;
            g = self
                .shared
                .not_empty
                .wait(g)
                .unwrap_or_else(|e| e.into_inner());
            g.sleeping_consumers.woke();
        }
    }

    /// Takes the next item, waiting at most `timeout`; `None` on timeout
    /// or disconnection. The queue is looked at before the clock: an item
    /// already there, and a zero timeout (a poll), cost no clock read.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let mut give_up = None;
        let mut g = self.shared.lock();
        loop {
            g = match self.shared.pop(g) {
                Ok(item) => return Some(item),
                Err(g) => g,
            };
            if g.producers == 0 || timeout.is_zero() {
                return None;
            }
            let now = Instant::now();
            let left = give_up
                .get_or_insert_with(|| now + timeout)
                .saturating_duration_since(now);
            if left.is_zero() {
                return None;
            }
            g.sleeping_consumers.asleep += 1;
            g = self
                .shared
                .not_empty
                .wait_timeout(g, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            g.sleeping_consumers.woke();
        }
    }

    /// Snapshot of the backpressure counters.
    pub fn stats(&self) -> QueueStats {
        self.shared.counters.snapshot()
    }
}

impl<T> Clone for WorkSource<T> {
    fn clone(&self) -> Self {
        self.shared.lock().consumers += 1;
        WorkSource {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for WorkSource<T> {
    fn drop(&mut self) {
        let mut g = self.shared.lock();
        g.consumers -= 1;
        if g.consumers == 0 {
            drop(g);
            // Wake producers blocked on a full queue so they observe the
            // disconnect instead of waiting forever.
            self.shared.not_full.notify_all();
        }
    }
}

impl Counters {
    fn snapshot(&self) -> QueueStats {
        QueueStats {
            pushed: self.pushed.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            blocked_pushes: self.blocked_pushes.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_push_refuses_when_full() {
        let (q, src) = work_queue(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        let s = q.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.busy_rejections, 1);
        assert!(s.saturated());
        assert_eq!(src.recv(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn blocking_push_counts_waits() {
        let (q, src) = work_queue(1);
        q.push_blocking(10u32).unwrap();
        let consumer = {
            let src = src.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let mut got = Vec::new();
                while let Some(v) = src.recv() {
                    got.push(v);
                }
                got
            })
        };
        q.push_blocking(11).unwrap(); // must wait for the consumer
        drop(q);
        drop(src);
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![10, 11]);
    }

    #[test]
    fn blocked_pushes_observable() {
        let (q, src) = work_queue(1);
        q.push_blocking(1).unwrap();
        let src2 = src.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            src2.recv()
        });
        q.push_blocking(2).unwrap();
        assert_eq!(t.join().unwrap(), Some(1));
        let s = q.stats();
        assert_eq!(s.pushed, 2);
        assert!(s.blocked_pushes >= 1, "{s:?}");
        assert_eq!(src.recv(), Some(2));
    }

    #[test]
    fn recv_none_after_producers_gone() {
        let (q, src) = work_queue(4);
        q.try_push(1).unwrap();
        drop(q);
        assert_eq!(src.recv(), Some(1));
        assert_eq!(src.recv(), None);
        assert_eq!(src.recv_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn push_fails_after_consumers_gone() {
        let (q, src) = work_queue(4);
        drop(src);
        assert_eq!(q.try_push(1), Err(1));
        assert_eq!(q.push_blocking(2), Err(2));
        assert!(matches!(
            q.try_push_timed(3, NO_DEADLINE, 0),
            TimedPush::Disconnected(3)
        ));
    }

    #[test]
    fn expired_item_refused_at_push() {
        let (q, _src) = work_queue::<u32>(4);
        assert!(matches!(
            q.try_push_timed(7, 100, 100),
            TimedPush::AlreadyExpired(7)
        ));
        assert!(matches!(
            q.try_push_timed(8, 50, 100),
            TimedPush::AlreadyExpired(8)
        ));
        assert_eq!(q.stats().expired, 2);
        assert_eq!(q.stats().pushed, 0);
    }

    #[test]
    fn full_queue_evicts_expired_entries() {
        let (q, src) = work_queue::<u32>(2);
        // Both entries expire at t = 10; queue full.
        assert!(matches!(
            q.try_push_timed(1, 10, 0),
            TimedPush::Accepted { .. }
        ));
        assert!(matches!(
            q.try_push_timed(2, 10, 0),
            TimedPush::Accepted { .. }
        ));
        // Still before the deadlines: full of live work.
        assert!(matches!(q.try_push_timed(3, 100, 5), TimedPush::Full(3)));
        // Past the deadlines: both dead entries evicted, new one accepted.
        match q.try_push_timed(3, 100, 20) {
            TimedPush::Accepted { evicted } => assert_eq!(evicted, vec![1, 2]),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(src.recv(), Some(3));
        let s = q.stats();
        assert_eq!(s.expired, 2);
        assert_eq!(s.busy_rejections, 1);
        assert_eq!(s.pushed, 3);
    }

    #[test]
    fn eviction_takes_only_the_dead_and_keeps_both_orders() {
        let (q, src) = work_queue::<u32>(4);
        for (item, deadline) in [(1, 10), (2, 100), (3, 10), (4, 100)] {
            assert!(matches!(
                q.try_push_timed(item, deadline, 0),
                TimedPush::Accepted { .. }
            ));
        }
        match q.try_push_timed(5, 100, 20) {
            TimedPush::Accepted { evicted } => assert_eq!(evicted, vec![1, 3]),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert!(matches!(
            q.try_push_timed(6, 100, 20),
            TimedPush::Accepted { .. }
        ));
        assert!(matches!(q.try_push_timed(7, 100, 20), TimedPush::Full(7)));
        drop(q);
        let left: Vec<u32> = std::iter::from_fn(|| src.recv()).collect();
        assert_eq!(left, vec![2, 4, 5, 6]);
        assert_eq!(src.stats().expired, 2);
    }

    #[test]
    fn only_a_sleeping_consumer_costs_a_wakeup() {
        let (q, src) = work_queue::<u32>(4);
        let wakes = |q: &WorkQueue<u32>| q.shared.wakes.load(Ordering::Relaxed);
        for i in 0..10_000 {
            q.try_push(i).unwrap();
            assert_eq!(src.recv_timeout(Duration::ZERO), Some(i));
            assert_eq!(src.recv_timeout(Duration::ZERO), None);
        }
        assert_eq!(wakes(&q), 0, "nobody slept, nobody is woken");
        // The burst woke no one; the first push to a parked consumer must
        // still wake it, and the rest of a burst pushed at it — whether or
        // not it has got as far as running — must not wake it again:
        // exactly one notification.
        let parked = {
            let src = src.clone();
            std::thread::spawn(move || src.recv())
        };
        while q.shared.lock().sleeping_consumers.asleep == 0 {
            std::thread::yield_now();
        }
        for i in 7..11 {
            q.try_push(i).unwrap();
        }
        assert_eq!(parked.join().unwrap(), Some(7));
        assert_eq!(wakes(&q), 1);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = QueueStats {
            pushed: 5,
            busy_rejections: 1,
            blocked_pushes: 0,
            expired: 2,
            max_depth: 3,
        };
        a.merge(&QueueStats {
            pushed: 7,
            busy_rejections: 0,
            blocked_pushes: 2,
            expired: 1,
            max_depth: 9,
        });
        assert_eq!(a.pushed, 12);
        assert_eq!(a.busy_rejections, 1);
        assert_eq!(a.blocked_pushes, 2);
        assert_eq!(a.expired, 3);
        assert_eq!(a.max_depth, 9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = work_queue::<u8>(0);
    }
}
