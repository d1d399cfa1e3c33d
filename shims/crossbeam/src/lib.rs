//! Offline stand-in for `crossbeam`: the [`channel`] module offers MPMC
//! bounded and unbounded channels built on `Mutex<VecDeque>` + `Condvar`.
//! Semantics match the real crate for the subset used here: cloneable
//! senders *and* receivers, blocking/non-blocking/timed receive, bounded
//! sends that block when full and fail when all receivers are gone.
//!
//! A wake-up is a system call, so nobody is woken who is not asleep: each
//! side counts its sleepers under the channel's mutex (up before a wait,
//! down after it), and a `send` or `recv` notifies the other side only
//! when the counts it read under that same lock show a sleeper that no
//! wake-up is on its way to yet. A message that finds its receiver busy
//! therefore costs a lock and no syscall, and a burst sent at a parked
//! receiver wakes it once. Disconnection wakes everyone, unconditionally.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<Shared<T>>,
        /// Signalled when an item is pushed while a receiver sleeps, or
        /// the channel disconnects.
        readable: Condvar,
        /// Signalled when an item is popped while a sender sleeps, or the
        /// channel disconnects.
        writable: Condvar,
        cap: Option<usize>,
        /// Notifications issued by `send`/`recv` paths.
        #[cfg(test)]
        wakes: std::sync::atomic::AtomicUsize,
    }

    struct Shared<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers asleep on `readable`.
        sleeping_receivers: Sleepers,
        /// Senders asleep on `writable`.
        sleeping_senders: Sleepers,
    }

    /// The threads asleep on one condition variable, and how many of them
    /// a notification is already on its way to.
    #[derive(Default)]
    struct Sleepers {
        asleep: usize,
        notified: usize,
    }

    impl Sleepers {
        /// Whether some sleeper has no wake-up coming; if so, the caller
        /// owes it the one this books.
        fn claim_one(&mut self) -> bool {
            let owed = self.asleep > self.notified;
            self.notified += owed as usize;
            owed
        }

        /// A sleeper is awake again — notified, timed out or woken for no
        /// reason — and uses up a booked wake-up, its own or not:
        /// bookings can only run short, which costs a spare notification,
        /// never a missed one.
        fn woke(&mut self) {
            self.asleep -= 1;
            self.notified = self.notified.saturating_sub(1);
        }
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, Shared<T>> {
            self.queue.lock().expect("channel lock")
        }

        /// Wakes one thread asleep on `cv`, if `owed` — claimed under the
        /// lock the caller has just released — says one is waiting for it.
        fn wake_one(&self, cv: &Condvar, owed: bool) {
            if owed {
                #[cfg(test)]
                self.wakes
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                cv.notify_one();
            }
        }

        /// Queues `value` and wakes a sleeping receiver, if any.
        fn push(&self, mut q: MutexGuard<'_, Shared<T>>, value: T) {
            q.items.push_back(value);
            let owed = q.sleeping_receivers.claim_one();
            drop(q);
            self.wake_one(&self.readable, owed);
        }

        /// Takes the oldest message, if any, and wakes a sleeping sender.
        fn pop<'a>(
            &self,
            mut q: MutexGuard<'a, Shared<T>>,
        ) -> Result<T, MutexGuard<'a, Shared<T>>> {
            match q.items.pop_front() {
                Some(value) => {
                    let owed = q.sleeping_senders.claim_one();
                    drop(q);
                    self.wake_one(&self.writable, owed);
                    Ok(value)
                }
                None => Err(q),
            }
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are dropped.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// All receivers are dropped.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are dropped.
        Disconnected,
    }

    /// The sending half; clone freely.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half; clone freely (MPMC — each message goes to
    /// exactly one receiver).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel with capacity `cap` (`0` is rounded up to
    /// `1`: the shim has no rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Shared {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                sleeping_receivers: Sleepers::default(),
                sleeping_senders: Sleepers::default(),
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            cap,
            #[cfg(test)]
            wakes: Default::default(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Sends, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.inner.lock();
            loop {
                if q.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.inner.cap {
                    Some(cap) if q.items.len() >= cap => {
                        q.sleeping_senders.asleep += 1;
                        q = self.inner.writable.wait(q).expect("channel lock");
                        q.sleeping_senders.woke();
                    }
                    _ => break,
                }
            }
            self.inner.push(q, value);
            Ok(())
        }

        /// Sends without blocking; fails with `Full` at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let q = self.inner.lock();
            if q.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.inner.cap {
                if q.items.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            self.inner.push(q, value);
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().items.len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    impl<T> Sender<T> {
        /// Notifications the `send`/`recv` paths have issued so far.
        pub(crate) fn wakes(&self) -> usize {
            self.inner.wakes.load(std::sync::atomic::Ordering::Relaxed)
        }

        /// Receivers currently asleep waiting for a message.
        pub(crate) fn sleeping_receivers(&self) -> usize {
            self.inner.lock().sleeping_receivers.asleep
        }
    }

    impl<T> Receiver<T> {
        /// Receives, blocking until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.lock();
            loop {
                q = match self.inner.pop(q) {
                    Ok(v) => return Ok(v),
                    Err(q) => q,
                };
                if q.senders == 0 {
                    return Err(RecvError);
                }
                q.sleeping_receivers.asleep += 1;
                q = self.inner.readable.wait(q).expect("channel lock");
                q.sleeping_receivers.woke();
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.inner.pop(self.inner.lock()) {
                Ok(v) => Ok(v),
                Err(q) if q.senders == 0 => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Receives, blocking at most `timeout`. The queue is looked at
        /// before the clock: a message already there, and a zero timeout
        /// (a poll), cost no clock read.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let mut deadline = None;
            let mut q = self.inner.lock();
            loop {
                q = match self.inner.pop(q) {
                    Ok(v) => return Ok(v),
                    Err(q) => q,
                };
                if q.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                if timeout.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q.sleeping_receivers.asleep += 1;
                let (guard, _res) = self
                    .inner
                    .readable
                    .wait_timeout(q, deadline - now)
                    .expect("channel lock");
                q = guard;
                q.sleeping_receivers.woke();
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().items.len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator draining the channel until disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut q = self.inner.lock();
            q.senders -= 1;
            if q.senders == 0 {
                drop(q);
                self.inner.readable.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut q = self.inner.lock();
            q.receivers -= 1;
            if q.receivers == 0 {
                drop(q);
                self.inner.writable.notify_all();
            }
        }
    }

    /// Borrowing blocking iterator (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Owning blocking iterator.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{self, Receiver, RecvTimeoutError, Sender};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test, instead of hanging
    /// it, if `f` has not returned within a minute — what a lost wake-up
    /// looks like from outside.
    fn watchdog(f: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
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

    /// 4 blocking senders × 4 blocking receivers; every message must
    /// arrive exactly once.
    fn exactly_once(tx: Sender<u32>, rx: Receiver<u32>) {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 50_000;
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().collect::<Vec<u32>>())
            })
            .collect();
        drop(rx);
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send(s * PER_SENDER + i).expect("receivers alive");
                    }
                })
            })
            .collect();
        drop(tx);
        for s in senders {
            s.join().expect("sender");
        }
        let mut got: Vec<u32> = receivers
            .into_iter()
            .flat_map(|r| r.join().expect("receiver"))
            .collect();
        got.sort_unstable();
        assert!(
            got.iter().copied().eq(0..SENDERS * PER_SENDER),
            "a message was lost or delivered twice ({} arrived)",
            got.len()
        );
    }

    #[test]
    fn no_wakeup_is_lost_between_blocking_senders_and_receivers() {
        for cap in [Some(1), Some(2), Some(64), None] {
            watchdog(move || {
                let (tx, rx) = match cap {
                    Some(cap) => channel::bounded(cap),
                    None => channel::unbounded(),
                };
                exactly_once(tx, rx);
            });
        }
    }

    #[test]
    fn recv_timeout_racing_the_last_drop_sees_disconnection() {
        watchdog(|| {
            for round in 0..2_000u32 {
                let (tx, rx) = channel::unbounded::<u32>();
                let start = Arc::new(Barrier::new(2));
                let sender = {
                    let start = start.clone();
                    std::thread::spawn(move || {
                        start.wait();
                        tx.send(round).expect("receiver alive");
                    })
                };
                start.wait();
                // An hour: only the drop's wake-up can end the second wait.
                let hour = Duration::from_secs(3600);
                assert_eq!(rx.recv_timeout(hour), Ok(round));
                assert_eq!(rx.recv_timeout(hour), Err(RecvTimeoutError::Disconnected));
                sender.join().expect("sender");
            }
        });
    }

    #[test]
    fn only_a_sleeping_receiver_costs_a_wakeup() {
        watchdog(|| {
            let (tx, rx) = channel::bounded::<u32>(4);
            for i in 0..10_000 {
                tx.send(i).unwrap();
                assert_eq!(rx.recv(), Ok(i));
                assert_eq!(
                    rx.recv_timeout(Duration::ZERO),
                    Err(RecvTimeoutError::Timeout)
                );
            }
            assert_eq!(tx.wakes(), 0, "nobody slept, nobody is woken");
            // The burst woke no one; the first send to a parked receiver
            // must still wake it, and the rest of a burst sent at it —
            // whether or not it has got as far as running — must not
            // wake it again: exactly one notification.
            let parked = {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            };
            while tx.sleeping_receivers() == 0 {
                std::thread::yield_now();
            }
            for i in 7..11 {
                tx.try_send(i).unwrap();
            }
            assert_eq!(parked.join().expect("receiver"), Ok(7));
            assert_eq!(tx.wakes(), 1);
        });
    }

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn mpmc_across_threads() {
        let (tx, rx) = channel::bounded::<u64>(4);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || rx.iter().sum::<u64>()));
        }
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..100).sum::<u64>());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = channel::unbounded::<u8>();
        let err = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(err, Err(channel::RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = channel::bounded(1);
        drop(rx);
        assert!(tx.send(9).is_err());
    }
}
