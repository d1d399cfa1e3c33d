//! The event calendar: typed events ordered by (time, scheduling order).
//!
//! Events firing at the same instant come out in the order they were
//! scheduled (FIFO), which keeps simulations deterministic regardless of
//! heap internals. An event is any value — a model's own `enum` over
//! indices into its state, or the closure [`crate::Engine`] stores — so a
//! hop of a simulated request costs one heap entry and nothing else.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle identifying a scheduled event; can be used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

struct Scheduled<E> {
    at: SimTime,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event;
    /// ties break on the sequence id, giving FIFO order at equal instants.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// A virtual clock plus the pending events of type `E`.
///
/// [`EventQueue::pop`] hands events back in (time, FIFO) order, advancing
/// the clock to each one's instant; what an event *does* is the caller's
/// business.
///
/// ```
/// use kvs_simcore::{EventQueue, SimDuration};
///
/// let mut calendar = EventQueue::new();
/// calendar.schedule_in(SimDuration::from_micros(2), "reply");
/// calendar.schedule_in(SimDuration::from_micros(1), "request");
/// assert_eq!(calendar.pop(), Some("request"));
/// assert_eq!(calendar.pop(), Some("reply"));
/// assert_eq!(calendar.now().as_micros_f64(), 2.0);
/// assert_eq!(calendar.pop(), None);
/// ```
pub struct EventQueue<E> {
    now: SimTime,
    heap: BinaryHeap<Scheduled<E>>,
    next_id: u64,
    fired: u64,
    /// Safety valve: firing more than this many events panics, which
    /// turns accidental infinite event loops into a loud failure.
    max_events: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_id: 0,
            fired: 0,
            max_events: 500_000_000,
        }
    }

    /// Lowers the runaway-event safety valve (mostly for tests).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The instant of the next pending event.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is a modelling bug; the event is clamped to
    /// fire "now" so causality is preserved, and debug builds assert.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        debug_assert!(at >= self.now, "scheduled an event in the past");
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.heap.push(Scheduled {
            at: at.max(self.now),
            id,
            event,
        });
        id
    }

    /// Schedules `event` `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Fires the next event: advances the clock to it and hands it back.
    /// `None` when no event is pending.
    pub fn pop(&mut self) -> Option<E> {
        self.pop_where(|_| true)
    }

    /// Fires the earliest event whose id `keep` accepts, discarding the
    /// earlier ones it refuses without firing them or moving the clock.
    pub(crate) fn pop_where(&mut self, mut keep: impl FnMut(EventId) -> bool) -> Option<E> {
        while let Some(next) = self.heap.pop() {
            if !keep(next.id) {
                continue;
            }
            debug_assert!(next.at >= self.now, "event heap yielded a past event");
            self.now = next.at;
            self.fired += 1;
            assert!(
                self.fired <= self.max_events,
                "simulation exceeded {} events — runaway event loop?",
                self.max_events
            );
            return Some(next.event);
        }
        None
    }

    /// Moves the clock forward to `at` without firing anything (never
    /// backwards).
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calendar(events: &[(u64, u64)]) -> EventQueue<u64> {
        let mut calendar = EventQueue::new();
        for &(at_ns, tag) in events {
            calendar.schedule_at(SimTime::from_nanos(at_ns), tag);
        }
        calendar
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut calendar = calendar(&[(30, 0), (10, 1), (20, 2)]);
        let order: Vec<u64> = std::iter::from_fn(|| {
            calendar.pop()?;
            Some(calendar.now().as_nanos())
        })
        .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert_eq!(calendar.events_fired(), 3);
    }

    #[test]
    fn ties_break_fifo_by_id() {
        let mut calendar = calendar(&[(10, 5), (10, 1), (10, 3)]);
        let order: Vec<u64> = std::iter::from_fn(|| calendar.pop()).collect();
        assert_eq!(order, vec![5, 1, 3], "scheduling order, not tag order");
    }

    #[test]
    fn refused_events_neither_fire_nor_move_the_clock() {
        let mut calendar = calendar(&[(10, 0), (20, 1), (30, 2)]);
        assert_eq!(calendar.pop_where(|id| id != EventId(0)), Some(1));
        assert_eq!(calendar.now(), SimTime::from_nanos(20));
        assert_eq!(calendar.events_fired(), 1);
        assert_eq!(calendar.next_at(), Some(SimTime::from_nanos(30)));
        assert_eq!(calendar.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn the_valve_stops_a_runaway_calendar() {
        let mut calendar = EventQueue::new();
        calendar.set_max_events(10);
        calendar.schedule_in(SimDuration::from_nanos(1), ());
        while calendar.pop().is_some() {
            calendar.schedule_in(SimDuration::from_nanos(1), ());
        }
    }
}
