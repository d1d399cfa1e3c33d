//! The closure engine: the event calendar with callbacks for events.
//!
//! [`Engine`] is [`EventQueue`] with `E` = a boxed `FnOnce(&mut Engine)`,
//! plus cancellation. Model state lives in `Rc<RefCell<…>>` cells captured
//! by the scheduled closures (the simulation is single-threaded, so `Rc`
//! is the right tool). It suits small models and tests; a model that fires
//! millions of events drives an [`EventQueue`] of its own event `enum`
//! instead, and pays no box or reference count per event.

use crate::event::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};
use std::collections::HashSet;

/// The callback type fired by the engine. It receives the engine so it can
/// schedule follow-up events.
pub type Callback = Box<dyn FnOnce(&mut Engine)>;

/// A discrete-event simulation engine.
///
/// Events are closures scheduled at absolute or relative virtual times;
/// [`Engine::run`] drains them in (time, FIFO) order, advancing the clock to
/// each event's timestamp before firing it.
#[derive(Default)]
pub struct Engine {
    calendar: EventQueue<Callback>,
    cancelled: HashSet<EventId>,
}

impl Engine {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Lowers the runaway-event safety valve (mostly for tests).
    pub fn set_max_events(&mut self, max: u64) {
        self.calendar.set_max_events(max);
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.calendar.now()
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.calendar.events_fired()
    }

    /// Number of events still pending (including cancelled-but-not-popped).
    pub fn pending(&self) -> usize {
        self.calendar.pending()
    }

    /// Schedules `cb` to fire at the absolute instant `at`.
    ///
    /// Scheduling in the past is a modelling bug; the event is clamped to
    /// fire "now" so causality is preserved, and debug builds assert.
    pub fn schedule_at(&mut self, at: SimTime, cb: impl FnOnce(&mut Engine) + 'static) -> EventId {
        self.calendar.schedule_at(at, Box::new(cb))
    }

    /// Schedules `cb` to fire `delay` after the current instant.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        cb: impl FnOnce(&mut Engine) + 'static,
    ) -> EventId {
        self.calendar.schedule_in(delay, Box::new(cb))
    }

    /// Cancels a pending event. Cancelling an already-fired or unknown id is
    /// a no-op (the handle may legitimately race with its own firing).
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    /// Fires the next pending event, advancing the clock. Returns `false`
    /// when the heap is empty.
    pub fn step(&mut self) -> bool {
        let cancelled = &mut self.cancelled;
        let next = self
            .calendar
            .pop_where(|id| cancelled.is_empty() || !cancelled.remove(&id));
        match next {
            Some(cb) => {
                cb(self);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock would pass `deadline`; events scheduled at or
    /// before the deadline still fire. Returns `true` if events remain.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        loop {
            match self.calendar.next_at() {
                None => return false,
                Some(at) if at > deadline => {
                    // Do not fire, but advance the clock to the deadline so
                    // repeated calls observe monotonic time.
                    self.calendar.advance_to(deadline);
                    return true;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fires_in_time_order() {
        let mut eng = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = log.clone();
            eng.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(tag));
        }
        eng.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..5 {
            let log = log.clone();
            eng.schedule_at(SimTime::from_nanos(7), move |_| log.borrow_mut().push(tag));
        }
        eng.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng = Engine::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        eng.schedule_in(SimDuration::from_micros(1), move |eng| {
            *h.borrow_mut() += 1;
            let h2 = h.clone();
            eng.schedule_in(SimDuration::from_micros(1), move |_| {
                *h2.borrow_mut() += 1;
            });
        });
        eng.run();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(eng.now(), SimTime::from_nanos(2_000));
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut eng = Engine::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let id = eng.schedule_in(SimDuration::from_micros(1), move |_| {
            *h.borrow_mut() += 1;
        });
        eng.cancel(id);
        eng.run();
        assert_eq!(*hits.borrow(), 0);
        assert_eq!(eng.events_fired(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = Engine::new();
        let hits = Rc::new(RefCell::new(0u32));
        for t in [10u64, 20, 30] {
            let h = hits.clone();
            eng.schedule_at(SimTime::from_nanos(t), move |_| *h.borrow_mut() += 1);
        }
        let more = eng.run_until(SimTime::from_nanos(20));
        assert!(more);
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(eng.now(), SimTime::from_nanos(20));
        assert!(!eng.run_until(SimTime::from_nanos(100)));
        assert_eq!(*hits.borrow(), 3);
    }

    #[test]
    fn cancel_from_inside_a_callback() {
        // An event can cancel a later event while the engine is running.
        let mut eng = Engine::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let victim = eng.schedule_at(SimTime::from_nanos(100), move |_| {
            *h.borrow_mut() += 1;
        });
        eng.schedule_at(SimTime::from_nanos(50), move |e| {
            e.cancel(victim);
        });
        eng.run();
        assert_eq!(*hits.borrow(), 0);
        assert_eq!(eng.events_fired(), 1);
    }

    #[test]
    fn cancelling_a_fired_event_is_a_noop() {
        let mut eng = Engine::new();
        let id = eng.schedule_at(SimTime::from_nanos(1), |_| {});
        eng.run();
        eng.cancel(id); // already fired — must not panic or corrupt state
        eng.schedule_at(SimTime::from_nanos(2), |_| {});
        eng.run();
        assert_eq!(eng.events_fired(), 2);
    }

    #[test]
    fn run_until_includes_events_at_the_deadline() {
        let mut eng = Engine::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        eng.schedule_at(SimTime::from_nanos(10), move |_| *h.borrow_mut() += 1);
        let more = eng.run_until(SimTime::from_nanos(10));
        assert!(!more);
        assert_eq!(*hits.borrow(), 1, "deadline event must fire");
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn runaway_loop_is_detected() {
        let mut eng = Engine::new();
        eng.set_max_events(100);
        fn again(eng: &mut Engine) {
            eng.schedule_in(SimDuration::from_nanos(1), again);
        }
        eng.schedule_in(SimDuration::from_nanos(1), again);
        eng.run();
    }

    #[test]
    fn clock_is_monotonic_across_steps() {
        let mut eng = Engine::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        for t in [5u64, 5, 1, 9] {
            let times = times.clone();
            eng.schedule_at(SimTime::from_nanos(t), move |e| {
                times.borrow_mut().push(e.now().as_nanos());
            });
        }
        eng.run();
        let v = times.borrow();
        assert!(
            v.windows(2).all(|w| w[0] <= w[1]),
            "clock went backwards: {v:?}"
        );
    }
}
