//! Property tests for the simulation substrate.

use kvs_simcore::stats::percentile_sorted;
use kvs_simcore::{
    Dist, Engine, EventQueue, Histogram, OnlineStats, RngHub, SimDuration, SimTime, Station,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Submits one job per service time (µs) at t = 0 to a `servers`-server
/// station; returns the jobs in completion order and the makespan.
fn play(servers: usize, services: &[u64]) -> (Vec<usize>, SimTime) {
    let mut calendar = EventQueue::new();
    let mut station = Station::new(servers);
    let service = |job: usize| SimDuration::from_micros(services[job]);
    for job in 0..services.len() {
        if let Some(job) = station.arrive(job) {
            calendar.schedule_in(service(job), job);
        }
    }
    let mut order = Vec::new();
    while let Some(job) = calendar.pop() {
        order.push(job);
        if let Some(next) = station.finish() {
            calendar.schedule_in(service(next), next);
        }
    }
    (order, calendar.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn stats_merge_is_concat(a in proptest::collection::vec(-1e6f64..1e6, 0..50),
                             b in proptest::collection::vec(-1e6f64..1e6, 0..50)) {
        let mut left = OnlineStats::from_slice(&a);
        left.merge(&OnlineStats::from_slice(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let whole = OnlineStats::from_slice(&all);
        prop_assert_eq!(left.count(), whole.count());
        if !all.is_empty() {
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - whole.variance()).abs() / (whole.variance() + 1.0) < 1e-6);
        }
    }

    /// Percentiles stay inside [min, max] and are monotone in q.
    #[test]
    fn percentiles_bounded_and_monotone(mut xs in proptest::collection::vec(-1e3f64..1e3, 1..60),
                                        q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = percentile_sorted(&xs, lo);
        let p_hi = percentile_sorted(&xs, hi);
        prop_assert!(p_lo <= p_hi + 1e-12);
        prop_assert!(p_lo >= xs[0] - 1e-12);
        prop_assert!(p_hi <= xs[xs.len() - 1] + 1e-12);
    }

    /// Every distribution sample is non-negative, whatever the parameters.
    #[test]
    fn dist_samples_nonnegative(mean in -10.0f64..1e4, cv in -1.0f64..3.0, seed in any::<u64>()) {
        let mut rng = RngHub::new(seed).stream("prop");
        let d = Dist::lognormal(mean, cv);
        for _ in 0..16 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    /// Histograms never lose a record: total == number of records.
    #[test]
    fn histogram_conserves(values in proptest::collection::vec(-10.0f64..1e5, 1..100)) {
        let mut h = Histogram::linear(0.0, 100.0, 50);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total() as usize, values.len());
        let bucketed: u64 = h.nonempty_buckets().map(|(_, c)| c).sum();
        prop_assert_eq!(bucketed + h.underflow(), h.total());
    }

    /// A single-server station completes jobs in FIFO order and the
    /// makespan equals the sum of service times.
    #[test]
    fn resource_fifo_and_work_conserving(services in proptest::collection::vec(1u64..1000, 1..40)) {
        let (order, makespan) = play(1, &services);
        prop_assert_eq!(order.len(), services.len());
        prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "out of order: {:?}", order);
        let total_us: u64 = services.iter().sum();
        prop_assert_eq!(makespan, SimTime::ZERO + SimDuration::from_micros(total_us));
    }

    /// With c servers the makespan is bounded by the greedy-scheduling
    /// bounds: max(total/c, longest job) ≤ makespan ≤ total/c + longest.
    #[test]
    fn resource_respects_greedy_bounds(services in proptest::collection::vec(1u64..1000, 1..40),
                                       cap in 1usize..8) {
        let (_, makespan) = play(cap, &services);
        let total: u64 = services.iter().sum();
        let longest = *services.iter().max().unwrap();
        let makespan_us = makespan.as_micros_f64();
        let lower = (total as f64 / cap as f64).max(longest as f64);
        let upper = total as f64 / cap as f64 + longest as f64;
        prop_assert!(makespan_us >= lower - 1e-6, "{makespan_us} < {lower}");
        prop_assert!(makespan_us <= upper + 1e-6, "{makespan_us} > {upper}");
    }

    /// The engine fires arbitrary event sets in non-decreasing time order.
    #[test]
    fn engine_fires_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut eng = Engine::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for &t in &times {
            let fired = fired.clone();
            eng.schedule_at(SimTime::from_nanos(t), move |e| {
                fired.borrow_mut().push(e.now().as_nanos());
            });
        }
        eng.run();
        let fired = fired.borrow();
        prop_assert_eq!(fired.len(), times.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
        let mut expected = times.clone();
        expected.sort_unstable();
        prop_assert_eq!(&*fired, &expected);
    }
}
