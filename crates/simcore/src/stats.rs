//! Online statistics: Welford moments, percentile summaries and the
//! power-of-two latency histogram.
//!
//! These are the primitives the methodology layer (`kvs-stages`,
//! `kvs-model`) uses to condense thousands of per-request timings into the
//! few numbers the paper plots, and the histogram the socket master reads
//! its hedge delay from.

use std::time::Duration;

/// Numerically stable running moments (Welford's algorithm) plus min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel-friendly).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance with Bessel's correction.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/µ (0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// A five-number-plus summary computed from a full sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample.
    pub fn from_samples(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let stats = OnlineStats::from_slice(values);
        Some(Summary {
            count: values.len(),
            mean: stats.mean(),
            std_dev: stats.sample_variance().sqrt(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice, `q ∈ [0,1]`.
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Power-of-two buckets: bucket `i` covers `[2^i, 2^(i+1))` µs.
const BUCKETS: usize = 40;

/// A latency histogram over power-of-two microsecond buckets, from which
/// any quantile is read in one pass. Forty counters resolve both 100 µs
/// loopback round trips and multi-second stalls to within a factor of
/// two — the precision a hedge trigger needs.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// Records one latency; anything under 1 µs counts as 1 µs.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().max(1) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.total += 1;
    }

    /// Latencies recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q ≤ 1`) of recorded latencies, reported as
    /// the covering bucket's *upper* bound — deliberately conservative so
    /// a hedge never fires below genuinely observed latencies. `None`
    /// until any sample exists.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Duration::from_micros(1 << (i + 1)));
            }
        }
        Some(Duration::from_micros(1 << BUCKETS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut left = OnlineStats::from_slice(&a);
        let right = OnlineStats::from_slice(&b);
        left.merge(&right);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let whole = OnlineStats::from_slice(&all);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::from_slice(&[1.0, 2.0]);
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 40.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 25.0);
        assert!((percentile_sorted(&sorted, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn summary_end_to_end() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_samples(&values).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.p50 - 50.5).abs() < 1e-12);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.95), None);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn quantile_bounds_the_observed_tail() {
        let mut h = Histogram::default();
        // 99 fast samples around 200 µs, one 50 ms straggler.
        for _ in 0..99 {
            h.record(Duration::from_micros(200));
        }
        h.record(Duration::from_millis(50));
        let p95 = h.quantile(0.95).unwrap();
        assert!(p95 >= Duration::from_micros(200));
        assert!(p95 < Duration::from_millis(1), "p95 excludes the straggler");
        let p100 = h.quantile(1.0).unwrap();
        assert!(
            p100 >= Duration::from_millis(50),
            "max covers the straggler"
        );
    }

    #[test]
    fn quantile_is_conservative_upper_bound() {
        let mut h = Histogram::default();
        h.record(Duration::from_micros(300)); // bucket [256, 512)
        assert_eq!(h.quantile(0.5).unwrap(), Duration::from_micros(512));
    }
}
