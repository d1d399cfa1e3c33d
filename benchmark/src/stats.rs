//! Medians and quantiles of latency samples, and the sliced estimators
//! the end-to-end timing metrics use.

use kvs_simcore::stats::percentile_sorted;

/// One measured unit — an aggregation query or a point operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// When it completed, seconds after the interval began.
    pub end_s: f64,
    /// What its caller waited, ms.
    pub latency_ms: f64,
    /// Sub-requests it completed correctly (0 if it failed).
    pub completed: u64,
}

/// Throughput and median latency of one slice of a measured interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Sub-requests completed in the slice ÷ its duration, 1/s.
    pub throughput: f64,
    /// Median latency of the units that completed in it, ms.
    pub p50_ms: f64,
}

/// Cuts an interval of `wall_s` seconds into `k` slices of equal length
/// and gives each the units that completed in it. A slice's duration runs
/// from the last completion of the slice before to its own last
/// completion, so a unit is never counted against time it did not run in;
/// a slice in which nothing completed is left out.
///
/// The end-to-end timing metrics are quartiles over these slices, the
/// upper of the throughputs and the lower of the median latencies: a
/// shared host only ever slows a run down, for a fraction of a second or
/// for several at a time, so the better quartile stays where it was until
/// three quarters of a run are disturbed, where a mean over the interval
/// moves with every disturbance and the median slice with half of them.
/// A change to the program moves every slice, and so the quartile too.
pub fn slices(units: &[Unit], wall_s: f64, k: usize) -> Vec<Slice> {
    let mut sorted = units.to_vec();
    sorted.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let mut out = Vec::with_capacity(k);
    let (mut next, mut began_s) = (0, 0.0);
    for i in 1..=k {
        let until_s = if i == k {
            f64::INFINITY
        } else {
            wall_s * i as f64 / k as f64
        };
        let first = next;
        while next < sorted.len() && sorted[next].end_s <= until_s {
            next += 1;
        }
        let mine = &sorted[first..next];
        let Some(last) = mine.last() else { continue };
        let completed: u64 = mine.iter().map(|u| u.completed).sum();
        let latencies: Vec<f64> = mine.iter().map(|u| u.latency_ms).collect();
        if last.end_s > began_s {
            out.push(Slice {
                throughput: completed as f64 / (last.end_s - began_s),
                p50_ms: median(&latencies),
            });
        }
        began_s = last.end_s;
    }
    out
}

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between order statistics; `0.0` for an empty sample so a metric that
/// does not apply to a workload still prints.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        // Four points: the 0.9 position is 2.7 → 30 + 0.7 × 10.
        assert!((quantile(&[10.0, 20.0, 30.0, 40.0], 0.9) - 37.0).abs() < 1e-9);
    }

    #[test]
    fn slices_split_by_completion_time_and_ignore_a_slow_stretch() {
        // Ten units a second for four seconds, except the third second,
        // where only two complete.
        let mut units = Vec::new();
        for s in [0.0, 1.0, 3.0] {
            for i in 1..=10 {
                units.push(Unit {
                    end_s: s + i as f64 / 10.0,
                    latency_ms: 100.0,
                    completed: 5,
                });
            }
        }
        for end_s in [2.5, 3.0] {
            units.push(Unit {
                end_s,
                latency_ms: 500.0,
                completed: 5,
            });
        }
        let got = slices(&units, 4.0, 4);
        assert_eq!(got.len(), 4);
        let rates: Vec<f64> = got.iter().map(|s| s.throughput.round()).collect();
        assert_eq!(rates, [50.0, 50.0, 10.0, 50.0]);
        assert_eq!(got[2].p50_ms, 500.0);
        let per_slice: Vec<f64> = got.iter().map(|s| s.throughput).collect();
        assert_eq!(median(&per_slice).round(), 50.0);
        // Nothing completed in the second half: those slices are left out.
        assert_eq!(slices(&units[..10], 4.0, 4).len(), 1);
        assert!(slices(&[], 4.0, 4).is_empty());
    }

    #[test]
    fn input_order_does_not_matter() {
        assert_eq!(
            quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.25),
            quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25)
        );
    }
}
