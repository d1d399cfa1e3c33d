//! The outcome of one distributed query run.

use kvs_simcore::SimDuration;
use kvs_stages::{RequestTrace, StageReport};
use std::collections::BTreeMap;

/// How much of a query was actually answered. A healthy run answers every
/// sub-query (`answered == total`); a degraded-mode run with dead
/// partitions completes with `answered < total` instead of erroring, and
/// the caller reads the gap here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Sub-queries that produced an answer.
    pub answered: u64,
    /// Sub-queries issued.
    pub total: u64,
}

impl Coverage {
    /// Full coverage over `total` sub-queries.
    pub fn complete(total: u64) -> Coverage {
        Coverage {
            answered: total,
            total,
        }
    }

    /// Answered fraction in `[0, 1]` (an empty query counts as complete).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.answered as f64 / self.total as f64
        }
    }

    /// True when every sub-query was answered.
    pub fn is_complete(&self) -> bool {
        self.answered == self.total
    }
}

/// Everything a run produces: correctness output, traces, and the derived
/// quantities the paper's figures plot.
#[derive(Debug)]
pub struct RunResult {
    /// Per-request stage traces (input to Figures 2 and 4): one for each
    /// answered request, none for a missed one, in request-id order.
    pub traces: Vec<RequestTrace>,
    /// First issue → last response processed.
    pub makespan: SimDuration,
    /// The condensed stage report (bottleneck classification included).
    pub report: StageReport,
    /// The aggregation answer: kind → count (correctness check).
    pub counts_by_kind: BTreeMap<u8, u64>,
    /// Total cells aggregated.
    pub total_cells: u64,
    /// Requests sent (== partitions queried).
    pub messages: u64,
    /// Wire bytes master → slaves.
    pub bytes_to_slaves: u64,
    /// Wire bytes slaves → master.
    pub bytes_to_master: u64,
    /// Time the master spent issuing (first send start → last send end).
    pub issue_span: SimDuration,
    /// Failover retries performed (failure-injection runs; 0 when healthy).
    pub failovers: u64,
    /// Answered vs issued sub-queries. Complete except in degraded-mode
    /// runs that lost partitions.
    pub coverage: Coverage,
    /// Request ids of unanswered sub-queries, sorted (empty when
    /// `coverage.is_complete()`).
    pub missed: Vec<u64>,
    /// Hedged (duplicate) requests issued to a second replica; 0 when
    /// hedging is off.
    pub hedges_sent: u64,
    /// Hedged requests whose duplicate answered first.
    pub hedges_won: u64,
    /// Slave work-queue backpressure counters, merged over all nodes.
    /// `None` for the simulator, whose queueing is modelled analytically.
    pub queue: Option<crate::queue::QueueStats>,
}

impl RunResult {
    /// Requests served per node.
    pub fn requests_per_node(&self) -> &BTreeMap<u32, u64> {
        &self.report.requests_per_node
    }

    /// The relative excess of the most loaded node:
    /// `(max requests / mean requests) − 1`.
    pub fn load_excess(&self) -> f64 {
        let per_node = self.requests_per_node();
        if per_node.is_empty() {
            return 0.0;
        }
        let max = per_node.values().copied().max().unwrap_or(0) as f64;
        let mean = per_node.values().sum::<u64>() as f64 / per_node.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }

    /// The paper's Figure 1 "balanced" line: the time the query would have
    /// taken had the observed load been spread uniformly — computed, as in
    /// the paper, by scaling the observed time by mean/max node load.
    pub fn balanced_time(&self) -> SimDuration {
        let excess = self.load_excess();
        self.makespan.div_f64(1.0 + excess)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs_stages::analyze;

    fn result_with_loads(loads: &[(u32, u64)]) -> RunResult {
        let report = {
            let mut r = analyze(&[]);
            r.requests_per_node = loads.iter().copied().collect();
            r
        };
        RunResult {
            traces: Vec::new(),
            makespan: SimDuration::from_millis(300),
            report,
            counts_by_kind: BTreeMap::new(),
            total_cells: 0,
            messages: 0,
            bytes_to_slaves: 0,
            bytes_to_master: 0,
            issue_span: SimDuration::ZERO,
            failovers: 0,
            coverage: Coverage::complete(0),
            missed: Vec::new(),
            hedges_sent: 0,
            hedges_won: 0,
            queue: None,
        }
    }

    #[test]
    fn load_excess_matches_paper_arithmetic() {
        // Figure 2's situation: most loaded node has 10 of 100 keys on 16
        // nodes; mean = 6.25 → excess = 0.6.
        let loads: Vec<(u32, u64)> = (0..16).map(|n| (n, if n == 0 { 10 } else { 6 })).collect();
        let r = result_with_loads(&loads);
        let mean = (10.0 + 15.0 * 6.0) / 16.0;
        assert!((r.load_excess() - (10.0 / mean - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn balanced_time_rescales_by_excess() {
        let r = result_with_loads(&[(0, 20), (1, 10)]);
        // mean 15, max 20 → excess = 1/3 → balanced = 300 / (4/3) = 225 ms.
        assert!((r.balanced_time().as_millis_f64() - 225.0).abs() < 1e-6);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = result_with_loads(&[]);
        assert_eq!(r.load_excess(), 0.0);
        assert_eq!(r.balanced_time(), r.makespan);
    }
}
