//! Condensing traces into the paper's diagnosis: who is the bottleneck?
//!
//! §V-B reads Figure 4 by eye: for *medium-grained*, requests pile up
//! in-queue and the slowest node's database phase spans the whole run
//! (database-saturated + imbalance); for *fine-grained*, the queue is empty
//! and the database shows idle holes while the master is still issuing
//! (master-bound). [`analyze`] computes the same signals numerically.

use crate::stage::Stage;
use crate::trace::RequestTrace;
use kvs_simcore::stats::OnlineStats;
use kvs_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Per-stage, per-node condensation of an experiment's traces.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Total requests analyzed.
    pub requests: usize,
    /// Wall-clock span of the whole run (first issue → last completion).
    pub makespan: SimDuration,
    /// Stage-duration statistics across all requests, in milliseconds.
    pub per_stage_ms: BTreeMap<Stage, OnlineStats>,
    /// Stage-duration statistics per (node, stage), in milliseconds.
    pub per_node_stage_ms: BTreeMap<(u32, Stage), OnlineStats>,
    /// Requests served per node.
    pub requests_per_node: BTreeMap<u32, u64>,
    /// Per node: instant its last request completed, relative to run start
    /// (the paper's "the slowest node dictates the overall time").
    pub node_finish_ms: BTreeMap<u32, f64>,
    /// Time the master spent issuing: first request's send start → last
    /// request's send end, in ms.
    pub issue_span_ms: f64,
    /// Fraction of the makespan during which *some* database was busy but
    /// the in-queue stage was empty — large values mean the database was
    /// starved by the master.
    pub db_idle_gap_ms: f64,
    /// The classified dominant bottleneck.
    pub bottleneck: Bottleneck,
}

/// The dominant scalability limiter, in the paper's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bottleneck {
    /// The master cannot issue requests fast enough; the database idles
    /// (the paper's fine-grained profile).
    MasterSend {
        /// Fraction of the makespan the master spent issuing.
        issue_fraction: f64,
    },
    /// The database is the weak link: long in-queue waits (the paper's
    /// medium-grained profile).
    DatabaseSaturated {
        /// Mean in-queue / mean in-db ratio.
        queue_pressure: f64,
    },
    /// Nodes received visibly different work; the most loaded node
    /// finishes last (the paper's coarse-grained profile).
    WorkloadImbalance {
        /// (max requests per node / mean requests per node) − 1.
        relative_excess: f64,
    },
    /// Nothing dominates — the system scales as configured.
    Balanced,
}

/// Thresholds for the classifier (tuned to reproduce the paper's readings
/// of Figure 4; exposed so ablation benches can stress them).
#[derive(Debug, Clone, Copy)]
pub struct ClassifierThresholds {
    /// Issue span / makespan above this ⇒ master-bound.
    pub master_issue_fraction: f64,
    /// Mean in-queue / mean in-db above this ⇒ database-saturated.
    pub queue_pressure: f64,
    /// Request-count relative excess above this ⇒ imbalance.
    pub imbalance_excess: f64,
}

impl Default for ClassifierThresholds {
    fn default() -> Self {
        ClassifierThresholds {
            master_issue_fraction: 0.60,
            queue_pressure: 0.75,
            imbalance_excess: 0.20,
        }
    }
}

/// Analyzes a run's traces with default thresholds.
///
/// ```
/// use kvs_simcore::SimTime;
/// use kvs_stages::{analyze, Stage, TraceRecorder};
///
/// let ms = |m: u64| SimTime::from_nanos(m * 1_000_000);
/// let mut rec = TraceRecorder::new();
/// rec.begin(0, 0, 100);
/// rec.record(0, Stage::MasterToSlave, ms(0), ms(1));
/// rec.record(0, Stage::InQueue, ms(1), ms(2));
/// rec.record(0, Stage::InDb, ms(2), ms(12));
/// rec.record(0, Stage::SlaveToMaster, ms(12), ms(13));
/// let report = analyze(&rec.into_traces());
/// assert_eq!(report.requests, 1);
/// assert!((report.makespan.as_millis_f64() - 13.0).abs() < 1e-9);
/// ```
pub fn analyze(traces: &[RequestTrace]) -> StageReport {
    analyze_with(traces, ClassifierThresholds::default())
}

/// One node's share of the traces, accumulated in a dense slot.
#[derive(Debug, Clone, Default)]
struct NodeAcc {
    requests: u64,
    finish: Option<SimTime>,
    stages: [OnlineStats; 4],
}

/// Analyzes a run's traces with explicit thresholds.
pub fn analyze_with(traces: &[RequestTrace], thresholds: ClassifierThresholds) -> StageReport {
    // Node ids may be sparse: each one seen gets a dense slot, in id order.
    // A run has far fewer nodes than traces, so the distinct ids are kept
    // sorted as they are met instead of sorting one id per trace.
    let mut nodes: Vec<u32> = Vec::new();
    let mut per_node: Vec<NodeAcc> = Vec::new();
    let mut per_stage: [OnlineStats; 4] = Default::default();
    let mut run_start = SimTime::MAX;
    let mut run_end = SimTime::ZERO;
    let mut send_start = SimTime::MAX;
    let mut send_end = SimTime::ZERO;

    for trace in traces {
        let slot = nodes.binary_search(&trace.node).unwrap_or_else(|at| {
            nodes.insert(at, trace.node);
            per_node.insert(at, NodeAcc::default());
            at
        });
        let node = &mut per_node[slot];
        node.requests += 1;
        if let Some(t0) = trace.issued_at() {
            run_start = run_start.min(t0);
        }
        if let Some(t1) = trace.completed_at() {
            run_end = run_end.max(t1);
            node.finish = node.finish.max(Some(t1));
        }
        for (i, span) in trace.spans.iter().enumerate() {
            if let Some(span) = span {
                let ms = span.duration().as_millis_f64();
                per_stage[i].push(ms);
                node.stages[i].push(ms);
            }
        }
        if let Some(span) = trace.spans[Stage::MasterToSlave.index()] {
            send_start = send_start.min(span.start);
            send_end = send_end.max(span.end);
        }
    }

    let makespan = if run_end > run_start {
        run_end - run_start
    } else {
        SimDuration::ZERO
    };
    let issue_span_ms = if send_end > send_start {
        (send_end - send_start).as_millis_f64()
    } else {
        0.0
    };
    let recorded = |(_, stats): &(_, OnlineStats)| stats.count() > 0;
    let per_stage_ms: BTreeMap<Stage, OnlineStats> = Stage::ALL
        .into_iter()
        .zip(per_stage)
        .filter(recorded)
        .collect();
    let mut per_node_stage_ms = BTreeMap::new();
    let mut requests_per_node = BTreeMap::new();
    let mut node_finish_ms = BTreeMap::new();
    for (&id, node) in nodes.iter().zip(per_node) {
        requests_per_node.insert(id, node.requests);
        if let Some(t) = node.finish {
            node_finish_ms.insert(id, (t - run_start).as_millis_f64());
        }
        let stages = Stage::ALL.into_iter().zip(node.stages).filter(recorded);
        per_node_stage_ms.extend(stages.map(|(stage, stats)| ((id, stage), stats)));
    }

    // Database idle gap: approximate as makespan minus the busiest node's
    // total in-db time (a fully driven single-threaded DB would be busy the
    // whole run; idle holes mean starvation). Clamped at zero because with
    // in-node parallelism the sum can exceed the makespan.
    let max_node_db_ms = per_node_stage_ms
        .iter()
        .filter(|((_, s), _)| *s == Stage::InDb)
        .map(|(_, stats)| stats.sum())
        .fold(0.0f64, f64::max);
    let db_idle_gap_ms = (makespan.as_millis_f64() - max_node_db_ms).max(0.0);

    let bottleneck = classify(
        traces.len(),
        makespan,
        issue_span_ms,
        &per_stage_ms,
        &requests_per_node,
        thresholds,
    );

    StageReport {
        requests: traces.len(),
        makespan,
        per_stage_ms,
        per_node_stage_ms,
        requests_per_node,
        node_finish_ms,
        issue_span_ms,
        db_idle_gap_ms,
        bottleneck,
    }
}

fn classify(
    requests: usize,
    makespan: SimDuration,
    issue_span_ms: f64,
    per_stage_ms: &BTreeMap<Stage, OnlineStats>,
    requests_per_node: &BTreeMap<u32, u64>,
    th: ClassifierThresholds,
) -> Bottleneck {
    if requests == 0 || makespan.is_zero() {
        return Bottleneck::Balanced;
    }
    let makespan_ms = makespan.as_millis_f64();
    let issue_fraction = issue_span_ms / makespan_ms;
    let mean_queue = per_stage_ms
        .get(&Stage::InQueue)
        .map(|s| s.mean())
        .unwrap_or(0.0);
    let mean_db = per_stage_ms
        .get(&Stage::InDb)
        .map(|s| s.mean())
        .unwrap_or(0.0);
    let queue_pressure = if mean_db > 0.0 {
        mean_queue / mean_db
    } else {
        0.0
    };
    let (max_rq, mean_rq) = request_spread(requests_per_node);
    let relative_excess = if mean_rq > 0.0 {
        max_rq / mean_rq - 1.0
    } else {
        0.0
    };

    // Priority mirrors the paper's reasoning: a master that starves the
    // database dominates everything (fine-grained); then queueing pressure
    // (medium); then pure request imbalance (coarse).
    if issue_fraction >= th.master_issue_fraction && queue_pressure < th.queue_pressure {
        Bottleneck::MasterSend { issue_fraction }
    } else if queue_pressure >= th.queue_pressure {
        if relative_excess >= th.imbalance_excess {
            Bottleneck::WorkloadImbalance { relative_excess }
        } else {
            Bottleneck::DatabaseSaturated { queue_pressure }
        }
    } else if relative_excess >= th.imbalance_excess {
        Bottleneck::WorkloadImbalance { relative_excess }
    } else {
        Bottleneck::Balanced
    }
}

fn request_spread(requests_per_node: &BTreeMap<u32, u64>) -> (f64, f64) {
    if requests_per_node.is_empty() {
        return (0.0, 0.0);
    }
    let max = *requests_per_node.values().max().expect("non-empty") as f64;
    let mean = requests_per_node.values().sum::<u64>() as f64 / requests_per_node.len() as f64;
    (max, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Span, TraceRecorder};

    /// The implementation before the dense slots, with a map look-up per
    /// node and stage of every trace: the reference the dense one must
    /// equal.
    fn analyze_reference(traces: &[RequestTrace], thresholds: ClassifierThresholds) -> StageReport {
        let mut per_stage_ms: BTreeMap<Stage, OnlineStats> = BTreeMap::new();
        let mut per_node_stage_ms: BTreeMap<(u32, Stage), OnlineStats> = BTreeMap::new();
        let mut requests_per_node: BTreeMap<u32, u64> = BTreeMap::new();
        let mut node_finish: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut run_start = SimTime::MAX;
        let mut run_end = SimTime::ZERO;
        let mut send_start = SimTime::MAX;
        let mut send_end = SimTime::ZERO;

        for trace in traces {
            *requests_per_node.entry(trace.node).or_insert(0) += 1;
            if let Some(t0) = trace.issued_at() {
                run_start = run_start.min(t0);
            }
            if let Some(t1) = trace.completed_at() {
                run_end = run_end.max(t1);
                let slot = node_finish.entry(trace.node).or_insert(SimTime::ZERO);
                *slot = (*slot).max(t1);
            }
            for stage in Stage::ALL {
                if let Some(span) = trace.spans[stage.index()] {
                    let ms = span.duration().as_millis_f64();
                    per_stage_ms.entry(stage).or_default().push(ms);
                    per_node_stage_ms
                        .entry((trace.node, stage))
                        .or_default()
                        .push(ms);
                    if stage == Stage::MasterToSlave {
                        send_start = send_start.min(span.start);
                        send_end = send_end.max(span.end);
                    }
                }
            }
        }

        let makespan = if run_end > run_start {
            run_end - run_start
        } else {
            SimDuration::ZERO
        };
        let issue_span_ms = if send_end > send_start {
            (send_end - send_start).as_millis_f64()
        } else {
            0.0
        };
        let node_finish_ms: BTreeMap<u32, f64> = node_finish
            .iter()
            .map(|(&n, &t)| (n, (t - run_start).as_millis_f64()))
            .collect();

        // Database idle gap: approximate as makespan minus the busiest node's
        // total in-db time (a fully driven single-threaded DB would be busy the
        // whole run; idle holes mean starvation). Clamped at zero because with
        // in-node parallelism the sum can exceed the makespan.
        let max_node_db_ms = per_node_stage_ms
            .iter()
            .filter(|((_, s), _)| *s == Stage::InDb)
            .map(|(_, stats)| stats.sum())
            .fold(0.0f64, f64::max);
        let db_idle_gap_ms = (makespan.as_millis_f64() - max_node_db_ms).max(0.0);

        let bottleneck = classify(
            traces.len(),
            makespan,
            issue_span_ms,
            &per_stage_ms,
            &requests_per_node,
            thresholds,
        );

        StageReport {
            requests: traces.len(),
            makespan,
            per_stage_ms,
            per_node_stage_ms,
            requests_per_node,
            node_finish_ms,
            issue_span_ms,
            db_idle_gap_ms,
            bottleneck,
        }
    }

    /// `n` seeded random traces over dense, sparse and huge node ids, each
    /// stage recorded or not at random, with spans anywhere on the clock.
    fn random_traces(seed: u64, n: usize) -> Vec<RequestTrace> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut draw = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        (0..n as u64)
            .map(|request_id| {
                let node = match draw(3) {
                    0 => draw(4) as u32,
                    1 => 1_000 + 977 * draw(5) as u32,
                    _ => u32::MAX - draw(3) as u32,
                };
                let mut spans = [None; 4];
                for span in &mut spans {
                    if draw(5) > 0 {
                        let start = SimTime::from_nanos(draw(50_000_000));
                        let end = start + SimDuration::from_nanos(draw(5_000_000));
                        *span = Some(Span { start, end });
                    }
                }
                RequestTrace {
                    request_id,
                    node,
                    cells: draw(1_000),
                    spans,
                }
            })
            .collect()
    }

    #[test]
    fn dense_slots_equal_the_map_per_lookup_reference() {
        let strict = ClassifierThresholds {
            master_issue_fraction: 0.1,
            queue_pressure: 0.1,
            imbalance_excess: 0.05,
        };
        for seed in 0..60u64 {
            let traces = random_traces(seed, (seed % 12 * 9) as usize);
            for th in [ClassifierThresholds::default(), strict] {
                assert_eq!(
                    format!("{:?}", analyze_with(&traces, th)),
                    format!("{:?}", analyze_reference(&traces, th)),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn one_trace_reports_min_equal_to_max() {
        let ms = |m: u64| SimTime::from_nanos(m * 1_000_000);
        let mut rec = TraceRecorder::new();
        rec.begin(0, 3, 100);
        rec.record(0, Stage::MasterToSlave, ms(1), ms(2));
        rec.record(0, Stage::InQueue, ms(2), ms(4));
        rec.record(0, Stage::InDb, ms(4), ms(12));
        rec.record(0, Stage::SlaveToMaster, ms(12), ms(13));
        let report = analyze(&rec.into_traces());
        let all = report.per_stage_ms.values();
        for stats in all.chain(report.per_node_stage_ms.values()) {
            assert_eq!(stats.count(), 1);
            assert_eq!(stats.min(), stats.max(), "{stats:?}");
        }
        assert_eq!(report.per_node_stage_ms.len(), 4);
    }

    #[test]
    fn shuffled_sparse_node_ids_get_the_reference_report() {
        // The first eight traces meet the ids out of order, so each new id
        // is slotted in front of, behind and between the ones already met;
        // the rest draw from them in a scrambled order.
        let ids = [u32::MAX, 900_000, 5, 0, u32::MAX - 1, 77, 1_000, 6];
        let mut traces = random_traces(7, 2_000);
        for (i, trace) in traces.iter_mut().enumerate() {
            let pick = if i < ids.len() {
                i
            } else {
                (trace.request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize
            };
            trace.node = ids[pick];
        }
        let mut sorted = ids;
        sorted.sort_unstable();
        let report = analyze(&traces);
        assert!(report.requests_per_node.keys().eq(sorted.iter()));
        assert_eq!(
            format!("{report:?}"),
            format!(
                "{:?}",
                analyze_reference(&traces, ClassifierThresholds::default())
            )
        );
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Builds a synthetic run: `sends[i]` = (node, send_start, send_end,
    /// queue_end, db_end, reply_end) in ms.
    fn run(specs: &[(u32, u64, u64, u64, u64, u64)]) -> Vec<RequestTrace> {
        let mut rec = TraceRecorder::new();
        for (id, &(node, s0, s1, q1, d1, r1)) in specs.iter().enumerate() {
            let id = id as u64;
            rec.begin(id, node, 100);
            rec.record(id, Stage::MasterToSlave, t(s0), t(s1));
            rec.record(id, Stage::InQueue, t(s1), t(q1));
            rec.record(id, Stage::InDb, t(q1), t(d1));
            rec.record(id, Stage::SlaveToMaster, t(d1), t(r1));
        }
        rec.into_traces()
    }

    #[test]
    fn empty_input_is_balanced() {
        let report = analyze(&[]);
        assert_eq!(report.bottleneck, Bottleneck::Balanced);
        assert_eq!(report.requests, 0);
        assert!(report.makespan.is_zero());
    }

    #[test]
    fn master_bound_profile_detected() {
        // Master takes 0..90 ms to issue 4 requests; each runs 5 ms in the
        // DB with no queueing — the fine-grained pattern.
        let traces = run(&[
            (0, 0, 2, 2, 7, 8),
            (1, 30, 32, 32, 37, 38),
            (0, 60, 62, 62, 67, 68),
            (1, 88, 90, 90, 95, 96),
        ]);
        let report = analyze(&traces);
        match report.bottleneck {
            Bottleneck::MasterSend { issue_fraction } => assert!(issue_fraction > 0.8),
            other => panic!("expected MasterSend, got {other:?}"),
        }
        assert!((report.issue_span_ms - 90.0).abs() < 1e-6);
    }

    #[test]
    fn database_saturated_profile_detected() {
        // All requests issued instantly; deep queues at both nodes.
        let traces = run(&[
            (0, 0, 1, 1, 11, 12),
            (0, 0, 1, 11, 21, 22),
            (0, 0, 1, 21, 31, 32),
            (1, 0, 1, 1, 11, 12),
            (1, 0, 1, 11, 21, 22),
            (1, 0, 1, 21, 31, 32),
        ]);
        let report = analyze(&traces);
        match report.bottleneck {
            Bottleneck::DatabaseSaturated { queue_pressure } => assert!(queue_pressure > 0.75),
            other => panic!("expected DatabaseSaturated, got {other:?}"),
        }
    }

    #[test]
    fn imbalance_profile_detected() {
        // Node 0 serves 4 requests back-to-back; node 1 serves 1.
        let traces = run(&[
            (0, 0, 1, 1, 11, 12),
            (0, 0, 1, 11, 21, 22),
            (0, 0, 1, 21, 31, 32),
            (0, 0, 1, 31, 41, 42),
            (1, 0, 1, 1, 11, 12),
        ]);
        let report = analyze(&traces);
        match report.bottleneck {
            Bottleneck::WorkloadImbalance { relative_excess } => {
                assert!((relative_excess - 0.6).abs() < 1e-9, "{relative_excess}")
            }
            other => panic!("expected WorkloadImbalance, got {other:?}"),
        }
        assert_eq!(report.requests_per_node[&0], 4);
        assert_eq!(report.requests_per_node[&1], 1);
        // The loaded node finishes last.
        assert!(report.node_finish_ms[&0] > report.node_finish_ms[&1]);
    }

    #[test]
    fn balanced_profile_detected() {
        let traces = run(&[
            (0, 0, 1, 1, 11, 12),
            (1, 0, 1, 1, 11, 12),
            (0, 1, 2, 2, 12, 13),
            (1, 1, 2, 2, 12, 13),
        ]);
        let report = analyze(&traces);
        assert_eq!(report.bottleneck, Bottleneck::Balanced);
    }

    #[test]
    fn per_stage_stats_are_collected() {
        let traces = run(&[(0, 0, 2, 5, 15, 16)]);
        let report = analyze(&traces);
        assert!((report.per_stage_ms[&Stage::MasterToSlave].mean() - 2.0).abs() < 1e-9);
        assert!((report.per_stage_ms[&Stage::InQueue].mean() - 3.0).abs() < 1e-9);
        assert!((report.per_stage_ms[&Stage::InDb].mean() - 10.0).abs() < 1e-9);
        assert!((report.per_stage_ms[&Stage::SlaveToMaster].mean() - 1.0).abs() < 1e-9);
        assert_eq!(report.makespan, SimDuration::from_millis(16));
    }

    #[test]
    fn db_idle_gap_flags_starvation() {
        // DB busy 5 ms of a 96 ms run → a big idle gap.
        let traces = run(&[(0, 0, 2, 2, 7, 8), (0, 88, 90, 90, 95, 96)]);
        let report = analyze(&traces);
        assert!(report.db_idle_gap_ms > 80.0, "{}", report.db_idle_gap_ms);
    }
}
