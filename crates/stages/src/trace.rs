//! Per-request traces and the recorder that collects them.

use crate::stage::Stage;
use kvs_simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// A closed time interval on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage entry instant.
    pub start: SimTime,
    /// Stage exit instant.
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The full stage decomposition of one sub-query.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Request id (unique within an experiment).
    pub request_id: u64,
    /// Index of the slave node that served the request.
    pub node: u32,
    /// Number of cells in the partition the request read.
    pub cells: u64,
    /// Per-stage spans, indexed by [`Stage::index`]. A `None` means the
    /// stage was never entered (e.g. the request is still in flight).
    pub spans: [Option<Span>; 4],
}

impl RequestTrace {
    /// The duration spent in a given stage (zero when not recorded).
    pub fn stage_duration(&self, stage: Stage) -> SimDuration {
        self.spans[stage.index()]
            .map(|s| s.duration())
            .unwrap_or(SimDuration::ZERO)
    }

    /// The instant the request was issued (start of the first recorded
    /// stage).
    pub fn issued_at(&self) -> Option<SimTime> {
        self.spans.iter().flatten().map(|s| s.start).min()
    }

    /// The instant the request fully completed (end of the last recorded
    /// stage).
    pub fn completed_at(&self) -> Option<SimTime> {
        self.spans.iter().flatten().map(|s| s.end).max()
    }

    /// End-to-end latency (zero if no stage was recorded).
    pub fn total(&self) -> SimDuration {
        match (self.issued_at(), self.completed_at()) {
            (Some(a), Some(b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }

    /// True when all four stages are recorded.
    pub fn is_complete(&self) -> bool {
        self.spans.iter().all(|s| s.is_some())
    }
}

/// Collects traces for one experiment run.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    traces: HashMap<u64, RequestTrace>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder with room for `requests` traces, so a run whose
    /// size is known up front never rehashes on the way there.
    pub fn with_capacity(requests: usize) -> Self {
        TraceRecorder {
            traces: HashMap::with_capacity(requests),
        }
    }

    /// Records a request whose stages are all known — the whole of
    /// [`TraceRecorder::begin`] plus one [`TraceRecorder::record`] per
    /// stage, in one look-up. Replaces any trace the id already had.
    pub fn insert(&mut self, trace: RequestTrace) {
        debug_assert!(
            trace.spans.iter().flatten().all(|s| s.end >= s.start),
            "span ends before it starts"
        );
        self.traces.insert(trace.request_id, trace);
    }

    /// Registers a request (idempotent; node/cells of the first call win).
    pub fn begin(&mut self, request_id: u64, node: u32, cells: u64) {
        self.traces.entry(request_id).or_insert(RequestTrace {
            request_id,
            node,
            cells,
            spans: [None; 4],
        });
    }

    /// Records a stage span for a request. Requests are registered lazily
    /// if `begin` was not called (node/cells default to 0 — useful in unit
    /// tests; the cluster layer always calls `begin`).
    pub fn record(&mut self, request_id: u64, stage: Stage, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "span ends before it starts");
        let trace = self.traces.entry(request_id).or_insert(RequestTrace {
            request_id,
            node: 0,
            cells: 0,
            spans: [None; 4],
        });
        trace.spans[stage.index()] = Some(Span { start, end });
    }

    /// Number of registered requests.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no request was registered.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Finishes the run, returning traces sorted by request id.
    pub fn into_traces(self) -> Vec<RequestTrace> {
        let mut out: Vec<RequestTrace> = self.traces.into_values().collect();
        out.sort_by_key(|t| t.request_id);
        out
    }

    /// Borrows a trace (testing/diagnostics).
    pub fn get(&self, request_id: u64) -> Option<&RequestTrace> {
        self.traces.get(&request_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn record_and_read_back() {
        let mut rec = TraceRecorder::new();
        rec.begin(1, 3, 100);
        rec.record(1, Stage::MasterToSlave, t(0), t(2));
        rec.record(1, Stage::InQueue, t(2), t(5));
        rec.record(1, Stage::InDb, t(5), t(15));
        rec.record(1, Stage::SlaveToMaster, t(15), t(16));
        let trace = rec.get(1).unwrap();
        assert!(trace.is_complete());
        assert_eq!(trace.node, 3);
        assert_eq!(trace.cells, 100);
        assert_eq!(
            trace.stage_duration(Stage::InDb),
            SimDuration::from_millis(10)
        );
        assert_eq!(trace.total(), SimDuration::from_millis(16));
        assert_eq!(trace.issued_at(), Some(t(0)));
        assert_eq!(trace.completed_at(), Some(t(16)));
    }

    #[test]
    fn incomplete_trace_reports_partial() {
        let mut rec = TraceRecorder::new();
        rec.record(7, Stage::MasterToSlave, t(0), t(1));
        let trace = rec.get(7).unwrap();
        assert!(!trace.is_complete());
        assert_eq!(trace.stage_duration(Stage::InDb), SimDuration::ZERO);
        assert_eq!(trace.total(), SimDuration::from_millis(1));
    }

    #[test]
    fn insert_is_begin_plus_every_record() {
        let spans = [(0, 2), (2, 5), (5, 15), (15, 16)];
        let mut by_calls = TraceRecorder::new();
        by_calls.begin(1, 3, 100);
        for (stage, (from, to)) in Stage::ALL.into_iter().zip(spans) {
            by_calls.record(1, stage, t(from), t(to));
        }
        let mut by_insert = TraceRecorder::with_capacity(1);
        by_insert.insert(RequestTrace {
            request_id: 1,
            node: 3,
            cells: 100,
            spans: spans.map(|(from, to)| {
                Some(Span {
                    start: t(from),
                    end: t(to),
                })
            }),
        });
        assert_eq!(
            format!("{:?}", by_insert.into_traces()),
            format!("{:?}", by_calls.into_traces())
        );
    }

    #[test]
    fn begin_is_idempotent() {
        let mut rec = TraceRecorder::new();
        rec.begin(1, 3, 100);
        rec.begin(1, 9, 999);
        assert_eq!(rec.get(1).unwrap().node, 3);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn into_traces_sorts_by_id() {
        let mut rec = TraceRecorder::new();
        for id in [5u64, 1, 3] {
            rec.begin(id, 0, 0);
        }
        let ids: Vec<u64> = rec.into_traces().iter().map(|t| t.request_id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn empty_recorder() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        assert!(rec.into_traces().is_empty());
    }
}
