//! The live executor: the same master/slave query on real OS threads.
//!
//! Where [`crate::sim`] replays the paper's hardware, this module runs the
//! prototype *for real*: each slave node is a pool of worker threads owning
//! a [`kvs_store::Table`] behind a mutex, bounded work queues
//! ([`crate::queue`]) play the network, and the four methodology stages are
//! measured with wall-clock timestamps. It demonstrates that the methodology (stage tracing →
//! bottleneck classification → model fitting) is not tied to the simulator;
//! the `live_cluster` example and the integration tests drive it.
//!
//! Stage mapping on real hardware:
//! * `master-to-slaves` — request creation (the master knows all keys at
//!   t=0) until the master finished serializing + dispatching it. This is
//!   where a slow codec shows up, exactly as in §V-B.
//! * `in-queue` — dispatch until a slave worker picked the request up.
//! * `in-db` — the actual store read.
//! * `slaves-to-master` — store completion until the master has
//!   deserialized the response.

use crate::codec::Codec;
use crate::data::{aggregate, ClusterData};
use crate::messages::QueryRequest;
use crate::queue::{work_queue, QueueStats};
use crate::result::{Coverage, RunResult};
use bytes::Bytes;
use kvs_simcore::{SimDuration, SimTime};
use kvs_stages::{analyze, Stage, TraceRecorder};
use kvs_store::PartitionKey;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Live-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Serialization strategy (real encode/decode work happens).
    pub codec: Codec,
    /// Worker threads per slave node (the database executor width).
    pub workers_per_node: usize,
    /// Per-node work-queue capacity. A full queue makes the master's
    /// dispatch block (counted in [`QueueStats::blocked_pushes`]), so
    /// in-queue saturation is observable instead of silently absorbed.
    pub queue_depth: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            codec: Codec::compact(),
            workers_per_node: 4,
            queue_depth: 64,
        }
    }
}

struct WireRequest {
    bytes: Bytes,
    issued_at: Instant,
    sent_at: Instant,
}

struct WireResponse {
    bytes: Bytes,
    node: u32,
    issued_at: Instant,
    sent_at: Instant,
    db_start: Instant,
    db_end: Instant,
}

/// Runs the distributed aggregation on real threads. Consumes the data
/// (worker threads take ownership of the tables).
///
/// # Panics
/// If a key is unplaced, or a worker thread panics.
pub fn run_query_live(data: ClusterData, keys: &[PartitionKey], cfg: LiveConfig) -> RunResult {
    let nodes = data.nodes();
    // Resolve routing before tables move into the workers.
    let routes: Vec<u32> = keys
        .iter()
        .map(|pk| {
            data.primary_of(pk)
                .unwrap_or_else(|| panic!("unplaced partition {pk:?}"))
        })
        .collect();
    let tables = data.into_tables();

    // The response path is unbounded on purpose: the master issues every
    // request before collecting, so a bounded response channel would
    // deadlock against a full request queue. Backpressure lives on the
    // request path, where in-queue saturation is the quantity of interest.
    let (resp_tx, resp_rx) = crossbeam::channel::unbounded::<WireResponse>();
    let mut req_queues = Vec::with_capacity(nodes as usize);
    let mut handles = Vec::new();
    for (node, table) in tables.into_iter().enumerate() {
        let (queue, source) = work_queue::<WireRequest>(cfg.queue_depth.max(1));
        req_queues.push(queue);
        let table = Arc::new(Mutex::new(table));
        for _ in 0..cfg.workers_per_node.max(1) {
            let source = source.clone();
            let resp_tx = resp_tx.clone();
            let table = table.clone();
            let codec = cfg.codec;
            let node = node as u32;
            handles.push(std::thread::spawn(move || {
                while let Some(wire) = source.recv() {
                    let db_start = Instant::now();
                    let req = codec
                        .decode_request(wire.bytes)
                        .expect("malformed request on the wire");
                    let (response, _receipt) =
                        aggregate(&mut table.lock(), req.request_id, &req.partition);
                    let db_end = Instant::now();
                    let bytes = codec.encode_response(&response);
                    // Ignore send failure: the master may already have all
                    // it needs and dropped the receiver.
                    let _ = resp_tx.send(WireResponse {
                        bytes,
                        node,
                        issued_at: wire.issued_at,
                        sent_at: wire.sent_at,
                        db_start,
                        db_end,
                    });
                }
            }));
        }
    }
    drop(resp_tx);

    // ---- Master: issue every request. ----
    let origin = Instant::now();
    let to_sim = |t: Instant| -> SimTime {
        SimTime::from_nanos(t.saturating_duration_since(origin).as_nanos() as u64)
    };
    let mut bytes_to_slaves = 0u64;
    let mut send_last = origin;
    for (i, pk) in keys.iter().enumerate() {
        let request = QueryRequest {
            request_id: i as u64,
            partition: pk.clone(),
        };
        let bytes = cfg.codec.encode_request(&request);
        bytes_to_slaves += bytes.len() as u64;
        let sent_at = Instant::now();
        send_last = sent_at;
        req_queues[routes[i] as usize]
            .push_blocking(WireRequest {
                bytes,
                issued_at: origin,
                sent_at,
            })
            .unwrap_or_else(|_| panic!("slave hung up before the query finished"));
    }

    // ---- Master: collect every response. ----
    let mut recorder = TraceRecorder::new();
    let mut counts = std::collections::BTreeMap::new();
    let mut total_cells = 0u64;
    let mut bytes_to_master = 0u64;
    for _ in 0..keys.len() {
        let wire = resp_rx.recv().expect("workers died before finishing");
        bytes_to_master += wire.bytes.len() as u64;
        let response = cfg
            .codec
            .decode_response(wire.bytes)
            .expect("malformed response on the wire");
        let rx_done = Instant::now();
        let id = response.request_id;
        recorder.begin(id, wire.node, response.cells);
        recorder.record(
            id,
            Stage::MasterToSlave,
            to_sim(wire.issued_at),
            to_sim(wire.sent_at),
        );
        recorder.record(
            id,
            Stage::InQueue,
            to_sim(wire.sent_at),
            to_sim(wire.db_start),
        );
        recorder.record(id, Stage::InDb, to_sim(wire.db_start), to_sim(wire.db_end));
        recorder.record(
            id,
            Stage::SlaveToMaster,
            to_sim(wire.db_end),
            to_sim(rx_done),
        );
        for (&kind, &count) in &response.counts {
            *counts.entry(kind).or_insert(0u64) += count;
        }
        total_cells += response.cells;
    }

    // Closing the request queues ends the worker loops.
    let mut queue_stats = QueueStats::default();
    for q in &req_queues {
        queue_stats.merge(&q.stats());
    }
    drop(req_queues);
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let traces = recorder.into_traces();
    let report = analyze(&traces);
    RunResult {
        makespan: report.makespan,
        report,
        traces,
        counts_by_kind: counts,
        total_cells,
        messages: keys.len() as u64,
        bytes_to_slaves,
        bytes_to_master,
        issue_span: SimDuration::from_nanos(
            send_last.saturating_duration_since(origin).as_nanos() as u64
        ),
        failovers: 0,
        coverage: Coverage::complete(keys.len() as u64),
        missed: Vec::new(),
        hedges_sent: 0,
        hedges_won: 0,
        queue: Some(queue_stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::uniform_partitions;
    use kvs_store::TableOptions;

    fn live_data(nodes: u32, partitions: u64, cells: u64) -> (ClusterData, Vec<PartitionKey>) {
        let parts = uniform_partitions(partitions, cells, 4);
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        let data = ClusterData::load(nodes, 1, TableOptions::default(), parts);
        (data, keys)
    }

    #[test]
    fn live_aggregation_is_correct() {
        let (data, keys) = live_data(3, 24, 8);
        let result = run_query_live(data, &keys, LiveConfig::default());
        assert_eq!(result.total_cells, 24 * 8);
        assert_eq!(result.counts_by_kind.values().sum::<u64>(), 24 * 8);
        assert_eq!(result.messages, 24);
        assert_eq!(result.traces.len(), 24);
    }

    #[test]
    fn live_traces_are_complete() {
        let (data, keys) = live_data(2, 10, 4);
        let result = run_query_live(data, &keys, LiveConfig::default());
        for t in &result.traces {
            assert!(t.is_complete(), "incomplete live trace {t:?}");
        }
        assert!(result.makespan > SimDuration::ZERO);
    }

    #[test]
    fn live_matches_sim_aggregation() {
        // Same data, both executors: identical answers.
        let (data, keys) = live_data(2, 16, 6);
        let (mut sim_data, _) = live_data(2, 16, 6);
        let live = run_query_live(data, &keys, LiveConfig::default());
        let cfg = crate::config::ClusterConfig::paper_optimized_master(2).deterministic();
        let sim = crate::sim::run_query(&cfg, &mut sim_data, &keys);
        assert_eq!(live.counts_by_kind, sim.counts_by_kind);
        assert_eq!(live.total_cells, sim.total_cells);
    }

    #[test]
    fn verbose_codec_costs_more_wire_bytes_live() {
        let (d1, keys) = live_data(2, 20, 4);
        let (d2, _) = live_data(2, 20, 4);
        let v = run_query_live(
            d1,
            &keys,
            LiveConfig {
                codec: Codec::verbose(),
                workers_per_node: 2,
                queue_depth: 64,
            },
        );
        let c = run_query_live(
            d2,
            &keys,
            LiveConfig {
                codec: Codec::compact(),
                workers_per_node: 2,
                queue_depth: 64,
            },
        );
        assert!(v.bytes_to_slaves > c.bytes_to_slaves * 4);
        assert_eq!(v.counts_by_kind, c.counts_by_kind);
    }

    #[test]
    fn queue_stats_reported() {
        let (data, keys) = live_data(2, 30, 4);
        let result = run_query_live(data, &keys, LiveConfig::default());
        let q = result.queue.expect("live runs report queue stats");
        assert_eq!(q.pushed, 30);
        assert_eq!(q.busy_rejections, 0, "push_blocking never rejects");
    }

    #[test]
    fn tiny_queue_makes_saturation_observable() {
        // One worker per node and a depth-1 queue: the master must outpace
        // the slaves, so some dispatches block and the counters show it.
        let (data, keys) = live_data(1, 64, 32);
        let result = run_query_live(
            data,
            &keys,
            LiveConfig {
                codec: Codec::verbose(),
                workers_per_node: 1,
                queue_depth: 1,
            },
        );
        let q = result.queue.expect("live runs report queue stats");
        assert_eq!(q.pushed, 64);
        assert!(q.saturated(), "depth-1 queue never filled: {q:?}");
        assert_eq!(result.total_cells, 64 * 32);
    }
}
