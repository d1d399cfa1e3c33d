//! The replicated write path: a coordinator over [`NetMaster`]'s
//! connection pool implementing per-request consistency levels.
//!
//! One mixed-plan run ([`NetMaster::run_mixed`]) drives reads, writes and
//! read-modify-writes through the replica set of each partition:
//!
//! * **Writes** draw a last-write-wins timestamp from the wall-clock
//!   portal, fan out to every replica, and complete once the requested
//!   consistency level — ONE, QUORUM or ALL ([`Consistency`]) — worth of
//!   replicas acknowledge holding a version at least that new. Replicas
//!   the failure detector already suspects are not sent to at all: the
//!   write is buffered as a *hint* in a bounded per-node queue and
//!   replayed when the node returns ([`NetMaster::replay_hints`]).
//! * **Reads** query the first `required` live replicas and answer with
//!   the newest version observed. A read that observes an older version
//!   than the newest acknowledged write for that partition counts as
//!   *stale* — the PCAP-style consistency metric. Replicas that answered
//!   with an older version than the winner are *read-repaired* with the
//!   coordinator's cached copy of the winning write.
//! * **RMWs** are a single `Rmw` frame: the replica reads the partition
//!   pre-image before applying, and acknowledges like a write.
//!
//! The coordinator is deliberately closed-loop per operation (issue, then
//! drain acks to the consistency level) so its latency is the `need`-th
//! order statistic of the replica leg times — the same quantity the
//! deterministic mirror in `kvs_cluster::replication` computes, which is
//! what makes the sim-vs-sockets agreement check meaningful.

use crate::clock::wall_ns;
use crate::frame::{Frame, FrameKind, FLAG_COMPACT};
use crate::master::{DownReason, Event, NetMaster, Route};
use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use kvs_cluster::{CodecKind, Consistency, QueryRequest, WriteRequest};
use kvs_store::{Cell, PartitionKey};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

/// Write-path ids live far above the read path's route indexes so a
/// stale frame from one loop can never be claimed by the other.
const ID_BASE: u64 = 1 << 40;

/// One buffered write for a dark replica.
struct Hint {
    partition: PartitionKey,
    timestamp: u64,
    cells: Vec<Cell>,
}

/// Coordinator state that outlives a single [`NetMaster::run_mixed`]
/// call: hint queues survive until their node recovers, the write cache
/// feeds read-repair, and the acked-version map feeds staleness
/// accounting.
#[derive(Default)]
pub(crate) struct WriteState {
    /// Per-node bounded hint queues (writes the node missed while dark).
    hints: HashMap<u32, VecDeque<Hint>>,
    /// Last acknowledged write per partition, for read-repair resends.
    write_cache: HashMap<Vec<u8>, (u64, Vec<Cell>)>,
    /// Newest coordinator-acknowledged version per partition.
    latest_acked: HashMap<Vec<u8>, u64>,
    /// Monotone id source for write-path frames.
    next_id: u64,
}

impl WriteState {
    fn fresh_id(&mut self) -> u64 {
        let id = ID_BASE + self.next_id;
        self.next_id += 1;
        id
    }
}

/// What one mixed-plan leg does.
#[derive(Debug, Clone)]
pub enum MixedOp {
    /// Consistency-level read with staleness accounting.
    Read,
    /// Replicated LWW write of these cells.
    Write {
        /// The cells to apply to the partition.
        cells: Vec<Cell>,
    },
    /// Read-modify-write: the replica reads the pre-image, then applies.
    Rmw {
        /// The cells to apply after the pre-image read.
        cells: Vec<Cell>,
    },
}

/// One operation of a mixed read/write plan.
#[derive(Debug, Clone)]
pub struct MixedPlan {
    /// The partition and its replica set, primary first.
    pub route: Route,
    /// What to do.
    pub op: MixedOp,
    /// The consistency level this operation must reach.
    pub consistency: Consistency,
}

/// Knobs of the write path that are not per-operation.
#[derive(Debug, Clone, Copy)]
pub struct WriteOptions {
    /// Bound on each node's hint queue; overflow drops the oldest-first
    /// enqueue attempt and counts it.
    pub hint_queue_cap: usize,
    /// Whether divergent read responses trigger repair writes.
    pub read_repair: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            hint_queue_cap: 1024,
            read_repair: true,
        }
    }
}

/// Counters and samples from one mixed run; the socket-world twin of
/// `kvs_cluster::replication::ReplicationOutcome`.
#[derive(Debug, Clone, Default)]
pub struct MixedOutcome {
    /// Per-completed-read latency, milliseconds, in completion order.
    pub read_latency_ms: Vec<f64>,
    /// Per-acked-write (and RMW) latency, milliseconds, in completion
    /// order.
    pub write_latency_ms: Vec<f64>,
    /// Reads that reached their consistency level.
    pub reads: u64,
    /// Reads that could not assemble enough replica answers in time.
    pub reads_failed: u64,
    /// Reads that observed an older version than the newest acked write.
    pub stale_reads: u64,
    /// Writes acknowledged at their consistency level.
    pub writes_acked: u64,
    /// Writes that ran out of live replicas or time.
    pub writes_failed: u64,
    /// Hints buffered for suspected-dead replicas.
    pub hints_queued: u64,
    /// Hints dropped at the queue bound.
    pub hints_dropped: u64,
    /// Reads whose replica answers disagreed on version.
    pub divergent_reads: u64,
    /// Repair writes sent to lagging replicas.
    pub read_repairs: u64,
    /// Busy-frame flow-control retries across all legs.
    pub busy_retries: u64,
    /// Wall-clock span of the whole run, milliseconds.
    pub makespan_ms: f64,
    /// Every write the coordinator acknowledged: `(partition, version)`.
    /// The hinted-handoff oracle checks these against recovered stores.
    pub acked: Vec<(PartitionKey, u64)>,
}

impl NetMaster {
    /// Runs a mixed read/write plan through the replicated write path.
    /// `arrivals_ns[i]`, when given, paces operation `i` to start that
    /// many nanoseconds after the run begins (open loop); `None` runs the
    /// plan back-to-back (closed loop).
    pub fn run_mixed(
        &mut self,
        plans: &[MixedPlan],
        arrivals_ns: Option<&[u64]>,
        wcfg: &WriteOptions,
    ) -> io::Result<MixedOutcome> {
        if let Some(a) = arrivals_ns {
            assert_eq!(a.len(), plans.len(), "one arrival offset per op");
        }
        let origin = Instant::now();
        let mut out = MixedOutcome::default();
        for (i, plan) in plans.iter().enumerate() {
            if let Some(arrivals) = arrivals_ns {
                let due = Duration::from_nanos(arrivals[i]);
                let elapsed = origin.elapsed();
                if elapsed < due {
                    std::thread::sleep(due - elapsed);
                }
            }
            assert!(!plan.route.replicas.is_empty(), "plan {i} has no replicas");
            let need = plan.consistency.required(plan.route.replicas.len());
            match &plan.op {
                MixedOp::Read => self.read_leg(&plan.route, need, wcfg, &mut out),
                MixedOp::Write { cells } => {
                    self.write_leg(&plan.route, cells, need, false, wcfg, &mut out)
                }
                MixedOp::Rmw { cells } => {
                    self.write_leg(&plan.route, cells, need, true, wcfg, &mut out)
                }
            }
        }
        out.makespan_ms = origin.elapsed().as_secs_f64() * 1e3;
        Ok(out)
    }

    /// Writes currently buffered for `node` (whichever run queued them).
    pub fn hinted_for(&self, node: u32) -> usize {
        self.wstate.hints.get(&node).map(|q| q.len()).unwrap_or(0)
    }

    /// Replays every hint buffered for `node` through its (re-established)
    /// connection, waiting for each ack. Returns how many hints the node
    /// acknowledged. Call after [`NetMaster::reconnect`]; replay is
    /// idempotent on the replica because LWW ties keep the incumbent.
    pub fn replay_hints(&mut self, node: u32) -> io::Result<u64> {
        let mut queue = self.wstate.hints.remove(&node).unwrap_or_default();
        let mut replayed = 0u64;
        while let Some(hint) = queue.pop_front() {
            let id = self.wstate.fresh_id();
            let op_deadline = self.leg_deadline();
            let payload = self.cfg.codec.encode_write(&WriteRequest {
                request_id: id,
                partition: hint.partition.clone(),
                timestamp: hint.timestamp,
                cells: hint.cells.clone(),
            });
            if self
                .send_write_frame(node, FrameKind::Write, id, payload.clone(), op_deadline)
                .is_err()
            {
                // The node is gone again: keep the rest (and this hint)
                // buffered for the next recovery.
                queue.push_front(hint);
                self.wstate.hints.insert(node, queue);
                self.mark_dead(node);
                return Ok(replayed);
            }
            if self.await_ack(node, id, hint.timestamp).is_some() {
                replayed += 1;
            }
        }
        Ok(replayed)
    }

    /// One replicated write (or RMW) leg: fan out, hint dark replicas,
    /// drain acks to the consistency level with one retry round.
    fn write_leg(
        &mut self,
        route: &Route,
        cells: &[Cell],
        need: usize,
        rmw: bool,
        wcfg: &WriteOptions,
        out: &mut MixedOutcome,
    ) {
        let issue = Instant::now();
        let ts = wall_ns();
        let id = self.wstate.fresh_id();
        let op_deadline = self.leg_deadline();
        let payload = self.cfg.codec.encode_write(&WriteRequest {
            request_id: id,
            partition: route.key.clone(),
            timestamp: ts,
            cells: cells.to_vec(),
        });
        let kind = if rmw {
            FrameKind::Rmw
        } else {
            FrameKind::Write
        };

        // Fan out. Suspected replicas get a hint instead of a doomed send.
        let mut outstanding: Vec<u32> = Vec::new();
        for &node in &route.replicas {
            if self.hard_suspect(node) {
                self.queue_hint(node, route, ts, cells, wcfg, out);
                continue;
            }
            match self.send_write_frame(node, kind, id, payload.clone(), op_deadline) {
                Ok(()) => outstanding.push(node),
                Err(_) => {
                    self.mark_dead(node);
                    self.queue_hint(node, route, ts, cells, wcfg, out);
                }
            }
        }

        let mut acks = 0usize;
        for round in 0..2 {
            if acks >= need || outstanding.is_empty() {
                break;
            }
            let deadline = Instant::now() + self.cfg.timeout;
            while acks < need && !outstanding.is_empty() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match self.rx.recv_timeout(left) {
                    Ok(Event::Frame(node, frame)) => {
                        self.note_alive(node, Instant::now());
                        if frame.id != id {
                            continue; // stray frame from an earlier leg
                        }
                        if frame.kind == FrameKind::WriteAck {
                            let Some(ack) = self.cfg.codec.decode_write_ack(frame.payload.clone())
                            else {
                                continue;
                            };
                            outstanding.retain(|&n| n != node);
                            // The ack counts iff the replica provably holds
                            // data at least as new as this write.
                            if ack.version >= ts {
                                acks += 1;
                            }
                        } else if frame.kind == FrameKind::Busy {
                            out.busy_retries += 1;
                            std::thread::sleep(self.cfg.busy_backoff);
                            if self
                                .send_write_frame(node, kind, id, payload.clone(), op_deadline)
                                .is_err()
                            {
                                self.mark_dead(node);
                                outstanding.retain(|&n| n != node);
                                self.queue_hint(node, route, ts, cells, wcfg, out);
                            }
                        }
                    }
                    Ok(Event::Down(node, _reason)) => {
                        self.mark_dead(node);
                        if outstanding.contains(&node) {
                            outstanding.retain(|&n| n != node);
                            self.queue_hint(node, route, ts, cells, wcfg, out);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        outstanding.clear();
                        break;
                    }
                }
            }
            // Retry round: re-send to the replicas that stayed silent.
            if round == 0 && acks < need {
                for &node in outstanding.clone().iter() {
                    if self
                        .send_write_frame(node, kind, id, payload.clone(), op_deadline)
                        .is_err()
                    {
                        self.mark_dead(node);
                        outstanding.retain(|&n| n != node);
                        self.queue_hint(node, route, ts, cells, wcfg, out);
                    }
                }
            }
        }

        if acks >= need {
            out.writes_acked += 1;
            out.write_latency_ms
                .push(issue.elapsed().as_secs_f64() * 1e3);
            out.acked.push((route.key.clone(), ts));
            let pk = route.key.as_bytes().to_vec();
            let newest = self.wstate.latest_acked.entry(pk.clone()).or_insert(0);
            if ts > *newest {
                *newest = ts;
                self.wstate.write_cache.insert(pk, (ts, cells.to_vec()));
            }
        } else {
            out.writes_failed += 1;
            // Replicas that stayed silent through both rounds may have
            // missed the frame entirely; a hint makes recovery converge
            // and is idempotent if they did apply it.
            for node in outstanding {
                self.queue_hint(node, route, ts, cells, wcfg, out);
            }
        }
    }

    /// One consistency-level read leg with staleness accounting and
    /// read-repair.
    fn read_leg(
        &mut self,
        route: &Route,
        need: usize,
        wcfg: &WriteOptions,
        out: &mut MixedOutcome,
    ) {
        let issue = Instant::now();
        let pk = route.key.as_bytes().to_vec();
        let acked_at_issue = self.wstate.latest_acked.get(&pk).copied().unwrap_or(0);
        let id = self.wstate.fresh_id();
        let op_deadline = self.leg_deadline();
        let payload = self.cfg.codec.encode_request(&QueryRequest {
            request_id: id,
            partition: route.key.clone(),
        });
        let mut outstanding: Vec<u32> = Vec::new();
        for &node in &route.replicas {
            if outstanding.len() >= need {
                break;
            }
            if self.hard_suspect(node) {
                continue;
            }
            match self.send_write_frame(node, FrameKind::Request, id, payload.clone(), op_deadline)
            {
                Ok(()) => outstanding.push(node),
                Err(_) => self.mark_dead(node),
            }
        }
        if outstanding.len() < need {
            out.reads_failed += 1;
            return;
        }

        let mut answers: Vec<(u32, u64)> = Vec::new();
        let deadline = Instant::now() + self.cfg.timeout;
        while answers.len() < need {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.rx.recv_timeout(left) {
                Ok(Event::Frame(node, frame)) => {
                    self.note_alive(node, Instant::now());
                    if frame.id != id {
                        continue;
                    }
                    if frame.kind == FrameKind::Response {
                        let Some(resp) = self.cfg.codec.decode_response(frame.payload.clone())
                        else {
                            continue;
                        };
                        answers.push((node, resp.version));
                    } else if frame.kind == FrameKind::Busy {
                        out.busy_retries += 1;
                        std::thread::sleep(self.cfg.busy_backoff);
                        if self
                            .send_write_frame(
                                node,
                                FrameKind::Request,
                                id,
                                payload.clone(),
                                op_deadline,
                            )
                            .is_err()
                        {
                            self.mark_dead(node);
                        }
                    }
                }
                Ok(Event::Down(node, _reason)) => {
                    self.mark_dead(node);
                    outstanding.retain(|&n| n != node);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if answers.len() < need {
            out.reads_failed += 1;
            return;
        }

        out.reads += 1;
        out.read_latency_ms
            .push(issue.elapsed().as_secs_f64() * 1e3);
        let observed = answers.iter().map(|(_, v)| *v).max().unwrap_or(0);
        let oldest = answers.iter().map(|(_, v)| *v).min().unwrap_or(0);
        if observed < acked_at_issue {
            out.stale_reads += 1;
        }
        if observed != oldest {
            out.divergent_reads += 1;
            if wcfg.read_repair {
                self.read_repair(route, observed, &answers, out);
            }
        }
    }

    /// Re-sends the cached winning write to every replica that answered
    /// with an older version. Fire-and-forget: the repair's own ack is
    /// drained (and ignored) by whichever leg runs next.
    fn read_repair(
        &mut self,
        route: &Route,
        winner: u64,
        answers: &[(u32, u64)],
        out: &mut MixedOutcome,
    ) {
        let pk = route.key.as_bytes().to_vec();
        let Some((ts, cells)) = self.wstate.write_cache.get(&pk).cloned() else {
            return; // the winning write predates this coordinator
        };
        if ts < winner {
            return; // cache is older than what a replica already holds
        }
        for &(node, version) in answers {
            if version >= winner {
                continue;
            }
            let id = self.wstate.fresh_id();
            let op_deadline = self.leg_deadline();
            let payload = self.cfg.codec.encode_write(&WriteRequest {
                request_id: id,
                partition: route.key.clone(),
                timestamp: ts,
                cells: cells.clone(),
            });
            if self
                .send_write_frame(node, FrameKind::Write, id, payload, op_deadline)
                .is_ok()
            {
                out.read_repairs += 1;
            } else {
                self.mark_dead(node);
            }
        }
    }

    /// Buffers a write for a dark replica, respecting the queue bound.
    fn queue_hint(
        &mut self,
        node: u32,
        route: &Route,
        timestamp: u64,
        cells: &[Cell],
        wcfg: &WriteOptions,
        out: &mut MixedOutcome,
    ) {
        let queue = self.wstate.hints.entry(node).or_default();
        if queue.len() >= wcfg.hint_queue_cap.max(1) {
            out.hints_dropped += 1;
            return;
        }
        queue.push_back(Hint {
            partition: route.key.clone(),
            timestamp,
            cells: cells.to_vec(),
        });
        out.hints_queued += 1;
    }

    /// Wall-clock deadline for one leg: now plus two timeout rounds, so
    /// every retransmit of the same operation shares the leg's budget.
    fn leg_deadline(&self) -> u64 {
        wall_ns().saturating_add(2 * self.cfg.timeout.as_nanos() as u64)
    }

    /// Frames and writes one write-path message. The stamp convention is
    /// the request one: issue, send, send-sequence, and a slave-owned 0.
    /// The deadline is the leg's: retransmits must pass the same value,
    /// never mint a fresh one (KVS-L016).
    fn send_write_frame(
        &mut self,
        node: u32,
        kind: FrameKind,
        id: u64,
        payload: Bytes,
        deadline: u64,
    ) -> io::Result<()> {
        let flags = match self.cfg.codec.kind {
            CodecKind::Compact => FLAG_COMPACT,
            CodecKind::Verbose => 0,
        };
        let issued_wall = wall_ns();
        let sent_wall = wall_ns();
        let seq = self.send_seq;
        self.send_seq += 1;
        let frame = Frame {
            kind,
            flags,
            id,
            stamps: [issued_wall, sent_wall, seq, 0],
            deadline,
            payload,
        };
        self.write_frame(node, &frame)
    }

    /// Waits for `node` to acknowledge write `id` at version ≥ `ts`.
    /// Returns the acked version, or `None` on timeout/refusal.
    fn await_ack(&mut self, node: u32, id: u64, ts: u64) -> Option<u64> {
        let deadline = Instant::now() + self.cfg.timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.rx.recv_timeout(left) {
                Ok(Event::Frame(from, frame)) => {
                    self.note_alive(from, Instant::now());
                    if from != node || frame.id != id || frame.kind != FrameKind::WriteAck {
                        continue;
                    }
                    let ack = self.cfg.codec.decode_write_ack(frame.payload.clone())?;
                    if ack.version >= ts {
                        return Some(ack.version);
                    }
                    return None;
                }
                Ok(Event::Down(from, reason)) => {
                    if reason == DownReason::Corrupt || from == node {
                        self.mark_dead(from);
                    }
                    if from == node {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}
