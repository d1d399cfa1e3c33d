//! The replicated write path over sockets. [`NetMaster::run_mixed`] runs
//! reads, LWW writes and read-modify-writes at per-request consistency
//! levels (ONE/QUORUM/ALL, [`Consistency`]) through the coordinator in
//! [`kvs_cluster::coord`]. That machine decides every protocol question:
//! who gets a frame and who a hint, when a level is reached (counted over
//! distinct replicas), the one retry round, staleness, read repair and
//! what a hint replay delivers. This file runs it over sockets. It stamps
//! each write from the wall clock, encodes the frames the machine asks
//! for, turns connection events into machine inputs, and keeps the failure
//! detector, the `Busy` back-off and the latency clock.
//!
//! * **Writes** fan out to every replica the failure detector does not
//!   suspect; a suspected one gets a hint, replayed when the node returns
//!   ([`NetMaster::replay_hints`]). A write completes once enough replicas
//!   acknowledge holding a version at least that new.
//! * **Reads** query the first `required` live replicas and answer with
//!   the newest version observed. One older than the newest acknowledged
//!   write counts as *stale*, and replicas that answered older than the
//!   winner are *read-repaired* from the coordinator's cached write.
//! * **RMWs** are a single `Rmw` frame: the replica reads the partition
//!   pre-image before applying, and acknowledges like a write.
//!
//! One operation is in flight at a time (issue, then drain replies until
//! the leg closes), so a leg's latency is the `need`-th order statistic of
//! its replica round trips. `kvs_cluster::sim::run_replicated` simulates
//! exactly that, by running the same machine.

use crate::clock::wall_ns;
use crate::frame::{Frame, FrameKind, FLAG_COMPACT};
use crate::master::{Event, NetMaster, Route};
use bytes::Bytes;
use kvs_cluster::coord::{Coordinator, Input, Leg, Op, OpKind, Send, Status};
use kvs_cluster::{CodecKind, Consistency, QueryRequest, Totals, WriteRequest};
use kvs_store::{Cell, PartitionKey};
use std::io;
use std::time::{Duration, Instant};

pub use kvs_cluster::coord::{MixedOutcome, WriteOptions};

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

/// Milliseconds since `origin`: the latency clock the coordinator is fed.
fn ms_since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64() * 1e3
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
        let mut coord = std::mem::take(&mut self.coord);
        coord.begin(*wcfg);
        for (i, plan) in plans.iter().enumerate() {
            if let Some(arrivals) = arrivals_ns {
                let due = Duration::from_nanos(arrivals[i]);
                let elapsed = origin.elapsed();
                if elapsed < due {
                    std::thread::sleep(due - elapsed);
                }
            }
            assert!(!plan.route.replicas.is_empty(), "plan {i} has no replicas");
            let (kind, cells) = match &plan.op {
                MixedOp::Read => (OpKind::Read, &[][..]),
                MixedOp::Write { cells } => (OpKind::Write, &cells[..]),
                MixedOp::Rmw { cells } => (OpKind::Rmw, &cells[..]),
            };
            let op = Op {
                kind,
                key: &plan.route.key,
                replicas: &plan.route.replicas,
                cells,
                consistency: plan.consistency,
            };
            let now = ms_since(origin);
            let mut leg = coord.start(op, wall_ns(), now, |node| self.hard_suspect(node));
            self.drive(&mut coord, &mut leg, origin);
        }
        let mut out = coord.finish();
        self.coord = coord;
        out.makespan_ms = ms_since(origin);
        Ok(out)
    }

    /// Writes currently buffered for `node` (whichever run queued them).
    pub fn hinted_for(&self, node: u32) -> usize {
        self.coord.hinted_for(node)
    }

    /// Replays every hint buffered for `node` through its (re-established)
    /// connection, one at a time, each waiting for its ack. Returns how
    /// many hints the node acknowledged; the first it does not, and every
    /// one after it, stay buffered for the next recovery. Call after
    /// [`NetMaster::reconnect`]; replay is idempotent on the replica
    /// because LWW ties keep the incumbent.
    pub fn replay_hints(&mut self, node: u32) -> io::Result<u64> {
        let origin = Instant::now();
        let mut coord = std::mem::take(&mut self.coord);
        let mut queue = coord.take_hints(node);
        let mut replayed = 0u64;
        while let Some(hint) = queue.pop_front() {
            let mut leg = coord.start_replay(&hint, &node);
            self.drive(&mut coord, &mut leg, origin);
            if leg.status() != Status::Reached {
                queue.push_front(hint);
                coord.restore_hints(node, queue);
                break;
            }
            replayed += 1;
        }
        self.coord = coord;
        Ok(replayed)
    }

    /// Carries `leg` until it closes: makes the sends the coordinator
    /// queues, and feeds it replies, lost connections and round timeouts.
    fn drive(&mut self, coord: &mut Coordinator, leg: &mut Leg, origin: Instant) {
        // Every retransmit of the leg, and its repairs, share one
        // deadline: two timeout rounds from now.
        let deadline = wall_ns().saturating_add(2 * self.cfg.timeout.as_nanos() as u64);
        let op = leg.op();
        let (kind, payload) = match op.kind {
            OpKind::Read => {
                let request = QueryRequest {
                    request_id: leg.id(),
                    partition: op.key.clone(),
                };
                (FrameKind::Request, self.cfg.codec.encode_request(&request))
            }
            OpKind::Write => (
                FrameKind::Write,
                self.encode_write(leg.id(), op.key, leg.stamp(), op.cells),
            ),
            OpKind::Rmw => (
                FrameKind::Rmw,
                self.encode_write(leg.id(), op.key, leg.stamp(), op.cells),
            ),
        };
        let mut round_end = Instant::now() + self.cfg.timeout;
        loop {
            while let Some(send) = coord.next_send() {
                let (node, kind, id, payload) = match send {
                    Send::Leg(node) => (node, kind, leg.id(), payload.clone()),
                    Send::Repair { node, id } => {
                        let Some((stamp, cells)) = coord.cached(op.key) else {
                            continue;
                        };
                        let repair = self.encode_write(id, op.key, stamp, cells);
                        (node, FrameKind::Write, id, repair)
                    }
                };
                if self
                    .send_write_frame(node, kind, id, payload, deadline)
                    .is_err()
                {
                    self.mark_dead(node);
                    coord.step(leg, Input::Down(node), ms_since(origin));
                }
            }
            if leg.status() != Status::Open {
                return;
            }
            let left = round_end.saturating_duration_since(Instant::now());
            let input = match self.rx.recv_timeout(left).ok() {
                Some(Event::Frame(node, frame)) => {
                    self.note_alive(node, Instant::now());
                    let backoff = self.cfg.busy_backoff;
                    self.inputs(node, frame, |input| {
                        if let Input::Busy { .. } = input {
                            std::thread::sleep(backoff);
                        }
                        coord.step(leg, input, ms_since(origin));
                    });
                    continue;
                }
                Some(Event::Down(node, _reason)) => {
                    self.mark_dead(node);
                    Input::Down(node)
                }
                None => {
                    round_end = Instant::now() + self.cfg.timeout;
                    Input::Timeout
                }
            };
            coord.step(leg, input, ms_since(origin));
        }
    }

    /// Hands `each` the coordinator inputs a received frame carries: one
    /// per answer of a response frame — a slave may answer this leg in the
    /// frame that carries a stray from an earlier one — one for a write-ack
    /// or a `Busy`, none for anything else or a body that does not decode.
    fn inputs(&self, node: u32, frame: Frame, mut each: impl FnMut(Input)) {
        let (id, codec) = (frame.id, self.cfg.codec);
        match frame.kind {
            FrameKind::Response => {
                frame.answers(&codec, |answer| {
                    let mut reply = Totals::default();
                    if codec.fold_response(answer.body, &mut reply).is_some() {
                        let (id, version) = (answer.id, reply.version);
                        each(Input::Reply { id, node, version });
                    }
                });
            }
            FrameKind::WriteAck => {
                if let Some(ack) = codec.decode_write_ack(frame.payload) {
                    each(Input::Reply {
                        id,
                        node,
                        version: ack.version,
                    });
                }
            }
            FrameKind::Busy => each(Input::Busy { id, node }),
            FrameKind::Request | FrameKind::Expired | FrameKind::Write | FrameKind::Rmw => {}
        }
    }

    fn encode_write(&self, id: u64, key: &PartitionKey, timestamp: u64, cells: &[Cell]) -> Bytes {
        self.cfg.codec.encode_write(&WriteRequest {
            request_id: id,
            partition: key.clone(),
            timestamp,
            cells: cells.to_vec(),
        })
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
}
