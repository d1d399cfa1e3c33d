//! The replicated write path's coordinator: one pure machine that the
//! socket world and the simulator both run.
//!
//! [`Coordinator`] decides every protocol question: which replicas get a
//! frame and which a *hint* (a bounded queue of writes a replica missed);
//! when a consistency level ([`Consistency`]) is reached, counted over
//! **distinct** replicas so a duplicated or repeated reply never counts
//! twice; the one retry round after a round timeout; staleness and
//! divergence; read-repair targets, only when the cached write is at least
//! as new as the winning version; and what a hint replay delivers.
//!
//! It reads no clock, socket, thread or RNG (KVS-L001 zone). Whoever runs
//! it passes the time and the LWW clock in, feeds it [`Input`]s and carries
//! out the [`Send`]s it queues: `kvs-net`'s `write_path` over sockets with
//! the wall clock, [`crate::sim::run_replicated`] over simulated time. The
//! outcome follows PCAP (Rahman et al., PAPERS.md): per consistency level,
//! latency samples and the fraction of reads that were stale.

use kvs_store::{Cell, PartitionKey};
use std::collections::{HashMap, VecDeque};

/// Write-path frame ids live far above the read path's route indexes, so
/// a stale frame from one loop can never be claimed by the other.
const ID_BASE: u64 = 1 << 40;

/// Per-request consistency level: how many replica acknowledgements a
/// write (or read answers a read) needs before the coordinator answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// One replica suffices — fastest, weakest.
    One,
    /// A majority of the replica set (`rf/2 + 1`).
    Quorum,
    /// Every replica — slowest, strongest.
    All,
}

impl Consistency {
    /// Acknowledgements required at replication factor `rf`.
    pub fn required(self, rf: usize) -> usize {
        match self {
            Consistency::One => 1,
            Consistency::Quorum => rf / 2 + 1,
            Consistency::All => rf,
        }
        .min(rf.max(1))
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Consistency::One => "one",
            Consistency::Quorum => "quorum",
            Consistency::All => "all",
        }
    }
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

/// Counters and samples from one run of the coordinator, in either world.
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
    /// Hints buffered for replicas that missed a write.
    pub hints_queued: u64,
    /// Hints dropped at the queue bound.
    pub hints_dropped: u64,
    /// Reads whose replica answers disagreed on version.
    pub divergent_reads: u64,
    /// Repair writes sent to lagging replicas.
    pub read_repairs: u64,
    /// Busy-frame flow-control retries across all legs.
    pub busy_retries: u64,
    /// Span of the whole run, milliseconds (set by the caller).
    pub makespan_ms: f64,
}

/// What one operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A read at its consistency level, with staleness accounting.
    Read,
    /// A last-write-wins write.
    Write,
    /// A read-modify-write: one frame, whose replica reads the pre-image
    /// before applying and acknowledges like a write.
    Rmw,
}

/// One operation as the coordinator sees it.
#[derive(Debug, Clone, Copy)]
pub struct Op<'a> {
    /// Read, write or RMW.
    pub kind: OpKind,
    /// The partition.
    pub key: &'a PartitionKey,
    /// Its replica nodes, primary first.
    pub replicas: &'a [u32],
    /// What a write applies (nothing, for a read).
    pub cells: &'a [Cell],
    /// The level the operation must reach.
    pub consistency: Consistency,
}

/// A write buffered for a replica that missed it.
#[derive(Debug, Clone)]
pub struct Hint {
    /// The partition written.
    pub partition: PartitionKey,
    /// The write's LWW version.
    pub timestamp: u64,
    /// The cells it applies.
    pub cells: Vec<Cell>,
}

/// What reaches the coordinator while a leg is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `node` answered frame `id`: a write's ack, or a read's answer,
    /// naming the version of the partition it holds.
    Reply {
        /// The frame id.
        id: u64,
        /// The replica.
        node: u32,
        /// The version it holds (after applying, for a write).
        version: u64,
    },
    /// `node` refused frame `id` as busy.
    Busy {
        /// The frame id.
        id: u64,
        /// The replica.
        node: u32,
    },
    /// This node is unreachable: its connection closed, or a send failed.
    Down(u32),
    /// The current round's timeout passed.
    Timeout,
}

/// A frame the coordinator asks its caller to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Send {
    /// The leg's own frame — a `Write`, an `Rmw` or a read `Request` — to
    /// this node (again, after a `Busy`: the caller backs off first).
    Leg(u32),
    /// A write of the cached winning version ([`Coordinator::cached`]) to
    /// a replica a read found behind, under its own frame id.
    Repair {
        /// The lagging replica.
        node: u32,
        /// The repair frame's id.
        id: u64,
    },
}

/// Where a leg stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Waiting on replicas.
    Open,
    /// Reached its consistency level.
    Reached,
    /// Closed short of its level.
    Failed,
}

/// Where one replica stands in a leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not asked: a read asks only as many replicas as it needs.
    Idle,
    /// Sent to, no reply yet.
    Waiting,
    /// Out of the leg: suspected at fan-out, or lost since.
    Gone,
    /// Replied, holding this version.
    Replied(u64),
}

/// One operation in flight: the value its caller owns from
/// [`Coordinator::start`] until it leaves [`Status::Open`], and hands back
/// with every input.
#[derive(Debug)]
pub struct Leg<'a> {
    id: u64,
    op: Op<'a>,
    need: usize,
    /// A write's LWW stamp; a read's floor, the newest version acked
    /// before it was issued.
    version: u64,
    issued_ms: f64,
    retried: bool,
    /// A hint replay delivers a buffered write and counts toward nothing.
    replay: bool,
    /// One per replica, in `op.replicas` order.
    slots: Vec<Slot>,
    status: Status,
}

impl<'a> Leg<'a> {
    /// The frame id every send of this leg carries.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The operation the leg carries out.
    pub fn op(&self) -> Op<'a> {
        self.op
    }

    /// A write's LWW version (for a read, the staleness floor).
    pub fn stamp(&self) -> u64 {
        self.version
    }

    /// Where the leg stands.
    pub fn status(&self) -> Status {
        self.status
    }

    fn is_write(&self) -> bool {
        self.op.kind != OpKind::Read
    }

    /// The replicas in `state`.
    fn nodes(&self, state: Slot) -> impl Iterator<Item = u32> + '_ {
        let nodes = self.op.replicas.iter();
        nodes
            .zip(&self.slots)
            .filter(move |(_, s)| **s == state)
            .map(|(n, _)| *n)
    }
}

/// The coordinator's state across operations: per-node bounded hint
/// queues, and per partition the newest acknowledged write, which
/// staleness is judged against and read repair resends.
#[derive(Debug, Default)]
pub struct Coordinator {
    opts: WriteOptions,
    hints: HashMap<u32, VecDeque<Hint>>,
    newest: HashMap<PartitionKey, (u64, Vec<Cell>)>,
    next_id: u64,
    last_stamp: u64,
    sends: VecDeque<Send>,
    out: MixedOutcome,
}

impl Coordinator {
    /// Starts a run under `opts` with a fresh outcome. Hints and the
    /// newest acknowledged writes carry over from earlier runs.
    pub fn begin(&mut self, opts: WriteOptions) {
        self.opts = opts;
        self.out = MixedOutcome::default();
    }

    /// What the legs since [`Coordinator::begin`] came to.
    pub fn finish(&mut self) -> MixedOutcome {
        std::mem::take(&mut self.out)
    }

    /// Opens a leg for `op`. A write is stamped `max(clock, last + 1)`, so
    /// versions rise strictly whatever clock the caller passes. A replica
    /// `suspect` names gets no frame: a write hints it instead. A read
    /// asks only the first `required` replicas it can.
    pub fn start<'a>(
        &mut self,
        op: Op<'a>,
        clock: u64,
        now_ms: f64,
        suspect: impl Fn(u32) -> bool,
    ) -> Leg<'a> {
        let version = if op.kind == OpKind::Read {
            self.newest.get(op.key).map_or(0, |w| w.0)
        } else {
            self.last_stamp = clock.max(self.last_stamp + 1);
            self.last_stamp
        };
        let mut leg = self.leg(op, version, now_ms);
        let mut asked = 0;
        for (i, &node) in op.replicas.iter().enumerate() {
            if suspect(node) {
                leg.slots[i] = Slot::Gone;
                if leg.is_write() {
                    self.hint(&leg, node);
                }
            } else if leg.is_write() || asked < leg.need {
                asked += 1;
                leg.slots[i] = Slot::Waiting;
                self.sends.push_back(Send::Leg(node));
            }
        }
        self.settle(&mut leg, now_ms);
        leg
    }

    /// Opens the replay of `hint` to `node`: its write, at its version,
    /// needing that one replica's ack.
    pub fn start_replay<'a>(&mut self, hint: &'a Hint, node: &'a u32) -> Leg<'a> {
        let op = Op {
            kind: OpKind::Write,
            key: &hint.partition,
            replicas: std::slice::from_ref(node),
            cells: &hint.cells,
            consistency: Consistency::One,
        };
        let mut leg = self.leg(op, hint.timestamp, 0.0);
        leg.replay = true;
        leg.slots[0] = Slot::Waiting;
        self.sends.push_back(Send::Leg(*node));
        leg
    }

    fn leg<'a>(&mut self, op: Op<'a>, version: u64, now_ms: f64) -> Leg<'a> {
        self.next_id += 1;
        Leg {
            id: ID_BASE + self.next_id,
            op,
            need: op.consistency.required(op.replicas.len()),
            version,
            issued_ms: now_ms,
            retried: false,
            replay: false,
            slots: vec![Slot::Idle; op.replicas.len()],
            status: Status::Open,
        }
    }

    /// Feeds `input`, which arrived at `now_ms`, to `leg`. A
    /// closed leg, or another leg's id, changes nothing.
    pub fn step(&mut self, leg: &mut Leg, input: Input, now_ms: f64) {
        if leg.status != Status::Open {
            return;
        }
        match input {
            Input::Reply { id, node, version } if id == leg.id => reply(leg, node, version),
            Input::Busy { id, node }
                if id == leg.id && leg.nodes(Slot::Waiting).any(|n| n == node) =>
            {
                self.out.busy_retries += 1;
                self.sends.push_back(Send::Leg(node));
            }
            Input::Down(node) => {
                for i in 0..leg.slots.len() {
                    if leg.op.replicas[i] != node {
                        continue;
                    }
                    match leg.slots[i] {
                        Slot::Idle => leg.slots[i] = Slot::Gone,
                        Slot::Waiting => {
                            leg.slots[i] = Slot::Gone;
                            self.lost(leg, node);
                        }
                        Slot::Gone | Slot::Replied(_) => {}
                    }
                }
            }
            Input::Timeout if leg.is_write() && !leg.retried => {
                leg.retried = true;
                for node in leg.nodes(Slot::Waiting) {
                    self.sends.push_back(Send::Leg(node));
                }
            }
            Input::Timeout => return self.close(leg, false, now_ms),
            _ => {}
        }
        self.settle(leg, now_ms);
    }

    /// The next frame to send, oldest first.
    pub fn next_send(&mut self) -> Option<Send> {
        self.sends.pop_front()
    }

    /// The newest acknowledged write of `key` this coordinator holds, the
    /// one a [`Send::Repair`] carries: its version and cells.
    pub fn cached(&self, key: &PartitionKey) -> Option<(u64, &[Cell])> {
        let (version, cells) = self.newest.get(key)?;
        Some((*version, cells))
    }

    /// Writes buffered for `node`.
    pub fn hinted_for(&self, node: u32) -> usize {
        self.hints.get(&node).map_or(0, VecDeque::len)
    }

    /// Hands over `node`'s hints, oldest first, to replay.
    pub fn take_hints(&mut self, node: u32) -> VecDeque<Hint> {
        self.hints.remove(&node).unwrap_or_default()
    }

    /// Puts back the hints a replay did not deliver, ahead of any queued
    /// since.
    pub fn restore_hints(&mut self, node: u32, mut rest: VecDeque<Hint>) {
        rest.extend(self.take_hints(node));
        self.hints.insert(node, rest);
    }

    /// `node` dropped out of `leg` while the leg waited on it: a write
    /// hints it, a read asks the next replica it has not asked.
    fn lost(&mut self, leg: &mut Leg, node: u32) {
        if leg.is_write() {
            return self.hint(leg, node);
        }
        if let Some(j) = leg.slots.iter().position(|s| *s == Slot::Idle) {
            leg.slots[j] = Slot::Waiting;
            self.sends.push_back(Send::Leg(leg.op.replicas[j]));
        }
    }

    /// Closes `leg` once its level is reached, or once no replica it
    /// waits on is left to reach it.
    fn settle(&mut self, leg: &mut Leg, now_ms: f64) {
        if leg.status != Status::Open {
            return;
        }
        // A write counts a replica that holds its version or newer; a
        // replica that refused it has replied, but does not count.
        let floor = if leg.is_write() { leg.version } else { 0 };
        let counted = leg
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Replied(v) if *v >= floor))
            .count();
        if counted >= leg.need {
            self.close(leg, true, now_ms);
        } else if !leg.slots.contains(&Slot::Waiting) {
            self.close(leg, false, now_ms);
        }
    }

    fn close(&mut self, leg: &mut Leg, reached: bool, now_ms: f64) {
        leg.status = if reached {
            Status::Reached
        } else {
            Status::Failed
        };
        if leg.replay {
            return;
        }
        let ms = now_ms - leg.issued_ms;
        match (leg.is_write(), reached) {
            (true, true) => {
                self.out.writes_acked += 1;
                self.out.write_latency_ms.push(ms);
                self.remember(leg);
            }
            (true, false) => {
                self.out.writes_failed += 1;
                // A replica silent through both rounds may have missed the
                // frame; its hint makes recovery converge, and is
                // idempotent if it did apply.
                for node in leg.nodes(Slot::Waiting) {
                    self.hint(leg, node);
                }
            }
            (false, true) => {
                self.out.reads += 1;
                self.out.read_latency_ms.push(ms);
                self.judge(leg);
            }
            (false, false) => self.out.reads_failed += 1,
        }
    }

    /// Records an acknowledged write as its partition's newest, for
    /// staleness and read repair.
    fn remember(&mut self, leg: &Leg) {
        let newest = (leg.version, leg.op.cells.to_vec());
        match self.newest.get_mut(leg.op.key) {
            Some(held) if held.0 >= leg.version => {}
            Some(held) => *held = newest,
            None => {
                self.newest.insert(leg.op.key.clone(), newest);
            }
        }
    }

    /// Staleness and divergence of a completed read, and its repairs.
    fn judge(&mut self, leg: &Leg) {
        let versions = || {
            leg.slots.iter().filter_map(|s| match s {
                Slot::Replied(v) => Some(*v),
                _ => None,
            })
        };
        let observed = versions().max().unwrap_or(0);
        if observed < leg.version {
            self.out.stale_reads += 1;
        }
        if versions().all(|v| v == observed) {
            return;
        }
        self.out.divergent_reads += 1;
        // Repair only with a write at least as new as the winner: one
        // that predates this coordinator, or an older cache, would not.
        match self.cached(leg.op.key) {
            Some((version, _)) if self.opts.read_repair && version >= observed => {}
            _ => return,
        }
        for (i, slot) in leg.slots.iter().enumerate() {
            if matches!(slot, Slot::Replied(v) if *v < observed) {
                self.out.read_repairs += 1;
                self.next_id += 1;
                self.sends.push_back(Send::Repair {
                    node: leg.op.replicas[i],
                    id: ID_BASE + self.next_id,
                });
            }
        }
    }

    /// Buffers `leg`'s write for `node`, within the queue bound.
    fn hint(&mut self, leg: &Leg, node: u32) {
        let queue = self.hints.entry(node).or_default();
        if queue.len() >= self.opts.hint_queue_cap.max(1) {
            self.out.hints_dropped += 1;
            return;
        }
        queue.push_back(Hint {
            partition: leg.op.key.clone(),
            timestamp: leg.version,
            cells: leg.op.cells.to_vec(),
        });
        self.out.hints_queued += 1;
    }
}

/// A replica's first reply to the leg counts; a repeat, or a reply from a
/// replica the leg is not waiting on, does not.
fn reply(leg: &mut Leg, node: u32, version: u64) {
    let mut slots = leg.op.replicas.iter().zip(&leg.slots);
    if let Some(i) = slots.position(|(n, s)| *n == node && *s == Slot::Waiting) {
        leg.slots[i] = Slot::Replied(version);
    }
}

#[cfg(test)]
mod tests {
    //! The machine driven by the seeded simulator
    //! ([`crate::sim::run_replicated`]).

    use super::*;
    use crate::sim::{run_replicated, DelayFault, FaultWindow, ReplicationSimConfig, SimOp};

    fn base_cfg() -> ReplicationSimConfig {
        ReplicationSimConfig {
            nodes: 3,
            rf: 3,
            seed: 7,
            leg_latency_ms: vec![1.0, 1.2, 1.5, 2.0],
            delay: None,
            down: Vec::new(),
            hint_queue_cap: 64,
        }
    }

    fn write(at_ms: f64, partition: u64, consistency: Consistency) -> SimOp {
        SimOp {
            at_ms,
            partition,
            kind: OpKind::Write,
            consistency,
        }
    }

    fn read(at_ms: f64, partition: u64, consistency: Consistency) -> SimOp {
        SimOp {
            at_ms,
            partition,
            kind: OpKind::Read,
            consistency,
        }
    }

    fn dark_node_2() -> Vec<FaultWindow> {
        vec![FaultWindow {
            node: 2,
            from_ms: 0.0,
            until_ms: 500.0,
        }]
    }

    #[test]
    fn required_acks_per_level() {
        assert_eq!(Consistency::One.required(3), 1);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::Quorum.required(2), 2);
        assert_eq!(Consistency::All.required(3), 3);
        assert_eq!(Consistency::All.required(1), 1);
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = ReplicationSimConfig {
            delay: Some(DelayFault {
                probability: 0.2,
                extra_ms: 20.0,
            }),
            ..base_cfg()
        };
        let ops: Vec<SimOp> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    read(i as f64, (i % 16) as u64, Consistency::Quorum)
                } else {
                    write(i as f64, (i % 16) as u64, Consistency::Quorum)
                }
            })
            .collect();
        let a = run_replicated(&cfg, &ops);
        let b = run_replicated(&cfg, &ops);
        assert_eq!(a.mixed.write_latency_ms, b.mixed.write_latency_ms);
        assert_eq!(a.mixed.stale_reads, b.mixed.stale_reads);
    }

    #[test]
    fn quorum_overlap_is_never_stale() {
        // R + W > N: a quorum read always intersects the last quorum
        // write, so staleness must be exactly zero without faults.
        let mut ops = Vec::new();
        for i in 0..100 {
            ops.push(write(i as f64 * 10.0, (i % 8) as u64, Consistency::Quorum));
            ops.push(read(
                i as f64 * 10.0 + 5.0,
                (i % 8) as u64,
                Consistency::Quorum,
            ));
        }
        let out = run_replicated(&base_cfg(), &ops);
        assert_eq!(out.mixed.stale_reads, 0, "{out:?}");
        assert_eq!(out.mixed.writes_failed, 0);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn one_reads_can_be_stale_under_delay() {
        let cfg = ReplicationSimConfig {
            delay: Some(DelayFault {
                probability: 0.3,
                extra_ms: 50.0,
            }),
            ..base_cfg()
        };
        let mut ops = Vec::new();
        for i in 0..300 {
            ops.push(write(i as f64 * 4.0, (i % 4) as u64, Consistency::One));
            // Read shortly after the write completes at ONE: lagging
            // replicas may not have applied yet.
            ops.push(read(i as f64 * 4.0 + 2.0, (i % 4) as u64, Consistency::One));
        }
        let out = run_replicated(&cfg, &ops);
        assert!(out.mixed.stale_reads > 0, "{out:?}");
    }

    #[test]
    fn dark_replica_hints_queue_and_replay() {
        let cfg = ReplicationSimConfig {
            down: dark_node_2(),
            ..base_cfg()
        };
        let ops: Vec<SimOp> = (0..50)
            .map(|i| write(i as f64, 1, Consistency::Quorum))
            .collect();
        let out = run_replicated(&cfg, &ops);
        // Partition 1 at rf=3/n=3 includes node 2: every write hints it.
        assert_eq!(out.mixed.hints_queued, 50, "{out:?}");
        assert_eq!(out.hints_replayed, 50);
        assert_eq!(out.mixed.writes_acked, 50);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn hint_queue_bound_drops_overflow() {
        let cfg = ReplicationSimConfig {
            hint_queue_cap: 10,
            down: dark_node_2(),
            ..base_cfg()
        };
        let ops: Vec<SimOp> = (0..50)
            .map(|i| write(i as f64, 1, Consistency::Quorum))
            .collect();
        let out = run_replicated(&cfg, &ops);
        assert_eq!(out.mixed.hints_queued, 10);
        assert_eq!(out.mixed.hints_dropped, 40);
        // QUORUM still acked through the two live replicas, so nothing
        // acknowledged is lost even though hints overflowed.
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn all_writes_fail_when_a_replica_is_dark() {
        let cfg = ReplicationSimConfig {
            down: dark_node_2(),
            ..base_cfg()
        };
        let ops: Vec<SimOp> = (0..10)
            .map(|i| write(i as f64, 1, Consistency::All))
            .collect();
        let out = run_replicated(&cfg, &ops);
        assert_eq!(out.mixed.writes_acked, 0);
        assert_eq!(out.mixed.writes_failed, 10);
    }

    #[test]
    fn divergence_triggers_read_repair() {
        let cfg = ReplicationSimConfig {
            delay: Some(DelayFault {
                probability: 0.5,
                extra_ms: 100.0,
            }),
            ..base_cfg()
        };
        let mut ops = Vec::new();
        for i in 0..200 {
            ops.push(write(i as f64 * 3.0, 1, Consistency::One));
            ops.push(read(i as f64 * 3.0 + 1.0, 1, Consistency::Quorum));
        }
        let out = run_replicated(&cfg, &ops);
        assert!(out.mixed.divergent_reads > 0, "{out:?}");
        assert!(out.mixed.read_repairs >= out.mixed.divergent_reads);
    }

    #[test]
    fn an_rmw_costs_one_round_like_a_write() {
        // One `Rmw` frame per replica, as on the wire: the same seed draws
        // the same legs, so the latencies match a plain write's exactly.
        let cfg = base_cfg();
        let writes: Vec<SimOp> = (0..100)
            .map(|i| write(i as f64 * 10.0, 1, Consistency::All))
            .collect();
        let rmws: Vec<SimOp> = writes
            .iter()
            .map(|op| SimOp {
                kind: OpKind::Rmw,
                ..op.clone()
            })
            .collect();
        let w = run_replicated(&cfg, &writes);
        let r = run_replicated(&cfg, &rmws);
        assert_eq!(r.mixed.writes_acked, 100);
        assert_eq!(r.mixed.write_latency_ms, w.mixed.write_latency_ms);
    }
}
