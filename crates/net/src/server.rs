//! The slave server: a TCP front-end over one node's store — a RAM-only
//! [`kvs_store::Table`] or a durable [`kvs_store::DurableTable`]
//! (see [`NodeStore`]).
//!
//! Layout per server:
//!
//! * one **accept loop** on an ephemeral loopback port;
//! * one **reader thread per connection**, deframing requests and offering
//!   them to the bounded work queue — a full queue answers with a `Busy`
//!   frame instead of absorbing load silently, and that frame advertises
//!   the queue's capacity so the master can keep within it from then on;
//! * a fixed pool of **worker threads** (`workers_per_node`, the paper's
//!   per-node database parallelism) draining the queue: decode the
//!   request, read the store, encode the response with the stage
//!   timestamps (`in-queue` start/end, `in-db` start/end) stamped into the
//!   frame header. A busy worker is not woken for the next request (see
//!   [`kvs_cluster::queue`]): it polls the queue when it is done, and
//!   parks only once the queue is empty and its replies are out.
//!
//! Replies collect in a per-connection buffer: a reader writes the
//! refusals of the chunk it just read in one call, a worker writes when it
//! finds the queue empty or has held an answer for [`REPLY_HOLD`] — so a
//! burst of cheap requests shares a `write`, and a lone request or one
//! that took the store milliseconds is answered at once. A read's answer
//! is encoded into that buffer directly from the tally the store fold
//! filled; the hold is measured on the stage stamps a request takes anyway.
//!
//! Shutdown is deterministic: [`SlaveHandle::shutdown`] stops the accept
//! loop, joins every connection reader (their sockets poll a stop flag),
//! drops the queue producers so workers drain and exit, and joins the
//! pool. No thread or socket outlives the call.

use crate::clock::wall_ns;
use crate::frame::{Deframer, Frame, FrameKind, FLAG_COMPACT};
use crate::ioutil::{best_effort, join_logged};
use kvs_cluster::queue::{work_queue, QueueStats, TimedPush, WorkQueue, NO_DEADLINE};
use kvs_cluster::{Codec, WriteAck, WriteRequest};
use kvs_store::{Cell, CellRef, DurableTable, PartitionKey, Table};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Slave server configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Worker threads per server (the database executor width). The codec
    /// is not configured here: each frame declares its own encoding and
    /// the server answers in kind.
    pub workers_per_node: usize,
    /// Work-queue capacity; a full queue replies `Busy`.
    pub queue_depth: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            workers_per_node: 4,
            queue_depth: 64,
        }
    }
}

/// How long connection readers block before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// Clustering key of the reserved per-partition *version cell* that stores
/// the partition's last-write-wins timestamp. It rides the normal put
/// path, so it inherits WAL durability, SSTable persistence, and crash
/// recovery for free; readers filter it out of aggregation counts.
pub const VERSION_CLUSTERING: u64 = u64::MAX;
/// Kind byte of the version cell (never produced by workload generators).
pub const VERSION_KIND: u8 = 0xFF;

/// Builds the version cell carrying `timestamp`.
pub fn version_cell(timestamp: u64) -> Cell {
    Cell::new(
        VERSION_CLUSTERING,
        VERSION_KIND,
        timestamp.to_be_bytes().to_vec(),
    )
}

/// How long a worker may keep a finished answer buffered while it serves
/// the work queued behind it. Sharing one `write` (several µs) among
/// answers only pays while the requests are about as cheap as the call;
/// an answer the store took longer than this to produce goes out before
/// the next request is touched, and no answer waits more than this plus
/// one request's service time — far below any deadline, hedge delay or
/// timeout a master works with.
const REPLY_HOLD: Duration = Duration::from_micros(100);

/// The write side of one master connection, shared by the connection's
/// reader (refusals) and the workers (replies).
struct Conn {
    stream: TcpStream,
    /// Encoded frames not yet written.
    out: Vec<u8>,
}

struct Job {
    frame: Frame,
    conn: Arc<Mutex<Conn>>,
}

/// Appends `frame` to the connection's reply buffer; whoever queued it
/// owes the connection a [`flush`] before blocking.
fn queue_reply(conn: &Mutex<Conn>, frame: &Frame) {
    frame.encode_into(&mut conn.lock().out);
}

/// Writes the connection's buffered replies, if any, in one call.
fn flush(conn: &Mutex<Conn>) {
    let mut c = conn.lock();
    if c.out.is_empty() {
        return;
    }
    let Conn { stream, out } = &mut *c;
    // The connection mutex *is* the per-connection write serializer:
    // refusals from readers and responses from workers must not interleave
    // mid-frame, so holding it across the write is the point (waived
    // KVS-L007). A failed write means the master hung up — best effort.
    best_effort("reply write", stream.write_all(out));
    out.clear();
}

/// Flushes every connection a worker owes one, emptying the list.
fn flush_all(owed: &mut Vec<Arc<Mutex<Conn>>>) {
    for conn in owed.drain(..) {
        flush(&conn);
    }
}

/// The storage engine behind one slave server: the in-memory [`Table`] of
/// the paper's RAM-resident experiments, or the [`DurableTable`] whose
/// data survives a kill via WAL + SSTables + manifest (and whose restart
/// runs *real* crash recovery instead of handing the old memory back).
// One per node, built once and kept behind the node's mutex: the bytes the
// RAM arm leaves unused are never copied or multiplied, so boxing either
// arm would buy nothing but a pointer chase per request.
#[allow(clippy::large_enum_variant)]
pub enum NodeStore {
    /// RAM-only: dies with the process, handed back on shutdown.
    Ram(Table),
    /// WAL + on-disk SSTables: dropped on kill, recovered from disk.
    Durable(DurableTable),
}

/// What one pass over a partition yields: how many data cells it holds of
/// each kind, and its LWW version — the timestamp in the reserved version
/// cell, which is bookkeeping and not counted; `0` if the partition was
/// never written through the replicated write path.
struct Aggregate {
    kinds: [u64; 256],
    version: u64,
}

impl NodeStore {
    /// Folds a whole partition into its [`Aggregate`] without owning a
    /// cell. `None` when the durable tier could not read it (I/O error,
    /// failed checksum — logged here): the partition's contents are then
    /// unknown, not empty, and the caller must not answer as if it knew.
    fn aggregate(&mut self, pk: &PartitionKey) -> Option<Aggregate> {
        let mut agg = Aggregate {
            kinds: [0; 256],
            version: 0,
        };
        // The stream hands over one cell per clustering key, so at most
        // one version cell.
        let visit = |cell: CellRef<'_>| {
            if cell.clustering != VERSION_CLUSTERING || cell.kind != VERSION_KIND {
                agg.kinds[cell.kind as usize] += 1;
            } else if let Ok(timestamp) = cell.payload.try_into() {
                agg.version = u64::from_be_bytes(timestamp);
            }
        };
        match self {
            NodeStore::Ram(table) => {
                table.fold_partition(pk, visit);
            }
            NodeStore::Durable(table) => {
                if let Err(e) = table.fold_partition(pk, visit) {
                    eprintln!("kvs-net: durable read of {pk:?} failed: {e}");
                    return None;
                }
            }
        }
        Some(agg)
    }

    /// Applies a replicated write under the last-write-wins rule: a
    /// strictly newer timestamp replaces the partition's version cell and
    /// lands every carried cell; an equal or older timestamp leaves the
    /// incumbent untouched (ties keep the incumbent, so hint replay is
    /// idempotent). Returns `(applied, version_after)`. A durable-tier
    /// error refuses the write (`applied = false`) with the pre-image
    /// version — `0` when it is the pre-image read that failed, since an
    /// unknown version must not let an older write through — and the
    /// coordinator will not count the ack.
    fn apply(&mut self, req: &WriteRequest) -> (bool, u64) {
        let Some(current) = self.aggregate(&req.partition).map(|agg| agg.version) else {
            return (false, 0);
        };
        if req.timestamp <= current {
            return (false, current);
        }
        match self {
            NodeStore::Ram(table) => {
                for cell in &req.cells {
                    table.put(req.partition.clone(), cell.clone());
                }
                table.put(req.partition.clone(), version_cell(req.timestamp));
            }
            NodeStore::Durable(table) => {
                for cell in &req.cells {
                    if let Err(e) = table.put(req.partition.clone(), cell.clone()) {
                        eprintln!("kvs-net: durable write of {:?} failed: {e}", req.partition);
                        return (false, current);
                    }
                }
                if let Err(e) = table.put(req.partition.clone(), version_cell(req.timestamp)) {
                    eprintln!("kvs-net: version cell write failed: {e}");
                    return (false, current);
                }
                // The ack promises durability: the WAL must be on disk
                // before the coordinator counts this replica.
                if let Err(e) = table.sync_wal() {
                    eprintln!("kvs-net: WAL sync failed: {e}");
                    return (false, current);
                }
            }
        }
        (true, req.timestamp)
    }
}

/// A running slave server; dropping the handle without calling
/// [`SlaveHandle::shutdown`] leaks the server threads, so call it.
pub struct SlaveServer;

/// Handle to a spawned slave server.
pub struct SlaveHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: WorkQueue<Job>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    store: Arc<Mutex<NodeStore>>,
}

impl SlaveServer {
    /// Boots a server owning a RAM-only `table` on an ephemeral loopback
    /// port (see [`SlaveServer::spawn_store`] for the durable tier).
    pub fn spawn(table: Table, cfg: NetServerConfig) -> io::Result<SlaveHandle> {
        SlaveServer::spawn_store(NodeStore::Ram(table), cfg)
    }

    /// Boots a server owning `store` on an ephemeral loopback port.
    pub fn spawn_store(store: NodeStore, cfg: NetServerConfig) -> io::Result<SlaveHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (queue, source) = work_queue::<Job>(cfg.queue_depth.max(1));
        let store = Arc::new(Mutex::new(store));

        let mut workers = Vec::with_capacity(cfg.workers_per_node.max(1));
        for _ in 0..cfg.workers_per_node.max(1) {
            let source = source.clone();
            let store = store.clone();
            workers.push(std::thread::spawn(move || {
                // Connections holding replies this worker has not flushed,
                // and the dequeue stamp of the first request behind them.
                let mut unflushed: Vec<Arc<Mutex<Conn>>> = Vec::new();
                let mut held_since = 0;
                loop {
                    let job = match source.recv_timeout(Duration::ZERO) {
                        Some(job) => job,
                        None => {
                            flush_all(&mut unflushed);
                            match source.recv() {
                                Some(job) => job,
                                None => return,
                            }
                        }
                    };
                    let dequeued = wall_ns();
                    if unflushed.is_empty() {
                        held_since = dequeued;
                    }
                    if !unflushed.iter().any(|c| Arc::ptr_eq(c, &job.conn)) {
                        unflushed.push(job.conn.clone());
                    }
                    let done = serve(&store, job, dequeued);
                    if Duration::from_nanos(done.saturating_sub(held_since)) >= REPLY_HOLD {
                        flush_all(&mut unflushed);
                    }
                }
            }));
        }

        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = stop.clone();
            let queue = queue.clone();
            let conn_threads = conn_threads.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let (stream, _peer) = match listener.accept() {
                        Ok(pair) => pair,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::Acquire) {
                        break; // the shutdown wake-up connection
                    }
                    best_effort("set_nodelay", stream.set_nodelay(true));
                    // A socket without the poll timeout would pin its
                    // reader thread at shutdown; worth a log line.
                    best_effort("set_read_timeout", stream.set_read_timeout(Some(READ_POLL)));
                    let queue = queue.clone();
                    let stop = stop.clone();
                    let handle = std::thread::spawn(move || read_connection(stream, queue, stop));
                    conn_threads.lock().push(handle);
                }
            })
        };

        Ok(SlaveHandle {
            addr,
            stop,
            queue,
            accept_thread: Some(accept_thread),
            conn_threads,
            workers,
            store,
        })
    }
}

/// One connection's read loop: deframe, enqueue, reply `Busy` on overflow.
///
/// The socket has a short read timeout (so shutdown can interrupt an idle
/// connection); the [`Deframer`] keeps the bytes of a partially received
/// frame across it.
fn read_connection(stream: TcpStream, queue: WorkQueue<Job>, stop: Arc<AtomicBool>) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let conn = Arc::new(Mutex::new(Conn {
        stream,
        out: Vec::new(),
    }));
    let mut deframer = Deframer::new();
    loop {
        match deframer.fill(&mut reader) {
            Ok(0) => return, // peer closed
            Ok(_) => {
                loop {
                    match deframer.next_frame() {
                        Ok(Some(frame)) => dispatch(frame, &queue, &conn),
                        Ok(None) => break, // need more bytes
                        Err(_) => return,  // corrupted stream: drop the conn
                    }
                }
                // The refusals of this chunk, in one write.
                flush(&conn);
            }
            Err(e) if would_block(&e) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Routes one decoded frame: requests, writes and RMWs go to the
/// deadline-aware queue. A request whose deadline already passed is
/// answered `Expired` without ever occupying a queue slot, a full queue
/// of live work gets a `Busy` reply advertising the queue's capacity, and
/// expired entries evicted to make room are each answered `Expired`.
/// Refusals to `conn` are left for the caller to flush. Anything else is a
/// protocol violation, dropped.
fn dispatch(frame: Frame, queue: &WorkQueue<Job>, conn: &Arc<Mutex<Conn>>) {
    if frame.kind != FrameKind::Request
        && frame.kind != FrameKind::Write
        && frame.kind != FrameKind::Rmw
    {
        return;
    }
    let now = wall_ns();
    // Deadline 0 on the wire means "none"; the queue's never-expires
    // sentinel keeps such entries immortal.
    let deadline = if frame.deadline == 0 {
        NO_DEADLINE
    } else {
        frame.deadline
    };
    let job = Job {
        frame,
        conn: conn.clone(),
    };
    match queue.try_push_timed(job, deadline, now) {
        TimedPush::Accepted { evicted } => {
            for dead in evicted {
                // Possibly another connection's request: nobody else owes
                // that connection a flush.
                reply_refusal(&dead, FrameKind::Expired, 0);
                flush(&dead.conn);
            }
        }
        TimedPush::AlreadyExpired(job) => reply_refusal(&job, FrameKind::Expired, 0),
        // Queue full: tell the master now rather than letting the request
        // age invisibly, and tell it how much this queue holds.
        TimedPush::Full(job) => reply_refusal(&job, FrameKind::Busy, queue.capacity() as u64),
        TimedPush::Disconnected(_) => {} // shutting down
    }
}

/// Queues a payload-less refusal (`Busy` or `Expired`) of `job`. `window`
/// is the credit window a `Busy` advertises (`stamps[2]`, 0 = none).
fn reply_refusal(job: &Job, kind: FrameKind, window: u64) {
    let refusal = Frame {
        kind,
        flags: job.frame.flags,
        id: job.frame.id,
        stamps: [job.frame.stamps[1], wall_ns(), window, 0],
        deadline: job.frame.deadline,
        payload: bytes::Bytes::new(),
    };
    queue_reply(&job.conn, &refusal);
}

// LINT-ZONE: nonblocking — readiness classification for the epoll rewrite.
fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Worker body: decode → store read/write → encode → queue the reply with
/// its stage stamps. Work whose deadline has passed while queued is shed
/// *before* the DB stage — the master gets an `Expired` answer instead of
/// a result it can no longer use. Returns the job's last stage stamp:
/// its in-db end, or `dequeued` if it never reached the store.
fn serve(store: &Mutex<NodeStore>, job: Job, dequeued: u64) -> u64 {
    if job.frame.deadline != 0 && dequeued >= job.frame.deadline {
        reply_refusal(&job, FrameKind::Expired, 0);
        return dequeued;
    }
    match job.frame.kind {
        FrameKind::Request => serve_read(store, job, dequeued),
        FrameKind::Write => serve_write(store, job, dequeued, false),
        FrameKind::Rmw => serve_write(store, job, dequeued, true),
        // dispatch() never queues these; tolerate and drop.
        FrameKind::Response | FrameKind::WriteAck | FrameKind::Busy | FrameKind::Expired => {
            dequeued
        }
    }
}

/// The codec a frame's flags declare; the server answers in kind.
fn codec_of(flags: u8) -> Codec {
    if flags & FLAG_COMPACT != 0 {
        Codec::compact()
    } else {
        Codec::verbose()
    }
}

/// The read path: aggregate the partition's per-kind counts and report
/// the partition's LWW version for coordinator-side staleness accounting.
/// A read the store could not complete gets no answer — the frame protocol
/// has no error kind, and an answer of zero cells would be a wrong
/// aggregate with full coverage; the master's timeout and replica failover
/// treat the silence as they treat loss. Header and body go straight from
/// the fold's tally into the connection's reply buffer.
fn serve_read(store: &Mutex<NodeStore>, job: Job, dequeued: u64) -> u64 {
    let Job { frame, conn } = job;
    let codec = codec_of(frame.flags);
    let Some(request) = codec.decode_request(frame.payload) else {
        return dequeued; // checksummed frame with an undecodable body: drop it
    };
    let Some(agg) = store.lock().aggregate(&request.partition) else {
        return dequeued;
    };
    let db_end = wall_ns();
    let reply = Frame {
        kind: FrameKind::Response,
        flags: frame.flags,
        id: frame.id,
        stamps: [frame.stamps[1], dequeued, db_end, wall_ns()],
        deadline: frame.deadline,
        payload: bytes::Bytes::new(),
    };
    reply.encode_with(&mut conn.lock().out, |out| {
        codec.append_response(out, request.request_id, &agg.kinds, agg.version)
    });
    db_end
}

/// The write path: apply the batch under last-write-wins and acknowledge
/// with the partition's resulting version. An RMW reads the pre-image
/// first, preserving read-your-write ordering on the replica before the
/// apply decision.
fn serve_write(store: &Mutex<NodeStore>, job: Job, dequeued: u64, rmw: bool) -> u64 {
    let Job { frame, conn } = job;
    let codec = codec_of(frame.flags);
    let Some(write) = codec.decode_write(frame.payload) else {
        return dequeued; // checksummed frame with an undecodable body: drop it
    };
    let (applied, version) = {
        let mut guard = store.lock();
        // The pre-image read is the "modify" input; the prototype's
        // aggregation workload only needs its cost, not its value — but
        // a replica that cannot read the partition must not ack.
        if rmw && guard.aggregate(&write.partition).is_none() {
            (false, 0)
        } else {
            guard.apply(&write)
        }
    };
    let ack = WriteAck {
        request_id: write.request_id,
        applied,
        version,
    };
    let db_end = wall_ns();
    let reply = Frame {
        kind: FrameKind::WriteAck,
        flags: frame.flags,
        id: frame.id,
        stamps: [frame.stamps[1], dequeued, db_end, wall_ns()],
        deadline: frame.deadline,
        payload: codec.encode_write_ack(&ack),
    };
    queue_reply(&conn, &reply);
    db_end
}

impl SlaveHandle {
    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Backpressure counters of this server's work queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Stops the server deterministically and returns the final queue
    /// stats. Joins the accept loop, every connection reader, and the
    /// worker pool — nothing survives the call.
    pub fn shutdown(self) -> QueueStats {
        self.shutdown_take_store().0
    }

    /// Like [`SlaveHandle::shutdown`], but also hands back the node's
    /// [`NodeStore`]. A chaos harness keeps a RAM table for the restart;
    /// a durable store is *dropped* on a kill — its restart must go
    /// through real crash recovery (see `LocalCluster::kill`/`restart`).
    pub fn shutdown_take_store(mut self) -> (QueueStats, NodeStore) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection. If even
        // loopback connect fails the accept loop may hang — say so.
        if let Err(e) = TcpStream::connect(self.addr) {
            eprintln!("kvs-net: shutdown wake-up connect failed: {e}");
        }
        if let Some(h) = self.accept_thread.take() {
            join_logged("accept thread", h);
        }
        let conns = std::mem::take(&mut *self.conn_threads.lock());
        for h in conns {
            join_logged("connection reader", h);
        }
        let stats = self.queue.stats();
        // Workers exit once every queue producer is gone.
        let SlaveHandle {
            queue,
            workers,
            store,
            ..
        } = self;
        drop(queue);
        for h in workers {
            join_logged("worker thread", h);
        }
        let store = Arc::try_unwrap(store)
            .unwrap_or_else(|_| panic!("store still shared after worker join"))
            .into_inner();
        (stats, store)
    }
}
