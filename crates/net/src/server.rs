//! The slave server: a TCP front-end over one node's table, on either
//! medium — a RAM-only [`kvs_store::Table`] or a durable
//! [`kvs_store::DurableTable`].
//!
//! Layout per server:
//!
//! * one **accept loop** on an ephemeral loopback port;
//! * one **reader thread per connection**, deframing requests, unpacking
//!   each request frame into one job per partition (a refcounted slice of
//!   the frame's payload each) and offering them to the bounded work
//!   queue — a full queue answers the keys it refuses with one `Busy`
//!   frame each instead of absorbing load silently, and that frame
//!   advertises the queue's capacity so the master can keep within it from
//!   then on;
//! * a fixed pool of **worker threads** (`workers_per_node`, the paper's
//!   per-node database parallelism) draining the queue: read the store
//!   for the job's key, encode the answer with its stage timestamps
//!   (`in-queue` start/end, `in-db` start/end). A busy worker is not woken
//!   for the next request (see [`kvs_cluster::queue`]): it polls the queue
//!   when it is done, and parks only once the queue is empty and its
//!   replies are out.
//!
//! Replies collect per connection: a reader writes the refusals of the
//! chunk it just read in one call; a worker appends each answer to the
//! connection's one open response frame and seals and writes it when it
//! finds the queue empty or has held an answer for `REPLY_HOLD` — so a
//! burst of cheap requests shares a frame and a `write`, and a lone
//! request or one that took the store milliseconds is answered at once. A
//! read's answer is encoded directly from the worker's [`Tally`], which
//! the store's aggregation read filled (`ServedTable`); the hold is
//! measured on the stage stamps a request takes anyway.
//!
//! Shutdown is deterministic: [`SlaveHandle::shutdown`] stops the accept
//! loop, joins every connection reader (their sockets poll a stop flag),
//! drops the queue producers so workers drain and exit, and joins the
//! pool. No thread or socket outlives the call.

use crate::clock::wall_ns;
use crate::frame::{codec_of, put_entry_stamps, Deframer, Frame, FrameKind};
use crate::ioutil::{best_effort, join_logged};
use bytes::Bytes;
use kvs_cluster::queue::{work_queue, QueueStats, TimedPush, WorkQueue, NO_DEADLINE};
use kvs_cluster::{WriteAck, WriteRequest};
use kvs_store::{Cell, Medium, PartitionKey, Table, Tally};
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
    /// The open response frame: the header its first answer gives it, and
    /// the payload appended since (see [`crate::frame`]'s entry layout).
    head: Option<Head>,
    open: Vec<u8>,
}

/// What the first answer of an open response frame puts in its header.
#[derive(Clone, Copy)]
struct Head {
    flags: u8,
    id: u64,
    deadline: u64,
    /// `[sent echo, dequeued, in-db end]`.
    stamps: [u64; 3],
}

impl Conn {
    /// Seals the open response frame, if any, into the reply buffer.
    fn seal(&mut self) {
        let Some(head) = self.head.take() else {
            return;
        };
        let [sent, dequeued, db_end] = head.stamps;
        let Conn { out, open, .. } = self;
        Frame {
            kind: FrameKind::Response,
            flags: head.flags,
            id: head.id,
            stamps: [sent, dequeued, db_end, wall_ns()],
            deadline: head.deadline,
            payload: Bytes::new(),
        }
        .encode_with(out, |out| out.extend_from_slice(open));
        open.clear();
    }
}

/// One partition's worth of work, as the reader unpacked it from a frame.
struct Job {
    kind: FrameKind,
    flags: u8,
    /// The request id: a read entry's, or the write frame's.
    id: u64,
    /// The send stamp of the frame it came in, which its answer echoes.
    sent: u64,
    /// Absolute wall-clock deadline; 0 = none.
    deadline: u64,
    /// A read's partition key, or a write's whole body: a slice of the
    /// frame's payload.
    body: Bytes,
    conn: Arc<Mutex<Conn>>,
}

/// Appends `frame` to the connection's reply buffer; whoever queued it
/// owes the connection a [`flush`] before blocking.
fn queue_reply(conn: &Mutex<Conn>, frame: &Frame) {
    frame.encode_into(&mut conn.lock().out);
}

/// Appends a read's answer — its stamps `[sent echo, dequeued, in-db
/// end]` and the body `encode` writes — to the connection's open response
/// frame, opening one if none is; whoever appended it owes the connection
/// a [`flush`] with `seal` before blocking.
fn queue_answer(job: &Job, stamps: [u64; 3], encode: impl FnOnce(&mut Vec<u8>)) {
    let mut c = job.conn.lock();
    // One frame's entries share a codec.
    if c.head.is_some_and(|head| head.flags != job.flags) {
        c.seal();
    }
    if c.head.is_none() {
        c.head = Some(Head {
            flags: job.flags,
            id: job.id,
            deadline: job.deadline,
            stamps,
        });
    } else {
        put_entry_stamps(&mut c.open, stamps);
    }
    encode(&mut c.open);
}

/// Writes the connection's buffered replies, if any, in one call; with
/// `seal`, the open response frame goes with them.
fn flush(conn: &Mutex<Conn>, seal: bool) {
    let mut c = conn.lock();
    if seal {
        c.seal();
    }
    if c.out.is_empty() {
        return;
    }
    let Conn { stream, out, .. } = &mut *c;
    // The connection mutex *is* the per-connection write serializer:
    // refusals from readers and responses from workers must not interleave
    // mid-frame, so holding it across the write is the point (waived
    // KVS-L007). A failed write means the master hung up — best effort.
    best_effort("reply write", stream.write_all(out));
    out.clear();
}

/// Seals and flushes every connection a worker owes one, emptying the
/// list.
fn flush_all(owed: &mut Vec<Arc<Mutex<Conn>>>) {
    for conn in owed.drain(..) {
        flush(&conn, true);
    }
}

/// Takes the partition's version cell, when its last cell is one, out of
/// `tally`'s counts — it is bookkeeping, not data — and answers the LWW
/// version it carries; `0` when the partition was never written through
/// the replicated write path. The version cell sorts after every data
/// cell, so it is the last cell or absent.
fn take_version(tally: &mut Tally) -> u64 {
    let version = match tally.last() {
        Some(last) if last.clustering == VERSION_CLUSTERING && last.kind == VERSION_KIND => {
            last.payload.try_into().map_or(0, u64::from_be_bytes)
        }
        _ => return 0,
    };
    tally.remove(VERSION_KIND);
    version
}

/// The table behind one slave server, on either medium: the in-memory
/// [`kvs_store::Table`] of the paper's RAM-resident experiments, or the
/// [`kvs_store::DurableTable`] whose data survives a kill via WAL +
/// SSTables + manifest (and whose restart runs *real* crash recovery
/// instead of handing the old memory back).
///
/// A read is the store's one aggregation read, [`Table::aggregate`]: it
/// counts a whole partition by kind, a column of a block at a time where
/// one run holds the partition, and reports the partition's last cell, so
/// the version cell is taken out of the counts here and the store never
/// learns what one is. A write's last-write-wins check reads the version
/// cell alone, a one-key [`Table::fold_range`], rather than the partition.
pub(crate) trait ServedTable: Send {
    /// Counts a whole partition's data cells by kind into `tally` without
    /// owning a cell, and answers its LWW version ([`take_version`]).
    /// `None` when the table could not read it (on disk: an I/O error or a
    /// failed checksum — logged here): the partition's contents are then
    /// unknown, not empty, and the caller must not answer as if it knew.
    fn aggregate(&mut self, pk: &PartitionKey, tally: &mut Tally) -> Option<u64>;

    /// Applies a replicated write under the last-write-wins rule: a
    /// strictly newer timestamp replaces the partition's version cell and
    /// lands every carried cell; an equal or older timestamp leaves the
    /// incumbent untouched (ties keep the incumbent, so hint replay is
    /// idempotent). Returns `(applied, version_after)`. A store error
    /// refuses the write (`applied = false`) with the pre-image version —
    /// `0` when it is the version read that failed, since an unknown
    /// version must not let an older write through — and the coordinator
    /// will not count the ack.
    fn apply(&mut self, req: &WriteRequest) -> (bool, u64);
}

impl<M: Medium> ServedTable for Table<M>
where
    Table<M>: Send,
{
    fn aggregate(&mut self, pk: &PartitionKey, tally: &mut Tally) -> Option<u64> {
        if let Err(e) = M::into_result(Table::aggregate(self, pk, tally)) {
            eprintln!("kvs-net: durable read of {pk:?} failed: {e}");
            return None;
        }
        Some(take_version(tally))
    }

    fn apply(&mut self, req: &WriteRequest) -> (bool, u64) {
        // The newest version cell of every source, merged newest-wins; no
        // other cell is handed over and the row cache is not touched.
        let mut current = 0;
        let version = VERSION_CLUSTERING..=VERSION_CLUSTERING;
        let read = self.fold_range(&req.partition, version, |cell| {
            if let (VERSION_KIND, Ok(timestamp)) = (cell.kind, cell.payload.try_into()) {
                current = u64::from_be_bytes(timestamp);
            }
        });
        if let Err(e) = M::into_result(read) {
            eprintln!("kvs-net: durable read of {:?} failed: {e}", req.partition);
            return (false, 0);
        }
        if req.timestamp <= current {
            return (false, current);
        }
        let cells = req
            .cells
            .iter()
            .cloned()
            .chain([version_cell(req.timestamp)]);
        let written = M::into_result(self.put_all(&req.partition, cells));
        // The ack promises durability: the WAL must be on disk before the
        // coordinator counts this replica.
        if let Err(e) = written.and_then(|()| M::into_result(self.sync_wal())) {
            eprintln!("kvs-net: durable write of {:?} failed: {e}", req.partition);
            return (false, current);
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
    store: Arc<Mutex<Box<dyn ServedTable>>>,
}

impl SlaveServer {
    /// Boots a server owning a RAM-only `table` on an ephemeral loopback
    /// port.
    pub fn spawn(table: Table, cfg: NetServerConfig) -> io::Result<SlaveHandle> {
        SlaveServer::spawn_store(Box::new(table), cfg)
    }

    /// Boots a server owning `store`, a table on either medium, on an
    /// ephemeral loopback port.
    pub(crate) fn spawn_store(
        store: Box<dyn ServedTable>,
        cfg: NetServerConfig,
    ) -> io::Result<SlaveHandle> {
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
                // What this worker's reads count into, and the key they
                // read, reused.
                let mut tally = Tally::default();
                let mut key = PartitionKey(Vec::new());
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
                    let done = serve(&store, job, dequeued, &mut tally, &mut key);
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
        head: None,
        open: Vec::new(),
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
                flush(&conn, false);
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

/// Routes one decoded frame: each partition of a request, and a write or
/// RMW whole, goes to the deadline-aware queue as a job of its own. A job
/// whose deadline already passed is answered `Expired` without ever
/// occupying a queue slot, a full queue of live work gets a `Busy` reply
/// per refused job advertising the queue's capacity, and expired entries
/// evicted to make room are each answered `Expired`. Refusals to `conn`
/// are left for the caller to flush. A request entry that does not decode
/// drops it and the rest of its frame; any other kind is a protocol
/// violation, dropped.
fn dispatch(frame: Frame, queue: &WorkQueue<Job>, conn: &Arc<Mutex<Conn>>) {
    let now = wall_ns();
    let job = |id, body| Job {
        kind: frame.kind,
        flags: frame.flags,
        id,
        sent: frame.stamps[1],
        deadline: frame.deadline,
        body,
        conn: conn.clone(),
    };
    match frame.kind {
        FrameKind::Request => {
            let codec = codec_of(frame.flags);
            let mut rest = &frame.payload[..];
            while !rest.is_empty() {
                let Some((id, key)) = codec.next_request(&mut rest) else {
                    return;
                };
                offer(job(id, frame.payload.slice_ref(key)), queue, now);
            }
        }
        FrameKind::Write | FrameKind::Rmw => {
            offer(job(frame.id, frame.payload.clone()), queue, now)
        }
        FrameKind::Response | FrameKind::Busy | FrameKind::Expired | FrameKind::WriteAck => {}
    }
}

/// Offers one job to the queue at `now`, answering whatever it refuses.
fn offer(job: Job, queue: &WorkQueue<Job>, now: u64) {
    // Deadline 0 on the wire means "none"; the queue's never-expires
    // sentinel keeps such entries immortal.
    let deadline = if job.deadline == 0 {
        NO_DEADLINE
    } else {
        job.deadline
    };
    match queue.try_push_timed(job, deadline, now) {
        TimedPush::Accepted { evicted } => {
            for dead in evicted {
                // Possibly another connection's request: nobody else owes
                // that connection a flush.
                reply_refusal(&dead, FrameKind::Expired, 0);
                flush(&dead.conn, false);
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
        flags: job.flags,
        id: job.id,
        stamps: [job.sent, wall_ns(), window, 0],
        deadline: job.deadline,
        payload: Bytes::new(),
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

/// Worker body: store read/write → encode → queue the reply with its
/// stage stamps. Work whose deadline has passed while queued is shed
/// *before* the DB stage — the master gets an `Expired` answer instead of
/// a result it can no longer use. Returns the job's last stage stamp: its
/// in-db end, or `dequeued` if it never reached the store.
fn serve(
    store: &Mutex<Box<dyn ServedTable>>,
    job: Job,
    dequeued: u64,
    tally: &mut Tally,
    key: &mut PartitionKey,
) -> u64 {
    if job.deadline != 0 && dequeued >= job.deadline {
        reply_refusal(&job, FrameKind::Expired, 0);
        return dequeued;
    }
    match job.kind {
        FrameKind::Request => serve_read(store, job, dequeued, tally, key),
        FrameKind::Write => serve_write(store, job, dequeued, None),
        FrameKind::Rmw => serve_write(store, job, dequeued, Some(tally)),
        // dispatch() never queues these; tolerate and drop.
        FrameKind::Response | FrameKind::WriteAck | FrameKind::Busy | FrameKind::Expired => {
            dequeued
        }
    }
}

/// The read path: aggregate the partition's per-kind counts and report
/// the partition's LWW version for coordinator-side staleness accounting.
/// A read the store could not complete gets no answer — the frame protocol
/// has no error kind, and an answer of zero cells would be a wrong
/// aggregate with full coverage; the master's timeout and replica failover
/// treat the silence as they treat loss. The answer goes straight from the
/// fold's tally into the connection's open response frame; the key is
/// copied into the worker's reused one.
fn serve_read(
    store: &Mutex<Box<dyn ServedTable>>,
    job: Job,
    dequeued: u64,
    tally: &mut Tally,
    key: &mut PartitionKey,
) -> u64 {
    key.0.clear();
    key.0.extend_from_slice(&job.body);
    let Some(version) = store.lock().aggregate(key, tally) else {
        return dequeued;
    };
    let db_end = wall_ns();
    let codec = codec_of(job.flags);
    queue_answer(&job, [job.sent, dequeued, db_end], |out| {
        codec.append_response(out, job.id, tally, version)
    });
    db_end
}

/// The write path: apply the batch under last-write-wins and acknowledge
/// with the partition's resulting version. An RMW — a write given a
/// `tally` to read into — reads the whole partition first, preserving
/// read-your-write ordering on the replica before the apply decision.
fn serve_write(
    store: &Mutex<Box<dyn ServedTable>>,
    job: Job,
    dequeued: u64,
    rmw: Option<&mut Tally>,
) -> u64 {
    let codec = codec_of(job.flags);
    let Some(write) = codec.decode_write(job.body) else {
        return dequeued; // checksummed frame with an undecodable body: drop it
    };
    let (applied, version) = {
        let mut guard = store.lock();
        // The pre-image read is the "modify" input; the prototype's
        // aggregation workload only needs its cost, not its value — but
        // a replica that cannot read the partition must not ack.
        let pre_image = rmw.map(|tally| guard.aggregate(&write.partition, tally));
        if matches!(pre_image, Some(None)) {
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
        flags: job.flags,
        id: job.id,
        stamps: [job.sent, dequeued, db_end, wall_ns()],
        deadline: job.deadline,
        payload: codec.encode_write_ack(&ack),
    };
    queue_reply(&job.conn, &reply);
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
    /// table. A chaos harness keeps a RAM table for the restart; a durable
    /// store is *dropped* on a kill — its restart must go through real
    /// crash recovery (see `LocalCluster::kill`/`restart`).
    pub(crate) fn shutdown_take_store(mut self) -> (QueueStats, Box<dyn ServedTable>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use kvs_store::TableOptions;

    /// A replicated write of one data cell at `clustering`, stamped
    /// `timestamp`.
    fn write(pk: &PartitionKey, timestamp: u64, clustering: u64) -> WriteRequest {
        WriteRequest {
            request_id: timestamp,
            partition: pk.clone(),
            timestamp,
            cells: vec![Cell::new(clustering, 1, vec![0xAB; 4])],
        }
    }

    #[test]
    fn the_lww_check_reads_the_newest_version_over_memtable_and_runs() {
        let mut table = Table::new(TableOptions {
            compaction_threshold: 100,
            ..TableOptions::default()
        });
        let pk = PartitionKey::from_id(7);
        // Versions 10 and 20 in a run each, then a plain cell in the
        // memtable: the partition lies in three sources, the version cell
        // in the two runs.
        assert_eq!(table.apply(&write(&pk, 10, 0)), (true, 10));
        table.flush();
        assert_eq!(table.apply(&write(&pk, 20, 1)), (true, 20));
        table.flush();
        table.put(pk.clone(), Cell::new(2, 1, vec![0xCD; 4]));
        assert_eq!(table.sstable_count(), 2);
        // The newer run's version wins; an older write and an equal one
        // keep the incumbent.
        assert_eq!(table.apply(&write(&pk, 15, 3)), (false, 20));
        assert_eq!(table.apply(&write(&pk, 20, 3)), (false, 20));
        // A newer one lands, its version cell in the memtable over both.
        assert_eq!(table.apply(&write(&pk, 30, 3)), (true, 30));
        assert_eq!(table.apply(&write(&pk, 25, 4)), (false, 30));
        assert_eq!(table.apply(&write(&pk, 30, 4)), (false, 30));
        // The read agrees, and counts the four data cells alone.
        let mut tally = Tally::default();
        assert_eq!(
            ServedTable::aggregate(&mut table, &pk, &mut tally),
            Some(30)
        );
        assert_eq!(tally.count(1), 4);
        assert_eq!(tally.cells(), 4);
        // So does the block kernel, once one run holds it all.
        table.flush();
        table.compact();
        assert_eq!(
            ServedTable::aggregate(&mut table, &pk, &mut tally),
            Some(30)
        );
        assert_eq!((tally.count(1), tally.cells()), (4, 4));
        // A partition never written through this path has version 0.
        let fresh = PartitionKey::from_id(8);
        table.put(fresh.clone(), Cell::new(0, 2, Vec::new()));
        assert_eq!(
            ServedTable::aggregate(&mut table, &fresh, &mut tally),
            Some(0)
        );
        assert_eq!((tally.count(2), tally.cells()), (1, 1));
    }
}
