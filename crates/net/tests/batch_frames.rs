//! Frames that carry many partitions keep every decision per partition.
//!
//! A request frame of 64 keys meets a slave whose queue holds 8: the keys
//! the queue refuses, and only those, are answered `Busy` one frame each,
//! the master retries exactly those, and the totals are the oracle's. A
//! request or response frame delivered twice, whole, is answered once per
//! key.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Codec};
use kvs_net::clock::wall_ns;
use kvs_net::frame::{Deframer, Frame, FrameKind, FLAG_COMPACT};
use kvs_net::{spawn_local_cluster, NetConfig, NetMaster, NetServerConfig};
use kvs_store::TableOptions;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

const KEYS: u64 = 64;

/// Enough cells a partition that a read takes far longer than the reader
/// takes to offer a whole frame's keys to the queue.
const CELLS: u64 = 2_000;

fn data(partitions: u64, cells: u64) -> ClusterData {
    ClusterData::load(
        1,
        1,
        TableOptions::default(),
        uniform_partitions(partitions, cells, 4),
    )
}

#[test]
fn a_64_key_frame_at_a_queue_of_8_refuses_exactly_the_keys_it_cannot_hold() {
    let server = NetServerConfig {
        workers_per_node: 1,
        queue_depth: 8,
    };
    let (cluster, routes) = spawn_local_cluster(data(KEYS, CELLS), server).expect("cluster boots");
    let codec = Codec::compact();

    // ---- One 64-key frame written straight onto the slave's socket. ----
    let mut sock = TcpStream::connect(cluster.addrs()[0]).expect("slave accepts");
    let mut payload = Vec::new();
    for (id, route) in routes.iter().enumerate() {
        codec.append_request(&mut payload, id as u64, &route.key);
    }
    let now = wall_ns();
    Frame {
        kind: FrameKind::Request,
        flags: FLAG_COMPACT,
        id: 0,
        stamps: [now, now, 1, 0],
        deadline: 0,
        payload: payload.into(),
    }
    .write_to(&mut sock)
    .expect("request written");

    // Every key comes back exactly once: in a response frame, or refused
    // in a `Busy` of its own that advertises the queue's capacity.
    let (mut answered, mut refused) = (BTreeMap::new(), Vec::new());
    while answered.len() + refused.len() < KEYS as usize {
        let frame = Frame::read_from(&mut sock).expect("slave answers");
        match frame.kind {
            FrameKind::Response => {
                frame
                    .answers(&codec, |answer| {
                        let body = codec.decode_response(answer.body.to_vec().into());
                        let cells = body.expect("a whole body").cells;
                        assert!(
                            answered.insert(answer.id, cells).is_none(),
                            "answered twice"
                        );
                    })
                    .expect("a whole response frame");
            }
            FrameKind::Busy => {
                assert!(frame.payload.is_empty());
                assert_eq!(frame.stamps[2], 8, "a Busy advertises the queue");
                refused.push(frame.id);
            }
            other => panic!("unexpected {other:?} frame"),
        }
    }
    drop(sock);
    refused.sort_unstable();
    assert!(!refused.is_empty(), "a queue of 8 held a 64-key frame");
    assert!(refused.iter().all(|id| !answered.contains_key(id)));
    assert!(refused.windows(2).all(|w| w[0] < w[1]), "refused twice");
    assert!(answered.values().all(|&cells| cells == CELLS));
    let stats = cluster.queue_stats();
    assert_eq!(
        stats.busy_rejections,
        refused.len() as u64,
        "exactly the refused keys get a Busy"
    );

    // ---- The same through a master that has not learned the window:
    // its first frame carries every key, and it retries exactly the
    // refused ones. ----
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    let report = master.run_query(&routes).expect("query succeeds");
    let busy = cluster.queue_stats().busy_rejections - stats.busy_rejections;
    assert!(busy > 0, "the first frame overran the queue");
    assert_eq!(report.busy_retries, busy, "one retry per refused key");
    assert_eq!(
        report.result.total_cells,
        KEYS * CELLS,
        "the oracle's totals"
    );
    assert_eq!(report.result.traces.len(), KEYS as usize);
    assert!(report.result.coverage.is_complete());
    assert_eq!(report.timeout_retries, 0);
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn a_duplicated_multi_key_frame_is_answered_once_per_key() {
    // A queue that holds both copies, so that no key is refused.
    let server = NetServerConfig {
        workers_per_node: 2,
        queue_depth: 4 * KEYS as usize,
    };
    let (cluster, routes) = spawn_local_cluster(data(KEYS, 8), server).expect("cluster boots");
    let (relay, doubler) = spawn_doubler(cluster.addrs()[0]);
    let mut master = NetMaster::connect(&[relay], NetConfig::default()).expect("master connects");
    let report = master.run_query(&routes).expect("query succeeds");
    master.shutdown();
    let widest = doubler.join().expect("relay exits");
    assert!(widest > 1, "no multi-key request frame was duplicated");
    // Every key was served twice and every answer delivered twice: the
    // totals count each key once.
    assert_eq!(report.result.total_cells, KEYS * 8);
    assert_eq!(report.result.messages, KEYS);
    assert_eq!(report.result.traces.len(), KEYS as usize);
    assert_eq!(report.busy_retries, 0);
    assert!(
        cluster.queue_stats().pushed >= 2 * KEYS,
        "both copies served"
    );
    cluster.shutdown();
}

/// A relay between one master and `slave` that delivers every frame
/// twice, whole, in both directions. Returns its address and a handle
/// answering the most keys one duplicated request frame carried.
fn spawn_doubler(slave: SocketAddr) -> (SocketAddr, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (master, _peer) = listener.accept().expect("master connects");
        let slave = TcpStream::connect(slave).expect("slave accepts");
        let (master_in, slave_in) = (
            master.try_clone().expect("clone"),
            slave.try_clone().expect("clone"),
        );
        let answers = std::thread::spawn(move || double(slave_in, master));
        let widest = double(master_in, slave);
        answers.join().expect("pump exits");
        widest
    });
    (addr, handle)
}

/// Writes every frame read from `from` to `to` twice until either side
/// closes, then closes both; returns the most keys a request frame held.
fn double(mut from: TcpStream, mut to: TcpStream) -> usize {
    let codec = Codec::compact();
    let mut deframer = Deframer::new();
    let mut widest = 0;
    'stream: while deframer.fill(&mut from).is_ok_and(|n| n > 0) {
        while let Ok(Some(frame)) = deframer.next_frame() {
            if frame.kind == FrameKind::Request {
                let (mut rest, mut keys) = (&frame.payload[..], 0);
                while codec.next_request(&mut rest).is_some() {
                    keys += 1;
                }
                widest = widest.max(keys);
            }
            let wire = frame.encode();
            if to
                .write_all(&wire)
                .and_then(|()| to.write_all(&wire))
                .is_err()
            {
                break 'stream;
            }
        }
    }
    for side in [&from, &to] {
        // The other pump may have closed it first.
        let _ = side.shutdown(Shutdown::Both);
    }
    widest
}
