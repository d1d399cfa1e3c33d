//! The ladder: each layer a request passes through, timed alone around
//! its public call, as the median of at least twenty batches. Run only
//! under `--trace 1`.
//!
//! The rungs say what a layer costs when nothing else competes; the share
//! of a workload's CPU time they add up to is `ladder.cpu_explained_frac`,
//! and the rest — system calls, wake-ups, locks, retries — is the
//! residual a later change has to go looking in.

use crate::gen::Dataset;
use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::{Interval, WorkDir, Workload};
use bytes::Bytes;
use kvs_cluster::queue::work_queue;
use kvs_cluster::{ClusterConfig, ClusterData, Codec, QueryRequest, QueryResponse};
use kvs_net::frame::{Frame, FrameKind, FLAG_COMPACT};
use kvs_net::{spawn_local_cluster, NetConfig, NetMaster, NetServerConfig};
use kvs_simcore::{Engine, SimDuration};
use kvs_store::wal::WalWriter;
use kvs_store::{
    Cell, DurableOptions, DurableTable, FsyncPolicy, PartitionKey, Table, TableOptions,
};
use kvs_workloads::Zipfian;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

const BATCHES: usize = 21;

/// Median over [`BATCHES`] batches of the time one call of `f` takes, ns,
/// each batch timing `iters` calls back to back.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median over [`BATCHES`] rounds of the time `timed` takes on what
/// `prepare` built, ns. The preparation is not timed.
fn prepared_ns<S>(mut prepare: impl FnMut() -> S, mut timed: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = prepare();
            let t0 = Instant::now();
            timed(&mut state);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// A fixed amount of dependent integer arithmetic, ms. Says whether the
/// host was fast or slow while the rungs ran; used for diagnosis only,
/// never to scale another metric.
fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..10_000_000u64 {
        // The barrier keeps the chain from being folded into a closed form.
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn request_frame(payload: Bytes) -> Frame {
    Frame {
        kind: FrameKind::Request,
        flags: FLAG_COMPACT,
        id: 7,
        stamps: [1, 2, 3, 4],
        deadline: 0,
        payload,
    }
}

fn frame_rungs(m: &mut Metrics) {
    let codec = Codec::compact();
    let small = request_frame(codec.encode_request(&QueryRequest {
        request_id: 7,
        partition: PartitionKey::from_id(0xC0FFEE),
    }));
    let small_wire = small.encode();
    m.push(
        "net.frame.encode_small_ns",
        "ns",
        per_call_ns(20_000, || {
            black_box(black_box(&small).encode());
        }),
    );
    m.push(
        "net.frame.decode_small_ns",
        "ns",
        per_call_ns(20_000, || {
            black_box(Frame::decode(black_box(&small_wire)).expect("valid frame"));
        }),
    );
    let big = request_frame(Bytes::from(vec![0xA5u8; 64 * 1024]));
    let big_wire = big.encode();
    m.push(
        "net.frame.encode_64k_us",
        "us",
        per_call_ns(40, || {
            black_box(black_box(&big).encode());
        }) / 1e3,
    );
    m.push(
        "net.frame.decode_64k_us",
        "us",
        per_call_ns(40, || {
            black_box(Frame::decode(black_box(&big_wire)).expect("valid frame"));
        }) / 1e3,
    );
}

fn codec_rungs(m: &mut Metrics) {
    let req = QueryRequest {
        request_id: 7,
        partition: PartitionKey::from_id(0xC0FFEE),
    };
    let resp = QueryResponse::from_kinds(7, (0..100u8).map(|i| i % 4));
    let compact = Codec::compact();
    let verbose = Codec::verbose();
    m.push(
        "cluster.codec.compact_req_roundtrip_ns",
        "ns",
        per_call_ns(20_000, || {
            let wire = compact.encode_request(black_box(&req));
            black_box(compact.decode_request(wire).expect("round trip"));
        }),
    );
    m.push(
        "cluster.codec.compact_resp_roundtrip_ns",
        "ns",
        per_call_ns(20_000, || {
            let wire = compact.encode_response(black_box(&resp));
            black_box(compact.decode_response(wire).expect("round trip"));
        }),
    );
    m.push(
        "cluster.codec.verbose_req_roundtrip_ns",
        "ns",
        per_call_ns(200, || {
            let wire = verbose.encode_request(black_box(&req));
            black_box(verbose.decode_request(wire).expect("round trip"));
        }),
    );
}

fn queue_rungs(m: &mut Metrics) {
    let (tx, rx) = work_queue::<u64>(64);
    m.push(
        "cluster.queue.push_pop_ns",
        "ns",
        per_call_ns(20_000, || {
            tx.try_push(black_box(1)).expect("queue has room");
            black_box(rx.recv());
        }),
    );
    // Hand-off: the consumer is parked in `recv` when the item arrives
    // and answers on a second queue; half the round trip is one hand-off.
    let (to_worker, worker_rx) = work_queue::<u64>(64);
    let (to_main, main_rx) = work_queue::<u64>(64);
    let round_trip_ns = std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(x) = worker_rx.recv() {
                if to_main.try_push(x).is_err() {
                    return;
                }
            }
        });
        let ns = per_call_ns(500, || {
            to_worker.try_push(1).expect("queue has room");
            black_box(main_rx.recv());
        });
        drop(to_worker); // the worker sees end of input and returns
        ns
    });
    m.push("cluster.queue.handoff_us", "us", round_trip_ns / 2.0 / 1e3);
}

/// Loads `data` into one flushed RAM table.
fn ram_table(data: &Dataset, opts: TableOptions) -> Table {
    let mut table = Table::new(opts);
    for (pk, cells) in &data.partitions {
        table.put_all(pk, cells.iter().cloned());
    }
    table.flush();
    table
}

fn table_rungs(m: &mut Metrics, seed: u64) {
    let fine = Dataset::generate(seed, 1, 1_000, 100);
    let keys = fine.keys();
    let mut next = 0usize;
    let mut table = ram_table(&fine, TableOptions::default());
    m.push(
        "store.table.get_100_us",
        "us",
        per_call_ns(500, || {
            next = (next + 1) % keys.len();
            black_box(table.get(&keys[next]));
        }) / 1e3,
    );
    let mut cached = ram_table(
        &fine,
        TableOptions {
            row_cache_partitions: 16,
            ..TableOptions::default()
        },
    );
    let hot = &keys[0];
    m.push(
        "store.table.get_rowcache_hit_us",
        "us",
        per_call_ns(2_000, || {
            black_box(cached.get(hot));
        }) / 1e3,
    );

    // 2 800 cells of 46 bytes: one 128 KiB memtable, as in point_mixed.
    let memtable_cells: Vec<(PartitionKey, Cell)> = fine
        .partitions
        .iter()
        .flat_map(|(pk, cells)| cells.iter().take(3).map(|c| (pk.clone(), c.clone())))
        .take(2_800)
        .collect();
    let no_auto = TableOptions {
        compaction_threshold: usize::MAX,
        ..TableOptions::default()
    };
    let fill = |table: &mut Table| {
        for (pk, cell) in &memtable_cells {
            table.put(pk.clone(), cell.clone());
        }
    };
    m.push(
        "store.table.put_ns",
        "ns",
        prepared_ns(|| Table::new(no_auto.clone()), |t| fill(t)) / memtable_cells.len() as f64,
    );
    m.push(
        "store.table.flush_ms",
        "ms",
        prepared_ns(
            || {
                let mut t = Table::new(no_auto.clone());
                fill(&mut t);
                t
            },
            |t| t.flush(),
        ) / 1e6,
    );
    m.push(
        "store.table.compact_ms",
        "ms",
        prepared_ns(
            || {
                let mut t = Table::new(no_auto.clone());
                for _ in 0..4 {
                    fill(&mut t);
                    t.flush();
                }
                t
            },
            |t| t.compact(),
        ) / 1e6,
    );
}

fn coarse_rungs(m: &mut Metrics, seed: u64, work_root: &Path) -> io::Result<()> {
    // One node's share of agg_coarse: ten partitions of 10 000 cells.
    let coarse = Dataset::generate(seed, 1, 10, 10_000);
    let keys = coarse.keys();
    let mut table = ram_table(&coarse, TableOptions::default());
    let mut next = 0usize;
    m.push(
        "store.table.get_10k_us",
        "us",
        per_call_ns(keys.len(), || {
            next = (next + 1) % keys.len();
            black_box(table.get(&keys[next]));
        }) / 1e3,
    );

    let mut sorted = coarse.partitions.clone();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let durable = |blocks: usize, tag: &str| -> io::Result<(WorkDir, DurableTable)> {
        let dir = WorkDir::create(work_root, tag)?;
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            block_cache_blocks: blocks,
            ..DurableOptions::default()
        };
        let (mut t, _) = DurableTable::open(dir.path(), opts)?;
        t.ingest_sorted(&sorted)?;
        Ok((dir, t))
    };

    // Hit: a cache that holds all 4.6 MB, read once to fill it.
    let (_hit_dir, mut hit) = durable(2_048, "rung-hit")?;
    for pk in &keys {
        hit.get(pk)?;
    }
    let mut next = 0usize;
    m.push(
        "store.durable.get_10k_hit_us",
        "us",
        per_call_ns(keys.len(), || {
            next = (next + 1) % keys.len();
            black_box(hit.get(&keys[next]).expect("durable read"));
        }) / 1e3,
    );
    // Miss: the workload's 1 MiB cache, read round robin, so each
    // partition has been evicted by the time it comes round again.
    let (_miss_dir, mut miss) = durable(256, "rung-miss")?;
    let (mut next, mut gets, mut blocks) = (0usize, 0u64, 0u64);
    m.push(
        "store.durable.get_10k_miss_us",
        "us",
        per_call_ns(keys.len(), || {
            next = (next + 1) % keys.len();
            let (cells, receipt) = miss.get(&keys[next]).expect("durable read");
            gets += 1;
            blocks += receipt.disk_blocks_read;
            black_box(cells);
        }) / 1e3,
    );
    m.push(
        "store.durable.blocks_read_per_get",
        "count",
        blocks as f64 / gets as f64,
    );

    let cells = &coarse.partitions[0].1[..2_000];
    m.push(
        "store.durable.put_nosync_us",
        "us",
        prepared_ns(
            || {
                let dir = WorkDir::create(work_root, "rung-put").expect("scratch dir");
                let opts = DurableOptions {
                    fsync: FsyncPolicy::Never,
                    ..DurableOptions::default()
                };
                let (t, _) = DurableTable::open(dir.path(), opts).expect("open durable table");
                (dir, t)
            },
            |(_, t)| {
                for c in cells {
                    t.put(keys[0].clone(), c.clone()).expect("durable put");
                }
            },
        ) / cells.len() as f64
            / 1e3,
    );

    // The sandbox's disk, for what it is worth: one record appended and
    // fdatasync'ed.
    let wal_dir = WorkDir::create(work_root, "rung-wal")?;
    let mut wal = WalWriter::create(wal_dir.path(), 1, 1, FsyncPolicy::Always)?;
    m.push(
        "store.wal.fdatasync_us",
        "us",
        per_call_ns(5, || {
            wal.append(&keys[0], &cells[0]).expect("wal append");
        }) / 1e3,
    );
    Ok(())
}

fn loopback_rung(m: &mut Metrics) -> io::Result<()> {
    let pk = PartitionKey::from_id(1);
    let data = ClusterData::load(
        1,
        1,
        TableOptions::default(),
        vec![(pk, vec![Cell::synthetic(0, 0)])],
    );
    let (cluster, routes) = spawn_local_cluster(data, NetServerConfig::default())?;
    let mut master = NetMaster::connect(&cluster.addrs(), NetConfig::default())?;
    let ns = per_call_ns(200, || {
        black_box(master.run_query(&routes).expect("loopback query"));
    });
    master.shutdown();
    cluster.shutdown();
    m.push("net.loopback.rtt_us", "us", ns / 1e3);
    Ok(())
}

fn sim_rungs(m: &mut Metrics, seed: u64) {
    const EVENTS: u64 = 100_000;
    let ns_per_event = per_call_ns(1, || {
        let mut engine = Engine::new();
        for i in 0..EVENTS {
            engine.schedule_in(SimDuration::from_nanos(i), |_| {});
        }
        engine.run();
        black_box(engine.events_fired());
    }) / EVENTS as f64;
    m.push("simcore.engine.events_per_s", "1/s", 1e9 / ns_per_event);

    let set = Dataset::generate(seed, 16, 480, 100);
    let keys = set.keys();
    let cfg = ClusterConfig::paper_optimized_master(16);
    let mut data = ClusterData::load(16, 1, TableOptions::default(), set.partitions);
    let mut makespans = Vec::new();
    let ns = per_call_ns(1, || {
        makespans.push(kvs_cluster::run_query(&cfg, &mut data, &keys).makespan);
    });
    m.push(
        "cluster.sim.us_per_request",
        "us",
        ns / keys.len() as f64 / 1e3,
    );
    assert!(
        makespans.iter().all(|&x| x == makespans[0]),
        "the simulator did not repeat a query exactly"
    );
    m.push(
        "cluster.sim.makespan_ms",
        "ms",
        makespans[0].as_millis_f64(),
    );
}

/// Runs every rung. `seed` makes their inputs; `work_root` holds the
/// durable rungs' files, removed before this returns.
pub fn run_all(seed: u64, work_root: &Path) -> io::Result<Metrics> {
    let mut m = Metrics::default();
    let probe_before = host_probe_ms();
    frame_rungs(&mut m);
    codec_rungs(&mut m);
    queue_rungs(&mut m);
    table_rungs(&mut m, seed);
    coarse_rungs(&mut m, seed, work_root)?;
    loopback_rung(&mut m)?;
    sim_rungs(&mut m, seed);
    let mut zipf = Zipfian::new(4_096, 0.99);
    let mut rng = StdRng::seed_from_u64(seed);
    m.push(
        "workloads.keydist.zipf_ns_per_draw",
        "ns",
        per_call_ns(100_000, || {
            black_box(zipf.sample(&mut rng));
        }),
    );
    m.push(
        "host.probe_ms",
        "ms",
        (probe_before + host_probe_ms()) / 2.0,
    );
    Ok(m)
}

/// The share of the process's CPU time in `interval` that the rungs
/// account for: every message costs a request and a response through
/// frame and codec plus one queue passage, every store access its rung.
pub fn cpu_explained_frac(workload: Workload, interval: &Interval, cpu_s: f64, r: &Metrics) -> f64 {
    let per_message_ns = 2.0
        * (r.get("net.frame.encode_small_ns") + r.get("net.frame.decode_small_ns"))
        + r.get("cluster.codec.compact_req_roundtrip_ns")
        + r.get("cluster.codec.compact_resp_roundtrip_ns")
        + r.get("cluster.queue.push_pop_ns");
    let read_ns = 1e3
        * match workload {
            Workload::AggCoarse => r.get("store.durable.get_10k_miss_us"),
            _ => r.get("store.table.get_100_us"),
        };
    // The simulator passes no messages: its reads are all the rungs cover.
    let messages = match workload {
        Workload::SimAggFine => 0,
        _ => interval.messages,
    };
    let explained_ns = messages as f64 * per_message_ns
        + interval.store_reads as f64 * read_ns
        + interval.store_writes as f64 * r.get("store.table.put_ns");
    explained_ns / 1e9 / cpu_s
}
