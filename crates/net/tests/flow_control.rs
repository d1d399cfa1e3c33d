//! The credit window end to end: a slave advertises its work-queue
//! capacity in every `Busy`, the master remembers it per node and keeps
//! no more than that in flight there, and what the window does not admit
//! waits un-issued on a per-node ready list.
//!
//! A master learns a node's window from the first `Busy` the node sends
//! it, so every test first runs a query that floods a small queue — the
//! same flood `loopback::busy_backpressure_retries_and_still_answers_correctly`
//! relies on — and makes its claims about the queries after it.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::ClusterData;
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosDirection, ChaosRule, ChaosSchedule, FaultAction,
    NetConfig, NetMaster, NetServerConfig, QueryMode,
};
use kvs_store::TableOptions;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CELLS: u64 = 16;

fn data(nodes: u32, rf: usize, partitions: u64) -> ClusterData {
    data_of(nodes, rf, partitions, CELLS)
}

fn data_of(nodes: u32, rf: usize, partitions: u64, cells: u64) -> ClusterData {
    ClusterData::load(
        nodes,
        rf,
        TableOptions::default(),
        uniform_partitions(partitions, cells, 4),
    )
}

/// A queue small enough that the first, unthrottled query overruns it.
fn small_queue(depth: usize) -> NetServerConfig {
    NetServerConfig {
        workers_per_node: 1,
        queue_depth: depth,
    }
}

/// A schedule that holds every frame towards the master for `delay`, one
/// after the other: a node that answers slowly.
fn slow_answers(seed: u64, delay: Duration) -> ChaosSchedule {
    ChaosSchedule {
        seed,
        rules: vec![ChaosRule {
            direction: ChaosDirection::ToMaster,
            action: FaultAction::Delay(delay),
            probability: 1.0,
            after_frame: 0,
            until_frame: None,
        }],
        blackhole_from: None,
    }
}

#[test]
fn a_learned_window_sends_every_sub_request_once() {
    // The benchmark's `agg_fine` topology: 2 000 routes over 2 nodes, two
    // workers behind a depth-64 queue on each.
    let (cluster, routes) = spawn_local_cluster(
        data(2, 1, 2_000),
        NetServerConfig {
            workers_per_node: 2,
            queue_depth: 64,
        },
    )
    .expect("cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");

    // Whatever the first query pays in `Busy` while it learns — on one
    // core the master can out-send a slave that has not been scheduled
    // yet — it answers correctly.
    let first = master.run_query(&routes).expect("first query succeeds");
    assert_eq!(first.result.total_cells, 2_000 * CELLS);
    let learned = cluster.queue_stats();

    let second = master.run_query(&routes).expect("second query succeeds");
    assert_eq!(second.result.total_cells, 2_000 * CELLS);
    assert_eq!(second.busy_retries, 0, "a sub-request was sent twice");
    assert_eq!(second.timeout_retries, 0);
    master.shutdown();
    let stats = cluster.shutdown();
    assert_eq!(
        stats.busy_rejections, learned.busy_rejections,
        "the second query overran a queue whose capacity it knew"
    );
    assert!(stats.max_depth <= 64, "{stats:?}");
    assert_eq!(stats.pushed - learned.pushed, 2_000);
}

#[test]
fn a_full_node_does_not_hold_up_the_others() {
    // Node 0 answers through a proxy that holds each frame 2 ms; node 1
    // answers at once. With a window of 4, nearly all of node 0's share
    // waits for credit — and must not make node 1's share wait with it.
    let (cluster, routes) =
        spawn_local_cluster(data(2, 1, 160), small_queue(4)).expect("cluster boots");
    let schedules = vec![
        slow_answers(31, Duration::from_millis(2)),
        ChaosSchedule::passthrough(32),
    ];
    let (proxies, addrs) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies boot");
    let mut master = NetMaster::connect(&addrs, NetConfig::default()).expect("master connects");
    master.run_query(&routes).expect("learning query succeeds");

    let report = master.run_query(&routes).expect("query succeeds");
    assert_eq!(report.result.total_cells, 160 * CELLS);
    let slowest_ms = |node: u32| {
        report
            .result
            .traces
            .iter()
            .filter(|t| t.node == node)
            .map(|t| t.total().as_millis_f64())
            .fold(0.0, f64::max)
    };
    let share = routes.iter().filter(|r| r.replicas[0] == 0).count() as f64;
    // Node 0's last answer is behind `share` holds of 2 ms each.
    assert!(
        slowest_ms(0) >= share * 2.0,
        "node 0 was not slow: {:.1} ms for {share} routes",
        slowest_ms(0)
    );
    assert!(
        slowest_ms(1) < slowest_ms(0) / 4.0,
        "node 1 waited behind node 0: {:.1} ms against {:.1} ms",
        slowest_ms(1),
        slowest_ms(0)
    );
    master.shutdown();
    for p in proxies {
        assert_eq!(p.shutdown().seq_regressions, 0);
    }
    cluster.shutdown();
}

#[test]
fn routes_waiting_for_credit_obey_the_query_deadline() {
    // One node behind a window of 2 that answers a frame every 5 ms, and
    // a 60 ms budget for 80 routes: most of them are still waiting
    // un-issued when the budget runs out. They end as misses. Which and
    // how many frames go out is the dispatcher's, pinned in virtual time
    // by its test of the same name; over sockets the query must end well
    // inside 2 s with exact bookkeeping.
    let (cluster, routes) =
        spawn_local_cluster(data(1, 1, 80), small_queue(2)).expect("cluster boots");
    let (proxies, addrs) = wrap_cluster(
        &cluster.addrs(),
        vec![slow_answers(41, Duration::from_millis(5))],
    )
    .expect("proxies boot");
    let cfg = NetConfig {
        query_deadline: Some(Duration::from_millis(60)),
        mode: QueryMode::Degraded,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&addrs, cfg).expect("master connects");
    // The master learns the window from the first `Busy` it reads; on a
    // busy host a learning query may read answers alone.
    for _ in 0..5 {
        let learning = master.run_query(&routes).expect("learning query completes");
        if learning.busy_retries > 0 {
            break;
        }
    }
    let started = Instant::now();
    let report = master.run_query(&routes).expect("degraded mode completes");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the query outlived its budget by far: {:?}",
        started.elapsed()
    );
    let coverage = report.result.coverage;
    assert_eq!(coverage.total, 80);
    assert_eq!(
        report.missed.len() as u64,
        coverage.total - coverage.answered
    );
    assert_eq!(report.result.total_cells, coverage.answered * CELLS);
    master.shutdown();
    for p in proxies {
        p.shutdown();
    }
    cluster.shutdown();
}

#[test]
fn a_slow_store_answers_as_it_goes_under_a_deadline() {
    // One worker reading partitions that take it milliseconds each, all
    // 40 requests queued at once, and a budget of half what the whole
    // query takes: the answers the store produces inside the budget must
    // reach the master inside it, not wait on the slave for the queue
    // behind them to drain. The store streams a partition at memory
    // speed, some 14 ns a cell: 80 000 cells keep one read above a
    // millisecond, ten times the slave's reply hold.
    const BIG: u64 = 80_000;
    let (cluster, routes) =
        spawn_local_cluster(data_of(1, 1, 40, BIG), small_queue(64)).expect("cluster boots");
    let mut unhurried =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    unhurried
        .run_query(&routes)
        .expect("warm-up query succeeds");
    let started = Instant::now();
    let full = unhurried.run_query(&routes).expect("full query succeeds");
    let whole = started.elapsed();
    assert_eq!(full.result.total_cells, 40 * BIG);
    unhurried.shutdown();

    let cfg = NetConfig {
        query_deadline: Some(whole / 2),
        mode: QueryMode::Degraded,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&cluster.addrs(), cfg).expect("master connects");
    let report = master.run_query(&routes).expect("degraded mode completes");
    let coverage = report.result.coverage;
    assert_eq!(coverage.total, 40);
    // About half fit the budget; a slave that holds answers back until
    // its queue is empty delivers none of them in time.
    assert!(
        coverage.answered >= 5,
        "{} of 40 answered in {:?}, half of {whole:?}",
        coverage.answered,
        whole / 2
    );
    assert_eq!(report.result.total_cells, coverage.answered * BIG);
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn routes_waiting_for_credit_fail_over_when_their_node_dies() {
    let (mut cluster, routes) =
        spawn_local_cluster(data(2, 2, 120), small_queue(2)).expect("cluster boots");
    let mut master =
        NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
    master.run_query(&routes).expect("learning query succeeds");

    // The master finds out inside the query: node 0's share is on its
    // ready list, all but a window's worth un-issued, when the dropped
    // connection is noticed.
    cluster.kill(0);
    let report = master.run_query(&routes).expect("query survives the kill");
    assert!(report.result.coverage.is_complete());
    assert_eq!(report.result.total_cells, 120 * CELLS);
    let on_node_0 = routes.iter().filter(|r| r.replicas[0] == 0).count() as u64;
    assert_eq!(
        report.failovers, on_node_0,
        "one failover per stranded route"
    );
    assert_eq!(report.suspected_dead, vec![0]);
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn reconnect_forgets_the_learned_window() {
    let (mut cluster, routes) =
        spawn_local_cluster(data(1, 1, 64), small_queue(1)).expect("cluster boots");
    // Degraded, so that the query against the dead node below completes
    // (and takes note of the dropped connection) instead of failing.
    let cfg = NetConfig {
        mode: QueryMode::Degraded,
        ..NetConfig::default()
    };
    let mut master = NetMaster::connect(&cluster.addrs(), cfg).expect("master connects");
    let busy_retries = |master: &mut NetMaster| {
        let report = master.run_query(&routes).expect("query succeeds");
        assert_eq!(report.result.total_cells, 64 * CELLS);
        report.busy_retries
    };
    // On a busy host the slave can keep pace with a whole burst and refuse
    // nothing, while a master that knows the window is never refused: a
    // refusal within five queries tells an unknown window from a known one.
    let refused = |master: &mut NetMaster| (0..5).any(|_| busy_retries(master) > 0);
    assert!(refused(&mut master), "depth-1 queue never refused");
    assert_eq!(busy_retries(&mut master), 0, "window not learned");

    // The node dies and comes back as a new process, which could as well
    // have another queue: what the old one advertised no longer counts.
    cluster.kill(0);
    let dark = master.run_query(&routes).expect("degraded mode completes");
    assert_eq!(dark.result.coverage.answered, 0);
    let addr = cluster.restart(0).expect("node restarts");
    master.reconnect(0, addr).expect("slave accepts again");
    assert!(refused(&mut master), "window survived reconnect");
    assert_eq!(busy_retries(&mut master), 0, "window not learned again");
    master.shutdown();
    cluster.shutdown();
}

#[test]
fn two_masters_on_one_slave_fall_back_to_busy() {
    // Each master keeps within the window it learned, but the queue is
    // one and the masters are two: together they overrun it, and `Busy`
    // with back-off — the fallback — still gets every answer home.
    let (cluster, routes) =
        spawn_local_cluster(data(1, 1, 300), small_queue(4)).expect("cluster boots");
    let addrs = cluster.addrs();
    let start = Arc::new(Barrier::new(2));
    let masters: Vec<_> = (0..2)
        .map(|_| {
            let (addrs, routes, start) = (addrs.clone(), routes.clone(), start.clone());
            std::thread::spawn(move || {
                let mut master =
                    NetMaster::connect(&addrs, NetConfig::default()).expect("master connects");
                master.run_query(&routes).expect("learning query succeeds");
                start.wait();
                let report = master.run_query(&routes).expect("shared query succeeds");
                master.shutdown();
                report
            })
        })
        .collect();
    for m in masters {
        let report = m.join().expect("master thread");
        assert_eq!(report.result.total_cells, 300 * CELLS);
        assert_eq!(report.failovers, 0);
        assert!(report.suspected_dead.is_empty());
    }
    cluster.shutdown();
}
