//! Clean-shutdown check: booting and tearing down a cluster + master must
//! return the process to its original thread count. Lives in its own test
//! binary (= its own process) so no sibling test's threads pollute the
//! count.
//!
//! Threads are counted from `/proc/self/task`, and only those that still
//! have an address space. A joined thread may still be listed there for a
//! moment after `join` returns: its exit releases its memory map — which
//! is what wakes the joiner — before the kernel takes it out of the thread
//! group, and `Threads:` in `/proc/self/status` counts it until then. Such
//! a task has a virtual size of zero; a thread that is still running, or
//! parked for ever, shares the process's map and is counted.

use kvs_cluster::data::uniform_partitions;
use kvs_cluster::ClusterData;
use kvs_net::{spawn_local_cluster, NetConfig, NetMaster, NetServerConfig};
use kvs_store::TableOptions;

/// Every task of this process as `(stat line, has an address space)`. A
/// task that leaves between the directory read and its `stat` is skipped.
fn tasks() -> Vec<(String, bool)> {
    let dir = std::fs::read_dir("/proc/self/task").expect("procfs available");
    dir.flatten()
        .filter_map(|entry| std::fs::read_to_string(entry.path().join("stat")).ok())
        .map(|stat| {
            // `pid (comm) state ...`: the command name may hold spaces and
            // parentheses, so fields are counted from the last `)`. The
            // virtual size is field 23, the 21st after the name.
            let after_name = stat.rfind(')').map_or("", |at| &stat[at + 1..]);
            let vsize = after_name.split_whitespace().nth(20);
            let mapped = vsize.is_some_and(|v| v != "0");
            (stat.trim_end().to_string(), mapped)
        })
        .collect()
}

/// Threads that still have an address space.
fn thread_count() -> usize {
    tasks().iter().filter(|(_, mapped)| *mapped).count()
}

/// Every task's stat line, for the failure message.
fn dump() -> String {
    tasks()
        .iter()
        .map(|(stat, mapped)| format!("{} {stat}\n", if *mapped { "live" } else { "gone" }))
        .collect()
}

#[test]
fn shutdown_leaks_no_threads() {
    let before = thread_count();
    for round in 0..3 {
        let data = ClusterData::load(4, 1, TableOptions::default(), uniform_partitions(32, 8, 4));
        let (cluster, routes) =
            spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
        let mut master =
            NetMaster::connect(&cluster.addrs(), NetConfig::default()).expect("master connects");
        let report = master.run_query(&routes).expect("query succeeds");
        assert_eq!(report.result.total_cells, 32 * 8, "round {round}");
        assert!(thread_count() > before, "servers must actually run threads");
        master.shutdown();
        cluster.shutdown();
        let after = thread_count();
        assert_eq!(
            after,
            before,
            "threads leaked after round {round}; every task of the process:\n{}",
            dump()
        );
    }
}
