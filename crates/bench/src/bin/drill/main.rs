//! drill — the sockets-versus-simulator checks as one fixed suite.
//!
//! Usage: `drill [chaos|consistency|workloads|load]... [--chaos <schedule.toml>]`
//!
//! Each scenario runs one request shape over loopback sockets and through
//! `cluster::sim` and holds the two against each other: `chaos` (failover
//! and hedging), `consistency` (the write path's ONE/QUORUM/ALL grid),
//! `workloads` (the YCSB mixes and the surrogate DHT) and `load`
//! (open-loop load, `t_msg` calibration and the measured Figure 11).
//! `--chaos` puts a [`kvs_net::ChaosProxy`] running the given schedule
//! (format in `docs/NET.md`) in front of every `load` connection. With no
//! scenario argument all four run.
//!
//! Every scenario has one fixed size and the drill reads no environment
//! variable, so two runs are comparable. Every cluster comes from one
//! [`Rig`], whose teardown asserts that no proxy saw the master's send
//! sequence regress. The run writes one report,
//! `target/figures/BENCH_drill.json`, whose `config` and `results` objects
//! are keyed by scenario. Every check is fatal: a failed invariant, or a
//! report that does not validate and round-trip through its text, exits
//! non-zero.

mod chaos;
mod consistency;
mod load;
mod workloads;

use kvs_bench::json::{self, num, obj, Value};
use kvs_cluster::{ClusterData, QueueStats};
use kvs_net::{
    spawn_local_cluster, wrap_cluster, ChaosProxy, ChaosSchedule, ChaosStats, LocalCluster,
    NetConfig, NetMaster, NetServerConfig, Route,
};
use kvs_stages::{Stage, StageReport};

const SCENARIOS: [&str; 4] = ["chaos", "consistency", "workloads", "load"];
const USAGE: &str = "usage: drill [chaos|consistency|workloads|load]... [--chaos <schedule.toml>]";

fn main() {
    let (scenarios, schedule) = parse_args(std::env::args().skip(1));
    let mut config = Vec::new();
    let mut results = Vec::new();
    for name in scenarios {
        kvs_bench::banner(&format!("drill {name}"), "sockets vs simulator");
        let (c, r) = match name {
            "chaos" => chaos::run(),
            "consistency" => consistency::run(),
            "workloads" => workloads::run(),
            _ => load::run(schedule.as_ref()),
        };
        config.push((name, c));
        results.push((name, r));
        println!();
    }
    json::write_report(&json::report("drill", obj(config), obj(results)))
        .expect("write BENCH_drill.json");
}

/// The scenarios to run, in suite order, and the `--chaos` schedule.
/// Exits 2 on an unknown argument or an unreadable schedule.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> (Vec<&'static str>, Option<ChaosSchedule>) {
    let mut picked = [false; SCENARIOS.len()];
    let mut schedule = None;
    while let Some(arg) = args.next() {
        if arg == "--chaos" {
            let path = args
                .next()
                .unwrap_or_else(|| usage_error("--chaos needs a schedule file argument"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                usage_error(&format!("cannot read chaos schedule {path}: {e}"))
            });
            schedule = Some(
                ChaosSchedule::parse(&text)
                    .unwrap_or_else(|e| usage_error(&format!("bad chaos schedule {path}: {e}"))),
            );
        } else if let Some(i) = SCENARIOS.iter().position(|s| *s == arg) {
            picked[i] = true;
        } else {
            usage_error(&format!("unknown scenario {arg:?}\n{USAGE}"));
        }
    }
    let all = !picked.contains(&true);
    let scenarios = SCENARIOS
        .into_iter()
        .zip(picked)
        .filter_map(|(name, p)| (all || p).then_some(name))
        .collect();
    (scenarios, schedule)
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A loopback cluster under test: the slave servers, the chaos proxies in
/// front of them (if any), a connected master and the routed key list.
struct Rig {
    cluster: LocalCluster,
    proxies: Vec<ChaosProxy>,
    master: NetMaster,
    routes: Vec<Route>,
}

impl Rig {
    /// Boots one slave per node of `data`, one proxy per node when
    /// `schedules` is given, and a master connected through them.
    fn boot(data: ClusterData, schedules: Option<Vec<ChaosSchedule>>, cfg: NetConfig) -> Rig {
        let (cluster, routes) =
            spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
        let (proxies, addrs) = match schedules {
            Some(s) => wrap_cluster(&cluster.addrs(), s).expect("proxies boot"),
            None => (Vec::new(), cluster.addrs()),
        };
        let master = NetMaster::connect(&addrs, cfg).expect("master connects");
        Rig {
            cluster,
            proxies,
            master,
            routes,
        }
    }

    /// Stops the master, the proxies and the slaves; returns the merged
    /// queue stats and the proxies' summed stats.
    ///
    /// # Panics
    /// If any proxy saw the master's send sequence regress.
    fn teardown(self) -> (QueueStats, ChaosStats) {
        self.master.shutdown();
        let mut sum = ChaosStats::default();
        for p in self.proxies {
            let s = p.shutdown();
            sum.frames_seen += s.frames_seen;
            sum.forwarded += s.forwarded;
            sum.delayed += s.delayed;
            sum.dropped += s.dropped;
            sum.duplicated += s.duplicated;
            sum.truncated += s.truncated;
            sum.corrupted += s.corrupted;
            sum.disconnects += s.disconnects;
            sum.blackholed += s.blackholed;
            sum.seq_regressions += s.seq_regressions;
        }
        assert_eq!(sum.seq_regressions, 0, "master send sequence regressed");
        (self.cluster.shutdown(), sum)
    }
}

/// Mean milliseconds per stage, as `{master_to_slave, in_queue, in_db,
/// slave_to_master}`; a stage no request reached reads 0.
fn stages_ms(report: &StageReport) -> Value {
    let mean = |stage| report.per_stage_ms.get(&stage).map_or(0.0, |s| s.mean());
    obj(vec![
        ("master_to_slave", num(mean(Stage::MasterToSlave))),
        ("in_queue", num(mean(Stage::InQueue))),
        ("in_db", num(mean(Stage::InDb))),
        ("slave_to_master", num(mean(Stage::SlaveToMaster))),
    ])
}

/// A [`stages_ms`] object as one log line.
fn stage_line(stages: &Value) -> String {
    let f = |key| field(stages, key);
    format!(
        "stages m→s {:.3} / queue {:.3} / db {:.3} / s→m {:.3} ms",
        f("master_to_slave"),
        f("in_queue"),
        f("in_db"),
        f("slave_to_master")
    )
}

/// A number field of a report object (a latency summary, a stage table).
fn field(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("report object has no number {key:?}"))
}
