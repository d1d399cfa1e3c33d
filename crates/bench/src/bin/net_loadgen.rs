//! net_loadgen — open-loop Poisson load over the TCP master/slave engine.
//!
//! Boots a loopback cluster (`kvs-net`), releases requests at exponential
//! inter-arrival times (an open-loop generator: arrivals don't wait for
//! completions), and reports per-request latency percentiles plus the
//! paper's four-stage breakdown for both codecs. Afterwards it calibrates
//! `t_msg` on this machine and re-runs the Figure 11 master-saturation
//! sweep with the *measured* constants instead of the paper's.
//!
//! Knobs (environment):
//! - `KVSCALE_NET_REQUESTS` — requests per codec run (default 4000)
//! - `KVSCALE_NET_RATE` — offered load, requests/second (default 4000)
//! - `KVSCALE_NET_NODES` — slave servers (default 4)
//!
//! Flags:
//! - `--chaos <schedule.toml>` — route every connection through a
//!   [`kvs_net::ChaosProxy`] running the given fault schedule (format in
//!   `docs/NET.md`), so the percentiles in `target/figures/` describe the
//!   degraded mode. Replication is raised to 2 so injected faults are
//!   survivable.
//!
//! Output: a table per codec and `target/figures/net_loadgen.csv`.

use kvs_bench::{banner, elements_from_env, fmt_ms, Csv};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Codec};
use kvs_model::limits::{master_crossover, master_limit_sweep};
use kvs_model::{DbModel, SystemModel};
use kvs_net::{
    calibrate_t_msg, spawn_local_cluster, wrap_cluster, ChaosSchedule, NetConfig, NetMaster,
    NetServerConfig,
};
use kvs_simcore::stats::percentile_sorted;
use kvs_stages::Stage;
use kvs_store::TableOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `--chaos <schedule.toml>` from argv; exits on a bad file.
fn chaos_from_args() -> Option<ChaosSchedule> {
    let args: Vec<String> = std::env::args().collect();
    let ix = args.iter().position(|a| a == "--chaos")?;
    let path = args.get(ix + 1).unwrap_or_else(|| {
        eprintln!("--chaos needs a schedule file argument");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read chaos schedule {path}: {e}");
        std::process::exit(2);
    });
    match ChaosSchedule::parse(&text) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bad chaos schedule {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let requests = env_u64("KVSCALE_NET_REQUESTS", 4_000).max(1) as usize;
    let rate_rps = env_f64("KVSCALE_NET_RATE", 4_000.0).max(1.0);
    let nodes = env_u64("KVSCALE_NET_NODES", 4).clamp(1, 64) as u32;
    let chaos = chaos_from_args();
    banner(
        "net_loadgen",
        "open-loop Poisson load on the TCP master/slave engine",
    );
    println!(
        "\n{requests} requests/codec at {rate_rps:.0} req/s over {nodes} loopback slave servers\n"
    );
    if let Some(s) = &chaos {
        println!(
            "chaos mode: seed {}, {} rule(s), blackhole {:?} — rf=2, degraded percentiles\n",
            s.seed,
            s.rules.len(),
            s.blackhole_from
        );
    }

    // One Poisson arrival process, shared by both codec runs so they see
    // identical offered load.
    let mut rng = StdRng::seed_from_u64(0xD8);
    let exp = Exp::new(rate_rps / 1e9).expect("positive rate"); // per-ns rate
    let mut arrivals_ns = Vec::with_capacity(requests);
    let mut t = 0.0f64;
    for _ in 0..requests {
        t += exp.sample(&mut rng);
        arrivals_ns.push(t as u64);
    }

    let mut csv = Csv::new(
        "net_loadgen",
        &[
            "codec",
            "requests",
            "offered_rps",
            "achieved_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "master_to_slave_ms",
            "in_queue_ms",
            "in_db_ms",
            "slave_to_master_ms",
            "busy_retries",
            "timeout_retries",
            "chaos",
            "faults_injected",
            "failovers",
        ],
    );

    for codec in [Codec::verbose(), Codec::compact()] {
        // Under chaos, replicate so injected faults are survivable and
        // shorten the failure-detection timeout so the run stays brisk.
        let rf = if chaos.is_some() {
            2.min(nodes as usize)
        } else {
            1
        };
        let data = ClusterData::load(
            nodes,
            rf,
            TableOptions::default(),
            uniform_partitions(1_024, 32, 4),
        );
        let (cluster, routes) =
            spawn_local_cluster(data, NetServerConfig::default()).expect("cluster boots");
        let mut proxies = Vec::new();
        let addrs = match &chaos {
            Some(schedule) => {
                let schedules = vec![schedule.clone(); cluster.len()];
                let (p, addrs) = wrap_cluster(&cluster.addrs(), schedules).expect("proxies boot");
                proxies = p;
                addrs
            }
            None => cluster.addrs(),
        };
        let net_cfg = NetConfig {
            codec,
            timeout: if chaos.is_some() {
                std::time::Duration::from_millis(250)
            } else {
                NetConfig::default().timeout
            },
            max_retries: if chaos.is_some() {
                3
            } else {
                NetConfig::default().max_retries
            },
            ..NetConfig::default()
        };
        let mut master = NetMaster::connect(&addrs, net_cfg).expect("master connects");

        let keys: Vec<_> = routes.iter().cycle().take(requests).cloned().collect();
        let report = master
            .run_with_arrivals(&keys, Some(&arrivals_ns))
            .expect("load run succeeds");
        master.shutdown();
        let mut faults_injected = 0u64;
        for p in proxies {
            let s = p.shutdown();
            faults_injected += s.delayed
                + s.dropped
                + s.duplicated
                + s.truncated
                + s.corrupted
                + s.disconnects
                + s.blackholed;
            assert_eq!(s.seq_regressions, 0, "master send sequence regressed");
        }
        let queue = cluster.shutdown();

        let mut latencies: Vec<f64> = report
            .result
            .traces
            .iter()
            .filter(|t| t.is_complete())
            .map(|t| t.total().as_millis_f64())
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let (p50, p95, p99) = (
            percentile_sorted(&latencies, 0.50),
            percentile_sorted(&latencies, 0.95),
            percentile_sorted(&latencies, 0.99),
        );
        let achieved_rps = requests as f64 / report.result.makespan.as_secs_f64().max(1e-9);

        println!(
            "{:?} codec: makespan {}  achieved {:.0} req/s  queue max depth {}  \
             retries {} busy / {} timeout",
            codec.kind,
            report.result.makespan,
            achieved_rps,
            queue.max_depth,
            report.busy_retries,
            report.timeout_retries,
        );
        if chaos.is_some() {
            println!(
                "    chaos: {} fault(s) injected, {} failover(s), retry wait {:.1} ms, \
                 suspected dead {:?}",
                faults_injected, report.failovers, report.retry_wait_ms, report.suspected_dead
            );
        }
        println!(
            "    latency p50 {}  p95 {}  p99 {}",
            fmt_ms(p50),
            fmt_ms(p95),
            fmt_ms(p99)
        );
        let mut stage_ms = [0.0f64; 4];
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            if let Some(stats) = report.result.report.per_stage_ms.get(&stage) {
                stage_ms[i] = stats.mean();
                println!(
                    "    {:>18}: mean {:>9.3} ms   max {:>9.3} ms",
                    stage.name(),
                    stats.mean(),
                    stats.max()
                );
            }
        }
        println!();
        csv.row(&[
            &format!("{:?}", codec.kind),
            &requests,
            &format!("{rate_rps:.0}"),
            &format!("{achieved_rps:.0}"),
            &format!("{p50:.4}"),
            &format!("{p95:.4}"),
            &format!("{p99:.4}"),
            &format!("{:.4}", stage_ms[0]),
            &format!("{:.4}", stage_ms[1]),
            &format!("{:.4}", stage_ms[2]),
            &format!("{:.4}", stage_ms[3]),
            &report.busy_retries,
            &report.timeout_retries,
            &(if chaos.is_some() { "on" } else { "off" }),
            &faults_injected,
            &report.failovers,
        ]);
    }

    // §V-B on this machine, then Figure 11 with the measured constants.
    println!("t_msg calibration (1 slave, 2000 messages):");
    let mut measured = None;
    for codec in [Codec::verbose(), Codec::compact()] {
        let cal = calibrate_t_msg(codec, 2_000).expect("calibration runs");
        println!(
            "    {:?}: t_msg {:>7.2} µs  (tx {:.2} + rx {:.2})",
            cal.codec,
            cal.t_msg_us(),
            cal.tx_us_per_msg,
            cal.rx_us_per_msg
        );
        measured = Some(cal);
    }
    let compact = measured.expect("compact calibration ran last");
    let model = SystemModel {
        master: compact.master_model(),
        db: DbModel::paper(),
        gc: None,
    };
    let node_counts: Vec<u64> = vec![1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256];
    let points = master_limit_sweep(&model, elements_from_env() as f64, &node_counts);
    println!("\nFigure 11 with the measured compact master:");
    println!(
        "{:>6} {:>13} {:>10} {:>10}  binding",
        "nodes", "optimal rows", "master", "total"
    );
    for p in &points {
        println!(
            "{:>6} {:>13} {:>10} {:>10}  {}",
            p.nodes,
            p.partitions,
            fmt_ms(p.master_ms),
            fmt_ms(p.total_ms),
            if p.master_bound() { "MASTER" } else { "db" }
        );
    }
    match master_crossover(&points) {
        Some(n) => println!("\nmeasured master overtakes the database at ≈{n} nodes"),
        None => println!("\nmeasured master never saturated in this sweep"),
    }
    csv.finish();
}
