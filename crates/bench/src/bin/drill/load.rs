//! `drill load`: open-loop Poisson load over the TCP master/slave engine.
//!
//! Requests are released at exponential inter-arrival times (arrivals do
//! not wait for completions) for both codecs, and per-request latency
//! quantiles plus the paper's four-stage breakdown are reported. Then
//! `t_msg` is calibrated on this machine and the Figure 11
//! master-saturation sweep re-run with the *measured* constants instead
//! of the paper's.
//!
//! Under `--chaos` every connection goes through a proxy running the
//! given schedule, so the quantiles describe the degraded mode;
//! replication is raised to 2 so injected faults are survivable.

use super::{field, stage_line, stages_ms, Rig};
use kvs_bench::json::{int, latency_summary_ms, num, obj, s, Value};
use kvs_bench::{fmt_ms, PAPER_ELEMENTS};
use kvs_cluster::data::uniform_partitions;
use kvs_cluster::{ClusterData, Codec};
use kvs_model::limits::{master_crossover, master_limit_sweep};
use kvs_model::{DbModel, SystemModel};
use kvs_net::{calibrate_t_msg, ChaosSchedule, NetConfig};
use kvs_store::TableOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};
use std::time::Duration;

const REQUESTS: usize = 4_000;
const RATE_RPS: f64 = 4_000.0;
const NODES: u32 = 4;
const PARTITIONS: u64 = 1_024;
const CELLS: u64 = 32;
const ARRIVAL_SEED: u64 = 0xD8;
const CALIBRATION_MESSAGES: u64 = 2_000;
const SWEEP_NODES: [u64; 13] = [1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256];

/// One codec's run at the shared arrival schedule.
fn codec_run(codec: Codec, arrivals_ns: &[u64], chaos: Option<&ChaosSchedule>) -> Value {
    // Under chaos, replicate so injected faults are survivable and
    // shorten the failure-detection timeout so the run stays brisk.
    let rf = if chaos.is_some() { 2 } else { 1 };
    let data = ClusterData::load(
        NODES,
        rf,
        TableOptions::default(),
        uniform_partitions(PARTITIONS, CELLS, 4),
    );
    let defaults = NetConfig::default();
    let cfg = NetConfig {
        codec,
        timeout: chaos.map_or(defaults.timeout, |_| Duration::from_millis(250)),
        max_retries: chaos.map_or(defaults.max_retries, |_| 3),
        ..defaults
    };
    let schedules = chaos.map(|s| vec![s.clone(); NODES as usize]);
    let mut rig = Rig::boot(data, schedules, cfg);
    let keys: Vec<_> = rig.routes.iter().cycle().take(REQUESTS).cloned().collect();
    let report = rig
        .master
        .run_with_arrivals(&keys, Some(arrivals_ns))
        .expect("load run succeeds");
    let (queue, c) = rig.teardown();
    let faults = [c.delayed, c.dropped, c.duplicated, c.truncated, c.corrupted];
    let faults_injected = faults.iter().sum::<u64>() + c.disconnects + c.blackholed;

    let completed: Vec<f64> = report
        .result
        .traces
        .iter()
        .filter(|t| t.is_complete())
        .map(|t| t.total().as_millis_f64())
        .collect();
    let latency = latency_summary_ms(&completed);
    let achieved_rps = REQUESTS as f64 / report.result.makespan.as_secs_f64().max(1e-9);
    let stages = stages_ms(&report.result.report);
    println!(
        "{:?} codec: makespan {}  achieved {achieved_rps:.0} req/s  queue max depth {}  \
         retries {} busy / {} timeout",
        codec.kind,
        report.result.makespan,
        queue.max_depth,
        report.busy_retries,
        report.timeout_retries,
    );
    if chaos.is_some() {
        println!(
            "    chaos: {faults_injected} fault(s) injected, {} failover(s), \
             retry wait {:.1} ms, suspected dead {:?}",
            report.failovers, report.retry_wait_ms, report.suspected_dead
        );
    }
    println!(
        "    latency p50 {}  p95 {}  p99 {}\n    {}",
        fmt_ms(field(&latency, "p50_ms")),
        fmt_ms(field(&latency, "p95_ms")),
        fmt_ms(field(&latency, "p99_ms")),
        stage_line(&stages)
    );
    obj(vec![
        ("codec", s(&format!("{:?}", codec.kind))),
        ("requests", int(REQUESTS as u64)),
        ("offered_rps", num(RATE_RPS)),
        ("achieved_rps", num(achieved_rps)),
        ("latency", latency),
        ("stages_ms", stages),
        ("busy_retries", int(report.busy_retries)),
        ("timeout_retries", int(report.timeout_retries)),
        ("chaos", Value::Bool(chaos.is_some())),
        ("faults_injected", int(faults_injected)),
        ("failovers", int(report.failovers)),
        ("retry_wait_ms", num(report.retry_wait_ms)),
        ("queue_max_depth", int(queue.max_depth as u64)),
    ])
}

/// Runs both codecs, the calibration and the sweep; returns the
/// scenario's config and results.
pub fn run(chaos: Option<&ChaosSchedule>) -> (Value, Value) {
    println!(
        "{REQUESTS} requests/codec at {RATE_RPS:.0} req/s over {NODES} loopback slave servers"
    );
    if let Some(s) = chaos {
        println!(
            "chaos mode: seed {}, {} rule(s), blackhole {:?} — rf = 2, degraded percentiles",
            s.seed,
            s.rules.len(),
            s.blackhole_from
        );
    }
    // One Poisson arrival process, shared by both codec runs so they see
    // identical offered load.
    let mut rng = StdRng::seed_from_u64(ARRIVAL_SEED);
    let exp = Exp::new(RATE_RPS / 1e9).expect("positive rate"); // per-ns rate
    let mut t = 0.0f64;
    let arrivals_ns: Vec<u64> = (0..REQUESTS)
        .map(|_| {
            t += exp.sample(&mut rng);
            t as u64
        })
        .collect();
    let runs = [Codec::verbose(), Codec::compact()]
        .into_iter()
        .map(|codec| codec_run(codec, &arrivals_ns, chaos))
        .collect();

    // §V-B on this machine, then Figure 11 with the measured constants.
    println!("t_msg calibration (1 slave, {CALIBRATION_MESSAGES} messages):");
    let cals: Vec<_> = [Codec::verbose(), Codec::compact()]
        .into_iter()
        .map(|codec| calibrate_t_msg(codec, CALIBRATION_MESSAGES).expect("calibration runs"))
        .collect();
    for cal in &cals {
        println!(
            "    {:?}: t_msg {:>7.2} µs  (tx {:.2} + rx {:.2})",
            cal.codec,
            cal.t_msg_us(),
            cal.tx_us_per_msg,
            cal.rx_us_per_msg
        );
    }
    let model = SystemModel {
        master: cals[1].master_model(),
        db: DbModel::paper(),
        gc: None,
    };
    let points = master_limit_sweep(&model, PAPER_ELEMENTS as f64, &SWEEP_NODES);
    let crossover = master_crossover(&points);
    match crossover {
        Some(n) => {
            println!("Figure 11, measured compact master: it overtakes the database at ≈{n} nodes")
        }
        None => println!("Figure 11, measured compact master: it never saturates in the sweep"),
    }

    let config = obj(vec![
        ("requests", int(REQUESTS as u64)),
        ("offered_rps", num(RATE_RPS)),
        ("nodes", int(NODES.into())),
        ("partitions", int(PARTITIONS)),
        ("cells", int(CELLS)),
        ("arrival_seed", int(ARRIVAL_SEED)),
        (
            "chaos",
            chaos.map_or(Value::Null, |s| {
                obj(vec![
                    ("seed", int(s.seed)),
                    ("rules", int(s.rules.len() as u64)),
                    (
                        "blackhole_from_ms",
                        s.blackhole_from
                            .map_or(Value::Null, |d| num(d.as_secs_f64() * 1e3)),
                    ),
                ])
            }),
        ),
        ("calibration_messages", int(CALIBRATION_MESSAGES)),
        ("elements", int(PAPER_ELEMENTS)),
    ]);
    let calibration = cals
        .iter()
        .map(|cal| {
            obj(vec![
                ("codec", s(&format!("{:?}", cal.codec))),
                ("messages", int(cal.messages)),
                ("tx_us_per_msg", num(cal.tx_us_per_msg)),
                ("rx_us_per_msg", num(cal.rx_us_per_msg)),
                ("t_msg_us", num(cal.t_msg_us())),
            ])
        })
        .collect();
    let sweep = points
        .iter()
        .map(|p| {
            obj(vec![
                ("nodes", int(p.nodes)),
                ("partitions", int(p.partitions)),
                ("master_ms", num(p.master_ms)),
                ("slave_ms", num(p.slave_ms)),
                ("total_ms", num(p.total_ms)),
                ("master_bound", Value::Bool(p.master_bound())),
            ])
        })
        .collect();
    let results = obj(vec![
        ("runs", Value::Arr(runs)),
        ("calibration", Value::Arr(calibration)),
        ("fig11_measured", Value::Arr(sweep)),
        ("crossover_nodes", crossover.map_or(Value::Null, int)),
    ]);
    (config, results)
}
