#![warn(missing_docs)]

//! # kvs-benchmark
//!
//! The repository's one benchmark. It applies the paper's own method to
//! the reproduction: run a workload end to end, split every request into
//! its stages, time each layer alone, and say how much of the whole the
//! layers explain.
//!
//! One run is one workload ([`Workload`]) on inputs made from one seed
//! ([`gen`]). An untraced run reports the four end-to-end metrics; a
//! traced run reports the per-layer ones — stage means and counters read
//! from the program's public reports, the isolated [`rungs`], process
//! counters from [`proc`] — and writes its spans ([`trace`]) to
//! `trace.json`. `BENCHMARK.json` at the repository root names every
//! metric; `README.md` beside this crate says which layer should move
//! which metric on which workload.
//!
//! The benchmark measures from outside only: it times calls into public
//! functions and reads public reports. It runs the program on one core
//! that it keeps from idling ([`host`] says why). It claims no gain.

pub mod gen;
pub mod host;
pub mod proc;
pub mod report;
pub mod rungs;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use report::{Metric, Metrics, RunOutput};
pub use workloads::Workload;

use host::KeepAwake;
use stats::{median, quantile, slices};
use std::io;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{Interval, World};

/// Slices the measured interval is cut into; `throughput_ops_s` and
/// `latency_p50_ms` are quartiles over them (see [`stats::slices`]).
pub const SLICES: usize = 30;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured interval, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where `trace.json` and the durable tier's files go.
    pub out_dir: PathBuf,
    /// When the process started; `setup_s` counts from here.
    pub started: Instant,
}

/// Runs the benchmark once, printing progress and breakdowns for people
/// on standard output as it goes; the caller prints the result. Confines
/// the calling thread and all it starts to one core (see [`host`]), so it
/// is to be called from the thread the process began with.
pub fn run(cfg: &RunConfig) -> io::Result<RunOutput> {
    let core = host::pin_to_one_core();
    let awake = KeepAwake::start();
    println!(
        "pinned to core {core:?}  idle-priority spinners {}",
        awake.spinners()
    );
    std::fs::create_dir_all(&cfg.out_dir)?;
    if cfg.trace {
        run_traced(cfg, &awake)
    } else {
        run_untraced(cfg)
    }
}

fn print_span_totals(tracer: &Tracer) {
    println!(
        "{:<20} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<20} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn run_untraced(cfg: &RunConfig) -> io::Result<RunOutput> {
    let mut tracer = Tracer::new();
    let mut world = World::set_up(cfg.workload, cfg.seed, &cfg.out_dir, &mut tracer)?;
    let setup_s = cfg.started.elapsed().as_secs_f64();
    let iv = world.measure(cfg.seconds, None);
    let correct = world.finish() && iv.failed == 0;

    print_span_totals(&tracer);
    let latencies_ms = iv.latencies_ms();
    let per_slice = slices(&iv.units, iv.wall_s, SLICES);
    let throughputs: Vec<f64> = per_slice.iter().map(|s| s.throughput).collect();
    let p50s_ms: Vec<f64> = per_slice.iter().map(|s| s.p50_ms).collect();
    println!(
        "units {}  whole interval: {:.1} ops/s  p50 {:.3}  p90 {:.3}  p99 {:.3} ms",
        latencies_ms.len(),
        iv.subrequests as f64 / iv.wall_s,
        median(&latencies_ms),
        quantile(&latencies_ms, 0.90),
        quantile(&latencies_ms, 0.99),
    );
    println!("ops/s by slice {throughputs:.0?}");
    println!("p50 ms by slice {p50s_ms:.3?}");
    if !iv.late_ms.is_empty() {
        println!(
            "generator late  p50 {:.4}  p99 {:.4} ms",
            median(&iv.late_ms),
            quantile(&iv.late_ms, 0.99)
        );
    }
    // An open loop's rate is its schedule's: a slice above it is a backlog
    // draining, not the system running faster.
    let throughput = match cfg.workload {
        Workload::PointMixed => iv.subrequests as f64 / iv.wall_s,
        _ => quantile(&throughputs, 0.75),
    };
    let mut metrics = Metrics::default();
    metrics.push("setup_s", "s", setup_s);
    metrics.push("throughput_ops_s", "1/s", throughput);
    metrics.push("latency_p50_ms", "ms", quantile(&p50s_ms, 0.25));
    metrics.push("peak_rss_mib", "MiB", proc::peak_rss_mib());
    Ok(RunOutput {
        correct,
        attempted: iv.attempted,
        failed: iv.failed,
        metrics,
    })
}

fn run_traced(cfg: &RunConfig, awake: &KeepAwake) -> io::Result<RunOutput> {
    let rungs = rungs::run_all(cfg.seed, &cfg.out_dir)?;
    let mut tracer = Tracer::new();
    // Half the interval untraced, half traced, on one warmed-up system:
    // the difference between their medians is what tracing costs.
    let half = cfg.seconds / 2.0;
    let mut world = World::set_up(cfg.workload, cfg.seed, &cfg.out_dir, &mut tracer)?;
    let plain = world.measure(half, None);

    // The spinner's CPU time and context switches are the benchmark's own,
    // as is the time the paced generator spins.
    let cpu_now = || proc::cpu_seconds() - awake.cpu_seconds();
    let ctx_now = || proc::ctx_switches().saturating_sub(awake.ctx_switches());
    let cpu_before = cpu_now();
    let ctx_before = ctx_now();
    let alloc_before = proc::alloc_counts();
    let iv = world.measure(half, Some(&mut tracer));
    let alloc_after = proc::alloc_counts();
    let cpu_s = cpu_now() - cpu_before - iv.generator_spin_s;
    let ctx = ctx_now().saturating_sub(ctx_before);

    let correct = world.finish() && plain.failed + iv.failed == 0;
    let trace_path = cfg.out_dir.join("trace.json");
    tracer.write_json(&trace_path)?;
    print_span_totals(&tracer);
    println!(
        "{} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    );

    let mut metrics = layer_metrics(&iv);
    let ops = iv.subrequests as f64;
    metrics.push("proc.cpu_us_per_op", "us", cpu_s * 1e6 / ops);
    metrics.push("proc.ctx_switches_per_op", "count", ctx as f64 / ops);
    metrics.push(
        "alloc.count_per_op",
        "count",
        (alloc_after.0 - alloc_before.0) as f64 / ops,
    );
    metrics.push(
        "alloc.bytes_per_op",
        "B",
        (alloc_after.1 - alloc_before.1) as f64 / ops,
    );
    metrics.push(
        "trace.overhead_frac",
        "1",
        median(&iv.latencies_ms()) / median(&plain.latencies_ms()) - 1.0,
    );
    metrics.push(
        "ladder.cpu_explained_frac",
        "1",
        rungs::cpu_explained_frac(cfg.workload, &iv, cpu_s, &rungs),
    );
    metrics.0.extend(rungs.0);
    Ok(RunOutput {
        correct,
        attempted: plain.attempted + iv.attempted,
        failed: plain.failed + iv.failed,
        metrics,
    })
}

/// The per-layer metrics that come from the program's own reports. One
/// that does not apply to a workload — stage stamps of a point operation,
/// sockets of the simulator — reads 0.
fn layer_metrics(iv: &Interval) -> Metrics {
    let mut m = Metrics::default();
    let n = iv.stage_n as f64;
    m.push("stage.master_to_slave_ms", "ms", iv.stage_sum_ms[0] / n);
    m.push("stage.in_queue_ms", "ms", iv.stage_sum_ms[1] / n);
    m.push("stage.in_db_ms", "ms", iv.stage_sum_ms[2] / n);
    m.push("stage.slave_to_master_ms", "ms", iv.stage_sum_ms[3] / n);
    let (msgs, ops) = (iv.messages as f64, iv.subrequests as f64);
    m.push("net.master.tx_us_per_msg", "us", iv.tx_us as f64 / msgs);
    m.push("net.master.rx_us_per_msg", "us", iv.rx_us as f64 / msgs);
    m.push(
        "net.master.busy_retries_per_op",
        "count",
        iv.busy_retries as f64 / ops,
    );
    m.push(
        "net.master.timeout_retries",
        "count",
        iv.timeout_retries as f64,
    );
    m.push("net.master.failovers", "count", iv.failovers as f64);
    let offered = (iv.queue.pushed + iv.queue.busy_rejections) as f64;
    m.push(
        "net.server.queue_rejected_frac",
        "1",
        iv.queue.busy_rejections as f64 / offered,
    );
    m.push(
        "net.server.queue_max_depth",
        "count",
        iv.queue.max_depth as f64,
    );
    m.push("net.wire_bytes_per_op", "B", iv.wire_bytes as f64 / ops);
    m.push("net.write_path.read_p50_ms", "ms", median(&iv.read_ms));
    m.push("net.write_path.write_p50_ms", "ms", median(&iv.write_ms));
    m.push("net.write_path.stale_reads", "count", iv.stale_reads as f64);
    m.push(
        "net.write_path.read_repairs",
        "count",
        iv.read_repairs as f64,
    );
    m.push("gen.late_p99_ms", "ms", quantile(&iv.late_ms, 0.99));
    let latencies_ms = iv.latencies_ms();
    m.push("e2e.latency_p90_ms", "ms", quantile(&latencies_ms, 0.90));
    m.push("e2e.latency_p99_ms", "ms", quantile(&latencies_ms, 0.99));
    m
}
