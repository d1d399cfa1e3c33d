//! `kvs-benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--out-dir D]`
//!
//! Runs one workload once, prints every metric with its unit, and ends
//! with the one-line JSON summary. Exit status 0 means the run completed
//! (the summary says whether it was correct); anything else means it did
//! not and no summary was printed.

use kvs_benchmark::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: kvs-benchmark --workload agg_fine|agg_coarse|point_mixed|sim_agg_fine \
                     --seed N [--seconds 20] [--trace 0|1] [--out-dir DIR]";

/// Scratch space beside the executable: inside the build directory, so
/// inside the checkout, wherever the benchmark was built.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("kvs-benchmark-out")))
        .unwrap_or_else(|| PathBuf::from("kvs-benchmark-out"))
}

fn parse_args(args: &[String], started: Instant) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| format!("--seconds {value}: want a number in (0, 3600]"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                };
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir: out_dir.unwrap_or_else(default_out_dir),
        started,
    })
}

fn main() -> ExitCode {
    // As near to the start of the process as a program can tell: set-up
    // time counts from here.
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args, started) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("kvs-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}  cores {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run(&cfg) {
        Ok(out) => {
            print!("{}", out.table());
            // The summary line may hold only the four keys the driver's
            // contract names, so the claim is stated on a line of its own.
            println!("claim null (this benchmark defines the baseline; it claims no gain)");
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kvs-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
