#!/usr/bin/env bash
# Builds the benchmark, runs its tests (which include a one-second traced
# and untraced run of every workload, checked against BENCHMARK.json), and
# prints one untraced summary per workload. For a CI lane to call.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline
for workload in agg_fine agg_coarse point_mixed sim_agg_fine; do
    cargo run --release --offline --quiet -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1
done
