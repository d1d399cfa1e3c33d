#!/usr/bin/env python3
"""Run-to-run noise of the benchmark, measured the way the driver measures it.

    python3 benchmark/noise.py [--sets 2] [--runs 10] > benchmark/NOISE.md

Reads BENCHMARK.json, runs its command untraced for its run_seconds on every
workload, the sets and the workloads taking turns so that every set sees the
same machine phases, each run with a seed of its own, and prints for each
workload and end-to-end metric:

  * each set's median and its spread, which is the distance between the
    first and third quartile (statistics.quantiles, n=4) over the median;
  * how far the worst single run lies from its set's median;
  * by how much a later set's median differs from the first's (+ is worse);
  * PASS when every spread is within the metric's bound, every single run
    is within the bound of its set's median, and the sets' medians differ
    by less than half the bound; FAIL otherwise.

A FAIL means the benchmark cannot resolve a change of the size of the bound
in that metric on that workload on this machine: a comparison there has to
be reported as unresolved, not as unchanged. A bound may be widened only on
the evidence of this table. Exit status 1 if any row fails.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    if not summary["correct"] or summary["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {summary}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list over runs
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    seed = 1000
    started = datetime.datetime.now()
    # Sets take turns run by run, so that each sees the same machine phases.
    for r in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed += 1
                got = run_once(spec["command"], w, seed, seconds)
                for m in metrics:
                    values[s][w][m["name"]].append(got[m["name"]])
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      + "  ".join(f"{k}={v:.5g}" for k, v in got.items()),
                      file=sys.stderr)

    print("# Run-to-run noise of the benchmark\n")
    print(f"`python3 benchmark/noise.py --sets {args.sets} --runs {args.runs}` on "
          f"{started:%Y-%m-%d}, {os.cpu_count()} cores, {seconds} s measured per run, "
          "identical code throughout, a different seed every run, workloads interleaved.\n")
    print("spread = (Q3 - Q1) / median over a set's runs; worst run = largest distance of "
          "one run from its set's median; shift = by how much the later set's median is worse "
          "than the first's (negative: better). PASS: every spread within the bound, every "
          "run within the bound of its set's median, and |shift| under half the bound. "
          "FAIL: a change of the size of the bound cannot be resolved there on this machine.\n")
    print("| workload | metric | bound | set medians | spreads | worst run | shift | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    failed = False
    for w in workloads:
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            sets = [values[s][w][name] for s in range(args.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worst = max(abs(x - med) / med for v, med in zip(sets, medians) for x in v)
            shifts = [worse_by(medians[0], med, better) for med in medians[1:]]
            ok = (all(x <= bound for x in spreads) and worst < bound
                  and all(abs(x) < bound / 2 for x in shifts))
            failed |= not ok
            print(f"| {w} | {name} | {bound} | "
                  + " / ".join(f"{x:.5g}" for x in medians) + " | "
                  + " / ".join(f"{x:.1%}" for x in spreads) + " | "
                  + f"{worst:.1%} | "
                  + (" / ".join(f"{x:+.1%}" for x in shifts) or "-") + " | "
                  + ("PASS" if ok else "FAIL") + " |")
    print("\n## Every run\n")
    print("| workload | metric | " + " | ".join(f"set {s + 1}" for s in range(args.sets)) + " |")
    print("|---|---|" + "---|" * args.sets)
    for w in workloads:
        for m in metrics:
            cells = [" ".join(f"{x:.5g}" for x in values[s][w][m["name"]])
                     for s in range(args.sets)]
            print(f"| {w} | {m['name']} | " + " | ".join(cells) + " |")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
