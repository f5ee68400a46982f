#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's metrics.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workloads fig5_regions,spmd4 --seeds 1-10 \
        --seconds 10 [--trace 0]

Runs `perfbench/run.py` once per (seed, workload), cycling through the
workloads for each seed so that host drift falls on every workload alike.
For every metric it prints the median and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = a.workloads.split(",")
    values = {w: {} for w in workloads}
    os.makedirs(".bench_out", exist_ok=True)
    log = open(os.path.join(".bench_out", "steady.jsonl"), "a")
    for seed in seeds(a.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace]
            t0 = time.monotonic()
            done = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last)
            if done.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: exit {done.returncode} {last}", file=sys.stderr)
            log.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall,
                                 "result": result}) + "\n")
            log.flush()
            for name, m in result.get("metrics", {}).items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} ({wall:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result.get("metrics", {}).items()),
                file=sys.stderr, flush=True)
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
            print(f"{w}/{name}: median {med:.6g} spread {spread:.4f}"
                  f" bound {bound} n={len(vals)}{flag}")


if __name__ == "__main__":
    main()
