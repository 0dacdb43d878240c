#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs the command BENCHMARK.json names, --runs times per workload with a
different --seed each time, and prints for every end-to-end metric its
median and its spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's regression bound. With --sets N it repeats that N times
back to back and also prints how far each later set's median moved from
the first. Raw values go to --out as JSON. Run from the repository root:

    python3 cmd/chameleon-bench/spread.py --sets 2 --out cmd/chameleon-bench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_set(bench, workloads, runs, first_seed):
    values = {}
    for wl in workloads:
        values[wl] = {}
        for i in range(runs):
            args = bench["command"] + ["--workload", wl, "--seed", str(first_seed + i),
                                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(args, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{wl} seed {first_seed + i}: exit {p.returncode}\n{p.stderr[-4000:]}")
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {first_seed + i}: {res['failed']} of {res['attempted']} operations failed")
            for name, m in res["metrics"].items():
                values[wl].setdefault(name, []).append(m["value"])
            for line in lines:
                f = line.split()
                if len(f) > 2 and f[1] == "host_factor":
                    values[wl].setdefault("host_factor", []).append(float(f[2]))
    return values


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def worse(m, base, now):
    """Share by which now is worse than base under the metric's direction."""
    return (now - base) / base if m["better"] == "lower" else (base - now) / base


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="back-to-back sets")
    ap.add_argument("--workload", action="append", help="restrict to a workload (repeatable)")
    ap.add_argument("--out", help="write the raw values here as JSON")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(a.sets):
        start = time.time()
        sets.append(run_set(bench, workloads, a.runs, 1000 * (s + 1)))
        print(f"set {s + 1}: {time.time() - start:.0f} s", flush=True)
        for wl in workloads:
            for m in bench["end_to_end"]:
                vals = sets[-1][wl][m["name"]]
                line = (f"  {wl:14s} {m['name']:18s} median {statistics.median(vals):12.4f} "
                        f"spread {spread(vals):6.3f} bound {m['bound']}")
                if s > 0:
                    line += f" worse-than-set-1 {worse(m, statistics.median(sets[0][wl][m['name']]), statistics.median(vals)):+.3f}"
                print(line, flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"num_cpu": os.cpu_count(), "machine": platform.machine(),
                       "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
                       "run_seconds": bench["run_seconds"], "runs_per_set": a.runs, "sets": sets}, f, indent=1)


if __name__ == "__main__":
    main()
