#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json several times on one
workload, each run with another seed, and prints for every end-to-end
metric its median and the distance between the first and third quartiles
as a share of the median (the spread the metric's bound is judged
against), next to a third of the bound. The run time as measured,
before scaling to the reference host speed, is shown beside the scaled
metrics as `run_s_measured`.

    python3 perfbench/spread.py --workload sweep --runs 5 [--seconds 20]

Run it from the repository root after building the benchmark once.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{out.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        measured = re.search(r"run_s as measured ([0-9.]+) s", out.stdout)
        if measured:
            values.setdefault("run_s_measured", []).append(float(measured[1]))
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds["run_s_measured"] = bounds["run_s"]
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<20} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  <-- wide"
        print(f"{name:<20} {med:>14.6g} {spread:>8.4f} {bounds[name] / 3:>8.4f}{flag}")


if __name__ == "__main__":
    main()
