#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values across seeds (Python's statistics.quantiles with
n=4), as a share of their median. A steady benchmark keeps every spread
well inside the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_live --seeds 1-5 [--trace 0]

Run from the repository root; the benchmark is built on first use.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        t = time.time()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.time() - t
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect ({result['failed']} failed)")
        print(f"seed {seed}: {wall:.1f}s wall, {result['attempted']} ops", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<32}{'median':>14}{'spread':>9}{'bound':>7}  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        shown = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:<32}{med:>14.6g}{spread:>9.3f}{bound if bound else '':>7}  {shown}{flag}")


if __name__ == "__main__":
    main()
