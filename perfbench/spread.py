#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's median and
spread (distance between the first and third quartile, as a share of the
median) — the steadiness check the metric bounds in BENCHMARK.json are
set against.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds S] [--trace 0|1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: incorrect result {res}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(name)
        mark = ""
        if bound:
            mark = f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:40s} median={med:.6g} spread={spread:.4f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
