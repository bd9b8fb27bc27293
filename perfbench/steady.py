#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the acceptance
check measures it.

    python3 perfbench/steady.py --workload NAME [--seeds 1,2,3,4,5] [--seconds S]

Runs the untraced benchmark once per seed (sequentially) and prints, per
end-to-end metric of BENCHMARK.json, the median of the runs and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound ("ok" when the
spread is under a third of it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {out.returncode}, correct={result['correct']}")
            return 1
        row = []
        for m in metrics:
            v = result["metrics"][m["name"]]["value"]
            values[m["name"]].append(v)
            row.append(f"{m['name']}={v:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for m in metrics:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = m["bound"]
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{m['name']:28s} median {med:.6g}  spread {spread:.3f}"
              f"  bound {bound} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
