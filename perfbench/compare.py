"""Repeat the benchmark and summarise the spread, or compare two checkouts.

    python3 perfbench/compare.py --runs 10                      # this checkout
    python3 perfbench/compare.py --runs 10 --other ../parent    # alternate two
    python3 perfbench/compare.py --runs 5 --workloads refute --seconds 5

Run i uses seed `--first-seed + i` on every side.  With --other, the two
checkouts alternate which runs first (parent first on even i), as the
pair method asks.  For every metric on every workload the tool prints each
side's median and quartiles (Python's statistics.quantiles, n=4), the
spread (q3 - q1) / median next to the bound from BENCHMARK.json, and, with
two sides, how many of the pairs the other checkout won in the metric's
better direction (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = [ln for ln in lines if ln.startswith("raw: ")]
    result["raw"] = json.loads(raw[-1][5:]) if raw else {}
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, med, q3


def main(argv=None) -> int:
    bench = {}
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_path):
        with open(bench_path) as fh:
            bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench.get("workloads", [])))
    p.add_argument("--seconds", type=int, default=bench.get("run_seconds", 15))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--other", help="second checkout; runs alternate with this one")
    args = p.parse_args(argv)

    metric_info = {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    sides = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])
    runs = {side: {w: [] for w in args.workloads.split(",")} for side in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in args.workloads.split(","):
            order = sides if i % 2 else sides[::-1]
            for side in order:
                res = run_once(side, workload, seed, args.seconds, args.trace)
                runs[side][workload].append(res)
                print(f"# {os.path.basename(side) or side} {workload} seed {seed}: "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      file=sys.stderr)

    for workload in args.workloads.split(","):
        print(f"\n== {workload}")
        for side in sides:
            shares = {r["failed"] / r["attempted"] for r in runs[side][workload]}
            print(f"  {side}: failed share {sorted(shares)}, "
                  f"all correct: {all(r['correct'] for r in runs[side][workload])}")
        names = list(runs[ROOT][workload][0]["metrics"])
        print(f"  {'metric':34} {'side':5} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'wins':>6}")
        for name in names:
            info = metric_info.get(name, {})
            base = None
            for k, side in enumerate(sides):
                vals = [r["metrics"][name]["value"] for r in runs[side][workload]]
                q1, med, q3 = summary(vals)
                spread = (q3 - q1) / med if med else float("nan")
                wins = ""
                if base is not None and "better" in info:
                    sign = 1 if info["better"] == "higher" else -1
                    won = sum(sign * (b - a) > 0 for a, b in zip(base, vals))
                    wins = f"{won}/{len(vals)}"
                base = vals
                bound = info.get("bound", "")
                print(f"  {name:34} {'AB'[k]:5} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {bound!s:>6} {wins:>6}")
            raw_vals = [r["raw"].get(name) for r in runs[ROOT][workload]]
            if all(v is not None for v in raw_vals) and raw_vals:
                q1, med, q3 = summary(raw_vals)
                print(f"  {'  raw ' + name:34} {'A':5} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{(q3 - q1) / med:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
