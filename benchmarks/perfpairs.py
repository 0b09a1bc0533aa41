"""Alternated perfbench pairs, the parent revision against this tree, every run kept.

    python benchmarks/perfpairs.py                          # parent = HEAD~1
    python benchmarks/perfpairs.py --parent HEAD            # before committing a change
    python benchmarks/perfpairs.py --pairs 10 --workloads certify,refute

Exports the parent revision with `git archive` into a temporary directory and
runs `perfbench/run.py` in both trees, --pairs pairs per workload: pair i uses
seed i on both sides, and the parent runs first on odd pairs.  Then one traced
round per side and workload (seed 1, 3 s) gives the per-layer counters.

Writes BENCH_perfbench.json at the repository root: every run (perfbench's
speed-normalised end-to-end metrics and the raw figures), a summary per
workload and metric (each side's median and quartiles, the pairs the change
won in the metric's better direction, how much worse the change's median is
than the parent's next to the bound in BENCHMARK.json, and the parent's own
interquartile spread over its median), and the traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench")]

from compare import run_once, summary  # noqa: E402  (perfbench/compare.py)
from layers import export, machine  # noqa: E402

SIDES = ("parent", "change")


def record(res: dict, **where) -> dict:
    """One run as BENCH_perfbench.json keeps it."""
    return {**where, "correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            **{name: round(m["value"], 5) for name, m in res["metrics"].items()},
            "raw": {name: round(v, 5) for name, v in res["raw"].items()}}


def summarise(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    by_side = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
               for side in SIDES}
    for side in SIDES:
        by_side[side].sort(key=lambda r: r["pair"])
    out = {"pairs": len(by_side["parent"]),
           "failed": {side: sum(r["failed"] for r in by_side[side]) for side in SIDES},
           "all_correct": all(r["correct"] for side in SIDES for r in by_side[side])}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a, b = ([r[name] for r in by_side[side]] for side in SIDES)
        (qa1, ma, qa3), (qb1, mb, qb3) = summary(a), summary(b)
        out[name] = {"parent_median": round(ma, 4), "change_median": round(mb, 4),
                     "parent_quartiles": [round(qa1, 4), round(qa3, 4)],
                     "change_quartiles": [round(qb1, 4), round(qb3, 4)],
                     "change_wins": f"{sum(sign * (y - x) > 0 for x, y in zip(a, b))}/{len(a)}",
                     "worse_by": round(-sign * (mb - ma) / ma, 4), "bound": metric["bound"],
                     "parent_iqr_rel": round((qa3 - qa1) / ma, 4)}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--note", default="", help="what the change is, kept in the file")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    runs, traced = [], {}
    with tempfile.TemporaryDirectory() as parent:
        rev = export(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    res = run_once(trees[side], workload, pair, args.seconds, 0)
                    runs.append(record(res, pair=pair, workload=workload, side=side,
                                       first=order[0]))
                    print(f"# {workload} pair {pair} {side}: jobs_per_s "
                          f"{runs[-1].get('jobs_per_s')}", file=sys.stderr, flush=True)
            traced[workload] = {
                side: {name: m["value"] for name, m in
                       run_once(trees[side], workload, 1, 3, 1)["metrics"].items()}
                for side in SIDES}
    result = {"machine": machine(), "parent_rev": rev,
              "command": f"python3 perfbench/run.py --workload W --seed PAIR --seconds "
                         f"{args.seconds}, in each tree; pairs alternate which tree runs "
                         f"first (parent first on odd pairs)",
              "note": args.note,
              "summary": {w: summarise(runs, w, bench["end_to_end"]) for w in workloads},
              "traced_seed_1": {"command": "python3 perfbench/run.py --workload W --seed 1 "
                                           "--seconds 3 --trace 1",
                                "per_round": traced},
              "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for w in workloads:
        for name, s in result["summary"][w].items():
            if isinstance(s, dict) and "change_wins" in s:
                print(f"{w:9} {name:12} parent {s['parent_median']:>10} change "
                      f"{s['change_median']:>10} wins {s['change_wins']:>5} "
                      f"worse_by {s['worse_by']:+.4f} (bound {s['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
