"""mulmetric benchmark: one workload per call, speed-normalised, outputs checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ../src of this file.  The
workload runs in a fresh single-threaded interpreter (worker.py); then
SETUP_PROBES more fresh interpreters each measure set-up alone.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the five end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it, prefixed `raw:`,
holds the same end-to-end figures before speed normalisation, for
reference only.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from jobs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
TIME_LIMIT_S = 170          # a whole run, workload and probes, ends within this


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker did not finish within {TIME_LIMIT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mulmetric", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'mulmetric')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    result = run_worker([*common, "--seconds", str(args.seconds)]
                        + (["--trace"] if args.trace else []), deadline)
    probes = [run_worker([*common, "--probe"], deadline) for _ in range(SETUP_PROBES)]
    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_ms"] = statistics.median(p["import_s"] for p in probes) * 1e3
        metrics["setup.build_ms"] = statistics.median(p["build_s"] for p in probes) * 1e3
    else:
        metrics["setup_s"] = statistics.median(p["import_s"] + p["build_s"] for p in probes)
        raw = dict(result["raw"], setup_s=statistics.median(
            p["raw_import_s"] + p["raw_build_s"] for p in probes))
        print("raw: " + json.dumps(raw))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
