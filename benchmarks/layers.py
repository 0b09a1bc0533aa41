"""Per-layer timings of the spaces and the axiom verifier, for two checkouts.

    python benchmarks/layers.py                 # parent = HEAD~1, change = this tree
    python benchmarks/layers.py --parent HEAD   # before committing a change

Writes BENCH_layers.json at the repository root with, for the parent
revision (exported with `git archive` into a temporary directory) and for
this working tree:

- `sample_us`, `dist_us`: one scalar `sample` / `dist` call per space, in
  microseconds (the samplers and distances `solve`, `estimate` and
  `verify --problem` call one point at a time);
- `verify_us_per_sample`: `verify --space`'s axiom check per sampled triple;
- per registry problem, `verify_us_per_sample` of `verify --problem` (one
  contraction check per sampled pair) and `estimate_us_per_pair` of
  `estimate --problem`, each a whole `cli.main` call divided by its sample
  count, so that the same probe runs on any revision with this CLI;
- `fixed_point`: per registry problem, `solve_us_per_step`, one `fixed_point.solve`
  call from the problem's start (what `solve --problem` runs, without parsing
  or JSON) divided by the Picard steps in its trace;
- `sequence_analysis`: `bounded_diagnostic_us` and `cauchy_diagnostic_us`, one
  call each on a pos-reals sequence of n = 50, 200 and 800 terms;
- `cli`: `examples_us`, one in-process `cli.main(["examples"])` call (argument
  parsing and the registry listing); `main_us_per_step` and
  `main_us_per_witness`, one whole in-process `cli.main` call with `--out`
  for a seeded solve trace and a seeded `verify --expr-dist` report (the
  solve or the verification included) divided by their steps and witnesses,
  and `dumps_us_per_step` / `dumps_us_per_witness`, json.dumps with indent=2
  on the JSON those calls wrote, read back;
- `calibration`: the median of 21 runs of perfbench's calibration kernel
  (`calib.time_kernel`) in the same probe, in milliseconds: a layer figure
  divided by its side's `kernel_ms` reads speed-normalised;
- `criterion_5_s`: tests/test_acceptance.py::test_criterion_5_axiom_suite.

Each figure is the minimum over ROUNDS runs that alternate the two trees, each
run in a fresh interpreter, because the host's speed drifts between runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 5

# name -> (space id, build keywords, verifier samples); one entry per CLI space
SPACES = {
    "pos-reals": ("pos-reals", {}, 3000),
    "pos-interval": ("pos-interval", {"lo": 0.1, "hi": 1.0}, 3000),
    "real-line-exp": ("real-line-exp", {}, 3000),
    "d-star-3": ("d-star", {"dim": 3}, 1000),
    "d-star-8": ("d-star", {"dim": 8}, 500),
    "d-a-2": ("d-a", {"dim": 2}, 1000),
    "d-a-2-complex": ("d-a", {"dim": 2, "complex_coords": True}, 1000),
    "segment": ("segment", {}, 2000),
    "product-pos": ("product-pos", {}, 1000),
    "func-sup": ("func-sup", {}, 50),
}
REGISTRY_IDS = ("paper-scalar", "paper-segment", "sqrt-toy", "quarter-kannan",
                "quarter-chatterjea")
# sampled pairs per `verify --problem` / `estimate --problem` call
PROBLEM_SAMPLES = 2000

# run inside the measured tree: prints one JSON object of per-space and
# per-problem timings
PROBE = r"""
import contextlib, io, json, math, os, random, statistics, sys, tempfile, time
from mulmetric import cli, fixed_point, registry, sequence_analysis, spaces
from mulmetric.verifier import verify_axioms
from perfbench import calib

def per_call_us(fn, args, calls):
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        for a in args * (calls // len(args)):
            fn(*a)
        best = min(best, (time.perf_counter() - t0) / (calls // len(args) * len(args)))
    return best * 1e6

def adaptive_us(fn, budget_s=0.02):
    t0 = time.perf_counter()
    fn()
    return per_call_us(fn, [()], max(1, int(budget_s / (time.perf_counter() - t0))))

def best_s(fn, repeats=5):
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best

def cli_run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} failed")

space_table, problem_ids, n_pairs = json.loads(sys.argv[1])
out = {"spaces": {}, "problems": {}, "fixed_point": {}, "sequence_analysis": {}, "cli": {},
       "calibration": {"kernel": {"kernel_ms": statistics.median(
           calib.time_kernel() for _ in range(21)) * 1e3}}}
for name, (space_id, kw, n) in space_table.items():
    sp = spaces.build(space_id, **kw)
    rng = random.Random(1)
    points = [sp.sample(rng) for _ in range(64)]
    pairs = [(points[i], points[(7 * i + 3) % 64]) for i in range(64)]
    calls = 640 if name == "func-sup" else 64000
    rngs = [(random.Random(2),)]
    verify_s = best_s(lambda: verify_axioms(sp, n, seed=1))
    out["spaces"][name] = {"sample_us": per_call_us(sp.sample, rngs, calls // 4),
                           "dist_us": per_call_us(sp.dist, pairs, calls),
                           "verify_us_per_sample": verify_s / n * 1e6}
for pid in problem_ids:
    common = ["--problem", pid, "--seed", "1"]
    verify_s = best_s(lambda: cli_run(["verify", *common, "--samples", str(n_pairs),
                                       "--out", os.devnull]))
    estimate_s = best_s(lambda: cli_run(["estimate", *common, "--pairs", str(n_pairs)]))
    out["problems"][pid] = {"verify_us_per_sample": verify_s / n_pairs * 1e6,
                            "estimate_us_per_pair": estimate_s / n_pairs * 1e6}
for pid in problem_ids:
    pd = registry.REGISTRY[pid].problem
    map_ = registry.build_selfmap(pd, registry.build_space(pd))
    args = (map_, registry.decode_point(pd, pd.x0), fixed_point.ContractionSpec(pd.kind, pd.lam),
            pd.tol_log, pd.max_iter)
    steps = len(fixed_point.solve(*args).trace)
    out["fixed_point"][pid] = {
        "solve_us_per_step": adaptive_us(lambda: fixed_point.solve(*args)) / steps}
pos, seq_rng = spaces.positive_reals(), random.Random(3)
for n in (50, 200, 800):
    # a converging sequence; its bounded_diagnostic centre is near index 15
    seq = [math.exp(3.0 * 0.9**k * seq_rng.uniform(-1, 1)) for k in range(n)]
    out["sequence_analysis"][f"n={n}"] = {
        "bounded_diagnostic_us": adaptive_us(
            lambda: sequence_analysis.bounded_diagnostic(seq, pos)),
        "cauchy_diagnostic_us": adaptive_us(
            lambda: sequence_analysis.cauchy_diagnostic(seq, pos, 1e-3))}
with tempfile.TemporaryDirectory() as tmp:
    for name, unit, key, argv in [
            ("trace", "step", "steps",
             ["solve", "--expr", "2*x^0.95", "--lambda", "0.95", "--x0", "30"]),
            ("report", "witness", "witnesses",
             ["verify", "--expr-dist", "e^((x-y)^2)", "--samples", "1000", "--seed", "1"])]:
        argv = [*argv, "--out", os.path.join(tmp, name + ".json")]
        main_s = best_s(lambda: cli.main(argv))
        with open(argv[-1]) as fh:
            payload = json.load(fh)
        count = len(payload[key])
        out["cli"][name] = {
            f"main_us_per_{unit}": main_s / count * 1e6,
            f"dumps_us_per_{unit}": best_s(lambda: json.dumps(payload, indent=2)) / count * 1e6}
out["cli"]["examples"] = {"examples_us": adaptive_us(lambda: cli_run(["examples"]))}
print(json.dumps(out))
"""


def run_probe(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    table = json.dumps([SPACES, REGISTRY_IDS, PROBLEM_SAMPLES])
    proc = subprocess.run([sys.executable, "-c", PROBE, table], env=env,
                          capture_output=True, text=True, check=True, cwd=tree)
    return json.loads(proc.stdout)


def criterion_5_seconds(tree: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    test = "tests/test_acceptance.py::test_criterion_5_axiom_suite"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--durations=1", "--durations-min=0", test],
                          env=env, capture_output=True, text=True, check=True, cwd=tree)
    return float(re.search(r"([0-9.]+)s call", proc.stdout).group(1))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def export(rev: str, dest: str) -> str:
    """Extract the tree of git revision `rev` into `dest`; its short hash."""
    rev = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return rev


def merge_min(acc: dict, new: dict):
    for section, entries in new.items():
        for name, figures in entries.items():
            slot = acc.setdefault(section, {}).setdefault(name, {})
            for key, value in figures.items():
                slot[key] = round(min(value, slot.get(key, value)), 3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as parent:
        rev = export(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        layers = {side: {} for side in trees}
        crit5 = {side: float("inf") for side in trees}
        for r in range(ROUNDS):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for side in order:
                merge_min(layers[side], run_probe(trees[side]))
                crit5[side] = min(crit5[side], criterion_5_seconds(trees[side]))
    result = {"machine": machine(), "parent_rev": rev, "rounds": ROUNDS,
              "parent": {"criterion_5_s": crit5["parent"], **layers["parent"]},
              "change": {"criterion_5_s": crit5["change"], **layers["change"]}}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps({side: result[side]["criterion_5_s"] for side in trees}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
