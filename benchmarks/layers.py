"""Per-layer A/B timings of the parent revision against this tree, in one interpreter.

    python benchmarks/layers.py                 # parent = HEAD~1, change = this tree
    python benchmarks/layers.py --parent HEAD   # before committing a change

Exports the parent revision with `git archive` and imports its `src/mulmetric`
and this tree's COPIES times each, every copy under a package name of its own;
each probe is built from its own copy's modules, so no object crosses trees.
The probes cost microseconds per unit (call, sample, pair, Picard step, trace
step or witness) of the spaces, the registry problems, the sequence
diagnostics, the CLI and the criterion-5 axiom suite; README lists them.

Each probe is warmed up once per side and copy and gets one repeat count, from
the first copy's faster warm-up, so that a timed call takes at least
MIN_CALL_S on both sides.  Then come PAIRS_PER_COPY pairs per copy, the side
that goes first swapped every pair: the host's speed drifts between pairs, not
within one, so no calibration kernel is needed.  Identical code in two copies
can differ by a few per cent in one process (where it lies in memory), so the
copies are built in turn, the first side swapped each copy, and the bootstrap
resamples whole copies.

Writes BENCH_layers.json at the repository root: the machine, the parent
revision and, per probe, the repeat count, each side's median cost per unit,
the median per-pair ratio change/parent and its 99 % bootstrap interval.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import deque
from itertools import product, repeat, starmap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIES, PAIRS_PER_COPY, MIN_CALL_S = 20, 16, 1e-3
RESAMPLES, LEVEL = 2000, 0.99
SIDES = ("parent", "change")

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
PROBLEM_SAMPLES = 2000  # sampled pairs per `verify --problem` / `estimate --problem` call


def load(name: str, tree: str):
    """The package `tree`/src/mulmetric imported as `name`, with the submodules probed."""
    package = os.path.join(tree, "src", "mulmetric")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "sequence_analysis"):
        importlib.import_module(f"{name}.{sub}")
    return module


def each(fn, args):
    """A probe calling fn(*a) for each a of args, looped in C."""
    return lambda: deque(starmap(fn, args), 0)


def quiet(cli, argv):
    """cli.main(argv) with stdout discarded; it must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} failed")


def probes(mm, tmp: str):
    """(name, probe, units) of every probe, built from package `mm` one at a time;
    `tmp` is a directory of this side's own for the files the CLI writes."""
    spaces, verify, sa = mm.spaces, mm.verifier.verify_axioms, mm.sequence_analysis
    for name, (space_id, kw, n) in SPACES.items():
        sp = spaces.build(space_id, **kw)
        rng = random.Random(1)
        points = [sp.sample(rng) for _ in range(64)]
        pairs = [(points[i], points[(7 * i + 3) % 64]) for i in range(64)]
        yield f"spaces/{name}/sample_us", each(sp.sample, [(random.Random(2),)] * 64), 64
        yield f"spaces/{name}/dist_us", each(sp.dist, pairs), 64
        # a chart space's verify does not grow with n: one call is the unit
        yield f"spaces/{name}/verify_us", each(verify, [(sp, n, 1)]), 1
    # a second build on the same bounds, as perfbench's set-up leaves its func-sup jobs
    yield "spaces/func-sup/build_us", each(spaces.build, [("func-sup",)]), 1
    for pid, (probe, argv) in product(REGISTRY_IDS, (
            ("verify_us_per_sample", ["verify", "--out", os.devnull, "--samples"]),
            ("estimate_us_per_pair", ["estimate", "--pairs"]))):
        argv = [*argv, str(PROBLEM_SAMPLES), "--problem", pid, "--seed", "1"]
        yield f"problems/{pid}/{probe}", each(quiet, [(mm.cli, argv)]), PROBLEM_SAMPLES
    reg, fp = mm.registry, mm.fixed_point
    for pid in REGISTRY_IDS:
        pd = reg.REGISTRY[pid].problem
        args = (reg.build_selfmap(pd, reg.build_space(pd)), reg.decode_point(pd, pd.x0),
                fp.ContractionSpec(pd.kind, pd.lam), pd.tol_log, pd.max_iter)
        yield (f"fixed_point/{pid}/solve_us_per_step", each(fp.solve, [args]),
               len(fp.solve(*args).trace))
    pos, seq_rng = spaces.positive_reals(), random.Random(3)
    for n in (50, 200, 800):
        # a converging sequence; its bounded_diagnostic centre is near index 15
        seq = [math.exp(3.0 * 0.9**k * seq_rng.uniform(-1, 1)) for k in range(n)]
        for diag, args in (("bounded", (seq, pos)), ("cauchy", (seq, pos, 1e-3))):
            yield (f"sequence_analysis/n={n}/{diag}_diagnostic_us",
                   each(getattr(sa, f"{diag}_diagnostic"), [args]), 1)
        # candidates at the sequence's own extremes: no term violates, the gap is read
        for check, cand in (("supremum", max(seq)), ("infimum", min(seq))):
            yield (f"sequence_analysis/n={n}/check_{check}_us",
                   each(getattr(sa, f"check_{check}"), [(seq, cand, (2.0, 1.1, 1.001))]), 1)
    for name, unit, key, argv in [
            ("trace", "step", "steps",
             ["solve", "--expr", "2*x^0.95", "--lambda", "0.95", "--x0", "30"]),
            ("report", "witness", "witnesses",
             ["verify", "--expr-dist", "e^((x-y)^2)", "--samples", "1000", "--seed", "1"])]:
        argv = [*argv, "--out", os.path.join(tmp, name + ".json")]
        mm.cli.main(argv)
        with open(argv[-1]) as fh:
            payload = json.load(fh)
        yield f"cli/{name}/main_us_per_{unit}", each(mm.cli.main, [(argv,)]), len(payload[key])
        yield (f"cli/{name}/dumps_us_per_{unit}", lambda p=payload: json.dumps(p, indent=2),
               len(payload[key]))
    # the jobs that hold perfbench certify's median: a whole `verify --space` per space
    for name, (space_id, kw, n) in SPACES.items():
        flags = [flag for k, v in kw.items()
                 for flag in (("--complex",) if k == "complex_coords" else (f"--{k}", str(v)))]
        argv = ["verify", "--space", space_id, *flags, "--samples", str(n), "--seed", "1",
                "--out", os.path.join(tmp, "space.json")]
        yield f"cli/verify_space/{name}/main_us", each(mm.cli.main, [(argv,)]), 1
    proved = verify(spaces.build("pos-reals"), 3000, 1)
    yield "cli/report_json/proved_us", each(mm.cli.report_json, [(proved,)]), 1
    yield "cli/examples/examples_us", each(quiet, [(mm.cli, ["examples"])]), 1
    # the calls of tests/test_acceptance.py::test_criterion_5_axiom_suite
    suite = [(space, 10**4, 5) for space in (
        spaces.positive_vectors(1), spaces.positive_vectors(3), spaces.positive_vectors(8),
        spaces.exp_metric(2, base=2.0), spaces.exp_metric(2, base=math.e),
        spaces.exp_metric(2, base=2.0, complex_coords=True),
        spaces.exp_metric(2, base=math.e, complex_coords=True),
        spaces.product_space(spaces.positive_reals(), spaces.positive_reals()),
        spaces.function_space(0.0, 1.0, n_grid=256), spaces.segment_space())]
    bad = spaces.SpaceInstance("e^((x-y)^2)", lambda rng: float(rng.randint(-3, 3)),
                               dist=lambda x, y: math.exp((x - y) ** 2))
    yield "acceptance/criterion_5/suite_us", each(verify, [*suite, (bad, 10**3, 5)]), 1


def timed(probe, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in repeat(None, reps):
        probe()
    return time.perf_counter() - t0


def interval(blocks: list[list[float]]) -> tuple[float, float]:
    """The LEVEL bootstrap interval of the median ratio: each of RESAMPLES resamples
    (seed 0) draws whole blocks, one per copy, so the spread between copies counts."""
    rng, k = random.Random(0), len(blocks)
    medians = sorted(statistics.median([r for block in rng.choices(blocks, k=k) for r in block])
                     for _ in range(RESAMPLES))
    tail = (1 - LEVEL) / 2 * RESAMPLES
    return medians[int(tail)], medians[math.ceil(RESAMPLES - tail) - 1]


def measure(copies: list[dict]) -> dict:
    """The A/B record of one probe; `copies` holds {side: (probe, units)} per loaded copy."""
    reps, costs = None, {side: [] for side in SIDES}
    for copy in copies:
        warm = min(timed(probe, 1) for probe, _ in copy.values())
        reps = reps or max(1, math.ceil(MIN_CALL_S / warm))
        for pair in range(PAIRS_PER_COPY):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                probe, units = copy[side]
                costs[side].append(timed(probe, reps) / reps / units)
    ratios = [b / a for a, b in zip(*costs.values())]
    lo, hi = interval([ratios[i:i + PAIRS_PER_COPY]
                       for i in range(0, len(ratios), PAIRS_PER_COPY)])
    medians = {side: round(statistics.median(c) * 1e6, 4) for side, c in costs.items()}
    return {"reps": reps, **medians, "ratio": round(statistics.median(ratios), 4),
            "ci99": [round(lo, 4), round(hi, 4)]}


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


def snapshot(dest: str) -> str:
    """Copy this working tree's files that git tracks or would track into `dest`, and
    nothing else: a fresh process there compiles the program from source, as in the
    parent's export, not from bytecode that runs here left in `__pycache__`."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        source, target = os.path.join(ROOT, name), os.path.join(dest, name)
        if os.path.isfile(source):  # not a tracked file deleted from the working tree
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
    return dest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args()
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        rev = export(args.parent, os.path.join(tmp, "parent"))
        trees = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        # copy k of both trees, loaded and built in turn, the first side swapped each copy
        order = [(k, side) for k in range(COPIES) for side in (SIDES[::-1] if k % 2 else SIDES)]
        builds = [probes(load(f"mulmetric_{side}_{k}", trees[side]), tempfile.mkdtemp(dir=tmp))
                  for k, side in order]
        for row in zip(*builds):
            copies = [{} for _ in range(COPIES)]
            for (k, side), (name, probe, units) in zip(order, row):
                copies[k][side] = (probe, units)
            r = results[name] = measure(copies)
            print(f"{name:52} {r['ratio']:.4f} {r['ci99']}", file=sys.stderr, flush=True)
    result = {"machine": machine(), "parent_rev": rev, "copies": COPIES,
              "pairs_per_copy": PAIRS_PER_COPY, "min_call_s": MIN_CALL_S,
              "resamples": RESAMPLES, "level": LEVEL, "probes": results}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
