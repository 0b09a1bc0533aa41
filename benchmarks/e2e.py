"""Fresh-process wall times of the CLI paths and the Tier-1 suite, for two checkouts.

    python benchmarks/e2e.py                 # parent = HEAD~1, change = this tree
    python benchmarks/e2e.py --parent HEAD   # before committing a change

Writes BENCH_e2e.json at the repository root with, for the parent revision
(exported with `git archive` into a temporary directory) and for this
working tree:

- `commands`: each CLI command's wall time in milliseconds, one new
  `python -m mulmetric.cli` process per run: `solve`, `estimate` and
  `verify --problem` on every registry problem and `verify --space` on every
  space id, at the CLI's default sample counts, and `verify --expr x` on three
  func-sup points, which loads numpy.  Per side the median and the
  quartiles; `ratio` is the change's median over the parent's, and
  `same_output` says whether both trees gave the same exit code and stdout;
- `floor`: `python -c pass`, the interpreter start every command pays;
- `tier1`: the Tier-1 suite's wall time in seconds, its pytest summary and
  its exit code.

Each round runs every command once per side, the side that goes first
alternating between rounds, because the host's speed drifts between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

from layers import REGISTRY_IDS, ROOT, export, machine

# one entry per space id; pos-interval needs its bounds
SPACE_ARGS = (("pos-reals",), ("pos-interval", "--lo", "0.1", "--hi", "1"),
              ("real-line-exp",), ("d-star", "--dim", "3"), ("d-a", "--dim", "2"),
              ("segment",), ("product-pos",), ("func-sup",))
COMMANDS = ([(cmd, "--problem", pid) for cmd in ("solve", "estimate", "verify")
             for pid in REGISTRY_IDS]
            + [("verify", "--space", *args) for args in SPACE_ARGS]
            # func-sup points: the path that loads numpy
            + [("verify", "--expr", "x", "--space", "func-sup", "--samples", "3")])
#: rounds of the command timings and of the Tier-1 suite, each alternating the sides
ROUNDS, TIER1_ROUNDS = 9, 3
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def timed(argv, tree: str) -> tuple[float, int, bytes]:
    """Wall time of one fresh process in `tree`, its exit code and its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def quartiles(values: list[float], scale: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med * scale, 1), "q1": round(q1 * scale, 1),
            "q3": round(q3 * scale, 1)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as parent:
        rev = export(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        times = {cmd: {side: [] for side in trees} for cmd in COMMANDS}
        outputs, floor = {}, []
        for r in range(ROUNDS):
            floor.append(timed(("-c", "pass"), ROOT)[0])
            for cmd in COMMANDS:
                for side in (trees if r % 2 == 0 else reversed(trees)):
                    wall, code, out = timed(("-m", "mulmetric.cli", *cmd), trees[side])
                    times[cmd][side].append(wall)
                    outputs.setdefault((cmd, side), (code, out))
        tier1, summaries = {side: [] for side in trees}, {}
        for r in range(TIER1_ROUNDS):
            for side in (trees if r % 2 == 0 else reversed(trees)):
                wall, code, out = timed(TIER1, trees[side])
                tier1[side].append(wall)
                summary = re.findall(rb"^(\d+ (?:passed|failed|error).*?) in [\d.]+s", out, re.M)
                summaries[f"{side}_summary"] = summary[-1].decode() if summary else "no summary"
                summaries[f"{side}_exit"] = code
    commands = {}
    for cmd, sides in times.items():
        entry = {side: quartiles(values, 1e3) for side, values in sides.items()}
        entry["ratio"] = round(entry["change"]["median"] / entry["parent"]["median"], 3)
        entry["same_output"] = outputs[cmd, "parent"] == outputs[cmd, "change"]
        commands[" ".join(cmd)] = entry
    result = {"machine": machine(), "parent_rev": rev, "rounds": ROUNDS,
              "unit": "ms", "floor": {"python -c pass": quartiles(floor, 1e3)},
              "commands": commands,
              "tier1": {"command": "python " + " ".join(TIER1), "unit": "s",
                        "rounds": TIER1_ROUNDS,
                        **{side: round(statistics.median(t), 2) for side, t in tier1.items()},
                        **summaries}}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps({cmd: entry["ratio"] for cmd, entry in commands.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
