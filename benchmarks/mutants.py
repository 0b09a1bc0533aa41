"""Comparison-operator mutation probe of the Tier-1 suite.

    python benchmarks/mutants.py                          # every file of src/mulmetric
    python benchmarks/mutants.py metric_core.py verifier.py
    python benchmarks/mutants.py fixed_point.py:262       # the sites of one line
    python benchmarks/mutants.py --list spaces.py         # the sites only, nothing run

Finds every comparison with a single operator among <, <=, >, >=, == and !=
in the named modules of src/mulmetric, and makes one mutant per site by
flipping that operator (< and <=, > and >=, == and !=), the rest of the file
byte for byte unchanged.  Each mutant runs the Tier-1 suite with `-x` in a
temporary copy of the tree: a failing or timed-out suite kills it, a
passing one lets it survive.  The unchanged copy runs first and must pass.
(perfbench/ and benchmarks/ are copied too: tests read the tracer's name
lists and load the layer harness from them.)

Prints one line per site, `killed`, `timeout` or `SURVIVED`, with the first
failing test of a killed mutant, then the survivors.  A survivor is an
untested boundary, or a mutant no input can tell from the original
(equivalent).  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "mulmetric")
FLIP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
        ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
OPERATOR = re.compile(rb"<=|>=|==|!=|<|>")
#: seconds per suite run; a mutant that loops forever counts as killed
TIMEOUT = 300.0


def sites(source: bytes) -> list[tuple[int, int, str, str]]:
    """(byte offset, line, operator, flipped) of every single-operator comparison."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and type(node.ops[0]) in FLIP):
            continue
        # the operator lies between the end of the left operand and the right one
        left, right = node.left, node.comparators[0]
        lo = starts[left.end_lineno - 1] + left.end_col_offset
        hi = starts[right.lineno - 1] + right.col_offset
        op, flipped = FLIP[type(node.ops[0])]
        match = list(OPERATOR.finditer(source, lo, hi))
        if len(match) != 1 or match[0].group().decode() != op:
            raise ValueError(f"cannot place {op!r} at line {node.lineno}")
        found.append((match[0].start(), node.lineno, op, flipped))
    return sorted(found)


def tier1(tree: str) -> tuple[str, str]:
    """Run Tier-1 with -x in the tree: ('passed' | 'killed' | 'timeout', first failure)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    if run.returncode == 0:
        return "passed", ""
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else f"exit {run.returncode}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="*",
                    help="file names in src/mulmetric, each with an optional :line "
                         "(default: every file)")
    ap.add_argument("--list", action="store_true", help="list the sites and run nothing")
    args = ap.parse_args(argv)
    modules = args.modules or sorted(f for f in os.listdir(os.path.join(ROOT, PACKAGE))
                                     if f.endswith(".py"))
    plan = []
    for arg in modules:
        module, _, line = arg.partition(":")
        with open(os.path.join(ROOT, PACKAGE, module), "rb") as fh:
            source = fh.read()
        plan += [(module, source, *site) for site in sites(source)
                 if not line or site[1] == int(line)]
    if args.list:
        for module, _, _, line, op, flipped in plan:
            print(f"{module}:{line} {op} -> {flipped}")
        print(f"{len(plan)} sites")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as tree:
        for part in ("src", "tests", "perfbench", "benchmarks"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        status, failure = tier1(tree)
        if status != "passed":
            print(f"the unchanged copy does not pass: {status} {failure}")
            return 1
        survivors = []
        for module, source, offset, line, op, flipped in plan:
            path = os.path.join(tree, PACKAGE, module)
            with open(path, "wb") as fh:
                fh.write(source[:offset] + flipped.encode() + source[offset + len(op):])
            status, failure = tier1(tree)
            with open(path, "wb") as fh:
                fh.write(source)
            site = f"{module}:{line} {op} -> {flipped}"
            if status == "passed":
                survivors.append(site)
            print(f"{site}: {'SURVIVED' if status == 'passed' else status} {failure}",
                  flush=True)
    print(f"{len(plan)} mutants, {len(plan) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for site in survivors:
        print(f"  survivor {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
