"""Commands that make no func-sup point start without numpy.

numpy loads at the first func-sup point drawn or measured, not when a space
is built: `verify --space` proves every space, func-sup included, without it.
pytest has numpy loaded already, so the probe runs in a fresh interpreter:
it imports mulmetric, runs each command through `cli.main` in one process
and reports, after each step, its exit code and whether numpy is loaded.
"""

import json
import os
import subprocess
import sys

import mulmetric
from mulmetric import spaces
from mulmetric.registry import REGISTRY

PROBE = r"""
import contextlib, io, json, os, sys
import mulmetric
steps = [("import mulmetric", 0, "numpy" in sys.modules)]
from mulmetric import cli
steps.append(("import mulmetric.cli", 0, "numpy" in sys.modules))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", os.devnull] if argv[0] != "estimate" else argv)
    steps.append((" ".join(argv), code, "numpy" in sys.modules))
print(json.dumps(steps))
"""

BOUNDS = {"pos-interval": ["--lo", "0.1", "--hi", "1"], "func-sup": ["--lo", "1", "--hi", "5"]}
NUMPY_FREE = [
    *([command, "--problem", pid] for pid in REGISTRY for command in ("solve", "estimate")),
    *(["verify", "--problem", pid, "--samples", "200"] for pid in REGISTRY),
    ["solve", "--expr", "x/2+1", "--space", "real-line-exp", "--x0", "0"],
    # a chart space's axioms are proved from its scale: nothing is drawn
    *(["verify", "--space", space_id, *BOUNDS.get(space_id, [])] for space_id in spaces.SPACES),
    ["verify", "--space", "func-sup"],
]


def test_scalar_commands_load_no_numpy():
    # a candidate distance is sampled: func-sup points are drawn and measured
    argvs = [*NUMPY_FREE, ["verify", "--expr", "x", "--space", "func-sup", "--samples", "3"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mulmetric.__file__)))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    steps = [tuple(step) for step in json.loads(proc.stdout)]
    scalar, func_sup = steps[:-1], steps[-1]
    assert scalar == [("import mulmetric", 0, False), ("import mulmetric.cli", 0, False)] + [
        (" ".join(argv), 0, False) for argv in NUMPY_FREE]
    # func-sup points still work in the same process, and load numpy; x is no metric
    assert func_sup == ("verify --expr x --space func-sup --samples 3", 4, True)
