import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mulmetric
from mulmetric import cli, spaces
from mulmetric import fixed_point as fp
from mulmetric.fixed_point import SolverReport, TraceStep
from mulmetric.metric_core import (
    ComplexVec,
    MulDistance,
    PosVec,
    RealVec,
    SampledPosFunction,
    SegmentPoint,
)
from mulmetric import registry
from mulmetric.expressions import compile_expr
from mulmetric.verifier import AxiomReport, ContractionReport, Witness
from mulmetric.registry import (
    REGISTRY,
    SPACE_IDS,
    ProblemDefinition,
    parse_problem,
    serialize_problem,
)


def run(argv):
    return cli.main(argv)


class TestSolve:
    def test_paper_scalar(self, tmp_path):
        out = tmp_path / "trace.json"
        assert run(["solve", "--problem", "paper-scalar", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        footer = payload["footer"]
        assert footer["converged"]
        assert footer["fixed_point"][0] == pytest.approx(0.7411317711, abs=1e-9)
        steps = payload["steps"]
        assert {"n", "point", "step_log", "apriori_log", "aposteriori_log"} <= set(steps[0])

    def test_paper_segment(self, tmp_path):
        out = tmp_path / "trace.json"
        assert run(["solve", "--problem", "paper-segment", "--out", str(out)]) == 0
        footer = json.loads(out.read_text())["footer"]
        assert footer["fixed_point"] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_inline_sqrt(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run(["solve", "--expr", "sqrt(x)", "--space", "pos-reals",
                    "--lambda", "0.5", "--x0", "16", "--out", str(out)])
        assert code == 0
        footer = json.loads(out.read_text())["footer"]
        assert footer["fixed_point"][0] == pytest.approx(1.0, abs=1e-11)

    def test_problem_file(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(serialize_problem(REGISTRY["sqrt-toy"].problem))
        out = tmp_path / "trace.json"
        assert run(["solve", "--problem", str(problem), "--out", str(out)]) == 0

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run(["solve", "--expr", "sqrt(x)", "--space", "pos-reals",
                    "--lambda", "0.5", "--x0", "1e12",
                    "--tol-log", "1e-14", "--max-iter", "3", "--out", str(out)])
        assert code == 3
        assert not json.loads(out.read_text())["footer"]["converged"]

    def test_bad_expression_usage_error(self):
        assert run(["solve", "--expr", "import os", "--x0", "2"]) == 2

    def test_trace_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve", "--problem", "paper-scalar", "--out", str(a)])
        run(["solve", "--problem", "paper-scalar", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_x0_overrides_registry_problem(self, tmp_path):
        out = tmp_path / "trace.json"
        assert run(["solve", "--problem", "paper-scalar", "--x0", "0.6",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["steps"][0]["point"] == [0.6]


    @pytest.mark.parametrize("space, x0, point", [
        (["--space", "product-pos"], "1,2", [[1.0], [2.0]]),
        (["--space", "d-a", "--dim", "2"], "1,2", [1.0, 2.0]),
        (["--space", "d-a", "--dim", "1"], "-2", [-2.0]),
        (["--space", "d-star", "--dim", "1"], "2", [2.0]),
    ])
    def test_vector_and_pair_start_points(self, space, x0, point, tmp_path):
        out = tmp_path / "trace.json"
        assert run(["solve", "--expr", "x", *space, "--x0", x0, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["footer"]["fixed_point"] == point


BAD_FILE = "bad-lambda.txt"


FIRST_TRIPLE = "(3.4442185152504816, 2.5795440294030243, -0.79428419169155)"


class TestUsageErrors:
    """Map and input errors exit 2 with one error line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--expr", "exp(x)", "--x0", "1000"],
        ["solve", "--expr", "1/(x-1)", "--x0", "1"],
        ["solve", "--expr", "ln(x)", "--x0", "0.5"],
        ["solve", "--expr", "x/4", "--space", "d-star", "--dim", "2", "--x0", "1,2"],
        ["solve", "--problem", BAD_FILE],
        ["verify", "--expr-dist", "(x-y)^0.5"],
        ["verify", "--expr-dist", "9^9^9"],
        ["verify", "--expr-dist", "exp(1000*abs(x-y))"],
        ["solve", "--expr", "x^0.5", "--space", "real-line-exp", "--x0", "-4"],
        ["estimate", "--expr", "x^0.5", "--space", "real-line-exp"],
        ["solve", "--problem", "paper-scalar", "--x0", "5"],
        ["solve", "--expr", "x", "--space", "func-sup"],
        ["solve", "--expr", "x", "--space", "product-pos"],
        ["solve", "--expr", "x/2", "--space", "d-a", "--dim", "2", "--x0", "1,2"],
        ["verify", "--expr", "x", "--space", "d-a", "--dim", "1", "--complex"],
        ["verify", "--space", "pos-reals", "--complex"],
        ["verify", "--problem", "sqrt-toy", "--complex"],
        ["verify", "--expr-dist", "abs(x-y)+1", "--complex"],
        ["solve", "--problem", "sqrt-toy", "--max-iter", "-1"],
        ["solve", "--problem", "sqrt-toy", "--lambda", "0"],
        ["solve", "--expr", "x/2+1", "--space", "real-line-exp", "--lambda", "0", "--x0", "0"],
        ["verify", "--space", "d-a", "--base", "inf"],
        ["verify", "--space", "pos-interval", "--lo", "1", "--hi", "inf"],
    ], ids=["overflow", "zero-division", "log-domain", "vector-point", "bad-file-value",
            "complex-distance", "power-overflow", "distance-overflow", "complex-iterate",
            "complex-estimate", "outside-interval", "function-start", "pair-start-size",
            "vector-map-d-a", "complex-map", "complex-pos-reals", "complex-problem",
            "complex-expr-dist", "negative-max-iter", "zero-lambda", "zero-lambda-expr",
            "infinite-base", "infinite-interval"])
    def test_exit_2_with_error_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / BAD_FILE).write_text("space_id = pos-reals\nmap_id = sqrt-toy\n"
                                          "lam = abc\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_start_point_outside_the_space_is_named(self, capsys):
        assert run(["solve", "--problem", "paper-scalar", "--x0", "5"]) == 2
        assert capsys.readouterr().err == "error: point outside [0.1, 1.0]: 5.0\n"

    @pytest.mark.parametrize("argv, flags", [
        (["verify", "--space", "d-star", "--base", "7", "--lo", "5"], "--base, --lo"),
        (["verify", "--space", "d-a", "--lo", "0", "--hi", "inf"], "--lo, --hi"),
        (["verify", "--space", "pos-reals", "--dim", "2"], "--dim"),
        (["verify", "--space", "func-sup", "--base", "2"], "--base"),
        (["verify", "--space", "pos-interval", "--lo", "0.1", "--hi", "1", "--dim", "3"], "--dim"),
        (["solve", "--expr", "x", "--space", "segment", "--lo", "1", "--x0", "1,1"], "--lo"),
    ], ids=["d-star-base-lo", "d-a-lo-hi", "pos-reals-dim", "func-sup-base",
            "pos-interval-dim", "solve-segment-lo"])
    def test_flags_the_space_does_not_take_exit_2(self, argv, flags, capsys):
        assert run([*argv, "--samples" if argv[0] == "verify" else "--max-iter", "5",
                    "--out", os.devnull]) == 2
        space_id = argv[argv.index("--space") + 1]
        assert capsys.readouterr().err == f"error: space {space_id!r} takes no {flags}\n"

    @pytest.mark.parametrize("argv, error", [
        (["solve", "--problem", "sqrt-toy", "--expr", "x/2"], "--problem takes no --expr"),
        (["estimate", "--problem", "sqrt-toy", "--map", "quarter"], "--problem takes no --map"),
        (["estimate", "--problem", "sqrt-toy", "--space", "real-line-exp"],
         "--problem takes no --space"),
        (["verify", "--problem", "sqrt-toy", "--map", "quarter", "--expr", "x", "--space",
          "pos-reals"], "--problem takes no --map, --expr, --space"),
        (["verify", "--problem", "sqrt-toy", "--expr-dist", "x"],
         "verify --expr-dist takes no --problem"),
        (["verify", "--expr-dist", "x", "--dim", "0"], "verify --expr-dist takes no --dim"),
        (["verify", "--expr-dist", "x", "--space", "d-a"], "verify --expr-dist takes no --space"),
        (["verify", "--expr-dist", "x", "--kind", "kannan", "--lambda", "0", "--base", "2"],
         "verify --expr-dist takes no --base, --kind, --lambda"),
        (["verify", "--expr-dist", "x", "--map", "quarter", "--expr", "x"],
         "verify --expr-dist takes no --map, --expr"),
        (["verify", "--space", "pos-reals", "--kind", "banach"], "verify --space takes no --kind"),
        (["verify", "--space", "pos-reals", "--lambda", "0"], "verify --space takes no --lambda"),
        # --complex belongs to verify --space d-a alone
        (["verify", "--expr", "x", "--space", "d-a", "--dim", "1", "--complex"],
         "a contraction check takes no --complex"),
        (["verify", "--problem", "sqrt-toy", "--complex"],
         "a contraction check takes no --complex"),
        (["verify", "--expr-dist", "abs(x-y)+1", "--complex"],
         "verify --expr-dist takes no --complex"),
        (["verify", "--space", "pos-reals", "--complex"], "space 'pos-reals' takes no --complex"),
    ], ids=["solve-problem-expr", "estimate-problem-map", "estimate-problem-space",
            "verify-problem-three", "expr-dist-problem", "expr-dist-dim-0", "expr-dist-space",
            "expr-dist-base-kind-lambda-0", "expr-dist-map-expr", "space-kind",
            "space-lambda-0", "complex-expr", "complex-problem", "complex-expr-dist",
            "complex-pos-reals"])
    def test_flags_the_command_does_not_use_exit_2(self, argv, error, capsys):
        assert run([*argv, "--out", os.devnull]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--expr-dist", "abs(x-y)", "--lo", "1", "--hi", "2", "--seed", "3",
         "--samples", "50"],
        ["verify", "--problem", "paper-scalar", "--kind", "banach", "--lambda", "0.8",
         "--lo", "0.2", "--hi", "1", "--seed", "1", "--samples", "50"],
        ["verify", "--space", "d-a", "--dim", "2", "--base", "2", "--complex", "--seed", "1",
         "--samples", "50"],
        ["estimate", "--problem", "sqrt-toy", "--kind", "banach", "--seed", "2"],
    ], ids=["expr-dist", "problem", "space", "estimate"])
    def test_flags_each_command_uses_are_taken(self, argv):
        assert run([*argv, "--out", os.devnull]) in (0, 4)

    @pytest.mark.parametrize("argv, first_line", [
        (["solve", "--problem", "missing.txt"],
         "error: [Errno 2] No such file or directory: 'missing.txt'"),
        (["solve", "--problem", "sqrt-toy", "--out", "no-dir/trace.json"],
         "error: [Errno 2] No such file or directory: 'no-dir/trace.json'"),
        (["solve", "--problem", "no-equals.txt"], "error: line 2: expected 'key = value'"),
        (["solve", "--problem", "unknown-space.txt"], "error: unknown space id 'nope'"),
        (["solve", "--problem", "sqrt-toy", "--tol-log", "0"],
         "error: tol_log must be positive, got 0.0"),
        (["estimate", "--problem", "sqrt-toy", "--pairs", "0"], "error: n_pairs must be >= 1"),
        (["verify", "--problem", "sqrt-toy", "--samples", "0"],
         "error: n_samples must be >= 1"),
        (["solve", "--expr", "x/2", "--space", "d-star", "--dim", "1", "--x0", "-1"],
         "error: coordinates must be strictly positive: (-1.0,)"),
        (["verify", "--space", "pos-interval"], "error: pos-interval needs lo and hi"),
        (["verify", "--space", "d-a", "--dim", "0"], "error: dimension must be >= 1"),
        (["verify", "--space", "func-sup", "--lo", "1", "--hi", "0"], "error: need b > a"),
        (["verify", "--space", "nope"], "error: unknown space id 'nope'"),
        (["solve", "--map", "nope"], "error: unknown map id 'nope'"),
        (["solve", "--problem", "unknown-kind.txt"], "error: unknown contraction kind 'foo'"),
        (["solve", "--problem", "no-space.txt"], "error: problem file has no space_id"),
        # the first sample, seed 0: x, y and z on [-5, 5]
        (["verify", "--expr-dist", "1e308*10-1e308*10"],
         f"error: distance 1e308*10-1e308*10 is undefined at {FIRST_TRIPLE}: "
         "candidate distance returned an undefined value: nan"),
        (["solve", "--expr", "exp(x)", "--x0", "1000"],
         "error: map expr(exp(x)) is undefined at 1000.0: math range error"),
        # d(y, x) of the first sample is complex
        (["verify", "--expr-dist", "(x-y)^0.5"],
         f"error: distance (x-y)^0.5 is undefined at {FIRST_TRIPLE}: "
         "candidate distance returned an undefined value: "
         f"{(2.5795440294030243 - 3.4442185152504816) ** 0.5}"),
        (["verify", "--expr-dist", "exp(1000*abs(x-y))"],
         f"error: distance exp(1000*abs(x-y)) is undefined at {FIRST_TRIPLE}: "
         "math range error"),
        (["verify", "--space", "func-sup", "--lo=-inf", "--hi", "0", "--samples", "5"],
         "error: grid must be strictly increasing"),
        # f(1e300) overflows to inf, which is no point of pos-reals
        (["solve", "--expr", "x*1e300", "--space", "pos-reals", "--x0", "1e300"],
         "error: not points of this space: 1e+300, inf"),
        # the first pair with an image past 1.8e308 (seed 1: the second pair)
        (["verify", "--expr", "x*1e307", "--space", "pos-reals", "--kind", "kannan",
          "--lambda", "0.4", "--samples", "3", "--seed", "1"],
         "error: not points of this space: 3.447124558091777e+305, inf"),
        (["estimate", "--expr", "x*1e307", "--space", "pos-reals", "--kind", "kannan",
          "--pairs", "3", "--seed", "1"],
         "error: not points of this space: 3.447124558091777e+305, inf"),
        (["solve", "--expr", "x*1e300", "--space", "pos-reals", "--x0", "nan"],
         "error: not points of this space: nan, nan"),
        # d = inf off the diagonal, and 1 on it: a metric takes values in R_+
        (["verify", "--expr-dist", "1+abs(x-y)*1e300*1e300", "--samples", "50"],
         "error: distance 1+abs(x-y)*1e300*1e300 is undefined at "
         f"{FIRST_TRIPLE}: candidate distance returned an undefined value: inf"),
        (["verify", "--expr-dist", "0*x+1e300*1e300"],
         f"error: distance 0*x+1e300*1e300 is undefined at {FIRST_TRIPLE}: "
         "candidate distance returned an undefined value: inf"),
    ], ids=["missing-problem-file", "out-in-missing-dir", "line-without-equals",
            "unknown-space-id", "zero-tol-log", "zero-pairs", "zero-samples",
            "negative-pos-vec", "pos-interval-without-bounds", "zero-dim-d-a",
            "empty-func-sup-interval", "unknown-space-flag", "unknown-map-id",
            "unknown-kind", "no-space-id", "nan-distance", "map-overflow",
            "complex-distance", "distance-overflow", "nan-grid", "overflowing-iterate",
            "infinite-image-verify", "infinite-image-estimate", "nan-start",
            "infinite-distance", "infinite-diagonal"])
    def test_exit_2_names_the_input(self, argv, first_line, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no-equals.txt").write_text("space_id = pos-reals\nmap_id\n")
        (tmp_path / "unknown-space.txt").write_text("space_id = nope\nmap_id = sqrt-toy\n")
        (tmp_path / "unknown-kind.txt").write_text(
            "# comment and blank lines are skipped\n\nspace_id = pos-reals\n"
            "map_id = sqrt-toy  # the registry's\n\nkind = foo\n")
        (tmp_path / "no-space.txt").write_text("map_id = sqrt-toy\n")
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines()[0] == first_line

    @pytest.mark.parametrize("argv", [
        ["solve", "--map", "segment-half-power", "--space", "pos-reals", "--x0", "2"],
        ["verify", "--map", "segment-half-power", "--space", "func-sup", "--samples", "2"],
        ["estimate", "--map", "segment-half-power", "--space", "real-line-exp", "--pairs", "5"],
        ["verify", "--map", "segment-half-power", "--space", "product-pos", "--samples", "2"],
    ], ids=["pos-reals", "func-sup", "real-line-exp", "product-pos"])
    def test_segment_map_off_its_space_exits_2(self, argv, capsys):
        assert run([*argv, "--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: map segment-half-power is undefined at")
        assert "Traceback" not in err


# hostile numbers for every float flag; the integer flags stay at most 50 so that no
# drawn command runs long
HOSTILE_FLOATS = ("nan", "inf", "-inf", "-0", "0", "1e309", "-1e309", "-1", "-2.5", "1e-300",
                  "0.5", "1", "2", "1e300")
HOSTILE_INTS = ("50", "3", "1", "0", "-0", "-1", "nan", "1e309")
HOSTILE_FLAGS = {
    "--problem": (*REGISTRY, "no-such-problem"),
    "--map": (*registry.MAP_FNS, "no-such-map"),
    "--expr": ("x/4", "sqrt(x)", "exp(x)", "1/(x-1)", "ln(x)", "x^2", "x", "nan", "y"),
    "--expr-dist": ("1", "0", "abs(x-y)+1", "e^abs(x-y)", "e^((x-y)^2)", "x-y", "ln(x)"),
    "--space": (*SPACE_IDS, "no-such-space"),
    "--dim": HOSTILE_INTS,
    "--base": HOSTILE_FLOATS,
    "--lo": HOSTILE_FLOATS,
    "--hi": HOSTILE_FLOATS,
    "--kind": (*fp.KINDS, "no-such-kind"),
    "--lambda": HOSTILE_FLOATS,
    "--seed": ("-1", "0", "7", "nan", str(2**70)),
    "--x0": (*HOSTILE_FLOATS, "1,2", "0.5,nan", "1.5,1", ""),
    "--tol-log": HOSTILE_FLOATS,
}
#: what each command works on: one of these flags is always given
SOURCES = {"solve": ("--problem", "--map", "--expr"),
           "verify": ("--problem", "--map", "--expr", "--space", "--expr-dist"),
           "estimate": ("--problem", "--map", "--expr")}
#: the flags only one command takes
ONLY = {"--x0": "solve", "--tol-log": "solve", "--expr-dist": "verify"}
#: the flag that bounds each command's work, always given
BUDGET = {"solve": "--max-iter", "verify": "--samples", "estimate": "--pairs"}


@st.composite
def hostile_argvs(draw):
    """An argv of any command, on any registry problem, named map, expression or space,
    with up to three more flags the command takes, of hostile values; examples takes
    no flag."""
    command = draw(st.sampled_from(("solve", "verify", "estimate", "examples")))
    if command == "examples":
        return [command]
    flags = [draw(st.sampled_from(SOURCES[command]))]
    takes = sorted(set(HOSTILE_FLAGS) - set(ONLY) | {f for f, c in ONLY.items() if c == command})
    flags += draw(st.lists(st.sampled_from(takes), max_size=3, unique=True))
    # --flag=value: argparse would read a value such as -inf as a flag of its own
    argv = [command] + [f"{flag}={draw(st.sampled_from(HOSTILE_FLAGS[flag]))}"
                        for flag in dict.fromkeys(flags)]
    switch = {"verify": "--complex", "estimate": "--verbose"}.get(command)
    if switch and draw(st.booleans()):
        argv.append(switch)
    return argv + [f"{BUDGET[command]}={draw(st.sampled_from(HOSTILE_INTS))}"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=hostile_argvs())
def test_every_argv_exits_0_2_3_or_4(argv, tmp_path_factory):
    # the exit-code contract: argparse's usage errors exit 2 by SystemExit, and no
    # other exception escapes cli.main
    out = str(tmp_path_factory.getbasetemp() / "fuzz-out")
    try:
        code = cli.main(argv + ["--out", out] if argv[0] != "examples" else argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4), argv


class TestVerify:
    def test_d_star_dim3(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--space", "d-star", "--dim", "3",
                    "--samples", "2000", "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["m1_ok"] and report["m2_ok"] and report["m3_ok"]
        assert not report["sampled_not_proved"]

    def test_expr_dist_refuted(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--expr-dist", "e^((x-y)^2)",
                    "--samples", "500", "--seed", "0", "--out", str(out)])
        assert code == 4
        report = json.loads(out.read_text())
        assert not report["m3_ok"]
        assert any(w["axiom"] == "m3" for w in report["witnesses"])

    def test_contraction_paper_scalar(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--problem", "paper-scalar", "--kind", "banach",
                    "--lambda", "0.997", "--samples", "2000", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["condition_ok"]

    def test_report_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--space", "segment", "--samples", "500", "--seed", "7"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_nothing_to_verify(self):
        assert run(["verify"]) == 2

    def test_constant_expr_dist_refuted(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--expr-dist", "1", "--samples", "20", "--seed", "3",
                    "--out", str(out)])
        assert code == 4
        report = json.loads(out.read_text())
        assert not report["m1_ok"] and report["m2_ok"] and report["m3_ok"]
        assert len(report["witnesses"]) == 20
        dist = compile_expr("1", ("x", "y"))
        for w in report["witnesses"]:
            x, y = w["points"]
            # replay: distinct points at log distance <= slack violate m1
            assert w["axiom"] == "m1" and x != y
            assert math.log(dist(x, y)) <= report["slack_log"]

    @pytest.mark.parametrize("formula", ["0", "x-y+1"])
    def test_nonpositive_expr_dist_refuted(self, formula, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--expr-dist", formula, "--samples", "30", "--seed", "2",
                    "--out", str(out)])
        assert code == 4
        report = json.loads(out.read_text())
        assert not report["m1_ok"]
        dist = compile_expr(formula, ("x", "y"))
        m1 = [w for w in report["witnesses"] if w["axiom"] == "m1"]
        assert m1 and all(dist(*w["points"]) < 1 for w in m1)
        if formula == "0":  # d = 0 counts as ln d = -inf
            assert all(w["values"] == [-math.inf] for w in m1)

    def test_lambda_overrides_registry_problem(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--problem", "sqrt-toy", "--lambda", "0.4",
                    "--samples", "200", "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert list(report)[:3] == ["kind", "lambda", "condition_ok"]
        assert (report["kind"], report["lambda"]) == ("banach", 0.4)
        assert report["witnesses"] and all(set(w) == {"kind", "points", "values"}
                                           for w in report["witnesses"])

    @pytest.mark.parametrize("space_id", SPACE_IDS)
    def test_every_space_id(self, space_id, tmp_path):
        bounds = ["--lo", "0.1", "--hi", "1"] if space_id == "pos-interval" else []
        samples = "20" if space_id == "func-sup" else "200"
        assert run(["verify", "--space", space_id, *bounds, "--samples", samples,
                    "--out", str(tmp_path / "report.json")]) == 0

    @pytest.mark.parametrize("space_id", ["func-sup", "product-pos"])
    def test_witness_points_replay(self, space_id, tmp_path):
        # the identity map is no 1/2-contraction: every sampled pair is a witness
        out = tmp_path / "report.json"
        assert run(["verify", "--expr", "x", "--space", space_id, "--samples", "3",
                    "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert len(report["witnesses"]) == 3
        space = spaces.build(space_id)
        if space_id == "func-sup":
            grid = space.sample(random.Random(0)).grid
            x, y = (SampledPosFunction(grid, p) for p in report["witnesses"][0]["points"])
        else:
            x, y = (tuple(c for (c,) in p) for p in report["witnesses"][0]["points"])
        rho = space.dist(x, y).log_value
        assert report["witnesses"][0]["values"] == [rho, 0.5 * rho]
        assert rho > 0.5 * rho + report["slack_log"]

    def test_zero_dim_rejected(self):
        assert run(["verify", "--space", "d-star", "--dim", "0", "--samples", "5"]) == 2


def test_encode_point_covers_every_point_type():
    assert registry.encode_point(ComplexVec((1 + 2j, -3.0))) == [[1.0, 2.0], [-3.0, 0.0]]
    assert registry.encode_point((2.0, (3.0, 4.0))) == [[2.0], [[3.0], [4.0]]]
    f = SampledPosFunction((0.0, 1.0), (2.0, 3.0))
    assert json.loads(json.dumps(registry.encode_point(f))) == [2.0, 3.0]


# The writers' oracle: `cli`'s former dict builders, verbatim.  Each output is
# exactly what `json.dumps(payload, indent=2)` writes of its dict.

def _encode_value(v):
    # scalar witness points are written as bare numbers, trace points as lists
    return v if isinstance(v, (int, float)) else registry.encode_point(v)


def trace_to_dict(report: SolverReport) -> dict:
    return {
        "steps": [
            {
                "n": s.n,
                "point": registry.encode_point(s.point),
                "step_log": s.step_log,
                "apriori_log": s.apriori_log,
                "aposteriori_log": s.aposteriori_log,
            }
            for s in report.trace
        ],
        "footer": {
            "fixed_point": registry.encode_point(report.fixed_point),
            "residual_log": report.residual_log,
            "iterations": report.iterations,
            "converged": report.converged,
        },
    }


def report_to_dict(report) -> dict:
    """Encode a verifier report by walking its dataclass fields in order."""
    out = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name == "witnesses":
            value = [{report.witness_key: w.axiom,
                      "points": [_encode_value(p) for p in w.points],
                      "values": list(w.values)}
                     for w in value]
        out[f.metadata.get("key", f.name)] = value
    return out


def dumps2(value) -> str:
    return json.dumps(value, indent=2)


def outcome(write, report):
    """The text a writer gives for the report, or the type of what it raises."""
    try:
        return write(report)
    except Exception as exc:
        return type(exc)


def written(report):
    """The writer's text for the report, asserted equal to the oracle's outcome."""
    if isinstance(report, SolverReport):
        write, oracle = cli.trace_json, trace_to_dict
    else:
        write, oracle = cli.report_json, report_to_dict
    text = outcome(write, report)
    assert text == outcome(lambda r: dumps2(oracle(r)), report)
    return text


def axiom_report(*witnesses) -> AxiomReport:
    return AxiomReport(not witnesses, True, True, True, list(witnesses), 7, 0, 1e-10)


POINTS = {
    "scalar": 2.5,
    "pos-vec": PosVec((1.0, 3.5)),
    "real-vec": RealVec((-1.0, 0.0)),
    "complex": ComplexVec((1 + 2j, -3.0)),
    "segment": SegmentPoint(1.5, 1.0),
    "product-pair": (2.0, (3.0, 4.0)),
    "function": SampledPosFunction((0.0, 0.5, 1.0), (2.0, 3.0, 1e-3)),
}
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
COUNTS = st.integers(min_value=0, max_value=2**70)
TRACE_POINTS = st.sampled_from(list(POINTS.values())) | FLOATS
WITNESSES = st.lists(st.builds(
    Witness, st.sampled_from(["m1", "m2", "m3", "reverse"]),
    st.lists(TRACE_POINTS | st.integers(), max_size=3).map(tuple),
    st.lists(FLOATS, max_size=3).map(tuple)), max_size=3)
REPORTS = (
    st.builds(SolverReport, TRACE_POINTS, FLOATS, COUNTS, st.booleans(), st.lists(
        st.builds(TraceStep, COUNTS, TRACE_POINTS, FLOATS, FLOATS, FLOATS), max_size=3))
    | st.builds(AxiomReport, st.booleans(), st.booleans(), st.booleans(), st.booleans(),
                WITNESSES, COUNTS, st.integers(), FLOATS)
    | st.builds(ContractionReport, st.sampled_from(fp.KINDS), FLOATS, st.booleans(),
                WITNESSES, COUNTS, st.integers(), FLOATS))


AXIOMS_AND_KINDS = ("m1", "m2", "m3", "reverse", *fp.KINDS)
#: leaves that are not finite floats, and np.float64, a float subclass json writes as a float
OTHER_LEAVES = [7, True, SegmentPoint(1.5, 1.0), PosVec((1.0, 3.5)), (2.0, (3.0, 4.0)),
                math.nan, math.inf, -math.inf, np.float64(0.1)]


def some_floats(rng: random.Random, k: int) -> tuple:
    """k floats: plain ones, MulDistances and a few edge values."""
    return tuple(rng.choice([-0.0, 5e-324, 1e16, -1e-7, MulDistance(rng.random())])
                 if rng.random() < 0.2 else rng.uniform(-1e3, 1e3) for _ in range(k))


def float_witnesses(rng: random.Random, n: int) -> list:
    """n witnesses of every axiom and kind, with 1-3 float points and 0-3 float values."""
    return [Witness(rng.choice(AXIOMS_AND_KINDS), some_floats(rng, rng.randint(1, 3)),
                    some_floats(rng, rng.randint(0, 3))) for _ in range(n)]


def float_trace(rng: random.Random, n: int) -> list:
    return [TraceStep(k, *some_floats(rng, 4)) for k in range(n)]


def put(rng: random.Random, items: tuple, leaf) -> tuple:
    """The items with one of them, at a random position, replaced by the leaf."""
    i = rng.randrange(len(items))
    return items[:i] + (leaf,) + items[i + 1:]


class ListSubclass(list):
    pass


class DictSubclass(dict):
    pass


class StrSubclass(str):
    pass


class TestWriter:
    """cli.trace_json and cli.report_json write what json.dumps(indent=2) writes of
    the oracle's dicts, or raise what the oracle raises."""

    @pytest.mark.parametrize("point", POINTS.values(), ids=POINTS)
    def test_every_point_type(self, point):
        step = TraceStep(0, point, 0.5, 1.0, 0.25)
        for report in (SolverReport(point, 0.5, 2, True, [step, step]),
                       axiom_report(Witness("m3", (point,) * 3, (0.25, 0.5)))):
            assert isinstance(written(report), str)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, [1.0, math.nan], [math.inf, 2.0], [[-math.inf]],
        -0.0, 5e-324, 1e16, [-0.0, 5e-324, 1e16, -1e-7],
        0, -7, 2**70, True, False, None, [True, 1.0], [1, 2.0], [None, 0.5], [2.0, "a"],
        [], {}, {"steps": [], "footer": {}}, {"witnesses": []}, [[], {}],
        (1.0, 2.0), ((1.0,), [2, "a"]),
        np.float64(0.1), [np.float64(0.1), 2.0], [np.float64("nan")],
        "h\u00e9llo \u2713 \"q\"\n\t", {"cl\u00e9": "\U0001f600"},
        ListSubclass([1.0, ListSubclass()]), DictSubclass(a=DictSubclass(), b=[2.0]),
        StrSubclass("s"), {StrSubclass("k"): StrSubclass("v")},
    ])
    def test_leaves_and_edge_cases(self, value):
        # the value as a witness's points and values (a container's items); a scalar
        # also in every other field of both reports, and a float in every float of a trace
        scalar = not isinstance(value, (list, tuple, dict))
        items = (value,) if scalar else tuple(value)
        written(axiom_report(Witness("m3", items, items)))
        if scalar:
            written(AxiomReport(*[value] * 4, [], value, value, value, value))
            written(ContractionReport(value, value, value, [], value, value, value, value))
        if isinstance(value, float):
            step = TraceStep(1, value, value, value, value)
            written(SolverReport(value, value, 1, False, [step]))

    @pytest.mark.parametrize("witness", [
        {"axiom": "m3", "points": [1.0, -2.5, 3e-9], "values": [0.5, 0.25]},
        {"kind": "banach", "points": [[1.0], [2.0]], "values": [0.5]},
        {"axiom": "m1", "points": [1.0, 2.0], "values": [-math.inf]},
        {"axiom": "m1", "points": [math.nan, 2.0], "values": [0.0]},
        {"axiom": "m1", "points": [], "values": [0.0]},
        {"axiom": "m1", "points": [1.0], "values": []},
        {"axiom": 3, "points": [1.0], "values": [2.0]},
        {"axiom": "m2", "points": (1.0, np.float64(2.0)), "values": [1, 2.0]},
        {"axiom": "m2", "points": "ab", "values": [2.0]},
        {"axiom": "m2", "points": {"x": 1.0}, "values": [2.0]},
        {"axiom": "m2", "values": [2.0], "points": [1.0]},
        {"axiom": "m2", "points": [1.0], "values": [2.0], "extra": None},
        DictSubclass(axiom="m3", points=[1.0], values=[2.0]),
    ])
    def test_witness_shapes(self, witness):
        w = Witness(witness.get("axiom", witness.get("kind")), tuple(witness["points"]),
                    tuple(witness["values"]))
        if "kind" in witness:
            written(ContractionReport(w.axiom, 0.5, False, [w, w], 2, 0, 1e-10))
        else:
            written(axiom_report(w, w))

    @pytest.mark.parametrize("seed", range(3))
    def test_long_float_witness_lists(self, seed):
        witnesses = float_witnesses(random.Random(seed), 300)
        written(axiom_report(*witnesses))
        written(ContractionReport("kannan", 0.25, False, witnesses, 300, seed, 1e-10))

    @pytest.mark.parametrize("leaf", OTHER_LEAVES, ids=repr)
    def test_one_other_leaf_anywhere(self, leaf):
        # the leaf as a report's one slot, and in place of one float of a long
        # all-float report or trace
        written(axiom_report(Witness("m1", (leaf,), ())))
        written(axiom_report(Witness("m1", (), (leaf,))))
        rng = random.Random(repr(leaf))
        for _ in range(8):
            witnesses = float_witnesses(rng, 60)
            i = rng.randrange(len(witnesses))
            axiom, points, values = witnesses[i].axiom, witnesses[i].points, witnesses[i].values
            if values and rng.random() < 0.5:
                values = put(rng, values, leaf)
            else:
                points = put(rng, points, leaf)
            witnesses[i] = Witness(axiom, points, values)
            written(axiom_report(*witnesses))
            written(ContractionReport("banach", 0.5, False, witnesses, 60, 0, 1e-10))
            steps = float_trace(rng, 40)
            # a point of any type; the float fields hold floats only
            fields = ["point"] + (["step_log", "apriori_log", "aposteriori_log"]
                                  if isinstance(leaf, float) else [])
            j = rng.randrange(len(steps))
            steps[j] = steps[j]._replace(**{rng.choice(fields): leaf})
            written(SolverReport(2.5, 1e-13, 40, True, steps))

    @pytest.mark.parametrize("axiom", ['50%"x', "%s", "%%d %(a)s"])
    def test_axiom_text_with_percent_signs(self, axiom):
        witnesses = [Witness(axiom, (1.0, 2.0), (0.5,)), Witness("m2", (3.0,), (0.25, 4.0)),
                     Witness(axiom, (1.5, 2.5, 3.5), ())]
        written(axiom_report(*witnesses))
        written(ContractionReport(axiom, 0.5, False, witnesses, 3, 0, 1e-10))

    @pytest.mark.parametrize("n_steps", [0, 1, 500])
    def test_float_traces(self, n_steps):
        steps = float_trace(random.Random(n_steps), n_steps)
        written(SolverReport(0.7411317710771425, 1.5e-13, n_steps, n_steps > 0, steps))

    def test_segment_trace(self):
        steps = [TraceStep(n, SegmentPoint(1.0 + 0.5**n, 1.0), 0.5**n, 2.0 * 0.5**n, 0.5**n)
                 for n in range(30)]
        written(SolverReport(SegmentPoint(1.0, 1.0), 1e-9, 30, True, steps))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(report=REPORTS)
    def test_reports_match_the_oracle(self, report):
        assert isinstance(written(report), str)

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "paper-scalar"],
        ["solve", "--problem", "paper-segment"],
        ["solve", "--problem", "quarter-kannan", "--seed", "3"],
        ["solve", "--expr", "x", "--space", "product-pos", "--x0", "1,2"],
        ["solve", "--expr", "sqrt(x)", "--lambda", "0.5", "--x0", "1e12", "--max-iter", "3"],
        ["verify", "--space", "d-a", "--dim", "2", "--complex", "--samples", "200"],
        ["verify", "--space", "segment", "--samples", "300", "--seed", "7"],
        ["verify", "--expr-dist", "e^((x-y)^2)", "--samples", "300", "--seed", "1"],
        ["verify", "--expr-dist", "0", "--samples", "30", "--seed", "2"],
        ["verify", "--problem", "sqrt-toy", "--lambda", "0.4", "--samples", "200"],
        ["verify", "--expr", "x", "--space", "func-sup", "--samples", "3"],
        ["verify", "--expr", "x", "--space", "product-pos", "--samples", "5"],
    ])
    def test_seeded_outputs_match_the_oracle(self, argv, tmp_path, monkeypatch, capsys):
        reports = []
        for name in ("trace_json", "report_json"):
            monkeypatch.setattr(cli, name, lambda r, write=getattr(cli, name):
                                (reports.append(r), write(r))[1])
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)]) in (0, 3, 4)
        oracle = trace_to_dict if argv[0] == "solve" else report_to_dict
        assert out.read_text() == dumps2(oracle(reports[0])) + "\n"
        # without --out, stdout carries the same text
        capsys.readouterr()
        assert run(argv) in (0, 3, 4)
        assert capsys.readouterr().out == out.read_text()


def fresh_process(argv, cwd) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mulmetric.__file__)))
    proc = subprocess.run([sys.executable, "-m", "mulmetric.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """build_parser is cached; in-process calls must still behave like fresh processes."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_leak_no_state(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--samples", "many"])
        assert exc.value.code == 2
        capsys.readouterr()
        built = []
        build = spaces.build
        monkeypatch.setattr(spaces, "build", lambda *a, **kw: (built.append(kw), build(*a, **kw))[1])
        argv = ["verify", "--space", "d-a", "--dim", "2", "--samples", "50", "--seed", "4"]
        for extra in (["--complex"], []):
            assert run(argv + extra) == 0
            assert (0, capsys.readouterr().out, "") == fresh_process(argv + extra, tmp_path)
        assert [kw["complex_coords"] for kw in built] == [True, False]


class TestOnePointForm:
    """A chart space's distance takes only that space's points: anything else a map
    returns is a DomainError (exit 2), never a silent success or a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--expr", "1", "--space", "d-a", "--dim", "2", "--samples", "2"],
        ["verify", "--expr", "1", "--space", "d-star", "--dim", "1", "--samples", "2"],
        ["solve", "--expr", "1", "--space", "d-star", "--dim", "1", "--x0", "2"],
        ["verify", "--expr", "1", "--space", "func-sup", "--samples", "2"],
        ["estimate", "--expr", "1", "--space", "func-sup", "--pairs", "2"],
        ["solve", "--expr", "x+x", "--space", "product-pos", "--x0", "1,2"],
        ["solve", "--expr", "x^0.5", "--space", "real-line-exp", "--x0", "-4"],
        ["verify", "--expr", "x^0.5", "--space", "real-line-exp", "--samples", "5"],
        ["estimate", "--expr", "x^0.5", "--space", "real-line-exp", "--pairs", "5"],
    ], ids=["d-a-2", "d-star-1", "d-star-1-start", "func-sup-verify", "func-sup-estimate",
            "product-pos-4-tuple", "real-line-exp-complex-solve",
            "real-line-exp-complex-verify", "real-line-exp-complex-estimate"])
    def test_non_points_exit_2(self, argv, capsys):
        assert run([*argv, "--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not points of this space: ") and "Traceback" not in err

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("space_id, vector", [("d-star", PosVec), ("d-a", RealVec)])
    def test_start_points_are_vectors_at_every_dim(self, space_id, vector, dim):
        pd = ProblemDefinition(space_id=space_id, expr="x", dim=dim)
        point = registry.decode_point(pd, (2.0,) * dim)
        assert type(point) is vector and point.coords == (2.0,) * dim


class TestProblemSeed:
    """A problem file's seed drives verify --problem and estimate; --seed overrides it."""

    @pytest.mark.parametrize("argv", [["estimate", "--pairs", "50", "--verbose"],
                                      ["verify", "--samples", "50"]], ids=["estimate", "verify"])
    def test_file_seed_equals_flag(self, argv, tmp_path, capsys):
        problem = tmp_path / "seven.txt"
        problem.write_text("space_id = pos-reals\nmap_id = sqrt-toy\nseed = 7\n")
        outputs = []
        for source in (["--problem", str(problem)], ["--map", "sqrt-toy", "--seed", "7"],
                       ["--problem", str(problem), "--seed", "0"]):
            assert run([*argv, *source]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] != outputs[2]


class TestEstimate:
    def test_sqrt(self, capsys):
        assert run(["estimate", "--map", "sqrt-toy", "--space", "pos-reals",
                    "--pairs", "500", "--seed", "0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_paper_scalar_bounded(self, capsys):
        assert run(["estimate", "--problem", "paper-scalar",
                    "--pairs", "2000", "--seed", "0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value <= 0.997

    def test_constant_map(self, capsys):
        assert run(["estimate", "--expr", "2.0", "--space", "pos-reals",
                    "--pairs", "100", "--seed", "0"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_out_writes_the_printed_estimate(self, tmp_path, capsys):
        out = tmp_path / "est.txt"
        assert run(["estimate", "--problem", "sqrt-toy", "--pairs", "10",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().out == "0.5\n" == out.read_text()


class TestExamples:
    def test_listing(self, capsys):
        assert run(["examples"]) == 0
        out = capsys.readouterr().out
        assert "paper-scalar" in out and "0.7411317711" in out
        assert "paper-segment" in out and "(1, 1)" in out
        assert "sqrt-toy" in out and "expected=1" in out


class TestProblemRoundTrip:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registry_round_trip(self, name):
        pd = REGISTRY[name].problem
        assert parse_problem(serialize_problem(pd)) == pd

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(Exception):
            parse_problem("bogus = 1\n")

    def test_problem_requires_map_or_expr(self):
        with pytest.raises(Exception):
            ProblemDefinition(space_id="pos-reals")
