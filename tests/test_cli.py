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
from mulmetric.metric_core import ComplexVec, PosVec, RealVec, SampledPosFunction, SegmentPoint
from mulmetric import registry
from mulmetric.expressions import compile_expr
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


class TestVerify:
    def test_d_star_dim3(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--space", "d-star", "--dim", "3",
                    "--samples", "2000", "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["m1_ok"] and report["m2_ok"] and report["m3_ok"]
        assert report["sampled_not_proved"]

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


def dumps2(value) -> str:
    """The writer's oracle."""
    return json.dumps(value, indent=2)


POINTS = {
    "scalar": 2.5,
    "pos-vec": PosVec((1.0, 3.5)),
    "real-vec": RealVec((-1.0, 0.0)),
    "complex": ComplexVec((1 + 2j, -3.0)),
    "segment": SegmentPoint(1.5, 1.0),
    "product-pair": (2.0, (3.0, 4.0)),
    "function": SampledPosFunction((0.0, 0.5, 1.0), (2.0, 3.0, 1e-3)),
}

JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
               | st.floats().map(np.float64))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.lists(st.floats(), max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)
# witness-shaped items, which the writer formats through one template at a report's depth
WITNESS_LISTS = st.lists(st.fixed_dictionaries({
    "axiom": st.sampled_from(["m1", "m3", "reverse"]) | JSON_LEAVES,
    "points": st.lists(st.floats(), max_size=3) | JSON_VALUES,
    "values": st.lists(st.floats(), max_size=3)}), max_size=4)
REPORTS = st.fixed_dictionaries({"m1_ok": st.booleans(), "witnesses": WITNESS_LISTS,
                                 "slack_log": st.floats()})


class ListSubclass(list):
    pass


class DictSubclass(dict):
    pass


class StrSubclass(str):
    pass


class TestWriter:
    """cli._text is json.dumps(v, indent=2) byte for byte."""

    @pytest.mark.parametrize("point", POINTS.values(), ids=POINTS)
    def test_every_point_type(self, point):
        encoded = registry.encode_point(point)
        witness = {"axiom": "m3", "points": [cli._encode_value(point)] * 3,
                   "values": [0.25, 0.5]}
        for value in (encoded, {"steps": [{"n": 0, "point": encoded}]}, [witness]):
            assert cli._text(value) == dumps2(value)

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
        assert cli._text(value) == dumps2(value)

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
        for value in ({"witnesses": [witness, witness]}, [[witness]], [witness], witness):
            assert cli._text(value) == dumps2(value)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(value=JSON_VALUES | REPORTS)
    def test_recursive_values(self, value):
        assert cli._text(value) == dumps2(value)

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
    def test_seeded_outputs_match_the_oracle(self, argv, tmp_path, monkeypatch):
        payloads = []
        write = cli._write_json
        monkeypatch.setattr(cli, "_write_json",
                            lambda payload, out: (payloads.append(payload), write(payload, out)))
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)]) in (0, 3, 4)
        assert out.read_text() == dumps2(payloads[0]) + "\n"


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
    ], ids=["d-a-2", "d-star-1", "d-star-1-start", "func-sup-verify", "func-sup-estimate",
            "product-pos-4-tuple"])
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
