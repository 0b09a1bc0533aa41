"""The expression compiler against the tree walker it replaced, and the CLI
exit-code contract over generated expressions."""

import ast
import contextlib
import io
import math
import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulmetric import cli, registry, spaces
from mulmetric.errors import InputError
from mulmetric.expressions import _CONSTANTS, _FUNCTIONS, compile_expr


def reference_eval(node: ast.AST, env: dict):
    """The former interpreter: walk the validated tree, floating every constant."""
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else _CONSTANTS[node.id]
    if isinstance(node, ast.BinOp):
        a, b = reference_eval(node.left, env), reference_eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
        return a ** b
    if isinstance(node, ast.UnaryOp):
        v = reference_eval(node.operand, env)
        return v if isinstance(node.op, ast.UAdd) else -v
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](reference_eval(node.args[0], env))
    raise AssertionError(f"unvalidated node {ast.dump(node)}")


NUMBERS = st.integers(0, 12).map(str) | st.sampled_from(
    ["0.5", "1.5", "2.0", "1e-3", "1e300", "1000", "True"])


def expressions(names):
    leaves = st.sampled_from([*names, "e", "pi"]) | NUMBERS

    def extend(sub):
        return (st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
                    lambda t: f"({t[0]}){t[1]}({t[2]})")
                | st.tuples(st.sampled_from("-+"), sub).map(lambda t: f"{t[0]}({t[1]})")
                | st.tuples(st.sampled_from(sorted(_FUNCTIONS)), sub).map(
                    lambda t: f"{t[0]}({t[1]})"))

    return st.recursive(leaves, extend, max_leaves=8)


INPUTS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -4.0, 709.0, 1e308, -1e-308])
          | st.floats(-1e3, 1e3, allow_nan=False))


def same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(expressions(("x", "y")), INPUTS, INPUTS)
def test_compiled_matches_reference(text, x, y):
    fn = compile_expr(text, ("x", "y"))
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    try:
        want = reference_eval(tree.body, {"x": x, "y": y})
    except (ArithmeticError, ValueError, TypeError) as exc:
        with pytest.raises(Exception) as info:
            fn(x, y)
        assert type(info.value) is type(exc)
        return
    got = fn(x, y)
    assert type(got) is type(want)
    if isinstance(want, complex):
        assert same_float(got.real, want.real) and same_float(got.imag, want.imag)
    else:
        assert same_float(got, want)


# the registry's former hand-written maps, verbatim: the oracles of their expression text

def _paper_scalar_fn(x: float) -> float:
    return math.exp(x - 1.0 - x**3 / 10.0)


def _quarter_fn(x: float) -> float:
    return x / 4.0


@pytest.mark.parametrize("map_id, former, space, lo, hi", [
    ("paper-scalar", _paper_scalar_fn, spaces.positive_interval(0.1, 1.0), 0.1, 1.0),
    ("sqrt-toy", math.sqrt, spaces.positive_reals(), 0.01, 100.0),
    ("quarter", _quarter_fn, spaces.real_line_exp(), -10.0, 10.0),
])
def test_registry_maps_equal_their_former_functions(map_id, former, space, lo, hi):
    """Bit for bit on a grid of the space's sampling range and on its own samples
    (in CPython x**3 and x**3.0 give the same double)."""
    fn, rng = registry.MAP_FNS[map_id], random.Random(0)
    points = [lo + (hi - lo) * i / 8192 for i in range(8193)]
    for x in points + [space.sample(rng) for _ in range(8192)]:
        got, want = fn(x), former(x)
        assert type(got) is float and same_float(got, want), x


@pytest.mark.parametrize("text", [
    "__import__('os')", "open", "x.real", "(lambda: 1)()", "[x]", "x if x else 1",
    "1j", "'s'", "exp(x, x)", "exp(x=1)", "abs", "x < 1", "y",
])
def test_validation_rejects(text):
    with pytest.raises(InputError):
        compile_expr(text)


@pytest.mark.parametrize("text, message", [
    ("-" * 5000 + "x", "too deep"),
    ("1" + "0" * 400, "too large"),
])
def test_oversized_expressions_are_input_errors(text, message):
    with pytest.raises(InputError, match=message):
        compile_expr(text)


def run_cli(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", os.devnull])
    assert "Traceback" not in err.getvalue()
    return code


@settings(derandomize=True, max_examples=100, deadline=None)
@given(expressions(("x",)), st.sampled_from(["pos-reals", "real-line-exp"]),
       st.sampled_from(["1", "-4", "0", "0.5", "1000"]))
def test_solve_exit_contract(text, space, x0):
    argv = ["solve", f"--expr={text}", "--space", space, "--x0", x0, "--max-iter", "25"]
    assert run_cli(argv) in {0, 2, 3, 4}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(expressions(("x", "y")))
def test_verify_expr_dist_exit_contract(text):
    argv = ["verify", f"--expr-dist={text}", "--samples", "5", "--seed", "1"]
    assert run_cli(argv) in {0, 2, 3, 4}


MAP_SPACES = [["d-star", "--dim", "1"], ["d-star", "--dim", "2"], ["d-a", "--dim", "1"],
              ["d-a", "--dim", "2"], ["func-sup"], ["segment"], ["product-pos"]]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(expressions(("x",)), st.sampled_from(MAP_SPACES),
       st.sampled_from([["verify", "--samples", "3"], ["estimate", "--pairs", "3"]]))
def test_map_exit_contract(text, space, command):
    argv = [command[0], f"--expr={text}", "--space", *space, *command[1:], "--seed", "1"]
    assert run_cli(argv) in {0, 2, 3, 4}
