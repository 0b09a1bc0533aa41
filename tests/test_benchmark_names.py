"""The traced benchmark looks up program names; keep every one of them alive.

perfbench/tracer.py imports only the standard library, so its name lists can
be read here without running the benchmark.  The benchmark also reads
`space.dist(p, q).log_value` as a plain float, and counts distances by
wrapping `space.dist`, so no internal call may go round that handle.  One
does, on purpose: on a one-coordinate chart `sequence_analysis._row_maxima`
scans the chart coordinates even where `dist` is wrapped, so a wrapped
distance never sees the row maxima of `bounded_diagnostic` and
`cauchy_diagnostic` (README: "A wrapped distance ... still gets the scan").
"""

import importlib.util
import math
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest

from mulmetric import (cli, fixed_point, metric_core, registry, sequence_analysis, spaces,
                       verifier)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("list_name, module", [
    ("SPACE_FACTORIES", spaces),
    ("REGISTRY_FUNCS", registry),
    ("SOLVERS", fixed_point),
    ("DIAGNOSTICS", sequence_analysis),
])
def test_tracer_lists_name_existing_functions(list_name, module):
    names = getattr(load_tracer(), list_name)
    assert names
    for name in names:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_other_looked_up_names_exist():
    for name in ("PosVec", "RealVec", "ComplexVec", "SegmentPoint", "SampledPosFunction"):
        assert hasattr(metric_core, name)
    for name in ("main", "build_parser", "verify_axioms", "verify_contraction", "compile_expr"):
        assert hasattr(cli, name)
    assert callable(fixed_point.estimate_lambda)
    assert callable(registry.build_space) and callable(registry.compile_expr)
    assert {"dist", "sample"} <= {f.name for f in fields(spaces.SpaceInstance)}
    assert callable(spaces.SelfMap.__call__)


def every_space():
    bounds = {"pos-interval": {"lo": 0.1, "hi": 1.0}}
    return [spaces.build(space_id, **bounds.get(space_id, {})) for space_id in spaces.SPACES]


@pytest.mark.parametrize("space", every_space(), ids=list(spaces.SPACES))
def test_a_distance_is_a_float_with_a_plain_log_value(space):
    # the benchmark's distance check reads space.dist(p, q).log_value as a number
    rng = random.Random(0)
    d = space.dist(space.sample(rng), space.sample(rng))
    assert isinstance(d, metric_core.MulDistance) and isinstance(d, float)
    assert type(d.log_value) is float and d.log_value == d > 0.0


def counted(space):
    """The space with its distance wrapped through dataclasses.replace, as the
    tracer wraps it, and the list its calls are counted in."""
    calls = []
    return replace(space, dist=lambda p, q: (calls.append(1), space.dist(p, q))[1]), calls


def test_every_scalar_distance_goes_through_the_handle():
    space, calls = counted(spaces.positive_reals())
    half = spaces.SelfMap("sqrt", math.sqrt, space)
    report = fixed_point.solve(half, 4.0, fixed_point.ContractionSpec("banach", 0.5))
    assert report.converged and len(calls) == report.iterations + 1
    calls.clear()
    verifier.verify_contraction(half, "kannan", 0.4, 20, seed=1)
    assert len(calls) == 3 * 20
    calls.clear()
    fixed_point.estimate_lambda(half, 20, seed=1)
    assert len(calls) == 2 * 20
    calls.clear()
    assert metric_core.ball_contains(metric_core.MulBall.open_ball(1.0, 2.0), 1.5, space)
    assert len(calls) == 1
    calls.clear()
    seq = [1.0 + 2.0**-k for k in range(40)]
    assert sequence_analysis.convergence_diagnostic(seq, 1.0, space, 1e-3).verdict
    assert len(calls) == 40 - sequence_analysis.tail_start(40)
