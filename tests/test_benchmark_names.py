"""The traced benchmark looks up program names; keep every one of them alive.

perfbench/tracer.py imports only the standard library, so its name lists can
be read here without running the benchmark.
"""

import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from mulmetric import cli, fixed_point, metric_core, registry, sequence_analysis, spaces

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
