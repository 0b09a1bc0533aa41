"""benchmarks/layers.py's loader and interval helper, without timing anything.

The harness imports copies of two trees of the package in one process, each
under a package name of its own; a copy loaded that way must be a package of
its own that behaves as `mulmetric` does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mulmetric import cli, spaces

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "benchmarks" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def copy(layers):
    yield layers.load("mulmetric_copy", str(ROOT))
    for name in [n for n in sys.modules if n.split(".")[0] == "mulmetric_copy"]:
        del sys.modules[name]


def test_a_copy_is_a_package_of_its_own(copy):
    assert copy.cli is not cli and copy.cli.__name__ == "mulmetric_copy.cli"
    assert copy.spaces.SpaceInstance is not spaces.SpaceInstance


def test_a_copy_lists_the_same_examples(copy, capsys):
    assert cli.main(["examples"]) == 0
    ours = capsys.readouterr().out
    assert copy.cli.main(["examples"]) == 0
    assert capsys.readouterr().out == ours


@pytest.mark.parametrize("value", [1.0, 0.75, 1.0123])
def test_the_interval_of_constant_ratios_is_that_constant(layers, value):
    assert layers.interval([[value] * 16] * 20) == (value, value)
