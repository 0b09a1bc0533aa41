"""real-line-exp's points are real numbers: a complex point is a DomainError, never a
silent distance or a converged solve (the CLI cases are in test_cli.TestOnePointForm)."""

import pytest

from mulmetric import fixed_point, spaces
from mulmetric.errors import DomainError
from mulmetric.spaces import SelfMap


def test_complex_point_has_no_distance():
    with pytest.raises(DomainError, match="not points of this space"):
        spaces.real_line_exp().dist(1j, 2.0)


def test_complex_map_does_not_converge():
    map_ = SelfMap("complex", lambda x: complex(x, 1) / 2, spaces.real_line_exp())
    with pytest.raises(DomainError, match="not points of this space"):
        fixed_point.solve(map_, 1.0, fixed_point.ContractionSpec("banach", 0.5))
