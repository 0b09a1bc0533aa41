"""Each space takes only its own points: a complex point on a real space, or a vector
of another point type, is a DomainError, never a silent distance or a converged solve
(the CLI cases are in test_cli.TestOnePointForm)."""

import pytest

from mulmetric import fixed_point, spaces
from mulmetric.errors import DomainError
from mulmetric.metric_core import ComplexVec, RealVec
from mulmetric.spaces import SelfMap


def test_complex_point_has_no_distance():
    with pytest.raises(DomainError, match="not points of this space"):
        spaces.real_line_exp().dist(1j, 2.0)


def test_complex_map_does_not_converge():
    map_ = SelfMap("complex", lambda x: complex(x, 1) / 2, spaces.real_line_exp())
    with pytest.raises(DomainError, match="not points of this space"):
        fixed_point.solve(map_, 1.0, fixed_point.ContractionSpec("banach", 0.5))


@pytest.mark.parametrize("space, x, y", [
    (spaces.exp_metric(2, 2.0), ComplexVec((1j, 2)), ComplexVec((0, 2))),
    (spaces.positive_vectors(2), RealVec((1, 2)), RealVec((3, 2))),
    (spaces.exp_metric(2, 2.0, complex_coords=True), RealVec((1, 2)), RealVec((0, 2))),
], ids=["complex-on-real-d-a", "real-on-d-star", "real-on-complex-d-a"])
def test_vector_spaces_take_only_their_point_type(space, x, y):
    with pytest.raises(DomainError, match="not points of this space"):
        space.dist(x, y)
