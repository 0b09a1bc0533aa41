"""Each space takes only its own points: a complex point on a real space, or a vector
of another point type, is a DomainError, never a silent distance or a converged solve
(the CLI cases are in test_cli.TestOnePointForm)."""

import math

import pytest

from mulmetric import fixed_point, spaces
from mulmetric.errors import DomainError
from mulmetric.metric_core import ComplexVec, PosVec, RealVec
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


@pytest.mark.parametrize("space, x, y", [
    (spaces.positive_reals(), 1.0, math.inf),
    (spaces.real_line_exp(), math.inf, 0.0),
    (spaces.real_line_exp(), 0.0, -math.inf),
    (spaces.positive_vectors(2), PosVec((1.0, math.inf)), PosVec((1.0, 1.0))),
    (spaces.product_space(spaces.positive_reals(), spaces.positive_reals()),
     (1.0, math.inf), (1.0, 1.0)),
    (spaces.exp_metric(1, 1e300), RealVec((1e307,)), RealVec((0.0,))),
], ids=["pos-reals", "line", "line-minus", "d-star", "product-pos", "finite-gap-d-a"])
def test_an_infinite_distance_is_no_distance(space, x, y):
    # +inf is no point of a space, and d takes values in R_+: an infinite gap, or a
    # finite one that the scale takes to inf (690 * 1e307), is a DomainError both ways
    for p, q in ((x, y), (y, x)):
        with pytest.raises(DomainError, match="not points of this space"):
            space.dist(p, q)
