import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulmetric import (
    ComplexVec,
    MulBall,
    MulDistance,
    PosVec,
    RealVec,
    SampledPosFunction,
    SegmentPoint,
    ball_contains,
    mabs,
    reverse_triangle_gap,
)
from mulmetric.errors import DomainError, InputError, ShapeError
from mulmetric import spaces

positive = st.floats(min_value=1e-6, max_value=1e6)


class TestMulDistance:
    def test_log_value_nonnegative(self):
        with pytest.raises(DomainError):
            MulDistance(-0.1)

    def test_from_value_rejects_below_one(self):
        with pytest.raises(DomainError):
            MulDistance.from_value(0.99)

    def test_round_trip(self):
        d = MulDistance.from_value(3.0)
        assert d.value == pytest.approx(3.0)

    def test_boundary_values(self):
        # d = 1, i.e. rho = 0, is a distance (equal points); NaN is not
        assert MulDistance.from_value(1.0) == 0.0
        assert MulDistance(0.0).log_value == 0.0
        with pytest.raises(DomainError, match="log_value must be >= 0, got nan"):
            MulDistance(math.nan)

    def test_is_the_float_ln_d(self):
        d = MulDistance(0.5)
        assert d == d.log_value == 0.5 and d + 1.0 == 1.5 and d.value == math.exp(0.5)
        assert repr(d) == "MulDistance(log_value=0.5)"
        with pytest.raises(AttributeError):
            d.log_value = 1.0


class TestMabs:
    @pytest.mark.parametrize("a, expected", [(1.0, 1.0), (0.5, 2.0), (3.0, 3.0)])
    def test_piecewise(self, a, expected):
        assert mabs(a).value == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mabs(0.0)
        with pytest.raises(DomainError):
            mabs(-2.0)

    @given(positive)
    def test_equals_exp_abs_log(self, a):
        assert mabs(a).log_value == abs(math.log(a))


def dist_pos_vec(n: int):
    """d* on R_+^n: the distance of the space of n-vectors."""
    return spaces.positive_vectors(n).dist


def dist_exp(n: int, base: float):
    """d_a on R^n or C^n: the distance of the space of n-vectors."""
    return spaces.exp_metric(n, base).dist


class TestDistPosVec:
    def test_identity(self):
        assert dist_pos_vec(2)(PosVec((2, 3)), PosVec((2, 3))).value == 1.0

    def test_product_of_ratios(self):
        # |2/1|* . |3/6|* = 2 . 2 = 4
        d = dist_pos_vec(2)(PosVec((2, 3)), PosVec((1, 6)))
        assert d.value == pytest.approx(4.0, rel=1e-14)

    def test_scalar_case_matches_mabs(self):
        assert dist_pos_vec(1)(PosVec((0.5,)), PosVec((1,))).value == pytest.approx(2.0, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            dist_pos_vec(2)(PosVec((1, 2)), PosVec((1, 2, 3)))

    def test_rejects_nonpositive_coords(self):
        with pytest.raises(DomainError):
            dist_pos_vec(2)(RealVec((1, -2)), PosVec((1, 2)))
        with pytest.raises(DomainError, match="strictly positive"):
            PosVec((1.0, 0.0))

    @pytest.mark.parametrize("x", [(2.0, 3.0), [2.0, 3.0], 2.0, ComplexVec((2, 3))])
    def test_rejects_non_vectors(self, x):
        with pytest.raises(DomainError):
            dist_pos_vec(2)(x, PosVec((2, 3)))

    @given(st.lists(positive, min_size=1, max_size=6),
           st.lists(positive, min_size=1, max_size=6))
    def test_log_isometry_oracle(self, xs, ys):
        # master cross-check: ln d* is the L1 metric on log coordinates
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        oracle = sum(abs(math.log(a) - math.log(b)) for a, b in zip(xs, ys))
        assert abs(dist_pos_vec(n)(PosVec(xs), PosVec(ys)).log_value - oracle) <= 1e-12


class TestDistExp:
    def test_real_closed_form(self):
        assert dist_exp(2, base=2)(RealVec((1, 0)), RealVec((0, 0))).value == pytest.approx(
            2.0, rel=1e-14)

    def test_identity(self):
        x = RealVec((1.5, -2.0))
        assert dist_exp(2, base=math.e)(x, x).value == 1.0

    def test_complex_modulus(self):
        dist = spaces.exp_metric(1, 2, complex_coords=True).dist
        assert dist(ComplexVec((1j,)), ComplexVec((0,))).value == pytest.approx(2.0, rel=1e-14)

    def test_rejects_base_at_most_one(self):
        with pytest.raises(DomainError):
            dist_exp(1, base=1.0)(RealVec((1,)), RealVec((0,)))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            dist_exp(2, base=2)(RealVec((1, 2)), RealVec((1,)))

    @pytest.mark.parametrize("x", [(1.0, 0.0), 1.0, SegmentPoint(1.0, 2.0)])
    def test_rejects_non_vectors(self, x):
        with pytest.raises(DomainError):
            dist_exp(2, base=2)(x, RealVec((0, 0)))

    def test_closed_form_random_pairs(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 5)
            a = rng.uniform(1.5, 5.0)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            expected = math.log(a) * sum(abs(u - v) for u, v in zip(x, y))
            assert dist_exp(n, a)(RealVec(x), RealVec(y)).log_value == expected


class TestDistProduct:
    @pytest.mark.parametrize("point", [1.0, (SegmentPoint(1.0, 1.0), 2.0, 3.0)],
                             ids=["float", "3-tuple"])
    def test_chartless_pair_space_rejects_non_pairs(self, point):
        # factors of two scales have no common chart: no pair space is built
        with pytest.raises(InputError, match="no chart"):
            spaces.product_space(spaces.segment_space(), spaces.positive_reals())
        space = spaces.product_space(spaces.segment_space(), spaces.segment_space())
        pair = (SegmentPoint(1.0, 1.0), SegmentPoint(2.0, 1.0))
        assert space.dist(pair, pair).log_value == 0.0
        for p, q in ((point, pair), (pair, point)):
            with pytest.raises(DomainError, match="not points of this space"):
                space.dist(p, q)

    def test_vector_factors_concatenate_their_coordinates(self):
        space = spaces.product_space(spaces.positive_vectors(2), spaces.positive_reals())
        p, q = (PosVec((1.0, 2.0)), 3.0), (PosVec((2.0, 2.0)), 1.5)
        gaps = [abs(math.log(a) - math.log(b)) for a, b in [(1.0, 2.0), (2.0, 2.0), (3.0, 1.5)]]
        assert space.dist(p, q).log_value == sum(gaps)
        with pytest.raises(ShapeError):
            space.dist((PosVec((1.0, 2.0, 3.0)), 3.0), q)


class TestDistFunctionSup:
    def grid_fn(self, fn, a=1.0, b=2.0, n=257):
        return SampledPosFunction.from_callable(fn, a, b, n)

    def dist_function_sup(self, n=257):
        """The sup metric of function_space(1, 2, n), the space of grid_fn's functions."""
        return spaces.function_space(1.0, 2.0, n).dist

    def test_identity(self):
        f = self.grid_fn(lambda x: x + 1)
        assert self.dist_function_sup()(f, f).value == 1.0

    def test_constant_ratio(self):
        f = self.grid_fn(lambda x: 2.0)
        g = self.grid_fn(lambda x: 1.0)
        assert self.dist_function_sup()(f, g).value == pytest.approx(2.0, rel=1e-14)

    def test_max_attained_at_right_endpoint(self):
        # |ln x - ln x^2| = ln x on [1, 2], maximal at x = 2
        f = self.grid_fn(lambda x: x)
        g = self.grid_fn(lambda x: x * x)
        assert self.dist_function_sup()(f, g).value == pytest.approx(2.0, rel=1e-12)

    def test_grid_mismatch(self):
        f = self.grid_fn(lambda x: x, n=16)
        g = self.grid_fn(lambda x: x, n=17)
        with pytest.raises(ShapeError):
            self.dist_function_sup(16)(f, g)

    @pytest.mark.parametrize("x", [1.0, PosVec((1.0, 2.0))])
    def test_rejects_non_functions(self, x):
        f = self.grid_fn(lambda t: t)
        with pytest.raises(DomainError):
            self.dist_function_sup()(x, f)
        with pytest.raises(DomainError):
            self.dist_function_sup()(f, x)

    def test_invalid_function(self):
        with pytest.raises(DomainError):
            SampledPosFunction((0.0, 1.0), (1.0, -1.0))
        with pytest.raises(DomainError):
            SampledPosFunction((1.0, 0.0), (1.0, 1.0))
        with pytest.raises(DomainError, match="function values must be strictly positive"):
            SampledPosFunction((0.0, 1.0), (1.0, 0.0))

    def test_interval_must_not_be_empty(self):
        with pytest.raises(DomainError, match="need b > a"):
            spaces.function_space(1.0, 1.0)


class TestDistSegment:
    dist_segment = staticmethod(spaces.segment_space().dist)

    def test_identity(self):
        p = SegmentPoint(1, 1)
        assert self.dist_segment(p, p).value == 1.0

    def test_same_segment(self):
        d = self.dist_segment(SegmentPoint(2, 1), SegmentPoint(1, 1))
        assert d.value == pytest.approx(2 ** (1 / 3), rel=1e-14)

    def test_cross_segment(self):
        d = self.dist_segment(SegmentPoint(2, 1), SegmentPoint(1, 2))
        assert d.value == pytest.approx(2 ** (2 / 3), rel=1e-14)

    def test_invalid_point(self):
        with pytest.raises(DomainError):
            SegmentPoint(1.5, 1.5)
        with pytest.raises(DomainError):
            SegmentPoint(3.0, 1.0)


class TestSegmentPoint:
    @pytest.mark.parametrize("u, v", [("1.5", 1), (2, "1"), ("1", "1.0")])
    def test_fields_are_floats(self, u, v):
        p = SegmentPoint(u, v)
        assert (type(p.u), type(p.v)) == (float, float)
        assert p == SegmentPoint(float(u), float(v))
        assert hash(p) == hash(SegmentPoint(float(u), float(v)))

    def test_error_texts_show_the_point(self):
        with pytest.raises(DomainError, match=r"^segment coordinates must lie in \[1, 2\]: "
                           r"SegmentPoint\(u=3\.0, v=1\.0\)$"):
            SegmentPoint("3", 1)
        with pytest.raises(DomainError, match=r"^one coordinate must equal 1: "
                           r"SegmentPoint\(u=1\.5, v=1\.5\)$"):
            SegmentPoint(1.5, 1.5)

    def test_frozen(self):
        p = SegmentPoint(1.5, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.u = 1.25
        assert repr(p) == "SegmentPoint(u=1.5, v=1.0)"
        assert [f.name for f in dataclasses.fields(p)] == ["u", "v"]

    def test_replace(self):
        p = dataclasses.replace(SegmentPoint(1.5, 1.0), u=2)
        assert p == SegmentPoint(2.0, 1.0) and type(p.u) is float
        with pytest.raises(DomainError, match="one coordinate must equal 1"):
            dataclasses.replace(p, v=1.5)

    def test_sampler_draws_as_uniform_did(self):
        # 1.0 + rng.random() is rng.uniform(1.0, 2.0) bit for bit
        sample, a, b = spaces.segment_space().sample, random.Random(5), random.Random(5)
        for _ in range(200):
            t = b.uniform(1.0, 2.0)
            former = SegmentPoint(t, 1.0) if b.random() < 0.5 else SegmentPoint(1.0, t)
            assert sample(a) == former


class TestBalls:
    def test_radius_must_exceed_one(self):
        with pytest.raises(DomainError, match=r"^radius must exceed 1, got 1\.0$"):
            MulBall.open_ball(4.0, 1.0)
        with pytest.raises(DomainError):
            MulBall.open_ball(4.0, 0.5)
        # the boundary radius 1 (ln eps = 0) is no ball, open or closed
        with pytest.raises(DomainError, match=r"^radius must exceed 1, got 1\.0$"):
            MulBall.closed_ball(4.0, 1.0)
        with pytest.raises(DomainError):
            MulBall(4.0, 0.0)

    def test_interval_example(self):
        # in (R+, |.|*) the ball of radius 2 at 4 is the interval (2, 8)
        sp = spaces.positive_reals()
        ball = MulBall.open_ball(4.0, 2.0)
        assert ball_contains(ball, 3.0, sp)
        assert not ball_contains(ball, 8.5, sp)
        assert not ball_contains(ball, 1.9, sp)
        # boundary: d(1, 2) = 2 exactly, open excludes it, closed keeps it
        assert not ball_contains(MulBall.open_ball(1.0, 2.0), 2.0, sp)
        assert ball_contains(MulBall.closed_ball(1.0, 2.0), 2.0, sp)

    def test_center_always_inside(self):
        sp = spaces.positive_reals()
        assert ball_contains(MulBall.open_ball(4.0, 1.0001), 4.0, sp)

    def test_interval_characterization_random(self):
        sp = spaces.positive_reals()
        rng = random.Random(11)
        for _ in range(1000):
            x0 = math.exp(rng.uniform(-4, 4))
            eps = math.exp(rng.uniform(0.01, 3))
            p = math.exp(rng.uniform(-5, 5))
            inside = x0 / eps < p < x0 * eps
            assert ball_contains(MulBall.open_ball(x0, eps), p, sp) == inside


class TestReverseTriangle:
    def test_degenerate(self):
        sp = spaces.positive_reals()
        lhs, rhs = reverse_triangle_gap(2.0, 2.0, 5.0, sp)
        assert lhs.value == pytest.approx(1.0)
        assert rhs.value == pytest.approx(1.0)

    def test_scalar_equality_case(self):
        sp = spaces.positive_reals()
        lhs, rhs = reverse_triangle_gap(1.0, 2.0, 4.0, sp)
        assert lhs.value == pytest.approx(2.0, rel=1e-14)
        assert rhs.value == pytest.approx(2.0, rel=1e-14)

    def test_z_equals_x_gives_equality(self):
        sp = spaces.positive_reals()
        lhs, rhs = reverse_triangle_gap(3.0, 7.0, 3.0, sp)
        assert lhs.log_value == pytest.approx(rhs.log_value, abs=1e-12)

    @given(positive, positive, positive)
    def test_holds_on_positive_reals(self, x, y, z):
        sp = spaces.positive_reals()
        lhs, rhs = reverse_triangle_gap(x, y, z, sp)
        assert lhs.log_value <= rhs.log_value + 1e-12


@pytest.mark.parametrize("make_space", [
    lambda: spaces.positive_reals(),
    lambda: spaces.positive_vectors(3),
    lambda: spaces.exp_metric(2, base=2.0),
    lambda: spaces.exp_metric(2, base=math.e, complex_coords=True),
    lambda: spaces.segment_space(),
    lambda: spaces.function_space(0.0, 1.0, n_grid=64),
    lambda: spaces.product_space(spaces.positive_reals(), spaces.positive_reals()),
], ids=["pos-reals", "d-star-3", "d-a-2", "d-a-complex", "segment",
        "func-sup", "product"])
def test_metric_axioms_on_sampled_triples(make_space):
    sp = make_space()
    rng = random.Random(3)
    for _ in range(300):
        x, y, z = sp.sample(rng), sp.sample(rng), sp.sample(rng)
        dxy = sp.dist(x, y).log_value
        dyx = sp.dist(y, x).log_value
        dxz = sp.dist(x, z).log_value
        dyz = sp.dist(y, z).log_value
        assert dxy >= 0.0
        assert sp.dist(x, x).log_value <= 1e-12
        assert dxy == dyx
        assert dxz <= dxy + dyz + 1e-12
        lhs, rhs = reverse_triangle_gap(x, y, z, sp)
        assert lhs.log_value <= rhs.log_value + 1e-12


class TestPositiveInterval:
    SPACE = spaces.positive_interval(0.1, 1.0)

    def test_samples_and_endpoints_are_members(self):
        rng = random.Random(0)
        points = [self.SPACE.sample(rng) for _ in range(200)] + [0.1, 1.0]
        for p in points:
            assert self.SPACE.dist(p, 0.5).log_value >= 0

    @pytest.mark.parametrize("outside", [5.0, 0.05, 1.0 + 1e-9])
    def test_rejects_points_outside(self, outside):
        with pytest.raises(DomainError, match=repr(outside)):
            self.SPACE.dist(0.5, outside)


class TestMembership:
    """A chart space's phi decides what a point of the space is."""

    def test_d_star_rejects_points_of_another_dimension(self):
        with pytest.raises(ShapeError):
            spaces.positive_vectors(2).dist(PosVec((1, 2, 3)), PosVec((1, 2, 4)))

    def test_d_a_rejects_points_of_another_dimension(self):
        with pytest.raises(ShapeError):
            spaces.exp_metric(2, 2.0).dist(RealVec((1, 2, 3)), RealVec((1, 2, 4)))

    def test_func_sup_rejects_functions_on_another_grid(self):
        g = SampledPosFunction.from_callable(lambda x: x + 1, 0.0, 2.0, 8)
        with pytest.raises(ShapeError):
            spaces.function_space(0.0, 1.0, 8).dist(g, g)
