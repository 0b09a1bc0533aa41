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
    dist_exp,
    dist_function_sup,
    dist_pos_vec,
    dist_segment,
    mabs,
    reverse_triangle_gap,
)
from mulmetric.errors import DomainError, ShapeError
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

    def test_product_adds_logs(self):
        d = MulDistance(math.log(2)) * MulDistance(math.log(3))
        assert d.value == pytest.approx(6.0)


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


class TestDistPosVec:
    def test_identity(self):
        assert dist_pos_vec(PosVec((2, 3)), PosVec((2, 3))).value == 1.0

    def test_product_of_ratios(self):
        # |2/1|* . |3/6|* = 2 . 2 = 4
        assert dist_pos_vec(PosVec((2, 3)), PosVec((1, 6))).value == pytest.approx(4.0, rel=1e-14)

    def test_scalar_case_matches_mabs(self):
        assert dist_pos_vec(PosVec((0.5,)), PosVec((1,))).value == pytest.approx(2.0, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            dist_pos_vec(PosVec((1, 2)), PosVec((1, 2, 3)))

    def test_rejects_nonpositive_coords(self):
        with pytest.raises(DomainError):
            dist_pos_vec(RealVec((1, -2)), PosVec((1, 2)))

    @pytest.mark.parametrize("x", [(2.0, 3.0), [2.0, 3.0], 2.0, ComplexVec((2, 3))])
    def test_rejects_non_vectors(self, x):
        with pytest.raises(DomainError):
            dist_pos_vec(x, PosVec((2, 3)))

    @given(st.lists(positive, min_size=1, max_size=6),
           st.lists(positive, min_size=1, max_size=6))
    def test_log_isometry_oracle(self, xs, ys):
        # master cross-check: ln d* is the L1 metric on log coordinates
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        oracle = sum(abs(math.log(a) - math.log(b)) for a, b in zip(xs, ys))
        assert abs(dist_pos_vec(PosVec(xs), PosVec(ys)).log_value - oracle) <= 1e-12


class TestDistExp:
    def test_real_closed_form(self):
        assert dist_exp(RealVec((1, 0)), RealVec((0, 0)), base=2).value == pytest.approx(
            2.0, rel=1e-14)

    def test_identity(self):
        x = RealVec((1.5, -2.0))
        assert dist_exp(x, x, base=math.e).value == 1.0

    def test_complex_modulus(self):
        assert dist_exp(ComplexVec((1j,)), RealVec((0,)), base=2).value == pytest.approx(
            2.0, rel=1e-14)

    def test_rejects_base_at_most_one(self):
        with pytest.raises(DomainError):
            dist_exp(RealVec((1,)), RealVec((0,)), base=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            dist_exp(RealVec((1, 2)), RealVec((1,)), base=2)

    @pytest.mark.parametrize("x", [(1.0, 0.0), 1.0, SegmentPoint(1.0, 2.0)])
    def test_rejects_non_vectors(self, x):
        with pytest.raises(DomainError):
            dist_exp(x, RealVec((0, 0)), base=2)

    def test_closed_form_random_pairs(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 5)
            a = rng.uniform(1.5, 5.0)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            expected = math.log(a) * sum(abs(u - v) for u, v in zip(x, y))
            assert dist_exp(RealVec(x), RealVec(y), a).log_value == expected


class TestDistProduct:
    @pytest.mark.parametrize("d1, d2, expected", [(1, 1, 1), (2, 3, 6), (4, 1, 4)])
    def test_products(self, d1, d2, expected):
        out = MulDistance.from_value(d1) * MulDistance.from_value(d2)
        assert out.value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("point", [1.0, (SegmentPoint(1.0, 1.0), 2.0, 3.0)],
                             ids=["float", "3-tuple"])
    def test_chartless_pair_space_rejects_non_pairs(self, point):
        space = spaces.product_space(spaces.segment_space(), spaces.positive_reals())
        assert space.chart is None
        pair = (SegmentPoint(1.0, 1.0), 2.0)
        assert space.dist(pair, pair).log_value == 0.0
        for p, q in ((point, pair), (pair, point)):
            with pytest.raises(DomainError, match="not points of this space"):
                space.dist(p, q)


class TestDistFunctionSup:
    def grid_fn(self, fn, a=1.0, b=2.0, n=257):
        return SampledPosFunction.from_callable(fn, a, b, n)

    def test_identity(self):
        f = self.grid_fn(lambda x: x + 1)
        assert dist_function_sup(f, f).value == 1.0

    def test_constant_ratio(self):
        f = self.grid_fn(lambda x: 2.0)
        g = self.grid_fn(lambda x: 1.0)
        assert dist_function_sup(f, g).value == pytest.approx(2.0, rel=1e-14)

    def test_max_attained_at_right_endpoint(self):
        # |ln x - ln x^2| = ln x on [1, 2], maximal at x = 2
        f = self.grid_fn(lambda x: x)
        g = self.grid_fn(lambda x: x * x)
        assert dist_function_sup(f, g).value == pytest.approx(2.0, rel=1e-12)

    def test_grid_mismatch(self):
        f = self.grid_fn(lambda x: x, n=16)
        g = self.grid_fn(lambda x: x, n=17)
        with pytest.raises(ShapeError):
            dist_function_sup(f, g)

    @pytest.mark.parametrize("x", [1.0, PosVec((1.0, 2.0))])
    def test_rejects_non_functions(self, x):
        f = self.grid_fn(lambda t: t)
        with pytest.raises(DomainError):
            dist_function_sup(x, f)
        with pytest.raises(DomainError):
            dist_function_sup(f, x)

    def test_invalid_function(self):
        with pytest.raises(DomainError):
            SampledPosFunction((0.0, 1.0), (1.0, -1.0))
        with pytest.raises(DomainError):
            SampledPosFunction((1.0, 0.0), (1.0, 1.0))


class TestDistSegment:
    def test_identity(self):
        p = SegmentPoint(1, 1)
        assert dist_segment(p, p).value == 1.0

    def test_same_segment(self):
        d = dist_segment(SegmentPoint(2, 1), SegmentPoint(1, 1))
        assert d.value == pytest.approx(2 ** (1 / 3), rel=1e-14)

    def test_cross_segment(self):
        d = dist_segment(SegmentPoint(2, 1), SegmentPoint(1, 2))
        assert d.value == pytest.approx(2 ** (2 / 3), rel=1e-14)

    def test_invalid_point(self):
        with pytest.raises(DomainError):
            SegmentPoint(1.5, 1.5)
        with pytest.raises(DomainError):
            SegmentPoint(3.0, 1.0)


class TestBalls:
    def test_radius_must_exceed_one(self):
        with pytest.raises(DomainError):
            MulBall.open_ball(4.0, 1.0)
        with pytest.raises(DomainError):
            MulBall.open_ball(4.0, 0.5)

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
