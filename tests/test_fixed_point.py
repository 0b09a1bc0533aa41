import math
import random

import pytest

from mulmetric import spaces
from mulmetric.errors import (
    EstimationError,
    InputError,
    InvariantBreachError,
    PreconditionError,
)
from mulmetric.fixed_point import (
    ContractionSpec,
    apriori_bound,
    ball_solve,
    banach_solve,
    chatterjea_solve,
    estimate_lambda,
    kannan_solve,
    power_solve,
    uniqueness_probe,
)
from mulmetric.metric_core import SegmentPoint
from mulmetric.spaces import SelfMap

POS = spaces.positive_reals()
SQRT = SelfMap("sqrt", math.sqrt, POS)
BANACH_HALF = ContractionSpec("banach", 0.5)


def scalar_paper_map():
    space = spaces.positive_interval(0.1, 1.0)
    return SelfMap("scalar-exp-cubic", lambda x: math.exp(x - 1 - x**3 / 10), space)


class TestContractionSpec:
    def test_banach_range(self):
        ContractionSpec("banach", 0.999)
        with pytest.raises(InputError):
            ContractionSpec("banach", 1.0)
        with pytest.raises(InputError):
            ContractionSpec("banach", -0.1)

    def test_kannan_chatterjea_range(self):
        ContractionSpec("kannan", 0.49)
        with pytest.raises(InputError):
            ContractionSpec("kannan", 0.5)
        with pytest.raises(InputError):
            ContractionSpec("chatterjea", 0.6)

    def test_rates(self):
        assert ContractionSpec("banach", 0.5).rate == 0.5
        assert ContractionSpec("kannan", 1 / 3).rate == pytest.approx(0.5)
        assert ContractionSpec("chatterjea", 0.2).rate == pytest.approx(0.25)


class TestAprioriBound:
    def test_degenerate_start(self):
        for n in range(5):
            assert apriori_bound(0.0, 0.5, n) == 0.0

    def test_n_zero(self):
        assert apriori_bound(math.log(2), 0.5, 0) == pytest.approx(2 * math.log(2))

    def test_geometric_factor(self):
        assert apriori_bound(math.log(2), 0.5, 10) == pytest.approx(
            (2 / 1024) * math.log(2))

    def test_rate_out_of_range(self):
        with pytest.raises(InputError):
            apriori_bound(1.0, 1.0, 3)


class TestEstimateLambda:
    def test_sqrt_gives_half(self):
        lam, witness = estimate_lambda(SQRT, 500, "banach", seed=0)
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert len(witness) == 2

    def test_constant_map_gives_zero(self):
        const = SelfMap("const", lambda x: 3.0, POS)
        lam, _ = estimate_lambda(const, 500, "banach", seed=0)
        assert lam == 0.0

    def test_paper_scalar_below_paper_constant(self):
        lam, _ = estimate_lambda(scalar_paper_map(), 5000, "banach", seed=0)
        assert lam <= 0.997

    def test_all_degenerate(self):
        single = spaces.SpaceInstance("point", POS.dist, lambda rng: 1.0)
        with pytest.raises(EstimationError):
            estimate_lambda(SelfMap("id", lambda x: x, single), 10, "kannan")


class TestBanachSolve:
    def test_sqrt_toy(self):
        report = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        assert report.converged
        assert report.fixed_point == pytest.approx(1.0, abs=1e-11)
        # iterates 16, 4, 2, sqrt(2), ...
        pts = [s.point for s in report.trace[:4]]
        assert pts[:3] == [16.0, 4.0, 2.0]
        assert pts[3] == pytest.approx(math.sqrt(2))

    def test_paper_scalar_example(self):
        report = banach_solve(scalar_paper_map(), 0.5,
                              ContractionSpec("banach", 0.997), tol_log=1e-10,
                              max_iter=10**5)
        assert report.converged
        assert report.fixed_point == pytest.approx(0.7411317711, abs=1e-9)

    def test_segment_example(self):
        seg = spaces.segment_half_power_map()
        for start in [SegmentPoint(2, 1), SegmentPoint(1, 2), SegmentPoint(1.5, 1)]:
            report = banach_solve(seg, start, BANACH_HALF, tol_log=1e-13)
            assert report.converged
            assert report.residual_log <= 1e-12
            z = report.fixed_point
            assert (z.u, z.v) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_degenerate_start(self):
        report = banach_solve(SQRT, 1.0, BANACH_HALF)
        assert report.converged
        assert report.iterations == 0
        assert report.fixed_point == 1.0

    def test_step_chain_invariant(self):
        report = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        d10 = report.trace[0].step_log
        for s in report.trace:
            assert s.step_log <= 0.5**s.n * d10 + 1e-10

    def test_apriori_envelope(self):
        report = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        d10 = report.trace[0].step_log
        for s in report.trace:
            gap = POS.dist(s.point, 1.0).log_value
            assert gap <= apriori_bound(d10, 0.5, s.n) + 1e-9

    def test_wrong_lambda_breaches(self):
        square = SelfMap("square", lambda x: x * x, POS)
        with pytest.raises(InvariantBreachError):
            banach_solve(square, 2.0, BANACH_HALF, max_iter=100)

    @pytest.mark.parametrize("map_, x0", [
        (SQRT, 16.0),
        (SelfMap("half-plus-one", lambda x: x / 2 + 1, spaces.real_line_exp()), 0.0),
    ], ids=["sqrt-toy", "half-plus-one"])
    def test_zero_lambda_breaches_instead_of_converging(self, map_, x0):
        # rate 0 zeroes both bounds after one step; the unchecked residual was returned
        with pytest.raises(InvariantBreachError, match="^step 1: "):
            banach_solve(map_, x0, ContractionSpec("banach", 0.0))

    def test_negative_max_iter_rejected(self):
        with pytest.raises(InputError, match="max_iter"):
            banach_solve(SQRT, 16.0, BANACH_HALF, max_iter=-1)

    def test_max_iter_exhaustion(self):
        slow = SelfMap("slow", lambda x: x**0.999, POS)
        report = banach_solve(slow, 100.0, ContractionSpec("banach", 0.999),
                              tol_log=1e-14, max_iter=10)
        assert not report.converged
        assert report.iterations == 10
        assert len(report.trace) == 10

    def test_kind_mismatch(self):
        with pytest.raises(InputError):
            banach_solve(SQRT, 4.0, ContractionSpec("kannan", 0.3))

    def test_rescaling_equivariance(self):
        # conjugating by a positive scaling leaves the log-step trace unchanged
        s = 7.3
        scaled = SelfMap("scaled-sqrt", lambda x: s * math.sqrt(x / s), POS)
        base = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-10)
        conj = banach_solve(scaled, s * 16.0, BANACH_HALF, tol_log=1e-10)
        for a, b in zip(base.trace, conj.trace):
            assert abs(a.step_log - b.step_log) <= 1e-12


class TestBallSolve:
    def test_trivial_center(self):
        report = ball_solve(SQRT, 1.0, 2.0, BANACH_HALF)
        assert report.converged
        assert report.fixed_point == 1.0

    def test_boundary_precondition_accepted(self):
        # d(f4, 4) = 2 equals eps^(1-lambda) = 4^(1/2): boundary, accepted
        report = ball_solve(SQRT, 4.0, 4.0, BANACH_HALF, tol_log=1e-12)
        assert report.converged
        assert report.fixed_point == pytest.approx(1.0, abs=1e-11)
        # the fixed point sits on the closed-ball boundary: d(4, 1) = 4
        assert POS.dist(report.fixed_point, 4.0).log_value <= math.log(4.0) + 1e-12

    def test_precondition_rejected(self):
        # d(f64, 64) = 8 exceeds 2^(1/2)
        with pytest.raises(PreconditionError) as exc:
            ball_solve(SQRT, 64.0, 2.0, BANACH_HALF)
        assert exc.value.measured == pytest.approx(math.log(8), rel=1e-12)

    def test_epsilon_must_exceed_one(self):
        with pytest.raises(InputError):
            ball_solve(SQRT, 4.0, 1.0, BANACH_HALF)


class TestPowerSolve:
    def test_power_one_equals_banach(self):
        direct = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        powered = power_solve(SQRT, 1, BANACH_HALF, 16.0, tol_log=1e-12)
        assert powered.fixed_point == direct.fixed_point

    def test_sqrt_squared(self):
        spec = ContractionSpec("banach", 0.25)
        report = power_solve(SQRT, 2, spec, 16.0, tol_log=1e-12)
        assert report.converged
        assert report.fixed_point == pytest.approx(1.0, abs=1e-11)
        assert report.residual_log <= 1e-12

    def test_segment_composition(self):
        seg = spaces.segment_half_power_map()
        spec = ContractionSpec("banach", 0.25)
        report = power_solve(seg, 2, spec, SegmentPoint(2, 1), tol_log=1e-13)
        assert report.converged
        z = report.fixed_point
        assert (z.u, z.v) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert report.residual_log <= 1e-13

    def test_n_power_validation(self):
        with pytest.raises(InputError):
            power_solve(SQRT, 0, BANACH_HALF, 4.0)


class TestKannanChatterjea:
    LINE = spaces.real_line_exp()
    QUARTER = SelfMap("quarter", lambda x: x / 4.0, LINE)

    def test_kannan_quarter_map(self):
        report = kannan_solve(self.QUARTER, 8.0, ContractionSpec("kannan", 1 / 3),
                              tol_log=1e-10)
        assert report.converged
        assert abs(report.fixed_point) <= 1e-9

    def test_chatterjea_quarter_map(self):
        report = chatterjea_solve(self.QUARTER, 8.0,
                                  ContractionSpec("chatterjea", 0.2), tol_log=1e-10)
        assert report.converged
        assert abs(report.fixed_point) <= 1e-9

    def test_constant_map_kannan(self):
        const = SelfMap("const", lambda x: 2.5, self.LINE)
        report = kannan_solve(const, 8.0, ContractionSpec("kannan", 0.0))
        assert report.converged
        assert report.fixed_point == 2.5
        assert report.iterations == 1

    def test_constant_map_chatterjea(self):
        const = SelfMap("const", lambda x: -1.0, self.LINE)
        report = chatterjea_solve(const, 8.0, ContractionSpec("chatterjea", 0.0))
        assert report.converged
        assert report.fixed_point == -1.0

    def test_fixed_start(self):
        report = kannan_solve(self.QUARTER, 0.0, ContractionSpec("kannan", 1 / 3))
        assert report.converged
        assert report.iterations == 0

    def test_step_chain_with_h(self):
        report = kannan_solve(self.QUARTER, 8.0, ContractionSpec("kannan", 1 / 3),
                              tol_log=1e-10)
        h = 0.5
        d10 = report.trace[0].step_log
        for s in report.trace:
            assert s.step_log <= h**s.n * d10 + 1e-10


class TestUniquenessProbe:
    def test_sqrt_from_spread_starts(self):
        probe = uniqueness_probe(SQRT, BANACH_HALF, [16.0, 1 / 16.0, 3.0],
                                 tol_log=1e-12)
        assert probe.ok
        assert probe.max_pairwise_log <= 2e-12
        assert not probe.failures

    def test_segment_starts(self):
        seg = spaces.segment_half_power_map()
        probe = uniqueness_probe(seg, BANACH_HALF,
                                 [SegmentPoint(2, 1), SegmentPoint(1, 2),
                                  SegmentPoint(1.5, 1)], tol_log=1e-13)
        assert probe.ok
        for z in probe.fixed_points:
            assert (z.u, z.v) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_paper_scalar_starts(self):
        m = scalar_paper_map()
        starts = [0.1, 0.3, 0.5, 0.8, 1.0]
        probe = uniqueness_probe(m, ContractionSpec("banach", 0.997), starts,
                                 tol_log=1e-10, max_iter=10**5)
        assert probe.ok
        for z in probe.fixed_points:
            assert z == pytest.approx(0.7411317711, abs=1e-9)

    def test_failed_start_recorded(self):
        # breaching map: contraction claim wrong away from the fixed point
        square = SelfMap("square", lambda x: x * x, POS)
        probe = uniqueness_probe(square, BANACH_HALF, [1.0, 2.0], tol_log=1e-10,
                                 max_iter=50)
        assert probe.failures

    def test_needs_two_starts(self):
        with pytest.raises(InputError):
            uniqueness_probe(SQRT, BANACH_HALF, [4.0])
