import itertools
import math

import pytest

from mulmetric import spaces
from mulmetric.errors import InputError
from mulmetric.metric_core import PosVec
from mulmetric.verifier import verify_axioms, verify_contraction


def euclid_square_exp(x, y):
    """e^((x-y)^2): fails the multiplicative triangle inequality."""
    return math.exp((x - y) ** 2)


class TestVerifyAxioms:
    def test_d_star_passes(self):
        sp = spaces.positive_vectors(3)
        report = verify_axioms(sp.dist, sp.sample, 2000, seed=1,
                               points_equal=sp.points_equal)
        assert report.all_ok
        assert report.witnesses == []
        assert report.samples_used == 2000
        assert report.sampled_not_proved

    def test_segment_metric_passes(self):
        sp = spaces.segment_space()
        report = verify_axioms(sp.dist, sp.sample, 2000, seed=1,
                               points_equal=sp.points_equal)
        assert report.all_ok

    def test_refutes_squared_exponent(self):
        report = verify_axioms(euclid_square_exp,
                               lambda rng: float(rng.randint(-3, 3)),
                               500, seed=0)
        assert not report.m3_ok
        assert any(w.axiom == "m3" for w in report.witnesses)

    def test_witnesses_replay(self):
        report = verify_axioms(euclid_square_exp,
                               lambda rng: rng.uniform(-3, 3), 500, seed=2)
        for w in report.witnesses:
            if w.axiom != "m3":
                continue
            x, y, z = w.points
            lhs = math.log(euclid_square_exp(x, z))
            rhs = (math.log(euclid_square_exp(x, y))
                   + math.log(euclid_square_exp(y, z)))
            assert lhs > rhs + report.slack_log

    def test_known_triple_is_a_violation(self):
        # d(0,2) = e^4 > d(0,1) * d(1,2) = e^2
        lhs = math.log(euclid_square_exp(0, 2))
        rhs = math.log(euclid_square_exp(0, 1)) + math.log(euclid_square_exp(1, 2))
        assert lhs > rhs

    def test_close_distinct_points_not_refuted(self):
        # ln d = 5e-11 lies above the point-equality tolerance: the points
        # are distinct and d > 1, so m1 holds
        sp = spaces.positive_vectors(1)
        points = itertools.cycle([PosVec((1.0,)), PosVec((1.0 + 5e-11,))])
        report = verify_axioms(sp.dist, lambda rng: next(points), 10, seed=0,
                               points_equal=sp.points_equal)
        assert report.m1_ok
        assert report.witnesses == []

    def test_replay_determinism(self):
        sp = spaces.positive_vectors(2)
        a = verify_axioms(sp.dist, sp.sample, 300, seed=42)
        b = verify_axioms(sp.dist, sp.sample, 300, seed=42)
        assert a == b

    def test_rejects_zero_samples(self):
        sp = spaces.positive_reals()
        with pytest.raises(InputError):
            verify_axioms(sp.dist, sp.sample, 0)


class TestVerifyContraction:
    def test_sqrt_banach_half(self):
        sp = spaces.positive_reals()
        report = verify_contraction(math.sqrt, sp.dist, "banach", 0.5,
                                    sp.sample, 2000, seed=0)
        assert report.condition_ok

    def test_paper_scalar_condition(self):
        sp = spaces.positive_interval(0.1, 1.0)
        fn = lambda x: math.exp(x - 1 - x**3 / 10)
        report = verify_contraction(fn, sp.dist, "banach", 0.997,
                                    sp.sample, 2000, seed=0)
        assert report.condition_ok

    def test_square_map_refuted(self):
        sp = spaces.positive_reals()
        report = verify_contraction(lambda x: x * x, sp.dist, "banach", 0.9,
                                    sp.sample, 2000, seed=0)
        assert not report.condition_ok
        assert report.witnesses
        # each witness truly violates: lhs > lambda * ln d(x, y) + slack
        for w in report.witnesses[:10]:
            x, y = w.points
            lhs = sp.dist(x * x, y * y).log_value
            rhs = 0.9 * sp.dist(x, y).log_value
            assert lhs > rhs + report.slack_log

    def test_kannan_quarter(self):
        sp = spaces.real_line_exp()
        report = verify_contraction(lambda x: x / 4, sp.dist, "kannan", 1 / 3,
                                    sp.sample, 2000, seed=0)
        assert report.condition_ok

    def test_chatterjea_quarter(self):
        sp = spaces.real_line_exp()
        report = verify_contraction(lambda x: x / 4, sp.dist, "chatterjea", 0.2,
                                    sp.sample, 2000, seed=0)
        assert report.condition_ok

    def test_lambda_range_validation(self):
        sp = spaces.positive_reals()
        with pytest.raises(InputError):
            verify_contraction(math.sqrt, sp.dist, "kannan", 0.5, sp.sample, 10)
        with pytest.raises(InputError):
            verify_contraction(math.sqrt, sp.dist, "banach", 1.0, sp.sample, 10)

    def test_replay_determinism(self):
        sp = spaces.positive_reals()
        a = verify_contraction(math.sqrt, sp.dist, "banach", 0.5, sp.sample,
                               300, seed=9)
        b = verify_contraction(math.sqrt, sp.dist, "banach", 0.5, sp.sample,
                               300, seed=9)
        assert a == b
