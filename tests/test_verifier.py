import dataclasses
import itertools
import math

import pytest

from mulmetric import spaces
from mulmetric.errors import InputError
from mulmetric.metric_core import MulDistance, PosVec
from mulmetric.spaces import SelfMap, SpaceInstance
from mulmetric.verifier import SLACK_LOG, Witness, _fails, verify_axioms, verify_contraction


def euclid_square_exp(x, y):
    """e^((x-y)^2): fails the multiplicative triangle inequality."""
    return math.exp((x - y) ** 2)


def candidate(dist, sample):
    """A candidate distance on scalar samples, checked on the scalar path: it has no
    chart, so points that are not `==` are distinct."""
    return SpaceInstance("candidate", sample, dist=dist)


def chartless(space):
    """The space without its chart: its distance kept, its axioms sampled, and its
    points told apart by `==`."""
    return dataclasses.replace(space, chart=None)


class TestVerifyAxioms:
    def test_d_star_passes(self):
        report = verify_axioms(spaces.positive_vectors(3), 2000, seed=1)
        assert report.all_ok
        assert report.witnesses == []
        assert report.samples_used == 2000
        assert not report.sampled_not_proved

    def test_segment_metric_passes(self):
        report = verify_axioms(spaces.segment_space(), 2000, seed=1)
        assert report.all_ok and not report.sampled_not_proved
        # the sampled tests on its distance find nothing either
        assert verify_axioms(chartless(spaces.segment_space()), 2000, seed=1).all_ok

    def test_refutes_squared_exponent(self):
        report = verify_axioms(candidate(euclid_square_exp,
                                         lambda rng: float(rng.randint(-3, 3))),
                               500, seed=0)
        assert not report.m3_ok
        assert any(w.axiom == "m3" for w in report.witnesses)

    def test_witnesses_replay(self):
        report = verify_axioms(candidate(euclid_square_exp, lambda rng: rng.uniform(-3, 3)),
                               500, seed=2)
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
        report = verify_axioms(candidate(sp.dist, lambda rng: next(points)), 10, seed=0)
        assert report.m1_ok
        assert report.witnesses == []

    def test_constant_distance_refuted_on_m1(self):
        # d = 1 for distinct floats violates m1; only `==` can see it
        dist, sample = lambda x, y: 1, lambda rng: rng.uniform(-5, 5)
        report = verify_axioms(candidate(dist, sample), 50, seed=4)
        assert not report.m1_ok
        assert report.witnesses
        for w in report.witnesses:
            x, y = w.points
            assert w.axiom == "m1" and x != y
            assert math.log(dist(x, y)) == w.values[0] <= 1e-12

    def test_distance_at_the_point_tolerance_refuted_on_m1(self):
        # ln d = POINT_EQ_TOL_LOG exactly between distinct points is no distance: m1 fails
        dist = lambda x, y: MulDistance(0.0 if x == y else 1e-12)
        points = itertools.cycle([1.0, 2.0])
        report = verify_axioms(candidate(dist, lambda rng: next(points)), 1, seed=0)
        assert not report.m1_ok
        assert report.witnesses[0].points == (1.0, 2.0)
        assert report.witnesses[0].values == (1e-12,)

    @pytest.mark.parametrize("test, name, value", [
        (0, "dxy", -SLACK_LOG), (1, "dxx", SLACK_LOG), (2, "dxy", SLACK_LOG),
        (3, "dxz", SLACK_LOG), (4, "dyz", SLACK_LOG),
    ], ids=["m1", "m1-self", "m2", "m3", "reverse"])
    def test_a_miss_by_exactly_the_slack_fails_no_test(self, test, name, value):
        # one ln d at the slack, the others 0: each test fails only when missed by more
        def fails(v):
            logs = {**dict.fromkeys(("dxy", "dyx", "dxz", "dyz", "dxx"), 0.0), name: v}
            return _fails(*logs.values(), SLACK_LOG)

        assert not any(fails(value))
        assert fails(math.nextafter(value, math.copysign(math.inf, value)))[test]

    def test_replay_determinism(self):
        sp = chartless(spaces.positive_vectors(2))
        a = verify_axioms(sp, 300, seed=42)
        b = verify_axioms(sp, 300, seed=42)
        assert a == b

    def test_rejects_zero_samples(self):
        with pytest.raises(InputError):
            verify_axioms(spaces.positive_reals(), 0)

    @pytest.mark.parametrize("path", [lambda space: space, chartless],
                             ids=["chart", "chartless"])
    def test_one_sample_is_enough(self, path):
        report = verify_axioms(path(spaces.positive_reals()), 1, seed=3)
        assert report.all_ok and report.samples_used == 1


class TestVerifyContraction:
    def test_sqrt_banach_half(self):
        sqrt = SelfMap("sqrt", math.sqrt, spaces.positive_reals())
        report = verify_contraction(sqrt, "banach", 0.5, 2000, seed=0)
        assert report.condition_ok

    def test_paper_scalar_condition(self):
        fn = SelfMap("paper-scalar", lambda x: math.exp(x - 1 - x**3 / 10),
                     spaces.positive_interval(0.1, 1.0))
        report = verify_contraction(fn, "banach", 0.997, 2000, seed=0)
        assert report.condition_ok

    def test_square_map_refuted(self):
        sp = spaces.positive_reals()
        report = verify_contraction(SelfMap("square", lambda x: x * x, sp), "banach", 0.9,
                                    2000, seed=0)
        assert not report.condition_ok
        assert report.witnesses
        # each witness truly violates: lhs > lambda * ln d(x, y) + slack
        for w in report.witnesses[:10]:
            x, y = w.points
            lhs = sp.dist(x * x, y * y).log_value
            rhs = 0.9 * sp.dist(x, y).log_value
            assert lhs > rhs + report.slack_log

    @pytest.mark.parametrize("path", [lambda sp: sp, lambda sp: dataclasses.replace(
        sp, dist=lambda x, y: sp.dist(x, y))], ids=["columns", "pair-loop"])
    @pytest.mark.parametrize("kind", ["banach", "kannan"])
    def test_witness_value_types(self, path, kind):
        # points as sampled, lhs a MulDistance as `dist` gives it, rhs = lambda * q a float
        sp = path(spaces.positive_reals())
        report = verify_contraction(SelfMap("square", lambda x: x * x, sp), kind, 0.1, 300,
                                    seed=4)
        assert len(report.witnesses) > 100
        for w in report.witnesses:
            assert type(w) is Witness and w.axiom == kind
            assert [type(p) for p in w.points] == [float, float]
            assert [type(v) for v in w.values] == [MulDistance, float]

    def test_kannan_quarter(self):
        quarter = SelfMap("quarter", lambda x: x / 4, spaces.real_line_exp())
        report = verify_contraction(quarter, "kannan", 1 / 3, 2000, seed=0)
        assert report.condition_ok

    def test_chatterjea_quarter(self):
        quarter = SelfMap("quarter", lambda x: x / 4, spaces.real_line_exp())
        report = verify_contraction(quarter, "chatterjea", 0.2, 2000, seed=0)
        assert report.condition_ok

    def test_lambda_range_validation(self):
        sqrt = SelfMap("sqrt", math.sqrt, spaces.positive_reals())
        with pytest.raises(InputError):
            verify_contraction(sqrt, "kannan", 0.5, 10)
        with pytest.raises(InputError):
            verify_contraction(sqrt, "banach", 1.0, 10)

    def test_replay_determinism(self):
        sqrt = SelfMap("sqrt", math.sqrt, spaces.positive_reals())
        a = verify_contraction(sqrt, "banach", 0.5, 300, seed=9)
        b = verify_contraction(sqrt, "banach", 0.5, 300, seed=9)
        assert a == b


class TestWitness:
    """A witness is a named tuple (axiom, points, values)."""

    def test_fields_and_positional_construction(self):
        w = Witness("m3", (1.0, 2.0, 3.0), (MulDistance(0.5), 0.25))
        assert Witness._fields == ("axiom", "points", "values")
        assert (w.axiom, w.points, w.values) == tuple(w)
        assert w == Witness(axiom="m3", points=(1.0, 2.0, 3.0), values=(0.5, 0.25))
        # a named tuple equals the plain tuple of its items
        assert w == ("m3", (1.0, 2.0, 3.0), (0.5, 0.25))

    def test_repr(self):
        w = Witness("m1", (1.0, 2.5), (MulDistance(0.5),))
        assert repr(w) == ("Witness(axiom='m1', points=(1.0, 2.5), "
                           "values=(MulDistance(log_value=0.5),))")
