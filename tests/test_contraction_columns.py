"""The column pass of the contraction checks against the pair-by-pair loops it
replaced: `verify_contraction` and `estimate_lambda` on a scalar chart space give
the same reports, constants, witnesses and errors, bit for bit."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulmetric import fixed_point, spaces
from mulmetric.errors import DomainError, EstimationError
from mulmetric.expressions import compile_expr
from mulmetric.fixed_point import PAIR_BLOCK, contraction_logs, estimate_lambda
from mulmetric.metric_core import LINE_CHART, SegmentPoint
from mulmetric.spaces import SelfMap, SpaceInstance
from mulmetric.verifier import SLACK_LOG, ContractionReport, Witness, verify_contraction


def reference_verify(map_, kind, lam, n, seed):
    """verify_contraction as one loop over pairs."""
    dist, sample, rng = map_.space.dist, map_.space.sample, random.Random(seed)
    witnesses = []
    for _ in range(n):
        x, y = sample(rng), sample(rng)
        lhs, q = contraction_logs(kind, dist, x, y, map_(x), map_(y))
        rhs = lam * q
        if lhs > rhs + SLACK_LOG:
            witnesses.append(Witness(kind, (x, y), (lhs, rhs)))
    return ContractionReport(kind, lam, not witnesses, witnesses, n, seed, SLACK_LOG)


def reference_estimate(map_, n, kind, seed):
    """estimate_lambda as one loop over pairs."""
    dist, sample, rng = map_.space.dist, map_.space.sample, random.Random(seed)
    best = witness = None
    for _ in range(n):
        x, y = sample(rng), sample(rng)
        num, den = contraction_logs(kind, dist, x, y, map_(x), map_(y))
        if den <= 1e-12:
            continue
        ratio = num / den
        if best is None or ratio > best:
            best, witness = ratio, (x, y)
    if best is None:
        raise EstimationError("all sampled pairs were degenerate")
    return best, witness


def outcome(fn, *args):
    """A result as its repr with the types of its values, or an error as type and text."""
    try:
        result = fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    if isinstance(result, ContractionReport):
        values = [(type(v), *map(type, w.points)) for w in result.witnesses for v in w.values]
        return repr(result), values
    best, (x, y) = result
    return repr(result), type(best), type(x), type(y)


def wrapped(map_):
    """The map on its space with `dist` wrapped: the pair-by-pair path."""
    space = map_.space
    return SelfMap(map_.name, map_.fn, replace(space, dist=lambda p, q: space.dist(p, q)))


def assert_paths_agree(map_, kind, lam, n, seed):
    verify = [outcome(verify_contraction, m, kind, lam, n, seed) for m in (map_, wrapped(map_))]
    assert verify == [outcome(reference_verify, map_, kind, lam, n, seed)] * 2
    estimate = [outcome(estimate_lambda, m, n, kind, seed) for m in (map_, wrapped(map_))]
    assert estimate == [outcome(reference_estimate, map_, n, kind, seed)] * 2


SCALAR_SPACES = {
    "pos-reals": spaces.positive_reals(),
    "pos-interval": spaces.positive_interval(0.1, 1.0),
    "real-line-exp": spaces.real_line_exp(),
}
MAP_TEXTS = ["x", "x/4", "2*x", "sqrt(x)", "x*(1-0.3*x^2)", "1/x", "x^0.5+1", "exp(-x)",
             "ln(x+9)", "x*1e300", "x*1e307", "x^1e300", "abs(x)/3", "0.5", "x-x"]
LAMBDAS = {"banach": [0.0, 0.1, 0.5, 0.7, 0.99], "kannan": [0.0, 0.1, 1 / 3, 0.49],
           "chatterjea": [0.0, 0.1, 0.2, 0.49]}
COUNTS = [1, 7, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 3 * PAIR_BLOCK + 5]
SEEDS = st.integers(0, 2**32 - 1)


def kind_and_lambda():
    return st.sampled_from(sorted(LAMBDAS)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.sampled_from(LAMBDAS[kind])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCALAR_SPACES)), st.sampled_from(MAP_TEXTS), kind_and_lambda(),
       st.sampled_from(COUNTS), SEEDS)
def test_expression_maps_agree(space_id, text, kind_lam, n, seed):
    space = SCALAR_SPACES[space_id]
    assert space.dist is space.chart.dist and space.chart.scalar  # the column pass applies
    assert_paths_agree(SelfMap(text, compile_expr(text, ("x",)), space), *kind_lam, n, seed)


SEGMENT = spaces.segment_space()
SEGMENT_MAPS = {
    "half-power": spaces.segment_half_power,
    "swap": lambda p: SegmentPoint(p.v, p.u),
    "identity": lambda p: p,
    "corner": lambda p: SegmentPoint(1.0, 1.0),
    "square-u": lambda p: SegmentPoint(p.u ** 2, p.v),  # leaves the segment: DomainError
    "to-float": lambda p: p.u,                          # not a point of the space
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SEGMENT_MAPS)), kind_and_lambda(), st.sampled_from(COUNTS),
       SEEDS)
def test_segment_maps_agree(name, kind_lam, n, seed):
    assert_paths_agree(SelfMap(name, SEGMENT_MAPS[name], SEGMENT), *kind_lam, n, seed)


@pytest.mark.parametrize("space_id, text", [
    ("real-line-exp", "ln(x+9)"),   # the map raises where x < -9
    ("pos-reals", "x*1e307"),       # inf where x > 17.9: no point of the space
    ("pos-reals", "sqrt(x-0.05)"),  # the map raises where x < 0.05
])
@pytest.mark.parametrize("kind", sorted(LAMBDAS))
def test_maps_that_raise_partway_through_a_block(space_id, text, kind):
    map_ = SelfMap(text, compile_expr(text, ("x",)), SCALAR_SPACES[space_id])

    def raises(n, seed):
        return isinstance(outcome(reference_verify, map_, kind, 0.1, n, seed)[0], type)

    # seeds whose first three pairs pass and a later pair of the block raises
    partway = [seed for seed in range(12) if raises(PAIR_BLOCK, seed) and not raises(3, seed)]
    assert partway
    for seed in partway:
        assert_paths_agree(map_, kind, 0.1, PAIR_BLOCK, seed)


def listed(*values):
    """A space on the line under d_e whose sampler draws one of the given points."""
    return SpaceInstance("listed", lambda rng: values[int(len(values) * rng.random())],
                         LINE_CHART)


def test_degenerate_pairs_are_skipped_on_both_paths():
    # three points only: a third of the banach pairs have x == y, den = 0
    halve = SelfMap("halve", lambda x: x / 2, listed(0.0, 1.0, 2.0))
    # kannan: den = |fx - x| + |fy - y| is 0 where both points are fixed (x, y < 0)
    lazy = SelfMap("lazy", lambda x: x if x < 0 else x / 2, spaces.real_line_exp())
    for map_, kind in ((halve, "banach"), (lazy, "kannan")):
        for seed in range(5):
            rng, skipped = random.Random(seed), 0
            for _ in range(40):
                x, y = map_.space.sample(rng), map_.space.sample(rng)
                skipped += contraction_logs(kind, map_.space.dist, x, y, map_(x), map_(y))[1] \
                    <= 1e-12
            assert skipped
            assert_paths_agree(map_, kind, 0.3, 40, seed)
    # every pair degenerate: the same error on both paths
    fixed = SelfMap("id", lambda x: x, spaces.real_line_exp())
    assert_paths_agree(fixed, "kannan", 0.3, PAIR_BLOCK + 3, 1)
    with pytest.raises(EstimationError):
        estimate_lambda(fixed, 10, "kannan")
    # den = ln d(x, y) = 1e-12 exactly is degenerate too
    tiny = SelfMap("halve", lambda x: x / 2, listed(0.0, 1e-12))
    for map_ in (tiny, wrapped(tiny)):
        with pytest.raises(EstimationError):
            estimate_lambda(map_, 50, "banach", 2)


def test_an_infinite_image_is_the_same_error_on_both_paths():
    # +inf is no point of the line: a pair with one infinite image is the DomainError
    # that names it, in the column pass as in the pair loop, so no ratio is NaN
    space = spaces.real_line_exp()
    map_ = SelfMap("blow-up", lambda x: math.inf if x > 9.5 else x / 4, space)
    for kind, lam in (("banach", 0.5), ("kannan", 0.3), ("chatterjea", 0.3)):
        for seed in range(3):
            assert_paths_agree(map_, kind, lam, PAIR_BLOCK, seed)
            error, text = outcome(estimate_lambda, map_, PAIR_BLOCK, kind, seed)
            assert error is DomainError and text.startswith("not points of this space: ")
            assert "inf" in text


def test_a_violation_by_exactly_the_slack_is_no_witness():
    # lhs = ln d(fx, fy) = 1e-10 = 0 * q + SLACK_LOG where x != y: not a violation
    map_ = SelfMap("shrink", lambda x: x * SLACK_LOG, listed(0.0, 1.0))
    for m in (map_, wrapped(map_)):
        assert verify_contraction(m, "banach", 0.0, 50, seed=1).condition_ok


def test_the_column_pass_draws_what_the_pair_loop_draws():
    # blocks of at most PAIR_BLOCK pairs, holding the pair loop's points in its order
    map_ = SelfMap("sqrt", math.sqrt, SCALAR_SPACES["pos-reals"])
    blocks = list(fixed_point.contraction_blocks(map_, "banach", 2 * PAIR_BLOCK + 1, 9))
    assert [len(b[0]) for b in blocks] == [PAIR_BLOCK, PAIR_BLOCK, 1]
    rng = random.Random(9)
    points = [map_.space.sample(rng) for _ in range(2 * (2 * PAIR_BLOCK + 1))]
    assert [x for b in blocks for x in b[0]] == points[0::2]
    assert [y for b in blocks for y in b[1]] == points[1::2]
