"""Chart spaces: the batched draws and distances against the scalar sampler and
distance, and the batched axiom verifier against the scalar one."""

import ast
import dataclasses
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mulmetric
from mulmetric import cli, spaces
from mulmetric.errors import DomainError, ShapeError
from mulmetric.metric_core import (
    LINE_CHART,
    Chart,
    POS_CHART,
    SEGMENT_CHART,
    Grid,
    RealVec,
    SampledPosFunction,
    SegmentPoint,
)
from mulmetric.verifier import CHART_REL_ERR, SLACK_LOG, _fails, _Replay, verify_axioms

# every id of spaces.SPACES; d-a both real and complex
CHART_SPACES = {
    "pos-reals": lambda: spaces.build("pos-reals"),
    "pos-interval": lambda: spaces.build("pos-interval", lo=0.1, hi=1.0),
    "d-star-3": lambda: spaces.build("d-star", dim=3),
    "d-a-real": lambda: spaces.build("d-a", dim=2),
    "d-a-complex": lambda: spaces.build("d-a", dim=2, base=2.0, complex_coords=True),
    "real-line-exp": lambda: spaces.build("real-line-exp"),
    "segment": lambda: spaces.build("segment"),
    "func-sup": lambda: spaces.build("func-sup"),
    "product-pos": lambda: spaces.build("product-pos"),
}
BUILT = {name: make() for name, make in CHART_SPACES.items()}
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def chart_coords(space, point) -> np.ndarray:
    """phi of one point as a flat array (the scalar side of the chart)."""
    phi = space.chart.phi
    c = point if phi is None else phi(point)
    return np.atleast_1d(np.asarray(c))


def draw_block(space, seed: int, n: int):
    """n points' worth of draws from Random(seed), the rng after them, and the points
    sample() gives from a fresh Random(seed)."""
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(n * space.draws)]).reshape(n, space.draws)
    ref = random.Random(seed)
    points = [space.sample(ref) for _ in range(n)]
    return u, rng, ref, points


@pytest.mark.parametrize("name", sorted(BUILT))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=SEEDS)
def test_draws_decode_to_the_sampled_points(name, seed):
    space = BUILT[name]
    u, rng, ref, points = draw_block(space, seed, 6)
    # the sampler consumes exactly `draws` rng.random() calls per point
    assert rng.getstate() == ref.getstate()
    # replaying each point's draws rebuilds exactly the sampled point
    assert [space.sample(_Replay(row.tolist())) for row in u] == points
    coords = space.decode(u)
    # func-sup decodes a function at the probe's grid points only
    probe = spaces.FUNC_PROBE if name == "func-sup" else slice(None)
    for c, p in zip(coords, points):
        want = chart_coords(space, p)[probe]
        assert c.shape == want.shape
        assert np.all(np.abs(c - want) <= 1e-13 * (1 + np.abs(want)))


def test_the_half_draw_picks_one_segment_in_sample_and_decode():
    # draws in [0, 0.5) pick {(u, 1)}: exactly half of rng.random()'s values; 0.5 itself
    # picks {(1, v)}, in the sampler as in decode
    space = BUILT["segment"]
    assert space.sample(_Replay([0.25, 0.5])) == SegmentPoint(1.0, 1.25)
    assert space.sample(_Replay([0.25, math.nextafter(0.5, 0)])) == SegmentPoint(1.25, 1.0)
    assert space.decode(np.array([0.25, 0.5])).tolist() == [-math.log(1.25)]


def scalar_space(space):
    """The space without its decode keeps its chart, whose distance is its identity
    (a chartless copy would tell points apart by `==`): the scalar path."""
    return dataclasses.replace(space, decode=None)


def scalar_report(space, n, seed):
    """The scalar path's report."""
    return verify_axioms(scalar_space(space), n, seed=seed)


@pytest.mark.parametrize("name", sorted(BUILT))
@settings(max_examples=4, derandomize=True, deadline=None)
@given(seed=SEEDS)
def test_batched_report_equals_scalar_report(name, seed):
    space = BUILT[name]
    n = 30 if name == "func-sup" else 300
    assert verify_axioms(space, n, seed=seed) == scalar_report(space, n, seed)


@pytest.mark.parametrize("space, most_rebuilt", [
    (spaces.positive_interval(1.0, 1.0 + 1e-11), 24),
    (spaces.exp_metric(8, 1e10), 0),
    (spaces.build("func-sup"), 0),
], ids=["narrow-interval", "d-a-8-base-1e10", "func-sup"])
def test_screened_samples_are_confirmed_by_the_scalar_check(space, most_rebuilt):
    # a row is rebuilt only where x and y lie within decode's error of each other in
    # every decoded coordinate: on [1, 1 + 1e-11] the coordinates span 1e-11, so about
    # 4 % of the rows (two draws within 0.02) come that close; on d-a-8 no row of
    # eight coordinates in [-10, 10] does, however large the base, nor on func-sup a
    # row of two random functions at the probe's 8 grid points
    decoded, sampled = [], []

    def decode(u):
        decoded.append(len(u))
        return space.decode(u)

    def sample(rng):
        sampled.append(1)
        return space.sample(rng)

    for seed in (3, 4, 5):
        decoded.clear(), sampled.clear()
        batched = verify_axioms(dataclasses.replace(space, decode=decode, sample=sample), 300,
                                seed=seed)
        assert batched.all_ok and batched == scalar_report(space, 300, seed)
        # a rebuilt row samples x and y only
        assert decoded and len(sampled) <= 2 * most_rebuilt


def test_screened_space_passes_on_the_cli():
    assert cli.main(["verify", "--space", "d-a", "--dim", "8", "--base", "1e10",
                     "--samples", "300", "--out", os.devnull]) == 0


def test_space_without_a_chart_takes_the_scalar_path():
    # two L1 charts of one scale: the pair of d-star-2 spaces has the concatenated chart
    space = spaces.product_space(spaces.positive_vectors(2), spaces.positive_vectors(2))
    assert space.chart is not None
    report = verify_axioms(space, 200, seed=1)
    assert report.all_ok and report == scalar_report(space, 200, 1)
    # a candidate space gives its distance and has no chart (nor decode): the scalar path
    candidate = spaces.SpaceInstance("candidate", space.sample, dist=space.dist)
    assert candidate.chart is None and candidate.decode is None
    assert verify_axioms(candidate, 200, seed=1) == report
    # a chart space without a decode cannot draw in blocks: the scalar path
    pos_reals = spaces.positive_reals()
    undecoded = spaces.SpaceInstance("undecoded", pos_reals.sample, pos_reals.chart)
    assert verify_axioms(undecoded, 200, seed=1) == scalar_report(pos_reals, 200, 1)


def test_a_space_of_nan_points_fails_on_both_paths():
    # no comparison flags a NaN: the screen sends every row with a non-finite gap
    # to the scalar check, which raises as the scalar path does
    space = spaces.SpaceInstance("nan", lambda rng: rng.random() * math.nan, POS_CHART, 1,
                                 lambda u: u * math.nan)
    errors = []
    for sp in (space, dataclasses.replace(space, chart=None)):
        with pytest.raises(DomainError) as exc:
            verify_axioms(sp, 5)
        errors.append(str(exc.value))
    assert errors == ["not points of this space: nan, nan"] * 2


def test_a_row_with_one_nan_coordinate_fails_on_both_paths():
    # the first coordinates lie far apart, the second is NaN: the row is rebuilt all
    # the same, and the scalar check raises as the scalar path does
    space = spaces.SpaceInstance(
        "half-nan", lambda rng: (10 * rng.random(), math.nan * rng.random()), Chart(tuple), 2,
        lambda u: u * np.array([10.0, math.nan]))
    errors = []
    for sp in (space, scalar_space(space)):
        with pytest.raises(DomainError) as exc:
            verify_axioms(sp, 5, seed=1)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].startswith("not points of this space")


@pytest.mark.parametrize("abscissae", [(math.nan, math.nan), (0.0, math.nan, 1.0),
                                       (0.0, 1.0, 1.0)])
def test_grid_is_strictly_increasing(abscissae):
    with pytest.raises(DomainError, match="grid must be strictly increasing"):
        Grid(abscissae)


def build_every_space_id():
    bounds = {"pos-interval": {"lo": 0.1, "hi": 1.0}}
    return [spaces.build(space_id, **bounds.get(space_id, {})) for space_id in spaces.SPACES]


def test_every_space_id_has_a_chart_and_a_decode():
    # the batched path serves every space of the table
    for space in build_every_space_id():
        assert space.chart is not None and space.decode is not None


def test_a_chart_space_tells_points_apart_by_its_distance():
    # on [1, 1 + 1e-11] distinct floats lie within 1e-12 in ln d: the chart's identity
    # is its distance, which is not 0 between them, so the charted scalar path flags
    # nothing; the chartless copy tells the points apart by `==` and flags m1
    space = spaces.positive_interval(1.0, 1.0 + 1e-11)
    assert verify_axioms(dataclasses.replace(space, decode=None), 50, seed=1).all_ok
    chartless = verify_axioms(dataclasses.replace(space, chart=None), 50, seed=1)
    assert not chartless.m1_ok
    assert all(w.axiom == "m1" and w.points[0] != w.points[1] for w in chartless.witnesses)


# the integers -2..2 under ln d = |x^2 - y^2|: phi is not injective, so d(2, -2) = 1
SQUARES = spaces.SpaceInstance("squares", lambda rng: float(math.floor(5 * rng.random()) - 2),
                               Chart(lambda x: x * x, scalar=True), 1,
                               lambda u: (np.floor(5 * u) - 2) ** 2)


@pytest.mark.parametrize("path", [lambda space: space, scalar_space], ids=["batched", "scalar"])
def test_a_chart_that_is_not_injective_is_refuted(path):
    report = verify_axioms(path(SQUARES), 2000, seed=0)
    assert not report.m1_ok and report.m2_ok and report.m3_ok and report.reverse_ok
    assert len(report.witnesses) > 100
    for w in report.witnesses:
        x, y = w.points
        assert w.axiom == "m1" and x == -y != 0.0 and w.values == (0.0,)
    assert report == scalar_report(SQUARES, 2000, 0)


# the integers -2..2 under the chart (0, x^2), whose decode gives the first coordinate
# only: 0 at every point, so the screen tells no pair apart
BLIND = spaces.SpaceInstance("blind-decode", SQUARES.sample, Chart(lambda x: (0.0, x * x)), 1,
                             lambda u: np.zeros(u.shape))


def test_a_decode_that_tells_no_pair_apart_rebuilds_every_row():
    sampled = []

    def sample(rng):
        sampled.append(1)
        return BLIND.sample(rng)

    report = verify_axioms(dataclasses.replace(BLIND, sample=sample), 300, seed=0)
    # every row's x and y are rebuilt, and the scalar check alone writes the witnesses
    assert len(sampled) == 2 * 300
    assert not report.m1_ok and report == scalar_report(BLIND, 300, 0)


def replayed(x, y):
    """The rows of decoded x and y that the verifier's screen sends to the scalar check."""
    gap, bound = abs(x - y), 2 * CHART_REL_ERR * (1 + abs(x) + abs(y))
    return (gap <= bound).all(-1) | ~np.isfinite(gap).all(-1)


FUNC_SUP = BUILT["func-sup"]
FUNC_GRID = np.asarray(FUNC_SUP.sample(random.Random(0)).grid)


def full_grid_decode(u):
    """func-sup's chart coordinates at every grid point: ln c + amp * sin(freq * x + phase)
    from the sampler's four draws, as the reference for the probe."""
    log_lo, log_hi = math.log(0.1), math.log(10.0)
    log_c, amp = log_lo + (log_hi - log_lo) * u[..., :1], -1.0 + 2.0 * u[..., 1:2]
    freq, phase = 0.5 + 2.5 * u[..., 2:3], 2 * math.pi * u[..., 3:]
    return log_c + amp * np.sin(freq * FUNC_GRID + phase)


UNIT_DRAWS = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4)


def nudged(draws, steps):
    """The draws, each moved by an ulp down, not at all, or up, within [0, 1)."""
    moved = [math.nextafter(d, math.copysign(math.inf, s)) if s else d
             for d, s in zip(draws, steps)]
    return [m if 0.0 <= m < 1.0 else d for m, d in zip(moved, draws)]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(UNIT_DRAWS, UNIT_DRAWS,
                               st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4)),
                     min_size=1, max_size=20))
def test_the_probe_replays_every_row_the_full_grid_replays(rows):
    # random pairs, and each x again with its draws nudged by an ulp: a near-coincident y
    near = [(x, nudged(x, steps)) for x, _, steps in rows]
    u = np.array([(x, y) for x, y, _ in rows] + near)
    assert full_grid_decode(u).shape[-1] == len(FUNC_GRID)
    full = replayed(*np.moveaxis(full_grid_decode(u), 1, 0))
    probe = replayed(*np.moveaxis(FUNC_SUP.decode(u), 1, 0))
    assert not (full & ~probe).any()
    # the full grid replays every near-coincident pair: the subset is not vacuous
    assert full[len(rows):].all()


# 0 and this b lie exactly 2 * CHART_REL_ERR * (1 + 0 + b) apart in float arithmetic
AT_THE_BOUND = 2.0000000000004002e-13


@pytest.mark.parametrize("p, q, decoded_q", [
    (1.0, 2.0, math.nextafter(1.0, 2.0)),
    (0.0, AT_THE_BOUND, AT_THE_BOUND),
], ids=["an-ulp-apart", "at-the-bound"])
def test_a_row_within_the_screen_is_replayed_and_refuted(p, q, decoded_q):
    # phi(p) = phi(q) = p, and decode misses phi(q) by an ulp, or by a hair more than a
    # decode may so that the row lies exactly at the screen's bound: the decoded rows
    # differ, and the screen sends the row to the scalar check all the same
    if q == AT_THE_BOUND:
        assert abs(p - decoded_q) == 2 * CHART_REL_ERR * (1 + abs(p) + abs(decoded_q))
    space = spaces.SpaceInstance("one-point-chart", lambda rng: p if rng.random() < 0.5 else q,
                                 Chart(lambda x: p, scalar=True), 1,
                                 lambda u: np.where(u < 0.5, p, decoded_q))
    report = verify_axioms(space, 50, seed=0)
    assert report == scalar_report(space, 50, 0)
    assert {w.points for w in report.witnesses} == {(p, q), (q, p)}


# every shipped chart, at the extremes of its parameters where it takes any
EXTREME_SPACES = {
    "pos-reals": spaces.positive_reals(),
    "pos-interval-1e-300-1e300": spaces.positive_interval(1e-300, 1e300),
    "d-star-2000": spaces.positive_vectors(2000),
    "d-a-1-base-1e300": spaces.exp_metric(1, 1e300),
    "d-a-1000-base-1e300": spaces.exp_metric(1000, 1e300),
    "d-a-C1000-base-1e300": spaces.exp_metric(1000, 1e300, complex_coords=True),
    "d-a-C50-base-1+1e-9": spaces.exp_metric(50, 1.0 + 1e-9, complex_coords=True),
    "real-line-exp": spaces.real_line_exp(),
    "segment": spaces.segment_space(),
    "func-sup": spaces.function_space(-1e3, 1e3),
    "product-pos": spaces.build("product-pos"),
}


@pytest.mark.parametrize("name", sorted(EXTREME_SPACES))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=SEEDS)
def test_a_chart_distance_never_fails_the_tests_a_chart_cannot_fail(name, seed):
    # d(x, x) = 1, m2, m3 and the reverse inequality hold for any phi in real
    # arithmetic; the verifier does not run them on a chart space, so the rounding
    # of the chart distances is pinned here to stay within the slack
    space, rng = EXTREME_SPACES[name], random.Random(seed)
    for _ in range(3):
        x, y, z = space.sample(rng), space.sample(rng), space.sample(rng)
        logs = [space.dist(p, q) for p, q in ((x, y), (y, x), (x, z), (y, z), (x, x))]
        assert not any(_fails(*logs, SLACK_LOG))


def test_a_function_point_holds_its_grid_and_values_only():
    space = spaces.function_space(0.0, 1.0, n_grid=64)
    rng = random.Random(2)
    for _ in range(5):
        f, g = space.sample(rng), space.sample(rng)
        assert set(vars(f)) == {"grid", "values"}
        # the distance is the sup of |ln f - ln g| on the grid, bit for bit
        log_f, log_g = (np.log(np.asarray(h.values, dtype=float)) for h in (f, g))
        assert space.dist(f, g).log_value == float(np.abs(log_f - log_g).max())


def test_every_space_id_takes_its_distance_from_its_chart():
    for space in build_every_space_id():
        assert space.dist is space.chart.dist
        # a given distance replaces the chart's (the benchmark's tracer wraps it so),
        # and dropping the chart (the scalar reference path) keeps the distance
        wrapped = lambda p, q, dist=space.dist: dist(p, q)
        assert dataclasses.replace(space, dist=wrapped).dist is wrapped
        assert dataclasses.replace(space, chart=None).dist is space.dist


@pytest.mark.parametrize("space_id, factory", [("segment", "segment_space"),
                                               ("real-line-exp", "real_line_exp")])
def test_build_looks_the_factory_up_at_each_call(space_id, factory, monkeypatch):
    # a wrapper set on the module attribute (as a tracer does) is the one build calls
    calls, original = [], getattr(spaces, factory)
    monkeypatch.setattr(spaces, factory, lambda: (calls.append(1), original())[1])
    assert spaces.build(space_id).name == space_id and calls == [1]


def test_function_samples_share_one_checked_grid():
    space = spaces.function_space(0.0, 1.0, n_grid=32)
    rng = random.Random(0)
    f, g = space.sample(rng), space.sample(rng)
    assert f.grid is g.grid
    # an equal grid built apart still compares; a different grid of the same size does not
    h = SampledPosFunction(tuple(f.grid), f.values)
    assert space.dist(f, h).log_value == 0.0
    other = SampledPosFunction(tuple(x + 1.0 for x in f.grid), f.values)
    with pytest.raises(ShapeError):
        space.dist(f, other)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (1.0, 5.0)])
def test_functions_on_a_grid_built_apart_are_members(lo, hi):
    # the grid as perfbench's distance check builds it, for each interval its
    # certify workload verifies; a non-member there reads as a wrong output
    grid = tuple(lo + (hi - lo) * i / 1023 for i in range(1024))
    f = SampledPosFunction(grid, tuple(2.0 + math.sin(x) for x in grid))
    space = spaces.function_space(lo, hi)
    assert space.dist(f, f).log_value == 0.0
    assert space.dist(f, space.sample(random.Random(0))).log_value > 0.0


def test_chart_distance_keeps_the_formulas():
    # the chart distances reproduce the closed forms bit for bit
    rng = random.Random(5)
    seg, d_a = BUILT["segment"], spaces.exp_metric(3, base=2.0)
    for _ in range(200):
        p, q = seg.sample(rng), seg.sample(rng)
        gap = abs(math.log(p.u) - math.log(q.u)) + abs(math.log(p.v) - math.log(q.v))
        assert seg.dist(p, q).log_value == gap / 3.0
        x, y = d_a.sample(rng), d_a.sample(rng)
        assert d_a.dist(x, y).log_value == math.log(2.0) * sum(abs(a - b) for a, b in zip(x, y))


# points of the one-coordinate chart spaces, out to the ends of the floats where the
# space reaches them
SCALAR_POINTS = {
    "pos-reals": st.floats(min_value=5e-324, allow_infinity=False),
    "pos-interval": st.floats(0.1, 1.0),
    "real-line-exp": st.floats(-20.0, 20.0) | st.floats(allow_nan=False, allow_infinity=False),
    "segment": st.builds(lambda u, first: SegmentPoint(u, 1.0) if first else SegmentPoint(1.0, u),
                         st.floats(1.0, 2.0), st.booleans()),
}


@pytest.mark.parametrize("name", sorted(SCALAR_POINTS))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_gaps_are_the_distances_bit_for_bit(name, data):
    chart = BUILT[name].chart
    pairs = data.draw(st.lists(st.tuples(SCALAR_POINTS[name], SCALAR_POINTS[name]),
                               max_size=12))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    try:
        expected = [chart.dist(x, y) for x, y in pairs]
    except DomainError:  # an infinite gap (real-line-exp at the ends of the floats)
        expected = None
    if expected is None or not math.isfinite(sum(expected)):
        with pytest.raises(DomainError):
            chart.gaps(chart.coords(xs), chart.coords(ys))
    else:
        assert (list(map(float.hex, chart.gaps(chart.coords(xs), chart.coords(ys))))
                == list(map(float.hex, expected)))


@pytest.mark.parametrize("chart", [POS_CHART, LINE_CHART, SEGMENT_CHART],
                         ids=["pos", "line", "segment"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaps_raise_on_a_nan_or_infinite_gap(chart, bad):
    for a, b in (([0.5, bad], [1.0, 2.0]), ([0.5, 2.0], [1.0, bad]), ([bad], [bad])):
        with pytest.raises(DomainError):
            chart.gaps(a, b)
    assert chart.gaps([], []) == []


def test_gaps_raise_on_a_column_sum_that_overflows():
    # each gap is a float, their sum is not
    big = [1.5e308, 1.5e308]
    assert all(map(math.isfinite, [LINE_CHART.dist(x, 0.0) for x in big]))
    with pytest.raises(DomainError):
        LINE_CHART.gaps(big, [0.0, 0.0])


def test_coords_are_phi_of_each_point_in_order():
    points = [2.0, 0.5, 8.0]
    assert POS_CHART.coords(points) == [math.log(x) for x in points]
    assert LINE_CHART.coords(points) is points  # the identity chart: the points themselves
    segment = [SegmentPoint(2.0, 1.0), SegmentPoint(1.0, 2.0)]
    assert SEGMENT_CHART.coords(segment) == [math.log(2.0), -math.log(2.0)]


def test_a_product_needs_two_l1_charts_of_one_scale():
    sup = BUILT["func-sup"].chart  # an L-infinity chart
    d_a2, d_a3 = (spaces.exp_metric(1, base).chart for base in (2.0, 3.0))
    for a, b in ((POS_CHART, sup), (sup, POS_CHART), (sup, sup), (POS_CHART, None),
                 (POS_CHART, SEGMENT_CHART), (SEGMENT_CHART, LINE_CHART), (d_a2, d_a3)):
        assert a.product(b) is None
    # one scale: the pair's coordinates are the factors', concatenated
    pair = POS_CHART.product(LINE_CHART)
    assert pair.phi((math.e, 2.0)) == (1.0, 2.0) and pair.factor == pair.divisor == 1.0
    seg = SEGMENT_CHART.product(SEGMENT_CHART)
    assert seg.divisor == 3.0
    assert seg.phi((SegmentPoint(2.0, 1.0), SegmentPoint(1.0, 1.0))) == (math.log(2.0), 0.0)
    vectors = d_a2.product(d_a2)
    assert vectors.factor == math.log(2.0)
    assert vectors.phi((RealVec((1.0,)), RealVec((3.0,)))) == (1.0, 3.0)


def test_only_metric_core_reads_a_charts_fields():
    # every decision about a chart's phi, norm and scale is made inside Chart
    package = os.path.dirname(mulmetric.__file__)
    reads = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "metric_core.py":
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            reads += [f"{name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr in {"phi", "factor", "divisor", "norm"}]
    assert reads == []
