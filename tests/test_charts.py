"""Chart spaces: the chart distances, their columns and products, and the axioms
that follow from a chart's scale."""

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
    ComplexVec,
    POS_CHART,
    SEGMENT_CHART,
    Grid,
    RealVec,
    SampledPosFunction,
    SegmentPoint,
)
from mulmetric.verifier import SLACK_LOG, _fails, verify_axioms

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


def never_drawn(rng):
    raise AssertionError("a chart space's axioms are proved, not sampled")


@pytest.mark.parametrize("name", sorted(BUILT))
def test_every_chart_space_is_proved_without_drawing(name):
    space = dataclasses.replace(BUILT[name], sample=never_drawn)
    report = verify_axioms(space, 300, seed=7)
    assert report.all_ok and report.witnesses == [] and not report.sampled_not_proved
    # the request is echoed, as a sampled report gives it
    assert (report.samples_used, report.seed, report.slack_log) == (300, 7, SLACK_LOG)


class Scripted(random.Random):
    """Hands out the given rng.random() values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_the_half_draw_picks_one_segment():
    # rng.random() values in [0, 0.5) pick {(u, 1)}, exactly half of them; 0.5
    # itself picks {(1, v)}
    sample = BUILT["segment"].sample
    assert sample(Scripted([0.25, 0.5])) == SegmentPoint(1.0, 1.25)
    assert sample(Scripted([0.25, math.nextafter(0.5, 0)])) == SegmentPoint(1.25, 1.0)


def test_screened_space_passes_on_the_cli():
    assert cli.main(["verify", "--space", "d-a", "--dim", "8", "--base", "1e10",
                     "--samples", "300", "--out", os.devnull]) == 0


def test_space_without_a_chart_takes_the_scalar_path():
    # two L1 charts of one scale: the pair of d-star-2 spaces has the concatenated chart
    space = spaces.product_space(spaces.positive_vectors(2), spaces.positive_vectors(2))
    assert space.chart is not None
    proved = verify_axioms(space, 200, seed=1)
    assert proved.all_ok and not proved.sampled_not_proved
    # a candidate space gives its distance and has no chart: the five sampled tests,
    # which find nothing the proof missed
    candidate = spaces.SpaceInstance("candidate", space.sample, dist=space.dist)
    assert candidate.chart is None
    assert verify_axioms(candidate, 200, seed=1) == dataclasses.replace(
        proved, sampled_not_proved=True)


@pytest.mark.parametrize("abscissae", [(math.nan, math.nan), (0.0, math.nan, 1.0),
                                       (0.0, 1.0, 1.0)])
def test_grid_is_strictly_increasing(abscissae):
    with pytest.raises(DomainError, match="grid must be strictly increasing"):
        Grid(abscissae)


@pytest.mark.parametrize("build", [
    lambda n: spaces.function_space(0.0, 1.0, n_grid=n),
    lambda n: SampledPosFunction.from_callable(lambda x: 1.0, 0.0, 1.0, n),
], ids=["function_space", "from_callable"])
@pytest.mark.parametrize("n", [1, 0])
def test_a_grid_of_fewer_than_two_points_is_a_shape_error(build, n):
    # one point would divide by zero when spacing the abscissae
    with pytest.raises(ShapeError, match="^grid must contain at least two abscissae$"):
        build(n)


def former_uniform(a, b, n):
    """Grid.uniform's construction without its memo."""
    last = max(n - 1, 1)
    return Grid(a + (b - a) * i / last for i in range(n))


def hexes(grid) -> list:
    return [x.hex() for x in grid]


def test_functions_on_equal_bounds_share_one_grid():
    rng = random.Random(0)
    f, g = (spaces.function_space(-2.0, 3.0).sample(rng) for _ in range(2))
    h = SampledPosFunction.from_callable(math.exp, -2.0, 3.0)
    assert f.grid is g.grid is h.grid
    assert hexes(f.grid) == hexes(former_uniform(-2.0, 3.0, 1024))
    # an equal grid built apart is still the space's
    apart = SampledPosFunction(tuple(h.grid), h.values)
    assert apart.grid is not h.grid
    assert spaces.function_space(-2.0, 3.0).dist(apart, h) == 0.0


@pytest.mark.parametrize("a, b, n", [(0, 3**40, 7), (1, 3, 7), (-0.5, 2, 4)])
def test_int_and_float_bounds_are_cached_apart(a, b, n):
    # 3**40 exceeds 2**53: the int grid's products are exact, the float grid's rounded
    floats = (float(a), float(b), n)
    assert Grid.uniform(a, b, n) is not Grid.uniform(*floats)
    assert Grid.uniform(a, b, n) is Grid.uniform(a, b, n)
    assert hexes(Grid.uniform(a, b, n)) == hexes(former_uniform(a, b, n))
    assert hexes(Grid.uniform(*floats)) == hexes(former_uniform(*floats))
    assert (hexes(Grid.uniform(a, b, n)) == hexes(Grid.uniform(*floats))) == (b != 3**40)


@pytest.mark.parametrize("a, b", [(-0.0, 1.0), (-1.0, -0.0)])
def test_a_signed_zero_bound_gives_the_unsigned_grid(a, b):
    # -0.0 == 0.0 share a memo entry; their grids are equal bit for bit either way
    unsigned = (a + 0.0, b + 0.0, 5)  # -0.0 + 0.0 is 0.0
    for first in ((a, b, 5), unsigned):
        Grid.uniform.cache_clear()
        Grid.uniform(*first)
        assert hexes(Grid.uniform(a, b, 5)) == hexes(former_uniform(a, b, 5))
        assert hexes(Grid.uniform(*unsigned)) == hexes(former_uniform(*unsigned))


@pytest.mark.parametrize("build, error, text", [
    (lambda: spaces.function_space(0.0, math.inf), DomainError, "strictly increasing"),
    (lambda: spaces.function_space(1e300, 1.0000000000001e300), DomainError,
     "strictly increasing"),
    (lambda: spaces.function_space(0.0, 1.0, n_grid=1), ShapeError, "at least two"),
    (lambda: SampledPosFunction.from_callable(math.exp, 0.0, 1.0, 1), ShapeError,
     "at least two"),
], ids=["infinite-bound", "too-narrow", "one-point", "one-point-function"])
def test_a_grid_that_raises_raises_on_every_call(build, error, text):
    held = Grid.uniform.cache_info().currsize
    for _ in range(3):
        with pytest.raises(error, match=text):
            build()
    assert Grid.uniform.cache_info().currsize == held


def test_the_grid_memo_holds_at_most_its_constant_size():
    assert Grid.uniform.cache_info().maxsize == 8
    grids = [Grid.uniform(0.0, float(k), 3) for k in range(1, 21)]
    assert Grid.uniform.cache_info().currsize == 8
    # the latest eight are held, the earlier ones built anew
    assert Grid.uniform(0.0, 20.0, 3) is grids[-1]
    assert Grid.uniform(0.0, 1.0, 3) is not grids[0] and Grid.uniform(0.0, 1.0, 3) == grids[0]


def build_every_space_id():
    bounds = {"pos-interval": {"lo": 0.1, "hi": 1.0}}
    return [spaces.build(space_id, **bounds.get(space_id, {})) for space_id in spaces.SPACES]


def test_a_chart_space_tells_points_apart_by_its_distance():
    # on [1, 1 + 1e-11] distinct floats lie within 1e-12 in ln d: the chart's identity
    # is its coordinates, and its distance is not 0 between distinct ones, so the
    # chart space is proved; the chartless copy tells the points apart by `==` and
    # flags m1
    space = spaces.positive_interval(1.0, 1.0 + 1e-11)
    assert verify_axioms(space, 50, seed=1).all_ok
    a, b = 1.0, math.nextafter(1.0, 2.0)
    assert space.dist(a, b) > 0.0
    chartless = verify_axioms(dataclasses.replace(space, chart=None), 50, seed=1)
    assert not chartless.m1_ok
    assert all(w.axiom == "m1" and w.points[0] != w.points[1] for w in chartless.witnesses)


# the integers -2..2 under ln d = |x^2 - y^2|: 2 and -2 have one coordinate
SQUARES = spaces.SpaceInstance("squares", lambda rng: float(math.floor(5 * rng.random()) - 2),
                               Chart(lambda x: x * x, scalar=True))


@pytest.mark.parametrize("chart", [SQUARES.chart, Chart(lambda x: (x * x,))],
                         ids=["scalar", "tuple"])
def test_a_chart_that_is_not_injective_is_a_metric_on_its_coordinates(chart):
    # the chart decides identity: 2 and -2 are one point, at ln d = 0, and the axioms
    # hold on the points the chart tells apart, whether phi gives a number or a tuple
    space = dataclasses.replace(SQUARES, chart=chart)
    assert space.dist(2.0, -2.0) == 0.0 < space.dist(1.0, -2.0)
    report = verify_axioms(space, 2000, seed=0)
    assert report.all_ok and report.witnesses == [] and not report.sampled_not_proved


# the first and last 1000 floats of [1, 2], where segment's coordinates lie closest
END_FLOATS = ([1.0 + i * 2.0**-52 for i in range(1000)]
              + [2.0 - i * 2.0**-52 for i in range(1000)])
SEGMENT_POINTS = st.builds(
    lambda t, first: SegmentPoint(t, 1.0) if first else SegmentPoint(1.0, t),
    st.sampled_from(END_FLOATS) | st.floats(1.0, 2.0), st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=SEGMENT_POINTS, q=SEGMENT_POINTS)
def test_segment_coordinates_differ_by_at_least_the_min_gap(p, q):
    phi = SEGMENT_CHART.phi
    gap = abs(phi(p) - phi(q))
    assert gap == 0.0 or gap >= SEGMENT_CHART.min_gap
    assert p != q or gap == 0.0


def test_the_end_floats_of_segment_lie_min_gap_apart():
    # sorted, the least gap lies between neighbours: every point of both segments at
    # the end floats, sweeping all pairs at once
    coords = sorted({SEGMENT_CHART.phi(SegmentPoint(*uv)) for t in END_FLOATS
                     for uv in ((t, 1.0), (1.0, t))})
    assert min(b - a for a, b in zip(coords, coords[1:])) >= SEGMENT_CHART.min_gap


def test_segment_min_gap_keeps_a_third_of_it_above_zero():
    # the default gap 2^-1074 / 3 rounds to 0 and would refute segment; 2^-105 / 3 does not
    assert math.ulp(0.0) / 3 == 0.0
    assert dataclasses.replace(SEGMENT_CHART, min_gap=math.ulp(0.0)).min_rho() == 0.0
    assert SEGMENT_CHART.min_rho() == 2.0**-105 / 3 > 0.0
    assert cli.main(["verify", "--space", "segment", "--out", os.devnull]) == 0
    # the closest distinct coordinates, next to 1: fl(ln t) lies in [2^-53, 1)
    t = 1.0 + 2.0**-52
    assert 2.0**-53 <= math.log(t) < 1.0


def threshold_base() -> float:
    """The least float base b > 1 at which math.ulp(0.0) * math.log(b) > 0."""
    lo, hi = 1.0, 2.0  # ulp(0) * ln 1 is 0, ulp(0) * ln 2 is not
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if math.ulp(0.0) * math.log(mid) > 0.0 else (mid, hi)
    return hi


@pytest.mark.parametrize("complex_coords", [False, True], ids=["real", "complex"])
def test_d_a_below_the_threshold_base_fails_m1(complex_coords, capsys):
    above = threshold_base()
    below = math.nextafter(above, 1.0)
    assert 1.6 < below < above < 1.7  # ln b = 1/2: ulp(0) * ln b is a tie, to even 0
    point = ComplexVec if complex_coords else RealVec
    flag = ["--complex"] if complex_coords else []
    errors = []
    for base, code in ((below, 2), (above, 0)):
        chart = spaces.exp_metric(1, base, complex_coords).chart
        # two distinct points, one smallest gap apart
        d = chart.dist(point((0.0,)), point((math.ulp(0.0),)))
        assert (d > 0.0) == (code == 0) == (chart.min_rho() > 0.0)
        assert cli.main(["verify", "--space", "d-a", "--base", repr(base), *flag,
                         "--out", os.devnull]) == code
        errors.append(capsys.readouterr().err)
    assert errors == [
        f"error: m1 fails on exp-metric-{'C' if complex_coords else 'R'}1(a={below}): "
        "points whose chart coordinates differ by 5e-324 lie at ln d = 0\n", ""]
    # solve on that space still works
    assert cli.main(["solve", "--expr", "x", "--space", "d-a", "--base", repr(below),
                     "--x0", "-2", "--out", os.devnull]) == 0


def test_a_pair_whose_gap_overflows_is_not_points_of_the_space():
    # the proof covers pairs whose scaled gap is finite; one that overflows still raises
    space = spaces.SpaceInstance("wide", lambda rng: (1e308, -1e308), Chart(tuple, factor=10.0))
    assert verify_axioms(space, 5).all_ok
    with pytest.raises(DomainError, match="not points of this space"):
        space.dist((1e308, 0.0), (-1e308, 0.0))


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
    # the pair's smallest gap is the smaller of the factors'
    assert seg.min_gap == 2.0**-105 and pair.min_gap == math.ulp(0.0)
    assert SEGMENT_CHART.product(Chart(divisor=3.0, scalar=True)).min_gap == math.ulp(0.0)
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
