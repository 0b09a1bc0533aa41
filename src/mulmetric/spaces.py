"""Concrete multiplicative metric spaces and self-maps over them.

A SpaceInstance bundles a distance evaluator with a point sampler so that
the diagnostics, the verifier, and the solvers can all work against the
same handle.  Samplers take a random.Random and return one point; they are
the only source of randomness, which keeps every downstream report
reproducible from a seed.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from . import metric_core as mc
from .errors import DomainError, InputError, ShapeError
from .metric_core import (
    Chart,
    ComplexVec,
    Grid,
    MulDistance,
    PosVec,
    RealVec,
    SampledPosFunction,
    SegmentPoint,
)

Point = Any
DistFn = Callable[[Point, Point], MulDistance]
SamplerFn = Callable[[random.Random], Point]


@dataclass(frozen=True)
class SpaceInstance:
    """A named multiplicative metric space.

    A chart space gives its `chart`, whose distance is then `dist` (None fills
    it in); only a chartless space, such as a candidate distance under test,
    gives `dist` itself.  Points of a chart space are one point when their chart
    coordinates are equal, and its axioms follow from the chart's scale
    (`verifier.verify_axioms`): d(x, x) = 1, m1 and m2 hold exactly in floats for
    every pair whose scaled gap is finite, and m3 and the reverse inequality in
    real arithmetic.  A pair whose gap overflows is `not points of this space`.
    """

    name: str
    sample: SamplerFn
    chart: Optional[Chart] = None
    dist: Optional[DistFn] = None

    def __post_init__(self):
        if self.dist is None:
            object.__setattr__(self, "dist", self.chart.dist)


@dataclass(frozen=True)
class SelfMap:
    """A mapping X -> X over a SpaceInstance."""

    name: str
    fn: Callable[[Point], Point]
    space: SpaceInstance

    def __call__(self, p: Point) -> Point:
        try:
            return self.fn(p)
        except (ArithmeticError, AttributeError, ValueError, TypeError) as exc:
            raise DomainError(f"map {self.name} is undefined at {p!r}: {exc}") from None


def _log_uniform(lo: float, hi: float) -> tuple[float, float]:
    """(a, w) such that exp(a + w * rng.random()) is log-uniform on [lo, hi],
    which exercises both branches of |.|* evenly around 1."""
    if not (0 < lo < hi < math.inf):
        raise DomainError("need finite 0 < lo < hi for the sampler range")
    a = math.log(lo)
    return a, math.log(hi) - a


def _vector_phi(n: int, point: type, coord: Optional[Callable] = None) -> Callable:
    """phi of an n-dimensional space of `point` vectors: a point's coordinates, each
    mapped by coord when given; a TypeError for another type of point, a ShapeError
    for a point of another dimension."""

    def phi(x):
        if not isinstance(x, point):
            raise TypeError(f"not a {point.__name__}: {x!r}")
        c = x.coords
        if len(c) != n:
            raise ShapeError(f"expected a point of dimension {n}, got {len(c)}")
        return c if coord is None else tuple(map(coord, c))

    return phi


def positive_reals(lo: float = 0.01, hi: float = 100.0) -> SpaceInstance:
    """(R_+, |.|*): scalar positive reals under the multiplicative absolute value."""
    log_lo, width = _log_uniform(lo, hi)
    return SpaceInstance("pos-reals", lambda rng: math.exp(log_lo + width * rng.random()),
                         mc.POS_CHART)


def positive_interval(lo: float, hi: float) -> SpaceInstance:
    """A closed subinterval of R_+ under |.|* (complete: it is closed); its
    distance rejects points outside [lo, hi] by more than POINT_EQ_TOL_LOG in log."""
    if lo is None or hi is None:
        raise InputError("pos-interval needs lo and hi")
    sp = positive_reals(lo, hi)
    log_lo, log_hi = math.log(lo) - mc.POINT_EQ_TOL_LOG, math.log(hi) + mc.POINT_EQ_TOL_LOG

    def log_member(x):
        log_x = math.log(x)
        if not log_lo <= log_x <= log_hi:
            raise DomainError(f"point outside [{lo}, {hi}]: {x!r}")
        return log_x

    # dist=None: the distance is the new chart's, not the one copied from sp
    return replace(sp, name=f"pos-interval[{lo},{hi}]", chart=Chart(log_member, scalar=True),
                   dist=None)


def positive_vectors(n: int) -> SpaceInstance:
    """(R_+^n, d*): product-of-ratios metric; samples log-uniform on [0.01, 100]."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    log_lo, width = _log_uniform(0.01, 100.0)

    def sample(rng: random.Random) -> PosVec:
        draw = rng.random
        return PosVec(tuple([math.exp(log_lo + width * draw()) for _ in range(n)]))

    return SpaceInstance(f"pos-vec-{n}", sample, Chart(_vector_phi(n, PosVec, math.log)))


def exp_metric(n: int, base: float, complex_coords: bool = False) -> SpaceInstance:
    """(R^n or C^n, d_a): the metric base^(sum |x_i - y_i|), parts sampled on [-10, 10]."""
    if not (1 < base < math.inf):
        raise DomainError(f"base must be finite and exceed 1, got {base}")
    if n < 1:
        raise DomainError("dimension must be >= 1")
    point = ComplexVec if complex_coords else RealVec
    chart, lo, hi = Chart(_vector_phi(n, point), factor=math.log(base)), -10.0, 10.0

    if complex_coords:
        def sample(rng: random.Random) -> ComplexVec:
            return ComplexVec(tuple(complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
                                    for _ in range(n)))
        return SpaceInstance(f"exp-metric-C{n}(a={base})", sample, chart)

    def sample(rng: random.Random) -> RealVec:
        return RealVec(tuple(rng.uniform(lo, hi) for _ in range(n)))

    return SpaceInstance(f"exp-metric-R{n}(a={base})", sample, chart)


def real_line_exp() -> SpaceInstance:
    """(R, d_e): scalar reals with d(x,y) = e^|x-y| (log gap = |x-y|), sampled on [-10, 10]."""
    lo, width = -10.0, 20.0
    return SpaceInstance("real-line-exp", lambda rng: lo + width * rng.random(), mc.LINE_CHART)


def product_space(s1: SpaceInstance, s2: SpaceInstance) -> SpaceInstance:
    """Pair space with the product metric d1 * d2 (rho1 + rho2); points are 2-tuples.

    The factors' charts must be L1 charts of one scale: the pair's chart is then
    their coordinates concatenated (`Chart.product`); any other pair is an InputError.
    """
    name, chart = f"product({s1.name},{s2.name})", s1.chart and s1.chart.product(s2.chart)
    if chart is None:
        raise InputError(f"no chart for {name}: the factors need L1 charts of one scale")

    def sample(rng: random.Random):
        return (s1.sample(rng), s2.sample(rng))

    return SpaceInstance(name, sample, chart)


def function_space(a: float, b: float, n_grid: int = 1024) -> SpaceInstance:
    """Sampled positive functions on [a, b] under the sup ratio metric.

    The sampler draws smooth positive functions c * x |-> exp(s * t(x)) via a random
    low-order trigonometric bump, c log-uniform on [0.1, 10], on the shared grid.  numpy
    loads at the first point drawn or measured, not when the space is built.
    """
    if not (b > a):
        raise DomainError("need b > a")
    name = f"func-sup[{a},{b}]x{n_grid}"
    grid = Grid.uniform(a, b, n_grid)
    grid_arr = []  # the grid as a numpy array, made at the first draw
    log_lo, width = _log_uniform(0.1, 10.0)

    def sample(rng: random.Random) -> SampledPosFunction:
        import numpy as np
        if not grid_arr:
            grid_arr.append(np.asarray(grid))
        c = math.exp(log_lo + width * rng.random())
        amp = rng.uniform(-1.0, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        return SampledPosFunction(grid, c * np.exp(amp * np.sin(freq * grid_arr[0] + phase)))

    def phi(f):
        import numpy as np
        if f.grid is not grid and f.grid != grid:
            raise ShapeError(f"function not sampled on the grid of {name}")
        return np.log(f.values)

    return SpaceInstance(name, sample, Chart(phi, norm="linf"))


def segment_space() -> SpaceInstance:
    """The two unit-anchored segments under the cube-root product metric."""

    def sample(rng: random.Random) -> SegmentPoint:
        t = 1.0 + rng.random()  # rng.uniform(1.0, 2.0), bit for bit
        if rng.random() < 0.5:
            return SegmentPoint(t, 1.0)
        return SegmentPoint(1.0, t)

    return SpaceInstance("segment", sample, mc.SEGMENT_CHART)


def segment_half_power(p: SegmentPoint) -> SegmentPoint:
    """The swap-and-square-root map of the segment space.

    (u, 1) |-> (1, sqrt(u)) and (1, v) |-> (sqrt(v), 1); its only fixed
    point is (1, 1) and it contracts the segment metric with rate 1/2.
    """
    if p.v == 1.0:
        return SegmentPoint(1.0, math.sqrt(p.u))
    return SegmentPoint(math.sqrt(p.v), 1.0)


def segment_half_power_map(space: SpaceInstance | None = None) -> SelfMap:
    """segment_half_power as a self-map of the segment space."""
    return SelfMap("segment-half-power", segment_half_power, space or segment_space())


#: space id -> factory, given the keywords it takes; each looks its builder up when called
SPACES = {
    "pos-reals": lambda: positive_reals(),
    "pos-interval": lambda lo, hi: positive_interval(lo, hi),
    "d-star": lambda dim: positive_vectors(dim),
    "d-a": lambda dim, base, complex_coords: exp_metric(dim, base, complex_coords),
    "real-line-exp": lambda: real_line_exp(),
    "segment": lambda: segment_space(),
    "func-sup": lambda lo, hi: function_space(0.0 if lo is None else lo,
                                              1.0 if hi is None else hi),
    "product-pos": lambda: product_space(positive_reals(), positive_reals()),
}
#: the keywords each factory takes
_TAKES = {space_id: inspect.signature(f).parameters.keys() for space_id, f in SPACES.items()}
#: each keyword of `build` -> its CLI flag
_FLAGS = {"dim": "--dim", "base": "--base", "lo": "--lo", "hi": "--hi",
          "complex_coords": "--complex"}


def build(space_id: str, dim: int = 1, base: float = math.e, lo: float | None = None,
          hi: float | None = None, complex_coords: bool = False) -> SpaceInstance:
    """Build the space with the given id from the table above; a keyword given
    other than its default that the space does not take is an InputError."""
    if space_id not in SPACES:
        raise InputError(f"unknown space id {space_id!r}")
    values, takes = dict(zip(_FLAGS, (dim, base, lo, hi, complex_coords))), _TAKES[space_id]
    dropped = [_FLAGS[k] for k in _FLAGS if k not in takes and values[k] != _DEFAULTS[k]]
    if dropped:
        raise InputError(f"space {space_id!r} takes no {', '.join(dropped)}")
    return SPACES[space_id](**{k: values[k] for k in takes})


#: `build`'s own defaults, the values a space that does not take a keyword accepts
_DEFAULTS = dict(zip(_FLAGS, build.__defaults__))
