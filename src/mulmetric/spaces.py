"""Concrete multiplicative metric spaces and self-maps over them.

A SpaceInstance bundles a distance evaluator with a point sampler so that
the diagnostics, the verifier, and the solvers can all work against the
same handle.  Samplers take a random.Random and return one point; they are
the only source of randomness, which keeps every downstream report
reproducible from a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from . import metric_core as mc
from .errors import DomainError, InputError
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

    A space whose distance is a chart's also has `draws`, the rng.random()
    calls `sample` makes per point, and `decode`, which maps such draws, shape
    (..., draws), to the chart coordinates of the points built from them.
    `points_equal` tells distinct points apart when the distance alone cannot
    (a candidate distance under test); None means the space's identity is its
    distance.
    """

    name: str
    dist: DistFn
    sample: SamplerFn
    chart: Optional[Chart] = None
    draws: int = 0
    decode: Optional[Callable] = None
    points_equal: Optional[Callable[[Point, Point], bool]] = None


@dataclass(frozen=True)
class SelfMap:
    """A mapping X -> X over a SpaceInstance."""

    name: str
    fn: Callable[[Point], Point]
    space: SpaceInstance

    def __call__(self, p: Point) -> Point:
        try:
            return self.fn(p)
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise DomainError(f"map {self.name} is undefined at {p!r}: {exc}") from None


def _log_uniform(lo: float, hi: float) -> tuple[float, float]:
    """(a, w) such that exp(a + w * rng.random()) is log-uniform on [lo, hi],
    which exercises both branches of |.|* evenly around 1."""
    if not (0 < lo < hi < math.inf):
        raise DomainError("need finite 0 < lo < hi for the sampler range")
    a = math.log(lo)
    return a, math.log(hi) - a


def positive_reals(lo: float = 0.01, hi: float = 100.0) -> SpaceInstance:
    """(R_+, |.|*): scalar positive reals under the multiplicative absolute value."""
    log_lo, width = _log_uniform(lo, hi)
    return SpaceInstance("pos-reals", mc.POS_CHART.dist,
                         lambda rng: math.exp(log_lo + width * rng.random()),
                         mc.POS_CHART, 1, lambda u: log_lo + width * u)


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

    chart = Chart(log_member, scalar=True)
    return replace(sp, name=f"pos-interval[{lo},{hi}]", dist=chart.dist, chart=chart)


def positive_vectors(n: int, lo: float = 0.01, hi: float = 100.0) -> SpaceInstance:
    """(R_+^n, d*): product-of-ratios metric."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    log_lo, width = _log_uniform(lo, hi)

    def sample(rng: random.Random) -> PosVec:
        draw = rng.random
        return PosVec(tuple([math.exp(log_lo + width * draw()) for _ in range(n)]))

    return SpaceInstance(f"pos-vec-{n}", mc.D_STAR_CHART.dist, sample, mc.D_STAR_CHART, n,
                         lambda u: log_lo + width * u)


def exp_metric(n: int, base: float, lo: float = -10.0, hi: float = 10.0,
               complex_coords: bool = False) -> SpaceInstance:
    """(R^n or C^n, d_a): the metric base^(sum |x_i - y_i|)."""
    chart = mc.exp_chart(base)
    if n < 1:
        raise DomainError("dimension must be >= 1")

    if complex_coords:
        def sample(rng: random.Random) -> ComplexVec:
            return ComplexVec(tuple(complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
                                    for _ in range(n)))
        # the draws alternate real and imaginary parts
        return SpaceInstance(f"exp-metric-C{n}(a={base})", chart.dist, sample, chart, 2 * n,
                             lambda u: (lo + (hi - lo) * u).view(complex))

    def sample(rng: random.Random) -> RealVec:
        return RealVec(tuple(rng.uniform(lo, hi) for _ in range(n)))

    return SpaceInstance(f"exp-metric-R{n}(a={base})", chart.dist, sample, chart, n,
                         lambda u: lo + (hi - lo) * u)


def real_line_exp(lo: float = -10.0, hi: float = 10.0) -> SpaceInstance:
    """(R, d_e): scalar reals with d(x,y) = e^|x-y| (log gap = |x-y|)."""
    width = hi - lo
    return SpaceInstance("real-line-exp", mc.LINE_CHART.dist,
                         lambda rng: lo + width * rng.random(),
                         mc.LINE_CHART, 1, lambda u: lo + width * u)


def product_space(s1: SpaceInstance, s2: SpaceInstance) -> SpaceInstance:
    """Pair space with the product metric d1 * d2 (rho1 + rho2); points are 2-tuples.

    When both factors have unscaled scalar charts, the two chart coordinates
    under L1 are the pair's chart, which then gives its distance.
    """
    name = f"product({s1.name},{s2.name})"

    def sample(rng: random.Random):
        return (s1.sample(rng), s2.sample(rng))

    if not all(c is not None and c.scalar and c.factor == c.divisor == 1.0
               for c in (s1.chart, s2.chart)):
        return SpaceInstance(name, lambda p, q: s1.dist(p[0], q[0]) * s2.dist(p[1], q[1]),
                             sample)
    phi1, phi2 = (c.phi or (lambda x: x) for c in (s1.chart, s2.chart))
    chart = Chart(lambda p: (phi1(p[0]), phi2(p[1])))
    k, decode1, decode2 = s1.draws, s1.decode, s2.decode
    return SpaceInstance(name, chart.dist, sample, chart, k + s2.draws,
                         lambda u: np.concatenate([decode1(u[..., :k]), decode2(u[..., k:])], -1))


def function_space(a: float, b: float, n_grid: int = 1024,
                   lo: float = 0.1, hi: float = 10.0) -> SpaceInstance:
    """Sampled positive functions on [a, b] under the sup ratio metric.

    The sampler draws smooth positive functions c * x |-> exp(s * t(x)) via
    a random low-order trigonometric bump, sampled on the shared grid.
    """
    if not (b > a):
        raise DomainError("need b > a")
    grid = Grid(a + (b - a) * i / (n_grid - 1) for i in range(n_grid))
    grid_arr = np.asarray(grid)
    log_lo, width = _log_uniform(lo, hi)

    def sample(rng: random.Random) -> SampledPosFunction:
        c = math.exp(log_lo + width * rng.random())
        amp = rng.uniform(-1.0, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        return SampledPosFunction(grid, c * np.exp(amp * np.sin(freq * grid_arr + phase)))

    def decode(u):
        # the sampler's four draws, in log coordinates: ln c + amp * sin(freq * x + phase)
        log_c, amp = log_lo + width * u[..., :1], -1.0 + 2.0 * u[..., 1:2]
        freq, phase = 0.5 + 2.5 * u[..., 2:3], 2 * math.pi * u[..., 3:]
        return log_c + amp * np.sin(freq * grid_arr + phase)

    return SpaceInstance(f"func-sup[{a},{b}]x{n_grid}", mc.dist_function_sup, sample,
                         mc.SUP_CHART, 4, decode)


def segment_space() -> SpaceInstance:
    """The two unit-anchored segments under the cube-root product metric."""

    def sample(rng: random.Random) -> SegmentPoint:
        t = rng.uniform(1.0, 2.0)
        if rng.random() < 0.5:
            return SegmentPoint(t, 1.0)
        return SegmentPoint(1.0, t)

    def decode(u):
        log_t = np.log(1.0 + u[..., :1])
        return np.where(u[..., 1:] < 0.5, log_t, -log_t)

    return SpaceInstance("segment", mc.SEGMENT_CHART.dist, sample, mc.SEGMENT_CHART, 2, decode)


def segment_half_power_map(space: SpaceInstance | None = None) -> SelfMap:
    """The swap-and-square-root self-map of the segment space.

    (u, 1) |-> (1, sqrt(u)) and (1, v) |-> (sqrt(v), 1); its only fixed
    point is (1, 1) and it contracts the segment metric with rate 1/2.
    """
    space = space or segment_space()

    def fn(p: SegmentPoint) -> SegmentPoint:
        if p.v == 1.0:
            return SegmentPoint(1.0, math.sqrt(p.u))
        return SegmentPoint(math.sqrt(p.v), 1.0)

    return SelfMap("segment-half-power", fn, space)


#: space id -> factory; each takes every keyword of `build` and uses its own
SPACES = {
    "pos-reals": lambda **_: positive_reals(),
    "pos-interval": lambda lo, hi, **_: positive_interval(lo, hi),
    "d-star": lambda dim, **_: positive_vectors(dim),
    "d-a": lambda dim, base, complex_coords, **_: exp_metric(
        dim, base, complex_coords=complex_coords),
    "real-line-exp": lambda **_: real_line_exp(),
    "segment": lambda **_: segment_space(),
    "func-sup": lambda lo, hi, **_: function_space(0.0 if lo is None else lo,
                                                   1.0 if hi is None else hi),
    "product-pos": lambda **_: product_space(positive_reals(), positive_reals()),
}


def build(space_id: str, dim: int = 1, base: float = math.e, lo: float | None = None,
          hi: float | None = None, complex_coords: bool = False) -> SpaceInstance:
    """Build the space with the given id from the table above."""
    if space_id not in SPACES:
        raise InputError(f"unknown space id {space_id!r}")
    return SPACES[space_id](dim=dim, base=base, lo=lo, hi=hi, complex_coords=complex_coords)
