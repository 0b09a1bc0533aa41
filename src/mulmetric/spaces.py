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
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import metric_core as mc
from .errors import DomainError, InputError
from .metric_core import (
    MulDistance,
    PosVec,
    RealVec,
    ComplexVec,
    SampledPosFunction,
    SegmentPoint,
)

Point = Any
DistFn = Callable[[Point, Point], MulDistance]
SamplerFn = Callable[[random.Random], Point]


@dataclass(frozen=True)
class SpaceInstance:
    """A named multiplicative metric space."""

    name: str
    dist: DistFn
    sample: SamplerFn

    def points_equal(self, p: Point, q: Point) -> bool:
        return self.dist(p, q).log_value <= mc.POINT_EQ_TOL_LOG


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


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    # log-uniform exercises both branches of |.|* evenly around 1
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def positive_reals(lo: float = 0.01, hi: float = 100.0) -> SpaceInstance:
    """(R_+, |.|*): scalar positive reals under the multiplicative absolute value."""
    if not (0 < lo < hi):
        raise DomainError("need 0 < lo < hi for the sampler range")

    def dist(x, y):
        try:
            return MulDistance(abs(math.log(x) - math.log(y)))
        except (ValueError, TypeError):
            raise DomainError(f"points of R_+ must be positive reals: {x!r}, {y!r}") from None

    return SpaceInstance("pos-reals", dist, lambda rng: _log_uniform(rng, lo, hi))


def positive_interval(lo: float, hi: float) -> SpaceInstance:
    """A closed subinterval of R_+ under |.|* (complete: it is closed); its
    distance rejects points outside [lo, hi] by more than POINT_EQ_TOL_LOG in log."""
    if lo is None or hi is None:
        raise InputError("pos-interval needs lo and hi")
    sp = positive_reals(lo, hi)
    log_lo, log_hi = math.log(lo) - mc.POINT_EQ_TOL_LOG, math.log(hi) + mc.POINT_EQ_TOL_LOG

    def dist(x, y):
        d = sp.dist(x, y)
        outside = [p for p in (x, y) if not log_lo <= math.log(p) <= log_hi]
        if outside:
            raise DomainError(f"points outside [{lo}, {hi}]: {', '.join(map(repr, outside))}")
        return d

    return SpaceInstance(f"pos-interval[{lo},{hi}]", dist, sp.sample)


def positive_vectors(n: int, lo: float = 0.01, hi: float = 100.0) -> SpaceInstance:
    """(R_+^n, d*): product-of-ratios metric."""
    if n < 1:
        raise DomainError("dimension must be >= 1")

    def sample(rng: random.Random) -> PosVec:
        return PosVec(tuple(_log_uniform(rng, lo, hi) for _ in range(n)))

    return SpaceInstance(f"pos-vec-{n}", mc.dist_pos_vec, sample)


def exp_metric(n: int, base: float, lo: float = -10.0, hi: float = 10.0,
               complex_coords: bool = False) -> SpaceInstance:
    """(R^n or C^n, d_a): the metric base^(sum |x_i - y_i|)."""
    if not (base > 1):
        raise DomainError(f"base must exceed 1, got {base}")
    if n < 1:
        raise DomainError("dimension must be >= 1")

    def dist(x, y):
        return mc.dist_exp(x, y, base)

    if complex_coords:
        def sample(rng: random.Random) -> ComplexVec:
            return ComplexVec(tuple(complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
                                    for _ in range(n)))
        tag = f"exp-metric-C{n}(a={base})"
    else:
        def sample(rng: random.Random) -> RealVec:
            return RealVec(tuple(rng.uniform(lo, hi) for _ in range(n)))
        tag = f"exp-metric-R{n}(a={base})"

    return SpaceInstance(tag, dist, sample)


def real_line_exp(lo: float = -10.0, hi: float = 10.0) -> SpaceInstance:
    """(R, d_e): scalar reals with d(x,y) = e^|x-y| (log gap = |x-y|)."""

    def dist(x, y):
        return MulDistance(abs(x - y))

    return SpaceInstance("real-line-exp", dist, lambda rng: rng.uniform(lo, hi))


def product_space(s1: SpaceInstance, s2: SpaceInstance) -> SpaceInstance:
    """Pair space with the product metric rho = d1 * d2; points are 2-tuples."""

    def dist(p, q):
        return s1.dist(p[0], q[0]) * s2.dist(p[1], q[1])

    def sample(rng: random.Random):
        return (s1.sample(rng), s2.sample(rng))

    return SpaceInstance(f"product({s1.name},{s2.name})", dist, sample)


def function_space(a: float, b: float, n_grid: int = 1024,
                   lo: float = 0.1, hi: float = 10.0) -> SpaceInstance:
    """Sampled positive functions on [a, b] under the sup ratio metric.

    The sampler draws smooth positive functions c * x |-> exp(s * t(x)) via
    a random low-order trigonometric bump, sampled on the shared grid.
    """
    if not (b > a):
        raise DomainError("need b > a")
    grid = tuple(a + (b - a) * i / (n_grid - 1) for i in range(n_grid))
    grid_arr = np.asarray(grid)

    def sample(rng: random.Random) -> SampledPosFunction:
        c = _log_uniform(rng, lo, hi)
        amp = rng.uniform(-1.0, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        vals = c * np.exp(amp * np.sin(freq * grid_arr + phase))
        return SampledPosFunction(grid, tuple(vals))

    return SpaceInstance(f"func-sup[{a},{b}]x{n_grid}", mc.dist_function_sup, sample)


def segment_space() -> SpaceInstance:
    """The two unit-anchored segments under the cube-root product metric."""

    def sample(rng: random.Random) -> SegmentPoint:
        t = rng.uniform(1.0, 2.0)
        if rng.random() < 0.5:
            return SegmentPoint(t, 1.0)
        return SegmentPoint(1.0, t)

    return SpaceInstance("segment", mc.dist_segment, sample)


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
