"""Multiplicative distances computed in log domain.

A multiplicative distance is a value d >= 1 with d = 1 only for equal
points.  Every operation here works with rho = ln d instead of d itself:
near d = 1, where all the convergence action happens, the log form keeps
full floating-point resolution while the plain value would collapse to
1.0 + eps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ShapeError

#: Two points compare equal when their distance has log_value <= this.
POINT_EQ_TOL_LOG = 1e-12

_set_frozen = object.__setattr__


@dataclass(frozen=True, order=True, slots=True, init=False)
class MulDistance:
    """A multiplicative distance stored as rho = ln d >= 0."""

    log_value: float

    def __init__(self, log_value: float):
        # hand-written: every distance call builds one, and this is faster
        # than the generated __init__ plus __post_init__
        if not (log_value >= 0.0):
            raise DomainError(f"log_value must be >= 0, got {log_value}")
        _set_frozen(self, "log_value", log_value)

    @classmethod
    def from_value(cls, d: float) -> "MulDistance":
        """Build from a plain distance value d >= 1."""
        if not (d >= 1.0):
            raise DomainError(f"multiplicative distance must be >= 1, got {d}")
        return cls(math.log(d))

    @property
    def value(self) -> float:
        """The plain distance d = e^rho (may overflow for huge rho)."""
        return math.exp(self.log_value)

    def __mul__(self, other: "MulDistance") -> "MulDistance":
        # multiplicative product = additive in log domain
        return MulDistance(self.log_value + other.log_value)


# ---------------------------------------------------------------------------
# point containers

@dataclass(frozen=True)
class CoordVector:
    """A point given by a coordinate vector; each subclass fixes the scalar
    type and whether coordinates must be strictly positive."""

    coords: tuple

    def __init_subclass__(cls, scalar=float, positive=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.scalar, cls.positive = scalar, positive

    def __post_init__(self):
        coords = tuple(map(self.scalar, self.coords))
        object.__setattr__(self, "coords", coords)
        if len(coords) < 1:
            raise ShapeError("coordinate vector must have length >= 1")
        if self.positive and any(not (c > 0) for c in coords):
            raise DomainError(f"coordinates must be strictly positive: {coords}")

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


class PosVec(CoordVector, scalar=float, positive=True):
    """A point of R_+^n (all coordinates strictly positive)."""


class RealVec(CoordVector, scalar=float):
    """A point of R^n."""


class ComplexVec(CoordVector, scalar=complex):
    """A point of C^n."""


class Grid(tuple):
    """A strictly increasing tuple of at least two abscissae, checked once when
    built: functions sampled on one shared Grid skip the check."""

    def __new__(cls, abscissae):
        grid = super().__new__(cls, map(float, abscissae))
        if len(grid) < 2:
            raise ShapeError("grid must contain at least two abscissae")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("grid must be strictly increasing")
        return grid


@dataclass(frozen=True)
class SampledPosFunction:
    """A positive function on [a, b] represented by samples on a grid.

    The grid must be strictly increasing; two functions are comparable only
    when sampled on the identical grid.
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        grid = self.grid if isinstance(self.grid, Grid) else Grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(grid),):
            raise ShapeError("grid and values must have equal length")
        if not (values > 0).all():
            raise DomainError("function values must be strictly positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", tuple(values.tolist()))
        # cached log values make the sup metric one vectorized pass
        object.__setattr__(self, "_log_values", np.log(values))

    @classmethod
    def from_callable(cls, fn, a: float, b: float, n: int = 1024) -> "SampledPosFunction":
        grid = [a + (b - a) * i / (n - 1) for i in range(n)]
        return cls(tuple(grid), tuple(fn(x) for x in grid))


@dataclass(frozen=True)
class SegmentPoint:
    """A point on one of the two unit-anchored segments

        {(u, 1) : 1 <= u <= 2}  union  {(1, v) : 1 <= v <= 2}.
    """

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        if not (1.0 <= self.u <= 2.0 and 1.0 <= self.v <= 2.0):
            raise DomainError(f"segment coordinates must lie in [1, 2]: {self}")
        if self.u != 1.0 and self.v != 1.0:
            raise DomainError(f"one coordinate must equal 1: {self}")


# ---------------------------------------------------------------------------
# concrete metrics, each one chart

@dataclass(frozen=True)
class Chart:
    """Coordinates in which rho = ln d is a plain norm: rho(x, y) =
    |phi(x) - phi(y)| * factor / divisor, |.| the L1 or the L-infinity norm.

    `phi` maps a point to its chart coordinates (one number for a `scalar`
    chart, where None is the point itself).  The scale is a factor and a
    divisor so that ln(a) * gap and gap / 3 keep their closed forms bit for
    bit.  `dist` gives rho of two points as a MulDistance (a DomainError for anything phi
    cannot read), `rho` of two arrays of chart coordinates (last axis: one point's coordinates).
    """

    phi: Optional[Callable] = None
    norm: str = "l1"
    factor: float = 1.0
    divisor: float = 1.0
    scalar: bool = False

    def rho(self, a, b) -> np.ndarray:
        gap = np.abs(a - b)
        r = gap.max(axis=-1) if self.norm == "linf" else gap.sum(axis=-1)
        return r * self.factor / self.divisor

    @cached_property
    def dist(self) -> Callable:
        phi, scalar, linf = self.phi, self.scalar, self.norm == "linf"
        factor, divisor, unit = self.factor, self.divisor, self.factor == self.divisor == 1.0

        def dist(x, y) -> MulDistance:
            try:
                if scalar:
                    r = abs(x - y) if phi is None else abs(phi(x) - phi(y))
                else:
                    a, b = phi(x), phi(y)
                    if len(a) != len(b):
                        raise ShapeError(f"length mismatch: {len(a)} vs {len(b)}")
                    r = (float(np.max(np.abs(a - b))) if linf
                         else sum(map(abs, map(operator.sub, a, b))))
            except (AttributeError, ValueError, TypeError):
                raise DomainError(f"not points of this space: {x!r}, {y!r}") from None
            return MulDistance(r if unit else r * factor / divisor)

        return dist


def mabs(a: float) -> MulDistance:
    """Multiplicative absolute value: a if a >= 1 else 1/a, as a MulDistance."""
    if not (a > 0):
        raise DomainError(f"mabs requires a > 0, got {a}")
    return MulDistance(abs(math.log(a)))


def _segment_log(p) -> float:
    # the two segments unrolled into one line: ln u on {(u, 1)}, -ln v on {(1, v)};
    # |ln u - ln u'| + |ln v - ln v'| is then one absolute difference
    if not isinstance(p, SegmentPoint):
        raise DomainError("dist_segment requires SegmentPoint operands")
    return math.log(p.u) - math.log(p.v)


#: |.|* on R_+ (float points) and d* on R_+^n (PosVec points): L1 in log coordinates
POS_CHART = Chart(math.log, scalar=True)
D_STAR_CHART = Chart(lambda x: tuple(map(math.log, x.coords)))
#: d_e on R: |x - y|
LINE_CHART = Chart(scalar=True)
#: the cube-root product metric on the two unit-anchored segments
SEGMENT_CHART = Chart(_segment_log, divisor=3.0, scalar=True)
#: the sup metric on sampled positive functions: max pointwise ratio gap
SUP_CHART = Chart(lambda f: f._log_values, norm="linf")


def exp_chart(base: float) -> Chart:
    """d_a = a^(sum |x_i - y_i|) on R^n or C^n (RealVec or ComplexVec): L1, scaled by ln a."""
    if not (1 < base < math.inf):
        raise DomainError(f"base must be finite and exceed 1, got {base}")
    return Chart(operator.attrgetter("coords"), factor=math.log(base))


#: d* (the product-of-ratios metric) and the segment metric on two points
dist_pos_vec = D_STAR_CHART.dist
dist_segment = SEGMENT_CHART.dist


def dist_exp(x, y, base: float) -> MulDistance:
    """Exponential metric base^(sum |x_i - y_i|) on R^n or C^n (moduli)."""
    return exp_chart(base).dist(x, y)


def dist_function_sup(f: SampledPosFunction, g: SampledPosFunction) -> MulDistance:
    """Sup metric on sampled positive functions: max pointwise ratio gap."""
    rho = SUP_CHART.dist(f, g)  # a DomainError for anything but two sampled functions
    if f.grid is not g.grid and f.grid != g.grid:
        raise ShapeError("functions must be sampled on the identical grid")
    return rho


# ---------------------------------------------------------------------------
# balls

@dataclass(frozen=True)
class MulBall:
    """A multiplicative ball: center plus radius eps > 1 (stored as ln eps)."""

    center: object
    log_radius: float
    closed: bool = False

    def __post_init__(self):
        if not (self.log_radius > 0):
            raise DomainError(f"ball radius must exceed 1 (log_radius > 0), "
                              f"got log_radius={self.log_radius}")

    @classmethod
    def open_ball(cls, center, radius: float) -> "MulBall":
        if not (radius > 1):
            raise DomainError(f"radius must exceed 1, got {radius}")
        return cls(center, math.log(radius), closed=False)

    @classmethod
    def closed_ball(cls, center, radius: float) -> "MulBall":
        if not (radius > 1):
            raise DomainError(f"radius must exceed 1, got {radius}")
        return cls(center, math.log(radius), closed=True)


def ball_contains(ball: MulBall, p, space) -> bool:
    """Membership test in the space's d: d(center, p) < eps (open) or <= eps (closed)."""
    rho = space.dist(ball.center, p).log_value
    if ball.closed:
        return rho <= ball.log_radius
    return rho < ball.log_radius


def reverse_triangle_gap(x, y, z, space) -> tuple[MulDistance, MulDistance]:
    """Both sides of the multiplicative reverse triangle inequality in the space's d.

    Returns (lhs, rhs) with lhs = | d(x,z)/d(y,z) |* and rhs = d(x,y);
    every multiplicative metric satisfies lhs <= rhs.
    """
    d = space.dist
    lhs = MulDistance(abs(d(x, z).log_value - d(y, z).log_value))
    rhs = d(x, y)
    return lhs, rhs
