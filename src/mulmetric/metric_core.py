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
from itertools import repeat
from typing import Callable, Optional

from .errors import DomainError, ShapeError

#: Two points compare equal when their distance has log_value <= this.
POINT_EQ_TOL_LOG = 1e-12


class MulDistance(float):
    """A multiplicative distance d as the float rho = ln d >= 0 itself: arithmetic
    and comparisons act on rho; `log_value` is rho as a plain float, `value` is d."""

    __slots__ = ()
    log_value = property(float.__float__)

    def __new__(cls, log_value: float):
        if not (log_value >= 0.0):
            raise DomainError(f"log_value must be >= 0, got {log_value}")
        return float.__new__(cls, log_value)

    @classmethod
    def from_value(cls, d: float) -> "MulDistance":
        """Build from a plain distance value d >= 1."""
        if not (d >= 1.0):
            raise DomainError(f"multiplicative distance must be >= 1, got {d}")
        return cls(math.log(d))

    @property
    def value(self) -> float:
        """The plain distance d = e^rho (may overflow for huge rho)."""
        return math.exp(self)

    def __repr__(self) -> str:
        return f"MulDistance(log_value={float.__repr__(self)})"


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
        if not all(b > a for a, b in zip(grid, grid[1:])):  # false for NaN too
            raise DomainError("grid must be strictly increasing")
        return grid

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Grid":
        """n abscissae evenly spaced from a to b (fewer than two is a ShapeError)."""
        last = max(n - 1, 1)  # n = 1 reaches the ShapeError, not a division by zero
        return cls(a + (b - a) * i / last for i in range(n))


@dataclass(frozen=True)
class SampledPosFunction:
    """A positive function on [a, b] represented by samples on a grid.

    The grid must be strictly increasing; a function space's distance takes
    only functions sampled on a grid equal to its own.
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        import numpy as np
        grid = self.grid if isinstance(self.grid, Grid) else Grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(grid),):
            raise ShapeError("grid and values must have equal length")
        if not (values > 0).all():
            raise DomainError("function values must be strictly positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", tuple(values.tolist()))

    @classmethod
    def from_callable(cls, fn, a: float, b: float, n: int = 1024) -> "SampledPosFunction":
        grid = Grid.uniform(a, b, n)
        return cls(grid, tuple(map(fn, grid)))


@dataclass(frozen=True, init=False)
class SegmentPoint:
    """A point on one of the two unit-anchored segments

        {(u, 1) : 1 <= u <= 2}  union  {(1, v) : 1 <= v <= 2}.
    """

    u: float
    v: float

    def __init__(self, u: float, v: float):
        object.__setattr__(self, "u", float(u))  # each field once, past frozen
        object.__setattr__(self, "v", float(v))
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
    chart, where None is the point itself) and raises for any point outside
    the space: it alone decides what a point of the space is.  The scale is a
    factor and a divisor so that ln(a) * gap and gap / 3 keep their closed
    forms bit for bit.  `dist` gives rho of two points as a MulDistance (a
    DomainError for anything phi cannot read, or a NaN or infinite gap).  rho is
    then a pseudometric for any phi, and a metric on the points phi tells apart.

    `min_gap` is the least nonzero |a - b| of two coordinates: a float a - b is 0
    only where a == b (gradual underflow), so 2^-1074 on any float chart.  An L1
    sum or an L-infinity maximum of nonnegative gaps is at least each gap, and
    rounding is monotone, so two points whose coordinates differ lie at least
    `min_rho()` apart (a complex gap is a hypot, at least either part's).
    """

    phi: Optional[Callable] = None
    norm: str = "l1"
    factor: float = 1.0
    divisor: float = 1.0
    scalar: bool = False
    min_gap: float = math.ulp(0.0)

    def min_rho(self) -> float:
        """min_gap scaled by `dist`'s float operations in `dist`'s order: m1 holds
        on the chart's points when this is > 0."""
        g = self.min_gap
        return g if self.factor == self.divisor == 1.0 else g * self.factor / self.divisor

    def coords(self, points) -> list:
        """phi of each point, in order (the points themselves where phi is None)."""
        return points if self.phi is None else list(map(self.phi, points))

    def gaps(self, a, b) -> list:
        """rho(a[i], b[i]) for two columns of scalar coordinates, by `dist`'s float
        operations in `dist`'s order; a DomainError unless the column's sum is finite
        (a NaN or infinite gap, or a sum that overflows)."""
        r = map(math.fabs, map(operator.sub, a, b))
        r = list(r if self.factor == self.divisor == 1.0 else map(
            operator.truediv, map(operator.mul, r, repeat(self.factor)), repeat(self.divisor)))
        if math.isfinite(sum(r)):
            return r
        raise DomainError("a gap of the column is not finite")

    def product(self, other: Optional["Chart"]) -> Optional["Chart"]:
        """The chart of pairs (p, q), p a point of this chart and q of other: their
        coordinates concatenated, the smaller min_gap; None unless both are L1 charts
        of one scale."""
        if not (other and self.norm == other.norm == "l1"
                and (self.factor, self.divisor) == (other.factor, other.divisor)):
            return None
        (phi1, s1), (phi2, s2) = ((c.phi or (lambda x: x), c.scalar) for c in (self, other))

        def phi(p):
            p, q = p if isinstance(p, tuple) else ()  # a ValueError for anything but a pair
            return (*((phi1(p),) if s1 else phi1(p)), *((phi2(q),) if s2 else phi2(q)))

        return Chart(phi, factor=self.factor, divisor=self.divisor,
                     min_gap=min(self.min_gap, other.min_gap))

    @cached_property
    def dist(self) -> Callable:
        phi, scalar, linf, fabs = self.phi, self.scalar, self.norm == "linf", math.fabs
        factor, divisor, unit = self.factor, self.divisor, self.factor == self.divisor == 1.0
        new, inf = float.__new__, math.inf  # the gap is checked here, not by MulDistance

        def dist(x, y) -> MulDistance:
            try:
                if scalar:  # fabs: a TypeError for a complex or an array point
                    r = fabs(x - y) if phi is None else fabs(phi(x) - phi(y))
                else:
                    a, b = phi(x), phi(y)
                    r = (float(abs(a - b).max()) if linf
                         else sum(map(abs, map(operator.sub, a, b))))
            except (AttributeError, ValueError, TypeError):
                r = math.nan
            r = r if unit else r * factor / divisor
            if r < inf:  # a gap is >= 0: false only for a NaN or infinite one
                return new(MulDistance, r)
            raise DomainError(f"not points of this space: {x!r}, {y!r}")

        return dist


def mabs(a: float) -> MulDistance:
    """Multiplicative absolute value: a if a >= 1 else 1/a, as a MulDistance."""
    if not (a > 0):
        raise DomainError(f"mabs requires a > 0, got {a}")
    return float.__new__(MulDistance, abs(math.log(a)))  # |ln a| >= 0: no second check


def _segment_log(p) -> float:
    # the two segments unrolled into one line: ln u on {(u, 1)}, -ln v on {(1, v)};
    # |ln u - ln u'| + |ln v - ln v'| is then one absolute difference
    if not isinstance(p, SegmentPoint):
        raise DomainError(f"not a SegmentPoint: {p!r}")
    return math.log(p.u) - math.log(p.v)


#: |.|* on R_+ (float points): L1 in log coordinates
POS_CHART = Chart(math.log, scalar=True)
#: d_e on R: |x - y|
LINE_CHART = Chart(scalar=True)
#: the cube-root product metric on the two unit-anchored segments.  Its coordinates
#: are 0 or +-fl(ln t), t a float in [1 + 2^-52, 2], so |c| lies in [2^-53, 1), where
#: floats are multiples of 2^-105: distinct coordinates differ by at least 2^-105
#: (the default 2^-1074 / 3 would round to 0)
SEGMENT_CHART = Chart(_segment_log, divisor=3.0, scalar=True, min_gap=2.0**-105)


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
    rho = space.dist(ball.center, p)
    if ball.closed:
        return rho <= ball.log_radius
    return rho < ball.log_radius


def reverse_triangle_gap(x, y, z, space) -> tuple[MulDistance, MulDistance]:
    """Both sides of the multiplicative reverse triangle inequality in the space's d.

    Returns (lhs, rhs) with lhs = | d(x,z)/d(y,z) |* and rhs = d(x,y);
    every multiplicative metric satisfies lhs <= rhs.
    """
    d = space.dist
    lhs = MulDistance(abs(d(x, z) - d(y, z)))
    rhs = d(x, y)
    return lhs, rhs
