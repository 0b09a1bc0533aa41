"""Built-in problems, named maps, and the problem-file format.

A ProblemDefinition pins everything a solver run needs (space, map, kind,
constant, start, tolerance, seed) so that runs are reproducible and can be
round-tripped through the plain-text problem format:

    key = value        # one per line, '#' starts a comment
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from . import spaces
from .errors import InputError
from .expressions import compile_expr
from .metric_core import CoordVector, PosVec, RealVec, SampledPosFunction, SegmentPoint
from .spaces import SelfMap, SpaceInstance

SPACE_IDS = tuple(spaces.SPACES)


@dataclass(frozen=True)
class ProblemDefinition:
    """A fully pinned solver run."""

    space_id: str
    map_id: Optional[str] = None
    expr: Optional[str] = None
    dim: int = 1
    base: float = math.e
    lo: Optional[float] = None
    hi: Optional[float] = None
    kind: str = "banach"
    lam: float = 0.5
    x0: tuple = (1.0,)
    tol_log: float = 1e-12
    max_iter: int = 10**6
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(c) for c in self.x0))
        if self.space_id not in SPACE_IDS:
            raise InputError(f"unknown space id {self.space_id!r}")
        if (self.map_id is None) == (self.expr is None):
            raise InputError("exactly one of map_id and expr must be set")


# ---------------------------------------------------------------------------
# named maps

#: map id -> function; the scalar maps are expression text, compiled once at import
MAP_FNS = {
    "paper-scalar": compile_expr("exp(x - 1 - x^3/10)"),
    "sqrt-toy": compile_expr("sqrt(x)"),
    "quarter": compile_expr("x/4"),
    "segment-half-power": spaces.segment_half_power,
}


def build_space(pd: ProblemDefinition) -> SpaceInstance:
    return spaces.build(pd.space_id, pd.dim, pd.base, pd.lo, pd.hi)


def build_selfmap(pd: ProblemDefinition, space: SpaceInstance | None = None) -> SelfMap:
    space = space or build_space(pd)
    if pd.map_id is not None:
        fn = MAP_FNS.get(pd.map_id)
        if fn is None:
            raise InputError(f"unknown map id {pd.map_id!r}")
        return SelfMap(pd.map_id, fn, space)
    return SelfMap(f"expr({pd.expr})", compile_expr(pd.expr, ("x",)), space)


def decode_point(pd: ProblemDefinition, coords: tuple):
    """Turn the flat x0 coordinate tuple into the space's point type."""
    space = pd.space_id
    if space == "func-sup":
        raise InputError("space 'func-sup' takes no start point from coordinates")
    n = {"segment": 2, "product-pos": 2, "d-star": pd.dim, "d-a": pd.dim}.get(space, 1)
    if len(coords) != n:
        raise InputError(f"space {space!r} expects a start point of {n} coordinate(s)")
    if space == "segment":
        return SegmentPoint(*coords)
    if space in ("d-star", "d-a"):
        return (PosVec if space == "d-star" else RealVec)(coords)
    return coords if space == "product-pos" else coords[0]


def encode_point(point) -> list:
    """A point as JSON numbers: its coordinates ([re, im] for a complex one),
    a sampled function's values, or a list of the two encoded points of a pair."""
    if isinstance(point, float):
        return [float(point)]
    if isinstance(point, tuple):
        return [encode_point(p) for p in point]
    if isinstance(point, SegmentPoint):
        return [point.u, point.v]
    if isinstance(point, SampledPosFunction):
        return list(point.values)
    coords = point.coords if isinstance(point, CoordVector) else (point,)
    return [[c.real, c.imag] if isinstance(c, complex) else float(c) for c in coords]


# ---------------------------------------------------------------------------
# problem files

def serialize_problem(pd: ProblemDefinition) -> str:
    lines = []
    for f in fields(pd):
        value = getattr(pd, f.name)
        if value is None:
            continue
        if f.name == "x0":
            value = ",".join(repr(c) for c in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_value(key: str, text: str):
    """Convert the text of one problem value to the type of its key."""
    try:
        if key == "x0":
            return tuple(float(c) for c in text.split(","))
        if key in ("dim", "max_iter", "seed"):
            return int(text)
        if key in ("base", "lo", "hi", "lam", "tol_log"):
            return float(text)
    except ValueError:
        raise InputError(f"bad value for {key}: {text!r}") from None
    return text


def parse_problem(text: str) -> ProblemDefinition:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    known = {f.name for f in fields(ProblemDefinition)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise InputError(f"unknown problem key {key!r}")
        kwargs[key] = parse_value(key, value)
    if "space_id" not in kwargs:
        raise InputError("problem file has no space_id")
    return ProblemDefinition(**kwargs)


# ---------------------------------------------------------------------------
# built-in problems

@dataclass(frozen=True)
class RegistryEntry:
    problem: ProblemDefinition
    expected: str
    source: str


REGISTRY = {
    "paper-scalar": RegistryEntry(
        ProblemDefinition(space_id="pos-interval", map_id="paper-scalar",
                          lo=0.1, hi=1.0, kind="banach", lam=0.997,
                          x0=(0.5,), tol_log=1e-10, max_iter=10**5),
        expected="0.7411317711",
        source="scalar interval example: x -> exp(x - 1 - x^3/10) on [0.1, 1]"),
    "paper-segment": RegistryEntry(
        ProblemDefinition(space_id="segment", map_id="segment-half-power",
                          kind="banach", lam=0.5, x0=(2.0, 1.0),
                          tol_log=1e-13, max_iter=10**4),
        expected="(1, 1)",
        source="two-segment example: swap segments and take square roots"),
    "sqrt-toy": RegistryEntry(
        ProblemDefinition(space_id="pos-reals", map_id="sqrt-toy",
                          kind="banach", lam=0.5, x0=(16.0,),
                          tol_log=1e-12, max_iter=10**4),
        expected="1",
        source="square-root toy contraction on the positive reals"),
    "quarter-kannan": RegistryEntry(
        ProblemDefinition(space_id="real-line-exp", map_id="quarter",
                          kind="kannan", lam=1.0 / 3.0, x0=(8.0,),
                          tol_log=1e-10, max_iter=10**4),
        expected="0",
        source="x -> x/4 under the exponential line metric, Kannan-type"),
    "quarter-chatterjea": RegistryEntry(
        ProblemDefinition(space_id="real-line-exp", map_id="quarter",
                          kind="chatterjea", lam=0.2, x0=(8.0,),
                          tol_log=1e-10, max_iter=10**4),
        expected="0",
        source="x -> x/4 under the exponential line metric, Chatterjea-type"),
}
