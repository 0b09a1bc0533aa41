"""Sampling-based certification or refutation of metric and contraction axioms.

A passing report is a statistical certificate only (the sampler cannot
exhaust a continuum), so every report carries sampled_not_proved = True.
A failing report is sound: each witness stores the exact inputs and the
measured values, and re-evaluating it reproduces the violation.  On a chart
space only m1's distinct-points test can fail, and only it runs there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress, count, repeat, starmap
from operator import add, gt, mul
from typing import ClassVar, NamedTuple

from .errors import DomainError, InputError
from .fixed_point import ContractionSpec, contraction_blocks
from .metric_core import POINT_EQ_TOL_LOG, MulDistance
from .spaces import SelfMap, SpaceInstance

#: how far a sampled ln d may miss an axiom or a contraction inequality (rounding)
SLACK_LOG = 1e-10
#: bound on |decode - phi| / (1 + |phi|) per chart coordinate (numpy's exp, log
#: and sin may differ from math's by an ulp)
CHART_REL_ERR = 1e-13
#: floats per array in one batch of chart samples
BLOCK_FLOATS = 2**14


def _log_of(d) -> float:
    """ln d of a candidate distance's result d: a MulDistance is ln d already; a plain
    d below 1 maps to a negative log and d <= 0 to -inf, which m1 flags.  A complex
    value, NaN or +inf (not in R_+) is a ValueError, which verify_axioms names with its
    sample."""
    if isinstance(d, MulDistance):
        return d
    if isinstance(d, complex) or not d < math.inf:
        raise ValueError(f"candidate distance returned an undefined value: {d}")
    return math.log(d) if d > 0 else -math.inf


class Witness(NamedTuple):
    axiom: str
    points: tuple
    values: tuple


@dataclass
class AxiomReport:
    m1_ok: bool
    m2_ok: bool
    m3_ok: bool
    reverse_ok: bool
    witnesses: list[Witness]
    samples_used: int
    seed: int
    slack_log: float
    sampled_not_proved: bool = True
    witness_key: ClassVar[str] = "axiom"

    @property
    def all_ok(self) -> bool:
        return self.m1_ok and self.m2_ok and self.m3_ok and self.reverse_ok


@dataclass
class ContractionReport:
    kind: str
    lam: float = field(metadata={"key": "lambda"})
    condition_ok: bool
    witnesses: list[Witness]
    samples_used: int
    seed: int
    slack_log: float
    sampled_not_proved: bool = True
    witness_key: ClassVar[str] = "kind"


def _fails(dxy, dyx, dxz, dyz, dxx, slack):
    """The five axiom tests on a triple's log distances: m1 on (x, y) and on (x, x),
    m2, m3 and the reverse inequality, each true where it fails by more than slack."""
    return (dxy < -slack, abs(dxx) > slack, abs(dxy - dyx) > slack,
            dxz > dxy + dyz + slack, abs(dxz - dyz) > dxy + slack)


def _axiom_witnesses(distance, x, y, z) -> list[Witness]:
    """The witnesses one sampled triple gives a chartless candidate, in the order
    the report lists them; its points are told apart by `==`."""
    dxy = _log_of(distance(x, y))
    dyx = _log_of(distance(y, x))
    dxz = _log_of(distance(x, z))
    dyz = _log_of(distance(y, z))
    dxx = _log_of(distance(x, x))
    m1, m1_self, m2, m3, reverse = _fails(dxy, dyx, dxz, dyz, dxx, SLACK_LOG)
    found = []
    if m1 or (dxy <= POINT_EQ_TOL_LOG and x != y):
        found.append(Witness("m1", (x, y), (dxy,)))
    if m1_self:
        found.append(Witness("m1", (x, x), (dxx,)))
    if m2:
        found.append(Witness("m2", (x, y), (dxy, dyx)))
    if m3:
        found.append(Witness("m3", (x, y, z), (dxz, dxy, dyz)))
    if reverse:
        found.append(Witness("reverse", (x, y, z), (abs(dxz - dyz), dxy)))
    return found


def _chart_witness(dist, x, y) -> list[Witness]:
    """m1 on a chart space: distinct points at ln d = 0 exactly (any positive
    tolerance would refute distinct points that are merely close)."""
    dxy = dist(x, y)
    return [Witness("m1", (x, y), (dxy,))] if dxy == 0.0 and x != y else []


class _Replay(random.Random):
    """Hands out recorded rng.random() values: a sampler rebuilds its points."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _batched_witnesses(space: SpaceInstance, n_samples: int, seed: int) -> list[Witness]:
    """verify_axioms on a chart space with a decode, in blocks of the same random.Random
    stream, x and y of each triple decoded.  Where phi(x) = phi(y), decode puts x and y
    within 2 * CHART_REL_ERR * (1 + |x| + |y|) in each coordinate it gives, all of phi's
    or a fixed selection: such a row, or one with a non-finite gap, is rebuilt from its
    draws and checked by the scalar code.  A selection may rebuild more rows than the
    whole chart would, never fewer; the block size follows the decode's width."""
    import numpy as np
    draw, k = random.Random(seed).random, space.draws
    block = max(1, BLOCK_FLOATS // (3 * max(k, space.decode(np.zeros(k)).shape[-1])))
    witnesses: list[Witness] = []
    for start in range(0, n_samples, block):
        b = min(block, n_samples - start)
        u = np.fromiter(starmap(draw, repeat((), 3 * k * b)), float, 3 * k * b).reshape(b, 3, k)
        x, y = np.moveaxis(space.decode(u[:, :2]), 1, 0)
        gap, bound = abs(x - y), 2 * CHART_REL_ERR * (1 + abs(x) + abs(y))
        for i in np.flatnonzero((gap <= bound).all(-1) | ~np.isfinite(gap).all(-1)):
            replay = _Replay(u[i, :2].ravel().tolist())
            witnesses += _chart_witness(space.dist, space.sample(replay), space.sample(replay))
    return witnesses


def verify_axioms(space: SpaceInstance, n_samples: int, seed: int = 0) -> AxiomReport:
    """Sample triples from the space and test m1-m3 and the reverse inequality.

    On a chart space ln d is a norm of phi(x) - phi(y): only m1 can fail, where phi
    is not injective, and a pair x != y at ln d = 0 exactly is its witness.  A
    chartless space (a candidate distance under test) runs all five tests, m1 in
    both directions: d(x, x) = 1, d >= 1, and no ln d within the point-equality
    tolerance between points that are not `==`.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    if space.chart is not None and space.decode is not None:
        witnesses = _batched_witnesses(space, n_samples, seed)
    else:
        rng, dist, sample, witnesses = random.Random(seed), space.dist, space.sample, []
        for _ in range(n_samples):
            x, y, z = sample(rng), sample(rng), sample(rng)
            try:
                witnesses += (_axiom_witnesses(dist, x, y, z) if space.chart is None
                              else _chart_witness(dist, x, y))
            except (ArithmeticError, ValueError, TypeError) as exc:
                raise DomainError(f"distance {space.name} is undefined at {(x, y, z)!r}: "
                                  f"{exc}") from None

    flagged = {w.axiom for w in witnesses}
    return AxiomReport("m1" not in flagged, "m2" not in flagged, "m3" not in flagged,
                       "reverse" not in flagged, witnesses, n_samples, seed, SLACK_LOG)


def verify_contraction(map_: SelfMap, kind: str, lam: float, n_samples: int,
                       seed: int = 0) -> ContractionReport:
    """Test the kind's contraction inequality on pairs sampled from the map's space."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    spec = ContractionSpec(kind, lam)  # checks the kind and the range of lambda

    witnesses: list[Witness] = []
    for xs, ys, lhs, q in contraction_blocks(map_, spec.kind, n_samples, seed):
        rhs = list(map(mul, repeat(spec.lam), q))
        # a witness's lhs is a MulDistance, as `dist` gives it
        witnesses += [Witness(kind, (xs[i], ys[i]), (float.__new__(MulDistance, lhs[i]), rhs[i]))
                      for i in compress(count(), map(gt, lhs, map(add, rhs, repeat(SLACK_LOG))))]

    return ContractionReport(kind, lam, not witnesses, witnesses, n_samples, seed, SLACK_LOG)
