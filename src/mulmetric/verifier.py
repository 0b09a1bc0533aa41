"""Sampling-based certification or refutation of metric and contraction axioms.

A passing report is a statistical certificate only (the sampler cannot
exhaust a continuum), so every report carries sampled_not_proved = True.
A failing report is sound: each witness stores the exact inputs and the
measured values, and re-evaluating it reproduces the violation.
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
#: bound on |batched rho - scalar rho| / (1 + rho) on a chart space (sums in
#: another order; numpy's exp, log and sin may differ from math's by an ulp)
CHART_REL_ERR = 1e-13
#: floats per array in one batch of chart samples
BLOCK_FLOATS = 2**14


def _log_of(d) -> float:
    """Log-domain value of a candidate distance result.

    Accepts a MulDistance, which is ln d, or a plain value d (the candidate
    need not be a multiplicative metric, so values below 1 map to negative
    logs, and d <= 0 to -inf, which the m1 check flags); a complex value, NaN
    or +inf (not in R_+) is a ValueError, which verify_axioms names with its
    sample.
    """
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


def _fails(dxy, dyx, dxz, dyz, dxx, m1, m1_self, m2, m3, reverse):
    """The five axiom tests on the log distances of a triple (floats) or of a block
    of triples (arrays): m1 on (x, y), m1 on (x, x), m2, m3 and the reverse
    inequality, each true where the test fails by more than its own slack."""
    return (dxy < -m1, abs(dxx) > m1_self, abs(dxy - dyx) > m2,
            dxz > dxy + dyz + m3, abs(dxz - dyz) > dxy + reverse)


def _axiom_witnesses(distance, x, y, z, chartless) -> list[Witness]:
    """The witnesses one sampled triple gives, in the order the report lists them.
    A chart space's identity is its distance; a chartless candidate's is `==`."""
    dxy = _log_of(distance(x, y))
    dyx = _log_of(distance(y, x))
    dxz = _log_of(distance(x, z))
    dyz = _log_of(distance(y, z))
    dxx = _log_of(distance(x, x))
    m1, m1_self, m2, m3, reverse = _fails(dxy, dyx, dxz, dyz, dxx, *[SLACK_LOG] * 5)
    found = []
    if m1 or (chartless and dxy <= POINT_EQ_TOL_LOG and x != y):
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


class _Replay(random.Random):
    """Hands out recorded rng.random() values: a sampler rebuilds its points."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _chart_witnesses(space: SpaceInstance, n_samples: int, seed: int) -> list[Witness]:
    """verify_axioms on a chart space, a block of samples at a time: the same
    random.Random(seed) stream, the five distances and the axiom tests on chart
    arrays.  A sample within a margin of failing a test (half the slack plus
    CHART_REL_ERR times 1 + ln d for each distance that test reads) is rebuilt
    from its draws as exact points and checked by the scalar code, which alone
    writes witnesses."""
    import numpy as np
    draw, k, rho = random.Random(seed).random, space.draws, space.chart.rho
    width = space.decode(np.zeros(k)).shape[-1]
    block = max(1, BLOCK_FLOATS // (3 * max(k, width)))
    witnesses: list[Witness] = []

    def screen(*read):  # a test's slack less the margin of the distances it reads
        return 0.5 * SLACK_LOG - CHART_REL_ERR * (len(read) + sum(read))

    for start in range(0, n_samples, block):
        b = min(block, n_samples - start)
        u = np.fromiter(starmap(draw, repeat((), 3 * k * b)), float, 3 * k * b).reshape(b, 3, k)
        x, y, z = np.moveaxis(space.decode(u), 1, 0)
        dxy, dyx, dxz, dyz, dxx = rho(x, y), rho(y, x), rho(x, z), rho(y, z), rho(x, x)
        # dxx and dxy - dyx are exactly 0, in rho as in the scalar distance
        m1, m1_self, m2, m3, reverse = _fails(
            dxy, dyx, dxz, dyz, dxx, screen(dxy), screen(dxx), screen(abs(dxy - dyx)),
            screen(dxz, dxy, dyz), screen(dxz, dyz, dxy))
        # a NaN distance fails no test: the scalar check decides its row
        undefined = ~np.isfinite(dxy + dyx + dxz + dyz + dxx)
        for i in np.flatnonzero(m1 | m1_self | m2 | m3 | reverse | undefined):
            replay = _Replay(u[i].ravel().tolist())
            points = [space.sample(replay) for _ in range(3)]
            witnesses += _axiom_witnesses(space.dist, *points, False)
    return witnesses


def verify_axioms(space: SpaceInstance, n_samples: int, seed: int = 0) -> AxiomReport:
    """Sample triples from the space and test m1-m3 and the reverse inequality.

    m1 is checked in both directions: d(x, x) must be 1, every sampled pair
    must have d >= 1, and on a chartless space (a candidate distance under
    test) a distance within the point-equality tolerance between points that
    are not `==` is flagged.  A pair gets at most one m1 witness.  A space with
    a chart and a decode is checked in numpy batches, with the same report.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    if space.chart is not None and space.decode is not None:
        witnesses = _chart_witnesses(space, n_samples, seed)
    else:
        rng, dist, sample = random.Random(seed), space.dist, space.sample
        chartless, witnesses = space.chart is None, []
        for _ in range(n_samples):
            x, y, z = sample(rng), sample(rng), sample(rng)
            try:
                witnesses += _axiom_witnesses(dist, x, y, z, chartless)
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
