"""Certification or refutation of metric and contraction axioms.

A chart space's metric axioms are proved from its chart's scale
(sampled_not_proved = False): d(x, x) = 1, m1 and m2 hold exactly in floats for
every pair whose scaled gap is finite, m3 and the reverse inequality in real
arithmetic, their float rounding pinned only at sampled scales by
test_a_chart_distance_never_fails_the_tests_a_chart_cannot_fail.  A pair whose
gap overflows is still `not points of this space`.  Every other check samples,
and a pass is a statistical certificate only.  A failing report is sound: each
witness stores the exact inputs and the measured values, and re-evaluating it
reproduces the violation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import add, gt, mul
from typing import ClassVar, NamedTuple

from .errors import DomainError, InputError
from .fixed_point import ContractionSpec, contraction_blocks
from .metric_core import POINT_EQ_TOL_LOG, MulDistance
from .spaces import SelfMap, SpaceInstance

#: how far a sampled ln d may miss an axiom or a contraction inequality (rounding)
SLACK_LOG = 1e-10


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


def verify_axioms(space: SpaceInstance, n_samples: int, seed: int = 0) -> AxiomReport:
    """Prove m1-m3 and the reverse inequality on a chart space, or test them on
    sampled triples of a chartless one.

    On a chart space ln d is a norm of phi(x) - phi(y), and two points are one
    point when their coordinates are equal: the axioms then follow from the
    chart's scale, and nothing is drawn.  m1 holds when `Chart.min_rho` is > 0;
    otherwise points min_gap apart lie at ln d = 0, a DomainError.  A proved
    report echoes n_samples and seed.  A chartless space (a candidate distance
    under test) runs all five tests, m1 in both directions: d(x, x) = 1, d >= 1,
    and no ln d within the point-equality tolerance between points that are not `==`.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    if space.chart is not None:
        if not space.chart.min_rho() > 0:
            raise DomainError(f"m1 fails on {space.name}: points whose chart coordinates "
                              f"differ by {space.chart.min_gap!r} lie at ln d = 0")
        return AxiomReport(True, True, True, True, [], n_samples, seed, SLACK_LOG, False)
    rng, dist, sample, witnesses = random.Random(seed), space.dist, space.sample, []
    for _ in range(n_samples):
        x, y, z = sample(rng), sample(rng), sample(rng)
        try:
            witnesses += _axiom_witnesses(dist, x, y, z)
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
