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
from typing import Callable, ClassVar, Optional

from .errors import InputError
from .fixed_point import ContractionSpec, contraction_logs
from .metric_core import POINT_EQ_TOL_LOG, MulDistance

DEFAULT_SLACK_LOG = 1e-10


def _log_of(d) -> float:
    """Log-domain value of a candidate distance result.

    Accepts a MulDistance or a plain value d (the candidate need not be a
    valid multiplicative metric, so plain values below 1 are allowed and
    map to negative logs, and values d <= 0 to -inf, which the m1 check
    then flags).
    """
    if isinstance(d, MulDistance):
        return d.log_value
    if math.isnan(d):
        raise InputError(f"candidate distance returned an undefined value: {d}")
    return math.log(d) if d > 0 else -math.inf


@dataclass(frozen=True)
class Witness:
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


def verify_axioms(distance: Callable, sampler: Callable, n_samples: int,
                  seed: int = 0, slack_log: float = DEFAULT_SLACK_LOG,
                  points_equal: Optional[Callable] = None) -> AxiomReport:
    """Sample pairs and triples and test m1-m3 plus the reverse inequality.

    m1 is checked in both directions: d(x, x) must be 1, every sampled pair
    must have d >= 1, and (when a points_equal predicate is supplied) a
    distance within the point-equality tolerance between distinct points is
    flagged.  A pair gets at most one m1 witness.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rng = random.Random(seed)
    witnesses: list[Witness] = []
    for _ in range(n_samples):
        x, y, z = sampler(rng), sampler(rng), sampler(rng)
        dxy = _log_of(distance(x, y))
        dyx = _log_of(distance(y, x))
        dxz = _log_of(distance(x, z))
        dyz = _log_of(distance(y, z))
        dxx = _log_of(distance(x, x))

        if dxy < -slack_log or (points_equal is not None and dxy <= POINT_EQ_TOL_LOG
                                and not points_equal(x, y)):
            witnesses.append(Witness("m1", (x, y), (dxy,)))
        if abs(dxx) > slack_log:
            witnesses.append(Witness("m1", (x, x), (dxx,)))
        if abs(dxy - dyx) > slack_log:
            witnesses.append(Witness("m2", (x, y), (dxy, dyx)))
        if dxz > dxy + dyz + slack_log:
            witnesses.append(Witness("m3", (x, y, z), (dxz, dxy, dyz)))
        if abs(dxz - dyz) > dxy + slack_log:
            witnesses.append(Witness("reverse", (x, y, z), (abs(dxz - dyz), dxy)))

    flagged = {w.axiom for w in witnesses}
    return AxiomReport("m1" not in flagged, "m2" not in flagged, "m3" not in flagged,
                       "reverse" not in flagged, witnesses, n_samples, seed, slack_log)


def verify_contraction(map_: Callable, distance: Callable, kind: str, lam: float,
                       sampler: Callable, n_samples: int, seed: int = 0,
                       slack_log: float = DEFAULT_SLACK_LOG) -> ContractionReport:
    """Test the contraction inequality of the given kind on sampled pairs."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    spec = ContractionSpec(kind, lam)  # checks the kind and the range of lambda

    rng = random.Random(seed)
    witnesses: list[Witness] = []
    for _ in range(n_samples):
        x, y = sampler(rng), sampler(rng)
        fx, fy = map_(x), map_(y)
        lhs, q = contraction_logs(spec.kind, distance, x, y, fx, fy)
        rhs = spec.lam * q
        if lhs > rhs + slack_log:
            witnesses.append(Witness(kind, (x, y), (lhs, rhs)))

    return ContractionReport(kind, lam, not witnesses, witnesses, n_samples, seed, slack_log)
