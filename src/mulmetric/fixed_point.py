"""Picard solvers for multiplicative contraction mappings.

Three contraction classes are supported:

  banach      d(fx, fy) <= d(x, y)^lambda,               lambda in [0, 1)
  kannan      d(fx, fy) <= (d(fx, x) * d(fy, y))^lambda, lambda in [0, 1/2)
  chatterjea  d(fx, fy) <= (d(fx, y) * d(fy, x))^lambda, lambda in [0, 1/2)

All three drive the same geometric step chain; for the latter two the
effective per-step rate is h = lambda / (1 - lambda).  The solvers stop on
the geometric-series tail bounds (a-priori from the first step, a-posteriori
from the latest step), both tracked per iteration in the trace, and they
monitor the observed step ratios so that a wrong lambda surfaces as an
InvariantBreachError instead of silently broken bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import add, le, not_, truediv
from typing import Callable, NamedTuple, Sequence

from .errors import (
    EstimationError,
    InputError,
    InvariantBreachError,
    PreconditionError,
)
from .spaces import SelfMap

DEFAULT_TOL_LOG = 1e-12
DEFAULT_MAX_ITER = 10**6

#: absolute slack for the per-step geometric-decay monitor
STEP_CHAIN_SLACK = 1e-12
#: sampled pairs per block of `contraction_blocks`
PAIR_BLOCK = 256

KINDS = ("banach", "kannan", "chatterjea")


@dataclass(frozen=True)
class ContractionSpec:
    """Contraction class plus its constant."""

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown contraction kind {self.kind!r}")
        hi = 1.0 if self.kind == "banach" else 0.5
        if not (0.0 <= self.lam < hi):
            raise InputError(f"{self.kind} constant must lie in [0, {hi}), got {self.lam}")

    @property
    def rate(self) -> float:
        """Per-step geometric rate: lambda for banach, lambda/(1-lambda) otherwise."""
        if self.kind == "banach":
            return self.lam
        return self.lam / (1.0 - self.lam)


class TraceStep(NamedTuple):
    n: int
    point: object
    step_log: float          # ln d(x_{n+1}, x_n)
    apriori_log: float       # (rate^n / (1-rate)) * ln d(x_1, x_0), bounds ln d(x_n, z)
    aposteriori_log: float   # (rate / (1-rate)) * step_log, bounds ln d(x_{n+1}, z)


@dataclass
class SolverReport:
    fixed_point: object
    residual_log: float
    iterations: int
    converged: bool
    trace: list[TraceStep]


@dataclass
class UniquenessProbe:
    fixed_points: list
    failures: list           # (start index, reason)
    max_pairwise_log: float
    ok: bool


def contraction_logs(kind: str, dist: Callable, x, y, fx, fy,
                     plus: Callable = add) -> tuple[float, float]:
    """ln d(fx, fy) and the log quantity lambda multiplies in the kind's condition
    (see the module docstring), `plus` joining its two terms; given columns of chart
    coordinates, `Chart.gaps` and a column sum, both sides are columns."""
    lhs = dist(fx, fy)
    if kind == "banach":
        return lhs, dist(x, y)
    if kind == "kannan":
        return lhs, plus(dist(fx, x), dist(fy, y))
    return lhs, plus(dist(fx, y), dist(fy, x))


def _columns(map_: SelfMap, kind: str, rng: random.Random, b: int) -> tuple:
    """b pairs on a scalar chart, an operation at a time over the block: the draws
    of the pair loop, the map and phi once per point, and `Chart.gaps` for `dist`,
    so every value is bit-identical."""
    chart = map_.space.chart
    points = list(map(map_.space.sample, repeat(rng, 2 * b)))  # maps draw nothing
    images = list(map(map_.fn, points))  # an error: the pair loop wraps it as SelfMap does
    c, fc = chart.coords(points), chart.coords(images)
    return (points[0::2], points[1::2], *contraction_logs(
        kind, chart.gaps, c[0::2], c[1::2], fc[0::2], fc[1::2],
        lambda p, q: list(map(add, p, q))))


def contraction_blocks(map_: SelfMap, kind: str, n_pairs: int, seed: int):
    """The n_pairs pairs of random.Random(seed) and both sides of `contraction_logs`, in
    blocks of at most PAIR_BLOCK: (xs, ys, lhs, q).  A space whose distance is its scalar
    chart's takes `_columns`; any other (a vector chart, a `dist` wrapped to count calls)
    and a block whose columns raise take the pair loop, which names the first error."""
    space, rng = map_.space, random.Random(seed)
    chart, sample, dist = space.chart, space.sample, space.dist
    columns = chart is not None and chart.scalar and dist is chart.dist

    def pair():
        x, y = sample(rng), sample(rng)
        return (x, y, *contraction_logs(kind, dist, x, y, map_(x), map_(y)))

    for start in range(0, n_pairs, PAIR_BLOCK):
        b, block = min(PAIR_BLOCK, n_pairs - start), None
        if columns:
            state = rng.getstate()
            try:
                block = _columns(map_, kind, rng, b)
            except Exception:  # whatever it is, the pair loop raises it again by name
                rng.setstate(state)
        yield block or tuple(zip(*[pair() for _ in range(b)]))


def apriori_bound(d10_log: float, rate: float, n: int) -> float:
    """Geometric tail bound (rate^n / (1 - rate)) * d10_log on ln d(x_n, z)."""
    if not (0.0 <= rate < 1.0):
        raise InputError(f"rate must lie in [0, 1), got {rate}")
    if d10_log < 0:
        raise InputError("d10_log must be nonnegative")
    return (rate**n / (1.0 - rate)) * d10_log


def _check_step(n: int, step_log: float, prev_step_log: float, rate: float):
    """Raise when step n breaks the geometric decay the declared rate implies."""
    if step_log > prev_step_log * rate + STEP_CHAIN_SLACK:
        raise InvariantBreachError(
            f"step {n}: ln d(x_n+1, x_n) = {step_log:.6e} exceeds "
            f"rate * previous = {prev_step_log * rate:.6e}; the supplied "
            f"contraction constant appears too small")


def _picard(map_: SelfMap, x0, rate: float, tol_log: float, max_iter: int,
            ball_center=None, ball_log_radius: float | None = None,
            fx0=None) -> SolverReport:
    """Shared Picard driver with geometric stopping and ratio monitoring; fx0 is
    f(x0) when the caller has it already."""
    if not (tol_log > 0):
        raise InputError(f"tol_log must be positive, got {tol_log}")
    if max_iter < 0:
        raise InputError(f"max_iter must be nonnegative, got {max_iter}")
    dist = map_.space.dist
    trace: list[TraceStep] = []
    x, fx = x0, map_(x0) if fx0 is None else fx0
    for n in range(max_iter + 1):
        step_log = dist(x, fx)  # x first: a start point outside the space is named
        # bounds on ln d(x_n, z): a-priori from the first step, a-posteriori from the
        # previous one; at n = 0 their minimum is d10_log itself
        if n:
            apr = (rate**n / (1.0 - rate)) * d10_log  # apriori_bound, its inputs checked
        else:
            d10_log = apo = step_log
            apr = apriori_bound(d10_log, rate, 0)
        converged = min(apr, apo) <= tol_log
        if n == max_iter and not converged:
            return SolverReport(x, step_log, n, False, trace)
        # the bounds trust the rate, so every step must obey it
        if n and step_log > prev_step_log * rate + STEP_CHAIN_SLACK:
            _check_step(n, step_log, prev_step_log, rate)
        apo = (rate / (1.0 - rate)) * step_log
        trace.append(tuple.__new__(TraceStep, (n, x, step_log, apr, apo)))
        if converged:
            return SolverReport(x, step_log, n, True, trace)
        if ball_log_radius is not None:
            drift = dist(fx, ball_center)
            if drift > ball_log_radius + STEP_CHAIN_SLACK:
                raise InvariantBreachError(
                    f"iterate {n + 1} left the closed ball: ln d(x, x0) = "
                    f"{drift:.6e} > ln eps = {ball_log_radius:.6e}")
        x, fx, prev_step_log = fx, map_(fx), step_log


def _require_kind(spec: ContractionSpec, kind: str, solver: str):
    if spec.kind != kind:
        raise InputError(f"{solver} requires a {kind} spec, got {spec.kind}")


def _kind_solver(kind: str) -> Callable[..., SolverReport]:
    def kind_solve(map_: SelfMap, x0, spec: ContractionSpec,
                   tol_log: float = DEFAULT_TOL_LOG,
                   max_iter: int = DEFAULT_MAX_ITER) -> SolverReport:
        _require_kind(spec, kind, kind_solve.__name__)
        return solve(map_, x0, spec, tol_log, max_iter)

    kind_solve.__name__ = kind_solve.__qualname__ = f"{kind}_solve"
    kind_solve.__doc__ = f"Picard iteration under the {kind}-type condition ({kind} specs only)."
    return kind_solve


banach_solve = _kind_solver("banach")
kannan_solve = _kind_solver("kannan")
chatterjea_solve = _kind_solver("chatterjea")


def ball_solve(map_: SelfMap, x0, epsilon: float, spec: ContractionSpec,
               tol_log: float = DEFAULT_TOL_LOG,
               max_iter: int = DEFAULT_MAX_ITER) -> SolverReport:
    """Banach solve restricted to the closed ball of radius epsilon at x0.

    Admissible only when d(fx0, x0) <= epsilon^(1-lambda); with that
    precondition the closed ball is invariant and contains the fixed point,
    so every iterate is checked against the ball and a breach flags a wrong
    lambda.
    """
    _require_kind(spec, "banach", "ball_solve")
    if not (epsilon > 1):
        raise InputError(f"epsilon must exceed 1, got {epsilon}")
    fx0 = map_(x0)
    first_log = map_.space.dist(fx0, x0)
    budget = (1.0 - spec.lam) * math.log(epsilon)
    if first_log > budget + STEP_CHAIN_SLACK:
        raise PreconditionError(
            f"ln d(fx0, x0) = {first_log:.6e} exceeds (1-lambda) ln eps = {budget:.6e}",
            measured=first_log)
    return _picard(map_, x0, spec.rate, tol_log, max_iter,
                   ball_center=x0, ball_log_radius=math.log(epsilon), fx0=fx0)


def power_solve(map_: SelfMap, n_power: int, spec: ContractionSpec, x0,
                tol_log: float = DEFAULT_TOL_LOG,
                max_iter: int = DEFAULT_MAX_ITER) -> SolverReport:
    """Solve via the n-fold composition f^n, then certify z fixes f itself."""
    if n_power < 1:
        raise InputError(f"n_power must be >= 1, got {n_power}")
    _require_kind(spec, "banach", "power_solve")

    def composed(p):
        for _ in range(n_power):
            p = map_(p)
        return p

    inner = SelfMap(f"{map_.name}^{n_power}", composed, map_.space)
    report = solve(inner, x0, spec, tol_log, max_iter)
    if report.converged:
        z = report.fixed_point
        f_residual = map_.space.dist(map_(z), z)
        if f_residual > tol_log:
            raise InvariantBreachError(
                f"fixed point of the composition does not fix the map itself: "
                f"ln d(fz, z) = {f_residual:.6e} > {tol_log:.6e}")
        report.residual_log = f_residual
    return report


def solve(map_: SelfMap, x0, spec: ContractionSpec,
          tol_log: float = DEFAULT_TOL_LOG,
          max_iter: int = DEFAULT_MAX_ITER) -> SolverReport:
    """Picard iteration at the spec's per-step rate; every kind drives the
    same geometric step chain."""
    return _picard(map_, x0, spec.rate, tol_log, max_iter)


def estimate_lambda(map_: SelfMap, n_pairs: int, kind: str = "banach",
                    seed: int = 0) -> tuple[float, tuple]:
    """Empirical contraction constant: max log-ratio over sampled pairs.

    The ratio is the two sides of `contraction_logs`; pairs whose
    denominator is numerically zero are skipped.
    """
    if n_pairs < 1:
        raise InputError("n_pairs must be >= 1")
    if kind not in KINDS:
        raise InputError(f"unknown contraction kind {kind!r}")
    best = witness = None
    for xs, ys, num, den in contraction_blocks(map_, kind, n_pairs, seed):
        kept = list(map(not_, map(le, den, repeat(1e-12))))
        ratios = list(map(truediv, compress(num, kept), compress(den, kept)))
        # max keeps the first of equal ratios, and a later NaN replaces nothing, as `>`
        top = max(chain([] if best is None else [best], ratios), default=None)
        if top is not best:
            i = list(compress(count(), kept))[ratios.index(top)]
            best, witness = top, (xs[i], ys[i])
    if best is None:
        raise EstimationError("all sampled pairs were degenerate")
    return best, witness


def uniqueness_probe(map_: SelfMap, spec: ContractionSpec, starts: Sequence,
                     tol_log: float = DEFAULT_TOL_LOG,
                     max_iter: int = DEFAULT_MAX_ITER) -> UniquenessProbe:
    """Solve from every start and check the limits agree pairwise.

    Divergent or breaching starts are recorded and skipped; the probe is ok
    when at least one start converged and all converged limits lie within
    2 * tol_log of each other in log distance.
    """
    if len(starts) < 2:
        raise InputError("need at least two starts")
    points, failures = [], []
    for i, x0 in enumerate(starts):
        try:
            report = solve(map_, x0, spec, tol_log, max_iter)
        except (InvariantBreachError, PreconditionError) as exc:
            failures.append((i, str(exc)))
            continue
        if report.converged:
            points.append(report.fixed_point)
        else:
            failures.append((i, f"no convergence in {max_iter} iterations"))
    worst = max([map_.space.dist(p, q) for i, p in enumerate(points) for q in points[i + 1:]],
                default=0.0)
    ok = bool(points) and worst <= 2.0 * tol_log
    return UniquenessProbe(points, failures, worst, ok)
