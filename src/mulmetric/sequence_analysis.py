"""Finite-sequence diagnostics for multiplicative convergence.

Asymptotic statements ("for all n >= N ...") are checked on finite data
with a tail-window policy: the verdict looks at the final quarter of the
indices, never fewer than eight of them.  Tolerances are log-domain
throughout, so "d < eps" is tested as "ln d < ln eps".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress, count, repeat
from operator import ge, gt, index, le, lt, ne
from typing import Optional, Sequence

from .errors import DomainError, InputError
from .metric_core import MulDistance, mabs
from .spaces import SpaceInstance, real_line_exp

TAIL_FRACTION = 0.25
MIN_TAIL_WINDOW = 8


@dataclass(frozen=True)
class SeqDiagnostic:
    """Verdict of one diagnostic; witnesses name the violation when false."""

    verdict: bool
    witness_index: Optional[int] = None
    witness_value: Optional[MulDistance] = None
    detail: str = ""

    def __post_init__(self):
        if self.verdict:
            assert self.witness_index is None and self.witness_value is None
        else:
            assert self.witness_index is not None


@dataclass(frozen=True)
class BoundReport:
    """Multiplicative bound from the Cauchy-implies-bounded construction."""

    center_index: int
    M: float

    def __post_init__(self):
        assert self.M > 1


def tail_start(n: int) -> int:
    """First index of the tail window for a length-n sequence."""
    window = max(MIN_TAIL_WINDOW, math.ceil(TAIL_FRACTION * n))
    return max(0, n - window)


def _row_maxima(seq: Sequence, space: SpaceInstance, start: int = 0) -> tuple:
    """(max over j > k of rho(x_k, x_j) for k = start .. n-2, the coordinates of
    seq[start:] or None).  On a one-coordinate chart this is one backward scan (float
    subtraction and the scale are monotone, so a row's largest gap is to whichever of
    the largest and smallest later coordinate lies farther, bit-equal to evaluating the
    row), which returns the coordinates it read; elsewhere, or where the scan raises,
    every row is evaluated in full, in order, so a failing distance raises at the same
    pair as a pair loop."""
    chart = space.chart
    if chart is not None and chart.scalar:
        try:
            c = chart.coords(seq[start:])
            far, hi, lo = [], c[-1], c[-1]
            for x in c[-2::-1]:
                far.append(lo if x - lo > hi - x else hi)
                if x > hi:
                    hi = x
                elif x < lo:
                    lo = x
            return chart.gaps(c[-2::-1], far)[::-1], c
        except Exception:  # a term or gap the scan refuses: the rows name it
            pass
    dist, n = space.dist, len(seq)
    return [max([dist(seq[k], seq[j]) for j in range(k + 1, n)])
            for k in range(start, n - 1)], None


def _dists_to(space: SpaceInstance, xs: Sequence, y, flip: bool = False,
              coords: Optional[tuple] = None) -> list:
    """rho(x, y) for each x of xs.  Where the distance is its scalar chart's, one
    `Chart.gaps` column against y's coordinate (plain floats; |a - b| and |b - a| are one
    float), on `coords` = (xs's coordinates, y's) where they were read already;
    elsewhere, or where the column raises, one `space.dist(x, y)` per term
    (`dist(y, x)` when flip), in order, so a failing distance raises at its pair."""
    chart, dist = space.chart, space.dist
    if chart is not None and chart.scalar and dist is chart.dist:
        try:
            cx, cy = coords or (chart.coords(xs), chart.coords([y])[0])
            return chart.gaps(cx, repeat(cy))
        except Exception:  # a term or gap the column refuses: the calls name it
            pass
    return [dist(y, x) for x in xs] if flip else [dist(x, y) for x in xs]


def convergence_diagnostic(seq: Sequence, limit, space: SpaceInstance,
                           tol_log: float) -> SeqDiagnostic:
    """Does ln d(x_n, limit) stay below tol_log over the tail window?"""
    if len(seq) == 0:
        raise InputError("empty sequence")
    if not (tol_log > 0):
        raise InputError(f"tol_log must be positive, got {tol_log}")
    start = tail_start(len(seq))
    tail = _dists_to(space, seq[start:], limit)
    worst = max(tail)  # the first of the largest, as the witness
    if worst <= tol_log:
        return SeqDiagnostic(True, detail=f"tail max ln d = {worst:.3e} <= {tol_log:.3e}")
    worst_i = start + tail.index(worst)
    return SeqDiagnostic(False, worst_i, MulDistance(worst),
                         f"ln d(x_{worst_i}, limit) = {worst:.3e} > {tol_log:.3e}")


def cauchy_diagnostic(seq: Sequence, space: SpaceInstance, tol_log: float,
                      window: int | None = None) -> SeqDiagnostic:
    """Are all pairwise distances within the final window below tol_log?"""
    if len(seq) == 0:
        raise InputError("empty sequence")
    if not (tol_log >= 0):  # zero asks for a constant window
        raise InputError(f"tol_log must be nonnegative, got {tol_log}")
    if window is None:
        window = len(seq) - tail_start(len(seq))
    try:
        window = index(window)
    except TypeError:
        raise InputError(f"window must be an integer, got {window!r}") from None
    if window < 1:
        raise InputError("window must be >= 1")
    if window > len(seq):
        raise InputError(f"window {window} exceeds sequence length {len(seq)}")
    start = len(seq) - window
    maxima, _ = _row_maxima(seq, space, start)
    worst = 0.0
    if maxima:
        # the witness is the first pair at the largest value, in the first row holding it
        i = start + maxima.index(max(maxima))
        row = _dists_to(space, seq[i + 1:], seq[i], flip=True)
        worst = max(row)
    if worst <= tol_log:
        return SeqDiagnostic(True, detail=f"window max ln d = {worst:.3e} <= {tol_log:.3e}")
    j = i + 1 + row.index(worst)
    return SeqDiagnostic(False, i, MulDistance(worst),
                         f"ln d(x_{i}, x_{j}) = {worst:.3e} > {tol_log:.3e}")


def bounded_diagnostic(seq: Sequence, space: SpaceInstance) -> BoundReport:
    """Bound M > 1 and center index via the eps = 2 Cauchy-tail construction.

    The center n0 is the earliest index whose tail has all pairwise distances below 2;
    M = max{2, distances of the earlier elements to the center}, a DomainError beyond
    the floats.  Every element then satisfies d(x_n, x_n0) <= M.  Tails are nested, so
    n0 is one past the last index k with some d(x_k, x_j) >= 2, j > k.  On a
    one-coordinate chart the row maxima come from one O(n) scan of the coordinates, and
    the row to the center is one `Chart.gaps` column on the coordinates the scan read
    (n distance calls where `dist` is wrapped); elsewhere every row of the upper
    triangle is evaluated in full, so a call costs n(n-1)/2 + n distances whatever the
    terms are.
    """
    if len(seq) == 0:
        raise InputError("empty sequence")
    ln2 = math.log(2.0)
    maxima, c = _row_maxima(seq, space)
    n0 = max([k + 1 for k, m in enumerate(maxima) if not m < ln2], default=0)
    row = _dists_to(space, seq, seq[n0], coords=None if c is None else (c, c[n0]))
    m_log = max([ln2] + row[:n0])
    assert all(map(le, row, repeat(m_log + 1e-12)))
    try:
        return BoundReport(center_index=n0, M=math.exp(m_log))
    except OverflowError:
        raise DomainError(f"the bound M overflows a float: ln M = {float(m_log)!r}") from None


def _gap(cand: float, a: float) -> MulDistance:
    """mabs(cand / a), and an infinite gap where that ratio underflows to 0, as it is
    where the ratio overflows to inf."""
    ratio = cand / a
    return mabs(ratio) if ratio else MulDistance(math.inf)


def _check_extremum(A: Sequence[float], cand: float, eps_schedule: Sequence[float],
                    supremum: bool) -> SeqDiagnostic:
    if len(A) == 0:
        raise InputError("empty set")
    if not (cand > 0) or not all(map(gt, A, repeat(0))):
        raise InputError("all elements and the candidate must be positive")
    if not all(map(gt, eps_schedule, repeat(1))):
        raise InputError("every epsilon in the schedule must exceed 1")
    word, beyond, extreme = ("sup", gt, max(A)) if supremum else ("inf", lt, min(A))
    if beyond(extreme, cand):
        i = next(compress(count(), map(beyond, A, repeat(cand))))
        return SeqDiagnostic(False, i, _gap(cand, A[i]),
                             f"element {A[i]} violates the {word} bound {cand}")
    # the least gap (division and log are monotone); an empty schedule never raises on it
    closest = _gap(cand, extreme) if len(eps_schedule) else None
    for k, eps in enumerate(eps_schedule):
        if closest >= math.log(eps):
            return SeqDiagnostic(False, k, closest,
                                 f"no element within multiplicative eps={eps} of {word}={cand}")
    return SeqDiagnostic(True, detail=f"{word} characterization holds for {cand}")


def check_supremum(A: Sequence[float], s: float,
                   eps_schedule: Sequence[float]) -> SeqDiagnostic:
    """Multiplicative supremum characterization: a <= s plus eps-approach.  max(A), the
    term nearest s, decides both; its ratio (or the first term above s's) is an infinite
    gap where it underflows, and raises only as inf / inf."""
    return _check_extremum(A, s, eps_schedule, supremum=True)


def check_infimum(A: Sequence[float], m: float,
                  eps_schedule: Sequence[float]) -> SeqDiagnostic:
    """Multiplicative infimum characterization: m <= a plus eps-approach.  min(A), the
    term nearest m, decides both; its ratio (or the first term below m's) is an infinite
    gap where it underflows, and raises only as inf / inf."""
    return _check_extremum(A, m, eps_schedule, supremum=False)


def monotone_subsequence(seq: Sequence[float]) -> list[int]:
    """Indices of a monotone subsequence via the classical peak construction.

    A peak is an index whose value dominates everything after it; the peaks
    themselves form a non-increasing subsequence.  When they are few, a
    non-decreasing chain is grown greedily instead, and the longer of the
    two candidates wins.
    """
    n = len(seq)
    if n == 0:
        raise InputError("empty sequence")
    peaks = []
    running_max = -math.inf
    for i in range(n - 1, -1, -1):
        if seq[i] >= running_max:
            peaks.append(i)
            running_max = seq[i]
    peaks.reverse()

    # peaks ascend from 0: the first non-peak is the first k with peaks[k] != k
    i = next(compress(count(), map(ne, peaks, count())), len(peaks))
    chain = [i] if i < n else []
    for k in range(i + 1, n):  # the chain grows by each term at least its last one
        if seq[k] >= seq[chain[-1]]:
            chain.append(k)
    return chain if len(chain) > len(peaks) else peaks


def bw_extract(seq: Sequence[float], M: float) -> tuple[list[int], float]:
    """Convergent-subsequence extraction for bounded positive sequences.

    Requires every element inside the multiplicative bound [1/M, M].
    Returns the monotone subsequence indices plus its sup (non-decreasing
    branch) or inf (non-increasing branch) as the limit estimate.
    """
    if len(seq) == 0:
        raise InputError("empty sequence")
    if not (M > 1):
        raise InputError(f"bound M must exceed 1, got {M}")
    for i, x in enumerate(seq):
        if not (1.0 / M <= x <= M):
            raise InputError(f"element {x} at index {i} violates bound [{1/M}, {M}]")
    idx = monotone_subsequence(seq)
    vals = [seq[i] for i in idx]
    non_decreasing = all(map(ge, vals[1:], vals))
    limit = max(vals) if non_decreasing else min(vals)
    return idx, limit


def continuity_probe(fn, x, trial_sequences: Sequence[Sequence],
                     domain: SpaceInstance, tol_log: float,
                     codomain: SpaceInstance | None = None) -> SeqDiagnostic:
    """Sequential continuity check of fn at x.

    Each trial sequence must already converge to x in the domain metric.
    The verdict is whether every image sequence converges to fn(x) in the
    codomain metric (convergence_diagnostic; the witness is the worst tail
    index); codomain=None means the ordinary real line, where the gap is
    |fn(x_n) - fn(x)|, the log distance of real_line_exp.
    """
    if len(trial_sequences) == 0:
        raise InputError("need at least one trial sequence")
    for k, trial in enumerate(trial_sequences):
        diag = convergence_diagnostic(trial, x, domain, tol_log)
        if not diag.verdict:
            raise InputError(f"trial sequence {k} does not converge to x: {diag.detail}")
    fx = fn(x)
    codomain = codomain or real_line_exp()
    for k, trial in enumerate(trial_sequences):
        diag = convergence_diagnostic([fn(p) for p in trial], fx, codomain, tol_log)
        if not diag.verdict:
            return replace(diag, detail=f"trial {k}: image {diag.detail}")
    return SeqDiagnostic(True, detail=f"{len(trial_sequences)} trial sequences transported")
