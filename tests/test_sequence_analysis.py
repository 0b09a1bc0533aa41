import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulmetric import spaces
from mulmetric.errors import DomainError, InputError
from mulmetric.metric_core import MulDistance, PosVec, RealVec, SegmentPoint, mabs
from mulmetric.sequence_analysis import (
    BoundReport,
    SeqDiagnostic,
    bounded_diagnostic,
    bw_extract,
    cauchy_diagnostic,
    check_infimum,
    check_supremum,
    continuity_probe,
    convergence_diagnostic,
    monotone_subsequence,
    tail_start,
)

POS = spaces.positive_reals()
DSTAR = spaces.positive_vectors(3)


def bounded_by_matrix(seq, space):
    """The full-matrix construction bounded_diagnostic replaced: (n0, M)."""
    ln2 = math.log(2.0)
    logs = [[space.dist(a, b).log_value for b in seq] for a in seq]
    n0 = next(cand for cand in range(len(seq))
              if all(logs[i][j] < ln2
                     for i in range(cand, len(seq)) for j in range(i + 1, len(seq))))
    return n0, math.exp(max([ln2] + [logs[k][n0] for k in range(n0)]))


def former_cauchy_diagnostic(seq, space, tol_log, window=None):
    """cauchy_diagnostic's former pair loop over the whole window, kept verbatim
    as the oracle (argument checks left out)."""
    if window is None:
        window = len(seq) - tail_start(len(seq))
    start = len(seq) - window
    worst, worst_pair = -1.0, None
    for i in range(start, len(seq)):
        for j in range(i + 1, len(seq)):
            rho = space.dist(seq[i], seq[j]).log_value
            if rho > worst:
                worst, worst_pair = rho, (i, j)
    if worst <= tol_log:
        return SeqDiagnostic(True, detail=f"window max ln d = {worst:.3e} <= {tol_log:.3e}")
    i, j = worst_pair
    return SeqDiagnostic(False, i, MulDistance(worst),
                         f"ln d(x_{i}, x_{j}) = {worst:.3e} > {tol_log:.3e}")


def former_bounded_diagnostic(seq, space):
    """bounded_diagnostic's former pair loop, kept verbatim as the oracle."""
    ln2 = math.log(2.0)
    n, n0 = len(seq), 0
    for k in range(n - 1):
        if not all([space.dist(seq[k], seq[j]).log_value < ln2 for j in range(k + 1, n)]):
            n0 = k + 1
    row = [space.dist(x, seq[n0]).log_value for x in seq]
    m_log = max([ln2] + row[:n0])
    assert all(r <= m_log + 1e-12 for r in row)
    return BoundReport(center_index=n0, M=math.exp(m_log))


def former_convergence_diagnostic(seq, limit, space, tol_log):
    """convergence_diagnostic's former loop over the tail, kept verbatim as the oracle."""
    if len(seq) == 0:
        raise InputError("empty sequence")
    if not (tol_log > 0):
        raise InputError(f"tol_log must be positive, got {tol_log}")
    start = tail_start(len(seq))
    worst_i, worst = None, -1.0
    for i in range(start, len(seq)):
        rho = space.dist(seq[i], limit)
        if rho > worst:
            worst_i, worst = i, rho
    if worst <= tol_log:
        return SeqDiagnostic(True, detail=f"tail max ln d = {worst:.3e} <= {tol_log:.3e}")
    return SeqDiagnostic(False, worst_i, worst,
                         f"ln d(x_{worst_i}, limit) = {worst:.3e} > {tol_log:.3e}")


def former_check_extremum(A, cand, eps_schedule, supremum):
    """_check_extremum's former per-element loops, kept verbatim as the oracle."""
    if len(A) == 0:
        raise InputError("empty set")
    if not (cand > 0) or any(not (a > 0) for a in A):
        raise InputError("all elements and the candidate must be positive")
    if any(not (eps > 1) for eps in eps_schedule):
        raise InputError("every epsilon in the schedule must exceed 1")
    elems = list(A)
    word = "sup" if supremum else "inf"
    for i, a in enumerate(elems):
        if (supremum and a > cand) or (not supremum and a < cand):
            return SeqDiagnostic(False, i, mabs(cand / a),
                                 f"element {a} violates the {word} bound {cand}")
    # an empty schedule never looks at the gaps (one may underflow to a DomainError)
    closest = min([mabs(cand / a) for a in elems]) if len(eps_schedule) else None
    for k, eps in enumerate(eps_schedule):
        if closest >= math.log(eps):
            return SeqDiagnostic(False, k, closest,
                                 f"no element within multiplicative eps={eps} of {word}={cand}")
    return SeqDiagnostic(True, detail=f"{word} characterization holds for {cand}")


def former_monotone_subsequence(seq):
    """monotone_subsequence's former peak loop and generator chain, kept verbatim as
    the oracle."""
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

    chain = []
    peak_set = set(peaks)
    i = next((k for k in range(n) if k not in peak_set), None)
    if i is not None:
        chain.append(i)
        while True:
            j = next((k for k in range(i + 1, n) if seq[k] >= seq[i]), None)
            if j is None:
                break
            chain.append(j)
            i = j
    return chain if len(chain) > len(peaks) else peaks


def former_bw_extract(seq, M):
    """bw_extract's former loops, kept verbatim as the oracle."""
    if len(seq) == 0:
        raise InputError("empty sequence")
    if not (M > 1):
        raise InputError(f"bound M must exceed 1, got {M}")
    for i, x in enumerate(seq):
        if not (1.0 / M <= x <= M):
            raise InputError(f"element {x} at index {i} violates bound [{1/M}, {M}]")
    idx = former_monotone_subsequence(seq)
    vals = [seq[i] for i in idx]
    non_decreasing = all(b >= a for a, b in zip(vals, vals[1:]))
    limit = max(vals) if non_decreasing else min(vals)
    return idx, limit


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the row evaluation must raise what the pair loop raised
        return type(exc), str(exc)


def mended(result):
    """The former loop's result with its -1.0 sentinel, which a one-term window
    printed, read as 0: the largest distance of an empty window."""
    if isinstance(result, SeqDiagnostic) and "= -1.000e+00 <=" in result.detail:
        return dataclasses.replace(result, detail=result.detail.replace("-1.000e+00", "0.000e+00"))
    return result


def assert_matches_the_pair_loops(seq, space, tol, window):
    bounded = outcome(bounded_diagnostic, seq, space)
    reference = outcome(former_bounded_diagnostic, seq, space)
    assert bounded == reference
    if isinstance(bounded, BoundReport):
        assert bounded.M.hex() == reference.M.hex()
    assert (outcome(cauchy_diagnostic, seq, space, tol, window)
            == mended(outcome(former_cauchy_diagnostic, seq, space, tol, window)))


def seq_root_of_two(n):
    """x_k = 2^(1/k), multiplicative limit 1."""
    return [2.0 ** (1.0 / k) for k in range(1, n + 1)]


class TestConvergenceDiagnostic:
    def test_constant_sequence(self):
        diag = convergence_diagnostic([3.0] * 20, 3.0, POS, tol_log=1e-12)
        assert diag.verdict

    def test_root_sequence_to_one(self):
        diag = convergence_diagnostic(seq_root_of_two(10000), 1.0, POS, tol_log=1e-3)
        assert diag.verdict

    def test_wrong_limit_yields_witness(self):
        diag = convergence_diagnostic(seq_root_of_two(10000), 2.0, POS, tol_log=1e-3)
        assert not diag.verdict
        assert diag.witness_index is not None
        # the gap tends to ln 2
        assert diag.witness_value.log_value == pytest.approx(math.log(2), abs=1e-2)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            convergence_diagnostic([], 1.0, POS, tol_log=1e-3)


class TestCauchyDiagnostic:
    def test_constant_sequence(self):
        assert cauchy_diagnostic([2.0] * 30, POS, tol_log=1e-12, window=8).verdict

    def test_root_sequence(self):
        assert cauchy_diagnostic(seq_root_of_two(10000), POS, tol_log=1e-3,
                                 window=100).verdict

    def test_alternating_fails_with_pair(self):
        seq = [1.0, 2.0] * 50
        diag = cauchy_diagnostic(seq, POS, tol_log=1e-3, window=10)
        assert not diag.verdict
        assert diag.witness_value.log_value == pytest.approx(math.log(2))

    def test_window_too_large(self):
        with pytest.raises(InputError):
            cauchy_diagnostic([1.0, 2.0], POS, tol_log=1e-3, window=5)

    @pytest.mark.parametrize("window", [2.5, 2.0, "3", [2]], ids=repr)
    def test_a_window_that_is_no_integer_is_an_input_error(self, window):
        with pytest.raises(InputError, match=r"^window must be an integer, got "):
            cauchy_diagnostic([1.0, 2.0, 4.0], POS, 0.1, window=window)

    def test_an_integer_like_window_is_its_integer(self):
        seq = [1.0, 2.0, 4.0]
        assert (cauchy_diagnostic(seq, POS, 0.1, window=np.int64(2))
                == cauchy_diagnostic(seq, POS, 0.1, window=2))

    @pytest.mark.parametrize("seq", [[1.0], [1.0, 2.0, 3.0]])
    @pytest.mark.parametrize("tol", [-2.0, -0.5, math.nan])
    def test_bad_tolerance_rejected(self, seq, tol):
        with pytest.raises(InputError, match="tol_log"):
            cauchy_diagnostic(seq, POS, tol)

    @pytest.mark.parametrize("space, seq", [
        (POS, [1.0]),
        (dataclasses.replace(POS, chart=None), [1.0]),
        (POS, [1.0, 3.0, 0.5]),
        (DSTAR, [PosVec((1.0, 2.0, 3.0))]),
        (DSTAR, [PosVec((1.0, 2.0, 3.0)), PosVec((2.0, 2.0, 3.0))]),
    ], ids=["chart", "chartless", "chart-longer", "d-star", "d-star-longer"])
    def test_one_term_window_reports_zero(self, space, seq):
        diag = cauchy_diagnostic(seq, space, 0.5, window=1)
        assert diag == SeqDiagnostic(True, detail="window max ln d = 0.000e+00 <= 5.000e-01")
        if len(seq) == 1:
            assert cauchy_diagnostic(seq, space, 0.5) == diag


class TestBoundedDiagnostic:
    def test_constant_sequence(self):
        report = bounded_diagnostic([5.0] * 10, POS)
        assert report.M == 2.0

    def test_two_elements(self):
        report = bounded_diagnostic([1.0, 4.0], POS)
        assert report.M == pytest.approx(4.0, rel=1e-14)

    def test_singleton(self):
        assert bounded_diagnostic([7.0], POS).M == 2.0

    def test_center_covers_all(self):
        rng = random.Random(5)
        seq = [math.exp(rng.uniform(-2, 2)) for _ in range(50)]
        report = bounded_diagnostic(seq, POS)
        c = seq[report.center_index]
        for x in seq:
            assert POS.dist(x, c).log_value <= math.log(report.M) + 1e-12


    @pytest.mark.parametrize("chart", [True, False], ids=["scan", "rows"])
    def test_a_bound_beyond_the_floats_is_a_domain_error(self, chart):
        space = spaces.real_line_exp() if chart else without_chart(spaces.real_line_exp())
        with pytest.raises(DomainError, match=r"^the bound M overflows a float: ln M = 800\.0$"):
            bounded_diagnostic([800.0, 0.0], space)
        # the largest ln M whose e^ln M is a float is a bound still
        ln_max = 709.782712893384
        assert bounded_diagnostic([ln_max, 0.0], space).M == math.exp(ln_max)
        with pytest.raises(DomainError):
            bounded_diagnostic([math.nextafter(ln_max, math.inf), 0.0], space)

    @pytest.mark.parametrize("space", [POS, DSTAR], ids=["pos-reals", "d-star"])
    def test_matches_matrix_reference(self, space):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(1, 40)
            scale, rate = rng.uniform(0.1, 3.0), rng.uniform(0.3, 1.0)

            def point(k):
                logs = [scale * rate**k * rng.uniform(-1, 1) for _ in range(3)]
                return math.exp(logs[0]) if space is POS else PosVec(map(math.exp, logs))

            seq = [point(k) for k in range(n)]
            report = bounded_diagnostic(seq, space)
            n0, M = bounded_by_matrix(seq, space)
            assert report.center_index == n0
            assert report.M == M

    def test_cost_depends_on_length_only(self):
        calls = []

        def dist(a, b):
            calls.append(1)
            return POS.dist(a, b)

        counting = spaces.SpaceInstance("counting", POS.sample, dist=dist)
        n = 30
        shapes = {"settled": [3.0] * n,
                  "alternating": [(0.2, 5.0)[k % 2] for k in range(n)],
                  "late jump": [1.0] * (n - 2) + [9.0, 9.0],
                  "root of two": seq_root_of_two(n)}
        for shape, seq in shapes.items():
            calls.clear()
            bounded_diagnostic(seq, counting)
            assert len(calls) == n * (n - 1) // 2 + n, shape


# the one-coordinate chart spaces, each with a map from [0, 1] onto its points
ONE_COORDINATE = {
    "pos-reals": (POS, lambda u: math.exp(8.0 * u - 4.0)),
    "pos-interval": (spaces.positive_interval(0.5, 4.0), lambda u: 0.5 * 8.0**u),
    "real-line-exp": (spaces.real_line_exp(), lambda u: 20.0 * u - 10.0),
    "segment": (spaces.segment_space(), lambda u: (SegmentPoint(2.0 * u, 1.0) if u >= 0.5
                                                   else SegmentPoint(1.0, 2.0 - 2.0 * u))),
}


def without_chart(space):
    """The space without its chart: every row is evaluated in full."""
    return dataclasses.replace(space, chart=None)


@st.composite
def unit_sequences(draw):
    """Draws in [0, 1] for one sequence (free, constant, or a two-value
    alternation with many tied pairs), a Cauchy window (None for the
    default) and a tolerance that both verdicts clear."""
    n = draw(st.integers(1, 40))
    unit = st.floats(0.0, 1.0)
    shape = draw(st.sampled_from(["free", "constant", "alternating"]))
    if shape == "free":
        units = draw(st.lists(unit, min_size=n, max_size=n))
    else:
        a, b = draw(unit), draw(unit)
        units = [a if shape == "constant" or k % 2 == 0 else b for k in range(n)]
    return units, draw(st.none() | st.integers(1, n)), draw(st.sampled_from([0.0, 0.5]))


class TestChartPath:
    @pytest.mark.parametrize("name", sorted(ONE_COORDINATE))
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=unit_sequences())
    @example(case=([0.3], None, 0.0))
    @example(case=([0.3, 0.8], None, 0.0))
    @example(case=([0.3, 0.8], 1, 0.0))
    @example(case=([0.2, 0.9] * 10, 7, 0.0))
    def test_matches_the_pair_loops(self, name, case):
        space, point = ONE_COORDINATE[name]
        units, window, tol = case
        seq = [point(u) for u in units]
        for path in (space, without_chart(space)):
            assert_matches_the_pair_loops(seq, path, tol, window)

    @pytest.mark.parametrize("space, seq", [
        (POS, [2.0, 0.0, 3.0]),
        (POS, [2.0, math.inf, 3.0, math.inf, 3.0]),
        (spaces.positive_interval(0.5, 4.0), [1.0, 5.0, 2.0]),
        # finite coordinates, an infinite gap: no two of these are points of one line
        (spaces.real_line_exp(), [1e308, -1e308, 0.0, 0.0]),
    ], ids=["zero", "inf-twice", "outside-interval", "infinite-gap"])
    def test_bad_terms_fall_back_to_the_pair_loops(self, space, seq):
        for diagnostic, former, args in ((bounded_diagnostic, former_bounded_diagnostic, ()),
                                         (cauchy_diagnostic, former_cauchy_diagnostic, (0.1,))):
            got = outcome(diagnostic, seq, space, *args)
            assert isinstance(got, tuple), "the chart path returned instead of raising"
            assert got == outcome(former, seq, space, *args)

    def test_costs_one_scalar_row(self):
        # bounded_diagnostic's row to the centre (for M), cauchy_diagnostic's
        # witness row: the first row of the window, seven pairs
        calls = []

        def dist(a, b):
            calls.append(1)
            return POS.dist(a, b)

        counting = dataclasses.replace(POS, dist=dist)
        seq = [(0.2, 5.0)[k % 2] for k in range(30)]
        bounded_diagnostic(seq, counting)
        assert len(calls) == len(seq)
        calls.clear()
        cauchy_diagnostic(seq, counting, 0.1, window=8)
        assert len(calls) == 7

    def test_bounded_reads_each_coordinate_once(self):
        # the row to the centre reuses the coordinates the scan read
        calls = []

        def log(x):
            calls.append(x)
            return math.log(x)

        chart = dataclasses.replace(POS.chart, phi=log)
        space = dataclasses.replace(POS, chart=chart, dist=None)
        seq = [(0.2, 5.0, 1.0)[k % 3] for k in range(30)]
        assert bounded_diagnostic(seq, space) == bounded_diagnostic(seq, POS)
        assert calls == seq


# spaces without a one-coordinate chart: each maps two draws in [0, 1] to a
# point, and has a term whose distances raise
MULTI_COORDINATE = {
    "d-star": (spaces.positive_vectors(2),
               lambda u, v: PosVec((math.exp(4.0 * u - 2.0), math.exp(4.0 * v - 2.0))),
               PosVec((1.0, 2.0, 3.0))),
    "d-a": (spaces.exp_metric(2, 2.0), lambda u, v: RealVec((10.0 * u, 10.0 * v - 5.0)),
            RealVec((1.0,))),
    "product-pos": (spaces.product_space(POS, POS),
                    lambda u, v: (math.exp(4.0 * u - 2.0), math.exp(2.0 * v)), (0.0, 1.0)),
}


@st.composite
def unit_pair_sequences(draw):
    """unit_sequences with two draws per term, plus the index of a term
    replaced by one whose distances raise (None for none)."""
    units, window, tol = draw(unit_sequences())
    second, _, _ = draw(unit_sequences())
    pairs = list(zip(units, (second * len(units))[:len(units)]))
    bad = draw(st.none() | st.integers(0, len(pairs) - 1))
    return pairs, window, tol, bad


class TestRowEvaluation:
    """Spaces without a one-coordinate chart evaluate every row in full."""

    @pytest.mark.parametrize("name", sorted(MULTI_COORDINATE))
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=unit_pair_sequences())
    @example(case=([(0.3, 0.4)], None, 0.0, None))
    @example(case=([(0.2, 0.9), (0.9, 0.2)] * 6, 2, 0.0, None))
    @example(case=([(0.2, 0.9), (0.9, 0.2)] * 6, None, 0.5, 11))
    def test_matches_the_pair_loops(self, name, case):
        space, point, bad_point = MULTI_COORDINATE[name]
        pairs, window, tol, bad = case
        seq = [bad_point if k == bad else point(u, v) for k, (u, v) in enumerate(pairs)]
        assert_matches_the_pair_loops(seq, space, tol, window)

    def test_an_asymmetric_distance_is_called_in_the_pair_loops_order(self):
        # a candidate distance under test need not be symmetric: every loop calls
        # dist(x_k, x_j) with k < j, and dist(x_k, limit)
        def dist(a, b):
            return MulDistance(2.0 * max(a - b, 0.0) + max(b - a, 0.0))

        space = spaces.SpaceInstance("asymmetric", POS.sample, dist=dist)
        for seq in ([1.0, 3.0, 2.0, 0.0, 5.0], [5.0, 0.0, 2.0, 3.0, 1.0] * 3):
            assert_matches_the_pair_loops(seq, space, 0.5, None)
            assert_same_repr(cauchy_diagnostic(seq, space, 0.5),
                             former_cauchy_diagnostic(seq, space, 0.5))
            assert_same_repr(convergence_diagnostic(seq, 2.5, space, 0.5),
                             former_convergence_diagnostic(seq, 2.5, space, 0.5))


def assert_same_repr(got, expected):
    """Equal by repr: a plain float where a MulDistance was, or another error, shows."""
    assert repr(got) == repr(expected)


def counted(space):
    """The space with its distance wrapped (as a call counter would): no chart column."""
    return dataclasses.replace(space, dist=lambda a, b: space.dist(a, b))


def assert_matches_the_former_loops(seq, cand, M):
    """The float-sequence diagnostics against their former loops, candidate cand for
    sup and inf (with the diagnose schedule, an empty one and a wide one) and bound M
    for bw_extract.  Where the former check_infimum raised a DomainError, it read every
    term's ratio, so one other than the smallest could raise: there the outcome must be
    the former's on [min(seq)], the one term the check reads.  Returns whether that
    outcome differs from the former's on seq."""
    mends = False
    for supremum, check in ((True, check_supremum), (False, check_infimum)):
        for schedule in ((2.0, 1.1, 1.001), (), (1e300,)):
            got = outcome(check, seq, cand, schedule)
            expected = outcome(former_check_extremum, seq, cand, schedule, supremum)
            if not supremum and isinstance(expected, tuple) and expected[0] is DomainError:
                least = outcome(former_check_extremum, [min(seq)], cand, schedule, False)
                mends |= repr(least) != repr(expected)
                expected = least
            assert_same_repr(got, expected)
    assert_same_repr(outcome(monotone_subsequence, seq),
                     outcome(former_monotone_subsequence, seq))
    assert_same_repr(outcome(bw_extract, seq, M), outcome(former_bw_extract, seq, M))
    return mends


def ulp_neighbours(x, k=2):
    """x and the k floats on either side of it, the positive ones."""
    near, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        near += [lo, hi]
    return [v for v in near if v > 0]


TIED = [2.0, 2.0, 1.0, 2.0, 3.0, 3.0, 1.0, 3.0]


class TestFormerLoops:
    """Each diagnostic against its former per-term loop, by repr and by error."""

    @pytest.mark.parametrize("name", sorted(ONE_COORDINATE))
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=unit_sequences(), at=st.floats(0.0, 1.0))
    @example(case=([0.3], None, 0.0), at=0.3)
    @example(case=([0.3, 0.8], None, 0.5), at=0.8)
    @example(case=([0.2, 0.9] * 10, None, 0.0), at=0.55)
    def test_distance_rows(self, name, case, at):
        space, point = ONE_COORDINATE[name]
        units, window, tol = case
        seq, limit = [point(u) for u in units], point(at)
        for path in (space, without_chart(space), counted(space)):
            assert_same_repr(outcome(convergence_diagnostic, seq, limit, path, tol + 0.25),
                             outcome(former_convergence_diagnostic, seq, limit, path,
                                     tol + 0.25))
            assert_same_repr(outcome(cauchy_diagnostic, seq, path, tol, window),
                             mended(outcome(former_cauchy_diagnostic, seq, path, tol, window)))

    @pytest.mark.parametrize("space, seq, limit", [
        (POS, [2.0, math.nan, 3.0] * 4, 2.0),
        (POS, [2.0] * 12, math.nan),
        (POS, [2.0, 0.0] * 6, 1.0),
        (spaces.real_line_exp(), [1.0, math.nan] * 6, 0.0),
        (spaces.real_line_exp(), [1e308, -1e308] * 6, 0.0),
        (POS, [2.0, 0.5] * 6, 1.0),
        (POS, [2.0], 1.0),
        (POS, [2.0, 1.0], 2.0),
    ], ids=["nan-term", "nan-limit", "zero-term", "nan-on-the-line", "overflowing-sum",
            "tied-tail", "length-1", "length-2"])
    def test_convergence_cases(self, space, seq, limit):
        for path in (space, counted(space)):
            assert_same_repr(outcome(convergence_diagnostic, seq, limit, path, 0.5),
                             outcome(former_convergence_diagnostic, seq, limit, path, 0.5))

    @pytest.mark.parametrize("space, seq", [
        (POS, TIED),
        (POS, [1.0, 2.0, 1.5, 1.5, 2.0, 1.0]),
        (POS, [2.0, 1.0] * 6),
        (spaces.real_line_exp(), [0.0, math.log(2.0), 0.0, 0.0, math.log(2.0)]),
        (POS, [2.0, math.nan, 3.0] * 4),
        (POS, [math.nan]),
        (spaces.real_line_exp(), [1.0, math.nan]),
        (POS, [2.0, math.inf, 3.0]),
        (POS, [math.inf]),
        (spaces.real_line_exp(), [math.inf]),
        (spaces.real_line_exp(), [1e308, -1e308] * 3),
    ], ids=["ties", "rows-at-ln2", "alternating-at-ln2", "ln2-on-the-line", "nan-term",
            "only-nan", "nan-on-the-line", "infinite-term", "only-inf", "inf-on-the-line",
            "overflowing-gap"])
    def test_bounded_cases(self, space, seq):
        # n0 and M bit for bit, or the same error, on the scan with the centre row on
        # its coordinates, on the rows, and on the scan with a wrapped distance
        for path in (space, without_chart(space), counted(space)):
            got, expected = (outcome(bounded_diagnostic, seq, path),
                             outcome(former_bounded_diagnostic, seq, path))
            assert_same_repr(got, expected)
            if isinstance(got, BoundReport):
                assert got.M.hex() == expected.M.hex()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=unit_sequences(), at=st.floats(0.0, 1.0), spread=st.floats(0.5, 5.0))
    def test_float_sequences(self, case, at, spread):
        units = case[0]
        seq = [math.exp(8.0 * u - 4.0) for u in units]
        for cand in (math.exp(8.0 * at - 4.0), max(seq), min(seq)):
            assert not assert_matches_the_former_loops(seq, cand, math.exp(spread))

    @pytest.mark.parametrize("seq, cand", [
        (TIED, 3.0),
        (TIED, 1.0),
        ([1.0, 2.0, 2.0], 2.0),
        ([2.0, 3.0, 2.0], 2.0),
        ([1e300, 1e-10], 1e-300),
        ([1e-300, 1.0], 1e300),
        ([1e-300], 1e300),
        ([math.inf], math.inf),
        ([1.0, math.inf], 1.0),
        ([2.0, math.nan, 1.0], 2.0),
        ([math.nan], 1.0),
        ([1.0], 1.0),
        ([1.0, 1.0], 1.0),
        ([2.0, 1.0], 1.5),
        ([1, 2, 3], 3),
    ], ids=["ties-at-max", "ties-at-min", "term-equals-sup", "term-equals-inf",
            "ratio-underflows", "ratio-overflows", "every-ratio-overflows", "ratio-nan",
            "infinite-term", "nan-term", "only-nan", "length-1", "length-2-tied",
            "length-2", "ints"])
    def test_float_cases(self, request, seq, cand):
        # only these two raised in the former check_infimum at a term not the smallest
        mended = request.node.callspec.id in ("ratio-underflows", "infinite-term")
        for M in (4.0, 3.0, 1e300):
            assert assert_matches_the_former_loops(seq, cand, M) == mended

    def test_infimum_reads_only_its_least_term(self):
        # 1e-300 / 1e300 underflows to 0 and 1.0 / inf is 0: neither term is the least
        diag = check_infimum([1e300, 1e-10], 1e-300, (2.0,))
        assert_same_repr(diag, SeqDiagnostic(
            False, 0, MulDistance(667.7496769682732),
            "no element within multiplicative eps=2.0 of inf=1e-300"))
        assert check_infimum([1.0, math.inf], 1.0, (2.0,)).verdict

    @pytest.mark.parametrize("x", [1.0, 1e300, 1e-300, 2.0**-1022, 2.0**-1074],
                             ids=["one", "1e300", "1e-300", "least-normal", "least-subnormal"])
    def test_adjacent_floats(self, x):
        # terms and candidates one ulp apart: the extreme term's gap is the least one
        # only if division and log are monotone there
        near = ulp_neighbours(x)
        for seq in (near, near[::-1], sorted(near), [near[0], near[-1], near[0]]):
            for cand in near:
                assert not assert_matches_the_former_loops(seq, cand, 4.0)


class TestSupInfCharacterization:
    def test_sup_in_set(self):
        assert check_supremum([1, 2, 3], 3.0, [1.5, 1.01]).verdict

    def test_sup_too_large(self):
        diag = check_supremum([1, 2, 3], 4.0, [1.1])
        assert not diag.verdict

    def test_sup_approach_from_below(self):
        N = 50
        A = [2.0 ** (1 - 1.0 / n) for n in range(1, N + 1)]
        assert check_supremum(A, 2.0, [2.0 ** (1.0 / N) * 1.001]).verdict
        assert not check_supremum(A, 2.0, [2.0 ** (1.0 / N) * 0.999]).verdict

    def test_sup_exactly_eps_away_is_not_approached(self):
        # d(2, 1) = 2 = eps: no element lies strictly within eps of the candidate
        diag = check_supremum([1.0], 2.0, [2.0])
        assert not diag.verdict and diag.witness_index == 0

    def test_inf_in_set(self):
        assert check_infimum([1, 2, 3], 1.0, [1.5]).verdict

    def test_inf_with_gap(self):
        assert not check_infimum([2, 3], 1.0, [1.5]).verdict

    def test_inf_singleton(self):
        assert check_infimum([1.0], 1.0, [1.01]).verdict

    def test_bad_eps_rejected(self):
        with pytest.raises(InputError):
            check_supremum([1, 2], 2.0, [0.9])


class TestMonotoneSubsequence:
    def test_increasing(self):
        assert monotone_subsequence([1, 2, 3]) == [0, 1, 2]

    def test_decreasing(self):
        assert monotone_subsequence([3, 2, 1]) == [0, 1, 2]

    def test_mixed(self):
        idx = monotone_subsequence([2, 1, 3])
        vals = [[2, 1, 3][i] for i in idx]
        assert idx == sorted(idx)
        assert vals == sorted(vals) or vals == sorted(vals, reverse=True)

    def test_tied_terms(self):
        # a tie dominates what follows it (a peak) and continues a chain
        assert monotone_subsequence([2, 2, 2, 1]) == [0, 1, 2, 3]
        assert monotone_subsequence([1, 1, 1, 2]) == [0, 1, 2, 3]
        assert monotone_subsequence([2, 2, 1, 2]) == [0, 1, 3]

    def test_random_sequences_monotone(self):
        rng = random.Random(9)
        for _ in range(200):
            seq = [rng.random() for _ in range(rng.randint(1, 40))]
            idx = monotone_subsequence(seq)
            assert idx == sorted(idx)
            assert len(idx) >= 1
            vals = [seq[i] for i in idx]
            assert (all(b >= a for a, b in zip(vals, vals[1:]))
                    or all(b <= a for a, b in zip(vals, vals[1:])))


class TestBwExtract:
    def test_constant(self):
        idx, limit = bw_extract([3.0] * 12, M=4.0)
        assert idx == list(range(12))
        assert limit == 3.0

    def test_alternating_signs_exponent(self):
        seq = [2.0 ** ((-1) ** n / n) for n in range(1, 400)]
        idx, limit = bw_extract(seq, M=4.0)
        sub = [seq[i] for i in idx]
        assert limit == pytest.approx(1.0, abs=0.05)
        assert cauchy_diagnostic(sub, POS, tol_log=0.1).verdict

    def test_alternating_two_values(self):
        seq = [1.0, 2.0] * 30
        idx, limit = bw_extract(seq, M=2.5)
        sub = [seq[i] for i in idx]
        assert limit in (1.0, 2.0)
        assert cauchy_diagnostic(sub, POS, tol_log=1e-12).verdict

    def test_tied_terms_are_non_decreasing(self):
        # the chain 1.0, 1.0, 1.5 is non-decreasing: its limit is the sup
        assert bw_extract([1.0, 1.0, 1.5], M=2.0) == ([0, 1, 2], 1.5)

    def test_bound_violation_rejected(self):
        with pytest.raises(InputError):
            bw_extract([1.0, 10.0], M=4.0)


class TestContinuityProbe:
    def test_identity_map(self):
        trials = [seq_root_of_two(200)]
        diag = continuity_probe(lambda x: x, 1.0, trials, POS, tol_log=0.1,
                                codomain=POS)
        assert diag.verdict

    def test_log_is_semi_multiplicative_continuous(self):
        # ln maps (R+, |.|*) into the ordinary real line
        trials = [seq_root_of_two(200)]
        diag = continuity_probe(math.log, 1.0, trials, POS, tol_log=0.1)
        assert diag.verdict

    def test_step_function_discontinuity(self):
        step = lambda x: 1.0 if x < 1.0 else 2.0
        trials = [[1.0 - 0.5 * 0.9**k for k in range(1, 120)]]
        diag = continuity_probe(step, 1.0, trials, POS, tol_log=1e-3, codomain=POS)
        assert not diag.verdict
        assert diag.witness_index is not None

    def test_witness_is_worst_tail_index(self):
        # images 1/|ln p| grow toward the end of the trial, so the worst is last
        trials = [seq_root_of_two(40)]
        diag = continuity_probe(lambda p: 1.0 / abs(math.log(p)) if p != 1.0 else 0.0,
                                1.0, trials, POS, tol_log=0.1)
        assert not diag.verdict
        assert diag.witness_index == 39
        assert diag.detail.startswith("trial 0: image ")

    def test_nonconvergent_trial_rejected(self):
        with pytest.raises(InputError):
            continuity_probe(lambda x: x, 1.0, [[1.0, 2.0] * 20], POS,
                             tol_log=1e-6, codomain=POS)


class TestSequenceLemmas:
    """Finite-data transfers of the convergence/Cauchy lemmas."""

    def random_convergent(self, rng, limit, n=64, scale=1.0):
        # ln d(x_k, limit) decays geometrically with random sign
        out = []
        for k in range(n):
            gap = scale * 0.5**k * rng.choice([-1.0, 1.0])
            out.append(limit * math.exp(gap))
        return out

    def test_convergent_implies_cauchy(self):
        rng = random.Random(21)
        for _ in range(50):
            limit = math.exp(rng.uniform(-2, 2))
            seq = self.random_convergent(rng, limit)
            tol = 1e-6
            conv = convergence_diagnostic(seq, limit, POS, tol)
            assert conv.verdict
            assert cauchy_diagnostic(seq, POS, 2 * tol).verdict

    def test_limit_uniqueness(self):
        rng = random.Random(22)
        for _ in range(50):
            limit = math.exp(rng.uniform(-2, 2))
            seq = self.random_convergent(rng, limit)
            tol = 1e-4
            other = limit * math.exp(rng.uniform(-0.5, 0.5) * tol)
            if convergence_diagnostic(seq, other, POS, tol).verdict:
                assert POS.dist(limit, other).log_value <= 2 * tol

    def test_cauchy_pairing_inequality(self):
        rng = random.Random(23)
        sp = spaces.positive_vectors(2)
        for _ in range(30):
            xs = [sp.sample(rng) for _ in range(6)]
            ys = [sp.sample(rng) for _ in range(6)]
            for n in range(6):
                for m in range(6):
                    lhs = abs(sp.dist(xs[n], ys[n]).log_value
                              - sp.dist(xs[m], ys[m]).log_value)
                    rhs = (sp.dist(xs[n], xs[m]).log_value
                           + sp.dist(ys[n], ys[m]).log_value)
                    assert lhs <= rhs + 1e-12

    def test_joint_limit(self):
        rng = random.Random(24)
        for _ in range(50):
            x = math.exp(rng.uniform(-2, 2))
            y = math.exp(rng.uniform(-2, 2))
            tol = 1e-6
            xs = self.random_convergent(rng, x)
            ys = self.random_convergent(rng, y)
            dxy = POS.dist(x, y).log_value
            for n in range(56, 64):
                assert abs(POS.dist(xs[n], ys[n]).log_value - dxy) <= 2 * tol

    def test_subsequence_principle(self):
        rng = random.Random(25)
        for _ in range(50):
            limit = math.exp(rng.uniform(-1, 1))
            seq = self.random_convergent(rng, limit)
            tol = 1e-6
            assert cauchy_diagnostic(seq, POS, 2 * tol).verdict
            sub = seq[::2]
            assert convergence_diagnostic(sub, limit, POS, tol).verdict
            assert convergence_diagnostic(seq, limit, POS, 2 * tol).verdict


class TestBoundaries:
    """Each comparison of sequence_analysis decided at its boundary (the mutation
    probe's survivors), with an input exactly on it."""

    def test_a_bound_report_needs_m_above_one(self):
        assert BoundReport(center_index=0, M=math.nextafter(1.0, 2.0)).M > 1
        with pytest.raises(AssertionError):
            BoundReport(center_index=0, M=1.0)

    def test_convergence_tolerance_must_be_positive(self):
        with pytest.raises(InputError, match="tol_log must be positive, got 0.0"):
            convergence_diagnostic([1.0], 1.0, POS, 0.0)

    def test_the_convergence_witness_is_the_first_worst_term(self):
        # every tail term lies ln 2 from the limit: the first of them is the witness
        seq = [2.0, 0.5] * 6
        diag = convergence_diagnostic(seq, 1.0, POS, 0.5)
        assert not diag.verdict and diag.witness_index == tail_start(len(seq))
        assert diag.witness_value == math.log(2.0)

    def test_a_tail_exactly_at_the_tolerance_converges(self):
        # ln d(2, 1) = ln 2 exactly: "ln d <= tol" holds at equality
        assert convergence_diagnostic([2.0] * 8, 1.0, POS, math.log(2.0)).verdict
        assert not convergence_diagnostic([2.0] * 8, 1.0, POS,
                                          math.nextafter(math.log(2.0), 0.0)).verdict

    @pytest.mark.parametrize("chart", [True, False], ids=["scan", "rows"])
    def test_a_distance_of_exactly_two_leaves_the_cauchy_tail(self, chart):
        # d(1, 2) = 2 is not below eps = 2: the centre moves past the first term
        space = POS if chart else without_chart(POS)
        assert POS.dist(1.0, 2.0) == math.log(2.0)
        report = bounded_diagnostic([1.0, 2.0], space)
        assert (report.center_index, report.M) == (1, 2.0)
        assert bounded_diagnostic([1.0, math.nextafter(2.0, 1.0)], space).center_index == 0

    def test_a_bound_whose_slack_vanishes_is_checked_before_it_overflows(self):
        # at ln M = 1e5, ln M + 1e-12 == ln M: the row's own check still passes
        with pytest.raises(DomainError, match=r"ln M = 100000\.0$"):
            bounded_diagnostic([1e5, 0.0], spaces.real_line_exp())

    @pytest.mark.parametrize("A, cand", [([1.0], 0.0), ([0.0, 1.0], 1.0)],
                             ids=["candidate", "element"])
    def test_extrema_need_positive_elements(self, A, cand):
        for check in (check_supremum, check_infimum):
            with pytest.raises(InputError, match="must be positive"):
                check(A, cand, [2.0])

    def test_every_epsilon_must_exceed_one(self):
        assert check_supremum([1.0], 1.0, [math.nextafter(1.0, 2.0)]).verdict
        with pytest.raises(InputError, match="must exceed 1"):
            check_supremum([1.0], 1.0, [2.0, 1.0])

    def test_peaks_win_a_tie_with_the_chain(self):
        # peaks [1, 2] (3.0, 2.0) and the chain [0, 1] (1.0, 3.0) are both two long
        assert monotone_subsequence([1.0, 3.0, 2.0]) == [1, 2]

    @pytest.mark.parametrize("check, A", [(check_supremum, [1.0, 2.0]),
                                          (check_infimum, [2.0, 3.0])], ids=["sup", "inf"])
    def test_a_term_equal_to_the_candidate_keeps_its_bound(self, check, A):
        assert check(A, 2.0, [1.5]).verdict

    def test_terms_on_the_bound_lie_inside_it(self):
        assert bw_extract([4.0, 0.25], 4.0) == ([0, 1], 0.25)
        for x in (math.nextafter(4.0, 5.0), math.nextafter(0.25, 0.0)):
            with pytest.raises(InputError, match=f"^element {x!r} at index 1 violates bound"):
                bw_extract([1.0, x], 4.0)

    def test_bw_bound_must_exceed_one(self):
        assert bw_extract([1.0], math.nextafter(1.0, 2.0)) == ([0], 1.0)
        with pytest.raises(InputError, match="bound M must exceed 1, got 1.0"):
            bw_extract([1.0], 1.0)
