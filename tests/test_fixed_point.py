import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulmetric import spaces
from mulmetric.errors import (
    DomainError,
    EstimationError,
    InputError,
    InvariantBreachError,
    PreconditionError,
)
from mulmetric import fixed_point
from mulmetric.fixed_point import (
    STEP_CHAIN_SLACK,
    ContractionSpec,
    SolverReport,
    TraceStep,
    _check_step,
    apriori_bound,
    ball_solve,
    banach_solve,
    chatterjea_solve,
    estimate_lambda,
    kannan_solve,
    power_solve,
    solve,
    uniqueness_probe,
)
from mulmetric.metric_core import MulDistance, SegmentPoint
from mulmetric.spaces import SelfMap

POS = spaces.positive_reals()
SQRT = SelfMap("sqrt", math.sqrt, POS)
BANACH_HALF = ContractionSpec("banach", 0.5)


def scalar_paper_map():
    space = spaces.positive_interval(0.1, 1.0)
    return SelfMap("scalar-exp-cubic", lambda x: math.exp(x - 1 - x**3 / 10), space)


class TestContractionSpec:
    def test_banach_range(self):
        ContractionSpec("banach", 0.999)
        with pytest.raises(InputError):
            ContractionSpec("banach", 1.0)
        with pytest.raises(InputError):
            ContractionSpec("banach", -0.1)

    def test_kannan_chatterjea_range(self):
        ContractionSpec("kannan", 0.49)
        with pytest.raises(InputError):
            ContractionSpec("kannan", 0.5)
        with pytest.raises(InputError):
            ContractionSpec("chatterjea", 0.6)

    def test_rates(self):
        assert ContractionSpec("banach", 0.5).rate == 0.5
        assert ContractionSpec("kannan", 1 / 3).rate == pytest.approx(0.5)
        assert ContractionSpec("chatterjea", 0.2).rate == pytest.approx(0.25)


class TestAprioriBound:
    def test_degenerate_start(self):
        for n in range(5):
            assert apriori_bound(0.0, 0.5, n) == 0.0

    def test_n_zero(self):
        assert apriori_bound(math.log(2), 0.5, 0) == pytest.approx(2 * math.log(2))

    def test_geometric_factor(self):
        assert apriori_bound(math.log(2), 0.5, 10) == pytest.approx(
            (2 / 1024) * math.log(2))

    def test_rate_out_of_range(self):
        with pytest.raises(InputError):
            apriori_bound(1.0, 1.0, 3)


class TestEstimateLambda:
    def test_sqrt_gives_half(self):
        lam, witness = estimate_lambda(SQRT, 500, "banach", seed=0)
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert len(witness) == 2

    def test_constant_map_gives_zero(self):
        const = SelfMap("const", lambda x: 3.0, POS)
        lam, _ = estimate_lambda(const, 500, "banach", seed=0)
        assert lam == 0.0

    def test_paper_scalar_below_paper_constant(self):
        lam, _ = estimate_lambda(scalar_paper_map(), 5000, "banach", seed=0)
        assert lam <= 0.997

    def test_all_degenerate(self):
        single = spaces.SpaceInstance("point", lambda rng: 1.0, dist=POS.dist)
        with pytest.raises(EstimationError):
            estimate_lambda(SelfMap("id", lambda x: x, single), 10, "kannan")


class TestBanachSolve:
    def test_sqrt_toy(self):
        report = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        assert report.converged
        assert report.fixed_point == pytest.approx(1.0, abs=1e-11)
        # iterates 16, 4, 2, sqrt(2), ...
        pts = [s.point for s in report.trace[:4]]
        assert pts[:3] == [16.0, 4.0, 2.0]
        assert pts[3] == pytest.approx(math.sqrt(2))

    def test_paper_scalar_example(self):
        report = banach_solve(scalar_paper_map(), 0.5,
                              ContractionSpec("banach", 0.997), tol_log=1e-10,
                              max_iter=10**5)
        assert report.converged
        assert report.fixed_point == pytest.approx(0.7411317711, abs=1e-9)

    def test_segment_example(self):
        seg = spaces.segment_half_power_map()
        for start in [SegmentPoint(2, 1), SegmentPoint(1, 2), SegmentPoint(1.5, 1)]:
            report = banach_solve(seg, start, BANACH_HALF, tol_log=1e-13)
            assert report.converged
            assert report.residual_log <= 1e-12
            z = report.fixed_point
            assert (z.u, z.v) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_degenerate_start(self):
        report = banach_solve(SQRT, 1.0, BANACH_HALF)
        assert report.converged
        assert report.iterations == 0
        assert report.fixed_point == 1.0

    def test_step_chain_invariant(self):
        report = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        d10 = report.trace[0].step_log
        for s in report.trace:
            assert s.step_log <= 0.5**s.n * d10 + 1e-10

    def test_step_at_the_chain_slack_accepted(self):
        # a step of exactly rate * previous + STEP_CHAIN_SLACK obeys the chain
        bound = 0.3 * 0.5 + STEP_CHAIN_SLACK
        _check_step(1, bound, 0.3, 0.5)
        with pytest.raises(InvariantBreachError):
            _check_step(1, math.nextafter(bound, math.inf), 0.3, 0.5)

    @pytest.mark.parametrize("over", [False, True])
    def test_the_driver_breaches_past_the_chain_slack_only(self, over):
        # the iterates 0, 1, 2, 3 of n -> n + 1 under a scripted distance: step 1 at
        # the bound obeys the chain and the next float breaks it, as `_check_step` has it
        bound = 0.3 * 0.5 + STEP_CHAIN_SLACK
        steps = [0.3, math.nextafter(bound, math.inf) if over else bound, 0.0, 0.0]
        space = spaces.SpaceInstance("scripted", None, dist=lambda a, b: float.__new__(
            MulDistance, steps[min(a, b)]))
        run = lambda: solve(SelfMap("succ", lambda n: n + 1, space), 0, BANACH_HALF)  # noqa: E731
        if over:
            with pytest.raises(InvariantBreachError, match="^step 1: "):
                run()
        else:
            assert run().fixed_point == 3  # the a-posteriori bound of step 2 is 0

    def test_apriori_envelope(self):
        report = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        d10 = report.trace[0].step_log
        for s in report.trace:
            gap = POS.dist(s.point, 1.0).log_value
            assert gap <= apriori_bound(d10, 0.5, s.n) + 1e-9

    def test_wrong_lambda_breaches(self):
        square = SelfMap("square", lambda x: x * x, POS)
        with pytest.raises(InvariantBreachError):
            banach_solve(square, 2.0, BANACH_HALF, max_iter=100)

    @pytest.mark.parametrize("map_, x0", [
        (SQRT, 16.0),
        (SelfMap("half-plus-one", lambda x: x / 2 + 1, spaces.real_line_exp()), 0.0),
    ], ids=["sqrt-toy", "half-plus-one"])
    def test_zero_lambda_breaches_instead_of_converging(self, map_, x0):
        # rate 0 zeroes both bounds after one step; the unchecked residual was returned
        with pytest.raises(InvariantBreachError, match="^step 1: "):
            banach_solve(map_, x0, ContractionSpec("banach", 0.0))

    def test_negative_max_iter_rejected(self):
        with pytest.raises(InputError, match="max_iter"):
            banach_solve(SQRT, 16.0, BANACH_HALF, max_iter=-1)

    def test_max_iter_exhaustion(self):
        slow = SelfMap("slow", lambda x: x**0.999, POS)
        report = banach_solve(slow, 100.0, ContractionSpec("banach", 0.999),
                              tol_log=1e-14, max_iter=10)
        assert not report.converged
        assert report.iterations == 10
        assert len(report.trace) == 10

    def test_kind_mismatch(self):
        # every kind solver, each given a spec of another kind (one test id, over all three)
        for solver, kind, other in [(banach_solve, "banach", "kannan"),
                                    (kannan_solve, "kannan", "chatterjea"),
                                    (chatterjea_solve, "chatterjea", "banach")]:
            with pytest.raises(InputError,
                               match=f"^{kind}_solve requires a {kind} spec, got {other}$"):
                solver(SQRT, 4.0, ContractionSpec(other, 0.3))

    def test_rescaling_equivariance(self):
        # conjugating by a positive scaling leaves the log-step trace unchanged
        s = 7.3
        scaled = SelfMap("scaled-sqrt", lambda x: s * math.sqrt(x / s), POS)
        base = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-10)
        conj = banach_solve(scaled, s * 16.0, BANACH_HALF, tol_log=1e-10)
        for a, b in zip(base.trace, conj.trace):
            assert abs(a.step_log - b.step_log) <= 1e-12


def former_picard(map_: SelfMap, x0, rate: float, tol_log: float, max_iter: int,
                  ball_center=None, ball_log_radius: float | None = None) -> SolverReport:
    """The Picard driver before its loop got one stop site, kept verbatim as the oracle."""
    if not (tol_log > 0):
        raise InputError(f"tol_log must be positive, got {tol_log}")
    if max_iter < 0:
        raise InputError(f"max_iter must be nonnegative, got {max_iter}")
    space = map_.space
    trace: list[TraceStep] = []

    x = x0
    fx = map_(x)
    d10_log = space.dist(fx, x).log_value
    if d10_log <= tol_log:
        # degenerate start: x0 already (numerically) fixed
        trace.append(TraceStep(0, x, d10_log, apriori_bound(d10_log, rate, 0),
                               (rate / (1.0 - rate)) * d10_log))
        return SolverReport(x, d10_log, 0, True, trace)

    prev_step_log = None
    for n in range(max_iter):
        step_log = space.dist(fx, x).log_value
        if prev_step_log is not None:
            _check_step(n, step_log, prev_step_log, rate)
        apr = apriori_bound(d10_log, rate, n)
        apo = (rate / (1.0 - rate)) * step_log
        trace.append(TraceStep(n, x, step_log, apr, apo))

        if ball_log_radius is not None:
            drift = space.dist(fx, ball_center).log_value
            if drift > ball_log_radius + STEP_CHAIN_SLACK:
                raise InvariantBreachError(
                    f"iterate {n + 1} left the closed ball: ln d(x, x0) = "
                    f"{drift:.6e} > ln eps = {ball_log_radius:.6e}")

        x, fx = fx, map_(fx)
        # bounds on ln d(x_{n+1}, z): fresh a-priori and the a-posteriori above
        if min(apriori_bound(d10_log, rate, n + 1), apo) <= tol_log:
            residual_log = space.dist(fx, x).log_value
            # the bounds trust the rate, so the step they stop on must obey it too
            _check_step(n + 1, residual_log, step_log, rate)
            trace.append(TraceStep(n + 1, x, residual_log,
                                   apriori_bound(d10_log, rate, n + 1),
                                   (rate / (1.0 - rate)) * residual_log))
            return SolverReport(x, residual_log, n + 1, True, trace)
        prev_step_log = step_log

    residual_log = space.dist(map_(x), x).log_value
    return SolverReport(x, residual_log, max_iter, False, trace)


LINE = spaces.real_line_exp()


def picard_map(family, q, shift):
    """x -> q*x + shift on (R, d_e), or x -> shift * x^q on (R_+, |.|*); rate q either way."""
    if family == "affine":
        return SelfMap("affine", lambda x: q * x + shift, LINE)
    return SelfMap("power", lambda x: shift * x**q, POS)


@st.composite
def picard_cases(draw):
    """(family, q, shift, x0, declared rate, tol_log, max_iter, ball log radius or None).

    Starts include the fixed point itself and, for q = 0 or shift = 1, points
    the map fixes exactly; declared rates below q make the step chain breach."""
    family = draw(st.sampled_from(["affine", "power"]))
    q = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.95))
    if family == "affine":
        shift = draw(st.sampled_from([0.0, 1.0]) | st.floats(-3.0, 3.0))
        x0 = draw(st.sampled_from([shift / (1.0 - q), shift]) | st.floats(-20.0, 20.0))
    else:
        shift = draw(st.sampled_from([1.0]) | st.floats(0.5, 2.0))
        x0 = draw(st.sampled_from([shift ** (1.0 / (1.0 - q)), 1.0])
                  | st.floats(1e-3, 1e3))
    rate = draw(st.sampled_from([0.0, q, q / 2, min(1.5 * q, 0.99)]) | st.floats(0.0, 0.99))
    tol = draw(st.sampled_from([1e-12, 1e-6, 1e-2, 0.5]))
    max_iter = draw(st.integers(0, 6) | st.just(500))
    radius = draw(st.none() | st.floats(0.01, 10.0))
    return family, q, shift, x0, rate, tol, max_iter, radius


def outcome(fn, *args, **kwargs):
    """fn's report as its fields and its steps as tuples, NaN as "nan" so that it
    equals itself; or the type and text of what fn raised."""
    try:
        r = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    nan = lambda v: "nan" if v != v else v  # noqa: E731
    return [*map(nan, (r.fixed_point, r.residual_log, r.iterations, r.converged)),
            [tuple(map(nan, s)) for s in r.trace]]


def raising_at(map_: SelfMap, k: int) -> SelfMap:
    """A fresh copy of map_ undefined at the k-th distinct point it is called at (x0
    being the 0th), so at x_k; the former driver called f at the last iterate twice."""
    seen = {}

    def fn(x):
        if seen.setdefault(x, len(seen)) == k:
            raise ValueError("undefined here")
        return map_.fn(x)

    return SelfMap(map_.name, fn, map_.space)


def bad_start(map_: SelfMap, x0, value: float) -> SelfMap:
    """map_ on a chartless copy of its space whose distance between x0 and f x0 is
    value, which may be negative or NaN; every other distance is the space's."""
    space, pair = map_.space, {x0, map_.fn(x0)}

    def dist(a, b):
        return float.__new__(MulDistance, value) if {a, b} == pair else space.dist(a, b)

    return SelfMap(map_.name, map_.fn, dataclasses.replace(space, chart=None, dist=dist))


#: x -> sqrt(x) / 2 on [0.1, 1], with fixed point 1/4; it maps [0.04, 4] into [0.1, 1]
HALF_SQRT = SelfMap("half-sqrt", lambda x: 0.5 * math.sqrt(x), spaces.positive_interval(0.1, 1.0))


def both_drivers(map_for, case):
    """The outcomes of `_picard` and `former_picard` on a case, each on its own map_for()."""
    x0, rate, tol, max_iter, radius = case[3:]
    ball = {} if radius is None else {"ball_center": x0, "ball_log_radius": radius}
    return [outcome(driver, map_for(), x0, rate, tol, max_iter, **ball)
            for driver in (fixed_point._picard, former_picard)]


class TestPicardOracle:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(case=picard_cases())
    @example(case=("affine", 0.0, 2.0, 2.0, 0.0, 1e-12, 0, None))      # fixed start, no budget
    @example(case=("affine", 0.0, 2.0, 5.0, 0.0, 1e-12, 3, None))      # lambda = 0, one step
    @example(case=("affine", 0.5, 1.0, 0.0, 0.0, 1e-12, 10, None))     # lambda = 0 breach
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-12, 0, None))      # no budget
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-14, 3, None))      # budget runs out
    @example(case=("power", 0.5, 1.0, 1.0, 0.5, 1e-12, 3, None))       # exact fixed point
    @example(case=("power", 0.9, 1.3, 40.0, 0.5, 1e-12, 500, None))    # rate too small
    @example(case=("power", 0.5, 1.0, 4.0, 0.5, 1e-12, 500, math.log(4.0)))  # ball boundary
    @example(case=("power", 0.5, 1.0, 4.0, 0.5, 1e-12, 500, 0.5))      # leaves the ball
    @example(case=("power", 0.5, 1.0, 1.0, 0.0, 1e-12, 5, None))       # rate 0, exact fixed start
    @example(case=("affine", 0.5, 1.0, 2.0, 0.0, 1e-12, 5, None))      # rate 0, exact fixed start
    def test_matches_the_former_driver(self, case):
        new, former = both_drivers(lambda: picard_map(*case[:3]), case)
        assert new == former

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=picard_cases(), k=st.integers(0, 8))
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-12, 500, None), k=0)   # at x0
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-12, 500, None), k=4)
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-14, 3, None), k=3)    # the last iterate
    @example(case=("power", 0.2, 1.0, 147.6, 0.46, 1e-12, 4, None), k=5)  # past the budget
    @example(case=("power", 0.9, 1.3, 40.0, 0.5, 1e-12, 500, None), k=2)  # before the breach
    def test_a_map_that_raises_at_iterate_k(self, case, k):
        new, former = both_drivers(lambda: raising_at(picard_map(*case[:3]), k), case)
        assert new == former

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(x0=st.floats(0.04, 0.099) | st.floats(1.001, 4.0),  # past the interval's log slack
           rate=st.sampled_from([0.0, 0.5, 0.9, 1.0]), max_iter=st.integers(0, 6) | st.just(500))
    @example(x0=4.0, rate=0.5, max_iter=500)
    @example(x0=0.04, rate=0.0, max_iter=0)
    @example(x0=2.0, rate=1.0, max_iter=5)  # the point is named before the rate
    def test_a_start_outside_the_interval(self, x0, rate, max_iter):
        # its image lies inside, so either driver's first distance names x0
        new, former = both_drivers(lambda: HALF_SQRT, ("", 0, 0, x0, rate, 1e-12, max_iter, None))
        assert new == former == (DomainError, f"point outside [0.1, 1.0]: {x0!r}")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=picard_cases(), value=st.sampled_from([-0.5, -1e-300, math.nan]))
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-12, 500, None), value=-1.0)
    @example(case=("power", 0.5, 1.0, 16.0, 0.5, 1e-12, 500, None), value=math.nan)
    @example(case=("power", 0.5, 1.0, 1.0, 0.0, 1e-12, 5, None), value=math.nan)  # fixed start
    @example(case=("power", 0.5, 1.0, 4.0, 0.5, 1e-12, 50, 0.5), value=math.nan)  # with a ball
    def test_a_chartless_distance_negative_or_nan_at_the_start(self, case, value):
        new, former = both_drivers(lambda: bad_start(picard_map(*case[:3]), case[3], value), case)
        assert new == former
        if value < 0:
            assert new == (InputError, "d10_log must be nonnegative")


class TestMapCalls:
    """`solve` calls the map through `SelfMap.__call__`, where perfbench's tracer
    counts `fixed_point.map_calls`, once at each iterate it measures."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, call = [], SelfMap.__call__
        monkeypatch.setattr(SelfMap, "__call__", lambda m, p: (calls.append(p), call(m, p))[1])
        return calls

    @pytest.mark.parametrize("x0, max_iter, converged", [
        (16.0, 500, True), (1.0, 500, True), (16.0, 3, False), (16.0, 0, False)])
    def test_iterations_plus_one(self, calls, x0, max_iter, converged):
        report = solve(SQRT, x0, BANACH_HALF, max_iter=max_iter)
        assert report.converged is converged
        assert len(calls) == report.iterations + 1
        assert calls == [s.point for s in report.trace] + ([] if converged else [report.fixed_point])

    @pytest.mark.parametrize("fn, step", [
        (lambda x: 1.3 * x**0.9, 1),                      # steps shrink by 0.9 from the first
        (lambda x: x**0.5 if x > 2.0 else x**0.95, 6)])  # by 0.5 down to 2, then by 0.95
    def test_a_breach_at_step_n_makes_n_plus_one(self, calls, fn, step):
        with pytest.raises(InvariantBreachError, match=f"^step {step}:"):
            solve(SelfMap("power", fn, POS), 1e6, ContractionSpec("banach", 0.6))
        assert len(calls) == step + 1 and calls[0] == 1e6

    @pytest.mark.parametrize("x0, epsilon, max_iter, converged", [
        (4.0, 4.0, 500, True), (1.0, 2.0, 500, True), (4.0, 4.0, 3, False), (4.0, 4.0, 0, False)])
    def test_a_ball_solve_makes_iterations_plus_one(self, calls, x0, epsilon, max_iter,
                                                    converged):
        # the precondition's f(x0) is the driver's first image: no point is mapped twice
        report = ball_solve(SQRT, x0, epsilon, BANACH_HALF, max_iter=max_iter)
        assert report.converged is converged
        assert len(calls) == report.iterations + 1
        assert calls == [s.point for s in report.trace] + ([] if converged else [report.fixed_point])

    def test_a_failed_ball_precondition_makes_one(self, calls):
        with pytest.raises(PreconditionError):
            ball_solve(SQRT, 16.0, 2.0, BANACH_HALF)
        assert calls == [16.0]


class TestTraceStep:
    def test_a_named_tuple(self):
        step = TraceStep(3, 2.5, 0.25, 0.5, 0.25)
        assert TraceStep._fields == ("n", "point", "step_log", "apriori_log", "aposteriori_log")
        assert step == (3, 2.5, 0.25, 0.5, 0.25) and isinstance(step, tuple)
        assert repr(step) == ("TraceStep(n=3, point=2.5, step_log=0.25, apriori_log=0.5, "
                              "aposteriori_log=0.25)")
        assert step._replace(point=1.0) == (3, 1.0, 0.25, 0.5, 0.25)

    def test_the_solver_builds_them(self):
        trace = solve(SQRT, 16.0, BANACH_HALF).trace
        assert {type(s) for s in trace} == {TraceStep}
        assert [s.n for s in trace] == list(range(len(trace)))


class TestBallSolve:
    def test_trivial_center(self):
        report = ball_solve(SQRT, 1.0, 2.0, BANACH_HALF)
        assert report.converged
        assert report.fixed_point == 1.0

    def test_boundary_precondition_accepted(self):
        # d(f4, 4) = 2 equals eps^(1-lambda) = 4^(1/2): boundary, accepted
        report = ball_solve(SQRT, 4.0, 4.0, BANACH_HALF, tol_log=1e-12)
        assert report.converged
        assert report.fixed_point == pytest.approx(1.0, abs=1e-11)
        # the fixed point sits on the closed-ball boundary: d(4, 1) = 4
        assert POS.dist(report.fixed_point, 4.0).log_value <= math.log(4.0) + 1e-12

    def test_precondition_and_drift_at_the_slack_accepted(self):
        # lambda = 0 and a constant map c: ln d(fx0, x0) = c = (1 - lambda) ln eps + slack,
        # which is also the drift of the first iterate from x0 against ln eps + slack
        spec, budget = ContractionSpec("banach", 0.0), math.log(2.0) + STEP_CHAIN_SLACK
        const = SelfMap("const", lambda x: budget, spaces.real_line_exp())
        report = ball_solve(const, 0.0, 2.0, spec)
        assert report.converged and report.fixed_point == budget
        beyond = SelfMap("const", lambda x: math.nextafter(budget, math.inf), const.space)
        with pytest.raises(PreconditionError):
            ball_solve(beyond, 0.0, 2.0, spec)

    def test_precondition_rejected(self):
        # d(f64, 64) = 8 exceeds 2^(1/2)
        with pytest.raises(PreconditionError) as exc:
            ball_solve(SQRT, 64.0, 2.0, BANACH_HALF)
        assert exc.value.measured == pytest.approx(math.log(8), rel=1e-12)

    def test_epsilon_must_exceed_one(self):
        with pytest.raises(InputError):
            ball_solve(SQRT, 4.0, 1.0, BANACH_HALF)


class TestPowerSolve:
    def test_power_one_equals_banach(self):
        direct = banach_solve(SQRT, 16.0, BANACH_HALF, tol_log=1e-12)
        powered = power_solve(SQRT, 1, BANACH_HALF, 16.0, tol_log=1e-12)
        assert powered.fixed_point == direct.fixed_point

    def test_sqrt_squared(self):
        spec = ContractionSpec("banach", 0.25)
        report = power_solve(SQRT, 2, spec, 16.0, tol_log=1e-12)
        assert report.converged
        assert report.fixed_point == pytest.approx(1.0, abs=1e-11)
        assert report.residual_log <= 1e-12

    def test_segment_composition(self):
        seg = spaces.segment_half_power_map()
        spec = ContractionSpec("banach", 0.25)
        report = power_solve(seg, 2, spec, SegmentPoint(2, 1), tol_log=1e-13)
        assert report.converged
        z = report.fixed_point
        assert (z.u, z.v) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert report.residual_log <= 1e-13

    def test_residual_at_the_tolerance_accepted(self):
        # f = -x: f^2 is the identity, fixed at x0 = 2^-31, and ln d(fz, z) = 2^-30 = tol
        neg = SelfMap("neg", lambda x: -x, spaces.real_line_exp())
        report = power_solve(neg, 2, BANACH_HALF, 2.0**-31, tol_log=2.0**-30)
        assert report.converged and report.residual_log == 2.0**-30
        with pytest.raises(InvariantBreachError, match="does not fix the map itself"):
            power_solve(neg, 2, BANACH_HALF, 2.0**-31, tol_log=math.nextafter(2.0**-30, 0))

    def test_n_power_validation(self):
        with pytest.raises(InputError):
            power_solve(SQRT, 0, BANACH_HALF, 4.0)

    @pytest.mark.parametrize("kind", ["kannan", "chatterjea"])
    def test_the_kind_check_names_power_solve(self, kind):
        with pytest.raises(InputError, match=f"^power_solve requires a banach spec, got {kind}$"):
            power_solve(SQRT, 2, ContractionSpec(kind, 0.3), 4.0)


class TestKannanChatterjea:
    LINE = spaces.real_line_exp()
    QUARTER = SelfMap("quarter", lambda x: x / 4.0, LINE)

    def test_kannan_quarter_map(self):
        report = kannan_solve(self.QUARTER, 8.0, ContractionSpec("kannan", 1 / 3),
                              tol_log=1e-10)
        assert report.converged
        assert abs(report.fixed_point) <= 1e-9

    def test_chatterjea_quarter_map(self):
        report = chatterjea_solve(self.QUARTER, 8.0,
                                  ContractionSpec("chatterjea", 0.2), tol_log=1e-10)
        assert report.converged
        assert abs(report.fixed_point) <= 1e-9

    def test_constant_map_kannan(self):
        const = SelfMap("const", lambda x: 2.5, self.LINE)
        report = kannan_solve(const, 8.0, ContractionSpec("kannan", 0.0))
        assert report.converged
        assert report.fixed_point == 2.5
        assert report.iterations == 1

    def test_constant_map_chatterjea(self):
        const = SelfMap("const", lambda x: -1.0, self.LINE)
        report = chatterjea_solve(const, 8.0, ContractionSpec("chatterjea", 0.0))
        assert report.converged
        assert report.fixed_point == -1.0

    def test_fixed_start(self):
        report = kannan_solve(self.QUARTER, 0.0, ContractionSpec("kannan", 1 / 3))
        assert report.converged
        assert report.iterations == 0

    def test_step_chain_with_h(self):
        report = kannan_solve(self.QUARTER, 8.0, ContractionSpec("kannan", 1 / 3),
                              tol_log=1e-10)
        h = 0.5
        d10 = report.trace[0].step_log
        for s in report.trace:
            assert s.step_log <= h**s.n * d10 + 1e-10


class TestUniquenessProbe:
    def test_sqrt_from_spread_starts(self):
        probe = uniqueness_probe(SQRT, BANACH_HALF, [16.0, 1 / 16.0, 3.0],
                                 tol_log=1e-12)
        assert probe.ok
        assert probe.max_pairwise_log <= 2e-12
        assert not probe.failures

    def test_segment_starts(self):
        seg = spaces.segment_half_power_map()
        probe = uniqueness_probe(seg, BANACH_HALF,
                                 [SegmentPoint(2, 1), SegmentPoint(1, 2),
                                  SegmentPoint(1.5, 1)], tol_log=1e-13)
        assert probe.ok
        for z in probe.fixed_points:
            assert (z.u, z.v) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_paper_scalar_starts(self):
        m = scalar_paper_map()
        starts = [0.1, 0.3, 0.5, 0.8, 1.0]
        probe = uniqueness_probe(m, ContractionSpec("banach", 0.997), starts,
                                 tol_log=1e-10, max_iter=10**5)
        assert probe.ok
        for z in probe.fixed_points:
            assert z == pytest.approx(0.7411317711, abs=1e-9)

    def test_failed_start_recorded(self):
        # breaching map: contraction claim wrong away from the fixed point
        square = SelfMap("square", lambda x: x * x, POS)
        probe = uniqueness_probe(square, BANACH_HALF, [1.0, 2.0], tol_log=1e-10,
                                 max_iter=50)
        assert probe.failures

    def test_limits_exactly_twice_the_tolerance_apart_agree(self):
        # the identity fixes every start, so the limits are the starts themselves
        ident, worst = SelfMap("id", lambda x: x, POS), POS.dist(1.0, 1.5)
        probe = uniqueness_probe(ident, BANACH_HALF, [1.0, 1.5], tol_log=worst / 2)
        assert probe.ok and probe.max_pairwise_log == worst
        probe = uniqueness_probe(ident, BANACH_HALF, [1.0, 1.5],
                                 tol_log=math.nextafter(worst / 2, 0.0))
        assert not probe.ok

    def test_needs_two_starts(self):
        with pytest.raises(InputError):
            uniqueness_probe(SQRT, BANACH_HALF, [4.0])
