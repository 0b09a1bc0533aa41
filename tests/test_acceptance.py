"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from mulmetric import cli, spaces
from mulmetric.errors import PreconditionError
from mulmetric.fixed_point import (
    ContractionSpec,
    apriori_bound,
    ball_solve,
    banach_solve,
    chatterjea_solve,
    estimate_lambda,
    kannan_solve,
    power_solve,
)
from mulmetric.metric_core import PosVec, SegmentPoint
from mulmetric.sequence_analysis import (
    bw_extract,
    cauchy_diagnostic,
    convergence_diagnostic,
)
from mulmetric.spaces import SelfMap
from mulmetric.verifier import verify_axioms, verify_contraction

PAPER_SCALAR_Z = 0.7411317711  # the 10 printed digits of the scalar example
POS = spaces.positive_reals()


def announce(criterion: int, ok: bool, text: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def scalar_map():
    space = spaces.positive_interval(0.1, 1.0)
    return SelfMap("scalar-exp-cubic", lambda x: math.exp(x - 1 - x**3 / 10), space)


def test_criterion_1_paper_scalar_example():
    m = scalar_map()
    spec = ContractionSpec("banach", 0.997)
    ok = True
    for x0 in (0.1, 0.25, 0.5, 0.75, 1.0):
        t0 = time.perf_counter()
        report = banach_solve(m, x0, spec, tol_log=1e-10, max_iter=10**5)
        elapsed = time.perf_counter() - t0
        ok &= report.converged
        ok &= abs(report.fixed_point - PAPER_SCALAR_Z) <= 1e-9
        ok &= report.iterations <= 10**5
        ok &= elapsed < 1.0
    announce(1, ok, "scalar solve reaches 0.7411317711 within 1e-9 from five starts")


def test_criterion_2_paper_contraction_certificate():
    m = scalar_map()
    report = verify_contraction(m, "banach", 0.997, 10**4, seed=2024)
    lam_hat, _ = estimate_lambda(m, 10**4, "banach", seed=2024)
    ok = report.condition_ok and lam_hat <= 0.997
    announce(2, ok, f"condition holds on 1e4 pairs; lambda_hat = {lam_hat:.4f} <= 0.997")


def test_criterion_3_paper_segment_example():
    seg = spaces.segment_half_power_map()
    spec = ContractionSpec("banach", 0.5)
    target = SegmentPoint(1.0, 1.0)
    ok = True
    for start in (SegmentPoint(2, 1), SegmentPoint(1, 2), SegmentPoint(1.5, 1)):
        report = banach_solve(seg, start, spec, tol_log=1e-13)
        ok &= report.converged
        ok &= report.residual_log <= 1e-12
        ok &= seg.space.dist(report.fixed_point, target).log_value <= 1e-12
    announce(3, ok, "segment solve reaches (1, 1) with residual_log <= 1e-12")


def test_criterion_4_bound_envelope():
    ok = True
    m = scalar_map()
    report = banach_solve(m, 0.5, ContractionSpec("banach", 0.997),
                          tol_log=1e-10, max_iter=10**5)
    d10 = report.trace[0].step_log
    for s in report.trace:
        gap = m.space.dist(s.point, PAPER_SCALAR_Z).log_value
        ok &= gap <= apriori_bound(d10, 0.997, s.n) + 1e-9

    seg = spaces.segment_half_power_map()
    target = SegmentPoint(1.0, 1.0)
    report = banach_solve(seg, SegmentPoint(2, 1), ContractionSpec("banach", 0.5),
                          tol_log=1e-13)
    d10 = report.trace[0].step_log
    for s in report.trace:
        gap = seg.space.dist(s.point, target).log_value
        ok &= gap <= apriori_bound(d10, 0.5, s.n) + 1e-9
    announce(4, ok, "every traced iterate obeys the geometric a-priori envelope")


def test_criterion_5_axiom_suite():
    candidates = [
        ("d-star n=1", spaces.positive_vectors(1)),
        ("d-star n=3", spaces.positive_vectors(3)),
        ("d-star n=8", spaces.positive_vectors(8)),
        ("d-a a=2 real", spaces.exp_metric(2, base=2.0)),
        ("d-a a=e real", spaces.exp_metric(2, base=math.e)),
        ("d-a a=2 complex", spaces.exp_metric(2, base=2.0, complex_coords=True)),
        ("d-a a=e complex", spaces.exp_metric(2, base=math.e, complex_coords=True)),
        ("product rho", spaces.product_space(POS, POS)),
        ("func-sup", spaces.function_space(0.0, 1.0, n_grid=256)),
        ("segment", spaces.segment_space()),
    ]
    ok = True
    for name, sp in candidates:
        report = verify_axioms(sp, 10**4, seed=5)
        if not report.all_ok:
            print(f"  axiom failure in {name}: {report.witnesses[:3]}")
        ok &= report.all_ok

    bad = lambda x, y: math.exp((x - y) ** 2)
    refutation = verify_axioms(spaces.SpaceInstance("e^((x-y)^2)",
                                                    lambda rng: float(rng.randint(-3, 3)),
                                                    dist=bad),
                               10**3, seed=5)
    ok &= not refutation.m3_ok
    ok &= any(w.axiom == "m3" for w in refutation.witnesses)
    # the canonical triple is itself a violation: d(0,2) = e^4 > e^1 * e^1
    ok &= math.log(bad(0, 2)) > math.log(bad(0, 1)) + math.log(bad(1, 2))
    announce(5, ok, "all concrete metrics certified; e^((x-y)^2) refuted with witness")


def test_criterion_6_log_isometry_oracle():
    ok = True
    for dim in (1, 3, 8):
        dist = spaces.positive_vectors(dim).dist
        rng = random.Random(60 + dim)
        for _ in range(10**3):
            x = [math.exp(rng.uniform(-6, 6)) for _ in range(dim)]
            y = [math.exp(rng.uniform(-6, 6)) for _ in range(dim)]
            oracle = sum(abs(math.log(a) - math.log(b)) for a, b in zip(x, y))
            ok &= abs(dist(PosVec(x), PosVec(y)).log_value - oracle) <= 1e-12
    announce(6, ok, "ln d* equals the L1 log-coordinate metric within 1e-12")


def test_criterion_7_kannan_chatterjea():
    # independent oracle first: brute-force both hypotheses on a 201x201 grid
    grid = np.linspace(-10.0, 10.0, 201)
    X, Y = np.meshgrid(grid, grid)
    lhs = np.abs(X / 4 - Y / 4)
    kannan_rhs = (1 / 3) * (np.abs(X / 4 - X) + np.abs(Y / 4 - Y))
    chatterjea_rhs = (1 / 5) * (np.abs(X / 4 - Y) + np.abs(Y / 4 - X))
    ok = bool(np.all(lhs <= kannan_rhs + 1e-12))
    ok &= bool(np.all(lhs <= chatterjea_rhs + 1e-12))

    line = spaces.real_line_exp()
    quarter = SelfMap("quarter", lambda x: x / 4.0, line)
    ok &= verify_contraction(quarter, "kannan", 1 / 3, 10**3, seed=7).condition_ok
    ok &= verify_contraction(quarter, "chatterjea", 1 / 5, 10**3, seed=7).condition_ok

    kr = kannan_solve(quarter, 8.0, ContractionSpec("kannan", 1 / 3), tol_log=1e-10)
    cr = chatterjea_solve(quarter, 8.0, ContractionSpec("chatterjea", 1 / 5),
                          tol_log=1e-10)
    ok &= kr.converged and abs(kr.fixed_point) <= 1e-9
    ok &= cr.converged and abs(cr.fixed_point) <= 1e-9
    announce(7, ok, "grid oracle confirms both hypotheses; both solvers reach 0")


def _convergent_sequence(rng, limit, n=64, scale=1.0):
    return [limit * math.exp(scale * 0.5**k * rng.choice([-1.0, 1.0]))
            for k in range(n)]


def test_criterion_8_sequence_lemma_properties():
    ok = True
    tol = 1e-6

    rng = random.Random(81)
    for _ in range(100):  # convergent => Cauchy at doubled tolerance
        limit = math.exp(rng.uniform(-2, 2))
        seq = _convergent_sequence(rng, limit)
        ok &= convergence_diagnostic(seq, limit, POS, tol).verdict
        ok &= cauchy_diagnostic(seq, POS, 2 * tol).verdict

    rng = random.Random(82)
    for _ in range(100):  # limit uniqueness
        limit = math.exp(rng.uniform(-2, 2))
        seq = _convergent_sequence(rng, limit)
        other = limit * math.exp(rng.uniform(-1.0, 1.0) * tol)
        if convergence_diagnostic(seq, other, POS, tol).verdict:
            ok &= POS.dist(limit, other).log_value <= 2 * tol

    rng = random.Random(83)
    sp2 = spaces.positive_vectors(2)
    for _ in range(100):  # Cauchy pairing inequality
        xs = [sp2.sample(rng) for _ in range(5)]
        ys = [sp2.sample(rng) for _ in range(5)]
        for n in range(5):
            for m in range(5):
                lhs = abs(sp2.dist(xs[n], ys[n]).log_value
                          - sp2.dist(xs[m], ys[m]).log_value)
                rhs = (sp2.dist(xs[n], xs[m]).log_value
                       + sp2.dist(ys[n], ys[m]).log_value)
                ok &= lhs <= rhs + 1e-12

    rng = random.Random(84)
    for _ in range(100):  # joint limit: d(x_n, y_n) ->* d(x, y)
        x = math.exp(rng.uniform(-2, 2))
        y = math.exp(rng.uniform(-2, 2))
        xs = _convergent_sequence(rng, x)
        ys = _convergent_sequence(rng, y)
        dxy = POS.dist(x, y).log_value
        for n in range(56, 64):
            ok &= abs(POS.dist(xs[n], ys[n]).log_value - dxy) <= 2 * tol

    rng = random.Random(85)
    for _ in range(100):  # subsequence principle at doubled tolerance
        limit = math.exp(rng.uniform(-1, 1))
        seq = _convergent_sequence(rng, limit)
        ok &= cauchy_diagnostic(seq, POS, 2 * tol).verdict
        ok &= convergence_diagnostic(seq[::2], limit, POS, tol).verdict
        ok &= convergence_diagnostic(seq, limit, POS, 2 * tol).verdict

    rng = random.Random(86)
    for _ in range(100):  # bw_extract output is always Cauchy
        M = math.exp(rng.uniform(0.5, 3.0))
        seq = [math.exp(rng.uniform(-1, 1) * math.log(M)) for _ in range(60)]
        idx, _ = bw_extract(seq, M)
        sub = [seq[i] for i in idx]
        spread = max(POS.dist(a, b).log_value for a in sub for b in sub)
        ok &= cauchy_diagnostic(sub, POS, spread + 1e-12).verdict

    announce(8, ok, "six sequence-lemma properties hold on 100 seeded cases each")


def test_criterion_9_corollary_coverage():
    sqrt_map = SelfMap("sqrt", math.sqrt, POS)
    spec = ContractionSpec("banach", 0.5)
    ok = True

    # accepted: trivial center
    r = ball_solve(sqrt_map, 1.0, 2.0, spec)
    ok &= r.converged and r.fixed_point == 1.0
    # accepted on the boundary: d(f4, 4) = 2 = 4^(1/2)
    r = ball_solve(sqrt_map, 4.0, 4.0, spec, tol_log=1e-12)
    ok &= r.converged and abs(r.fixed_point - 1.0) <= 1e-11
    # rejected: d(f64, 64) = 8 > 2^(1/2)
    try:
        ball_solve(sqrt_map, 64.0, 2.0, spec)
        ok = False
    except PreconditionError as exc:
        ok &= abs(exc.measured - math.log(8)) <= 1e-12

    seg = spaces.segment_half_power_map()
    report = power_solve(seg, 2, ContractionSpec("banach", 0.25),
                         SegmentPoint(2, 1), tol_log=1e-13)
    target = SegmentPoint(1.0, 1.0)
    ok &= report.converged
    ok &= seg.space.dist(report.fixed_point, target).log_value <= 1e-12
    ok &= report.residual_log <= 1e-13  # z fixes f itself, not only f^2
    announce(9, ok, "ball precondition accepts/rejects exactly; f^2 solve fixes f")


def test_criterion_10_determinism(tmp_path):
    pairs = [
        ["solve", "--problem", "paper-scalar"],
        ["solve", "--problem", "paper-segment"],
        ["verify", "--space", "d-star", "--dim", "3", "--samples", "2000",
         "--seed", "11"],
        ["verify", "--expr-dist", "e^((x-y)^2)", "--samples", "500",
         "--seed", "11"],
        ["verify", "--problem", "paper-scalar", "--kind", "banach",
         "--lambda", "0.997", "--samples", "2000", "--seed", "11"],
    ]
    ok = True
    for i, argv in enumerate(pairs):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        cli.main(argv + ["--out", str(a)])
        cli.main(argv + ["--out", str(b)])
        ok &= a.read_bytes() == b.read_bytes()
    announce(10, ok, "repeated seeded runs produce byte-identical JSON")
