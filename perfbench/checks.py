"""Correctness checks, computed apart from the program.

Each check recomputes what a job's output must be with the benchmark's own
code: closed-form fixed points and contraction constants, distances in log
coordinates with numpy, witness replay with hand-written formulas, and the
sequence diagnostics from O(n) closed forms.  Nothing is compared against a
stored copy of earlier output.

check(job, outcome, ctx) returns (failed, problems): `failed` says the job
hit a known program fault (it is counted, not a correctness error), and
`problems` lists every way a job that did not fail produced a wrong output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from jobs import INF_SCHEDULE, SUP_SCHEDULE, Job, Outcome, tail_start

SLACK = 1e-10            # the verifier's documented slack_log
ROUND_ABS = 1e-13        # rounding allowance on a log distance (~100 ulps of ln 20)
ROUND_REL = 1e-12
DIST_ABS = 1e-11         # allowance between two ways of summing up to 8 log gaps

# ---------------------------------------------------------------------------
# hand-written maps and log distances

LN2 = math.log(2.0)


def rho_pos(a, b):
    return abs(math.log(a) - math.log(b))


def rho_line(a, b):
    return abs(a - b)


def rho_segment(p, q):
    return (abs(math.log(p[0]) - math.log(q[0])) + abs(math.log(p[1]) - math.log(q[1]))) / 3.0


def _segment_map(p):
    u, v = p
    return (1.0, math.sqrt(u)) if v == 1.0 else (math.sqrt(v), 1.0)


def _paper_scalar_fixed_point() -> float:
    """Bisection on g(x) = ln x - (x - 1 - x^3/10), which changes sign on [0.1, 1]."""
    lo, hi = 0.1, 1.0
    g = lambda x: math.log(x) - (x - 1.0 - x**3 / 10.0)  # noqa: E731
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# problem -> (map, log distance, fixed point, kind, lambda), all independent
# of the program; fixed points as flat coordinate tuples
PROBLEMS = {
    "paper-scalar": (lambda x: math.exp(x - 1.0 - x**3 / 10.0), rho_pos,
                     _paper_scalar_fixed_point(), "banach", 0.997),
    "sqrt-toy": (math.sqrt, rho_pos, 1.0, "banach", 0.5),
    "quarter-kannan": (lambda x: x / 4.0, rho_line, 0.0, "kannan", 1.0 / 3.0),
    "quarter-chatterjea": (lambda x: x / 4.0, rho_line, 0.0, "chatterjea", 0.2),
    "paper-segment": (_segment_map, rho_segment, (1.0, 1.0), "banach", 0.5),
}

# contraction estimates in closed form: (lowest accepted, highest accepted)
ESTIMATES = {
    "sqrt-toy": (0.5 - 1e-9, 0.5 + 1e-9),
    "paper-segment": (0.5 - 1e-9, 0.5 + 1e-9),
    "quarter-kannan": (1 / 3 - 1e-9, 1 / 3 + 1e-9),
    "quarter-chatterjea": (0.2 - 1e-9, 0.2 + 1e-9),
    # sup of x(1 - 0.3 x^2) on [0.1, 1] is 0.7, reached at x = 1
    "paper-scalar": (0.6 + 1e-12, 0.7 + 1e-12),
}

# candidate distances for --expr-dist: the formula and the axioms that
# sampled data refutes (and no others)
CANDIDATES = {
    "e^((x-y)^2)": (lambda x, y: math.exp((x - y) ** 2), {"m3", "reverse"}),
    "e^(x-y)": (lambda x, y: math.exp(x - y), {"m1", "m2", "reverse"}),
    "1.5*e^(abs(x-y))": (lambda x, y: 1.5 * math.exp(abs(x - y)), {"m1"}),
    "1": (lambda x, y: 1.0, {"m1"}),
}


# ---------------------------------------------------------------------------
# witness replay

def _axiom_violated(d, axiom: str, pts) -> bool:
    ln = lambda a, b: math.log(d(a, b))  # noqa: E731
    if axiom == "m1":
        x, y = pts
        if x == y:
            return abs(ln(x, x)) > SLACK
        return ln(x, y) <= SLACK          # distinct points need d > 1
    if axiom == "m2":
        x, y = pts
        return abs(ln(x, y) - ln(y, x)) > SLACK
    x, y, z = pts
    if axiom == "m3":
        return ln(x, z) > ln(x, y) + ln(y, z) + SLACK
    if axiom == "reverse":
        return abs(ln(x, z) - ln(y, z)) > ln(x, y) + SLACK
    return False


def _contraction_violated(problem: str, kind: str, lam: float, x, y) -> bool:
    f, rho = PROBLEMS[problem][:2]
    fx, fy = f(x), f(y)
    lhs = rho(fx, fy)
    if kind == "banach":
        rhs = lam * rho(x, y)
    elif kind == "kannan":
        rhs = lam * (rho(fx, x) + rho(fy, y))
    else:
        rhs = lam * (rho(fx, y) + rho(fy, x))
    return lhs > rhs + SLACK


# ---------------------------------------------------------------------------
# distances in log coordinates, for points the benchmark draws itself

def _check_distances(job: Job, space, mc) -> list[str]:
    spec = job.spec
    rng = np.random.default_rng(spec["check_seed"])
    n, kind = spec["dim"], spec["space"]
    problems = []
    for _ in range(8):
        if kind in ("pos-reals", "product-pos", "d-star"):
            k = 2 if kind == "product-pos" else n
            a, b = np.exp(rng.uniform(-4.6, 4.6, (2, k)))
            ref = float(np.sum(np.abs(np.log(a) - np.log(b))))
            if kind == "pos-reals":
                p, q = float(a[0]), float(b[0])
            elif kind == "product-pos":
                p, q = (float(a[0]), float(a[1])), (float(b[0]), float(b[1]))
            else:
                p, q = mc.PosVec(tuple(a.tolist())), mc.PosVec(tuple(b.tolist()))
        elif kind == "d-a":
            a, b = rng.uniform(-10, 10, (2, n))
            if spec["complex"]:
                a, b = a + 1j * rng.uniform(-10, 10, n), b + 1j * rng.uniform(-10, 10, n)
                p, q = mc.ComplexVec(tuple(a.tolist())), mc.ComplexVec(tuple(b.tolist()))
            else:
                p, q = mc.RealVec(tuple(a.tolist())), mc.RealVec(tuple(b.tolist()))
            ref = float(LN2 * np.sum(np.abs(a - b)))
        elif kind == "segment":
            t = rng.uniform(1.0, 2.0, 2)
            side = rng.integers(0, 2, 2)
            a = (t[0], 1.0) if side[0] else (1.0, t[0])
            b = (t[1], 1.0) if side[1] else (1.0, t[1])
            ref = float(np.sum(np.abs(np.log(a) - np.log(b))) / 3.0)
            p, q = mc.SegmentPoint(*a), mc.SegmentPoint(*b)
        else:  # func-sup: two functions on the space's 1024-point grid
            grid = tuple(spec["lo"] + (spec["hi"] - spec["lo"]) * i / 1023 for i in range(1024))
            g = np.asarray(grid)
            la = rng.uniform(-2, 2) + rng.uniform(-1, 1) * np.sin(rng.uniform(0.5, 3) * g)
            lb = rng.uniform(-2, 2) + rng.uniform(-1, 1) * np.cos(rng.uniform(0.5, 3) * g)
            ref = float(np.max(np.abs(la - lb)))
            p = mc.SampledPosFunction(grid, tuple(np.exp(la).tolist()))
            q = mc.SampledPosFunction(grid, tuple(np.exp(lb).tolist()))
        got = space.dist(p, q).log_value
        if not abs(got - ref) <= DIST_ABS + ROUND_REL * abs(ref):
            problems.append(f"{job.name}: distance {got!r} != log-coordinate value {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# per-job checks

def _json(outcome: Outcome, problems: list, name: str):
    try:
        return json.loads(outcome.out)
    except ValueError:
        problems.append(f"{name}: output is not JSON")
        return None


def _check_axiom_report(job: Job, rep: dict, problems: list, refuted=frozenset()):
    flagged = {w["axiom"] for w in rep["witnesses"]}
    for axiom in ("m1", "m2", "m3", "reverse"):
        if rep[f"{axiom}_ok"] == (axiom in flagged):
            problems.append(f"{job.name}: {axiom}_ok disagrees with the witness list")
    if flagged != set(refuted):
        problems.append(f"{job.name}: refuted {sorted(flagged)}, expected {sorted(refuted)}")
    if rep["samples_used"] != job.spec["samples"] or rep["seed"] != int(job.argv[-1]):
        problems.append(f"{job.name}: samples_used or seed not echoed")
    if refuted:
        d = CANDIDATES[job.spec["formula"]][0]
        for w in rep["witnesses"]:
            if not _axiom_violated(d, w["axiom"], w["points"]):
                problems.append(f"{job.name}: witness {w} does not replay")
                break


def _check_trace(job: Job, trace: dict, f, rho, z, problems: list):
    steps, footer = trace["steps"], trace["footer"]
    unflat = (lambda p: tuple(p)) if isinstance(z, tuple) else (lambda p: p[0])
    if not footer["converged"] or footer["fixed_point"] != steps[-1]["point"]:
        problems.append(f"{job.name}: footer does not report the last iterate as converged")
    allow = lambda v: ROUND_ABS + ROUND_REL * abs(v)  # noqa: E731
    for k, step in enumerate(steps):
        x = unflat(step["point"])
        true = rho(x, z)
        if true > step["apriori_log"] + allow(true):
            problems.append(f"{job.name}: a-priori bound {step['apriori_log']!r} at step "
                            f"{step['n']} is below ln d(x_n, z) = {true!r}")
            break
        nxt = unflat(steps[k + 1]["point"]) if k + 1 < len(steps) else f(x)
        true_next = rho(nxt, z)
        if true_next > step["aposteriori_log"] + allow(true_next):
            problems.append(f"{job.name}: a-posteriori bound {step['aposteriori_log']!r} at step "
                            f"{step['n']} is below ln d(x_n+1, z) = {true_next!r}")
            break


def check(job: Job, outcome: Outcome, ctx) -> tuple[bool, list[str]]:
    problems: list[str] = []
    if job.kind == "diag":
        if outcome.exc is not None:
            return True, [f"{job.name}: {type(outcome.exc).__name__}: {outcome.exc}"]
        return False, check_diagnose(job, outcome.result)
    argv, spec = job.argv, job.spec
    if job.fault is not None:
        return check_fault_job(job, outcome)
    if outcome.exc is not None:
        return True, [f"{job.name}: {type(outcome.exc).__name__} escaped cli.main"]
    name = job.name

    if argv[0] == "verify" and argv[1] == "--space":
        if outcome.rc != 0:
            return False, [f"{name}: exit {outcome.rc}, expected 0"]
        rep = _json(outcome, problems, name)
        if rep is not None:
            _check_axiom_report(job, rep, problems)
        problems += _check_distances(job, ctx.spaces[name], ctx.mc)
    elif argv[0] == "verify" and argv[1] == "--problem":
        pid = spec["problem"]
        kind, lam = PROBLEMS[pid][3:]
        lam = spec.get("lam", lam)
        refuted = "lam" in spec
        if outcome.rc != (4 if refuted else 0):
            return False, [f"{name}: exit {outcome.rc}"]
        rep = _json(outcome, problems, name)
        if rep is not None:
            if (rep["kind"], rep["lambda"], rep["samples_used"]) != (kind, lam, spec["samples"]):
                problems.append(f"{name}: report header {rep['kind']}/{rep['lambda']}")
            if rep["condition_ok"] == refuted or bool(rep["witnesses"]) != refuted:
                problems.append(f"{name}: condition_ok = {rep['condition_ok']}")
            for w in rep["witnesses"]:
                if w["kind"] != kind or not _contraction_violated(pid, kind, lam, *w["points"]):
                    problems.append(f"{name}: witness {w} does not replay")
                    break
    elif argv[0] == "verify":                       # --expr-dist candidates
        if outcome.rc != 4:
            return False, [f"{name}: exit {outcome.rc}, expected 4"]
        rep = _json(outcome, problems, name)
        if rep is not None:
            _check_axiom_report(job, rep, problems, CANDIDATES[spec["formula"]][1])
    elif argv[0] == "estimate":
        lo, hi = ESTIMATES[spec["problem"]]
        try:
            value = float(outcome.stdout.strip())
        except ValueError:
            return False, [f"{name}: estimate printed {outcome.stdout!r}"]
        if outcome.rc != 0 or not lo <= value <= hi:
            problems.append(f"{name}: estimate {value!r} outside [{lo}, {hi}]")
    elif name.startswith("breach"):
        if outcome.rc != 2 or "step 1:" not in outcome.stderr or outcome.out:
            problems.append(f"{name}: expected the step-1 invariant breach (exit 2), "
                            f"got exit {outcome.rc}: {outcome.stderr.strip()!r}")
    else:                                           # solve with a valid constant
        if outcome.rc != 0:
            return False, [f"{name}: exit {outcome.rc}, expected 0"]
        trace = _json(outcome, problems, name)
        if trace is None:
            return False, problems
        if "problem" in spec:
            f, rho, z = PROBLEMS[spec["problem"]][:3]
        elif spec["family"] == "power":
            c, p = spec["c"], spec["p"]
            f, rho, z = (lambda x: c * x**p), rho_pos, math.exp(math.log(c) / (1.0 - p))
        else:
            q, b = spec["q"], spec["b"]
            f, rho, z = (lambda x: q * x + b), rho_line, b / (1.0 - q)
        _check_trace(job, trace, f, rho, z, problems)
    return False, problems


def check_fault_job(job: Job, outcome: Outcome) -> tuple[bool, list[str]]:
    """A counted-failure job fails while its fault is present; once mended it is checked."""
    if job.spec.get("formula") == "1":
        if outcome.rc == 0:
            return True, []
        if outcome.rc != 4:
            return True, [f"{job.name}: exit {outcome.rc}"]
        problems: list[str] = []
        rep = _json(outcome, problems, job.name)
        if rep is not None:
            _check_axiom_report(job, rep, problems, CANDIDATES["1"][1])
        return False, problems
    if outcome.exc is not None or outcome.rc not in (2, 3):
        return True, []
    return False, []


# ---------------------------------------------------------------------------
# sequence diagnostics from O(n) closed forms

def expected_diagnostics(spec: dict) -> dict:
    seq, z = spec["seq"], spec["z"]
    n = len(seq)
    logs = [math.log(x) for x in seq]
    log_z = math.log(z)
    start = tail_start(n)
    conv = max(abs(v - log_z) for v in logs[start:]) <= spec["tol_conv"]
    cauchy = max(logs[start:]) - min(logs[start:]) <= spec["tol_cauchy"]
    # the max pairwise log distance over a suffix is its max minus its min
    hi, lo = -math.inf, math.inf
    suffix_spread = [0.0] * n
    for k in range(n - 1, -1, -1):
        hi, lo = max(hi, logs[k]), min(lo, logs[k])
        suffix_spread[k] = hi - lo
    n0 = next((k for k in range(n) if suffix_spread[k] < LN2), n - 1)
    m_log = max([LN2] + [abs(logs[k] - logs[n0]) for k in range(n0)])
    sup_ok = (all(x <= spec["s"] for x in seq)
              and all(min(abs(math.log(spec["s"] / x)) for x in seq) < math.log(e)
                      for e in SUP_SCHEDULE))
    inf_ok = (all(x >= z for x in seq)
              and all(min(abs(math.log(z / x)) for x in seq) < math.log(e)
                      for e in INF_SCHEDULE))
    return {"conv": conv, "cauchy": cauchy, "n0": n0, "M": math.exp(m_log),
            "sup": sup_ok, "inf": inf_ok}


def _monotone(vals) -> str | None:
    if all(b >= a for a, b in zip(vals, vals[1:])):
        return "up"
    if all(b <= a for a, b in zip(vals, vals[1:])):
        return "down"
    return None


def check_diagnose(job: Job, result) -> list[str]:
    conv, cauchy, bound, mono, (bw_idx, bw_limit), sup, inf = result
    spec, name = job.spec, job.name
    seq = spec["seq"]
    want = expected_diagnostics(spec)
    problems = []
    got = {"conv": conv.verdict, "cauchy": cauchy.verdict, "n0": bound.center_index,
           "sup": sup.verdict, "inf": inf.verdict}
    for key, value in got.items():
        if value != want[key]:
            problems.append(f"{name}: {key} = {value!r}, closed form gives {want[key]!r}")
    if not math.isclose(bound.M, want["M"], rel_tol=1e-12):
        problems.append(f"{name}: M = {bound.M!r}, closed form gives {want['M']!r}")
    vals = [seq[i] for i in mono]
    if (not mono or any(b <= a for a, b in zip(mono, mono[1:]))
            or _monotone(vals) is None):
        problems.append(f"{name}: monotone_subsequence returned a non-monotone index list")
    elif spec["shape"] == "geometric" and len(mono) != len(seq):
        problems.append(f"{name}: a monotone sequence has a monotone subsequence of "
                        f"length {len(seq)}, got {len(mono)}")
    if bw_idx != mono:
        problems.append(f"{name}: bw_extract indices differ from monotone_subsequence")
    elif vals:
        limit = max(vals) if _monotone(vals) == "up" else min(vals)
        if bw_limit != limit:
            problems.append(f"{name}: bw_extract limit {bw_limit!r}, expected {limit!r}")
    return problems
