"""The four workloads: seeded job lists, workload set-up, and job execution.

Every job list is a pure function of (workload, seed) and uses only the
standard library, so it can be generated before the program is imported
and the set-up time measures the program alone.  One round is the whole
list, in order; a run repeats whole rounds.

Parameters that set a job's cost (sample counts, sequence lengths, the
Picard rate p of the solve families) sit on fixed grids, so that the cost
of a round hardly depends on the seed.  The seed draws everything else:
sampler seeds, constants, start points and sequence shapes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

WORKLOADS = ("certify", "refute", "solve", "diagnose")

REGISTRY_IDS = ("paper-scalar", "paper-segment", "sqrt-toy",
                "quarter-kannan", "quarter-chatterjea")

SUP_SCHEDULE = (2.0, 1.1, 1.001)
INF_SCHEDULE = (1.5, 1.01, 1.0001)


@dataclass(frozen=True)
class Job:
    """One operation: a CLI invocation or one diagnostic battery."""

    name: str
    kind: str                     # "cli" or "diag"
    argv: tuple = ()
    spec: dict = field(default_factory=dict, hash=False, compare=False)
    fault: str | None = None      # known program fault that makes this job fail


@dataclass
class Outcome:
    wall_s: float
    rc: int | None = None
    out: bytes = b""
    stdout: str = ""
    stderr: str = ""
    exc: BaseException | None = None
    result: object = None


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


# ---------------------------------------------------------------------------
# job lists

# (space id, extra CLI arguments, sample count) for `verify --space`.  Sample
# counts are set so that every job but func-sup costs about the same and the
# four func-sup jobs, about four times as long, form the slow tail:
# p50 and p90 then each fall inside a group of like jobs, not on a boundary
# between two job types, which keeps them steady from run to run.
CERTIFY_SPACES = (
    ("pos-reals", (), 1850),
    ("d-star", ("--dim", "1"), 500),
    ("d-star", ("--dim", "3"), 400),
    ("d-star", ("--dim", "8"), 240),
    ("d-a", ("--dim", "2"), 650),
    ("d-a", ("--dim", "2", "--complex"), 560),
    ("segment", (), 1000),
    ("product-pos", (), 700),
    ("func-sup", (), 50),
    ("func-sup", ("--lo", "0", "--hi", "2"), 50),
    ("func-sup", ("--lo", "-1", "--hi", "1"), 50),
    ("func-sup", ("--lo", "1", "--hi", "5"), 50),
)
# registry problem -> (verify --samples, estimate --pairs), sized likewise
CERTIFY_PROBLEMS = {
    "paper-scalar": (3000, 3200),
    "paper-segment": (1300, 1300),
    "sqrt-toy": (3000, 3300),
    "quarter-kannan": (3300, 4000),
    "quarter-chatterjea": (3400, 4100),
}


def certify_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for space, extra, samples in CERTIFY_SPACES:
        seed = _seed(rng)
        spec = {"space": space, "samples": samples, "seed": int(seed),
                "dim": int(extra[extra.index("--dim") + 1]) if "--dim" in extra else 1,
                "complex": "--complex" in extra,
                "lo": float(extra[extra.index("--lo") + 1]) if "--lo" in extra else 0.0,
                "hi": float(extra[extra.index("--hi") + 1]) if "--hi" in extra else 1.0,
                "check_seed": rng.randrange(2**31)}
        jobs.append(Job(f"verify-space-{space}{''.join(extra)}", "cli",
                        ("verify", "--space", space, *extra,
                         "--samples", str(samples), "--seed", seed), spec))
    for pid, (samples, _) in CERTIFY_PROBLEMS.items():
        seed = _seed(rng)
        jobs.append(Job(f"verify-problem-{pid}", "cli",
                        ("verify", "--problem", pid, "--samples", str(samples), "--seed", seed),
                        {"problem": pid, "samples": samples}))
    for pid, (_, pairs) in CERTIFY_PROBLEMS.items():
        jobs.append(Job(f"estimate-{pid}", "cli",
                        ("estimate", "--problem", pid, "--pairs", str(pairs),
                         "--seed", _seed(rng)),
                        {"problem": pid}))
    return jobs


# Five near-instant jobs (two breaches, three counted failures), eight
# contraction refutations of like cost that hold the median, and five
# expression-distance refutations, nearly twice as long, that hold p90.
# (formula, sample count); the formula text and its check live in checks.py
REFUTE_DISTS = (
    ("e^((x-y)^2)", 950), ("e^(x-y)", 750), ("1.5*e^(abs(x-y))", 1000),
    ("e^((x-y)^2)", 950), ("e^(x-y)", 750),
)
# (registry problem, too-small lambda, sample count)
REFUTE_CONTRACTIONS = (
    ("sqrt-toy", 0.4, 1000), ("sqrt-toy", 0.45, 1000),
    ("quarter-kannan", 0.1, 1500), ("quarter-kannan", 0.15, 1500),
) * 2

FAULT_OVERFLOW = ("OverflowError escapes cli.main for solve --expr exp(x) --x0 1000 "
                  "(exit 1; the contract asks for 2 or 3)")
FAULT_ZERODIV = ("ZeroDivisionError escapes cli.main for solve --expr 1/(x-1) --x0 1 "
                 "(exit 1; the contract asks for 2 or 3)")
FAULT_CONST_DIST = ("verify --expr-dist 1 certifies the constant distance 1 (exit 0): "
                    "_verify_expr_dist passes no points_equal, so m1 is never refuted")


def refute_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for i, (formula, samples) in enumerate(REFUTE_DISTS):
        seed = _seed(rng)
        jobs.append(Job(f"expr-dist-{i}", "cli",
                        ("verify", "--expr-dist", formula, "--samples", str(samples),
                         "--seed", seed),
                        {"formula": formula, "samples": samples}))
    for i, (pid, lam, samples) in enumerate(REFUTE_CONTRACTIONS):
        seed = _seed(rng)
        jobs.append(Job(f"contraction-{i}-{pid}-{lam}", "cli",
                        ("verify", "--problem", pid, "--lambda", repr(lam),
                         "--samples", str(samples), "--seed", seed),
                        {"problem": pid, "lam": lam, "samples": samples}))
    x0 = repr(round(math.exp(rng.uniform(math.log(4.0), math.log(64.0))), 6))
    jobs.append(Job("breach-sqrt", "cli",
                    ("solve", "--expr", "sqrt(x)", "--lambda", "0.3", "--x0", x0)))
    p = round(rng.uniform(0.6, 0.9), 3)
    c = round(rng.uniform(0.5, 2.0), 4)
    jobs.append(Job("breach-power", "cli",
                    ("solve", "--expr", f"{c!r}*x^{p!r}", "--lambda", repr(round(p - 0.2, 3)),
                     "--x0", repr(round(rng.uniform(3.0, 30.0), 4)))))
    jobs.append(Job("fault-overflow", "cli",
                    ("solve", "--expr", "exp(x)", "--x0", "1000"), fault=FAULT_OVERFLOW))
    jobs.append(Job("fault-zerodiv", "cli",
                    ("solve", "--expr", "1/(x-1)", "--x0", "1"), fault=FAULT_ZERODIV))
    jobs.append(Job("fault-const-dist", "cli",
                    ("verify", "--expr-dist", "1", "--samples", "20", "--seed", _seed(rng)),
                    {"formula": "1", "samples": 20}, fault=FAULT_CONST_DIST))
    return jobs


# The Picard rate p sets a power job's step count (20 to about 500).  The
# four p = 0.95 jobs form the slow tail that holds p90; the median falls in
# the large group of registry, linear and low-p jobs.
POWER_RATES = (0.2, 0.35, 0.5, 0.6, 0.7, 0.78, 0.85, 0.9, 0.95, 0.95, 0.95, 0.95)
LINEAR_RATES = {
    "banach": (0.15, 0.4, 0.65, 0.85),
    "kannan": (0.08, 0.15, 0.22, 0.3),
    "chatterjea": (0.2, 0.45, 0.7, 0.9),
}


def _lambda_for(kind: str, q: float) -> float:
    """Smallest 6-digit constant of the kind that x -> q*x + b satisfies on (R, |x-y|)."""
    need = {"banach": q, "kannan": q / (1.0 - q), "chatterjea": q / (1.0 + q)}[kind]
    return math.ceil(need * 1e6) / 1e6


def solve_jobs(rng: random.Random) -> list[Job]:
    jobs = [Job(f"solve-{pid}", "cli", ("solve", "--problem", pid), {"problem": pid})
            for pid in REGISTRY_IDS]
    for p in POWER_RATES:
        log_z = rng.choice((-1, 1)) * rng.uniform(0.2, 3.0)
        c = float(f"{math.exp((1.0 - p) * log_z):.6g}")
        x0 = math.exp(math.log(c) / (1.0 - p) + rng.choice((-1, 1)) * rng.uniform(1.5, 2.5))
        jobs.append(Job(f"solve-power-{len(jobs)}-{p}", "cli",
                        ("solve", "--expr", f"{c!r}*x^{p!r}", "--lambda", repr(p),
                         "--x0", repr(x0)),
                        {"family": "power", "c": c, "p": p}))
    for kind, rates in LINEAR_RATES.items():
        for q in rates:
            b = round(rng.uniform(-3.0, 3.0), 4)
            x0 = b / (1.0 - q) + rng.choice((-1, 1)) * rng.uniform(3.0, 6.0)
            lam = _lambda_for(kind, q)
            jobs.append(Job(f"solve-linear-{kind}-{q}", "cli",
                            ("solve", "--expr", f"{q!r}*x+({b!r})", "--space", "real-line-exp",
                             "--kind", kind, "--lambda", repr(lam), "--x0", repr(x0)),
                            {"family": "linear", "q": q, "b": b}))
    return jobs


# Lengths from 40 to 400; seven of length 200 hold the median and four of
# length 400 hold p90 (the battery's cost grows as n^2, so like lengths give
# like costs whatever the shape).
DIAG_LENGTHS = (40, 70, 100, 130, 160, 200, 200, 200, 200, 200, 200, 200, 400, 400, 400, 400)
DIAG_SHAPES = ("geometric", "oscillating", "alternating", "late-jump")
# Candidate suprema, as log offsets from the sequence's maximum, cycled every
# len(DIAG_SHAPES) jobs: the maximum itself (sup holds), a value below it
# (a term exceeds it) and one above it by more than ln 1.001, the last eps of
# SUP_SCHEDULE (no term comes close enough), so both sup verdicts occur.
SUP_OFFSETS = (0.0, -0.01, 0.05)


def tail_start(n: int) -> int:
    """sequence_analysis's documented tail window: the final quarter, never fewer than 8."""
    return max(0, n - max(8, math.ceil(0.25 * n)))


def diagnose_sequence(rng: random.Random, shape: str, n: int, sup_offset: float) -> dict:
    """A positive sequence with closed-form log values and its diagnostic inputs.

    geometric    ln x_n = ln z + delta * r^n, 0 < r < 1      (converges to z)
    oscillating  ln x_n = ln z + delta * r^n, -1 < r < 0     (converges, alternating)
    alternating  ln x_n = ln z + a * (-1)^n                  (never converges)
    late-jump    geometric, plus a jump of size K from index J in the tail
    """
    log_z = rng.uniform(-2.0, 2.0)
    delta = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
    start = tail_start(n)
    if shape in ("geometric", "late-jump"):
        r = rng.uniform(0.6, 0.9)
    else:
        r = -rng.uniform(0.6, 0.9)
    if shape == "alternating":
        a = rng.uniform(0.4, 1.5)
        logs = [log_z + a * (-1) ** k for k in range(n)]
    else:
        logs = [log_z + delta * r**k for k in range(n)]
    if shape == "late-jump":
        jump_at = n - max(3, n // 8)
        size = rng.choice((-1, 1)) * rng.uniform(1.0, 2.0)
        logs = [v + (size if k >= jump_at else 0.0) for k, v in enumerate(logs)]
    seq = tuple(math.exp(v) for v in logs)
    tail = [abs(v - log_z) for v in logs[start:]]
    spread = max(logs[start:]) - min(logs[start:])
    # the geometric shape gets tolerances ten times above its tail deviation
    # (both verdicts true), every other shape ten times below (both false)
    factor = 10.0 if shape == "geometric" else 0.1
    return {"shape": shape, "seq": seq, "z": math.exp(log_z),
            "tol_conv": max(factor * max(tail), 1e-300),
            "tol_cauchy": max(factor * spread, 1e-300),
            "M_bw": 1.5 * max(max(seq), 1.0 / min(seq)),
            "s": max(seq) * math.exp(sup_offset)}


def diagnose_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for i, n in enumerate(DIAG_LENGTHS):
        shape = DIAG_SHAPES[i % len(DIAG_SHAPES)]
        sup_offset = SUP_OFFSETS[i // len(DIAG_SHAPES) % len(SUP_OFFSETS)]
        jobs.append(Job(f"diagnose-{i}-{shape}-{n}", "diag",
                        spec=diagnose_sequence(rng, shape, n, sup_offset)))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return {"certify": certify_jobs, "refute": refute_jobs,
            "solve": solve_jobs, "diagnose": diagnose_jobs}[workload](rng)


# ---------------------------------------------------------------------------
# set-up: import the program and build what the workload uses

def import_program(workload: str) -> SimpleNamespace:
    """Import the modules the workload calls (this is where numpy loads)."""
    names = {"metric_core": "mulmetric.metric_core", "spaces": "mulmetric.spaces",
             "registry": "mulmetric.registry", "fixed_point": "mulmetric.fixed_point"}
    if workload == "diagnose":
        names["sequence_analysis"] = "mulmetric.sequence_analysis"
    else:
        names["cli"] = "mulmetric.cli"
        names["expressions"] = "mulmetric.expressions"
    importlib.import_module("mulmetric")
    return SimpleNamespace(**{k: importlib.import_module(v) for k, v in names.items()})


def _space_for(mm, spec: dict):
    sp = mm.spaces
    space = spec["space"]
    if space == "pos-reals":
        return sp.positive_reals()
    if space == "d-star":
        return sp.positive_vectors(spec["dim"])
    if space == "d-a":
        return sp.exp_metric(spec["dim"], 2.0, complex_coords=spec["complex"])
    if space == "segment":
        return sp.segment_space()
    if space == "func-sup":
        return sp.function_space(spec["lo"], spec["hi"])
    inner = sp.positive_reals()
    return sp.product_space(inner, inner)


def build(workload: str, jobs: list[Job], mm: SimpleNamespace) -> SimpleNamespace:
    """Build the workload's spaces, maps and compiled expressions."""
    ctx = SimpleNamespace(spaces={}, maps={}, exprs={})
    if workload == "diagnose":
        ctx.space = mm.spaces.positive_reals()
        return ctx
    ctx.parser = mm.cli.build_parser()
    reg = mm.registry
    for pid in REGISTRY_IDS:
        pd = reg.REGISTRY[pid].problem
        ctx.spaces[pid] = reg.build_space(pd)
        ctx.maps[pid] = reg.build_selfmap(pd, ctx.spaces[pid])
    for job in jobs:
        if "space" in job.spec:
            ctx.spaces[job.name] = _space_for(mm, job.spec)
        for flag, variables in (("--expr", ("x",)), ("--expr-dist", ("x", "y"))):
            if flag in job.argv:
                text = job.argv[job.argv.index(flag) + 1]
                ctx.exprs[text] = mm.expressions.compile_expr(text, variables)
    return ctx


# ---------------------------------------------------------------------------
# execution

def run_cli(job: Job, cli, out_path: str) -> Outcome:
    """Call cli.main in-process with --out; an escaping exception reads as exit 1."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    argv = [*job.argv, "--out", out_path]
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:   # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:    # a fault in the program; the job counts as failed
        rc, exc = 1, e
    wall = time.perf_counter() - t0
    data = b""
    with contextlib.suppress(FileNotFoundError), open(out_path, "rb") as fh:
        data = fh.read()
    return Outcome(wall, rc, data, out.getvalue(), err.getvalue(), exc)


def run_diag(job: Job, sa, space) -> Outcome:
    """The sequence_analysis battery on one sequence, as direct library calls."""
    s = job.spec
    seq = list(s["seq"])
    t0 = time.perf_counter()
    try:
        result = (sa.convergence_diagnostic(seq, s["z"], space, s["tol_conv"]),
                  sa.cauchy_diagnostic(seq, space, s["tol_cauchy"]),
                  sa.bounded_diagnostic(seq, space),
                  sa.monotone_subsequence(seq),
                  sa.bw_extract(seq, s["M_bw"]),
                  sa.check_supremum(seq, s["s"], SUP_SCHEDULE),
                  sa.check_infimum(seq, s["z"], INF_SCHEDULE))
        exc = None
    except Exception as e:    # a fault in the program; the job counts as failed
        result, exc = None, e
    return Outcome(time.perf_counter() - t0, exc=exc, result=result)
