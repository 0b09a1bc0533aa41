"""Command-line interface: solve, verify, estimate, examples.

Exit codes: 0 success, 2 usage or validation failure, 3 solver
non-convergence, 4 verification refuted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import fixed_point as fp
from . import registry as reg
from . import spaces
from .errors import InputError, MulMetricError
from .expressions import compile_expr
from .verifier import verify_axioms, verify_contraction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REFUTED = 4


def _encode_value(v):
    # scalar witness points are written as bare numbers, trace points as lists
    return v if isinstance(v, (int, float)) else reg.encode_point(v)


def trace_to_dict(report: fp.SolverReport) -> dict:
    return {
        "steps": [
            {
                "n": s.n,
                "point": reg.encode_point(s.point),
                "step_log": s.step_log,
                "apriori_log": s.apriori_log,
                "aposteriori_log": s.aposteriori_log,
            }
            for s in report.trace
        ],
        "footer": {
            "fixed_point": reg.encode_point(report.fixed_point),
            "residual_log": report.residual_log,
            "iterations": report.iterations,
            "converged": report.converged,
        },
    }


def report_to_dict(report) -> dict:
    """Encode a verifier report by walking its dataclass fields in order."""
    out = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name == "witnesses":
            value = [{report.witness_key: w.axiom,
                      "points": [_encode_value(p) for p in w.points],
                      "values": list(w.values)}
                     for w in value]
        out[f.metadata.get("key", f.name)] = value
    return out


#: a report witness at its depth (indent 4): key, axiom, points, values
_WITNESS = ('{\n      %s: %s,\n      "points": [\n        %s\n      ],\n'
            '      "values": [\n        %s\n      ]\n    }')


def _witness(w, indent: str) -> str | None:
    """`_text(w, indent)` in one format string for a report witness with
    non-empty lists of finite floats as points and values, the bulk of a
    refuted report; None for any other item."""
    if indent != "    " or type(w) is not dict or len(w) != 3:
        return None
    (key, axiom), (p, points), (q, values) = w.items()
    sep = ",\n        "
    try:
        xs, ys = sep.join(map(float.__repr__, points)), sep.join(map(float.__repr__, values))
    except TypeError:  # not lists of floats
        return None
    if (p, q) != ("points", "values") or type(axiom) is not str or not (xs and ys) \
            or "n" in xs or "n" in ys:
        return None
    return _WITNESS % (_escape(key), _escape(axiom), xs, ys)


def _text(v, indent: str = "") -> str:
    """`json.dumps(v, indent=2)` byte for byte, for JSON values with string keys.

    The indent makes json.dumps use its pure-Python encoder; here a list of
    plain floats is one C-level join of `float.__repr__`, strings and keys go
    through json's own C escaper, a report witness of scalar points is one
    format string, and NaN, infinities, bools, None and float subclasses are
    left to json.dumps itself.
    """
    t = type(v)
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        try:
            body = sep.join(map(float.__repr__, v))
        except TypeError:  # not all floats
            body = "n"
        if "n" in body:
            body = sep.join([_witness(x, inner) or _text(x, inner) for x in v])
        return f"[\n{inner}{body}\n{indent}]"
    if t is dict:
        if not v:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([f"{_escape(k)}: {_text(x, inner)}" for k, x in v.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if t is str:
        return _escape(v)
    if t is float:
        text = float.__repr__(v)
        return json.dumps(v) if "n" in text else text
    if t is int:
        return int.__repr__(v)
    if isinstance(v, (list, tuple, dict)):  # a subclass
        return _text(dict(v) if isinstance(v, dict) else list(v), indent)
    return json.dumps(v)


def _write_json(payload: dict, out: str | None):
    text = _text(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


#: problem fields an explicit flag sets, on registry, file and inline problems alike
OVERRIDES = ("kind", "lam", "tol_log", "max_iter", "dim", "base", "lo", "hi", "seed")


def _given(args, names) -> dict:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _load_problem(args) -> tuple[reg.ProblemDefinition, spaces.SelfMap]:
    """The problem the flags describe, and its map built on its space."""
    given = _given(args, OVERRIDES)
    if args.x0 is not None:
        given["x0"] = reg.parse_value("x0", args.x0)
    if not args.problem:
        pd = reg.ProblemDefinition(space_id=args.space or "pos-reals", map_id=args.map,
                                   expr=args.expr, **given)
    elif args.problem in reg.REGISTRY:
        pd = dataclasses.replace(reg.REGISTRY[args.problem].problem, **given)
    else:
        with open(args.problem) as fh:
            pd = dataclasses.replace(reg.parse_problem(fh.read()), **given)
    return pd, reg.build_selfmap(pd, reg.build_space(pd))


def cmd_solve(args) -> int:
    pd, map_ = _load_problem(args)
    x0 = reg.decode_point(pd, pd.x0)
    spec = fp.ContractionSpec(pd.kind, pd.lam)
    report = fp.solve(map_, x0, spec, pd.tol_log, pd.max_iter)
    _write_json(trace_to_dict(report), args.out)
    if not report.converged:
        print(f"no convergence after {report.iterations} iterations "
              f"(residual_log = {report.residual_log:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _emit_report(report, ok: bool, out: str | None) -> int:
    _write_json(report_to_dict(report), out)
    return EXIT_OK if ok else EXIT_REFUTED


def _verify_space(args) -> int:
    sp = spaces.build(args.space, complex_coords=args.complex,
                      **_given(args, ("dim", "base", "lo", "hi")))
    report = verify_axioms(sp, args.samples, seed=args.seed or 0)
    return _emit_report(report, report.all_ok, args.out)


def _verify_expr_dist(args) -> int:
    lo = args.lo if args.lo is not None else -5.0
    hi = args.hi if args.hi is not None else 5.0
    # scalar samples: distinct floats are distinct points
    candidate = spaces.SpaceInstance(args.expr_dist, lambda rng: rng.uniform(lo, hi),
                                     dist=compile_expr(args.expr_dist, ("x", "y")),
                                     points_equal=operator.eq)
    report = verify_axioms(candidate, args.samples, seed=args.seed or 0)
    return _emit_report(report, report.all_ok, args.out)


def _verify_contraction(args) -> int:
    pd, map_ = _load_problem(args)
    report = verify_contraction(map_, pd.kind, pd.lam, args.samples, pd.seed)
    return _emit_report(report, report.condition_ok, args.out)


def cmd_verify(args) -> int:
    if args.complex and (args.expr_dist or args.problem or args.map or args.expr
                         or args.space != "d-a"):
        raise InputError("--complex applies only to verify --space d-a")
    if args.expr_dist:
        return _verify_expr_dist(args)
    if args.problem or args.map or args.expr:
        return _verify_contraction(args)
    if args.space:
        return _verify_space(args)
    raise MulMetricError("nothing to verify: give --space, --expr-dist, "
                         "--problem, --map, or --expr")


def cmd_estimate(args) -> int:
    pd, map_ = _load_problem(args)
    lambda_hat, witness = fp.estimate_lambda(map_, args.pairs, pd.kind, pd.seed)
    print(f"{lambda_hat!r}")
    if args.verbose:
        print(f"witness pair: {witness}", file=sys.stderr)
    return EXIT_OK


def cmd_examples(_args) -> int:
    for name, entry in reg.REGISTRY.items():
        pd = entry.problem
        print(f"{name}: space={pd.space_id} kind={pd.kind} lambda={pd.lam} "
              f"expected={entry.expected}")
        print(f"    {entry.source}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mulmetric",
        description="Multiplicative metric spaces: solvers, verification, diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", help="registry id or problem file path")
        p.add_argument("--map", help="named map from the registry")
        p.add_argument("--expr", help="closed-form scalar map f(x)")
        p.add_argument("--space", help=f"space id ({', '.join(reg.SPACE_IDS)})")
        p.add_argument("--dim", type=int)
        p.add_argument("--base", type=float)
        p.add_argument("--lo", type=float)
        p.add_argument("--hi", type=float)
        p.add_argument("--kind", choices=fp.KINDS)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--seed", type=int, help="sampler seed (default: the problem's, else 0)")
        p.add_argument("--out", help="output file (default: stdout)")

    p_solve = sub.add_parser("solve", help="run a fixed-point solve, export the trace")
    add_common(p_solve)
    p_solve.add_argument("--x0", help="start point, comma-separated coordinates")
    p_solve.add_argument("--tol-log", dest="tol_log", type=float)
    p_solve.add_argument("--max-iter", dest="max_iter", type=int)
    p_solve.set_defaults(func=cmd_solve, x0=None, tol_log=None, max_iter=None)

    p_verify = sub.add_parser("verify", help="check metric axioms or a contraction condition")
    add_common(p_verify)
    p_verify.add_argument("--expr-dist", dest="expr_dist",
                          help="closed-form candidate distance d(x, y)")
    p_verify.add_argument("--complex", action="store_true",
                          help="complex coordinates for d-a")
    p_verify.add_argument("--samples", type=int, default=10000)
    p_verify.set_defaults(func=cmd_verify, x0=None, tol_log=None, max_iter=None)

    p_est = sub.add_parser("estimate", help="estimate the contraction constant")
    add_common(p_est)
    p_est.add_argument("--pairs", type=int, default=1000)
    p_est.add_argument("--verbose", action="store_true")
    p_est.set_defaults(func=cmd_estimate, x0=None, tol_log=None, max_iter=None)

    p_ex = sub.add_parser("examples", help="list built-in problems")
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MulMetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
