"""Command-line interface: solve, verify, estimate, examples.

Exit codes: 0 success, 2 usage or validation failure, 3 solver
non-convergence, 4 verification refuted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter, itemgetter

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


def _list(texts, indent: str) -> str:
    """Items already written, laid out as `json.dumps(indent=2)` lays out a list."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(texts) + "\n" + indent + "]" if texts else "[]"


def _reprs(xs) -> tuple | None:
    """`float.__repr__` of each of xs, as json writes a float, in one C-level pass; None
    when one is not a float, or is NaN or infinite, which json writes otherwise."""
    try:
        texts = tuple(map(float.__repr__, xs))
    except TypeError:  # ints, bools, points, or the nested lists of an encoded pair
        return None
    return None if "n" in "".join(texts) else texts


def _array(xs, indent: str) -> str:
    """`json.dumps(list(xs), indent=2)` at this indent, for numbers and nested lists
    or tuples of them: floats by `_reprs`, ints, bools, NaN and infinities by json."""
    texts = _reprs(xs)
    if texts is None:
        texts = [_array(x, indent + "  ") if isinstance(x, (list, tuple)) else json.dumps(x)
                 for x in xs]
    return _list(texts, indent)


def _float(x: float) -> str:
    """One float as json writes it."""
    text = float.__repr__(x)
    return text if "n" not in text else json.dumps(x)


#: a scalar of exactly one of these types as json writes it; any other, such as a
#: float or int subclass, or None, by json.dumps
_SCALARS = {bool: ("false", "true").__getitem__, int: int.__repr__, float: _float,
            str: _escape}


def _scalar(value) -> str:
    return _SCALARS.get(type(value), json.dumps)(value)


#: a trace at depth 0 and one of its steps at depth 2
_TRACE = ('{\n  "steps": %s,\n  "footer": {\n    "fixed_point": %s,\n    "residual_log": %s,\n'
          '    "iterations": %d,\n    "converged": %s\n  }\n}')
_STEP = ('{\n      "n": %d,\n      "point": %s,\n      "step_log": %s,\n'
         '      "apriori_log": %s,\n      "aposteriori_log": %s\n    }')
#: a step whose point is one float, with a slot for n and for each of its floats
_FLOAT_STEP = _STEP.replace('"point": %s', '"point": [\n        %s\n      ]')
#: a witness at depth 2, one failed test of a report: its key, axiom or kind, points, values
_FAILURE = '{\n      %s: %s,\n      "points": %s,\n      "values": %s\n    }'


@functools.lru_cache(maxsize=64)
def _witness_template(key: str, axiom: str, n_points: int, n_values: int) -> str:
    """`_FAILURE` with the written key and axiom (`%` escaped), a slot per point and value."""
    points, values = (_list(["%s"] * n, "      ") for n in (n_points, n_values))
    return _FAILURE % (key, axiom.replace("%", "%%"), points, values)


def trace_json(report: fp.SolverReport) -> str:
    """A solver report as JSON: its steps (each point as `registry.encode_point`
    gives it) and a footer, byte for byte what `json.dumps(indent=2)` writes.  Steps
    with float points and finite floats are one fill of `_FLOAT_STEP`s."""
    reprs = _reprs(chain.from_iterable(map(itemgetter(1, 2, 3, 4), report.trace)))
    if reprs is not None:
        slots = iter(reprs)
        steps = _list([_FLOAT_STEP] * len(report.trace), "  ") % tuple(chain.from_iterable(
            zip(map(itemgetter(0), report.trace), slots, slots, slots, slots)))
    else:
        steps = _list([_STEP % (s.n, _array(reg.encode_point(s.point), "      "),
                                _float(s.step_log), _float(s.apriori_log),
                                _float(s.aposteriori_log)) for s in report.trace], "  ")
    return _TRACE % (steps, _array(reg.encode_point(report.fixed_point), "    "),
                     _float(report.residual_log), report.iterations,
                     _scalar(report.converged))


def _witness_list(key: str, witnesses) -> str:
    """A report's witnesses at depth 1: one fill of `_witness_template`s when every
    axiom is a str and every point and value a finite float; else witness by witness,
    int and float points bare and any other as `registry.encode_point` gives it."""
    reprs = _reprs(chain.from_iterable(chain.from_iterable(
        map(attrgetter("points", "values"), witnesses))))
    if reprs is not None:
        with contextlib.suppress(TypeError):  # _escape takes only a str
            return _list([_witness_template(key, _escape(w.axiom), len(w.points),
                                            len(w.values)) for w in witnesses], "  ") % reprs
    return _list([_FAILURE % (key, json.dumps(w.axiom), _array(
        [p if isinstance(p, (int, float)) else reg.encode_point(p) for p in w.points],
        "      "), _array(w.values, "      ")) for w in witnesses], "  ")


def report_json(report) -> str:
    """A verifier report as JSON: its dataclass fields in order, each under its
    metadata key if it has one, its witnesses as `_witness_list` writes them and every
    other field as `_scalar` does; byte for byte what `json.dumps(indent=2)` writes."""
    key, lines = _escape(report.witness_key), []
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        value = _witness_list(key, value) if f.name == "witnesses" else _scalar(value)
        lines.append(f'  {_escape(f.metadata.get("key", f.name))}: {value}')
    return "{\n" + ",\n".join(lines) + "\n}"


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


#: problem fields an explicit flag sets, on registry, file and inline problems alike
OVERRIDES = ("kind", "lam", "tol_log", "max_iter", "dim", "base", "lo", "hi", "seed")


def _given(args, names) -> dict:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _refuse(args, names, mode: str):
    """An InputError naming each flag of `names` that args gives: mode would drop it."""
    dropped = ["--lambda" if n == "lam" else "--" + n
               for n, value in _given(args, names).items() if value is not False]
    if dropped:
        raise InputError(f"{mode} takes no {', '.join(dropped)}")


def _load_problem(args) -> tuple[reg.ProblemDefinition, spaces.SelfMap]:
    """The problem the flags describe, and its map built on its space."""
    _refuse(args, ("map", "expr", "space") if args.problem else (), "--problem")
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
    _write(trace_json(report), args.out)
    if not report.converged:
        print(f"no convergence after {report.iterations} iterations "
              f"(residual_log = {report.residual_log:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _emit_report(report, ok: bool, out: str | None) -> int:
    _write(report_json(report), out)
    return EXIT_OK if ok else EXIT_REFUTED


def _verify_space(args) -> int:
    sp = spaces.build(args.space, complex_coords=args.complex,
                      **_given(args, ("dim", "base", "lo", "hi")))
    report = verify_axioms(sp, args.samples, seed=args.seed or 0)
    return _emit_report(report, report.all_ok, args.out)


def _verify_expr_dist(args) -> int:
    lo = args.lo if args.lo is not None else -5.0
    hi = args.hi if args.hi is not None else 5.0
    candidate = spaces.SpaceInstance(args.expr_dist, lambda rng: rng.uniform(lo, hi),
                                     dist=compile_expr(args.expr_dist, ("x", "y")))
    report = verify_axioms(candidate, args.samples, seed=args.seed or 0)
    return _emit_report(report, report.all_ok, args.out)


def _verify_contraction(args) -> int:
    pd, map_ = _load_problem(args)
    report = verify_contraction(map_, pd.kind, pd.lam, args.samples, pd.seed)
    return _emit_report(report, report.condition_ok, args.out)


def cmd_verify(args) -> int:
    if args.expr_dist:
        _refuse(args, ("problem", "map", "expr", "space", "dim", "base", "kind", "lam",
                       "complex"), "verify --expr-dist")
        return _verify_expr_dist(args)
    if args.problem or args.map or args.expr:
        _refuse(args, ("complex",), "a contraction check")
        return _verify_contraction(args)
    if args.space:
        _refuse(args, ("kind", "lam"), "verify --space")
        return _verify_space(args)
    raise MulMetricError("nothing to verify: give --space, --expr-dist, "
                         "--problem, --map, or --expr")


def cmd_estimate(args) -> int:
    pd, map_ = _load_problem(args)
    lambda_hat, witness = fp.estimate_lambda(map_, args.pairs, pd.kind, pd.seed)
    line = f"{lambda_hat!r}"
    print(line)
    if args.out:
        _write(line, args.out)
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
