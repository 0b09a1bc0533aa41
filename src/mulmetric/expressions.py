"""Tiny closed-form expression language for scalar maps and candidate distances.

Deliberately small: arithmetic, powers ('^' or '**'), exp/ln/sqrt/abs, the
constants e and pi, and the declared variable names.  Anything richer
belongs in code, registered as a named map.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import InputError

_FUNCTIONS = {
    "exp": math.exp,
    "ln": math.log,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_CONSTANTS = {
    "e": math.e,
    "pi": math.pi,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def compile_expr(text: str, variables: Sequence[str] = ("x",)) -> Callable:
    """Compile the validated tree, constants made floats, once into a lambda of the
    given variables.  A call raises whatever its arithmetic raises and may return a
    complex value: its caller names the failure, and the space decides what is a point."""
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
        _validate(tree.body, set(variables))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {text!r}: {exc}") from exc
    except (RecursionError, MemoryError, OverflowError) as exc:
        raise InputError(f"expression {text!r} is too deep or too large: {exc!r}") from None
    # the two new kinds of node get their locations by hand: ast.fix_missing_locations
    # would walk the whole tree again
    args = [ast.arg(v, lineno=1, col_offset=0) for v in variables]
    tree.body = ast.Lambda(ast.arguments([], args, None, [], [], None, []), tree.body,
                           lineno=1, col_offset=0)
    return eval(compile(tree, f"<expr {text}>", "eval"),
                {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS})


def _validate(node: ast.AST, names: set):
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise InputError(f"unsupported constant {node.value!r}")
    elif isinstance(node, ast.Name):
        if node.id not in names and node.id not in _CONSTANTS:
            raise InputError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate(node.left, names)
        _validate(node.right, names)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate(node.operand, names)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise InputError("only exp/ln/log/sqrt/abs calls are allowed")
        if node.keywords or len(node.args) != 1:
            raise InputError("functions take exactly one positional argument")
        _validate(node.args[0], names)
    else:
        raise InputError(f"unsupported syntax: {ast.dump(node)}")
