"""Tiny closed-form expression language for CLI-supplied maps and distances.

Deliberately small: arithmetic, powers ('^' or '**'), exp/ln/sqrt/abs, the
constants e and pi, and the declared variable names.  Anything richer
belongs in code, registered as a named map.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import DomainError, InputError

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
    """Compile the validated tree, constants made floats, once into a function
    of the given variables; a failing or complex call raises DomainError."""
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
    code = compile(tree, f"<expr {text}>", "eval")
    scope = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}

    def fn(*args):
        if len(args) != len(variables):
            raise InputError(f"expression takes {len(variables)} argument(s)")
        env = dict(zip(variables, args))
        try:
            value = eval(code, scope, env)
            if isinstance(value, complex):
                raise ValueError(f"complex result {value!r}")
        except (ArithmeticError, ValueError, TypeError) as exc:
            at = ", ".join(f"{k} = {v!r}" for k, v in env.items())
            raise DomainError(f"expression {text!r} is undefined at {at}: {exc}") from exc
        return value

    fn.__name__ = f"expr({text})"
    return fn


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
