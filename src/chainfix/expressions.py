"""Tiny arithmetic grammar for serializable box maps.

Accepted syntax: infix ``+ - * /``, unary minus, parentheses, numeric
literals, the calls ``min``/``max``/``abs``, and the coordinate variables
``x``, ``y`` (one dimension) or ``x1..xk``, ``y1..yk``. Division is
restricted to nonzero constant denominators so an expression is total on its
whole box.

Parsing reuses Python's ``ast`` with a strict node whitelist; anything
outside the grammar is rejected up front and the validated tree is compiled
once, so repeated evaluation is a plain ``eval`` of a code object with no
builtins in scope.

Every numeric literal is rewritten to a float at parse time, and a literal
outside float range is a ``GrammarError``, so evaluation is float64
arithmetic throughout. The same code object therefore evaluates Python
floats (one point) and float64 arrays (many points at once, elementwise)
with bitwise equal results: ``min`` and ``max`` keep the builtins' tie rule
on both, and an overflow is an infinity rather than an exception.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import GrammarError


def _first_wins(beats):
    # the builtins' rule: a later argument replaces the current one only when
    # it beats it strictly, so min(0.0, -0.0) is 0.0 (np.minimum gives -0.0)
    def pick(first, *rest):
        for v in rest:
            wins = beats(v, first)
            if isinstance(wins, np.ndarray):
                first = np.where(wins, v, first)
            elif wins:
                first = v
        return first

    return pick


_FUNCS = {
    "min": _first_wins(operator.lt),
    "max": _first_wins(operator.gt),
    "abs": abs,
}
_SCOPE = {"__builtins__": {}, **_FUNCS}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_UNARY = (ast.USub, ast.UAdd)


def variable_names(dim: int) -> tuple[str, ...]:
    """Coordinate variables for a dim-dimensional box."""
    if dim == 1:
        return ("x", "y")
    xs = tuple(f"x{i}" for i in range(1, dim + 1))
    ys = tuple(f"y{i}" for i in range(1, dim + 1))
    return xs + ys


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _const_value(node: ast.expr) -> float:
    expr = ast.fix_missing_locations(ast.Expression(body=node))
    return eval(compile(expr, "<denominator>", "eval"), {"__builtins__": {}}, {})


def _validate(node: ast.expr, allowed: set[str], source: str) -> None:
    # rewrites each literal to a float as it goes
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate(node.left, allowed, source)
        _validate(node.right, allowed, source)
        if isinstance(node.op, ast.Div):
            if _names(node.right):
                raise GrammarError(
                    f"division denominator must be a constant in {source!r}"
                )
            if _const_value(node.right) == 0:
                raise GrammarError(f"division by zero constant in {source!r}")
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _validate(node.operand, allowed, source)
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in _FUNCS
            or node.keywords
        ):
            raise GrammarError(
                f"only plain min/max/abs calls are allowed in {source!r}"
            )
        if node.func.id == "abs" and len(node.args) != 1:
            raise GrammarError(f"abs takes exactly one argument in {source!r}")
        if node.func.id in ("min", "max") and len(node.args) < 2:
            raise GrammarError(
                f"{node.func.id} needs at least two arguments in {source!r}"
            )
        for arg in node.args:
            _validate(arg, allowed, source)
    elif isinstance(node, ast.Name):
        if node.id not in allowed:
            raise GrammarError(
                f"unknown variable {node.id!r} in {source!r}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise GrammarError(f"non-numeric literal {node.value!r} in {source!r}")
        try:
            value = float(node.value)
        except OverflowError:  # an integer too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise GrammarError(
                f"numeric literal outside float range in {source!r}"
            )
        node.value = value
    else:
        raise GrammarError(
            f"disallowed syntax ({type(node).__name__}) in {source!r}"
        )


@dataclass(frozen=True)
class CompiledExpression:
    """A validated expression; ``tree`` and ``code`` are derived from ``source``."""

    source: str
    code: object = field(compare=False, repr=False)
    tree: ast.expr = field(compare=False, repr=False)  # validated; literals are floats

    def evaluate(self, env: dict) -> float | np.ndarray:
        """The value at one point, or elementwise when ``env`` holds
        broadcastable float64 arrays (then an array, or a float when the
        expression reads no variable). Array callers choose how numpy
        reports overflow and invalid operations."""
        value = eval(self.code, _SCOPE, env)
        return value if isinstance(value, np.ndarray) else float(value)


def parse_expression(source: str, dim: int = 1) -> CompiledExpression:
    """Parse one component expression against the grammar for ``dim`` axes."""
    if not isinstance(source, str) or not source.strip():
        raise GrammarError(f"expression must be a nonempty string, got {source!r}")
    allowed = set(variable_names(dim))
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise GrammarError(f"unparseable expression {source!r}: {exc.msg}") from exc
    _validate(tree.body, allowed, source)
    code = compile(tree, "<coupled-map>", "eval")
    return CompiledExpression(source=source, code=code, tree=tree.body)
