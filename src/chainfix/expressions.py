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

A formula may nest at most ``MAX_DEPTH`` expressions along any path of its
tree, counting the leaf: ``x`` has depth 1, ``x + 0`` and ``-x`` depth 2,
and ``x + 0 + ... + 0`` with N additions depth N + 1. The rule is checked
by one walk that keeps its own list of nodes, a level at a time, before
anything recurses over the tree, so whether a formula is accepted never
depends on how deep the caller's own stack is. The limit leaves room for
validating and compiling an accepted tree from a caller 500 frames deep
under the default recursion limit. The text of an expression holds each
child's text and at least one character more (an operator, a parenthesis,
a comma or a name), so a tree is no deeper than its source is long, and a
source of at most ``MAX_DEPTH`` characters is accepted without the walk.

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

from .errors import GrammarError, clipped_repr


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
MAX_DEPTH = 200  # most expressions nested along one path of a formula's tree


def variable_names(dim: int) -> tuple[str, ...]:
    """Coordinate variables for a dim-dimensional box."""
    if dim == 1:
        return ("x", "y")
    xs = tuple(f"x{i}" for i in range(1, dim + 1))
    ys = tuple(f"y{i}" for i in range(1, dim + 1))
    return xs + ys


def _too_deep(root: ast.expr) -> bool:
    """Whether some path of the tree holds more than MAX_DEPTH expressions;
    walked one level at a time, so it never recurses."""
    level = [root]
    for _ in range(MAX_DEPTH):
        level = [
            child
            for node in level
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        if not level:
            return False
    return True


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _const_value(node: ast.expr) -> float:
    expr = ast.fix_missing_locations(ast.Expression(body=node))
    return eval(compile(expr, "<denominator>", "eval"), {"__builtins__": {}}, {})


def _validate(node: ast.expr, allowed: set[str], shown: str) -> None:
    # rewrites each literal to a float as it goes; ``shown`` names the
    # source in messages
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate(node.left, allowed, shown)
        _validate(node.right, allowed, shown)
        if isinstance(node.op, ast.Div):
            if _names(node.right):
                raise GrammarError(
                    f"division denominator must be a constant in {shown}"
                )
            if _const_value(node.right) == 0:
                raise GrammarError(f"division by zero constant in {shown}")
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _validate(node.operand, allowed, shown)
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in _FUNCS
            or node.keywords
        ):
            raise GrammarError(
                f"only plain min/max/abs calls are allowed in {shown}"
            )
        if node.func.id == "abs" and len(node.args) != 1:
            raise GrammarError(f"abs takes exactly one argument in {shown}")
        if node.func.id in ("min", "max") and len(node.args) < 2:
            raise GrammarError(
                f"{node.func.id} needs at least two arguments in {shown}"
            )
        for arg in node.args:
            _validate(arg, allowed, shown)
    elif isinstance(node, ast.Name):
        if node.id not in allowed:
            raise GrammarError(
                f"unknown variable {node.id!r} in {shown}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise GrammarError(f"non-numeric literal {node.value!r} in {shown}")
        try:
            value = float(node.value)
        except OverflowError:  # an integer too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise GrammarError(
                f"numeric literal outside float range in {shown}"
            )
        node.value = value
    else:
        raise GrammarError(
            f"disallowed syntax ({type(node).__name__}) in {shown}"
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
    shown = clipped_repr(source)
    if not isinstance(source, str) or not source.strip():
        raise GrammarError(f"expression must be a nonempty string, got {shown}")
    allowed = set(variable_names(dim))
    too_deep = GrammarError(
        f"expression of {len(source)} characters nests too deeply "
        f"(the limit is {MAX_DEPTH} levels)"
    )
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise GrammarError(f"unparseable expression {shown}: {exc.msg}") from exc
    except (RecursionError, MemoryError):
        # a tree far past the limit: CPython's parser stops on its own
        # stack, and reports its depth limit as a MemoryError
        raise too_deep from None
    if len(source) > MAX_DEPTH and _too_deep(tree.body):
        raise too_deep
    _validate(tree.body, allowed, shown)
    code = compile(tree, "<coupled-map>", "eval")
    return CompiledExpression(source=source, code=code, tree=tree.body)
