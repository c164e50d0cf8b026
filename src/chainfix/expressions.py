"""Tiny arithmetic grammar for serializable box maps.

Accepted syntax: infix ``+ - * /``, unary minus, parentheses, numeric
literals, the calls ``min``/``max``/``abs``, and the coordinate variables
``x``, ``y`` (one dimension) or ``x1..xk``, ``y1..yk``. A denominator must
be a constant, reading no variable and holding no call, and its value may
be neither zero nor NaN, so an expression is total on its whole box.

Parsing reuses Python's ``ast``. One walk, on a stack of its own, enters
each node once and checks it against a strict whitelist; on leaving a node
it records the subtree's float value, or that the subtree reads a name, so
a division is decided from its denominator's record and checking costs time
linear in the formula's length. The walk's post-order is kept for
``chainfix.affine``. The tree is compiled once, so repeated evaluation is a
plain ``eval`` of a code object with no builtins in scope.

A formula may nest at most ``MAX_DEPTH`` expressions along any path of its
tree, counting the leaf: ``x`` has depth 1, ``x + 0`` and ``-x`` depth 2,
and ``x + 0 + ... + 0`` with N additions depth N + 1. The walk refuses a
node past the limit on entering it and holds any other fault until it ends,
so the depth is reported first, and whether a formula is accepted never
depends on how deep the caller's own stack is. The limit leaves room for
compiling an accepted tree from a caller 500 frames deep under the default
recursion limit.

Every numeric literal is rewritten to a float at parse time, and a literal
outside float range is a ``GrammarError``, so evaluation is float64
arithmetic throughout. ``evaluate`` runs the code object on the floats of
one point, where the builtins ``min``, ``max`` and ``abs`` keep the first of
tied arguments. ``ExpressionMap._tabulate`` runs the same code object on
float64 arrays, many points at once, with an elementwise ``min`` and ``max``
of the same tie rule beside it, so the two give bitwise equal values and an
overflow is an infinity rather than an exception.
"""

from __future__ import annotations

import ast
import math
import operator

from .errors import Frozen, GrammarError, clipped_repr

# the builtins keep the first of tied arguments, so min(0.0, -0.0) is 0.0
_FUNCS = {"min": min, "max": max, "abs": abs}
_SCOPE = {"__builtins__": {}, **_FUNCS}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,  # eval's float arithmetic
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = (ast.USub, ast.UAdd)
MAX_DEPTH = 200  # most expressions nested along one path of a formula's tree


def variable_names(dim: int) -> tuple[str, ...]:
    """Coordinate variables for a dim-dimensional box."""
    if dim == 1:
        return ("x", "y")
    xs = tuple(f"x{i}" for i in range(1, dim + 1))
    ys = tuple(f"y{i}" for i in range(1, dim + 1))
    return xs + ys


def _fault(node: ast.expr, allowed: set[str], shown: str) -> str | None:
    """Why ``node`` itself lies outside the grammar, or None; a literal is
    rewritten to a float. ``shown`` names the source in messages."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return None
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in _FUNCS or node.keywords:
            return f"only plain min/max/abs calls are allowed in {shown}"
        if name == "abs" and len(node.args) != 1:
            return f"abs takes exactly one argument in {shown}"
        if name != "abs" and len(node.args) < 2:
            return f"{name} needs at least two arguments in {shown}"
    elif isinstance(node, ast.Name):
        if node.id not in allowed:
            names = ", ".join(sorted(allowed))
            return (f"unknown variable {clipped_repr(node.id)} in {shown}; "
                    f"allowed: {names}")
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            return f"non-numeric literal {clipped_repr(node.value)} in {shown}"
        try:
            value = float(node.value)
        except OverflowError:  # an integer too large for a float
            value = math.inf
        if not math.isfinite(value):
            return f"numeric literal outside float range in {shown}"
        node.value = value
    elif not (isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY)):
        return f"disallowed syntax ({type(node).__name__}) in {shown}"
    return None


def _leave(node: ast.expr, folded: list, shown: str) -> str | None:
    """Replace the records of ``node``'s operands on ``folded`` by its own:
    its float value when it reads no name, else None. Returns why a
    division's denominator is refused, or None."""
    if isinstance(node, ast.Call):
        folded[len(folded) - len(node.args):] = [None]  # the callee counts as a name
    elif isinstance(node, ast.UnaryOp):
        if folded[-1] is not None and isinstance(node.op, ast.USub):
            folded[-1] = -folded[-1]
    else:
        b = folded.pop()
        if isinstance(node.op, ast.Div):
            if b is None:
                return f"division denominator must be a constant in {shown}"
            if b == 0:
                return f"division by zero constant in {shown}"
            if b != b:
                return f"division by NaN constant in {shown}"
        a = folded[-1]
        folded[-1] = None if a is None or b is None else _BINOPS[type(node.op)](a, b)
    return None


def _check(root: ast.expr, allowed: set[str], shown: str, too_deep: GrammarError):
    """Every node of ``root`` but a call's callee, in post-order, once one
    walk on an explicit stack has checked the tree: it raises ``too_deep``
    on entering a node past ``MAX_DEPTH``, and the first other fault in
    left-to-right order once every node is known to be within the limit."""
    post, folded, fault = [], [], None  # folded: a record per finished operand
    todo = [(root, 1)]  # (node, depth); depth 0 marks leaving the node
    while todo:
        node, depth = todo.pop()
        if not depth:
            fault = fault or _leave(node, folded, shown)
            post.append(node)
            continue
        if depth > MAX_DEPTH:
            raise too_deep
        fault = fault or _fault(node, allowed, shown)
        depth += 1
        if fault:  # only the depth is left to check
            children = ast.iter_child_nodes(node)
            todo += [(c, depth) for c in children if isinstance(c, ast.expr)]
        elif isinstance(node, ast.BinOp):
            todo += [(node, 0), (node.right, depth), (node.left, depth)]
        elif isinstance(node, ast.UnaryOp):
            todo += [(node, 0), (node.operand, depth)]
        elif isinstance(node, ast.Call):  # each argument is as deep as the callee
            todo += [(node, 0), *[(arg, depth) for arg in reversed(node.args)]]
        else:  # a name or a literal, left as soon as it is entered
            post.append(node)
            folded.append(node.value if isinstance(node, ast.Constant) else None)
    if fault:
        raise GrammarError(fault)
    return tuple(post)


class CompiledExpression(Frozen):
    """A validated expression; every other field is derived from ``source``,
    which alone is shown, compared and hashed."""

    _fields = ("source",)

    def __init__(self, source: str, code, tree: ast.expr,
                 postorder: tuple[ast.expr, ...]) -> None:
        # tree: validated, its literals floats; postorder: every node of
        # tree but a call's callee, each after its operands
        vars(self).update(source=source, code=code, tree=tree, postorder=postorder)

    def evaluate(self, env: dict) -> float:
        """The value, as a float, at the point whose coordinates ``env``
        holds (a caller's integer coordinate passed through stays a float,
        as in ``ExpressionMap._tabulate``)."""
        return float(eval(self.code, _SCOPE, env))


def parse_expression(source: str, dim: int = 1) -> CompiledExpression:
    """Parse one component expression against the grammar for ``dim`` axes."""
    shown = clipped_repr(source)
    if not isinstance(source, str) or not source.strip():
        raise GrammarError(f"expression must be a nonempty string, got {shown}")
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
    post = _check(tree.body, set(variable_names(dim)), shown, too_deep)
    code = compile(tree, "<coupled-map>", "eval")
    return CompiledExpression(source, code, tree.body, post)
