"""The exact-rational reference of ``chainfix.affine.component_form``, and
the helpers that the tests of the fold share.

``reference_form`` follows the fold's rules node by node, over the whole
grammar, with every quantity in exact rationals: an operation whose exact
result is z returns z(1 + d) + e with |d| <= 2**-53 and |e| <= 2**-1074, and
each node carries the largest |exact value| S it takes on the box and a
bound E on its operands' accumulated error. The fold holds S and E in
whole counts of 2**-1138, each rounded up, so its bound may only be the
larger, and it must agree with the reference on the slopes and the exact
ranges.
"""

import ast
import sys
from fractions import Fraction
from typing import NamedTuple

from hypothesis import strategies as st

from chainfix.affine import Form
from chainfix.expressions import variable_names
from chainfix.hypotheses import sample_points
from chainfix.mappings import expression_map

UNIT = Fraction(2) ** -53  # float64 unit roundoff
TINY = Fraction(2) ** -1074  # the absolute error of one rounded operation
TOP = Fraction(sys.float_info.max)
NIL = Fraction(0)


class _Refused(Exception):
    pass


class _Node(NamedTuple):
    """A subexpression: ``coef`` and ``const`` when it has no call on a
    variable (else None), its slopes and its exact range on the box, S
    (``size``) and E (``error``)."""

    coef: dict | None
    const: Fraction | None
    slopes: dict
    low: Fraction
    high: Fraction
    size: Fraction
    error: Fraction


def reference_form(expr, bounds, seen=None) -> Form | None:
    """``component_form(expr, bounds)`` in exact rationals, or None where a
    product of two factors reads a variable, a divisor's margin |b| - E_b
    is not positive, or a quantity the fold bounds (an S, a rounded result
    z = S + E', an E, or S_a / |b| for a quotient) lies past the float
    range. When ``seen`` is a dict, each such quantity is appended to
    ``seen["z"]``."""
    seen = {} if seen is None else seen
    reach = {v: max(abs(Fraction(lo)), abs(Fraction(hi)))
             for v, (lo, hi) in bounds.items()}

    def note(q: Fraction) -> Fraction:
        seen.setdefault("z", []).append(q)
        if q > TOP:
            raise _Refused
        return q

    def affine(coef, const, error=NIL) -> _Node:
        coef = {v: k for v, k in coef.items() if k}
        low = high = const
        for v, k in coef.items():
            ends = [k * Fraction(end) for end in bounds[v]]
            low, high = low + min(ends), high + max(ends)
        size = abs(const) + sum(abs(k) * reach[v] for v, k in coef.items())
        slopes = {v: (k, k) for v, k in coef.items()}
        return _Node(coef, const, slopes, low, high, note(size), error)

    def called(slopes, low, high, size, error=NIL) -> _Node:
        return _Node(None, None, slopes, low, high, note(size), error)

    def reads(a: _Node) -> bool:
        return a.coef is None or bool(a.coef)

    def negated(a: _Node) -> _Node:
        if a.coef is not None:
            return affine({v: -k for v, k in a.coef.items()}, -a.const, a.error)
        return a._replace(slopes={v: (-hi, -lo) for v, (lo, hi) in a.slopes.items()},
                          low=-a.high, high=-a.low)

    def scaled(a: _Node, q: Fraction) -> _Node:
        if a.coef is not None:
            return affine({v: k * q for v, k in a.coef.items()}, a.const * q)
        if not q:
            return called({}, NIL, NIL, NIL)
        slopes = {v: (min(lo * q, hi * q), max(lo * q, hi * q))
                  for v, (lo, hi) in a.slopes.items()}
        low, high = sorted((a.low * q, a.high * q))
        return called(slopes, low, high, max(high, -low))

    def rounded(a: _Node, error: Fraction) -> _Node:
        z = note(a.size + error)
        return a._replace(error=note(error + UNIT * z + TINY))

    def call(name: str, args: list) -> _Node:
        # min, max and abs are exact in float64 and move their result no
        # further than their arguments move
        error = max(a.error for a in args)
        if not any(map(reads, args)):
            ks = [a.const for a in args]
            k = abs(ks[0]) if name == "abs" else min(ks) if name == "min" else max(ks)
            return affine({}, k, error)
        if name == "abs":
            (a,) = args
            if a.low < 0 and a.high <= 0:
                a = negated(a)
            slopes, low, high = a.slopes, a.low, a.high
            if low < 0:  # the hull of d and -d
                slopes = {v: (-w, w) for v, (lo, hi) in slopes.items()
                          for w in [max(-lo, hi)]}
                low, high = NIL, max(-low, high)
            return called(slopes, low, high, high, error)
        slopes = {}
        for v in dict.fromkeys(v for a in args for v in a.slopes):
            ends = [a.slopes.get(v, (NIL, NIL)) for a in args]
            slopes[v] = min(lo for lo, _ in ends), max(hi for _, hi in ends)
        pick = min if name == "min" else max
        low, high = pick(a.low for a in args), pick(a.high for a in args)
        return called(slopes, low, high, max(high, -low), error)

    def walk(node) -> _Node:
        if isinstance(node, ast.Name):
            return affine({node.id: Fraction(1)}, NIL)
        if isinstance(node, ast.Constant):
            return affine({}, Fraction(node.value))
        if isinstance(node, ast.UnaryOp):
            a = walk(node.operand)
            return negated(a) if isinstance(node.op, ast.USub) else a
        if isinstance(node, ast.Call):
            return call(node.func.id, [walk(a) for a in node.args])
        a, b = walk(node.left), walk(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if isinstance(node.op, ast.Sub):
                b = negated(b)
            if a.coef is not None and b.coef is not None:
                coef = dict(a.coef)
                for v, k in b.coef.items():
                    coef[v] = coef.get(v, NIL) + k
                return rounded(affine(coef, a.const + b.const), a.error + b.error)
            slopes = dict(a.slopes)
            for v, (lo, hi) in b.slopes.items():
                lo0, hi0 = slopes.get(v, (NIL, NIL))
                slopes[v] = lo0 + lo, hi0 + hi
            low, high = a.low + b.low, a.high + b.high
            return rounded(called(slopes, low, high, max(high, -low)),
                           a.error + b.error)
        if isinstance(node.op, ast.Mult):
            if reads(b):
                a, b = b, a
            if reads(b):
                raise _Refused  # both factors read a variable
            m = abs(b.const)
            error = a.size * b.error + m * a.error + a.error * b.error
            return rounded(scaled(a, b.const), error)
        # division by a constant: the rounded divisor lies at least
        # |b| - E_b away from zero
        m = abs(b.const)
        margin = m - b.error
        if margin <= 0:
            raise _Refused
        error = (a.error + b.error * note(a.size / m)) / margin
        return rounded(scaled(a, 1 / b.const), error)

    try:
        top = walk(expr.tree)
    except _Refused:
        return None
    return Form(top.slopes, top.error, top.low - top.error, top.high + top.error)


def exact_range(form: Form) -> tuple[Fraction, Fraction]:
    """The exact range enclosure that ``form`` widens by its error."""
    return form.low + form.error, form.high - form.error


def box_bounds(space) -> dict:
    """Each variable of ``space``'s map -> its axis (lo, hi)."""
    axes = list(zip(space.lower, space.upper))
    return dict(zip(variable_names(space.dim), axes * 2))


def rounding_allowance(cmap, grid_step, lam: float) -> Fraction:
    """How far above ``lam`` the sampled scan's ratio can round.

    The scan takes r = 2 d(F(x,y), F(u,v)) / (d(x,u) + d(y,v)) on computed
    images. Each computed component i lies within e_i (the rational bound
    of ``reference_form``) of its exact value, so the image distance grows
    by at most 2 sum(e_i) before rounding, and the exact ratio, at most
    ``lam``, by at most 4 sum(e_i) / s, where s >= g, the smallest positive
    distance between two sample points. The image distance is k rounded
    subtractions and k - 1 rounded additions of nonnegative terms, the
    denominator 2k + 1 more, and the quotient one: each moves its value by
    a factor within [1 - u, 1 + u]. So r <= (lam + 4 sum(e_i) / g) rho with
    rho = (1 + u)^(2k) / (1 - u)^(2k + 1).
    """
    space = cmap.space
    k = space.dim
    bounds = box_bounds(space)
    error = sum(reference_form(c, bounds).error for c in cmap.components)
    pts = sample_points(space, grid_step)
    gap = min(
        d for p in pts for q in pts
        if (d := sum(abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q))) > 0
    )
    rho = (1 + UNIT) ** (2 * k) / (1 - UNIT) ** (2 * k + 1)
    return (Fraction(lam) + 4 * error / gap) * rho - Fraction(lam)


def unread(cmap):
    """``cmap`` with the same values, as products ``(f) * (1 + x*x*0)``.
    The fold does not read x*x, a product of two factors that read a
    variable, so the sampled scan decides the map."""
    x = variable_names(cmap.space.dim)[0]
    return expression_map(cmap.space,
                          [f"({s}) * (1 + {x}*{x}*0)" for s in cmap.sources])


# literals: dyadic, non-dyadic, zero, far below 1 and near the top of the
# float range
LITERALS = ("0", "0.5", "2", "8", "0.1", "0.3", "3", "0.7", "1e-3", "1e-200",
            "1e300", "1e308", "1.7976931348623157e308")
# axes at the ends of the float range: subnormal to tiny, and all but its top
EXTREME_AXES = ((5e-324, 1e-300), (-1e300, 1e300))


@st.composite
def formula_sources(draw, names, depth=3):
    """A formula of the whole grammar that nests at most depth + 1 levels:
    sums, differences, unary minus, products with a factor that reads no
    variable, division by a constant subexpression, and min, max and abs of
    such formulas or of constants."""
    def call(arg):
        name = draw(st.sampled_from(["min", "max", "abs"]))
        count = 1 if name == "abs" else draw(st.integers(2, 3))
        return f"{name}({', '.join(arg() for _ in range(count))})"

    def constant(d, calls):
        # a divisor holds no call
        kinds = ["leaf", "op", "call"] if calls else ["leaf", "op"]
        kind = draw(st.sampled_from(kinds)) if d else "leaf"
        if kind == "leaf":
            return draw(st.sampled_from(LITERALS))
        if kind == "call":
            return call(lambda: constant(d - 1, calls))
        a, b = constant(d - 1, calls), constant(d - 1, calls)
        return f"({a} {draw(st.sampled_from('+-*/'))} {b})"

    def formula(d):
        if d == 0:
            return draw(st.sampled_from(list(names) + list(LITERALS)))
        kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "leaf", "call"]))
        if kind == "leaf":
            return formula(0)
        if kind == "neg":
            return f"-({formula(d - 1)})"
        if kind == "call":
            return call(lambda: formula(d - 1))
        if kind in "+-":
            return f"({formula(d - 1)} {kind} {formula(d - 1)})"
        if kind == "/":
            return f"({formula(d - 1)}) / {constant(d - 1, calls=False)}"
        pair = (constant(d - 1, calls=True), formula(d - 1))
        return "({}) * ({})".format(*(pair if draw(st.booleans()) else pair[::-1]))

    return formula(depth)
