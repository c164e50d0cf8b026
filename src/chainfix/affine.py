"""Exact analysis of affine box maps, F(x, y) = A x - B y + c.

A component built from ``+ - *`` and division by constants, with no
``min``, ``max`` or ``abs``, is affine in the box coordinates. Its
coefficients are read here, in one pass over the post-order that
``chainfix.expressions`` keeps from checking it, as exact rationals over
the literals' float values, together with a bound on how far float64
evaluation can stray from them on the box. From A and B alone:

* mixed monotonicity holds when A, B >= 0;
* the contraction ratio's supremum over the whole box is
  2 max(column sums of |A| and of |B|), over the axes of nonzero width.

The rounding bound follows the standard model of float64 arithmetic: an
operation whose exact result is z returns z(1 + d) + e with |d| <= u = 2**-53
and |e| <= 2**-1074, and unary minus is exact. For each node, let S be the
largest |exact value| it takes on the box and E the bound on its accumulated
error. A variable or a literal has E = 0. Then:

* a sum or difference of a and b: z = S + E_a + E_b;
* a product of a by a factor b that reads no variable: z = S + E', where
  E' = S_a E_b + |b| E_a + E_a E_b;
* a quotient of a by a constant b: z = S + E', where
  E' = (E_a + S_a E_b / |b|) / (|b| - E_b). This needs |b| - E_b > 0, since
  the rounded divisor then lies that far from zero.

In each case the node's bound is E = E_operands + u z + 2**-1074.

Only the affine form itself is exact: the coefficients and the constant,
hence A, B and c (``fractions.Fraction``). S, |b| and E are evaluated in
float64 with directed rounding. Each operation takes the float nearest its
exact result, then steps one float up with ``math.nextafter`` when an exact
check shows that the nearest float fell below the exact result. The check
is Knuth's two-sum for a sum and integer ratios for a product or a
quotient. So each step returns the smallest float at or above its exact
result. The divisor |b| and the margin |b| - E_b are rounded down instead.

This is sound. Each formula above rises with every S and E and with a
factor |b|, and falls as the divisor or the margin grows. So, by induction
over the tree, each float is at least the exact quantity it stands for, and
the float bound is never below the bound the same formulas give in exact
rationals.

Three choices keep the float bound close to the exact one:

* Where a sum can cancel, a magnitude is read from the exact coefficient
  and rounded up. A product or a quotient instead scales the magnitude its
  operand carries.
* E is held as e + t 2**-1074, with e and t floats. So the 2**-1074 terms
  keep their exact weight instead of being rounded to the subnormal
  spacing. t moves into e once t 2**-1074 is a normal float.
* A part of e that would fall below the normal range is counted in t.

With every divisor a normal float, the float bound exceeds the rational one
by a factor below 1 + 2**-40 (``tests/test_affine_route.py`` compares them).
An intermediate past the float range leaves the component unread, as an
overflow would, and so does a divisor whose margin is not positive; since
the floats lie a little above the exact values, a component that only just
fits the float range may be refused where exact rationals would not refuse
it. Only where low and high are compared with the box faces is E turned
into one exact rational, e + t 2**-1074.

``ExpressionMap.affine`` imports this module on first use, so ``fractions``
(and the ``decimal`` module it loads) is never imported for a finite
instance, and neither is this module.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .expressions import CompiledExpression, variable_names

if TYPE_CHECKING:
    from .mappings import ExpressionMap
    from .spaces import BoxSpace


class AffineForm(NamedTuple):
    """``sum(coef[v] * v) + const`` in exact rationals over the literals'
    float values. On the box it was read for, float64 evaluation stays
    within ``error`` of that value and inside [``low``, ``high``]."""

    coef: Mapping[str, Fraction]  # variables with a nonzero coefficient
    const: Fraction
    error: Fraction
    low: Fraction
    high: Fraction


class _NotAffine(Exception):
    pass


_TOP = 1.7976931348623157e308  # the largest float
_TINY = 5e-324  # 2**-1074, the absolute error of one rounded operation
_UNIT = 2.0**-53
_SMALL = 2.0**-1022  # the smallest normal float
_NORMAL = 2.0**52  # t 2**-1074 is a normal float from here on
_HUGE = 2.0**970  # t < 2**52 times a factor below this stays finite


def _step_up(v: float) -> float:
    v = math.nextafter(v, math.inf)
    if v > _TOP:
        raise OverflowError
    return v


def _add(a: float, b: float, toward: float = math.inf) -> float:
    """a + b rounded up, or down when ``toward`` is -inf."""
    s = a + b
    if s > _TOP:
        raise OverflowError
    t = s - a
    slip = (a - (s - t)) + (b - t)  # a + b - s exactly (two-sum)
    if slip and (slip > 0) == (toward > 0):
        return _step_up(s) if toward > 0 else math.nextafter(s, toward)
    return s


def _mul(a: float, b: float) -> float:
    """a * b rounded up, for a, b >= 0."""
    p = a * b
    if not p or a == 1.0 or b == 1.0:
        return _TINY if p == 0.0 and a and b else p  # exact, or an underflow
    (n, d), (na, da), (nb, db) = (
        p.as_integer_ratio(), a.as_integer_ratio(), b.as_integer_ratio()
    )  # OverflowError when p is infinite
    return _step_up(p) if n * da * db < na * nb * d else p


def _div(a: float, b: float) -> float:
    """a / b rounded up, for a >= 0 and b > 0."""
    q = a / b
    if not a or b == 1.0:
        return q
    (n, d), (na, da), (nb, db) = (
        q.as_integer_ratio(), a.as_integer_ratio(), b.as_integer_ratio()
    )
    return _step_up(q) if n * da * nb < na * d * db else q


def _magnitude(k: Fraction, up: bool = True) -> float:
    """|k| rounded up, or down."""
    n, d = abs(k.numerator), k.denominator
    f = n / d  # correctly rounded; OverflowError past the float range
    fn, fd = f.as_integer_ratio()
    if up and fn * d < n * fd:
        return _step_up(f)
    if not up and fn * d > n * fd:
        return math.nextafter(f, 0.0)
    return f


# An error bound is a pair (e, t) of floats, standing for e + t 2**-1074,
# with 0 <= t < 2**52.


def _fold(e: float, t: float) -> tuple[float, float]:
    if t >= _NORMAL:  # t 2**-1074 is a normal float, so ldexp is exact
        return _add(e, math.ldexp(t, -1074)), 0.0
    return e, t


def _plus(p, q):
    if not (q[0] or q[1]):
        return p
    if not (p[0] or p[1]):
        return q
    return _fold(_add(p[0], q[0]), _add(p[1], q[1]))


def _scale(p, f: float, over: bool = False):
    """The bound p times f >= 0, or divided by f > 0 when ``over``."""
    e, t = p
    if not (e or t):
        return p
    op, sign = (_div, -1) if over else (_mul, 1)
    if (f < 1 / _HUGE) if over else (f > _HUGE):
        # t f 2**-1074 (or t / f 2**-1074) is a normal float: put it in e
        return _add(op(e, f), op(t, math.ldexp(f, -1074 * sign))), 0.0
    t = op(t, f)
    if e and (e / f if over else e * f) < _SMALL:
        # below the normal range: count it in t, scaling whichever of e
        # and f keeps the exact ldexp finite
        if e < 2.0**-50:
            return _fold(0.0, _add(t, op(math.ldexp(e, 1074), f)))
        return _fold(0.0, _add(t, op(e, math.ldexp(f, 1074 * sign))))
    return _fold(op(e, f), t)


def _times(p, q):
    """The bound p times the bound q."""
    (ep, tp), (eq, tq) = p, q
    if not ((ep or tp) and (eq or tq)):
        return _ZERO
    # ep (eq + tq 2**-1074) + tp eq 2**-1074 + (tp tq 2**-1074) 2**-1074
    tail = _scale((0.0, tp), eq)
    return _plus(_plus(_scale(q, ep), tail), (0.0, _mul(_mul(tp, tq), _TINY)))


_ZERO = (0.0, 0.0)
_ONE, _NIL = Fraction(1), Fraction(0)


class _Node(NamedTuple):
    """A subexpression read so far: its exact affine form, and float upper
    bounds on |coef[v]| reach[v] (``terms``), on |const|, on their sum
    (``size``, the largest |exact value| on the box) and on its error."""

    coef: dict
    terms: dict
    const: Fraction
    cmag: float
    size: float
    error: tuple


def affine_form(
    expr: CompiledExpression, bounds: Mapping[str, tuple[float, float]]
) -> AffineForm | None:
    """``expr`` as an affine form on the box ``bounds`` (variable -> (lo, hi)),
    or None when it is not affine (a ``min``/``max``/``abs`` call, or a
    product of two terms that both read a variable), or when its evaluation,
    or a bound on it, might overflow there; the sampled route then decides
    it.

    ``error`` is the module's rounding bound, computed in upward-rounded
    float64 and so never below the same bound in exact rationals; ``low``
    and ``high`` widen the exact range over the box by it. It folds the
    parser's post-order of the tree in one loop, so how deeply a formula
    nests never changes the answer.
    """
    reach = {v: max(abs(lo), abs(hi)) for v, (lo, hi) in bounds.items()}

    def rounded(coef, terms, const, cmag, error) -> _Node:
        # the node of one rounded operation with this exact result, whose
        # operands carry ``error``: z is at most size + E, and the node's
        # bound is E + u z + 2**-1074
        size = cmag
        for w in terms.values():
            size = _add(size, w)
        e, t = error
        s = _add(size, e)
        if t:
            _add(s, _mul(t, _TINY))  # z: OverflowError past the float range
            t = _add(t, _mul(_UNIT, t))
        if s * _UNIT >= _SMALL:  # exact: a power of two times a float
            e = _add(e, s * _UNIT)
        else:  # below the normal range: u s = (s 2**1021) 2**-1074, exactly
            t = _add(t, math.ldexp(s, 1021))
        return _Node(coef, terms, const, cmag, size, _fold(e, _add(t, 1.0)))

    def term(v: str, k: Fraction) -> float:
        r = reach[v]
        if not r:
            return 0.0
        try:
            return _mul(_magnitude(k), r)
        except OverflowError:  # |k| is past the float range, |k| r may not be
            return _magnitude(k * Fraction(r))

    def combine(op, a: _Node, b: _Node) -> _Node:
        if isinstance(op, (ast.Add, ast.Sub)):
            plus = isinstance(op, ast.Add)
            coef, terms = dict(a.coef), dict(a.terms)
            for v, k in b.coef.items():
                if v not in coef:
                    coef[v], terms[v] = k if plus else -k, b.terms[v]
                elif k := coef[v] + k if plus else coef[v] - k:
                    coef[v], terms[v] = k, term(v, k)  # read its magnitude anew
                else:
                    del coef[v], terms[v]
            if not b.cmag:  # cmag is 0 only for a zero constant
                const, cmag = a.const, a.cmag
            elif not a.cmag:
                const, cmag = b.const if plus else -b.const, b.cmag
            else:
                const = a.const + b.const if plus else a.const - b.const
                cmag = _magnitude(const)
            return rounded(coef, terms, const, cmag, _plus(a.error, b.error))
        if isinstance(op, ast.Mult):
            if b.coef:
                a, b = b, a
            if b.coef:
                raise _NotAffine  # both factors read a variable
            kb, m = b.const, b.cmag
            coef = {v: k * kb for v, k in a.coef.items()} if kb else {}
            terms = {v: _mul(w, m) for v, w in a.terms.items()} if kb else {}
            error = _plus(_plus(_scale(b.error, a.size), _scale(a.error, m)),
                          _times(a.error, b.error))
            const = a.const * kb if a.cmag else a.const
            return rounded(coef, terms, const, _mul(a.cmag, m), error)
        # division by a constant, the grammar's only kind: the rounded
        # divisor lies at least |kb| - E_b away from zero
        kb, (eb, tb) = b.const, b.error
        floor = _magnitude(kb, up=False)
        margin = _add(_add(floor, -eb, -math.inf), -_mul(tb, _TINY), -math.inf)
        if margin <= 0:
            raise _NotAffine
        terms = {v: _div(w, floor) for v, w in a.terms.items()}
        spread = _scale(b.error, _div(a.size, floor))
        error = _scale(_plus(a.error, spread), margin, over=True)
        coef = {v: k / kb for v, k in a.coef.items()}
        const = a.const / kb if a.cmag else a.const
        return rounded(coef, terms, const, _div(a.cmag, floor), error)

    if any(isinstance(n, ast.Call) for n in expr.postorder):
        return None  # a min, max or abs call
    done = []  # each finished operand, until its parent takes it
    try:
        for n in expr.postorder:
            if isinstance(n, ast.Name):
                r = reach[n.id]
                done.append(_Node({n.id: _ONE}, {n.id: r}, _NIL, 0.0, r, _ZERO))
            elif isinstance(n, ast.Constant):
                m = abs(n.value)
                done.append(_Node({}, {}, Fraction(n.value), m, m, _ZERO))
            elif isinstance(n, ast.UnaryOp):
                if isinstance(n.op, ast.USub):
                    a = done.pop()
                    done.append(a._replace(coef={v: -k for v, k in a.coef.items()},
                                           const=-a.const))
            else:
                b = done.pop()
                done.append(combine(n.op, done.pop(), b))
    except (_NotAffine, OverflowError):
        return None
    top = done.pop()
    e, t = top.error
    error = Fraction(e) + Fraction(t) / 2**1074 if t else Fraction(e)
    low = high = top.const
    for v, k in top.coef.items():
        lo, hi = bounds[v]
        if k.numerator < 0:
            lo, hi = hi, lo
        if lo:
            low += k * Fraction(lo)
        if hi:
            high += k * Fraction(hi)
    low, high = low - error, high + error
    return AffineForm(top.coef, top.const, error, low, high)


class AffineMap(NamedTuple):
    """F(x, y) = A x - B y + c in exact rationals: component i reads x_j with
    coefficient ``A[i][j]`` and y_j with coefficient ``-B[i][j]``."""

    A: tuple[tuple[Fraction, ...], ...]
    B: tuple[tuple[Fraction, ...], ...]
    c: tuple[Fraction, ...]

    @property
    def mixed_monotone(self) -> bool:
        """A, B >= 0: F rises in x and falls in y."""
        return all(k >= 0 for M in (self.A, self.B) for row in M for k in row)

    def lambda_hat(self, space: BoxSpace) -> float | None:
        """2 max(column sums of |A| and of |B|) over the axes of nonzero
        width, rounded up to a float; None when the box is a single point.

        An admissible quadruple has x >= u and y <= v, so F(x, y) - F(u, v)
        = A (x - u) + B (v - y) with both steps nonnegative. Its L1 norm is
        convex in the steps, so over steps of a fixed total s it peaks when
        all of s goes along one axis j, giving s times column j's sum of |A|
        or of |B|. Any axis of nonzero width has such steps below every
        epsilon, so this is the supremum of the ratio, attained."""
        axes = zip(space.lower, space.upper)
        cols = [j for j, (lo, hi) in enumerate(axes) if lo < hi]
        if not cols:
            return None
        lam = 2 * max(
            sum(abs(row[j]) for row in M) for M in (self.A, self.B) for j in cols
        )
        nearest = float(lam)  # correctly rounded, so at most one step below lam
        return math.nextafter(nearest, math.inf) if lam > nearest else nearest


def affine_map(cmap: ExpressionMap) -> AffineMap | None:
    """The coefficients of ``cmap`` when every component is affine and its
    float value at every pair of box points provably lies in the box,
    clearing each face by the rounding bound of ``affine_form``; else None."""
    k = cmap.space.dim
    names = variable_names(k)
    axes = list(zip(cmap.space.lower, cmap.space.upper))
    bounds = dict(zip(names, axes * 2))
    A, B, c = [], [], []
    for expr, (lo, hi) in zip(cmap.components, axes):
        form = affine_form(expr, bounds)
        if form is None or not lo <= form.low <= form.high <= hi:
            return None
        A.append(tuple(form.coef.get(v, 0) for v in names[:k]))
        B.append(tuple(-form.coef.get(v, 0) for v in names[k:]))
        c.append(form.const)
    return AffineMap(tuple(A), tuple(B), tuple(c))
