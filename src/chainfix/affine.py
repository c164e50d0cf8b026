"""Box maps decided from their formula, in one fold over its post-order.

A component built from ``+ - *``, division by constants and the calls
``min``, ``max`` and ``abs`` is read here in one pass over the post-order
that ``chainfix.expressions`` keeps from checking it. For each node the
fold keeps an exact rational interval for each partial derivative, an
exact rational enclosure of its value on the box, and a bound E on how far
float64 evaluation can stray from that value. The intervals follow Clarke's
generalized gradient (F. H. Clarke, *Optimization and Nonsmooth Analysis*,
1983), which the product of a node's intervals contains:

* a variable has slope 1 on its own axis, a literal slope 0;
* ``+`` and ``-`` add the intervals, a constant factor or divisor scales
  them;
* ``min`` and ``max`` take their arguments' hull, since the gradient of
  min(f, g) lies in the convex hull of those of f and g;
* ``abs`` keeps or flips the sign of its argument where the argument's
  range excludes 0, else takes the hull of d and -d.

A product of two factors that both read a variable is not read, and the
sampled route decides its map. A node with no call on a variable is
affine: its coefficients and constant are kept as exact rationals over the
literals' float values, and its intervals are those coefficients as points.
A call whose arguments read no variable is a constant.

So the fold keeps two kinds of node, and only a node with a call on a
variable carries intervals and a range; an affine node's are read off its
coefficients when a call or the end of the fold needs them. One kind that
carries them at every node costs more: building them at each affine node
made the fold 1.9 times slower on the 36 ``box-sampled`` benchmark maps at
seeds 5, 7, 11 and 31 (9.5 against 18 ms for all 36), 2.1 times on a
150-term sum and 1.35 times on 90 nested divisions of x by 3 (best of 7
runs, on one core of a 2-vCPU Xeon VM).

By Lebourg's mean value theorem, F_i(q) - F_i(p) = <z, q - p> for box
points p, q and some z in the product of F_i's intervals (at a point
between them inside the box, and on its faces by continuity). So, with
c_ij = max(|lo|, |hi|) for component i and variable j:

* mixed monotonicity holds when every x-interval has lo >= 0 and every
  y-interval has hi <= 0;
* the contraction ratio is at most 2 max(column sums of c), over the axes
  of nonzero width. For an affine map, F(x, y) = A x - B y + c, that is
  2 max(column sums of |A| and of |B|), the ratio's supremum, attained.

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

In each case the node's bound is E = E_operands + u z + 2**-1074. ``min``,
``max`` and ``abs`` are exact in float64 and move their result no further
than their arguments move, so their E is the largest E among the arguments.

Only the slopes, ranges and constants are exact (``fractions.Fraction``),
and E' where the constant b carries an error, so that |b| need not be a
float: it is computed from the exact S_a and |b| and then rounded up. Other
S and E are evaluated in float64 with directed rounding. Each operation
takes the float nearest its exact result, then steps one float up with
``math.nextafter`` when an exact check shows that the nearest float fell
below the exact result. The check is Knuth's two-sum for a sum and integer
ratios for a product or a quotient. So each step returns the smallest float
at or above its exact result. A divisor is rounded down instead.

This is sound. Each formula above rises with every S and E and with a
factor |b|, and falls as the divisor or the margin grows. So, by induction
over the tree, each float is at least the exact quantity it stands for, and
the float bound is never below the bound the same formulas give in exact
rationals.

Three choices keep the float bound close to the exact one:

* An affine node reads S as |constant| + sum |coefficient| |reach|, and
  where a sum can cancel, a magnitude is read from the exact coefficient
  and rounded up. So is every magnitude of a product or a quotient where a
  float it scales lies below the normal range and so keeps fewer bits;
  else it scales the magnitude its operand carries. Any other node reads S
  from its range enclosure.
* E is held as e + t 2**-1074, with e and t floats. So the 2**-1074 terms
  keep their exact weight instead of being rounded to the subnormal
  spacing. t moves into e once t 2**-1074 is a normal float.
* A part of e that would fall below the normal range is counted in t.

The float bound of every component the fold reads exceeds the rational one
by a factor below 1 + 2**-40 (``tests/formula_reference.py`` computes it).
An intermediate past the float range leaves the component unread, as an
overflow would, and so does a divisor whose margin is not positive; since
the floats lie a little above the exact values, a component that only just
fits the float range may be refused where exact rationals would not refuse
it.

``ExpressionMap.form`` imports this module on first use, so ``fractions``
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


class Form(NamedTuple):
    """What the fold proves about one component on a box: each partial
    derivative lies in ``slopes[v]`` = (lo, hi), for every variable whose
    derivative may be nonzero, and float64 evaluation stays within
    ``error`` of the exact value and inside [``low``, ``high``]."""

    slopes: Mapping[str, tuple[Fraction, Fraction]]
    error: Fraction
    low: Fraction
    high: Fraction


class _NotRead(Exception):
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


def _add(a: float, b: float) -> float:
    """a + b rounded up."""
    s = a + b
    if s > _TOP:
        raise OverflowError
    t = s - a
    slip = (a - (s - t)) + (b - t)  # a + b - s exactly (two-sum)
    return _step_up(s) if slip > 0 else s


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


_ZERO = (0.0, 0.0)
_ONE, _NIL = Fraction(1), Fraction(0)


def _round_off(size: float, error):
    """The bound of one rounded operation whose exact result is at most
    ``size`` in magnitude and whose operands carry ``error``: z is at most
    size + E, and the node's bound is E + u z + 2**-1074."""
    e, t = error
    s = _add(size, e)
    if t:
        _add(s, _mul(t, _TINY))  # z: OverflowError past the float range
        t = _add(t, _mul(_UNIT, t))
    if s * _UNIT >= _SMALL:  # exact: a power of two times a float
        e = _add(e, s * _UNIT)
    else:  # below the normal range: u s = (s 2**1021) 2**-1074, exactly
        t = _add(t, math.ldexp(s, 1021))
    return _fold(e, _add(t, 1.0))


def _value(p) -> Fraction:
    """The bound p as one exact rational."""
    e, t = p
    return Fraction(e) + Fraction(t) / 2**1074 if t else Fraction(e)


def _widest(p, q):
    """The larger of the bounds p and q, read exactly only where the tuple
    order may disagree: reading all exactly slowed the fold by 7%."""
    p, q = max(p, q), min(p, q)  # p has the larger e
    if p[1] >= q[1] or p[0] - q[0] > _SMALL:  # t 2**-1074 < 2**-1022 = _SMALL
        return p
    return max(p, q, key=_value)


def _bound(q: Fraction):
    """The exact rational q >= 0 as a bound, rounded up."""
    t = q * 2**1074
    return _fold(0.0, _magnitude(t)) if t < _NORMAL else (_magnitude(q), 0.0)


class _Node(NamedTuple):
    """An affine subexpression read so far: its exact affine form, and float
    upper bounds on |coef[v]| reach[v] (``terms``), on |const| and on its
    error."""

    coef: dict
    terms: dict
    const: Fraction
    cmag: float
    error: tuple


class _Hull(NamedTuple):
    """A subexpression with a call on a variable in it: exact bounds (lo, hi)
    on each partial derivative that may be nonzero, an exact enclosure
    [low, high] of its value on the box, and a float upper bound on its
    error."""

    slopes: dict
    low: Fraction
    high: Fraction
    error: tuple


def _reads(a) -> bool:
    return isinstance(a, _Hull) or bool(a.coef)


def _negated(a):
    if isinstance(a, _Node):
        return a._replace(coef={v: -k for v, k in a.coef.items()}, const=-a.const)
    return a._replace(slopes={v: (-hi, -lo) for v, (lo, hi) in a.slopes.items()},
                      low=-a.high, high=-a.low)


def _scaled(a: _Hull, q: Fraction) -> tuple:
    """The slopes and the range of ``a`` times q."""
    if not q:
        return {}, _NIL, _NIL
    slopes = {v: (lo * q, hi * q) for v, (lo, hi) in a.slopes.items()}
    low, high = a.low * q, a.high * q
    if q < 0:
        slopes = {v: (hi, lo) for v, (lo, hi) in slopes.items()}
        low, high = high, low
    return slopes, low, high


def _rounded_hull(slopes, low, high, error) -> _Hull:
    # the node of one rounded operation on a subexpression with a call in it
    return _Hull(slopes, low, high, _round_off(_magnitude(max(high, -low)), error))


def component_form(
    expr: CompiledExpression, bounds: Mapping[str, tuple[float, float]]
) -> Form | None:
    """What the fold proves about ``expr`` on the box ``bounds`` (variable ->
    (lo, hi)), or None when it reads a product of two factors that both
    read a variable, or when its evaluation, or a bound on it, might
    overflow there; the sampled route then decides it.

    ``error`` is the module's rounding bound, computed in upward-rounded
    float64 and so never below the same bound in exact rationals; ``low``
    and ``high`` widen the exact range enclosure over the box by it. It
    folds the parser's post-order of the tree in one loop, so how deeply a
    formula nests never changes the answer.
    """
    reach = {v: max(abs(lo), abs(hi)) for v, (lo, hi) in bounds.items()}

    def rounded(coef, terms, const, cmag, error) -> _Node:
        size = cmag
        for w in terms.values():
            size = _add(size, w)
        return _Node(coef, terms, const, cmag, _round_off(size, error))

    def term(v: str, k: Fraction) -> float:
        r = reach[v]
        if not r:
            return 0.0
        try:
            m = _magnitude(k)
        except OverflowError:  # |k| is past the float range, |k| r may not be
            m = 0.0
        return _mul(m, r) if m >= _SMALL else _magnitude(k * Fraction(r))

    def rescaled(a: _Node, coef, const, f: float, op, error) -> _Node:
        # a times or over f, the float of the factor or divisor; each
        # magnitude is read from the exact coefficient where one lies below
        # the normal range
        if min(f, *a.terms.values(), a.cmag or _SMALL) >= _SMALL:
            terms, cmag = {v: op(w, f) for v, w in a.terms.items()}, op(a.cmag, f)
        else:
            terms, cmag = {v: term(v, k) for v, k in coef.items()}, _magnitude(const)
        return rounded(coef, terms, const, cmag, error)

    def span(coef, const) -> tuple[Fraction, Fraction]:
        # the exact range of an affine form over the box
        low = high = const
        for v, k in coef.items():
            lo, hi = bounds[v]
            if k.numerator < 0:
                lo, hi = hi, lo
            if lo:
                low += k * Fraction(lo)
            if hi:
                high += k * Fraction(hi)
        return low, high

    def hull(a) -> _Hull:
        if isinstance(a, _Hull):
            return a
        slopes = {v: (k, k) for v, k in a.coef.items()}
        return _Hull(slopes, *span(a.coef, a.const), a.error)

    def combine(op, a, b):
        if isinstance(op, (ast.Add, ast.Sub)):
            plus = isinstance(op, ast.Add)
            if isinstance(a, _Hull) or isinstance(b, _Hull):
                a, b = hull(a), hull(b)
                if not plus:
                    b = _negated(b)
                slopes = dict(a.slopes)
                for v, (lo, hi) in b.slopes.items():
                    if v in slopes:
                        lo, hi = slopes[v][0] + lo, slopes[v][1] + hi
                    slopes[v] = lo, hi
                return _rounded_hull(slopes, a.low + b.low, a.high + b.high,
                                     _plus(a.error, b.error))
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
            if _reads(b):
                a, b = b, a
            if _reads(b):
                raise _NotRead  # both factors read a variable
            kb = b.const
            if b.error == _ZERO:  # b is a float, so b.cmag = |b| exactly
                error = _scale(a.error, b.cmag)
            else:
                ea, eb = _value(a.error), _value(b.error)
                error = _bound(exact_size(a) * eb + abs(kb) * ea + ea * eb)
            if isinstance(a, _Hull):
                return _rounded_hull(*_scaled(a, kb), error)
            coef = {v: k * kb for v, k in a.coef.items()} if kb else {}
            const = a.const * kb if a.cmag else a.const
            return rescaled(a, coef, const, b.cmag, _mul, error)
        # division by a constant, the grammar's only kind: the rounded
        # divisor lies at least |kb| - E_b away from zero
        kb, eb = b.const, _value(b.error)
        if not eb:  # b is a float, so b.cmag = |b| exactly
            error = _scale(a.error, b.cmag, over=True)
        elif abs(kb) <= eb:
            raise _NotRead
        elif (ratio := exact_size(a) / abs(kb)) > _TOP:
            raise OverflowError
        else:
            error = _bound((_value(a.error) + eb * ratio) / (abs(kb) - eb))
        if isinstance(a, _Hull):
            return _rounded_hull(*_scaled(a, 1 / kb), error)
        coef = {v: k / kb for v, k in a.coef.items()}
        const = a.const / kb if a.cmag else a.const
        return rescaled(a, coef, const, _magnitude(kb, up=False), _div, error)

    def exact_size(a) -> Fraction:
        # the largest |exact value| of a on the box, that S stands for
        if isinstance(a, _Hull):
            return max(a.high, -a.low)
        return abs(a.const) + sum(abs(k) * Fraction(reach[v])
                                  for v, k in a.coef.items())

    def call(name: str, args: list):
        error = args[0].error
        for a in args[1:]:
            error = _widest(error, a.error)
        if not any(map(_reads, args)):  # a constant, read exactly
            ks = [a.const for a in args]
            k = abs(ks[0]) if name == "abs" else min(ks) if name == "min" else max(ks)
            return _Node({}, {}, k, _magnitude(k), error)
        hs = [hull(a) for a in args]
        if name == "abs":
            (a,) = hs
            if a.low >= 0:
                return a
            if a.high <= 0:
                return _negated(a)
            slopes = {v: (-w, w) for v, (lo, hi) in a.slopes.items()
                      for w in [max(-lo, hi)]}
            return _Hull(slopes, _NIL, max(-a.low, a.high), error)
        slopes = {}
        for v in dict.fromkeys(v for a in hs for v in a.slopes):
            ends = [a.slopes.get(v, (_NIL, _NIL)) for a in hs]
            slopes[v] = min(lo for lo, _ in ends), max(hi for _, hi in ends)
        pick = min if name == "min" else max
        low, high = pick(a.low for a in hs), pick(a.high for a in hs)
        return _Hull(slopes, low, high, error)

    done = []  # each finished operand, until its parent takes it
    try:
        for n in expr.postorder:
            if isinstance(n, ast.Name):
                r = reach[n.id]
                done.append(_Node({n.id: _ONE}, {n.id: r}, _NIL, 0.0, _ZERO))
            elif isinstance(n, ast.Constant):
                done.append(_Node({}, {}, Fraction(n.value), abs(n.value), _ZERO))
            elif isinstance(n, ast.UnaryOp):
                if isinstance(n.op, ast.USub):
                    done.append(_negated(done.pop()))
            elif isinstance(n, ast.Call):
                args = done[len(done) - len(n.args):]
                del done[len(done) - len(n.args):]
                done.append(call(n.func.id, args))
            else:
                b = done.pop()
                done.append(combine(n.op, done.pop(), b))
    except (_NotRead, OverflowError):
        return None
    top = hull(done.pop())
    error = _value(top.error)
    return Form(top.slopes, error, top.low - error, top.high + error)


class MapForm(NamedTuple):
    """What the fold proves about F(x, y) on its box: component i's partial
    derivative in x_j lies in the interval ``A[i][j]`` and its derivative
    in y_j in minus the interval ``B[i][j]``, each a pair (lo, hi) of exact
    rationals. For an affine map, F(x, y) = A x - B y + c, every interval
    is the point of its coefficient."""

    A: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    B: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    @property
    def mixed_monotone(self) -> bool:
        """Every interval of A and B lies at or above 0: F rises in x and
        falls in y."""
        return all(lo >= 0 for M in (self.A, self.B) for row in M for lo, _ in row)

    @property
    def exact(self) -> bool:
        """Every interval is a point, so F is affine and ``lambda_hat`` is
        attained."""
        return all(lo == hi for M in (self.A, self.B) for row in M for lo, hi in row)

    def lambda_hat(self, space: BoxSpace) -> float | None:
        """2 max(column sums of max(|lo|, |hi|) over A and over B), over the
        axes of nonzero width, rounded up to a float; None when the box is a
        single point.

        An admissible quadruple has x >= u and y <= v, so by the mean value
        theorem |F_i(x, y) - F_i(u, v)| is at most the sum over j of
        max(|lo|, |hi|) of A[i][j] times x_j - u_j plus that of B[i][j]
        times v_j - y_j. Summed over i, that is at most the largest column
        sum times d(x, u) + d(y, v). For an affine map the bound is the
        supremum of the ratio, attained: all of the step along the column
        with the largest sum gives it, and an axis of nonzero width has
        such steps below every epsilon."""
        axes = zip(space.lower, space.upper)
        cols = [j for j, (lo, hi) in enumerate(axes) if lo < hi]
        if not cols:
            return None
        lam = 2 * max(
            sum(max(-row[j][0], row[j][1]) for row in M)
            for M in (self.A, self.B) for j in cols
        )
        nearest = float(lam)  # correctly rounded, so at most one step below lam
        return math.nextafter(nearest, math.inf) if lam > nearest else nearest


def map_form(cmap: ExpressionMap) -> MapForm | None:
    """What the fold proves about ``cmap`` when it reads every component and
    the float value of each provably lies in the box at every pair of box
    points, clearing each face by the rounding bound; else None."""
    k = cmap.space.dim
    names = variable_names(k)
    axes = list(zip(cmap.space.lower, cmap.space.upper))
    bounds = dict(zip(names, axes * 2))
    zero = (_NIL, _NIL)
    A, B = [], []
    for expr, (lo, hi) in zip(cmap.components, axes):
        form = component_form(expr, bounds)
        if form is None or not lo <= form.low <= form.high <= hi:
            return None
        slopes = [form.slopes.get(v, zero) for v in names]
        A.append(tuple(slopes[:k]))
        B.append(tuple((-hi, -lo) for lo, hi in slopes[k:]))
    return MapForm(tuple(A), tuple(B))
