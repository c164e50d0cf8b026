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

Only the slopes, ranges and constants are exact (``fractions.Fraction``).
Every S and every E is held as a count: a Python int n that stands for
n 2**-1138, rounded up. Integer arithmetic is exact and every division or
shift takes the ceiling, so every count is at least the exact quantity it
stands for. Each formula above rises with every S and E and with a factor
|b|, and falls as the divisor or the margin grows, so, by induction over
the tree, the fold's bound is never below the bound the same formulas give
in exact rationals.

2**-1138 is 2**64 times finer than 2**-1074, so every float is a whole
count, and each rounded operation adds 2**64 counts to E while its
ceilings add at most a few. An affine node reads S as |constant| +
sum |coefficient| |reach|: a sum re-reads only the variables it merges and
a constant that may cancel, and a product or a quotient re-reads every
magnitude from its exact coefficients. Any other node reads S from its
range enclosure. Where the constant b carries an error, E' is computed
from the exact S_a and |b|.

The bound of every component the fold reads exceeds the rational one by a
factor below 1 + 2**-40 (``tests/formula_reference.py`` computes it). An
intermediate past the float range leaves the component unread, as an
overflow would, and so does a divisor whose margin is not positive; since
the counts lie a little above the exact values, a component that only just
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


_P = 1138  # a count n stands for n 2**-1138
_TINY = 1 << 64  # 2**-1074, the absolute error of one rounded operation
_TOP = (2**53 - 1) << 2109  # the largest float, (2**53 - 1) 2**971
_ONE, _NIL = Fraction(1), Fraction(0)


def _count(q: Fraction) -> int:
    """|q| in counts, rounded up."""
    return -((-abs(q.numerator) << _P) // q.denominator)


def _round_off(size: int, error: int) -> int:
    """The bound of one rounded operation whose exact result is at most
    ``size`` in magnitude and whose operands carry ``error``: z is at most
    size + E, and the node's bound is E + u z + 2**-1074."""
    z = size + error
    error += -(-z >> 53) + _TINY
    if max(z, error) > _TOP:
        raise _NotRead  # past the float range
    return error


class _Node(NamedTuple):
    """An affine subexpression read so far: its exact affine form, and
    counts at or above |coef[v]| reach[v] (``terms``), |const| and its
    error."""

    coef: dict
    terms: dict
    const: Fraction
    cmag: int
    error: int


class _Hull(NamedTuple):
    """A subexpression with a call on a variable in it: exact bounds (lo, hi)
    on each partial derivative that may be nonzero, an exact enclosure
    [low, high] of its value on the box, and a count at or above its
    error."""

    slopes: dict
    low: Fraction
    high: Fraction
    error: int


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
    return _Hull(slopes, low, high, _round_off(_count(max(high, -low)), error))


def component_form(
    expr: CompiledExpression, bounds: Mapping[str, tuple[float, float]]
) -> Form | None:
    """What the fold proves about ``expr`` on the box ``bounds`` (variable ->
    (lo, hi)), or None when it reads a product of two factors that both
    read a variable, or when its evaluation, or a bound on it, might
    overflow there; the sampled route then decides it.

    ``error`` is the module's rounding bound, held in whole counts of
    2**-1138 rounded up and so never below the same bound in exact
    rationals; ``low`` and ``high`` widen the exact range enclosure over the
    box by it. It folds the parser's post-order of the tree in one loop, so
    how deeply a formula nests never changes the answer.
    """
    # each axis's largest |value|, in counts, exactly: a float is a whole count
    reach = {v: _count(Fraction(max(abs(lo), abs(hi))))
             for v, (lo, hi) in bounds.items()}

    def term(v: str, k: Fraction) -> int:
        return -((-abs(k.numerator) * reach[v]) // k.denominator)

    def rounded(coef, terms, const, cmag, error) -> _Node:
        return _Node(coef, terms, const, cmag,
                     _round_off(cmag + sum(terms.values()), error))

    def reread(coef, const, error) -> _Node:
        # a product or a quotient reads every magnitude from its coefficients
        terms = {v: term(v, k) for v, k in coef.items()}
        return rounded(coef, terms, const, _count(const), error)

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
                                     a.error + b.error)
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
                cmag = _count(const)
            return rounded(coef, terms, const, cmag, a.error + b.error)
        if _reads(b):  # b is then the factor that reads no variable, or
            a, b = b, a  # the divisor, which never reads one
        if _reads(b):
            raise _NotRead  # both factors read a variable
        kb, eb = b.const, b.error
        if isinstance(op, ast.Mult):
            if not eb:  # b is a float, so b.cmag = |b| 2**1138 exactly
                error = -(-a.error * b.cmag >> _P)
            else:
                error = math.ceil(exact_size(a) * eb + abs(kb) * a.error
                                  + Fraction(a.error * eb, 1 << _P))
            if isinstance(a, _Hull):
                return _rounded_hull(*_scaled(a, kb), error)
            coef = {v: k * kb for v, k in a.coef.items()} if kb else {}
            return reread(coef, a.const * kb if a.cmag else a.const, error)
        # division by a constant, the grammar's only kind: the rounded
        # divisor lies at least |kb| - E_b away from zero
        if not eb:  # b is a float, so b.cmag = |b| 2**1138 exactly
            error = -((-a.error << _P) // b.cmag)
        elif abs(kb) * (1 << _P) <= eb:
            raise _NotRead
        elif _count(ratio := exact_size(a) / abs(kb)) > _TOP:
            raise _NotRead
        else:
            error = math.ceil((a.error + eb * ratio)
                              / (abs(kb) - Fraction(eb, 1 << _P)))
        if isinstance(a, _Hull):
            return _rounded_hull(*_scaled(a, 1 / kb), error)
        coef = {v: k / kb for v, k in a.coef.items()}
        return reread(coef, a.const / kb if a.cmag else a.const, error)

    def exact_size(a) -> Fraction:
        # the largest |exact value| of a on the box, that S stands for
        if isinstance(a, _Hull):
            return max(a.high, -a.low)
        terms = sum(abs(k) * reach[v] for v, k in a.coef.items())
        return abs(a.const) + Fraction(terms, 1 << _P)

    def call(name: str, args: list):
        error = max(a.error for a in args)
        if not any(map(_reads, args)):  # a constant, read exactly
            ks = [a.const for a in args]
            k = abs(ks[0]) if name == "abs" else min(ks) if name == "min" else max(ks)
            return _Node({}, {}, k, _count(k), error)
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
                done.append(_Node({n.id: _ONE}, {n.id: reach[n.id]}, _NIL, 0, 0))
            elif isinstance(n, ast.Constant):
                k = Fraction(n.value)
                done.append(_Node({}, {}, k, _count(k), 0))
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
    except _NotRead:
        return None
    top = hull(done.pop())
    error = Fraction(top.error, 1 << _P)
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
