"""Exact analysis of affine box maps, F(x, y) = A x - B y + c.

A component built from ``+ - *`` and division by constants, with no
``min``, ``max`` or ``abs``, is affine in the box coordinates. Its
coefficients are read here as exact rationals over the literals' float
values, together with a bound on how far float64 evaluation can stray from
them on the box. From A and B alone:

* mixed monotonicity holds when A, B >= 0;
* the contraction ratio's supremum over the whole box is
  2 max(column sums of |A| and of |B|), over the axes of nonzero width.

``ExpressionMap.affine`` imports this module on first use, so ``fractions``
(and the ``decimal`` module it loads) is never imported for a finite
instance, and neither is this module.
"""

from __future__ import annotations

import ast
import math
import sys
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


def affine_form(
    expr: CompiledExpression, bounds: Mapping[str, tuple[float, float]]
) -> AffineForm | None:
    """``expr`` as an affine form on the box ``bounds`` (variable -> (lo, hi)),
    or None when it is not affine (a ``min``/``max``/``abs`` call, or a
    product of two terms that both read a variable), when its evaluation
    might overflow there, or when it nests too deeply to read; the sampled
    route then decides it.

    The rounding bound follows the standard model of float64 arithmetic: an
    operation whose exact result is z returns z(1 + d) + e with
    |d| <= 2**-53 and |e| <= 2**-1074, and unary minus is exact. Each node
    carries a bound on its operands' accumulated error; a product or
    quotient scales it by the other operand's largest magnitude on the box.
    """
    reach = {v: max(abs(Fraction(lo)), abs(Fraction(hi)))
             for v, (lo, hi) in bounds.items()}
    unit, tiny = Fraction(2) ** -53, Fraction(2) ** -1074
    top = Fraction(sys.float_info.max)

    # a node is (coef, const, error): its exact form and its error bound
    def size(coef, const) -> Fraction:
        # the largest |exact value| on the box
        return abs(const) + sum(abs(k) * reach[v] for v, k in coef.items())

    def scaled(coef, q):
        return {v: k * q for v, k in coef.items()} if q else {}

    def rounded(coef, const, error):
        # one rounded operation on operands that carry ``error`` together;
        # its unrounded result is at most size + error in magnitude
        z = size(coef, const) + error
        if z > top:
            raise _NotAffine  # the result may round to an infinity
        return coef, const, error + unit * z + tiny

    def walk(node):
        if isinstance(node, ast.Name):
            return {node.id: Fraction(1)}, Fraction(0), Fraction(0)
        if isinstance(node, ast.Constant):
            return {}, Fraction(node.value), Fraction(0)
        if isinstance(node, ast.UnaryOp):
            coef, const, error = walk(node.operand)
            if isinstance(node.op, ast.USub):
                return scaled(coef, -1), -const, error
            return coef, const, error
        if not isinstance(node, ast.BinOp):
            raise _NotAffine  # a min, max or abs call
        (ca, ka, ea), (cb, kb, eb) = walk(node.left), walk(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(node.op, ast.Add) else -1
            coef = dict(ca)
            for v, k in cb.items():
                coef[v] = coef.get(v, 0) + sign * k
            coef = {v: k for v, k in coef.items() if k}
            return rounded(coef, ka + sign * kb, ea + eb)
        if isinstance(node.op, ast.Mult):
            if cb:
                (ca, ka, ea), (cb, kb, eb) = (cb, kb, eb), (ca, ka, ea)
            if cb:
                raise _NotAffine  # both factors read a variable
            error = size(ca, ka) * eb + abs(kb) * ea + ea * eb
            return rounded(scaled(ca, kb), ka * kb, error)
        # division by a constant, the grammar's only kind: the rounded
        # denominator lies at least |kb| - eb away from zero
        margin = abs(kb) - eb
        if margin <= 0:
            raise _NotAffine
        error = (ea * abs(kb) + size(ca, ka) * eb) / (abs(kb) * margin)
        return rounded(scaled(ca, 1 / kb), ka / kb, error)

    try:
        coef, const, error = walk(expr.tree)
    except (_NotAffine, RecursionError):  # or nested deeper than walk can follow
        return None
    ends = [
        (k * Fraction(bounds[v][0]), k * Fraction(bounds[v][1]))
        for v, k in coef.items()
    ]
    low = const + sum(map(min, ends)) - error
    high = const + sum(map(max, ends)) + error
    return AffineForm(coef, const, error, low, high)


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
