"""Coupled maps F : X x X -> X.

Their iterates are ``solver.picard_solve``'s: the coupled recursion

    F^0(x, y) = x,    F^(m+1)(x, y) = F(F^m(x, y), F^m(y, x))

so the pair (F^m(x, y), F^m(y, x)) advances by one simultaneous update per
step and a whole trajectory costs O(m) applications. ``apply`` validates
its two points; the solver validates its start points once and steps with
the unchecked ``_apply``, whose images are valid points by construction (a
table holds point indices, and an expression map refuses an image outside
the box with ``EscapeError``).

An expression map also exposes what its formula proves on the box,
``ExpressionMap.form`` (see ``chainfix.affine``): exact bounds on its
partial derivatives, once they and its range prove that its float image
never leaves the box.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Sequence, Union

from ._lazy import numpy as np
from .errors import EscapeError, Frozen, InvalidInstanceError, clipped_repr
from .spaces import BoxPoint, BoxSpace, FiniteSpace, Point, _first, _first_entry

if TYPE_CHECKING:
    from .affine import MapForm
    from .expressions import CompiledExpression

_BLOCK = 1 << 16  # point pairs evaluated at once by ExpressionMap._tabulate


def _first_wins(beats):
    # the builtins' tie rule on arrays: a later argument replaces the current
    # one only where it beats it strictly, so min(0.0, -0.0) is 0.0
    # (np.minimum gives -0.0)
    def pick(first, *rest):
        for v in rest:
            first = np.where(beats(v, first), v, first)
        return first

    return pick


# the scope in which ``_tabulate`` evaluates a formula on float64 arrays
_ARRAYS = {"__builtins__": {}, "min": _first_wins(operator.lt),
           "max": _first_wins(operator.gt), "abs": abs}


class TableMap(Frozen):
    """F given as an n x n table of point indices: T[x, y] = F(x, y); the
    table (rows of Python or numpy integers, or an integer array) is stored
    read-only as intp."""

    _fields = ("space", "T")

    def __init__(self, space: FiniteSpace, T) -> None:
        n = space.size
        rows = T
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidInstanceError(f"map table must be {n} x {n}", field="table")
        T = None
        if (
            isinstance(rows, np.ndarray) and rows.dtype.kind in "iu"
            or set(map(type, chain.from_iterable(rows))) == {int}
        ):
            try:  # a copy; an integer array's value beyond intp wraps below 0
                T = np.array(rows, dtype=np.intp)
            except OverflowError:  # a Python integer beyond intp
                pass
        if T is None or T.ndim != 2 or T.min() < 0 or T.max() >= n:
            # the whole-table test failed: name the first entry that is no
            # index; with none (numpy integer rows), the rows are read as given
            if hit := _first_entry(rows, lambda v: isinstance(v, bool) or not (
                isinstance(v, (int, np.integer)) and 0 <= v < n
            )):
                i, j, v = hit
                raise InvalidInstanceError(
                    f"map table entry [{i}][{j}] = {clipped_repr(v)} "
                    "is not a point index",
                    field="table", witness=(i, j),
                )
            T = np.array(rows, dtype=np.intp)
        T.setflags(write=False)
        vars(self).update(space=space, T=T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TableMap)
            and self.space == other.space
            and np.array_equal(self.T, other.T)
        )

    __hash__ = None  # the arrays have no hash

    def apply(self, x: Point, y: Point) -> Point:
        self.space.validate_point(x)
        self.space.validate_point(y)
        return self._apply(x, y)

    def _apply(self, x: Point, y: Point) -> Point:
        # ``apply`` at two points the caller has already validated
        return int(self.T[x, y])


def _env(x: BoxPoint, y: BoxPoint) -> dict[str, float]:
    if len(x) == 1:
        return {"x": x[0], "y": y[0]}
    env = {}
    for i, v in enumerate(x):
        env[f"x{i + 1}"] = v
    for i, v in enumerate(y):
        env[f"y{i + 1}"] = v
    return env


class ExpressionMap(Frozen):
    """F given componentwise by compiled expressions over box coordinates."""

    _fields = ("space", "components")

    def __init__(self, space: BoxSpace,
                 components: tuple[CompiledExpression, ...]) -> None:
        if len(components) != space.dim:
            raise InvalidInstanceError(
                f"expression map needs {space.dim} component(s), "
                f"got {len(components)}", field="formula",
            )
        vars(self).update(space=space, components=components)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(c.source for c in self.components)

    @cached_property
    def form(self) -> MapForm | None:
        """Exact bounds on every partial derivative, when the formula gives
        them and proves that the float value of every component at every
        pair of box points lies in the box (``chainfix.affine.map_form``);
        else None. Read once, on first use."""
        from .affine import map_form  # exact rationals, for expression maps only

        return map_form(self)

    def apply(self, x: Point, y: Point) -> Point:
        self.space.validate_point(x)
        self.space.validate_point(y)
        return self._apply(x, y)

    def _apply(self, x: Point, y: Point) -> Point:
        # ``apply`` at two points the caller has already validated; the
        # image is still tested against the box
        env = _env(x, y)
        out = tuple(c.evaluate(env) for c in self.components)
        if not self.space.contains(out):
            raise _escape(out, x, y)
        return out

    def _tabulate(self, xs: Sequence[BoxPoint], ys: Sequence[BoxPoint]) -> np.ndarray:
        # F over every pair of points the caller has already validated:
        # ``out[i, j]`` is ``apply(xs[i], ys[j])``, bit for bit. The
        # expressions run on float64 arrays, a block of rows of about 2**16
        # pairs at a time; the first pair in row-major order whose image
        # leaves the box raises the ``EscapeError`` that ``apply`` raises there
        k = self.space.dim
        X = np.array(xs, dtype=float).reshape(len(xs), k)
        Y = np.array(ys, dtype=float).reshape(len(ys), k)
        out = np.empty((len(xs), len(ys), k))
        lo, hi = np.array(self.space.lower), np.array(self.space.upper)
        step = max(1, _BLOCK // max(1, len(ys)))
        for r in range(0, len(xs), step):
            block = out[r:r + step]
            env = _env(X[r:r + step].T[:, :, None], Y.T)  # (rows, 1) by (len(ys),)
            with np.errstate(all="ignore"):  # an overflow is an escape, not a warning
                for i, c in enumerate(self.components):
                    block[..., i] = eval(c.code, _ARRAYS, env)
            if hit := _first(~((lo <= block) & (block <= hi)).all(-1)):
                i, j = hit
                raise _escape(tuple(block[i, j].tolist()), xs[r + i], ys[j])
        return out


def _escape(out: BoxPoint, x: BoxPoint, y: BoxPoint) -> EscapeError:
    return EscapeError(
        f"map value {out!r} escapes the box at x={x!r}, y={y!r}", witness=(x, y)
    )


CoupledMap = Union[TableMap, ExpressionMap]


def expression_map(space: BoxSpace, sources: Union[str, Sequence[str]]) -> ExpressionMap:
    """Compile one expression per output coordinate (a single string for 1-D)."""
    from .expressions import parse_expression  # for expression maps only

    if isinstance(sources, str):
        sources = [sources]
    components = tuple(parse_expression(s, space.dim) for s in sources)
    return ExpressionMap(space, components)
