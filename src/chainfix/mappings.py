"""Coupled maps F : X x X -> X and their iterates.

The iterate convention is the coupled recursion

    F^0(x, y) = x,    F^(m+1)(x, y) = F(F^m(x, y), F^m(y, x))

so the pair (F^m(x, y), F^m(y, x)) advances by one simultaneous update per
step and a whole trajectory costs O(m) applications.

An expression map whose components are all affine also exposes its exact
coefficients, ``ExpressionMap.affine`` (see ``chainfix.affine``), once they
prove that its float image never leaves the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, EscapeError, InvalidInstanceError
from .expressions import CompiledExpression, parse_expression
from .spaces import BoxPoint, BoxSpace, FiniteSpace, Point

if TYPE_CHECKING:
    from .affine import AffineMap

_BLOCK = 1 << 16  # point pairs evaluated at once by ExpressionMap.tabulate


@dataclass(frozen=True, eq=False)
class TableMap:
    """F given as an n x n table of point indices: T[x, y] = F(x, y)."""

    space: FiniteSpace
    T: np.ndarray  # given as int rows or an int array, stored read-only as intp

    def __post_init__(self) -> None:
        n = self.space.size
        rows = self.T
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
            # the whole-table test failed: name the first entry that is no index
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if (
                        isinstance(v, bool)
                        or not isinstance(v, (int, np.integer))
                        or not 0 <= v < n
                    ):
                        raise InvalidInstanceError(
                            f"map table entry [{i}][{j}] = {v!r} is not a point index",
                            field="table", witness=(i, j),
                        )
        T.setflags(write=False)
        object.__setattr__(self, "T", T)

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


@dataclass(frozen=True)
class ExpressionMap:
    """F given componentwise by compiled expressions over box coordinates."""

    space: BoxSpace
    components: tuple[CompiledExpression, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.space.dim:
            raise InvalidInstanceError(
                f"expression map needs {self.space.dim} component(s), "
                f"got {len(self.components)}", field="formula",
            )

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(c.source for c in self.components)

    @cached_property
    def affine(self) -> AffineMap | None:
        """The exact coefficients when every component is affine and its
        float value at every pair of box points provably lies in the box
        (``chainfix.affine.affine_map``); else None. Read once, on first use."""
        from .affine import affine_map  # exact rationals, for expression maps only

        return affine_map(self)

    def apply(self, x: Point, y: Point) -> Point:
        self.space.validate_point(x)
        self.space.validate_point(y)
        env = _env(x, y)
        out = tuple(c.evaluate(env) for c in self.components)
        if not self.space.contains(out):
            raise _escape(out, x, y)
        return out

    def tabulate(self, xs: Sequence[BoxPoint], ys: Sequence[BoxPoint]) -> np.ndarray:
        """F over every pair of points: ``out[i, j]`` is ``apply(xs[i], ys[j])``.

        The expressions run on float64 arrays, a block of rows of about
        2**16 pairs at a time, and give the values ``apply`` gives bit for
        bit. The first pair in row-major order whose image leaves the box
        raises the ``EscapeError`` that ``apply`` raises there.
        """
        for p in (*xs, *ys):
            self.space.validate_point(p)
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
                    block[..., i] = c.evaluate(env)
            outside = ~((lo <= block) & (block <= hi)).all(-1)
            if outside.any():
                i, j = np.unravel_index(np.argmax(outside), outside.shape)
                raise _escape(tuple(block[i, j].tolist()), xs[r + i], ys[j])
        return out


def _escape(out: BoxPoint, x: BoxPoint, y: BoxPoint) -> EscapeError:
    return EscapeError(
        f"map value {out!r} escapes the box at x={x!r}, y={y!r}", witness=(x, y)
    )


CoupledMap = Union[TableMap, ExpressionMap]


def expression_map(space: BoxSpace, sources: Union[str, Sequence[str]]) -> ExpressionMap:
    """Compile one expression per output coordinate (a single string for 1-D)."""
    if isinstance(sources, str):
        sources = [sources]
    components = tuple(parse_expression(s, space.dim) for s in sources)
    return ExpressionMap(space, components)


class IteratePair(NamedTuple):
    m: int
    forward: Point   # F^m(x, y)
    backward: Point  # F^m(y, x)


def iterate_m(cmap: CoupledMap, x: Point, y: Point, m: int) -> IteratePair:
    """Both m-th iterates from the seed pair; m = 0 returns the seeds."""
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"iteration count must be a nonnegative integer, got {m!r}")
    fwd, bwd = x, y
    for _ in range(m):
        fwd, bwd = cmap.apply(fwd, bwd), cmap.apply(bwd, fwd)
    return IteratePair(m, fwd, bwd)
