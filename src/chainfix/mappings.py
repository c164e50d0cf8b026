"""Coupled maps F : X x X -> X and their iterates.

The iterate convention is the coupled recursion

    F^0(x, y) = x,    F^(m+1)(x, y) = F(F^m(x, y), F^m(y, x))

so the pair (F^m(x, y), F^m(y, x)) advances by one simultaneous update per
step and a whole trajectory costs O(m) applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from .errors import DomainError, EscapeError, InvalidInstanceError
from .expressions import CompiledExpression, parse_expression
from .spaces import BoxPoint, BoxSpace, FiniteSpace, Point


@dataclass(frozen=True)
class TableMap:
    """F given as an n x n table of point indices: table[x][y] = F(x, y)."""

    space: FiniteSpace
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.space.size
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InvalidInstanceError(f"map table must be {n} x {n}", field="table")
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                    raise InvalidInstanceError(
                        f"map table entry [{i}][{j}] = {v!r} is not a point index",
                        field="table", witness=(i, j),
                    )

    def apply(self, x: Point, y: Point) -> Point:
        self.space.validate_point(x)
        self.space.validate_point(y)
        return self.table[x][y]


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

    def apply(self, x: Point, y: Point) -> Point:
        self.space.validate_point(x)
        self.space.validate_point(y)
        env = _env(x, y)
        out = tuple(c.evaluate(env) for c in self.components)
        if not self.space.contains(out):
            raise EscapeError(
                f"map value {out!r} escapes the box at x={x!r}, y={y!r}"
            )
        return out


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
