"""Partially ordered metric spaces: finite tables and axis-aligned boxes.

A point of a finite space is an integer index into its label list; a point of
a box is a tuple of coordinates. Both kinds expose the same query surface
(``distance``, ``leq``, ``contains``) so everything downstream stays generic.

Finite spaces are validated eagerly: every metric axiom (zero diagonal,
symmetry, positivity, triangle inequality) and order axiom (reflexivity,
antisymmetry, transitivity) is checked over all relevant index tuples at
construction time, and the first violation is reported together with its
witnessing indices. Boxes only need consistent bounds.

Equality of box points is exact coordinate equality; callers that want
approximate matching compare distances against their own tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DomainError, InvalidInstanceError

FinitePoint = int
BoxPoint = tuple[float, ...]
Point = Union[FinitePoint, BoxPoint]
Pair = tuple[Point, Point]


def _check_metric(d: Sequence[Sequence[float]]) -> None:
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            raise InvalidInstanceError(
                f"metric identity fails: d[{i}][{i}] = {d[i][i]!r}", witness=(i, i)
            )
    for i in range(n):
        for j in range(n):
            if d[i][j] != d[j][i]:
                raise InvalidInstanceError(
                    f"metric symmetry fails: d[{i}][{j}] = {d[i][j]!r} "
                    f"but d[{j}][{i}] = {d[j][i]!r}",
                    witness=(i, j),
                )
            if i != j and d[i][j] <= 0:
                raise InvalidInstanceError(
                    f"metric positivity fails: d[{i}][{j}] = {d[i][j]!r}",
                    witness=(i, j),
                )
    for i in range(n):
        di = d[i]
        for k in range(n):
            dik = di[k]
            dk = d[k]
            for j in range(n):
                if di[j] > dik + dk[j]:
                    raise InvalidInstanceError(
                        f"triangle inequality fails: d[{i}][{j}] > "
                        f"d[{i}][{k}] + d[{k}][{j}]",
                        witness=(i, j, k),
                    )


def _check_order(leq: Sequence[Sequence[bool]]) -> None:
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise InvalidInstanceError(
                f"order reflexivity fails at point {i}", witness=(i,)
            )
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise InvalidInstanceError(
                    f"order antisymmetry fails: {i} <= {j} and {j} <= {i}",
                    witness=(i, j),
                )
    for i in range(n):
        li = leq[i]
        for j in range(n):
            if not li[j]:
                continue
            lj = leq[j]
            for k in range(n):
                if lj[k] and not li[k]:
                    raise InvalidInstanceError(
                        f"order transitivity fails: {i} <= {j} <= {k} "
                        f"but not {i} <= {k}",
                        witness=(i, j, k),
                    )


@dataclass(frozen=True)
class FiniteSpace:
    """Tabulated metric plus partial order over indexed points."""

    labels: tuple[str, ...]
    dist: tuple[tuple[float, ...], ...]
    order: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise InvalidInstanceError("finite space needs at least one point")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise InvalidInstanceError(f"distance matrix must be {n} x {n}")
        if len(self.order) != n or any(len(row) != n for row in self.order):
            raise InvalidInstanceError(f"order relation must be {n} x {n}")
        _check_metric(self.dist)
        _check_order(self.order)

    @classmethod
    def from_lists(cls, labels, dist, order) -> "FiniteSpace":
        return cls(
            tuple(str(l) for l in labels),
            tuple(tuple(row) for row in dist),
            tuple(tuple(bool(v) for v in row) for row in order),
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(len(self.labels))

    def validate_point(self, p: Point) -> None:
        if not isinstance(p, int) or not 0 <= p < len(self.labels):
            raise DomainError(
                f"invalid finite point {p!r}: expected an index in "
                f"[0, {len(self.labels)})"
            )

    def contains(self, p: Point) -> bool:
        return isinstance(p, int) and 0 <= p < len(self.labels)

    def distance(self, p: Point, q: Point) -> float:
        self.validate_point(p)
        self.validate_point(q)
        return self.dist[p][q]

    def leq(self, p: Point, q: Point) -> bool:
        self.validate_point(p)
        self.validate_point(q)
        return self.order[p][q]


@dataclass(frozen=True)
class BoxSpace:
    """Axis-aligned box in R^k with the L1 metric and componentwise order."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) == 0 or len(self.lower) != len(self.upper):
            raise InvalidInstanceError("box bounds must be nonempty and same length")
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not lo <= hi:
                raise InvalidInstanceError(
                    f"box bounds inverted on axis {i}: {lo!r} > {hi!r}",
                    witness=(i,),
                )

    @property
    def dim(self) -> int:
        return len(self.lower)

    def grid_axes(self, step: float | None) -> list[list[float]]:
        """Per-axis grid lo, lo + step, ..., hi; only lo and hi when step is None."""
        axes = []
        for lo, hi in zip(self.lower, self.upper):
            vals = [lo]
            k = 1
            while step is not None and lo + k * step < hi - 1e-12:
                vals.append(lo + k * step)
                k += 1
            if vals[-1] != hi:
                vals.append(hi)
            axes.append(vals)
        return axes

    def uniform_points(self, count: int, seed: int) -> list[BoxPoint]:
        """``count`` uniform draws from the box, reproducible from ``seed``."""
        rng = random.Random(seed)
        bounds = list(zip(self.lower, self.upper))
        return [
            tuple(lo + rng.random() * (hi - lo) for lo, hi in bounds)
            for _ in range(count)
        ]

    def validate_point(self, p: Point) -> None:
        if not isinstance(p, tuple) or len(p) != self.dim:
            raise DomainError(
                f"invalid box point {p!r}: expected a {self.dim}-tuple of reals"
            )
        for i, (v, lo, hi) in enumerate(zip(p, self.lower, self.upper)):
            if not lo <= v <= hi:
                raise DomainError(
                    f"box point coordinate {i} out of bounds: {v!r} not in "
                    f"[{lo!r}, {hi!r}]"
                )

    def contains(self, p: Point) -> bool:
        if not isinstance(p, tuple) or len(p) != self.dim:
            return False
        return all(lo <= v <= hi for v, lo, hi in zip(p, self.lower, self.upper))

    def distance(self, p: Point, q: Point) -> float:
        self.validate_point(p)
        self.validate_point(q)
        return sum(abs(a - b) for a, b in zip(p, q))

    def leq(self, p: Point, q: Point) -> bool:
        self.validate_point(p)
        self.validate_point(q)
        return all(a <= b for a, b in zip(p, q))


Space = Union[FiniteSpace, BoxSpace]


def product_leq(space: Space, low: Pair, high: Pair) -> bool:
    """Product order on X x X: (u, v) <= (x, y) iff u <= x and y <= v.

    The second component runs against the base order on purpose: forward
    iterates ascend while backward iterates descend.
    """
    u, v = low
    x, y = high
    return space.leq(u, x) and space.leq(y, v)


def product_comparable(space: Space, a: Pair, b: Pair) -> bool:
    return product_leq(space, a, b) or product_leq(space, b, a)


def product_eta(space: Space, a: Pair, b: Pair) -> float:
    """Product metric: eta((x, y), (u, v)) = d(x, u) + d(y, v)."""
    return space.distance(a[0], b[0]) + space.distance(a[1], b[1])


def point_jsonable(p: Point):
    """JSON-ready form of a point: index, scalar (1-D box), or list."""
    if isinstance(p, tuple):
        return p[0] if len(p) == 1 else list(p)
    return p
