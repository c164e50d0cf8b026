"""Partially ordered metric spaces: finite tables and axis-aligned boxes.

A point of a finite space is an integer index into its label list; a point of
a box is a tuple of coordinates. Both kinds expose the same query surface
(``distance``, ``leq``, ``contains``) so everything downstream stays generic.

Finite spaces are validated eagerly: every metric axiom (zero diagonal,
symmetry, positivity, triangle inequality) and order axiom (reflexivity,
antisymmetry, transitivity) is checked at construction time as a boolean
mask over the whole matrix, and the first violation in row-major order of
its index tuple is reported with its witnessing indices. Distances are
compared as float64, so each must be a finite float or an integer within
2**52; the entries are tested as one array, and only a rejected matrix is
scanned entry by entry to name its first bad entry. The arrays the checks
build are stored read-only, ``D`` (float64) and ``L`` (``L[p, q]`` iff
p <= q), and every whole-matrix computation reads them without a copy;
``dist`` keeps the distances as given, so an integer stays an integer.
Order entries must be booleans, so a truthy string such as "False" is
rejected rather than read as true.
Boxes only need finite, consistent bounds, which they store as floats.
Each error names the document key it rejects in ``field``.

Equality of box points is exact coordinate equality; callers that want
approximate matching compare distances against their own tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, InvalidInstanceError, SamplingError

FinitePoint = int
BoxPoint = tuple[float, ...]
Point = Union[FinitePoint, BoxPoint]
Pair = tuple[Point, Point]

GRID_CAP = 20000  # most points a box grid may hold


# Two integers up to 2**52 add exactly in float64, so the float64 triangle
# check decides what it would on the caller's own integers.
_MAX_EXACT_INT = 2**52
_BLOCK = 1 << 18  # cells per slab of a triple sweep: bounded memory at any n


def is_finite_number(value) -> bool:
    """An int or float (not a bool) that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of ``mask`` in row-major order."""
    k = int(mask.argmax())  # stops at the first True
    return tuple(map(int, np.unravel_index(k, mask.shape))) if mask.flat[k] else None


def _first_in_slabs(slab, n: int) -> tuple[int, ...] | None:
    """``_first`` of the n x n x n mask that ``slab(r)`` builds for the
    first-axis rows ``r``, a slice of them at a time."""
    step = max(1, _BLOCK // (n * n))
    for lo in range(0, n, step):
        if hit := _first(slab(slice(lo, lo + step))):
            return (hit[0] + lo, *hit[1:])
    return None


def _check_metric(d: Sequence[Sequence[float]]) -> np.ndarray:
    """The distances as float64, once every metric axiom holds on them."""
    types = set(map(type, chain.from_iterable(d)))
    D = None
    if types <= {int, float}:
        try:
            D = np.array(d, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
    if (
        D is None
        or not np.isfinite(D).all()
        or int in types and (np.abs(D) > _MAX_EXACT_INT).any()
    ):
        # the whole-matrix test failed: name the first inexact entry
        for i, row in enumerate(d):
            for j, v in enumerate(row):
                if not (isinstance(v, float) and math.isfinite(v)) and not (
                    is_finite_number(v) and abs(v) <= _MAX_EXACT_INT
                ):
                    raise InvalidInstanceError(
                        f"distance d[{i}][{j}] = {v!r} is not a finite float or "
                        f"an integer within 2**52",
                        field="distance_matrix", witness=(i, j),
                    )
        D = np.array(d, dtype=float)
    if hit := _first(np.diagonal(D) != 0):
        i = hit[0]
        raise InvalidInstanceError(
            f"metric identity fails: d[{i}][{i}] = {d[i][i]!r}",
            field="distance_matrix", witness=(i, i),
        )
    if hit := _first((D != D.T) | (~np.eye(len(D), dtype=bool) & (D <= 0))):
        i, j = hit
        if D[i, j] != D[j, i]:
            raise InvalidInstanceError(
                f"metric symmetry fails: d[{i}][{j}] = {d[i][j]!r} "
                f"but d[{j}][{i}] = {d[j][i]!r}",
                field="distance_matrix", witness=(i, j),
            )
        raise InvalidInstanceError(
            f"metric positivity fails: d[{i}][{j}] = {d[i][j]!r}",
            field="distance_matrix", witness=(i, j),
        )
    # axes [i, k, j]: d[i][j] > d[i][k] + d[k][j]
    if hit := _first_in_slabs(lambda r: D[r, None] > D[r, :, None] + D, len(D)):
        i, k, j = hit
        raise InvalidInstanceError(
            f"triangle inequality fails: d[{i}][{j}] > "
            f"d[{i}][{k}] + d[{k}][{j}]",
            field="distance_matrix", witness=(i, j, k),
        )
    return D


def _check_order(L: np.ndarray) -> None:
    if hit := _first(~np.diagonal(L)):
        raise InvalidInstanceError(
            f"order reflexivity fails at point {hit[0]}",
            field="order_pairs", witness=hit,
        )
    if hit := _first(L & L.T & ~np.eye(len(L), dtype=bool)):
        i, j = hit
        raise InvalidInstanceError(
            f"order antisymmetry fails: {i} <= {j} and {j} <= {i}",
            field="order_pairs", witness=(i, j),
        )
    # axes [i, j, k]: i <= j <= k but not i <= k
    if hit := _first_in_slabs(lambda r: L[r, :, None] & L & ~L[r, None], len(L)):
        i, j, k = hit
        raise InvalidInstanceError(
            f"order transitivity fails: {i} <= {j} <= {k} "
            f"but not {i} <= {k}",
            field="order_pairs", witness=(i, j, k),
        )


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Tabulated metric plus partial order over indexed points."""

    labels: tuple[str, ...]
    dist: tuple[tuple[float, ...], ...]  # as given: an int stays an int
    L: np.ndarray  # given as n x n boolean rows or array, stored read-only
    D: np.ndarray = field(init=False, repr=False)  # dist as read-only float64

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise InvalidInstanceError("finite space needs at least one point",
                                       field="points")
        if len(set(self.labels)) != n:
            raise InvalidInstanceError("point labels must be distinct",
                                       field="points")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise InvalidInstanceError(f"distance matrix must be {n} x {n}",
                                       field="distance_matrix")
        if len(self.L) != n or any(len(row) != n for row in self.L):
            raise InvalidInstanceError(f"order relation must be {n} x {n}",
                                       field="order_pairs")
        if not (isinstance(self.L, np.ndarray) and self.L.dtype == bool) and not (
            set(map(type, chain.from_iterable(self.L))) <= {bool, np.bool_}
        ):
            # the whole-matrix test failed: name the first entry that is no boolean
            for i, row in enumerate(self.L):
                for j, v in enumerate(row):
                    if not isinstance(v, (bool, np.bool_)):
                        raise InvalidInstanceError(
                            f"order entry [{i}][{j}] = {v!r} is not a boolean",
                            field="order_pairs", witness=(i, j),
                        )
        D = _check_metric(self.dist)
        L = np.array(self.L, dtype=bool)  # a copy that no caller can write
        _check_order(L)
        for name, a in (("D", D), ("L", L)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSpace)
            and self.labels == other.labels
            and np.array_equal(self.D, other.D)
            and np.array_equal(self.L, other.L)
        )

    __hash__ = None  # the arrays have no hash

    # L under its earlier name, which the benchmark's work counter reads
    order = property(lambda self: self.L)

    @classmethod
    def from_lists(cls, labels, dist, order) -> "FiniteSpace":
        """From document lists; a label that is not a string is stringified,
        and a non-finite number is rejected as a label."""
        for i, v in enumerate(labels):
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidInstanceError(
                    f"point label [{i}] = {v!r} is not a finite number",
                    field="points", witness=(i,),
                )
        return cls(tuple(map(str, labels)), tuple(map(tuple, dist)), order)

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
        return bool(self.L[p, q])


@dataclass(frozen=True)
class BoxSpace:
    """Axis-aligned box in R^k with the L1 metric and componentwise order."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) == 0 or len(self.lower) != len(self.upper):
            raise InvalidInstanceError("box bounds must be nonempty and same length",
                                       field="lower")
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            for name, v in (("lower", lo), ("upper", hi)):
                if not is_finite_number(v):
                    raise InvalidInstanceError(
                        f"box bounds must be finite numbers on axis {i}: "
                        f"[{lo!r}, {hi!r}]",
                        field=name, witness=(i,),
                    )
            if not lo <= hi:
                raise InvalidInstanceError(
                    f"box bounds inverted on axis {i}: {lo!r} > {hi!r}",
                    field="upper", witness=(i,),
                )
        object.__setattr__(self, "lower", tuple(map(float, self.lower)))
        object.__setattr__(self, "upper", tuple(map(float, self.upper)))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def grid_axes(self, step: float | None) -> list[list[float]]:
        """Per-axis grid lo, lo + step, ..., hi; only lo and hi when step is None.

        A grid of more than GRID_CAP points raises SamplingError, before any
        axis longer than GRID_CAP is built, so a tiny step costs no time.
        """
        axes = []
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            # lo + k * step never falls as k grows, so if the loop below
            # would still run at k = GRID_CAP, this axis alone is over the cap
            if step is not None and lo + GRID_CAP * step < hi - 1e-12:
                raise SamplingError(
                    f"grid of over {GRID_CAP} points on axis {i} alone "
                    f"exceeds the cap of {GRID_CAP}"
                )
            vals = [lo]
            k = 1
            while step is not None and lo + k * step < hi - 1e-12:
                vals.append(lo + k * step)
                k += 1
            if vals[-1] != hi:
                vals.append(hi)
            axes.append(vals)
        total = math.prod(map(len, axes))
        if step is not None and total > GRID_CAP:
            raise SamplingError(f"grid of {total} points exceeds the cap of {GRID_CAP}")
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
