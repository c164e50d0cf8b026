"""Partially ordered metric spaces: finite tables and axis-aligned boxes.

A point of a finite space is an integer index into its label list; a point of
a box is a tuple of coordinates. Both kinds expose the same query surface
(``distance``, ``leq``) so everything downstream stays generic. Both
queries validate their points; ``_distance`` and ``_leq`` give the same
values without validating, for loops whose points are known to be valid.

Finite spaces are validated eagerly: every metric axiom (zero diagonal,
symmetry, positivity, triangle inequality) and order axiom (reflexivity,
antisymmetry, transitivity) is checked at construction time over the whole
matrix, as a boolean mask or, for transitivity, one float32 matrix product,
and the first violation in row-major order of its index tuple is reported
with its witnessing indices. Distances are
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
from itertools import chain
from operator import sub
from typing import Sequence, Union

from ._lazy import numpy as np
from .errors import (
    DomainError, Frozen, InvalidInstanceError, SamplingError, clipped_repr,
)

FinitePoint = int
BoxPoint = tuple[float, ...]
Point = Union[FinitePoint, BoxPoint]

GRID_CAP = 20000  # most points a box grid may hold


# Two integers up to 2**52 add exactly in float64, so the float64 triangle
# check decides what it would on the caller's own integers.
_MAX_EXACT_INT = 2**52
_BLOCK = 1 << 18  # cells per slab of the triangle sweep: bounded memory at any n


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


def _first_in_blocks(
    mask, rows: int, row_cells: int, block: int
) -> tuple[int, ...] | None:
    """``_first`` of a mask with ``rows`` first-axis rows of ``row_cells``
    cells each, which ``mask(r)`` builds for a slice ``r`` of its rows, about
    ``block`` cells at a time; None when no cell is True."""
    step = max(1, block // max(1, row_cells))
    for lo in range(0, rows if row_cells else 0, step):
        if hit := _first(mask(slice(lo, lo + step))):
            return (hit[0] + lo, *hit[1:])
    return None


def _covers(L: np.ndarray) -> np.ndarray:
    """Mask of the covering pairs of the order ``L``: i < j with no k
    strictly between. One float32 BLAS product counts the k."""
    strict = L & ~np.eye(len(L), dtype=bool)
    S = strict.astype(np.float32)
    return strict & ~((S @ S) > 0)


def _min_plus_closure(M: np.ndarray) -> np.ndarray:
    """``M`` closed in place under min-plus paths, for a zero diagonal and
    no negative entry: a whole-matrix pass per intermediate point k in turn
    (Floyd-Warshall), each leaving row and column k as they were."""
    for k in range(len(M)):
        np.minimum(M, M[:, k, None] + M[k], out=M)
    return M


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
                        f"distance d[{i}][{j}] = {clipped_repr(v)} is not a "
                        "finite float or an integer within 2**52",
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
    if hit := _first_in_blocks(
        lambda r: D[r, None] > D[r, :, None] + D, len(D), D.size, _BLOCK
    ):
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
    # some j has i <= j <= k but not i <= k: (F @ F)[i, k] counts such j, at
    # most n, which float32 sums hold exactly below 2**24. The first
    # (i, j, k) in row-major order takes the first such row i, then the
    # first j of row i that reaches past it, then the first k it reaches
    F = L.astype(np.float32)
    if hit := _first(((F @ F) > 0) & ~L):
        i = hit[0]
        j = int(np.argmax(L[i] & (L & ~L[i]).any(axis=1)))
        k = int(np.argmax(L[j] & ~L[i]))
        raise InvalidInstanceError(
            f"order transitivity fails: {i} <= {j} <= {k} "
            f"but not {i} <= {k}",
            field="order_pairs", witness=(i, j, k),
        )


class FiniteSpace(Frozen):
    """Tabulated metric plus partial order over indexed points.

    ``labels`` and ``dist`` (as given: an int stays an int) are stored as
    tuples, and the order ``L`` (n x n boolean rows or an array) as a
    read-only copy; ``D`` is ``dist`` as read-only float64.
    """

    _fields = ("labels", "dist", "L")

    def __init__(self, labels: tuple[str, ...], dist: tuple[tuple[float, ...], ...],
                 L) -> None:
        n = len(labels)
        if n == 0:
            raise InvalidInstanceError("finite space needs at least one point",
                                       field="points")
        if len(set(labels)) != n:
            raise InvalidInstanceError("point labels must be distinct",
                                       field="points")
        if len(dist) != n or any(len(row) != n for row in dist):
            raise InvalidInstanceError(f"distance matrix must be {n} x {n}",
                                       field="distance_matrix")
        if len(L) != n or any(len(row) != n for row in L):
            raise InvalidInstanceError(f"order relation must be {n} x {n}",
                                       field="order_pairs")
        if not (isinstance(L, np.ndarray) and L.dtype == bool) and not (
            set(map(type, chain.from_iterable(L))) <= {bool, np.bool_}
        ):
            # the whole-matrix test failed: name the first entry that is no boolean
            for i, row in enumerate(L):
                for j, v in enumerate(row):
                    if not isinstance(v, (bool, np.bool_)):
                        raise InvalidInstanceError(
                            f"order entry [{i}][{j}] = {v!r} is not a boolean",
                            field="order_pairs", witness=(i, j),
                        )
        D = _check_metric(dist)
        L = np.array(L, dtype=bool)  # a copy that no caller can write
        _check_order(L)
        D.setflags(write=False)
        L.setflags(write=False)
        vars(self).update(labels=labels, dist=dist, L=L, D=D)

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
                f"invalid finite point {clipped_repr(p)}: expected an index in "
                f"[0, {len(self.labels)})"
            )

    def distance(self, p: Point, q: Point) -> float:
        self.validate_point(p)
        self.validate_point(q)
        return self._distance(p, q)

    def _distance(self, p: Point, q: Point) -> float:
        # ``distance`` of two points the caller has already validated
        return self.dist[p][q]

    def leq(self, p: Point, q: Point) -> bool:
        self.validate_point(p)
        self.validate_point(q)
        return self._leq(p, q)

    def _leq(self, p: Point, q: Point) -> bool:
        # ``leq`` of two points the caller has already validated
        return bool(self.L[p, q])


class BoxSpace(Frozen):
    """Axis-aligned box in R^k with the L1 metric and componentwise order."""

    _fields = ("lower", "upper")

    def __init__(self, lower: tuple[float, ...], upper: tuple[float, ...]) -> None:
        if len(lower) == 0 or len(lower) != len(upper):
            raise InvalidInstanceError("box bounds must be nonempty and same length",
                                       field="lower")
        for i, (lo, hi) in enumerate(zip(lower, upper)):
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
        vars(self).update(lower=tuple(map(float, lower)),
                          upper=tuple(map(float, upper)))

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
                f"invalid box point {clipped_repr(p)}: expected a {self.dim}-tuple "
                "of reals"
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
        return self._distance(p, q)

    def _distance(self, p: Point, q: Point) -> float:
        # ``distance`` of two points the caller has already validated
        return sum(map(abs, map(sub, p, q)))

    def leq(self, p: Point, q: Point) -> bool:
        self.validate_point(p)
        self.validate_point(q)
        return self._leq(p, q)

    def _leq(self, p: Point, q: Point) -> bool:
        # ``leq`` of two points the caller has already validated
        return all(a <= b for a, b in zip(p, q))


Space = Union[FiniteSpace, BoxSpace]


def point_jsonable(p: Point):
    """JSON-ready form of a point: index, scalar (1-D box), or list."""
    if isinstance(p, tuple):
        return p[0] if len(p) == 1 else list(p)
    return p
