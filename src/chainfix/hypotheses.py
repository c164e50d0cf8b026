"""Checks for the hypotheses behind the coupled fixed point machinery.

Finite spaces are checked exhaustively, so verdicts are conclusive. On a
box, what is not decided below is checked on a deterministic sample (its
grid at ``grid_step``, if set, plus 8 uniform draws seeded with 0), so a
clean pass is reported as ``undetermined-sampled``: sampling can falsify a
universally quantified hypothesis but never prove it. Conclusive on a box:

* ``check_seed`` evaluates two concrete applications, nothing more;
* ``check_pair_bounds`` and ``check_common_comparable`` hold with ``mode:
  "exact"``: a box is closed under componentwise max and min, which supply
  the bounds and the comparable product points they ask for;
* ``check_epsilon_chainable`` holds with ``mode: "exact"``: under the L1
  metric the gaps of an ascending chain from a to b add up to d(a, b), so
  no chain has fewer than floor(d(a, b)/epsilon) + 1 hops, and the straight
  segment cut into that many equal steps, which ``find_epsilon_chain``
  returns, has no more; a count above ``instances.MAX_ITERATIONS`` is
  refused with ``DomainError`` before any waypoint is built;
* a box map built from ``+ - *``, division by constants and ``min``,
  ``max`` and ``abs`` is decided from exact bounds on its partial
  derivatives, read from its formula in one fold (``ExpressionMap.form``,
  see ``chainfix.affine``), where they prove a hypothesis: mixed
  monotonicity when every derivative in x is at least 0 and every one in y
  at most 0, and uniform local contraction when the ratio's bound over the
  whole box is below 1. That bound is the supremum for an affine map,
  F(x, y) = A x - B y + c, reported with ``mode: "exact"``, and in general
  an upper bound, reported with ``mode: "bound"``. What the bounds do not
  prove is scanned on the sample as before.

So only the two map checks read a box sample. A private tabulation step
turns the points under test into index-addressed arrays: the order and the
distances between points, and F over every pair of points. A finite space
hands over its own read-only ``L``, ``D`` and ``T`` without a copy (the
oracle reads them too: reading stored data is not sharing a kernel); a box
validates its sample and tabulates it with numpy, once per map and grid
step for both checks. A sample whose tables would pass a fixed byte budget
raises ``SamplingError`` before any table is built, and a map that leaves
the box anywhere on the sample (or, for a sample without a grid, on pairs
among the box's first 200 corners and the sample) raises ``EscapeError``
before any scan starts. Reading a document evaluates no map, so these
tables and ``check_seed`` are where an escape is found; ``EscapeError``
names the field ``map.formula``. The mixed-monotonicity scan compares whole rows of
images as numpy masks, a block of about 2**16 cells at a time, over the
covering pairs first and over every comparable pair only when a covering
pair fails. On a finite space the chainability check
takes every hop count from one min-plus closure over whole arrays, and its
per-pair table, ``details["chain_n"]``, is a read-only mapping built on
first read, and the finite ``find_epsilon_chain`` walks its hop counts.
Only the contraction scan is a plain loop over point indices; it reads the
image rows as Python lists as it reaches them.

Every violated verdict carries a witness that can be re-checked with a single
direct evaluation. Enumeration orders are fixed (lexicographic in point
indices, sample order on boxes) so witnesses are reproducible and comparable
across independent implementations. A contraction scan with no admissible
quadruple returns a ``vacuous`` report rather than raising.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections.abc import Mapping
from functools import cached_property
from operator import sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from ._lazy import numpy as np
from .errors import DomainError, SamplingError, clipped_repr
from .instances import MAX_ITERATIONS
from .mappings import CoupledMap, ExpressionMap, TableMap
from .spaces import (
    BoxSpace,
    FiniteSpace,
    Point,
    Space,
    _composes,
    _covers,
    _first,
    _first_in_blocks,
    _min_plus_closure,
    point_jsonable,
)

if TYPE_CHECKING:
    from .affine import MapForm

HOLDS = "holds"
VIOLATED = "violated"
SAMPLED = "undetermined-sampled"

_BLOCK = 1 << 16  # cells per block of a whole-row scan
_TABLE_BYTES = 1 << 24  # most bytes the tables of one box sample may take
_DRAWS = 8  # uniform draws in every box sample, after its grid
_SEED = 0  # the seed of those draws


class HypothesisReport(NamedTuple):
    hypothesis: str
    verdict: str
    witness: object = None
    sample_size: int | None = None
    sample_seed: int | None = None
    details: Mapping = MappingProxyType({})  # read-only: one empty default serves all

    @property
    def passed(self) -> bool:
        return self.verdict != VIOLATED

    def as_dict(self) -> dict:
        out = {
            "hypothesis": self.hypothesis,
            "verdict": self.verdict,
            "witness": self.witness,
            "sample_seed": self.sample_seed,
            "sample_size": self.sample_size,
        }
        for key, value in self.details.items():
            if key != "chain_n":  # raw tuple-keyed table; summarized by max_n
                out[key] = value
        return out


class ContractivityReport(NamedTuple):
    """Result of scanning admissible quadruples (x, u, y, v) with x >= u, y <= v.

    ``lambda_hat`` is the supremum of 2 d(F(x,y), F(u,v)) / (d(x,u) + d(y,v))
    over the tested quadruples when no ratio reached 1; on a violation the
    scan stops and ``witness`` is the first offending quadruple in
    enumeration order (``lambda_hat`` is then unknown and left None). In
    ``mode`` "exact" and "bound" nothing was scanned: ``lambda_hat`` is read
    from bounds on the map's partial derivatives and rounded up, the
    supremum over the whole box for an affine map ("exact") and an upper
    bound of it otherwise ("bound").
    """

    epsilon: float
    lambda_hat: float | None
    violated: bool
    witness: tuple | None
    pairs_tested: int
    mode: str  # "exhaustive" | "sampled" | "exact" | "bound"
    vacuous: bool = False
    sample_size: int | None = None
    sample_seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violated

    @property
    def verdict(self) -> str:
        if self.violated:
            return VIOLATED
        return SAMPLED if self.mode == "sampled" else HOLDS

    def as_dict(self) -> dict:
        witness = self.witness
        if witness is not None:
            witness = [point_jsonable(p) for p in witness]
        return {
            "hypothesis": "uniform-local-contraction",
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "lambda_hat": self.lambda_hat,
            "witness": witness,
            "pairs_tested": self.pairs_tested,
            "mode": self.mode,
            "vacuous": self.vacuous,
            "sample_seed": self.sample_seed,
            "sample_size": self.sample_size,
        }


class Chain(NamedTuple):
    """Order-ascending chain whose consecutive gaps are all below epsilon."""

    points: tuple[Point, ...]
    epsilon: float

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def validate(self, space: Space) -> None:
        if not self.points:
            raise DomainError("a chain needs at least one point")
        for a, b in zip(self.points, self.points[1:]):
            if not space.leq(a, b):
                raise DomainError(f"chain step {a!r} -> {b!r} is not ascending")
            if not space.distance(a, b) < self.epsilon:
                raise DomainError(
                    f"chain gap d({a!r}, {b!r}) is not below {self.epsilon!r}"
                )


def sample_points(space: Space, grid_step: float | None = None) -> list[Point]:
    """All points of a finite space; on a box, its grid at ``grid_step`` (if
    any), then ``_DRAWS`` draws seeded with ``_SEED``, without repeats."""
    if isinstance(space, FiniteSpace):
        return list(space.points())
    pts: list[Point] = []
    if grid_step is not None:
        if not grid_step > 0:
            raise SamplingError(f"grid_step must be positive, got {grid_step!r}")
        pts.extend(itertools.product(*space.grid_axes(grid_step)))
    pts += space.uniform_points(_DRAWS, _SEED)
    return list(dict.fromkeys(pts))


class _L1Row:
    """Distances from box point p, computed on demand: ``row[q]``."""

    __slots__ = ("p",)

    def __init__(self, p: Point):
        self.p = p

    def __getitem__(self, q: Point) -> float:
        # the sum BoxSpace.distance takes, term for term, so values agree bitwise
        return sum(map(abs, map(sub, self.p, q)))


class _Rows(dict):
    """``rows[key]``, built as ``row(key)`` on first use: a row of distances
    from a box point, or a row of images."""

    def __init__(self, row):
        super().__init__()
        self.row = row

    def __missing__(self, p: Point):
        r = self[p] = self.row(p)
        return r


def _index_rows(images: np.ndarray, D: np.ndarray) -> tuple[_Rows, list]:
    """``T[i]``, row i of a table map's images, and ``DI[a]``, the distance
    row of point a, as lists converted on first use. ``DI`` is a plain list
    whose rows are filled as image rows are converted, for every image they
    hold, so ``DI[T[x][y]]`` is always there. It is built here, not in a
    closure of the scan, so that the scan reads ``DI`` as a fast local."""
    DI = [None] * len(D)

    def row(i):
        r = images[i].tolist()
        for a in set(r):
            if DI[a] is None:
                DI[a] = D[a].tolist()
        return r

    return _Rows(row), DI


class _Tables(NamedTuple):
    """The points under test, addressed by index: a whole finite space, or a
    box sample (then ``sample_size`` is set).

    ``L[i, j]`` is pts[i] <= pts[j] and ``D[i, j]`` is d(pts[i], pts[j]), as
    boolean and float64 arrays. Map checks add ``images[i, j]`` =
    F(pts[i], pts[j]): a point index on a finite space and a coordinate
    vector on a box. ``LI(A, B)`` is the mask of ``A[...] <= B[...]`` over
    two arrays of images cut from ``images``.
    """

    pts: Sequence[Point]
    L: np.ndarray
    D: np.ndarray
    images: np.ndarray | None = None
    LI: object = None
    sample_size: int | None = None
    sample_seed: int | None = None


def _box_leq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return (A <= B).all(-1)


# box map -> (grid step, the tables of its sample), so the two map checks
# of a suite build them once; an entry goes with its map
_SAMPLE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _map_tables(cmap: CoupledMap, grid_step: float | None) -> _Tables:
    space = cmap.space
    if isinstance(cmap, TableMap):  # the whole space, as its stored arrays
        L = space.L
        return _Tables(space.points(), L, space.D, cmap.T, lambda A, B: L[A, B])
    kept = _SAMPLE_TABLES.get(cmap)
    if kept is not None and kept[0] == grid_step:
        return kept[1]
    pts = sample_points(space, grid_step)
    for p in pts:
        space.validate_point(p)
    # the order (1 byte), the distance (8) and the image (8 per axis) of
    # each pair, refused before any table is built
    need = len(pts) ** 2 * (9 + 8 * space.dim)
    if need > _TABLE_BYTES:
        raise SamplingError(
            f"a sample of {len(pts)} points needs {need} bytes of tables, "
            f"over the budget of {_TABLE_BYTES}", field="space.grid_step",
        )
    if grid_step is None:
        # a sample without a grid holds no corner of the box: F is first
        # evaluated, one row at a time, over the pairs among the box's first
        # 200 corners and the sample, so an escape there raises too; no
        # verdict reads these values
        ext = [*itertools.islice(itertools.product(*space.grid_axes(None)), 200), *pts]
        for x in ext:
            cmap._tabulate([x], ext)
    P = np.array(pts, dtype=float).reshape(len(pts), space.dim)
    leq = np.ones((len(pts),) * 2, dtype=bool)
    dist = 0.0
    for axis in P.T:
        leq &= axis[:, None] <= axis
        # |d0| + |d1| + ... in BoxSpace.distance's order, so values agree bitwise
        dist = dist + abs(axis[:, None] - axis)
    tab = _Tables(
        pts, leq, dist, cmap._tabulate(pts, pts), _box_leq,
        sample_size=len(pts), sample_seed=_SEED,
    )
    _SAMPLE_TABLES[cmap] = grid_step, tab
    return tab


def check_mixed_monotone(
    cmap: CoupledMap, grid_step: float | None = None
) -> HypothesisReport:
    """Scan for a violation of mixed monotonicity.

    First branch: x1 <= x2 must give F(x1, y) <= F(x2, y) for every y.
    Second branch: y1 <= y2 must give F(x, y1) >= F(x, y2) for every x.
    A box map whose formula bounds every derivative in x at or above 0 and
    every one in y at or below 0 holds with no scan.

    The image order is transitive, so both branches hold on every
    comparable pair once they hold on every covering pair x1 < x2 (no point
    strictly between): the covering pairs are checked first, and only a
    failure there runs the scan over every comparable pair, which reports
    the first violation in its own order.
    """
    form = _form(cmap)
    if form is not None and form.mixed_monotone:
        return HypothesisReport("mixed-monotone", HOLDS, details={"mode": "exact"})
    tab = _map_tables(cmap, grid_step)
    if _first_monotone_violation(tab, *np.nonzero(_covers(tab.L))):
        n = len(tab.pts)
        # the comparable pairs a1 <= a2, a1 != a2, in lexicographic order
        hit = _first_monotone_violation(
            tab, *np.nonzero(tab.L & ~np.eye(n, dtype=bool))
        )
        return _monotone_violation(tab, cmap, *hit)
    return HypothesisReport(
        "mixed-monotone", HOLDS if tab.sample_size is None else SAMPLED,
        sample_size=tab.sample_size, sample_seed=tab.sample_seed,
    )


def _first_monotone_violation(tab: _Tables, a1: np.ndarray, a2: np.ndarray):
    """(branch, a1, a2, other) of the first violation over the ordered pairs
    a1[p] < a2[p], first branch before second, else None."""
    F, leq = tab.images, tab.LI
    n = len(tab.pts)
    # rows (x1, x2), columns y
    if hit := _first_in_blocks(
        lambda r: ~leq(F[a1[r]], F[a2[r]]), len(a1), n, _BLOCK
    ):
        p, y = hit
        return "first-argument", a1[p], a2[p], y
    # rows x, columns (y1, y2)
    if hit := _first_in_blocks(
        lambda r: ~leq(F[r][:, a2], F[r][:, a1]), n, len(a1), _BLOCK
    ):
        x, p = hit
        return "second-argument", a1[p], a2[p], x
    return None


def _monotone_violation(tab: _Tables, cmap, branch, a1, a2, other):
    pts = tab.pts
    p1, p2, q = pts[int(a1)], pts[int(a2)], pts[other]
    if branch == "first-argument":
        names = ("x1", "x2", "y", "F(x1,y)", "F(x2,y)")
        images = (cmap.apply(p1, q), cmap.apply(p2, q))
    else:
        names = ("y1", "y2", "x", "F(x,y1)", "F(x,y2)")
        images = (cmap.apply(q, p1), cmap.apply(q, p2))
    values = (p1, p2, q, *images)
    witness = {"branch": branch}
    witness.update((k, point_jsonable(v)) for k, v in zip(names, values))
    return HypothesisReport(
        "mixed-monotone", VIOLATED, witness,
        sample_size=tab.sample_size, sample_seed=tab.sample_seed,
    )


def estimate_contraction(
    cmap: CoupledMap, epsilon: float, grid_step: float | None = None
) -> ContractivityReport:
    """Supremum of the contraction ratio over admissible quadruples.

    A quadruple (x, u, y, v) is admissible when x >= u, y <= v, the mean
    distance (d(x,u) + d(y,v)) / 2 is strictly below epsilon, and the
    distances are not both zero. Enumeration is lexicographic: (x, u) pairs
    ascending, then (y, v) pairs ascending, matching the exhaustive oracle,
    and the scan stops at the first ratio >= 1. With no admissible quadruple
    the report is ``vacuous``, with ``lambda_hat`` 0.0 and no witness. A
    box map whose formula bounds the ratio below 1 over the whole box
    (``MapForm.lambda_hat``) is not scanned.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    form = _form(cmap)
    if form is not None:
        lam = form.lambda_hat(cmap.space)
        if lam is not None and lam < 1.0:
            mode = "exact" if form.exact else "bound"
            return ContractivityReport(epsilon, lam, False, None, 0, mode)
    tab = _map_tables(cmap, grid_step)
    # the loop reads Python numbers, each converted when the scan first
    # reaches it: row T[i] of F(pts[i], pts[j]) and the distances DI[a][b]
    # between images
    images, D = tab.images, tab.D
    if isinstance(cmap, TableMap):  # images are point indices into D
        T, DI = _index_rows(images, D)
    else:
        T = _Rows(lambda i: list(map(tuple, images[i].tolist())))
        DI = _Rows(_L1Row)
    # row-major in (x, u) with u <= x, read once, and in (y, v) with
    # y <= v, read for each (x, u); each pair with its distance. The first
    # (x, u) row keeps the (y, v) pairs as it reads them, and every later
    # row iterates that list
    yv_pairs: list[tuple[int, int, float]] = []
    yv_first = itertools.chain.from_iterable(_kept(_pairs(D, tab.L), yv_pairs))
    yv_rows = itertools.chain([yv_first], itertools.repeat(yv_pairs))
    xu_pairs = itertools.chain.from_iterable(_pairs(D, tab.L.T))
    best = -1.0
    best_w = None
    tested = 0
    for (x, u, dxu), yv in zip(xu_pairs, yv_rows):
        tx = T[x]
        tu = T[u]
        for y, v, dyv in yv:
            s = dxu + dyv
            if s <= 0 or not s / 2.0 < epsilon:
                continue
            tested += 1
            r = 2.0 * DI[tx[y]][tu[v]] / s
            if r >= 1.0:
                return _contraction_report(
                    tab, epsilon, None, True, (x, u, y, v), tested
                )
            if r > best:
                best = r
                best_w = (x, u, y, v)
    return _contraction_report(tab, epsilon, max(best, 0.0), False, best_w, tested)


def _pairs(D: np.ndarray, M: np.ndarray) -> Iterator[list[tuple[int, int, float]]]:
    """(i, j, D[i, j]) for the true cells of the mask M, in row-major order:
    one list for each block of 1, 2, 4, ... rows of M, built when it is
    first read."""
    lo, rows = 0, 1
    while lo < len(M):
        i, j = np.nonzero(M[lo : lo + rows])
        i += lo
        yield list(zip(i.tolist(), j.tolist(), D[i, j].tolist()))
        lo, rows = lo + rows, 2 * rows


def _kept(blocks: Iterator[list], out: list) -> Iterator[list]:
    """``blocks``, each appended to ``out`` as it is read."""
    for block in blocks:
        out += block
        yield block


def _form(cmap: CoupledMap) -> MapForm | None:
    return cmap.form if isinstance(cmap, ExpressionMap) else None


def _contraction_report(tab: _Tables, epsilon, lambda_hat, violated, quad, tested):
    witness = None if quad is None else tuple(tab.pts[i] for i in quad)
    mode = "exhaustive" if tab.sample_size is None else "sampled"
    return ContractivityReport(
        epsilon, lambda_hat, violated, witness, tested, mode, vacuous=tested == 0,
        sample_size=tab.sample_size, sample_seed=tab.sample_seed,
    )


def _epsilon_edges(space: FiniteSpace, epsilon) -> np.ndarray:
    # edge i -> j iff i <= j and their distance is below epsilon; hops of a
    # chain
    edges = space.L & (space.D < epsilon)
    np.fill_diagonal(edges, False)
    return edges


def _hop_counts(edges: np.ndarray) -> np.ndarray:
    """Fewest edges from i to j for every pair of points, and n where no
    path leads from i to j. Entries of the min-plus closure stay below 2n,
    so the smallest unsigned type holding 2n carries them."""
    n = len(edges)
    small = np.min_scalar_type(2 * n).type
    H = np.where(edges, small(1), small(n))
    np.fill_diagonal(H, 0)
    return _min_plus_closure(H)


def find_epsilon_chain(
    space: Space, a: Point, b: Point, epsilon: float
) -> Chain | None:
    """Minimum-hop ascending chain from a to b with every gap below epsilon.

    On a finite space, a walk down the hop counts to b: each step goes to
    the lowest-indexed point one hop closer, so the chain is the
    lexicographically smallest shortest one; None when no chain exists. On
    a box, the segment from a to b in ``_box_hops`` equal steps, each
    coordinate rounded once from its exact value, so the waypoints ascend,
    stay in [a, b] and end at b itself; one step more only when rounding
    pushes a gap to epsilon, and where both fail, the same counts along the
    L1 staircase, which is as long. A ``DomainError`` refuses a and b one
    float step apart on one axis with epsilon at most d(a, b): no float
    lies strictly between them, so no chain exists.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    space.validate_point(a)
    space.validate_point(b)
    if not space.leq(a, b):
        raise DomainError("chain endpoints must satisfy a <= b")
    if a == b:
        return Chain((a,), epsilon)
    if isinstance(space, BoxSpace):
        return _segment(space, a, b, epsilon)
    edges = _epsilon_edges(space, epsilon)
    to_b = _hop_counts(edges)[:, b]
    if to_b[a] >= space.size:
        return None
    path = [a]
    while path[-1] != b:
        i = path[-1]
        path.append(int(np.argmax(edges[i] & (to_b == to_b[i] - 1))))
    return Chain(tuple(path), epsilon)


def _box_hops(a, b, epsilon) -> int:
    """floor(d(a, b)/epsilon) + 1 for box points a <= b, in exact rationals
    from the floats; 0 when a == b. A count over the cap is refused."""
    from fractions import Fraction  # exact rationals serve only boxes

    d = sum(map(Fraction, b)) - sum(map(Fraction, a))
    n = 0
    if d:
        n = 1 if epsilon == math.inf else int(d / Fraction(epsilon)) + 1
    _check_hops(n, epsilon)
    return n


def _check_hops(n: int, epsilon) -> None:
    if n > MAX_ITERATIONS:
        raise DomainError(
            f"epsilon {epsilon!r} needs chains of {n} hops, "
            f"over the cap of {MAX_ITERATIONS}"
        )


def _segment(space: BoxSpace, a, b, epsilon) -> Chain:
    n = _box_hops(a, b, epsilon)
    ends = [p.as_integer_ratio() + q.as_integer_ratio() for p, q in zip(a, b)]
    for waypoints in (_straight, _staircase):
        for hops in (n, n + 1):
            _check_hops(hops, epsilon)
            pts = (a, *waypoints(ends, hops), b)
            if all(space._distance(p, q) < epsilon for p, q in zip(pts, pts[1:])):
                return Chain(pts, epsilon)
    raise DomainError(
        f"float rounding leaves no chain of {n} or {n + 1} equal steps "
        f"from {clipped_repr(a)} to {clipped_repr(b)} at epsilon {epsilon!r}"
    )


def _straight(ends, hops: int) -> list[tuple]:
    # (a (hops - k) + b k) / hops, one correctly rounded int division per
    # coordinate: rounding is monotone, so the points ascend
    return [
        tuple((an * bd * (hops - k) + bn * ad * k) / (ad * bd * hops)
              for an, ad, bn, bd in ends)
        for k in range(1, hops)
    ]


def _staircase(ends, hops: int) -> list[tuple]:
    # the points at L1 length t = k d / hops along the path that moves axis
    # 0 from a to b, then axis 1, and so on: axis i sits at a_i plus t less
    # the earlier axes' gaps, clamped to [0, b_i - a_i], exact and rounded
    # once, so the points ascend
    from fractions import Fraction

    lo = [Fraction(an, ad) for an, ad, _, _ in ends]
    gaps = [Fraction(bn, bd) - l for l, (_, _, bn, bd) in zip(lo, ends)]
    starts = [0, *itertools.accumulate(gaps)]
    return [
        tuple(float(l + min(max(starts[-1] * k / hops - c, 0), g))
              for l, c, g in zip(lo, starts, gaps))
        for k in range(1, hops)
    ]


def check_epsilon_chainable(space: Space, epsilon: float) -> HypothesisReport:
    """Minimal chain length for every comparable pair.

    On a finite space, violated when some comparable pair admits no chain
    at all (the witness is the first such pair in index order); otherwise
    the report carries the largest minimal n, which is what the decay bound
    consumes. The full per-pair table is kept in ``details["chain_n"]``, a
    read-only mapping built on first read.

    On a box it holds, with ``mode: "exact"``, and ``max_n`` is
    ``_box_hops`` from the lower to the upper corner, the farthest pair.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if isinstance(space, BoxSpace):
        max_n = _box_hops(space.lower, space.upper, epsilon)
        return HypothesisReport("epsilon-chainable", HOLDS, details={
            "mode": "exact", "epsilon": epsilon, "max_n": max_n,
        })
    n = space.size
    hops = _hop_counts(_epsilon_edges(space, epsilon))
    # the comparable pairs in row-major order, which chain_n keeps
    i, j = np.nonzero(space.L)
    h = hops[i, j]
    found = h < n
    unreachable = tuple(zip(i[~found].tolist(), j[~found].tolist()))
    details = {
        "epsilon": epsilon,
        "max_n": int(h[found].max(initial=0)),
        "chain_n": _ChainTable(i[found], j[found], h[found]),
        "unreachable": unreachable,
    }
    if unreachable:
        return HypothesisReport(
            "epsilon-chainable", VIOLATED, list(unreachable[0]), details=details
        )
    return HypothesisReport("epsilon-chainable", HOLDS, details=details)


class _ChainTable(Mapping):
    """``details["chain_n"]``: the fewest hops for each linked comparable
    pair, keyed by point pair in row-major order. It is read-only and built
    on first read, since ``as_dict`` leaves it out and only library callers
    read it."""

    def __init__(self, i: np.ndarray, j: np.ndarray, hops: np.ndarray):
        self._args = i, j, hops

    @cached_property
    def _table(self) -> dict:
        i, j, hops = (a.tolist() for a in self._args)
        return dict(zip(zip(i, j), hops))

    def __getitem__(self, pair):
        return self._table[pair]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._table!r})"


def check_seed(cmap: CoupledMap, x0: Point, y0: Point) -> HypothesisReport:
    """Launch condition x0 <= F(x0, y0) and y0 >= F(y0, x0).

    Two concrete applications, so the verdict is conclusive on any space.
    """
    space = cmap.space
    fx = cmap.apply(x0, y0)
    fy = cmap.apply(y0, x0)
    ok_x = space.leq(x0, fx)
    ok_y = space.leq(fy, y0)
    if ok_x and ok_y:
        return HypothesisReport("seed-condition", HOLDS)
    witness = {
        "x0": point_jsonable(x0),
        "y0": point_jsonable(y0),
        "F(x0,y0)": point_jsonable(fx),
        "F(y0,x0)": point_jsonable(fy),
        "x0_leq_F(x0,y0)": ok_x,
        "F(y0,x0)_leq_y0": ok_y,
    }
    return HypothesisReport("seed-condition", VIOLATED, witness)


def _common_bounds(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which pairs of points share a common upper bound (UB) or a common
    lower bound (LB) under the order M[p, q] = p <= q of a finite space."""
    return _composes(M, M.T), _composes(M.T, M)


def check_common_comparable(space: Space) -> HypothesisReport:
    """Every two product points must share a product point comparable to both.

    Product points are ordered pairs of points under the product order
    (first component ascending, second descending). Exhaustive on finite
    spaces. On a box it holds, reported with ``mode: "exact"``: a box is a
    product of intervals, so with (x, y) and (u, v) it contains
    (max(x, u), min(y, v)), taken componentwise, and that product point
    lies above both.

    The order is transitive, so (x, y) and (u, v) share such a point iff they
    are comparable themselves (x <= u and v <= y, or u <= x and y <= v), or
    UB[x, u] and LB[y, v], or LB[x, u] and UB[y, v]. So a 4-bit code of
    facts about (x, u) and one of relations about (y, v) decide the pair,
    and a 16 x 16 table of disjoint codes decides the verdict in O(s^2)
    memory. The witness is the first failing quadruple in (x, y, u, v)
    row-major order.
    """
    if isinstance(space, BoxSpace):
        return HypothesisReport(
            "common-comparable", HOLDS, details={"mode": "exact"}
        )
    M = space.L
    UB, LB = _common_bounds(M)
    s = len(M)
    # bit k of code[x, u] is fact k about (x, u) and bit k of rel[y, v] is
    # relation k about (y, v); the two pairs are linked iff code & rel != 0
    m, mt, ub, lb = (a.view(np.uint8) for a in (M, M.T, UB, LB))
    code = m | mt << 1 | ub << 2 | lb << 3
    rel = mt | m << 1 | lb << 2 | ub << 3
    unlinked = (np.arange(16)[:, None] & np.arange(16)) == 0
    present = np.zeros(16, dtype=bool)  # which relation codes occur
    present[rel] = True
    bad_xu = (unlinked & present).any(axis=1)[code]
    witness = None
    if bad_xu.any():
        x = int(np.argmax(bad_xu.any(axis=1)))
        # occurs[y, r]: some rel[y, v] == r
        occurs = np.zeros((s, 16), dtype=bool)
        occurs[np.arange(s)[:, None], rel] = True
        # bad[u, y]: some v leaves (x, y) and (u, v) unlinked
        bad = _composes(unlinked[code[x]], occurs.T)
        y = int(np.argmax(bad.any(axis=0)))
        u = int(np.argmax(bad[:, y]))
        v = int(np.argmax(unlinked[code[x, u], rel[y]]))
        witness = {"pair1": [x, y], "pair2": [u, v]}
    return HypothesisReport(
        "common-comparable", HOLDS if witness is None else VIOLATED, witness
    )


def check_pair_bounds(space: Space) -> HypothesisReport:
    """Every two points must have a common upper or lower bound.

    Exhaustive on finite spaces. On a box it holds, reported with ``mode:
    "exact"``: the componentwise max of two box points lies in the box and
    above both.
    """
    if isinstance(space, BoxSpace):
        return HypothesisReport("pair-bounds", HOLDS, details={"mode": "exact"})
    upper, lower = _common_bounds(space.L)
    if hit := _first(~(upper | lower)):
        return HypothesisReport("pair-bounds", VIOLATED, list(hit))
    return HypothesisReport("pair-bounds", HOLDS)
