"""Checks for the hypotheses behind the coupled fixed point machinery.

Finite spaces are checked exhaustively, so verdicts are conclusive. Boxes are
checked on a deterministic sample (a coordinate grid plus seeded uniform
draws), so a clean pass is reported as ``undetermined-sampled``: sampling can
falsify a universally quantified hypothesis but never prove it. Three
exceptions are conclusive everywhere:

* ``check_seed`` evaluates two concrete applications, nothing more;
* a chain returned by ``find_epsilon_chain`` is a genuine certificate, valid
  in the full space even when its waypoints came from a grid;
* an affine box map, F(x, y) = A x - B y + c (``ExpressionMap.affine``,
  see ``chainfix.affine``), is decided from its exact coefficients where
  they prove a hypothesis: mixed monotonicity when A, B >= 0, and uniform
  local contraction, reported with ``mode: "exact"``, when the ratio's
  supremum over the whole box is below 1. What they do not prove is
  scanned on the sample as before.

Both kinds of space run the same scans. A private tabulation step turns the
points under test into index-addressed arrays: the order and the distances
between points, and F over every pair of points. A finite space hands over
its own read-only ``L``, ``D`` and ``T`` without a copy (the oracle reads
them too: reading stored data is not sharing a kernel); a box validates its
sample once and tabulates it with numpy, so a map that leaves the box
anywhere on the sample raises ``EscapeError`` before any scan starts. The
mixed-monotonicity scan compares whole rows of images as numpy masks, a
block of about 2**16 cells at a time; the contraction scan and the chain
search are plain loops over point indices.

Every violated verdict carries a witness that can be re-checked with a single
direct evaluation. Enumeration orders are fixed (lexicographic in point
indices, sample order on boxes) so witnesses are reproducible and comparable
across independent implementations. A contraction scan with no admissible
quadruple returns a ``vacuous`` report rather than raising.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, SamplingError
from .mappings import CoupledMap, ExpressionMap, TableMap
from .spaces import (
    BoxSpace,
    FiniteSpace,
    Point,
    Space,
    point_jsonable,
)

if TYPE_CHECKING:
    from .affine import AffineMap

HOLDS = "holds"
VIOLATED = "violated"
SAMPLED = "undetermined-sampled"

_BLOCK = 1 << 16  # cells per block of a whole-row scan


class SamplingPlan(NamedTuple):
    """Deterministic sample description: grid resolution plus seeded draws."""

    grid_step: float | None = None
    random_count: int = 0
    seed: int = 0


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
            if key == "chain_n":
                continue  # raw tuple-keyed table; summarized by max_n
            if key == "unreachable":
                value = [[point_jsonable(p), point_jsonable(q)] for p, q in value]
            out[key] = value
        return out


class ContractivityReport(NamedTuple):
    """Result of scanning admissible quadruples (x, u, y, v) with x >= u, y <= v.

    ``lambda_hat`` is the supremum of 2 d(F(x,y), F(u,v)) / (d(x,u) + d(y,v))
    over the tested quadruples when no ratio reached 1; on a violation the
    scan stops and ``witness`` is the first offending quadruple in
    enumeration order (``lambda_hat`` is then unknown and left None). In
    ``mode`` "exact" nothing was scanned: ``lambda_hat`` is the supremum over
    the whole box, read from an affine map's coefficients and rounded up.
    """

    epsilon: float
    lambda_hat: float | None
    violated: bool
    witness: tuple | None
    pairs_tested: int
    mode: str  # "exhaustive" | "sampled" | "exact"
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


def sample_points(space: Space, plan: SamplingPlan | None = None) -> list[Point]:
    """All points of a finite space; grid plus seeded uniforms on a box."""
    if isinstance(space, FiniteSpace):
        return list(space.points())
    plan = plan or SamplingPlan()
    pts: list[Point] = []
    if plan.grid_step is not None:
        if not plan.grid_step > 0:
            raise SamplingError(f"grid_step must be positive, got {plan.grid_step!r}")
        pts.extend(itertools.product(*space.grid_axes(plan.grid_step)))
    pts += space.uniform_points(plan.random_count, plan.seed)
    if not pts:
        raise SamplingError(
            "sampling plan produced no points (need grid_step or random_count)"
        )
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
    """``rows[p][q]`` for any two box points; each row is built on first use."""

    def __init__(self, row):
        super().__init__()
        self.row = row

    def __missing__(self, p: Point):
        r = self[p] = self.row(p)
        return r


class _Tables(NamedTuple):
    """The points under test, addressed by index.

    ``L[i, j]`` is pts[i] <= pts[j] and ``D[i, j]`` is d(pts[i], pts[j]), as
    boolean and float64 arrays. Map checks add ``images[i, j]`` =
    F(pts[i], pts[j]): a point index on a finite space and a coordinate
    vector on a box. ``LI(A, B)`` is the mask of ``A[...] <= B[...]`` over
    two arrays of images cut from ``images``.
    """

    pts: Sequence[Point]
    L: np.ndarray
    D: np.ndarray
    exhaustive: bool
    images: np.ndarray | None = None
    LI: object = None
    sample_size: int | None = None
    sample_seed: int | None = None

    def report(self, hypothesis: str, witness=None, **fields) -> HypothesisReport:
        """Conclusive on a whole finite space, else ``undetermined-sampled``."""
        verdict = SAMPLED
        if self.exhaustive:
            verdict = HOLDS if witness is None else VIOLATED
        return HypothesisReport(hypothesis, verdict, witness, **fields)


def _space_tables(
    space: Space,
    candidates: Optional[Sequence[Point]],
    extra: Iterable[Point] = (),
) -> _Tables:
    if candidates is None:
        if isinstance(space, BoxSpace):
            raise DomainError("box spaces need an explicit candidate point list")
        # extra points are points of the space, hence already listed
        return _Tables(space.points(), space.L, space.D, True)
    cand = list(candidates)
    for p in cand:
        space.validate_point(p)
    cand = list(dict.fromkeys([*cand, *extra]))
    if isinstance(space, FiniteSpace):
        sub = np.ix_(cand, cand)
        return _Tables(cand, space.L[sub], space.D[sub], False)
    P = np.array(cand, dtype=float).reshape(len(cand), space.dim)
    leq = np.ones((len(cand),) * 2, dtype=bool)
    dist = 0.0
    for axis in P.T:
        leq &= axis[:, None] <= axis
        # |d0| + |d1| + ... in BoxSpace.distance's order, so values agree bitwise
        dist = dist + abs(axis[:, None] - axis)
    return _Tables(cand, leq, dist, False)


def _box_leq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return (A <= B).all(-1)


def _map_tables(cmap: CoupledMap, plan: SamplingPlan | None) -> _Tables:
    space = cmap.space
    if isinstance(cmap, TableMap):
        tab = _space_tables(space, None)
        return tab._replace(images=cmap.T, LI=lambda A, B: space.L[A, B])
    plan = plan or SamplingPlan()
    tab = _space_tables(space, sample_points(space, plan))  # validates each point
    return tab._replace(
        images=cmap.tabulate(tab.pts, tab.pts), LI=_box_leq,
        sample_size=len(tab.pts), sample_seed=plan.seed,
    )


def _first_failure(rows: int, cols: int, holds) -> tuple[int, int] | None:
    """First False, in row-major order, of the rows x cols mask that
    ``holds(r)`` builds for a slice ``r`` of its rows, about _BLOCK cells at
    a time; None when every cell holds."""
    step = max(1, _BLOCK // max(1, cols))
    for lo in range(0, rows, step):
        ok = holds(slice(lo, lo + step))
        if not ok.all():
            r, c = np.unravel_index(np.argmin(ok), ok.shape)
            return lo + int(r), int(c)
    return None


def check_mixed_monotone(
    cmap: CoupledMap, plan: SamplingPlan | None = None
) -> HypothesisReport:
    """Scan for a violation of mixed monotonicity.

    First branch: x1 <= x2 must give F(x1, y) <= F(x2, y) for every y.
    Second branch: y1 <= y2 must give F(x, y1) >= F(x, y2) for every x.
    An affine box map with A, B >= 0 holds with no scan.
    """
    aff = _affine(cmap)
    if aff is not None and aff.mixed_monotone:
        return HypothesisReport("mixed-monotone", HOLDS, details={"mode": "exact"})
    tab = _map_tables(cmap, plan)
    F, leq = tab.images, tab.LI
    n = len(tab.pts)
    strict = tab.L & ~np.eye(n, dtype=bool)
    # the comparable pairs a1 <= a2, a1 != a2, in lexicographic order
    a1, a2 = np.nonzero(strict)
    # rows (x1, x2), columns y
    if hit := _first_failure(len(a1), n, lambda r: leq(F[a1[r]], F[a2[r]])):
        p, y = hit
        return _monotone_violation(tab, cmap, "first-argument", a1[p], a2[p], y)
    # rows x, columns (y1, y2)
    if hit := _first_failure(n, len(a1), lambda r: leq(F[r][:, a2], F[r][:, a1])):
        x, p = hit
        return _monotone_violation(tab, cmap, "second-argument", a1[p], a2[p], x)
    return tab.report(
        "mixed-monotone", sample_size=tab.sample_size, sample_seed=tab.sample_seed
    )


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
    cmap: CoupledMap, epsilon: float, plan: SamplingPlan | None = None
) -> ContractivityReport:
    """Supremum of the contraction ratio over admissible quadruples.

    A quadruple (x, u, y, v) is admissible when x >= u, y <= v, the mean
    distance (d(x,u) + d(y,v)) / 2 is strictly below epsilon, and the
    distances are not both zero. Enumeration is lexicographic: (x, u) pairs
    ascending, then (y, v) pairs ascending, matching the exhaustive oracle,
    and the scan stops at the first ratio >= 1. With no admissible quadruple
    the report is ``vacuous``, with ``lambda_hat`` 0.0 and no witness. An
    affine box map whose exact supremum (``AffineMap.lambda_hat``) is below
    1 is not scanned.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    aff = _affine(cmap)
    if aff is not None:
        lam = aff.lambda_hat(cmap.space)
        if lam is not None and lam < 1.0:
            return ContractivityReport(epsilon, lam, False, None, 0, "exact")
    tab = _map_tables(cmap, plan)
    # the loop reads Python numbers, converted once: T[i][j] = F(pts[i], pts[j])
    D = tab.D.tolist()
    if isinstance(cmap, TableMap):  # images are point indices into D
        T, DI = tab.images.tolist(), D
    else:
        T = [list(map(tuple, row.tolist())) for row in tab.images]
        DI = _Rows(_L1Row)
    # row-major in (x, u) with u <= x, and in (y, v) with y <= v
    xu_pairs = list(zip(*(a.tolist() for a in np.nonzero(tab.L.T))))
    yv_pairs = list(zip(*(a.tolist() for a in np.nonzero(tab.L))))
    best = -1.0
    best_w = None
    tested = 0
    for x, u in xu_pairs:
        dxu = D[x][u]
        tx = T[x]
        tu = T[u]
        for y, v in yv_pairs:
            s = dxu + D[y][v]
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


def _affine(cmap: CoupledMap) -> AffineMap | None:
    return cmap.affine if isinstance(cmap, ExpressionMap) else None


def _contraction_report(tab: _Tables, epsilon, lambda_hat, violated, quad, tested):
    witness = None if quad is None else tuple(tab.pts[i] for i in quad)
    mode = "exhaustive" if tab.exhaustive else "sampled"
    return ContractivityReport(
        epsilon, lambda_hat, violated, witness, tested, mode, vacuous=tested == 0,
        sample_size=tab.sample_size, sample_seed=tab.sample_seed,
    )


def _epsilon_adjacency(tab: _Tables, epsilon):
    # edge i -> j iff pts[i] <= pts[j] and their distance is below epsilon;
    # hops of a chain
    edges = tab.L & (tab.D < epsilon)
    np.fill_diagonal(edges, False)
    return [row.nonzero()[0].tolist() for row in edges]


def _bfs(adj: list[list[int]], src: int) -> tuple[list, list]:
    # hop counts from src and the node each one was first reached from
    hops: list[int | None] = [None] * len(adj)
    parent: list[int | None] = [None] * len(adj)
    hops[src] = 0
    queue = deque([src])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if hops[j] is None:
                hops[j] = hops[i] + 1
                parent[j] = i
                queue.append(j)
    return hops, parent


def find_epsilon_chain(
    space: Space,
    a: Point,
    b: Point,
    epsilon: float,
    candidates: Optional[Sequence[Point]] = None,
) -> Chain | None:
    """Minimum-hop ascending chain from a to b with every gap below epsilon.

    Runs a breadth-first search over the candidate points (all points of a
    finite space by default; a declared grid for boxes, with a and b always
    added), so the returned chain has minimal n over those waypoints and
    never repeats a point. Returns None when no chain exists.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    space.validate_point(a)
    space.validate_point(b)
    if not space.leq(a, b):
        raise DomainError("chain endpoints must satisfy a <= b")
    if a == b:
        return Chain((a,), epsilon)
    tab = _space_tables(space, candidates, extra=(a, b))
    cand = tab.pts
    index = {p: i for i, p in enumerate(cand)}
    adj = _epsilon_adjacency(tab, epsilon)
    src, dst = index[a], index[b]
    hops, parent = _bfs(adj, src)
    if hops[dst] is None:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return Chain(tuple(cand[i] for i in path), epsilon)


def check_epsilon_chainable(
    space: Space,
    epsilon: float,
    candidates: Optional[Sequence[Point]] = None,
) -> HypothesisReport:
    """Minimal chain length for every comparable candidate pair.

    Violated when some comparable pair admits no chain at all (the witness is
    the first such pair in index order); otherwise the report carries the
    largest minimal n, which is what the decay bound consumes. The full
    per-pair table is kept in ``details["chain_n"]``.

    On candidate sets (boxes, or an explicit list) a missing link is not
    conclusive: the space may hold waypoints the sample lacks, so the verdict
    stays ``undetermined-sampled`` with the failing pair recorded.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    tab = _space_tables(space, candidates)
    cand, L = tab.pts, tab.L
    adj = _epsilon_adjacency(tab, epsilon)
    table: dict[tuple[Point, Point], int] = {}
    unreachable: list[tuple[Point, Point]] = []
    for i, p in enumerate(cand):
        hops, _ = _bfs(adj, i)
        for j in L[i].nonzero()[0].tolist():
            q = cand[j]
            if hops[j] is None:
                unreachable.append((p, q))
            else:
                table[(p, q)] = hops[j]
    max_n = max(table.values(), default=0)
    details = {
        "epsilon": epsilon,
        "max_n": max_n,
        "chain_n": table,
        "unreachable": tuple(unreachable),
        "candidates": len(cand),
    }
    witness = None
    if unreachable:
        witness = [point_jsonable(p) for p in unreachable[0]]
    return tab.report("epsilon-chainable", witness, details=details)


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


def _bound_matrices(tab: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order M[p, q] = p <= q over the points under test, and which pairs
    share a common upper bound (UB) or a common lower bound (LB) among them."""
    M = tab.L
    F = M.astype(np.float32)
    return M, (F @ F.T) > 0, (F.T @ F) > 0


def check_common_comparable(
    space: Space, candidates: Optional[Sequence[Point]] = None
) -> HypothesisReport:
    """Every two product points must share a product point comparable to both.

    Product points are ordered pairs of candidates under the product order
    (first component ascending, second descending). Exhaustive on finite
    spaces. On box grids even a failure is reported as sampled: a missing
    grid witness says nothing about the full box.

    The order is transitive, so (x, y) and (u, v) share such a point iff they
    are comparable themselves (x <= u and v <= y, or u <= x and y <= v), or
    UB[x, u] and LB[y, v], or LB[x, u] and UB[y, v]. The four facts about
    (x, u) select which (y, v) relations count, so at most 16 distinct s x s
    patterns decide the verdict in O(s^2) memory. The witness is the first
    failing quadruple in (x, y, u, v) row-major order.
    """
    tab = _space_tables(space, candidates)
    cand = tab.pts
    s = len(cand)
    M, UB, LB = _bound_matrices(tab)
    # bit k of code[x, u] is fact k about (x, u); it selects relation k
    # among the (y, v) relations
    facts = (M, M.T, UB, LB)
    relations = (M.T, M, LB, UB)
    code = np.zeros((s, s), dtype=np.uint8)
    for k, fact in enumerate(facts):
        code[fact] |= 1 << k
    # which codes occur, found without sorting or copying code
    present = np.zeros(16, dtype=bool)
    present[code] = True
    failing = {}  # code -> unlinked (y, v) pattern
    for c in np.flatnonzero(present).tolist():
        linked = np.zeros((s, s), dtype=bool)
        for k, rel in enumerate(relations):
            if c >> k & 1:
                linked |= rel
        if not linked.all():
            failing[c] = ~linked
    witness = None
    if failing:
        is_failing = np.zeros(16, dtype=bool)
        is_failing[list(failing)] = True
        bad_xu = is_failing[code]
        x = int(np.argmax(bad_xu.any(axis=1)))
        us = np.flatnonzero(bad_xu[x])
        # bad_y[i, y]: some v leaves (x, y) and (us[i], v) unlinked
        bad_y = np.array([failing[c].any(axis=1) for c in code[x, us].tolist()])
        y = int(np.argmax(bad_y.any(axis=0)))
        u = int(us[np.argmax(bad_y[:, y])])
        v = int(np.argmax(failing[int(code[x, u])][y]))
        witness = {
            "pair1": [point_jsonable(cand[x]), point_jsonable(cand[y])],
            "pair2": [point_jsonable(cand[u]), point_jsonable(cand[v])],
        }
    return tab.report(
        "common-comparable", witness, sample_size=None if tab.exhaustive else s
    )


def check_pair_bounds(
    space: Space, candidates: Optional[Sequence[Point]] = None
) -> HypothesisReport:
    """Every two candidate points must have a common upper or lower bound."""
    tab = _space_tables(space, candidates)
    cand = tab.pts
    _, upper, lower = _bound_matrices(tab)
    bad = np.argwhere(~(upper | lower))
    witness = None
    if bad.size:
        witness = [point_jsonable(cand[int(v)]) for v in bad[0]]
    return tab.report(
        "pair-bounds", witness, sample_size=None if tab.exhaustive else len(cand)
    )
