"""Independent cross-checks for finite instances.

Everything here recomputes what ``hypotheses`` and ``solver`` produce, but
through a different route: numpy array sweeps instead of Python loops, and
boolean matrix frontier expansion instead of hand-rolled BFS. The contraction
sweep visits only order-admissible quadruples (u <= x, y <= v), in blocks of
a fixed size, so its memory does not grow with n^4. Agreement between the two
routes is the core equivalence guarantee, so this module must not import from
``hypotheses`` beyond the shared report type, and must not share loop code
with it.

Enumeration order is pinned to match: quadruples (x, u, y, v) are scanned
with x outermost and v innermost, row-major, and the first violation (or the
first attainment of the maximal ratio) is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hypotheses import ContractivityReport
from .mappings import TableMap

_BLOCK = 1 << 16  # quadruples per sweep block, rounded to whole (x, u) rows


def all_coupled_fixed_points(cmap: TableMap) -> list[tuple[int, int]]:
    """Every pair (x, y) with F(x, y) = x and F(y, x) = y, row-major."""
    T = np.asarray(cmap.table, dtype=np.intp)
    n = T.shape[0]
    fixed_first = T == np.arange(n)[:, None]  # F(x, y) == x
    mask = fixed_first & fixed_first.T  # F(y, x) == y
    return list(map(tuple, np.argwhere(mask).tolist()))


def exhaustive_contraction_check(cmap: TableMap, epsilon: float) -> ContractivityReport:
    """Scan every order-admissible quadruple with block array arithmetic.

    Only (x, u) pairs with u <= x and (y, v) pairs with y <= v are visited;
    both lists are row-major, so (xu index, yv index) row-major order is the
    (x, u, y, v) order with the order-inadmissible quadruples left out. The
    sweep takes whole xu rows, about ``_BLOCK`` quadruples at a time, and
    returns at the first block holding a violation.
    Ratio arithmetic is the loop route's (``2.0 * dF / s`` with
    admissibility ``s / 2.0 < epsilon`` and ``s > 0``) so agreement is exact
    in floating point, not approximate.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    space = cmap.space
    D = np.asarray(space.dist, dtype=float)
    L = np.asarray(space.order, dtype=bool)
    T = np.asarray(cmap.table, dtype=np.intp)
    xs, us = np.nonzero(L.T)  # u <= x
    ys, vs = np.nonzero(L)  # y <= v
    D_xu = D[xs, us]
    D_yv = D[ys, vs]
    # whole xu rows per block; the order is reflexive, so ys is never empty
    rows = max(1, _BLOCK // len(ys))
    best = -np.inf
    best_idx: tuple[int, int, int, int] | None = None
    tested = 0
    for r0 in range(0, len(xs), rows):
        bx, bu = xs[r0 : r0 + rows], us[r0 : r0 + rows]
        S = D_xu[r0 : r0 + rows, None] + D_yv[None, :]
        adm = (S / 2.0 < epsilon) & (S > 0.0)
        count = int(np.count_nonzero(adm))
        if not count:
            continue
        dF = D[T[bx][:, ys], T[bu][:, vs]]
        # ratio = 2.0 * dF / S on admissible entries, -inf elsewhere
        ratio = np.divide(2.0 * dF, S, out=np.full(S.shape, -np.inf), where=adm)
        vmask = ratio >= 1.0
        if vmask.any():
            flat = int(np.argmax(vmask))  # first True, row-major
            a, b = np.unravel_index(flat, vmask.shape)
            return ContractivityReport(
                epsilon,
                None,
                True,
                (int(bx[a]), int(bu[a]), int(ys[b]), int(vs[b])),
                tested + int(np.count_nonzero(adm.flat[: flat + 1])),
                "exhaustive",
            )
        tested += count
        flat = int(np.argmax(ratio))  # first attainment of the block maximum
        m = float(ratio.flat[flat])
        if m > best:
            best = m
            a, b = np.unravel_index(flat, ratio.shape)
            best_idx = (int(bx[a]), int(bu[a]), int(ys[b]), int(vs[b]))
    if tested == 0:
        return ContractivityReport(
            epsilon, 0.0, False, None, 0, "exhaustive", vacuous=True
        )
    return ContractivityReport(epsilon, best, False, best_idx, tested, "exhaustive")


def min_chain_table(
    space, epsilon: float
) -> tuple[dict[tuple[int, int], int], list[tuple[int, int]], int]:
    """Minimal ascending-chain hop counts via boolean frontier expansion.

    Returns (table over comparable pairs, unreachable comparable pairs,
    max hop count); the table's keys and the unreachable list run in
    row-major order. Edges are p -> q with p <= q and d(p, q) < epsilon.
    Row i of the frontier holds the nodes first reached from i at the
    current level; one boolean matrix product per level advances every
    source at once, for at most n - 1 levels.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    n = space.size
    D = np.asarray(space.dist, dtype=float)
    L = np.asarray(space.order, dtype=bool)
    edges = L & (D < epsilon)
    np.fill_diagonal(edges, False)
    hops = np.full((n, n), -1, dtype=np.intp)
    np.fill_diagonal(hops, 0)
    reached = frontier = np.eye(n, dtype=bool)
    for level in range(1, n):
        frontier = (frontier @ edges) & ~reached
        if not frontier.any():
            break
        hops[frontier] = level
        reached = reached | frontier
    pairs = np.argwhere(L)  # comparable pairs, row-major
    h = hops[L]
    found = h >= 0
    table = dict(zip(map(tuple, pairs[found].tolist()), h[found].tolist()))
    unreachable = list(map(tuple, pairs[~found].tolist()))
    max_n = int(h.max(initial=0))
    return table, unreachable, max_n


@dataclass(frozen=True)
class OracleReport:
    fixed_points: list[tuple[int, int]]
    contraction: ContractivityReport
    chain_table: dict[tuple[int, int], int]
    unreachable: list[tuple[int, int]]
    max_chain_n: int


def oracle_report(cmap: TableMap, epsilon: float) -> OracleReport:
    table, unreachable, max_n = min_chain_table(cmap.space, epsilon)
    return OracleReport(
        fixed_points=all_coupled_fixed_points(cmap),
        contraction=exhaustive_contraction_check(cmap, epsilon),
        chain_table=table,
        unreachable=unreachable,
        max_chain_n=max_n,
    )
