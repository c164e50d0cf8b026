"""Independent cross-checks for finite instances.

Everything here recomputes what ``hypotheses`` and ``solver`` produce, but
through a different route: block array sweeps where the checking route loops
over quadruples, and frontier expansion, one matrix product per hop level,
where it takes a min-plus closure of hop counts over each intermediate
point. The contraction sweep visits only order-admissible quadruples
(u <= x, y <= v), in blocks of whole (x, u) rows: 1, 2, 4, ... rows, up to
about ``_BLOCK`` quadruples, so a violation in the first rows costs little
and memory does not grow with n^4. Each hop level is a float32 BLAS
product of 0/1 matrices whose entries count paths, at most n, so the
float32 sums are exact. Agreement between the two routes is the core
equivalence guarantee, so this module must not import from ``hypotheses``
beyond the shared report type, and must not share a kernel with it. Both
routes read the space's read-only ``D`` and ``L`` and the map's ``T``
without a copy: reading stored data is not sharing a kernel, and the sweeps
below are this module's own.

The fixed pairs and the chain table are returned as read-only integer
arrays, one row per pair, and stay arrays until ``canonical_json`` writes
them.

Enumeration order is pinned to match: quadruples (x, u, y, v) are scanned
with x outermost and v innermost, row-major, and the first violation (or the
first attainment of the maximal ratio) is reported.
"""

from __future__ import annotations

from typing import NamedTuple

from ._lazy import numpy as np
from .errors import DomainError
from .hypotheses import ContractivityReport
from .mappings import TableMap

_BLOCK = 1 << 16  # quadruples per sweep block, rounded to whole (x, u) rows


def all_coupled_fixed_points(cmap: TableMap) -> np.ndarray:
    """Every pair (x, y) with F(x, y) = x and F(y, x) = y, as the rows of a
    read-only (k, 2) intp array in row-major order."""
    T = cmap.T
    n = T.shape[0]
    fixed_first = T == np.arange(n)[:, None]  # F(x, y) == x
    mask = fixed_first & fixed_first.T  # F(y, x) == y
    return _read_only(np.argwhere(mask))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def exhaustive_contraction_check(cmap: TableMap, epsilon: float) -> ContractivityReport:
    """Scan every order-admissible quadruple with block array arithmetic.

    Only (x, u) pairs with u <= x and (y, v) pairs with y <= v are visited;
    both lists are row-major, so (xu index, yv index) row-major order is the
    (x, u, y, v) order with the order-inadmissible quadruples left out. The
    sweep takes blocks of whole xu rows, first one row, then twice as many
    each time up to about ``_BLOCK`` quadruples, and returns at the first
    block holding a violation. The first violation and the first attainment
    of the maximum are found block by block, so the report does not depend
    on where blocks end.
    Ratio arithmetic is the loop route's (``2.0 * dF / s`` with
    admissibility ``s / 2.0 < epsilon`` and ``s > 0``) so agreement is exact
    in floating point, not approximate.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    D, L, T = cmap.space.D, cmap.space.L, cmap.T
    xs, us = np.nonzero(L.T)  # u <= x
    ys, vs = np.nonzero(L)  # y <= v
    D_xu = D[xs, us]
    D_yv = D[ys, vs]
    # whole xu rows per block; the order is reflexive, so ys is never empty
    cap = max(1, _BLOCK // len(ys))
    best = -np.inf
    best_idx: tuple[int, int, int, int] | None = None
    tested = 0
    r0, rows = 0, 1
    while r0 < len(xs):
        block = slice(r0, r0 + rows)
        r0, rows = r0 + rows, min(2 * rows, cap)
        bx, bu = xs[block], us[block]
        S = D_xu[block, None] + D_yv[None, :]
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
) -> tuple[np.ndarray, list[tuple[int, int]], int]:
    """Minimal ascending-chain hop counts via frontier expansion.

    Returns (table, unreachable comparable pairs, max hop count). The table
    is a read-only (k, 3) intp array with one row (i, j, hops) per
    comparable pair i <= j that a chain links; its rows and the unreachable
    list run in row-major order. Edges are p -> q with p <= q and
    d(p, q) < epsilon.
    Row i of the frontier holds the nodes first reached from i at the
    current level; one matrix product per level advances every source at
    once, for at most n - 1 levels. The product runs on float32 0/1
    matrices (BLAS): an entry counts the frontier nodes with an edge to
    the target, at most n, which float32 sums hold exactly below 2**24.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    n = space.size
    D, L = space.D, space.L
    edges = L & (D < epsilon)
    np.fill_diagonal(edges, False)
    E = edges.astype(np.float32)
    hops = np.full((n, n), -1, dtype=np.intp)
    np.fill_diagonal(hops, 0)
    reached = frontier = np.eye(n, dtype=bool)
    for level in range(1, n):
        frontier = ((frontier.astype(np.float32) @ E) > 0) & ~reached
        if not frontier.any():
            break
        hops[frontier] = level
        reached = reached | frontier
    pairs = np.argwhere(L)  # comparable pairs, row-major
    h = hops[L]
    found = h >= 0
    table = _read_only(np.column_stack((pairs[found], h[found])))
    unreachable = list(map(tuple, pairs[~found].tolist()))
    max_n = int(h.max(initial=0))
    return table, unreachable, max_n


class OracleReport(NamedTuple):
    fixed_points: np.ndarray  # (k, 2) rows (x, y)
    contraction: ContractivityReport
    chain_table: np.ndarray  # (k, 3) rows (i, j, hops)
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
