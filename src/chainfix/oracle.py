"""Independent cross-checks for finite instances.

Everything here recomputes what ``hypotheses`` and ``solver`` produce, but
through a different route: dense numpy array sweeps instead of Python loops,
and boolean matrix frontier expansion instead of hand-rolled BFS. Agreement
between the two routes is the core equivalence guarantee, so this module must
not import from ``hypotheses`` beyond the shared report type, and must not
share loop code with it.

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

_CHUNK = 8  # x-indices per sweep; bounds peak memory at CHUNK * n^3 floats


def all_coupled_fixed_points(cmap: TableMap) -> list[tuple[int, int]]:
    """Every pair (x, y) with F(x, y) = x and F(y, x) = y, row-major."""
    T = np.asarray(cmap.table, dtype=np.intp)
    n = T.shape[0]
    fixed_first = T == np.arange(n)[:, None]  # F(x, y) == x
    mask = fixed_first & fixed_first.T  # F(y, x) == y
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


def exhaustive_contraction_check(cmap: TableMap, epsilon: float) -> ContractivityReport:
    """Scan all admissible quadruples with dense array arithmetic.

    Ratio formula is kept textually identical to the loop route
    (``2.0 * dF / s`` with admissibility ``s / 2.0 < epsilon`` and ``s > 0``)
    so agreement is exact in floating point, not approximate.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    space = cmap.space
    n = space.size
    D = np.asarray(space.dist, dtype=float)
    L = np.asarray(space.order, dtype=bool)
    T = np.asarray(cmap.table, dtype=np.intp)
    XU = L.T  # XU[x, u]: u <= x
    YV = L  # YV[y, v]: y <= v
    best = -np.inf
    best_idx: tuple[int, int, int, int] | None = None
    tested = 0
    for x0 in range(0, n, _CHUNK):
        xs = np.arange(x0, min(x0 + _CHUNK, n))
        # S[a, u, y, v] = d(xs[a], u) + d(y, v)
        S = D[xs][:, :, None, None] + D[None, None, :, :]
        adm = XU[xs][:, :, None, None] & YV[None, None, :, :]
        adm &= (S / 2.0 < epsilon) & (S > 0.0)
        tested += int(adm.sum())
        if not adm.any():
            continue
        # dF[a, u, y, v] = d(F(xs[a], y), F(u, v))
        dF = D[T[xs][:, None, :, None], T[None, :, None, :]]
        safe = np.where(S > 0.0, S, np.inf)
        ratio = np.where(adm, 2.0 * dF / safe, -np.inf)
        vmask = ratio >= 1.0
        if vmask.any():
            flat = int(np.argmax(vmask))  # first True, row-major
            a, u, y, v = np.unravel_index(flat, vmask.shape)
            tested_before = int(adm.flat[: flat + 1].sum())
            return ContractivityReport(
                epsilon,
                None,
                True,
                (int(xs[a]), int(u), int(y), int(v)),
                tested - int(adm.sum()) + tested_before,
                "exhaustive",
            )
        m = float(ratio.max())
        if m > best:
            best = m
            flat = int(np.argmax(ratio == m))
            a, u, y, v = np.unravel_index(flat, ratio.shape)
            best_idx = (int(xs[a]), int(u), int(y), int(v))
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
    max hop count). Edges are p -> q with p <= q and d(p, q) < epsilon.
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
    table: dict[tuple[int, int], int] = {}
    unreachable: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if not L[i, j]:
                continue
            h = int(hops[i, j])
            if h < 0:
                unreachable.append((i, j))
            else:
                table[(i, j)] = h
    max_n = max(table.values(), default=0)
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
