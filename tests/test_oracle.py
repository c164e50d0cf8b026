"""Vectorized route checked on its own terms, then against the loop route.

The agreement tests here are small and targeted; the broad sweep over a
hundred generated instances lives in the acceptance suite.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix import oracle
from chainfix.errors import DomainError
from chainfix.hypotheses import (
    ContractivityReport,
    check_epsilon_chainable,
    estimate_contraction,
)
from chainfix.instances import generate_finite_instance, load_instance
from chainfix.mappings import TableMap
from chainfix.oracle import (
    all_coupled_fixed_points,
    exhaustive_contraction_check,
    min_chain_table,
    oracle_report,
)
from chainfix.spaces import FiniteSpace


def chain_space(n: int, positions=None) -> FiniteSpace:
    p = list(range(n)) if positions is None else positions
    dist = [[abs(p[i] - p[j]) for j in range(n)] for i in range(n)]
    order = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order)


def dense_contraction_reference(cmap: TableMap, epsilon: float) -> ContractivityReport:
    """The earlier sweep over all n^4 quadruples, eight x-indices at a time.

    Kept only as a reference for the order-admissible block sweep.
    """
    n = cmap.space.size
    D = np.asarray(cmap.space.dist, dtype=float)
    L = np.asarray(cmap.space.order, dtype=bool)
    T = cmap.T
    XU = L.T  # XU[x, u]: u <= x
    YV = L  # YV[y, v]: y <= v
    best = -np.inf
    best_idx = None
    tested = 0
    for x0 in range(0, n, 8):
        xs = np.arange(x0, min(x0 + 8, n))
        S = D[xs][:, :, None, None] + D[None, None, :, :]
        adm = XU[xs][:, :, None, None] & YV[None, None, :, :]
        adm &= (S / 2.0 < epsilon) & (S > 0.0)
        tested += int(adm.sum())
        if not adm.any():
            continue
        dF = D[T[xs][:, None, :, None], T[None, :, None, :]]
        safe = np.where(S > 0.0, S, np.inf)
        ratio = np.where(adm, 2.0 * dF / safe, -np.inf)
        vmask = ratio >= 1.0
        if vmask.any():
            flat = int(np.argmax(vmask))
            a, u, y, v = np.unravel_index(flat, vmask.shape)
            tested_before = int(adm.flat[: flat + 1].sum())
            return ContractivityReport(
                epsilon, None, True, (int(xs[a]), int(u), int(y), int(v)),
                tested - int(adm.sum()) + tested_before, "exhaustive",
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


def assert_same_report(got: ContractivityReport, ref: ContractivityReport):
    assert got.violated == ref.violated
    assert got.witness == ref.witness
    assert repr(got.lambda_hat) == repr(ref.lambda_hat)  # bitwise
    assert got.pairs_tested == ref.pairs_tested
    assert got.vacuous == ref.vacuous


def block_of(space: FiniteSpace, quad) -> int:
    """Index of the sweep block that holds quadruple (x, u, y, v)."""
    L = np.asarray(space.order, dtype=bool)
    xs, us = np.nonzero(L.T)
    row = int(np.flatnonzero((xs == quad[0]) & (us == quad[1]))[0])
    return row // max(1, oracle._BLOCK // int(L.sum()))


class TestFixedPoints:
    def test_f1_has_exactly_three(self, f1_path):
        inst = load_instance(f1_path)
        assert all_coupled_fixed_points(inst.cmap).tolist() == [
            [0, 0], [0, 1], [1, 0],
        ]

    def test_identity_in_first_argument_fixes_everything(self, antichain2_path):
        inst = load_instance(antichain2_path)
        assert all_coupled_fixed_points(inst.cmap).tolist() == [
            [0, 0], [0, 1], [1, 0], [1, 1],
        ]

    def test_constant_map_fixes_single_diagonal_pair(self):
        sp = chain_space(3)
        cmap = TableMap(sp, ((1, 1, 1),) * 3)
        assert all_coupled_fixed_points(cmap).tolist() == [[1, 1]]

    def test_chain4_unique(self, chain4_path):
        inst = load_instance(chain4_path)
        assert all_coupled_fixed_points(inst.cmap).tolist() == [[0, 0]]


class TestContractionCheck:
    def test_chain4_supremum(self, chain4_path):
        # threshold map: image jump 1 over input gap 3, hence 2/3
        inst = load_instance(chain4_path)
        rep = exhaustive_contraction_check(inst.cmap, inst.params.epsilon)
        assert not rep.violated
        assert rep.lambda_hat == 2.0 / 3.0
        assert rep.witness == (2, 1, 0, 0)

    def test_f1_violation_first_in_enumeration_order(self, f1_path):
        inst = load_instance(f1_path)
        rep = exhaustive_contraction_check(inst.cmap, inst.params.epsilon)
        assert rep.violated
        assert rep.witness == (1, 0, 0, 0)
        assert rep.lambda_hat is None

    def test_vacuous_when_nothing_is_admissible(self, antichain2_path):
        inst = load_instance(antichain2_path)
        rep = exhaustive_contraction_check(inst.cmap, inst.params.epsilon)
        assert rep.vacuous
        assert rep.pairs_tested == 0
        assert not rep.violated
        assert rep.lambda_hat == 0.0

    def test_rejects_nonpositive_epsilon(self, chain4_path):
        inst = load_instance(chain4_path)
        with pytest.raises(DomainError):
            exhaustive_contraction_check(inst.cmap, -1.0)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_loop_route(self, seed):
        inst = generate_finite_instance(seed)
        eps = inst.params.epsilon
        vec = exhaustive_contraction_check(inst.cmap, eps)
        loop = estimate_contraction(inst.cmap, eps)
        assert vec.vacuous == loop.vacuous
        assert vec.violated == loop.violated
        assert vec.witness == loop.witness
        assert vec.lambda_hat == loop.lambda_hat  # bitwise, not approximate
        assert vec.pairs_tested == loop.pairs_tested


class TestBlockSweep:
    """The order-admissible block sweep against the dense all-n^4 sweep."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=64),
        st.sampled_from(["vacuous", "partial", "base", "full"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_dense_reference(self, seed, size, regime, constant):
        inst = generate_finite_instance(seed, size)
        space = inst.space
        D = np.asarray(space.dist, dtype=float)
        eps = {
            # every nonzero mean distance is at least half the smallest one
            "vacuous": float(D[D > 0].min()) / 2.0,
            "partial": 0.6 * inst.params.epsilon,
            "base": inst.params.epsilon,
            # above the diameter, every order-admissible quadruple counts
            "full": float(D.max()) + 1.0,
        }[regime]
        cmap = inst.cmap
        if constant:
            c = seed % size
            cmap = TableMap(space, ((c,) * size,) * size)
        got = exhaustive_contraction_check(cmap, eps)
        assert_same_report(got, dense_contraction_reference(cmap, eps))
        if regime == "vacuous":
            assert got.vacuous
        if regime == "full" and not got.violated:
            L = np.asarray(space.order, dtype=bool)
            assert got.pairs_tested == int(L.sum()) ** 2 - size * size

    def test_violation_in_a_later_block(self):
        # F jumps one unit where x crosses 59 -> 60, a unit step: ratio 2
        n = 64
        cmap = TableMap(chain_space(n), tuple(
            (int(x >= 60),) * n for x in range(n)))
        got = exhaustive_contraction_check(cmap, 1.0)
        assert got.violated
        assert got.witness == (60, 59, 0, 0)
        assert block_of(cmap.space, got.witness) > 0
        assert_same_report(got, dense_contraction_reference(cmap, 1.0))
        assert_same_report(got, estimate_contraction(cmap, 1.0))

    def test_tied_maximum_keeps_the_first_block(self):
        # F steps by one unit where x crosses 3 -> 4 and 59 -> 60; both input
        # gaps are 3, so the ratio 2/3 is attained in two far-apart blocks
        n = 64
        positions = [0, 1, 2, 3] + [i + 2 for i in range(4, 60)]
        positions += [i + 4 for i in range(60, n)]
        cmap = TableMap(chain_space(n, positions), tuple(
            (int(x >= 4) + int(x >= 60),) * n for x in range(n)))
        got = exhaustive_contraction_check(cmap, 2.0)
        assert not got.violated
        assert got.lambda_hat == 2.0 / 3.0
        assert got.witness == (4, 3, 0, 0)
        later = (60, 59, 0, 0)
        assert block_of(cmap.space, later) > block_of(cmap.space, got.witness)
        assert_same_report(got, dense_contraction_reference(cmap, 2.0))
        assert_same_report(got, estimate_contraction(cmap, 2.0))

    def test_peak_memory_stays_small(self):
        inst = generate_finite_instance(420, 64)  # constant map: full sweep
        tracemalloc.start()
        try:
            rep = exhaustive_contraction_check(inst.cmap, inst.params.epsilon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pairs_tested > 3_000_000
        assert peak < 16 * 2**20


class TestChainTable:
    def test_f1_table(self, f1_path):
        inst = load_instance(f1_path)
        table, unreachable, max_n = min_chain_table(
            inst.space, inst.params.epsilon
        )
        assert unreachable == []
        assert max_n == 3
        hops = {(i, j): h for i, j, h in table.tolist()}
        assert hops[(0, 3)] == 3
        assert hops[(1, 1)] == 0

    def test_unreachable_pair_reported(self):
        sp = chain_space(2)
        table, unreachable, max_n = min_chain_table(sp, 0.5)
        assert unreachable == [(0, 1)]
        assert table.tolist() == [[0, 0, 0], [1, 1, 0]]
        assert max_n == 0

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_bfs_route(self, seed):
        inst = generate_finite_instance(seed)
        eps = inst.params.epsilon
        table, unreachable, max_n = min_chain_table(inst.space, eps)
        rep = check_epsilon_chainable(inst.space, eps)
        assert list(rep.details["chain_n"].items()) == [
            ((i, j), h) for i, j, h in table.tolist()
        ]
        assert list(rep.details["unreachable"]) == unreachable
        assert rep.details["max_n"] == max_n

    def test_matches_scipy_shortest_path(self):
        sparse = pytest.importorskip("scipy.sparse")
        from scipy.sparse.csgraph import shortest_path

        unreachable_seen = 0
        for seed in range(50):
            inst = generate_finite_instance(seed)
            space, base = inst.space, inst.params.epsilon
            L = np.asarray(space.order, dtype=bool)
            for eps in (0.3 * base, 0.75 * base, base, 2.0 * base):
                edges = L & (np.asarray(space.dist, dtype=float) < eps)
                np.fill_diagonal(edges, False)
                hops = shortest_path(sparse.csr_matrix(edges.astype(np.int8)),
                                     method="D", directed=True, unweighted=True)
                pairs = [(i, j) for i in range(space.size)
                         for j in range(space.size) if L[i, j]]
                ref = {p: int(hops[p]) for p in pairs if np.isfinite(hops[p])}
                ref_unreachable = [p for p in pairs if np.isinf(hops[p])]
                table, unreachable, max_n = min_chain_table(space, eps)
                assert {(i, j): h for i, j, h in table.tolist()} == ref
                assert unreachable == ref_unreachable
                assert max_n == max(ref.values(), default=0)
                unreachable_seen += bool(unreachable)
        assert unreachable_seen > 0


def test_import_loads_no_scipy():
    import chainfix

    src = os.path.dirname(os.path.dirname(chainfix.__file__))
    code = ("import sys, chainfix, chainfix.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_oracle_report_bundles_everything(chain4_path):
    inst = load_instance(chain4_path)
    rep = oracle_report(inst.cmap, inst.params.epsilon)
    assert rep.fixed_points.tolist() == [[0, 0]]
    assert rep.max_chain_n == 1
    assert rep.unreachable == []
    assert rep.contraction.lambda_hat == 2.0 / 3.0
