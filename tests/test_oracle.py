"""Vectorized route checked on its own terms, then against the loop route.

The agreement tests here are small and targeted; the broad sweep over a
hundred generated instances lives in the acceptance suite.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import DomainError
from chainfix.hypotheses import check_epsilon_chainable, estimate_contraction
from chainfix.instances import generate_finite_instance, load_instance
from chainfix.mappings import TableMap
from chainfix.oracle import (
    all_coupled_fixed_points,
    exhaustive_contraction_check,
    min_chain_table,
    oracle_report,
)
from chainfix.spaces import FiniteSpace


def chain_space(n: int) -> FiniteSpace:
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    order = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order)


class TestFixedPoints:
    def test_f1_has_exactly_three(self, f1_path):
        inst = load_instance(f1_path)
        assert all_coupled_fixed_points(inst.cmap) == [(0, 0), (0, 1), (1, 0)]

    def test_identity_in_first_argument_fixes_everything(self, antichain2_path):
        inst = load_instance(antichain2_path)
        assert all_coupled_fixed_points(inst.cmap) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_constant_map_fixes_single_diagonal_pair(self):
        sp = chain_space(3)
        cmap = TableMap(sp, ((1, 1, 1),) * 3)
        assert all_coupled_fixed_points(cmap) == [(1, 1)]

    def test_chain4_unique(self, chain4_path):
        inst = load_instance(chain4_path)
        assert all_coupled_fixed_points(inst.cmap) == [(0, 0)]


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


class TestChainTable:
    def test_f1_table(self, f1_path):
        inst = load_instance(f1_path)
        table, unreachable, max_n = min_chain_table(
            inst.space, inst.params.epsilon
        )
        assert unreachable == []
        assert max_n == 3
        assert table[(0, 3)] == 3
        assert table[(1, 1)] == 0

    def test_unreachable_pair_reported(self):
        sp = chain_space(2)
        table, unreachable, max_n = min_chain_table(sp, 0.5)
        assert unreachable == [(0, 1)]
        assert table == {(0, 0): 0, (1, 1): 0}
        assert max_n == 0

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_bfs_route(self, seed):
        inst = generate_finite_instance(seed)
        eps = inst.params.epsilon
        table, unreachable, max_n = min_chain_table(inst.space, eps)
        rep = check_epsilon_chainable(inst.space, eps)
        assert rep.details["chain_n"] == table
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
                assert table == ref
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
    assert rep.fixed_points == [(0, 0)]
    assert rep.max_chain_n == 1
    assert rep.unreachable == []
    assert rep.contraction.lambda_hat == 2.0 / 3.0
