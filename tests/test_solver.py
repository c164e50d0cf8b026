"""Solver behavior on the hand instances.

Frozen expectations derived before implementation:

* decay ceiling 2 * n * lam**m * eps at n=4, lam=0.5, eps=0.3, m=5:
  8 * 0.3 / 32 = 0.075 exactly.
* the affine instance contracts toward x = y = 3/7 (linear solve, see
  test_mappings); its iterate error shrinks by at least 3/8 per step, so
  sixty iterations at tolerance 1e-10 are ample.
* chain4 reaches (0, 0) in two steps from (0, 3): y walks 3 -> 1 -> 0.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import DomainError
from chainfix.instances import generate_finite_instance, load_instance
from chainfix.mappings import TableMap, expression_map
from chainfix.pipeline import build_config, run_hypothesis_suite, uncertified
from chainfix.solver import (
    BoundRow,
    SolveConfig,
    below_bound,
    collapse_check,
    decay_bound,
    picard_solve,
    verify_decay_bound,
)
from chainfix.spaces import BoxSpace, FiniteSpace


def residual(cmap, x, y):
    """The coupled residual d(x, F(x, y)) + d(y, F(y, x)), through the
    validating public ``apply`` and ``distance``."""
    d = cmap.space.distance
    return d(x, cmap.apply(x, y)) + d(y, cmap.apply(y, x))


def solve_instance(path):
    inst = load_instance(path)
    suite = run_hypothesis_suite(inst)
    cfg = build_config(inst, suite)
    return inst, cfg, picard_solve(inst.cmap, inst.x0, inst.y0, cfg)


class TestDecayBound:
    def test_frozen_value(self):
        assert decay_bound(4, 0.5, 0.3, 5) == 0.075

    def test_monotone_decreasing_in_m(self):
        values = [decay_bound(3, 0.7, 1.0, m) for m in range(20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(DomainError):
            decay_bound(0, 0.5, 0.3, 1)
        with pytest.raises(DomainError):
            decay_bound(1, 1.0, 0.3, 1)
        with pytest.raises(DomainError):
            decay_bound(1, 0.5, 0.0, 1)
        with pytest.raises(DomainError):
            decay_bound(1, 0.5, 0.3, -1)


class TestSolveConfig:
    # the 2-point antichain whose table sends (0, 0) to (1, 1) and back: its
    # orbit never converges, so only the iteration cap stops the solve
    ANTICHAIN = (("p", "q"), ((0, 1), (1, 0)), [[True, False], [False, True]])

    @pytest.mark.parametrize("field, value, reason", [
        ("max_iterations", 2.5, "an integer"),  # m == 2.5 never holds
        ("max_iterations", True, "an integer"),
        ("max_iterations", 0, "at least 1"),
        ("residual_tolerance", math.inf, "finite positive"),  # converged at once
        ("residual_tolerance", math.nan, "finite positive"),
        ("residual_tolerance", 0.0, "finite positive"),
    ])
    def test_refuses_an_unbounded_loop(self, field, value, reason):
        with pytest.raises(DomainError, match=f"{field} must be .*{reason}"):
            SolveConfig(**{field: value})

    @pytest.mark.parametrize("field, value, reason", [
        ("epsilon", math.inf, "positive and finite"),  # every bound would be inf
        ("epsilon", math.nan, "positive and finite"),
        ("epsilon", 0.0, "positive and finite"),
        ("chain_n", 2.5, "an integer"),
        ("chain_n", True, "an integer"),  # a bool is no int
        ("chain_n", 0, "at least 1"),
    ])
    def test_refuses_a_vacuous_certificate(self, field, value, reason):
        factors = {"lam": 0.5, "epsilon": 0.6, "chain_n": 4, field: value}
        with pytest.raises(DomainError, match=f"{field} must be .*{reason}"):
            SolveConfig(**factors, lambda_certified=True)

    def test_cap_stops_an_orbit_that_never_converges(self):
        cmap = TableMap(FiniteSpace(*self.ANTICHAIN), [[1, 1], [0, 0]])
        res = picard_solve(cmap, 0, 0, SolveConfig(max_iterations=3))
        assert (res.status, res.iterations_used, res.residual) == (
            "max-iterations-exhausted", 3, 2)


class TestPicard:
    def test_l1_converges_to_three_sevenths(self, l1_path):
        inst, cfg, res = solve_instance(l1_path)
        assert res.converged
        assert res.iterations_used <= 60
        c = 3.0 / 7.0
        assert abs(res.x[0] - c) <= 1e-10
        assert abs(res.y[0] - c) <= 1e-10

    def test_l1_gap_within_twice_tolerance(self, l1_path):
        inst, cfg, res = solve_instance(l1_path)
        assert res.gap <= 2.0 * cfg.residual_tolerance

    def test_chain4_two_steps(self, chain4_path):
        inst, cfg, res = solve_instance(chain4_path)
        assert res.converged
        assert res.iterations_used == 2
        assert (res.x, res.y) == (0, 0)
        assert res.residual == 0.0

    def test_trace_rows_carry_step_identity(self, l1_path):
        # the step recorded at row m+1 is the residual recorded at row m
        inst, cfg, res = solve_instance(l1_path)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur.eta_step == prev.residual

    def test_trace_residual_contracts_per_step(self, l1_path):
        inst, cfg, res = solve_instance(l1_path)
        lam = cfg.lam
        rows = [r for r in res.trace if r.residual > cfg.residual_tolerance]
        for prev, cur in zip(rows, rows[1:]):
            assert cur.residual <= lam * prev.residual + 1e-15

    def test_exhaustion_reports_last_iterate(self, l1_path):
        inst = load_instance(l1_path)
        cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=3)
        res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
        assert res.status == "max-iterations-exhausted"
        assert res.iterations_used == 3
        assert res.residual == residual(inst.cmap, res.x, res.y)

    def test_escape_reports_divergence(self):
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, ["x + y"])  # leaves the box quickly
        res = picard_solve(cmap, (0.5,), (0.75,), SolveConfig())
        assert res.status == "diverged-from-box"
        assert math.isinf(res.residual)

    def test_fixed_pair_requires_convergence(self, l1_path):
        inst = load_instance(l1_path)
        cfg = SolveConfig(residual_tolerance=1e-10, max_iterations=2)
        res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
        with pytest.raises(DomainError):
            res.fixed_pair

    def test_bound_rows_recorded_when_certified(self, chain4_path):
        inst, cfg, res = solve_instance(chain4_path)
        assert cfg.lambda_certified
        assert uncertified(inst, run_hypothesis_suite(inst)) == ()
        assert res.bound_check
        for row in res.bound_check:
            assert row.observed < row.bound

    def test_monotone_trajectories_when_certified(self, chain4_path):
        inst, cfg, res = solve_instance(chain4_path)
        leq = inst.space.leq
        xs = [r.x for r in res.trace]
        ys = [r.y for r in res.trace]
        assert all(leq(a, b) for a, b in zip(xs, xs[1:]))
        assert all(leq(b, a) for a, b in zip(ys, ys[1:]))

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_generated_instances_step_identity(self, seed):
        inst = generate_finite_instance(seed)
        cfg = SolveConfig(
            residual_tolerance=inst.params.tolerance,
            max_iterations=inst.params.max_iterations,
        )
        res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur.eta_step == prev.residual


class TestDecayReport:
    def test_chain4_streams_stay_below_ceiling(self, chain4_path):
        inst = load_instance(chain4_path)
        suite = run_hypothesis_suite(inst)
        cfg = build_config(inst, suite)
        rep = verify_decay_bound(
            inst.cmap,
            (inst.x0, inst.y0),
            cfg,
            horizon=20,
        )
        assert rep.all_below_bound is True
        assert rep.escaped_at is None
        assert uncertified(inst, suite) == ()
        assert rep.rows[0].observed == 8.0  # d(0,0) + d(3,1)
        assert rep.final_observed == 0.0

    def test_uncertified_hypotheses_are_listed(self, l1_path):
        # the affine map proves monotonicity and contraction from its
        # coefficients (lambda_hat 0.5) and the box proves chainability, so
        # only a claimed factor below 0.5 is listed
        inst = load_instance(l1_path)
        assert uncertified(inst, run_hypothesis_suite(inst)) == ()
        low = inst._replace(params=inst.params._replace(lambda_claimed=0.4))
        reasons = uncertified(low, run_hypothesis_suite(low))
        assert reasons == ("uniform-local-contraction",)

    def test_escape_stops_the_rows(self):
        # F jumps out of [0, 1] only near x = 0.45, where (0, 1) lands
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, ["0.45 + 1000*max(0, 0.001 - abs(x - 0.45))"])
        cfg = SolveConfig(lam=0.5, epsilon=0.6, chain_n=1)
        rep = verify_decay_bound(cmap, ((0.0,), (1.0,)), cfg, horizon=5)
        assert rep.escaped_at == 1
        assert [row.m for row in rep.rows] == [0]
        assert rep.final_observed == rep.rows[0].observed == 1.0
        assert rep.all_below_bound is True  # row 0 only: 1.0 < 2 * 0.6

    @pytest.mark.parametrize("horizon", [-1, 2.5, None])
    def test_horizon_must_be_a_nonnegative_integer(self, chain4_path, horizon):
        inst = load_instance(chain4_path)
        pair = (inst.x0, inst.y0)
        with pytest.raises(DomainError, match="horizon"):
            verify_decay_bound(inst.cmap, pair, SolveConfig(), horizon)

    def test_observed_equal_to_bound_is_not_below(self):
        # the lemma's ceiling is strict: eta_m < 2 n lam^m eps
        assert below_bound([BoundRow(0, 1.0, 2.0)]) is True
        assert below_bound([BoundRow(0, 1.0, 2.0), BoundRow(1, 0.5, 0.5)]) is False

    def test_zero_gap_is_below_an_underflowed_bound(self):
        # 2 n lam^m eps is positive for every m, though its float reaches 0.0
        assert decay_bound(4, 0.5, 1.0, 1100) == 0.0
        assert below_bound([BoundRow(1100, 0.0, 0.0)]) is True
        assert below_bound([BoundRow(0, 1.0, 2.0), BoundRow(1, 0.0, 0.0)]) is True
        assert below_bound([BoundRow(1100, 5e-324, 0.0)]) is False

    def test_no_bound_without_lambda(self, chain4_path):
        inst = load_instance(chain4_path)
        cfg = SolveConfig()  # no lam, epsilon, chain_n
        rep = verify_decay_bound(inst.cmap, (inst.x0, inst.y0), cfg, horizon=5)
        assert rep.all_below_bound is None
        assert all(math.isnan(r.bound) for r in rep.rows)


class TestCollapse:
    def test_l1_collapses_on_comparable_seeds(self, l1_path):
        inst, cfg, res = solve_instance(l1_path)
        verdict = collapse_check(
            res, inst.space,
            x0=inst.x0, y0=inst.y0, pair_bounds=False,
            residual_tolerance=cfg.residual_tolerance,
        )
        assert verdict.verdict == "holds"
        assert verdict.mode == "comparable-seeds"
        assert verdict.gap <= 2e-10

    def test_f1_fixed_pair_does_not_collapse(self, f1_path):
        # contraction fails on f1, and the solve lands on (0, 1): gap 1
        inst, cfg, res = solve_instance(f1_path)
        verdict = collapse_check(
            res, inst.space,
            x0=inst.x0, y0=inst.y0, pair_bounds=True,
            residual_tolerance=cfg.residual_tolerance,
        )
        assert verdict.verdict == "violated"
        assert verdict.mode == "comparable-seeds"
        assert verdict.gap == 1.0

    def test_not_applicable_without_pair_bounds(self, antichain2_path):
        inst, cfg, res = solve_instance(antichain2_path)
        verdict = collapse_check(
            res, inst.space,
            x0=inst.x0, y0=inst.y0, pair_bounds=False,
            residual_tolerance=cfg.residual_tolerance,
        )
        assert verdict.verdict == "not-applicable"
        assert verdict.mode == "pair-bounds"
