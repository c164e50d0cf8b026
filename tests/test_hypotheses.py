"""Hypothesis checks against hand-derived witnesses and ratios.

Key frozen values, each computed before the implementation ran:

* affine (2x - y + 3)/8: ratio 2|2dx - dy|/(8(dx + dy)) peaks at dy = 0
  where it equals exactly 0.5, so the sampled supremum is 0.5 on any grid
  holding an admissible pair with equal second components.
* x*y on [0, 1]: rises in its second argument, so the first grid witness
  on {0, 0.5, 1} is x = 0.5, y1 = 0.0, y2 = 0.5.
* threshold table on the 4-chain at positions 0, 1, 4, 9 (chain4): the
  image jump of size 1 over the input gap 4 - 1 = 3 gives supremum 2/3 at
  the quadruple (2, 1, 0, 0).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import DomainError, SamplingError
from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    Chain,
    SamplingPlan,
    check_common_comparable,
    check_epsilon_chainable,
    check_mixed_monotone,
    check_pair_bounds,
    check_seed,
    estimate_contraction,
    find_epsilon_chain,
    sample_points,
)
from chainfix.instances import generate_finite_instance, load_instance
from chainfix.mappings import TableMap, expression_map
from chainfix.oracle import exhaustive_contraction_check, min_chain_table
from chainfix.solver import SolveConfig, decay_bound
from chainfix.spaces import BoxSpace, FiniteSpace

GRID = SamplingPlan(grid_step=0.5)


def chain_space(n: int, scale: float = 1.0) -> FiniteSpace:
    dist = [[abs(i - j) * scale for j in range(n)] for i in range(n)]
    order = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order)


class TestSamplePoints:
    def test_finite_space_enumerates_everything(self):
        assert sample_points(chain_space(4)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan")])
    def test_rejects_grid_step_that_is_not_positive(self, step):
        box = BoxSpace((0.0,), (1.0,))
        with pytest.raises(SamplingError, match="grid_step must be positive"):
            sample_points(box, SamplingPlan(grid_step=step))

    @pytest.mark.parametrize("upper, step, message", [
        ((20000.0,), 1.0, "grid of 20001 points exceeds the cap of 20000"),
        ((1.0, 1.0), 1 / 200, "grid of 40401 points exceeds the cap of 20000"),
        ((1.0,), 1e-5,
         "grid of over 20000 points on axis 0 alone exceeds the cap of 20000"),
    ])
    def test_rejects_grid_over_the_cap(self, upper, step, message):
        box = BoxSpace((0.0,) * len(upper), upper)
        with pytest.raises(SamplingError) as exc:
            sample_points(box, SamplingPlan(grid_step=step))
        assert str(exc.value) == message

    def test_grid_at_the_cap(self):
        box = BoxSpace((0.0,), (19999.0,))
        pts = sample_points(box, SamplingPlan(grid_step=1.0))
        assert pts == [(float(k),) for k in range(20000)]

    def test_grid_includes_both_endpoints(self):
        box = BoxSpace((0.0,), (1.0,))
        pts = sample_points(box, SamplingPlan(grid_step=0.4))
        assert pts[0] == (0.0,)
        assert pts[-1] == (1.0,)
        assert all(box.contains(p) for p in pts)

    def test_random_points_are_reproducible(self):
        box = BoxSpace((0.0,), (1.0,))
        plan = SamplingPlan(random_count=5, seed=17)
        assert sample_points(box, plan) == sample_points(box, plan)

    def test_empty_plan_rejected_on_box(self):
        box = BoxSpace((0.0,), (1.0,))
        with pytest.raises(SamplingError):
            sample_points(box, SamplingPlan())


class TestMixedMonotone:
    def test_affine_pass_is_exact(self):
        # A = 1/4 and B = 1/8 are nonnegative, so no sample is drawn; the
        # same values behind min are no affine form and stay sampled
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, ["(2*x - y + 3)/8"])
        rep = check_mixed_monotone(cmap, GRID)
        assert rep.as_dict() == {
            "hypothesis": "mixed-monotone", "verdict": HOLDS, "witness": None,
            "sample_seed": None, "sample_size": None, "mode": "exact",
        }
        wrapped = expression_map(box, ["min((2*x - y + 3)/8, (2*x - y + 3)/8)"])
        rep = check_mixed_monotone(wrapped, GRID)
        assert rep.verdict == SAMPLED
        assert rep.passed

    def test_product_violation_witness(self):
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, ["x*y"])
        rep = check_mixed_monotone(cmap, GRID)
        assert rep.verdict == VIOLATED
        w = rep.witness
        assert w["branch"] == "second-argument"
        assert (w["x"], w["y1"], w["y2"]) == (0.5, 0.0, 0.5)

    def test_table_map_exhaustive_verdict(self, chain4_path):
        inst = load_instance(chain4_path)
        assert check_mixed_monotone(inst.cmap).verdict == HOLDS

    def test_table_violation_in_first_argument(self):
        sp = chain_space(3)
        # 0 <= 1 but F(0, y) = 2 > 1 = F(1, y): decreasing in x
        cmap = TableMap(sp, ((2, 2, 2), (1, 1, 1), (0, 0, 0)))
        rep = check_mixed_monotone(cmap)
        assert rep.verdict == VIOLATED
        assert rep.witness["branch"] == "first-argument"
        assert rep.witness["x1"] == 0 and rep.witness["x2"] == 1

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_generated_instances_are_mixed_monotone(self, seed):
        inst = generate_finite_instance(seed)
        assert check_mixed_monotone(inst.cmap).verdict == HOLDS


class TestContraction:
    def test_affine_supremum_is_exactly_half(self):
        # 2 * max(1/4, 1/8) over the whole box, with no quadruple scanned;
        # the wrapped map scans its grid and meets 0.5 there too
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, ["(2*x - y + 3)/8"])
        plan = SamplingPlan(grid_step=0.25)
        rep = estimate_contraction(cmap, 0.3, plan)
        assert rep.verdict == HOLDS
        assert (rep.lambda_hat, rep.mode, rep.pairs_tested, rep.vacuous) == (
            0.5, "exact", 0, False)
        assert (rep.witness, rep.sample_size, rep.sample_seed) == (None, None, None)
        wrapped = expression_map(box, ["min((2*x - y + 3)/8, (2*x - y + 3)/8)"])
        rep = estimate_contraction(wrapped, 0.3, plan)
        assert (rep.verdict, rep.lambda_hat, rep.mode) == (SAMPLED, 0.5, "sampled")

    def test_chain4_supremum_and_first_argmax(self, chain4_path):
        inst = load_instance(chain4_path)
        rep = estimate_contraction(inst.cmap, inst.params.epsilon)
        assert not rep.violated
        assert rep.lambda_hat == 2.0 / 3.0
        assert rep.witness == (2, 1, 0, 0)
        assert rep.mode == "exhaustive"

    def test_f1_violation_witness(self, f1_path):
        inst = load_instance(f1_path)
        rep = estimate_contraction(inst.cmap, inst.params.epsilon)
        assert rep.violated
        assert rep.witness == (1, 0, 0, 0)
        assert rep.lambda_hat is None
        assert rep.verdict == VIOLATED

    def test_no_admissible_quadruple_is_vacuous(self, antichain2_path):
        inst = load_instance(antichain2_path)
        rep = estimate_contraction(inst.cmap, inst.params.epsilon)
        assert rep.vacuous
        assert rep.pairs_tested == 0
        assert rep.lambda_hat == 0.0
        assert rep.witness is None
        assert not rep.violated

    def test_epsilon_must_be_positive(self, chain4_path):
        inst = load_instance(chain4_path)
        with pytest.raises(DomainError):
            estimate_contraction(inst.cmap, 0.0)

    def test_identity_in_first_argument_is_expansive(self):
        sp = chain_space(3)
        cmap = TableMap(sp, ((0, 0, 0), (1, 1, 1), (2, 2, 2)))
        rep = estimate_contraction(cmap, 5.0)
        assert rep.violated
        # first admissible quadruple with x > u and y = v
        assert rep.witness == (1, 0, 0, 0)


class TestChains:
    def test_singleton_chain_for_equal_endpoints(self):
        sp = chain_space(3)
        ch = find_epsilon_chain(sp, 1, 1, 0.5)
        assert ch.points == (1,)
        assert ch.n == 0

    def test_direct_link_when_gap_below_epsilon(self):
        sp = chain_space(3)
        ch = find_epsilon_chain(sp, 0, 1, 1.5)
        assert ch.points == (0, 1)

    def test_four_hops_across_unit_interval(self):
        box = BoxSpace((0.0,), (1.0,))
        cand = sample_points(box, SamplingPlan(grid_step=0.25))
        ch = find_epsilon_chain(box, (0.0,), (1.0,), 0.3, cand)
        assert ch.n == 4
        assert ch.points == ((0.0,), (0.25,), (0.5,), (0.75,), (1.0,))
        ch.validate(box)

    def test_no_chain_when_gap_too_wide(self):
        sp = chain_space(2, scale=2.0)
        assert find_epsilon_chain(sp, 0, 1, 1.0) is None

    def test_endpoints_must_be_ordered(self):
        sp = chain_space(2)
        with pytest.raises(DomainError):
            find_epsilon_chain(sp, 1, 0, 1.5)

    def test_chain_validate_rejects_wide_gap(self):
        sp = chain_space(3)
        with pytest.raises(DomainError):
            Chain((0, 2), 1.5).validate(sp)

    def test_bfs_minimality_against_brute_force(self):
        # every ascending candidate sequence, shortest wins
        sp = chain_space(5, scale=1.0)
        eps = 1.5
        for a, b in itertools.combinations(range(5), 2):
            found = find_epsilon_chain(sp, a, b, eps)
            best = None
            for length in range(2, 6):
                for mid in itertools.product(range(5), repeat=length - 2):
                    seq = (a, *mid, b)
                    ok = all(
                        sp.leq(p, q) and sp.distance(p, q) < eps
                        for p, q in zip(seq, seq[1:])
                    )
                    if ok:
                        best = length - 1
                        break
                if best is not None:
                    break
            assert found.n == best

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_found_chains_always_validate(self, seed):
        inst = generate_finite_instance(seed)
        eps = inst.params.epsilon
        rep = check_epsilon_chainable(inst.space, eps)
        for (p, q), n in rep.details["chain_n"].items():
            ch = find_epsilon_chain(inst.space, p, q, eps)
            assert ch is not None and ch.n == n
            ch.validate(inst.space)


class TestChainable:
    def test_chain4_holds_with_direct_links(self, chain4_path):
        inst = load_instance(chain4_path)
        rep = check_epsilon_chainable(inst.space, inst.params.epsilon)
        assert rep.verdict == HOLDS
        assert rep.details["max_n"] == 1

    def test_f1_max_three_hops(self, f1_path):
        inst = load_instance(f1_path)
        rep = check_epsilon_chainable(inst.space, inst.params.epsilon)
        assert rep.verdict == HOLDS
        assert rep.details["max_n"] == 3
        assert rep.details["chain_n"][(0, 3)] == 3

    def test_small_epsilon_violates_on_finite_space(self):
        sp = chain_space(2, scale=2.0)
        rep = check_epsilon_chainable(sp, 1.0)
        assert rep.verdict == VIOLATED
        assert rep.witness == [0, 1]

    def test_box_candidates_never_conclusively_violate(self):
        box = BoxSpace((0.0,), (1.0,))
        cand = [(0.0,), (1.0,)]  # gap 1.0, no waypoints
        rep = check_epsilon_chainable(box, 0.4, cand)
        assert rep.verdict == SAMPLED
        assert rep.witness == [0.0, 1.0]
        assert rep.details["unreachable"]


class TestSeedCondition:
    def test_holds_on_l1(self, l1_path):
        inst = load_instance(l1_path)
        assert check_seed(inst.cmap, inst.x0, inst.y0).verdict == HOLDS

    def test_reversed_seeds_fail_with_witness(self, l1_path):
        inst = load_instance(l1_path)
        rep = check_seed(inst.cmap, inst.y0, inst.x0)
        assert rep.verdict == VIOLATED
        assert rep.witness["x0_leq_F(x0,y0)"] is False

    def test_conclusive_even_on_boxes(self, l1_path):
        inst = load_instance(l1_path)
        rep = check_seed(inst.cmap, inst.x0, inst.y0)
        assert rep.verdict == HOLDS  # not "undetermined-sampled"


class TestProductStructure:
    def test_chain_has_common_comparable_and_pair_bounds(self, chain4_path):
        inst = load_instance(chain4_path)
        assert check_common_comparable(inst.space).verdict == HOLDS
        assert check_pair_bounds(inst.space).verdict == HOLDS

    def test_antichain_violates_both(self, antichain2_path):
        inst = load_instance(antichain2_path)
        cc = check_common_comparable(inst.space)
        pb = check_pair_bounds(inst.space)
        assert cc.verdict == VIOLATED
        assert pb.verdict == VIOLATED
        assert pb.witness == [0, 1]

    def test_vee_poset_has_bounds_but_no_common_comparable(self):
        # 0 <= 1 and 0 <= 2: every two points share the lower bound 0,
        # yet the product pairs (1, 2) and (2, 1) have no common link
        dist = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        order = [
            [True, True, True],
            [False, True, False],
            [False, False, True],
        ]
        sp = FiniteSpace.from_lists(["r", "s", "t"], dist, order)
        assert check_pair_bounds(sp).verdict == HOLDS
        cc = check_common_comparable(sp)
        assert cc.verdict == VIOLATED

    def test_box_grid_verdicts_stay_sampled(self):
        box = BoxSpace((0.0,), (1.0,))
        cand = sample_points(box, SamplingPlan(grid_step=0.5))
        assert check_common_comparable(box, cand).verdict == SAMPLED
        assert check_pair_bounds(box, cand).verdict == SAMPLED


@pytest.mark.parametrize("call", [
    lambda cmap, eps: estimate_contraction(cmap, eps),
    lambda cmap, eps: find_epsilon_chain(cmap.space, 0, 1, eps),
    lambda cmap, eps: check_epsilon_chainable(cmap.space, eps),
    lambda cmap, eps: exhaustive_contraction_check(cmap, eps),
    lambda cmap, eps: min_chain_table(cmap.space, eps),
    lambda cmap, eps: SolveConfig(epsilon=eps),
    lambda cmap, eps: decay_bound(1, 0.5, eps, 0),
], ids=["contraction", "find-chain", "chainable", "oracle-contraction",
        "oracle-chain-table", "solve-config", "decay-bound"])
def test_nan_epsilon_is_rejected(call):
    # NaN fails every comparison, so "epsilon <= 0" would let it through
    space = chain_space(3)
    cmap = TableMap(space, ((0, 0, 0), (1, 1, 1), (2, 2, 2)))
    with pytest.raises(DomainError, match="epsilon must be positive"):
        call(cmap, float("nan"))
