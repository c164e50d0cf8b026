"""Hypothesis checks against hand-derived witnesses and ratios.

Key frozen values, each computed before the implementation ran:

* x/4 on [-1, 1]: ratio 2|dx|/(4(dx + dy)) peaks at dy = 0 where it
  equals exactly 0.5, and float64 evaluates x/4 and its differences
  exactly there, so the sampled supremum is 0.5 on any sample holding an
  admissible pair with equal second components.
* x*y on [0, 1]: rises in its second argument, so the first grid witness
  on {0, 0.5, 1} is x = 0.5, y1 = 0.0, y2 = 0.5.
* threshold table on the 4-chain at positions 0, 1, 4, 9 (chain4): the
  image jump of size 1 over the input gap 4 - 1 = 3 gives supremum 2/3 at
  the quadruple (2, 1, 0, 0).
"""

import itertools
import json
import math
import runpy
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainfix import hypotheses
from chainfix.errors import DomainError, SamplingError
from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    Chain,
    check_common_comparable,
    check_epsilon_chainable,
    check_mixed_monotone,
    check_pair_bounds,
    check_seed,
    estimate_contraction,
    find_epsilon_chain,
    sample_points,
)
from chainfix.instances import (
    MAX_ITERATIONS,
    generate_finite_instance,
    load_instance,
    parse_instance,
)
from chainfix.mappings import TableMap, expression_map
from chainfix.oracle import exhaustive_contraction_check, min_chain_table
from chainfix.solver import SolveConfig, decay_bound
from chainfix.spaces import BoxSpace, FiniteSpace

GRID = 0.5  # grid step of a box sample, followed by 8 seeded draws


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
            sample_points(box, step)

    @pytest.mark.parametrize("upper, step, message", [
        ((20000.0,), 1.0, "grid of 20001 points exceeds the cap of 20000"),
        ((1.0, 1.0), 1 / 200, "grid of 40401 points exceeds the cap of 20000"),
        ((1.0,), 1e-5,
         "grid of over 20000 points on axis 0 alone exceeds the cap of 20000"),
    ])
    def test_rejects_grid_over_the_cap(self, upper, step, message):
        box = BoxSpace((0.0,) * len(upper), upper)
        with pytest.raises(SamplingError) as exc:
            sample_points(box, step)
        assert str(exc.value) == message

    def test_grid_at_the_cap(self):
        # the grid of 20,000 points, then the 8 draws, none of them on it
        box = BoxSpace((0.0,), (19999.0,))
        pts = sample_points(box, 1.0)
        assert pts == [(float(k),) for k in range(20000)] + box.uniform_points(8, 0)

    @pytest.mark.parametrize("check", [
        check_mixed_monotone, lambda cmap, step: estimate_contraction(cmap, 0.6, step),
    ])
    def test_sample_tables_within_the_byte_budget(self, monkeypatch, check):
        # a 1-D map check takes 17 bytes per pair of sample points: the
        # order (1), the distance (8) and the image (8)
        monkeypatch.setattr(hypotheses, "_TABLE_BYTES", 17 * 18**2)
        cmap = expression_map(BoxSpace((0.0,), (1.0,)), "min(x, 1 - y)")
        check(cmap, 1 / 9)  # 10 grid points and 8 draws: at the budget
        with pytest.raises(SamplingError) as exc:
            check(cmap, 1 / 10)
        assert str(exc.value) == (
            "a sample of 19 points needs 6137 bytes of tables, over the budget of 5508")
        assert exc.value.field == "space.grid_step"

    def test_map_tables_count_the_images(self, monkeypatch):
        # a 2-D map adds two float64 coordinates per pair: 25 bytes in all
        monkeypatch.setattr(hypotheses, "_TABLE_BYTES", 25 * 17**2)
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        cmap = expression_map(box, ["min(x1, y1)", "min(x2, y2)"])
        assert check_mixed_monotone(cmap, GRID).sample_size == 17
        with pytest.raises(SamplingError, match="a sample of 24 points needs 14400 "):
            check_mixed_monotone(cmap, 1 / 3)

    def test_grid_includes_both_endpoints(self):
        # the grid 0, 0.4, 0.8, 1 comes first, then the 8 draws
        box = BoxSpace((0.0,), (1.0,))
        pts = sample_points(box, 0.4)
        assert pts[0] == (0.0,)
        assert pts[-9] == (1.0,)
        assert all(box.contains(p) for p in pts)

    def test_random_points_are_reproducible(self):
        box = BoxSpace((0.0,), (1.0,))
        assert sample_points(box, 0.4) == sample_points(box, 0.4)

    def test_box_without_grid_samples_its_draws(self):
        box = BoxSpace((0.0, -1.0), (1.0, 1.0))
        pts = sample_points(box)
        assert pts == box.uniform_points(8, 0)
        assert len(set(pts)) == 8 and all(box.contains(p) for p in pts)


class TestMixedMonotone:
    def test_affine_pass_is_exact(self):
        # A = 1/4 and B = 1/8 are nonnegative, so no sample is drawn; the
        # same values times 1 + x*x*0, a product the fold does not read,
        # stay sampled
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, ["(2*x - y + 3)/8"])
        rep = check_mixed_monotone(cmap, GRID)
        assert rep.as_dict() == {
            "hypothesis": "mixed-monotone", "verdict": HOLDS, "witness": None,
            "sample_seed": None, "sample_size": None, "mode": "exact",
        }
        wrapped = expression_map(box, ["(2*x - y + 3)/8 * (1 + x*x*0)"])
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
        # 2 * 1/4 over the whole box, with no quadruple scanned; the
        # wrapped map scans its grid and draws and meets 0.5 there too
        box = BoxSpace((-1.0,), (1.0,))
        cmap = expression_map(box, ["x/4"])
        step = 0.25
        rep = estimate_contraction(cmap, 0.3, step)
        assert rep.verdict == HOLDS
        assert (rep.lambda_hat, rep.mode, rep.pairs_tested, rep.vacuous) == (
            0.5, "exact", 0, False)
        assert (rep.witness, rep.sample_size, rep.sample_seed) == (None, None, None)
        wrapped = expression_map(box, ["x/4 * (1 + x*x*0)"])
        rep = estimate_contraction(wrapped, 0.3, step)
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
        ch = find_epsilon_chain(box, (0.0,), (1.0,), 0.3)
        assert ch.n == 4
        assert ch.points == ((0.0,), (0.25,), (0.5,), (0.75,), (1.0,))
        ch.validate(box)

    def test_box_chain_between_coarse_floats(self):
        # near 1e10 one ulp is 1.9e-06, so the exact 4 steps of 2.4e-06
        # round to gaps of up to two ulps, 5 steps of one ulp each pass, and
        # below one ulp no two distinct floats are close enough
        box = BoxSpace((1e10,), (1e10 + 1e-5,))
        ch = find_epsilon_chain(box, box.lower, box.upper, 3e-6)
        assert ch.n == 5
        ch.validate(box)
        with pytest.raises(DomainError, match="rounding leaves no chain of 7 or 8 "):
            find_epsilon_chain(box, box.lower, box.upper, 1.5e-6)

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

    @pytest.mark.parametrize("points, message", [
        ((), "a chain needs at least one point"),
        ((0, 1, 0), "chain step 1 -> 0 is not ascending"),
    ], ids=["empty", "descending"])
    def test_chain_validate_rejects_no_point_and_a_descent(self, points,
                                                          message):
        with pytest.raises(DomainError) as exc:
            Chain(points, 1.5).validate(chain_space(3))
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("upper, epsilon, max_n", [
        ((1.0,), 0.4, 3), ((1.0,), 0.5, 3), ((1.0, 1.0), 0.6, 4),
        ((0.0, 0.0), 0.1, 0), ((1.0, 0.0), 1e300, 1), ((1.0, 0.0), math.inf, 1),
    ])
    def test_whole_box_holds_exactly(self, upper, epsilon, max_n):
        # floor(diam / epsilon) + 1 hops from corner to corner, none on a
        # one-point box; no sample is drawn
        box = BoxSpace((0.0,) * len(upper), upper)
        assert check_epsilon_chainable(box, epsilon).as_dict() == {
            "hypothesis": "epsilon-chainable", "verdict": HOLDS, "witness": None,
            "sample_seed": None, "sample_size": None, "mode": "exact",
            "epsilon": epsilon, "max_n": max_n,
        }

    @pytest.mark.parametrize("call", [
        lambda box, eps: check_epsilon_chainable(box, eps),
        lambda box, eps: find_epsilon_chain(box, (0.0,), (1.0,), eps),
    ], ids=["chainable", "find-chain"])
    def test_hop_count_over_the_cap_is_refused(self, call):
        # 1/99999.5 needs 100,000 hops across [0, 1], the cap; 1/100000.5
        # needs one more
        box = BoxSpace((0.0,), (1.0,))
        call(box, 1 / 99999.5)
        eps = 1 / 100000.5
        with pytest.raises(DomainError) as exc:
            call(box, eps)
        assert str(exc.value) == (
            f"epsilon {eps!r} needs chains of 100001 hops, over the cap of 100000")


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


@st.composite
def boxes_with_corner_lists(draw):
    """A box of 1 to 3 dimensions, possibly flat on some axes, and a
    shuffled list of its points, repeats allowed, that holds both corners."""
    dim = draw(st.integers(1, 3))
    lower = draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim))
    widths = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 7.25]) | st.floats(0, 10),
                           min_size=dim, max_size=dim))
    box = BoxSpace(tuple(lower), tuple(lo + w for lo, w in zip(lower, widths)))
    coords = [st.floats(lo, hi) for lo, hi in zip(box.lower, box.upper)]
    pts = draw(st.lists(st.tuples(*coords), max_size=12))
    pts = draw(st.permutations([*pts, box.lower, box.upper]))
    return box, pts


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

    @pytest.mark.parametrize("check, name", [
        (check_common_comparable, "common-comparable"),
        (check_pair_bounds, "pair-bounds"),
    ])
    def test_whole_box_holds_exactly(self, check, name):
        # a box is closed under componentwise max and min, so no sample is
        # drawn and the report carries no sample fields
        box = BoxSpace((0.0, -1.0, 2.0), (1.0, 3.0, 2.0))
        assert check(box).as_dict() == {
            "hypothesis": name, "verdict": HOLDS, "witness": None,
            "sample_seed": None, "sample_size": None, "mode": "exact",
        }

    @given(boxes_with_corner_lists())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exact_box_verdicts_never_contradict_a_sample(self, case):
        # any list holding both corners has the upper corner above every
        # point and (upper, lower) above every product point, so the list
        # as a finite space under the box's order (and the discrete metric,
        # which neither check reads) holds too
        box, pts = case
        pts = list(dict.fromkeys(pts))
        n = len(pts)
        sample = FiniteSpace.from_lists(
            range(n), [[int(i != j) for j in range(n)] for i in range(n)],
            [[box.leq(p, q) for q in pts] for p in pts],
        )
        for check in (check_common_comparable, check_pair_bounds):
            assert check(box).verdict == HOLDS
            assert (check(sample).verdict, check(sample).witness) == (HOLDS, None)


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


def sampled_hops(box, pts, a, epsilon):
    """Fewest hops from a to each point of a sample holding a, as boxes were
    searched before they were decided from their shape: a breadth-first
    search asking ``leq`` and ``distance`` of every pair of sample points."""
    hops, frontier = {a: 0}, [a]
    while frontier:
        step = {}
        for p in frontier:
            for q in pts:
                if q not in hops and box.leq(p, q) and box.distance(p, q) < epsilon:
                    step[q] = hops[p] + 1
        hops.update(step)
        frontier = list(step)
    return hops


def exact_hops(a, b, epsilon):
    d = sum(map(Fraction, b)) - sum(map(Fraction, a))
    return math.floor(d / Fraction(epsilon)) + 1 if d else 0


@st.composite
def box_chain_cases(draw):
    """A box of 1 to 3 dimensions, possibly flat on some axes, two of its
    points a <= b, an epsilon (at times their distance over a whole number
    of hops, where rounding decides), and seeded draws from the box."""
    box, _ = draw(boxes_with_corner_lists())
    a = tuple(draw(st.floats(lo, hi)) for lo, hi in zip(box.lower, box.upper))
    b = tuple(draw(st.floats(lo, hi)) for lo, hi in zip(a, box.upper))
    d = box.distance(a, b)
    epsilon = draw(st.floats(0.01, 20) | st.integers(1, 40).map(lambda k: d / k))
    assume(epsilon > 0)
    draws = box.uniform_points(draw(st.integers(0, 24)), draw(st.integers(0, 99)))
    return box, a, b, epsilon, draws


class TestBoxChains:
    @given(box_chain_cases())
    @example((BoxSpace((10.0,), (10.5,)), (10.495303404717045,),
              (10.495303404717047,), 1.7763568394002505e-15, []))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_segment_is_a_shortest_chain(self, case):
        box, a, b, epsilon, draws = case
        n = exact_hops(a, b, epsilon)
        apart = [(p, q) for p, q in zip(a, b) if p != q]
        if (len(apart) == 1 and math.nextafter(apart[0][0], math.inf) == apart[0][1]
                and epsilon <= box.distance(a, b)):
            # one float step on one axis: no float lies strictly between a
            # and b, so no chain with gaps below epsilon exists
            with pytest.raises(DomainError, match="float rounding leaves no chain"):
                find_epsilon_chain(box, a, b, epsilon)
        else:
            ch = find_epsilon_chain(box, a, b, epsilon)
            ch.validate(box)
            assert (ch.points[0], ch.points[-1]) == (a, b)
            assert ch.n in (n, n + 1)
        if exact_hops(box.lower, box.upper, epsilon) > MAX_ITERATIONS:
            with pytest.raises(DomainError, match="over the cap"):
                check_epsilon_chainable(box, epsilon)
        else:
            assert check_epsilon_chainable(box, epsilon).details["max_n"] >= n
        # no sampled chain is shorter than the exact count
        found = sampled_hops(box, list(dict.fromkeys([a, *draws, b])), a, epsilon)
        assert found.get(b, n) >= n

    @pytest.mark.parametrize("dim", [2, 3])
    def test_staircase_where_the_segment_collapses(self, dim):
        # a and b one float step apart on every axis, at epsilon d(a, b):
        # the segment's waypoints round onto a or b on every axis at once,
        # so both equal-step counts fail, while the staircase moves one
        # axis at a time
        box = BoxSpace((0.0,) * dim, (2.0,) * dim)
        a = (1.0,) * dim
        b = (math.nextafter(1.0, 2.0),) * dim
        eps = box.distance(a, b)
        ch = find_epsilon_chain(box, a, b, eps)
        ch.validate(box)
        assert (ch.points[0], ch.points[-1], ch.n) == (a, b, 2)
        if dim == 2:
            assert ch.points[1] == (b[0], a[1])

    @pytest.mark.parametrize("seed", [5, 31])
    def test_exact_max_n_bounds_every_sampled_count(self, instance_dir, seed):
        # the documents of the box benchmark, the shipped l1 and l2d, and l1
        # without its grid, whose 8 draws found at most 3 hops where 4 are
        # needed
        root = instance_dir.parent
        box_documents = runpy.run_path(str(root / "perfbench" / "workloads.py"))[
            "box_documents"]
        docs = box_documents(seed, root)
        for name in ("l1", "l2d"):
            docs[f"{name}-shipped"] = json.loads((instance_dir / f"{name}.json").read_text())
        docs["l1-no-grid"] = json.loads(json.dumps(docs["l1-shipped"]))
        del docs["l1-no-grid"]["space"]["grid_step"]
        for name, doc in docs.items():
            inst = parse_instance(doc)
            eps = inst.params.epsilon
            pts = sample_points(inst.space, inst.grid_step)
            sampled = max(max(sampled_hops(inst.space, pts, p, eps).values())
                          for p in pts)
            max_n = check_epsilon_chainable(inst.space, eps).details["max_n"]
            assert max_n == exact_hops(inst.space.lower, inst.space.upper, eps)
            assert sampled <= max_n, name
        assert (sampled, max_n) == (3, 4)

