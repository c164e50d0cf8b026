"""The work a box solve does once, against the work it replaced.

A box sample over the table budget must be refused by the first map check
that reads it. An affine map, or a min/max map whose formula proves both
map checks, reads no sample and builds no table; a map left to the sample
is tabulated once for both checks.
``picard_solve`` and ``verify_decay_bound`` walk one orbit
that validates its seeds once and then steps unchecked: their results must
be bitwise (by ``repr``) what a loop through the validating ``apply`` and
``distance`` gives, escapes included; for the decay check that loop steps
the lemma's two streams, the second launched at the seeds' image.
``chain_n`` is read-only, built on first read, and as a dict it is the
table the benchmark's gate compares with the oracle's.
"""

import math
import traceback
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import EscapeError, SamplingError
from chainfix.hypotheses import HOLDS, SAMPLED, check_epsilon_chainable
from chainfix.instances import generate_finite_instance, load_instance, parse_instance
from chainfix.mappings import ExpressionMap, expression_map
from chainfix.oracle import min_chain_table
from chainfix.pipeline import build_config, run_hypothesis_suite
from chainfix.solver import (
    CONVERGED,
    DIVERGED,
    EXHAUSTED,
    BoundRow,
    DecayReport,
    SolveConfig,
    SolveResult,
    TraceRow,
    below_bound,
    decay_bound,
    picard_solve,
    verify_decay_bound,
)
from chainfix.spaces import BoxSpace


def box_doc(dim, formulas, step, epsilon):
    corner = (lambda v: v) if dim == 1 else (lambda v: [v] * dim)
    return {
        "schema_version": 1,
        "space": {"kind": "box", "dimension": dim, "lower": [0] * dim,
                  "upper": [1] * dim, "grid_step": step},
        "map": {"kind": "expression",
                "formula": formulas[0] if dim == 1 else formulas},
        "seeds": {"x0": corner(0), "y0": corner(1)},
        "parameters": {"epsilon": epsilon, "tolerance": 1e-10,
                       "max_iterations": 60},
    }


def coef(lo, hi):
    return st.integers(round(lo * 100), round(hi * 100)).map(lambda k: k / 100)


@st.composite
def affine_terms(draw, dim):
    # x-coefficients a >= 0, y-coefficients b >= 0 with sum(a) + sum(b) <=
    # 0.8, and c inside [sum(b), 1 - sum(a)]: the unit box maps into itself
    xs = ["x"] if dim == 1 else ["x1", "x2"]
    ys = ["y"] if dim == 1 else ["y1", "y2"]
    a = [draw(coef(0, 0.4 / dim)) for _ in xs]
    b = [draw(coef(0, 0.4 / dim)) for _ in ys]
    c = draw(coef(sum(b) + 0.01, 1 - sum(a) - 0.01))
    terms = [f"{k}*{n}" for k, n in zip(a, xs)] + [f"-{k}*{n}" for k, n in zip(b, ys)]
    return " + ".join(terms + [str(c)]).replace("+ -", "- ")


@st.composite
def box_instances(draw):
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["affine", "min", "max"]))
    formulas = []
    for _ in range(dim):
        first = draw(affine_terms(dim))
        formulas.append(
            first if kind == "affine"
            else f"{kind}({first}, {draw(affine_terms(dim))})"
        )
    step = draw(st.sampled_from([0.5, 0.25] if dim == 2 else [0.25, 0.125]))
    epsilon = draw(st.sampled_from([0.05, 0.3, 0.6, 1.5]))
    return parse_instance(box_doc(dim, formulas, step, epsilon))


def refusing_check(exc_info) -> str:
    """The check function a SamplingError was raised in."""
    names = [frame.name for frame in traceback.extract_tb(exc_info.tb)]
    return next(name for name in names if name.startswith(("check_", "estimate_")))


class TestOverBudgetSample:
    # a 1-D map check takes 17 bytes per pair of sample points: 985 grid
    # points and 8 draws (993 points, 16,762,833 bytes) fit in 2**24 bytes,
    # and 986 grid points and 8 draws do not
    AT_BUDGET, PAST_BUDGET = 1 / 984, 1 / 985
    # mixed monotone, and its contraction scan stops at the first quadruple
    CLAMP = "min(1, max(0, 0.5 + x - y))"
    # 37 x 37 grid points and 8 draws: 1377 points
    STEP = 1 / 36
    MIN_MAX = ["min(0.25*x1 - 0.25*y1 + 0.5, 0.5)", "0.25*x2 - 0.25*y2 + 0.5"]

    def test_map_checks_at_and_past_the_budget(self):
        suite = run_hypothesis_suite(
            parse_instance(box_doc(1, [self.CLAMP], self.AT_BUDGET, 0.6)))
        assert suite["mixed-monotone"].sample_size == 993
        contraction = suite["uniform-local-contraction"]
        assert (contraction.violated, contraction.pairs_tested) == (True, 1)
        with pytest.raises(SamplingError) as past:
            run_hypothesis_suite(
                parse_instance(box_doc(1, [self.CLAMP], self.PAST_BUDGET, 0.6)))
        assert refusing_check(past) == "check_mixed_monotone"
        assert past.value.field == "space.grid_step"
        assert "994 points needs 16796612 bytes" in str(past.value)

    def test_affine_map_builds_no_table(self):
        inst = parse_instance(box_doc(
            2, ["0.25*x1 - 0.25*y1 + 0.5", "0.25*x2 - 0.25*y2 + 0.5"],
            self.STEP, 0.6,
        ))
        with mock.patch.object(ExpressionMap, "_tabulate", side_effect=AssertionError):
            suite = run_hypothesis_suite(inst)
        assert {rep.verdict for rep in suite.values()} == {HOLDS}

    def test_min_max_map_builds_no_table(self):
        # its formula bounds its derivatives and its range, so both map
        # checks hold with no sample
        inst = parse_instance(box_doc(2, self.MIN_MAX, self.STEP, 0.6))
        with mock.patch.object(ExpressionMap, "_tabulate", side_effect=AssertionError):
            suite = run_hypothesis_suite(inst)
        assert {rep.verdict for rep in suite.values()} == {HOLDS}
        assert suite["uniform-local-contraction"].mode == "bound"

    def test_min_max_map_is_refused_by_the_monotonicity_check(self):
        # the same values times 1 + x1*x1*0, a product the fold does not
        # read, are scanned
        inst = parse_instance(box_doc(
            2, [f"({f}) * (1 + x1*x1*0)" for f in self.MIN_MAX], self.STEP, 0.6,
        ))
        with pytest.raises(SamplingError) as suite:
            run_hypothesis_suite(inst)
        assert refusing_check(suite) == "check_mixed_monotone"
        assert "1377 points needs 47403225 bytes" in str(suite.value)


def test_map_checks_share_one_tabulation():
    # the fold does not read x*x, so both map checks scan the sample, and
    # they read one tabulation of it (reading the document tabulates nothing)
    inst = parse_instance(box_doc(
        1, ["(0.25*x - 0.25*y + 0.5) * (1 + x*x*0)"], 0.25, 0.6))
    with mock.patch.object(ExpressionMap, "_tabulate", autospec=True,
                           side_effect=ExpressionMap._tabulate) as tabulate:
        suite = run_hypothesis_suite(inst)
    assert tabulate.call_count == 1
    assert suite["mixed-monotone"].verdict == SAMPLED
    assert suite["uniform-local-contraction"].verdict == SAMPLED


def reference_picard(cmap, x0, y0, cfg):
    """picard_solve as a loop through the validating apply and distance."""
    d = cmap.space.distance
    trace, bounds = [], []
    x, y = x0, y0
    r = prev_step = None
    status = EXHAUSTED
    for m in range(cfg.max_iterations + 1):
        if m:
            x, y, prev_step = fx, fy, r
        try:
            fx = cmap.apply(x, y)
            fy = cmap.apply(y, x)
        except EscapeError:
            status, r = DIVERGED, math.inf
        else:
            r = d(x, fx) + d(y, fy)
            if cfg.can_bound:
                bounds.append(
                    BoundRow(m, r, decay_bound(cfg.chain_n, cfg.lam, cfg.epsilon, m)))
            if r <= cfg.residual_tolerance:
                status = CONVERGED
        trace.append(TraceRow(m, x, y, r, prev_step))
        if status != EXHAUSTED:
            break
    return SolveResult(status, x, y, m, r, d(x, y), tuple(trace), tuple(bounds))


def reference_decay(cmap, ascending, descending, cfg, horizon):
    """verify_decay_bound (with no chains) through the validating calls."""
    n, lam, eps = cfg.chain_n, cfg.lam, cfg.epsilon
    have_bound = n is not None and lam is not None and eps is not None
    (a, b), (c, e) = ascending, descending
    d = cmap.space.distance
    rows, escaped_at = [], None
    observed = d(a, c) + d(b, e)
    for m in range(horizon + 1):
        rows.append(BoundRow(m, observed, decay_bound(n, lam, eps, m)
                             if have_bound else math.nan))
        if m == horizon:
            break
        try:
            a, b = cmap.apply(a, b), cmap.apply(b, a)
            c, e = cmap.apply(c, e), cmap.apply(e, c)
        except EscapeError:
            escaped_at = m + 1
            break
        observed = d(a, c) + d(b, e)
    return DecayReport(tuple(rows), below_bound(rows) if have_bound else None,
                       rows[-1].observed, n, escaped_at)


def assert_iteration_matches_reference(cmap, x0, y0, cfg, horizon=30):
    assert repr(picard_solve(cmap, x0, y0, cfg)) == repr(
        reference_picard(cmap, x0, y0, cfg))
    try:
        image = (cmap.apply(x0, y0), cmap.apply(y0, x0))
    except EscapeError:
        with pytest.raises(EscapeError, match="seeds' image"):
            verify_decay_bound(cmap, (x0, y0), cfg, horizon=horizon)
        return
    # the second stream of the two-stream reference starts at the image
    assert repr(verify_decay_bound(cmap, (x0, y0), cfg, horizon=horizon)) == repr(
        reference_decay(cmap, (x0, y0), image, cfg, horizon))


class TestIterationIsBitwiseTheValidatingLoop:
    @pytest.mark.parametrize("name", ["l1", "l2d", "f1", "chain4", "antichain2"])
    def test_shipped_instances(self, instance_dir, name):
        inst = load_instance(instance_dir / f"{name}.json")
        cfg = build_config(inst, run_hypothesis_suite(inst))
        assert_iteration_matches_reference(inst.cmap, inst.x0, inst.y0, cfg)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_finite_instances(self, seed):
        inst = generate_finite_instance(seed, 16)
        cfg = build_config(inst, run_hypothesis_suite(inst))
        assert_iteration_matches_reference(inst.cmap, inst.x0, inst.y0, cfg)

    @given(box_instances(), st.integers(1, 60))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_generated_box_maps(self, inst, max_iterations):
        cfg = SolveConfig(max_iterations=max_iterations, lam=0.9, epsilon=0.6,
                          chain_n=3)
        assert_iteration_matches_reference(inst.cmap, inst.x0, inst.y0, cfg)

    @pytest.mark.parametrize("formula, x0, y0", [
        # leaves [0, 1] within a few steps
        ("x + y", (0.5,), (0.75,)),
        # x0 = 0 is mapped onto 0.45, whose image leaves the box
        ("0.45 + 1000*max(0, 0.001 - abs(x - 0.45))", (0.0,), (1.0,)),
    ], ids=["sum", "spike"])
    def test_a_map_that_leaves_the_box_on_its_orbit(self, formula, x0, y0):
        cmap = expression_map(BoxSpace((0.0,), (1.0,)), formula)
        cfg = SolveConfig(lam=0.5, epsilon=0.6, chain_n=2)
        result = picard_solve(cmap, x0, y0, cfg)
        assert result.status == DIVERGED
        assert_iteration_matches_reference(cmap, x0, y0, cfg)

    def test_start_points_are_validated_once(self, l2d_path):
        inst = load_instance(l2d_path)
        cfg = SolveConfig(max_iterations=40)
        with mock.patch.object(
            BoxSpace, "validate_point", autospec=True,
            side_effect=BoxSpace.validate_point,
        ) as validate:
            result = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
            assert validate.call_count == 2
            verify_decay_bound(inst.cmap, (result.x, result.y), cfg, horizon=20)
            assert validate.call_count == 4

    @pytest.mark.parametrize("horizon", [0, 1, 7, 30])
    def test_decay_applies_the_map_twice_per_step(self, l2d_path, horizon):
        # rows 0..horizon need the orbit up to iterate horizon + 1
        inst = load_instance(l2d_path)
        cfg = SolveConfig(lam=0.5, epsilon=0.6, chain_n=2)
        with mock.patch.object(
            type(inst.cmap), "_apply", autospec=True,
            side_effect=type(inst.cmap)._apply,
        ) as step:
            rep = verify_decay_bound(inst.cmap, (inst.x0, inst.y0), cfg, horizon)
        assert len(rep.rows) == horizon + 1
        assert step.call_count == 2 * (horizon + 1)

    def test_seeds_whose_image_leaves_the_box(self):
        # F(0.75, 0.5) = 1.25: the lemma's second stream has no start
        cmap = expression_map(BoxSpace((0.0,), (1.0,)), "x + y")
        cfg = SolveConfig(lam=0.5, epsilon=0.6, chain_n=2)
        with pytest.raises(EscapeError, match="seeds' image") as exc:
            verify_decay_bound(cmap, ((0.75,), (0.5,)), cfg, horizon=5)
        assert exc.value.witness == ((0.75,), (0.5,))
        with pytest.raises(EscapeError):
            cmap.apply((0.75,), (0.5,))


class TestChainTable:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8])
    def test_dict_is_the_table_the_gate_compares(self, seed):
        inst = generate_finite_instance(seed, 24)
        eps = inst.params.epsilon
        details = check_epsilon_chainable(inst.space, eps).details
        table, unreachable, max_n = min_chain_table(inst.space, eps)
        assert dict(details["chain_n"]) == {
            (i, j): h for i, j, h in table.tolist()}
        assert sorted(details["unreachable"]) == sorted(map(tuple, unreachable))
        assert details["max_n"] == max_n
        assert type(details["max_n"]) is int

    def test_read_only_and_built_on_first_read(self, chain4_path):
        inst = load_instance(chain4_path)
        chain_n = check_epsilon_chainable(inst.space, inst.params.epsilon).details[
            "chain_n"]
        assert "_table" not in vars(chain_n)
        assert list(chain_n.items())[:2] == [((0, 0), 0), ((0, 1), 1)]
        assert "_table" in vars(chain_n)
        with pytest.raises(TypeError):
            chain_n[(0, 0)] = 5
        with pytest.raises(TypeError):
            del chain_n[(0, 0)]
        assert chain_n[(0, 0)] == 0
        assert not hasattr(chain_n, "update")

    def test_max_n_needs_no_table(self, chain4_path):
        inst = load_instance(chain4_path)
        rep = check_epsilon_chainable(inst.space, inst.params.epsilon)
        assert rep.details["max_n"] == max(rep.details["chain_n"].values())
