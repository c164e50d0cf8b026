"""Affine box maps decided from their coefficients, against the sampled scan.

For F(x, y) = A x - B y + c, mixed monotonicity holds when A, B >= 0 and
the contraction supremum is 2 max(column sums of |A| and |B|) over the axes
of nonzero width. The exact route must never call a hypothesis proven where
the sampled scan of the same values (written as ``min(f, f)``, which has no
affine form) finds a violation, and the sampled ``lambda_hat`` may exceed
the exact one only by the rounding allowance ``rounding_allowance`` argues.
"""

import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.cli import run_cli
from chainfix.affine import AffineMap, affine_form
from chainfix.expressions import parse_expression, variable_names
from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    SamplingPlan,
    check_mixed_monotone,
    estimate_contraction,
    sample_points,
)
from chainfix.instances import load_instance
from chainfix.mappings import ExpressionMap, expression_map
from chainfix.pipeline import default_plan
from chainfix.spaces import BoxSpace

UNIT = Fraction(2) ** -53  # float64 unit roundoff


def box_bounds(space: BoxSpace) -> dict:
    axes = list(zip(space.lower, space.upper))
    return dict(zip(variable_names(space.dim), axes * 2))


def rounding_allowance(cmap: ExpressionMap, plan: SamplingPlan, lam: float) -> Fraction:
    """How far above ``lam`` the sampled scan's ratio can round.

    The scan takes r = 2 d(F(x,y), F(u,v)) / (d(x,u) + d(y,v)) on computed
    images. Each computed component i lies within e_i (``affine_form``'s
    bound) of its exact value, so the image distance grows by at most
    2 sum(e_i) before rounding, and the exact ratio by at most
    4 sum(e_i) / s, where s >= g, the smallest positive distance between two
    sample points. The image distance is k rounded subtractions and k - 1
    rounded additions of nonnegative terms, the denominator 2k + 1 more,
    and the quotient one: every one of them moves its value by a factor
    within [1 - u, 1 + u]. So r <= (lam + 4 sum(e_i) / g) * rho with
    rho = (1 + u)^(2k) / (1 - u)^(2k + 1).
    """
    space = cmap.space
    k = space.dim
    bounds = box_bounds(space)
    error = sum(affine_form(c, bounds).error for c in cmap.components)
    pts = sample_points(space, plan)
    gap = min(
        d for p in pts for q in pts
        if (d := sum(abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q))) > 0
    )
    rho = (1 + UNIT) ** (2 * k) / (1 - UNIT) ** (2 * k + 1)
    return (Fraction(lam) + 4 * error / gap) * rho - Fraction(lam)


def wrapped(cmap: ExpressionMap) -> ExpressionMap:
    return expression_map(cmap.space, [f"min({s}, {s})" for s in cmap.sources])


class TestAffineForm:
    def test_coefficients_are_exact(self):
        form = affine_form(parse_expression("(2*x - y + 3)/8"),
                           {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        assert form.coef == {"x": Fraction(1, 4), "y": Fraction(-1, 8)}
        assert form.const == Fraction(3, 8)
        # the range [1/4, 5/8], widened by a rounding bound of a few ulps
        assert 0 < form.error < 1e-15
        assert form.low == Fraction(1, 4) - form.error
        assert form.high == Fraction(5, 8) + form.error

    @pytest.mark.parametrize("source", [
        "min(x, x)", "abs(x)", "x*y", "(x + 1)*(y - 1)",
        "1e308*x*10",  # may overflow to inf
    ])
    def test_not_affine(self, source):
        assert affine_form(parse_expression(source),
                           {"x": (0.0, 1.0), "y": (0.0, 1.0)}) is None

    def test_cancelled_variable_can_scale(self):
        form = affine_form(parse_expression("(x - x)*y + 0.5"),
                           {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        assert (form.coef, form.const) == ({}, Fraction(1, 2))

    def test_map_coefficients(self):
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        cmap = expression_map(box, ["(2*x1 - y1 + 3)/8", "(x2 - y2 + 4)/8"])
        q = Fraction(1, 8)
        assert cmap.affine == AffineMap(
            A=((2 * q, 0), (0, q)), B=((q, 0), (0, q)), c=(3 * q, 4 * q))

    def test_literals_are_the_floats_evaluation_reads(self):
        form = affine_form(parse_expression("0.1*x"),
                           {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        assert form.coef == {"x": Fraction(0.1)} != {"x": Fraction(1, 10)}


class TestClosure:
    def test_face_touched_without_rounding_is_proven(self):
        # x and y are read exactly and nothing is rounded
        box = BoxSpace((0.0,), (1.0,))
        assert expression_map(box, "x").affine is not None

    def test_face_touched_through_rounding_is_not(self):
        # x/3*3 has the exact range [0, 1], but rounding might carry it past 1
        box = BoxSpace((0.0,), (1.0,))
        assert expression_map(box, "x/3*3").affine is None


class TestSignsAndWidths:
    def test_negative_coefficient_is_scanned(self):
        # F = 0.9 - 0.8x decreases in x; the sampled scan finds the witness
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "0.9 - 0.8*x")
        assert cmap.affine is not None
        plan = SamplingPlan(grid_step=0.5)
        rep = check_mixed_monotone(cmap, plan)
        assert rep == check_mixed_monotone(wrapped(cmap), plan)
        assert rep.verdict == VIOLATED
        # lambda = 1.6 is no proof, so the scan runs and stops at a violation
        con = estimate_contraction(cmap, 0.6, plan)
        assert con == estimate_contraction(wrapped(cmap), 0.6, plan)
        assert con.mode == "sampled" and con.violated

    def test_mixed_signs_can_still_contract(self):
        # |A| = 0.3 and |B| = 0.1: lambda = 0.6 although A < 0
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "0.5 - 0.3*x - 0.1*y")
        plan = SamplingPlan(grid_step=0.25)
        assert check_mixed_monotone(cmap, plan).verdict == VIOLATED
        rep = estimate_contraction(cmap, 0.6, plan)
        # 2 * 0.3 is exact in binary, so nothing is rounded
        assert (rep.verdict, rep.lambda_hat, rep.mode) == (HOLDS, 0.6, "exact")

    def test_supremum_is_rounded_up(self):
        # column 1 sums to 0.01 + 0.02 in A; twice that exact sum lies above
        # the float nearest to it, 0.06, so the report gives the next float
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        cmap = expression_map(box, ["0.01*x1 + 0.5", "0.02*x1 + 0.5"])
        rep = estimate_contraction(cmap, 0.3, SamplingPlan(grid_step=0.5))
        assert Fraction(0.06) < 2 * (Fraction(0.01) + Fraction(0.02))
        assert rep.lambda_hat == math.nextafter(0.06, 1.0)

    def test_zero_width_axis_is_left_out(self):
        # axis 2 is the point 0.5: its coefficient 3 never moves F
        box = BoxSpace((0.0, 0.5), (1.0, 0.5))
        cmap = expression_map(box, ["0.25*x1 + 3*x2 - 1.25", "0.5"])
        rep = estimate_contraction(cmap, 0.3, SamplingPlan(grid_step=0.5))
        assert (rep.verdict, rep.lambda_hat, rep.mode) == (HOLDS, 0.5, "exact")

    def test_single_point_box_is_scanned(self):
        box = BoxSpace((0.5,), (0.5,))
        rep = estimate_contraction(expression_map(box, "0.5"), 0.3,
                                   SamplingPlan(grid_step=0.5))
        assert (rep.mode, rep.vacuous) == ("sampled", True)


@pytest.mark.parametrize("name, sampled", [
    ("l1", 0.500000000000014), ("l2d", 0.5000000000000002)])
def test_shipped_affine_maps_against_their_scan(instance_dir, name, sampled):
    inst = load_instance(instance_dir / f"{name}.json")
    plan = default_plan(inst)
    rep = estimate_contraction(inst.cmap, inst.params.epsilon, plan)
    assert (rep.verdict, rep.lambda_hat, rep.mode) == (HOLDS, 0.5, "exact")
    scan = estimate_contraction(wrapped(inst.cmap), inst.params.epsilon, plan)
    assert (scan.verdict, scan.lambda_hat) == (SAMPLED, sampled)
    assert 0 < scan.lambda_hat - 0.5 <= rounding_allowance(inst.cmap, plan, 0.5)


def test_affine_solve_builds_no_table(capsys, l2d_path):
    # every map hypothesis is decided from the coefficients, and the load
    # check is skipped, so F is never tabulated over pairs of points
    with mock.patch.object(ExpressionMap, "tabulate", side_effect=AssertionError):
        code = run_cli(["solve", l2d_path])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["status"] == "converged"
    assert doc["config"]["uncertified"] == ["epsilon-chainable"]
    for name in ("mixed-monotone", "uniform-local-contraction"):
        assert (doc["hypotheses"][name]["verdict"],
                doc["hypotheses"][name]["mode"]) == (HOLDS, "exact")


@st.composite
def affine_boxes(draw):
    """An affine map on a box whose axes have width 0 or 1, with its plan
    and epsilon. A zero-width axis holds one value, so its component is
    that literal. Every other component has coefficients in hundredths, of
    either sign or all nonnegative, whose magnitudes on the axes of width 1
    sum to at most 0.3, 0.6 or 0.96, so lambda ranges up to 1.92 in 1-D and
    3.84 in 2-D, on both sides of 1; its constant puts its range at least
    0.01 inside its axis, so closure is always proven."""
    dim = draw(st.sampled_from([1, 2]))
    lower = [draw(st.sampled_from([0.0, -1.0, 0.5])) for _ in range(dim)]
    width = [draw(st.sampled_from([1, 1, 0])) if dim == 2 else 1 for _ in range(dim)]
    upper = [lo + w for lo, w in zip(lower, width)]
    names = variable_names(dim)
    signed = draw(st.booleans())
    cap = draw(st.sampled_from([30, 60, 96]))
    formulas = []
    for i in range(dim):
        if not width[i]:
            formulas.append(repr(lower[i]))
            continue
        raw = [draw(st.integers(-96 if signed else 0, 96)) for _ in names]
        total = sum(abs(r) for r, w in zip(raw, width * 2) if w)
        if total > cap:
            raw = [int(r * cap / total) for r in raw]
        # F_i = sum(a_j x_j) - sum(b_j y_j) + c
        coefs = [r / 100 for r in raw[:dim]] + [-r / 100 for r in raw[dim:]]
        spans = [(k * lo, k * hi) for k, lo, hi in zip(coefs, lower * 2, upper * 2)]
        low = lower[i] - sum(map(min, spans)) + 0.01
        high = upper[i] - sum(map(max, spans)) - 0.01
        c = draw(st.integers(round(low * 1000) + 1, round(high * 1000) - 1)) / 1000
        terms = [f"({k})*{v}" for k, v in zip(coefs, names)]
        formulas.append(" + ".join(terms) + f" + ({c})")
    space = BoxSpace(tuple(lower), tuple(upper))
    plan = SamplingPlan(
        grid_step=draw(st.sampled_from([0.5, 1 / 3] if dim == 2 else [0.5, 0.25])),
        random_count=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 5)),
    )
    # 1e-9 leaves the scan vacuous on these samples
    epsilon = draw(st.sampled_from([1e-9, 0.2, 0.6, 1.5]))
    return expression_map(space, formulas), plan, epsilon


@given(affine_boxes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_route_never_contradicts_the_scan(case):
    cmap, plan, epsilon = case
    assert cmap.affine is not None  # the 0.01 clearance covers rounding
    scanned = wrapped(cmap)
    mono, mono_scan = (check_mixed_monotone(m, plan) for m in (cmap, scanned))
    if mono.details.get("mode") == "exact":
        assert mono.verdict == HOLDS
        assert mono_scan.verdict != VIOLATED
    else:
        assert mono == mono_scan
    rep, scan = (estimate_contraction(m, epsilon, plan) for m in (cmap, scanned))
    if rep.mode == "exact":
        assert rep.verdict == HOLDS and rep.lambda_hat < 1.0
        assert not scan.violated
        if not scan.vacuous:
            allowance = rounding_allowance(cmap, plan, rep.lambda_hat)
            assert Fraction(scan.lambda_hat) <= Fraction(rep.lambda_hat) + allowance
    else:
        assert rep == scan
