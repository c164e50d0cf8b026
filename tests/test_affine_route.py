"""Affine box maps decided from their coefficients, against the sampled scan.

For F(x, y) = A x - B y + c, mixed monotonicity holds when A, B >= 0 and
the contraction supremum is 2 max(column sums of |A| and |B|) over the axes
of nonzero width. The exact route must never call a hypothesis proven where
the sampled scan of the same values (``unread``, a product the fold does
not read) finds a violation, and the sampled ``lambda_hat`` may exceed the
exact one only by the rounding allowance ``rounding_allowance`` argues.

``component_form`` bounds its rounding error in whole counts of 2**-1138,
each rounded up; ``reference_form`` computes the same bound in exact
rationals, over the whole grammar, and the two must agree on everything but
that bound, which may only be larger, and by less than a factor
1 + 2**-40.
"""

import ast
import hashlib
import inspect
import json
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainfix.cli import run_cli
from chainfix.affine import MapForm, component_form, map_form
from chainfix.errors import GrammarError
from chainfix.expressions import (
    MAX_DEPTH,
    CompiledExpression,
    parse_expression,
    variable_names,
)
from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    check_mixed_monotone,
    estimate_contraction,
)
from chainfix.instances import load_instance
from chainfix.mappings import ExpressionMap, expression_map
from chainfix.spaces import BoxSpace

from formula_reference import (
    EXTREME_AXES,
    TOP,
    box_bounds,
    exact_range,
    formula_sources,
    reference_form,
    rounding_allowance,
    unread,
)

UNIT_BOX = {"x": (0.0, 1.0), "y": (0.0, 1.0)}


def reference_map(cmap: ExpressionMap) -> MapForm | None:
    """``map_form`` over ``reference_form``."""
    k = cmap.space.dim
    names = variable_names(k)
    bounds = box_bounds(cmap.space)
    zero = (0, 0)
    A, B = [], []
    for expr, lo, hi in zip(cmap.components, cmap.space.lower, cmap.space.upper):
        form = reference_form(expr, bounds)
        if form is None or not lo <= form.low <= form.high <= hi:
            return None
        slopes = [form.slopes.get(v, zero) for v in names]
        A.append(tuple(slopes[:k]))
        B.append(tuple((-hi, -lo) for lo, hi in slopes[k:]))
    return MapForm(tuple(A), tuple(B))


class TestComponentForm:
    def test_coefficients_are_exact(self):
        form = component_form(parse_expression("(2*x - y + 3)/8"), UNIT_BOX)
        assert form.slopes == {"x": (Fraction(1, 4),) * 2, "y": (Fraction(-1, 8),) * 2}
        # the range [1/4, 5/8], widened by a rounding bound of a few ulps
        assert 0 < form.error < 1e-15
        assert exact_range(form) == (Fraction(1, 4), Fraction(5, 8))

    def test_cancelled_variable_can_scale(self):
        form = component_form(parse_expression("(x - x)*y + 0.5"), UNIT_BOX)
        assert (form.slopes, exact_range(form)) == ({}, (Fraction(1, 2),) * 2)

    def test_map_coefficients(self):
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        cmap = expression_map(box, ["(2*x1 - y1 + 3)/8", "(x2 - y2 + 4)/8"])
        q, z = Fraction(1, 8), (0, 0)
        assert cmap.form == MapForm(
            A=(((2 * q, 2 * q), z), (z, (q, q))), B=(((q, q), z), (z, (q, q))))
        assert cmap.form.exact

    @pytest.mark.parametrize("depth", [50, MAX_DEPTH])
    def test_nested_form_is_read_whatever_the_stack_depth(self, depth):
        # the walk keeps its own stack, so a formula the parser accepts is
        # read the same way with little room left on the caller's stack
        expr = parse_expression("x" + "+0" * (depth - 1))
        expected = component_form(expr, UNIT_BOX)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            form = component_form(expr, UNIT_BOX)
        finally:
            sys.setrecursionlimit(limit)
        assert form == expected
        assert (form.slopes, exact_range(form)) == ({"x": (1, 1)}, (0, 1))
        assert form.error >= reference_form(expr, UNIT_BOX).error

    def test_divisor_within_its_rounding_bound_is_not_read(self):
        # 0.1 + 0.2 - 0.3 evaluates to 2**-54, but the fold's bound on its
        # rounding error reaches its value, so it cannot rule out a zero
        # divisor, and the sampled route decides the formula instead
        assert component_form(parse_expression("x / (0.1 + 0.2 - 0.3)"),
                              UNIT_BOX) is None

    def test_literals_are_the_floats_evaluation_reads(self):
        form = component_form(parse_expression("0.1*x"), UNIT_BOX)
        assert form.slopes == {"x": (Fraction(0.1),) * 2}
        assert Fraction(0.1) != Fraction(1, 10)


class TestClosure:
    def test_face_touched_without_rounding_is_proven(self):
        # x and y are read exactly and nothing is rounded
        box = BoxSpace((0.0,), (1.0,))
        assert expression_map(box, "x").form is not None

    def test_face_touched_through_rounding_is_not(self):
        # x/3*3 has the exact range [0, 1], but rounding might carry it past 1
        box = BoxSpace((0.0,), (1.0,))
        assert expression_map(box, "x/3*3").form is None


class TestSignsAndWidths:
    def test_negative_coefficient_is_scanned(self):
        # F = 0.9 - 0.8x decreases in x; the sampled scan finds the witness
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "0.9 - 0.8*x")
        assert cmap.form is not None
        step = 0.5
        rep = check_mixed_monotone(cmap, step)
        assert rep == check_mixed_monotone(unread(cmap), step)
        assert rep.verdict == VIOLATED
        # lambda = 1.6 is no proof, so the scan runs and stops at a violation
        con = estimate_contraction(cmap, 0.6, step)
        assert con == estimate_contraction(unread(cmap), 0.6, step)
        assert con.mode == "sampled" and con.violated

    def test_mixed_signs_can_still_contract(self):
        # |A| = 0.3 and |B| = 0.1: lambda = 0.6 although A < 0
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "0.5 - 0.3*x - 0.1*y")
        step = 0.25
        assert check_mixed_monotone(cmap, step).verdict == VIOLATED
        rep = estimate_contraction(cmap, 0.6, step)
        # 2 * 0.3 is exact in binary, so nothing is rounded
        assert (rep.verdict, rep.lambda_hat, rep.mode) == (HOLDS, 0.6, "exact")

    def test_supremum_is_rounded_up(self):
        # column 1 sums to 0.01 + 0.02 in A; twice that exact sum lies above
        # the float nearest to it, 0.06, so the report gives the next float
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        cmap = expression_map(box, ["0.01*x1 + 0.5", "0.02*x1 + 0.5"])
        rep = estimate_contraction(cmap, 0.3, 0.5)
        assert Fraction(0.06) < 2 * (Fraction(0.01) + Fraction(0.02))
        assert rep.lambda_hat == math.nextafter(0.06, 1.0)

    def test_zero_width_axis_is_left_out(self):
        # axis 2 is the point 0.5: its coefficient 3 never moves F
        box = BoxSpace((0.0, 0.5), (1.0, 0.5))
        cmap = expression_map(box, ["0.25*x1 + 3*x2 - 1.25", "0.5"])
        rep = estimate_contraction(cmap, 0.3, 0.5)
        assert (rep.verdict, rep.lambda_hat, rep.mode) == (HOLDS, 0.5, "exact")

    def test_single_point_box_is_scanned(self):
        box = BoxSpace((0.5,), (0.5,))
        rep = estimate_contraction(expression_map(box, "0.5"), 0.3,
                                   0.5)
        assert (rep.mode, rep.vacuous) == ("sampled", True)


@pytest.mark.parametrize("name, sampled", [
    ("l1", 0.500000000000014), ("l2d", 0.5000000000000002)])
def test_shipped_affine_maps_against_their_scan(instance_dir, name, sampled):
    inst = load_instance(instance_dir / f"{name}.json")
    step = inst.grid_step
    rep = estimate_contraction(inst.cmap, inst.params.epsilon, step)
    assert (rep.verdict, rep.lambda_hat, rep.mode) == (HOLDS, 0.5, "exact")
    scan = estimate_contraction(unread(inst.cmap), inst.params.epsilon, step)
    assert (scan.verdict, scan.lambda_hat) == (SAMPLED, sampled)
    assert 0 < scan.lambda_hat - 0.5 <= rounding_allowance(inst.cmap, step, 0.5)


def test_affine_solve_builds_no_table(capsys, l2d_path):
    # every map hypothesis is decided from the coefficients, every space
    # hypothesis from the box, and the load check is skipped, so F is never
    # tabulated over pairs of points, no sample is drawn, and the bound is
    # certified
    with mock.patch.object(ExpressionMap, "_tabulate", side_effect=AssertionError), \
            mock.patch("chainfix.hypotheses.sample_points", side_effect=AssertionError):
        code = run_cli(["solve", l2d_path])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["status"] == "converged"
    assert doc["config"]["uncertified"] == []
    for name in ("mixed-monotone", "uniform-local-contraction", "epsilon-chainable"):
        assert (doc["hypotheses"][name]["verdict"],
                doc["hypotheses"][name]["mode"]) == (HOLDS, "exact")


@st.composite
def affine_boxes(draw):
    """An affine map on a box whose axes have width 0 or 1, with its grid
    step and epsilon. A zero-width axis holds one value, so its component is
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
    step = draw(st.sampled_from([0.5, 1 / 3] if dim == 2 else [0.5, 0.25]))
    # 1e-9 leaves the scan vacuous on these samples
    epsilon = draw(st.sampled_from([1e-9, 0.2, 0.6, 1.5]))
    return expression_map(space, formulas), step, epsilon


@given(affine_boxes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_route_never_contradicts_the_scan(case):
    cmap, step, epsilon = case
    assert cmap.form is not None  # the 0.01 clearance covers rounding
    scanned = unread(cmap)
    mono, mono_scan = (check_mixed_monotone(m, step) for m in (cmap, scanned))
    if mono.details.get("mode") == "exact":
        assert mono.verdict == HOLDS
        assert mono_scan.verdict != VIOLATED
    else:
        assert mono == mono_scan
    rep, scan = (estimate_contraction(m, epsilon, step) for m in (cmap, scanned))
    if rep.mode == "exact":
        assert rep.verdict == HOLDS and rep.lambda_hat < 1.0
        assert not scan.violated
        if not scan.vacuous:
            allowance = rounding_allowance(cmap, step, rep.lambda_hat)
            assert Fraction(scan.lambda_hat) <= Fraction(rep.lambda_hat) + allowance
    else:
        assert rep == scan


def assert_matches_reference(expr, bounds) -> bool:
    """Whether ``component_form`` reads ``expr`` as ``reference_form`` does;
    False only where the reference comes within 2**-40 of the float range."""
    seen = {}
    form, ref = component_form(expr, bounds), reference_form(expr, bounds, seen)
    if ref is None:
        assert form is None, expr.source  # the fold's bounds are the larger
        return True
    if form is None:
        # the fold's counts lie a little above the rational bounds, so they
        # may refuse what only just fits
        assert max(seen["z"]) > TOP * (1 - Fraction(2) ** -40), expr.source
        return False
    assert form.slopes == ref.slopes, expr.source
    assert exact_range(form) == exact_range(ref), expr.source
    assert ref.error <= form.error <= ref.error * (1 + Fraction(2) ** -40), expr.source
    return True


@pytest.mark.parametrize("source", [
    "(2*x - y + 3)/8", "x/3*3", "(0.1+0.2)*x", "x*(0.1+0.2)", "x - x",
    "(x - x)*y", "(x - x)*0.5*1e300*1e300", "0*x", "-(x - 0.3*y)/0.7",
    "x/(0.1+0.2)", "x/1e-300", "(x + 0.1)*(0.2 + 0.3)",
    "(x - x + 0.5)*(1e300 - 1e300 + 0.5)", "1.7976931348623157e308*x",
    "1e308*x*10", "x/(1e-200*1e-100)", "-x", "+x", "x*y", "min(x, y)*x",
    # calls on a variable: min and max, abs that keeps, flips or hulls its
    # argument, and + - * / applied to the result
    "min(x, 0.5*y + 0.25)", "max(x, y, 0.3) - abs(x - 0.5)",
    "abs(x + 1)/3", "-abs(x - 2)*0.1", "abs(x - y)*2 + 1", "0.5 - abs(-x)",
    "abs(x - y + 3)*(0.1 + 0.2)", "abs(x - y - 3)*(0.1 + 0.2)", "abs(y) - abs(-y)",
    "(min(x, y) + 1e300) - 1e300", "max(x, 1e300)/1e-200",
    "min(1e300, x)/1e-200 + 0.5", "max(x, abs(y - 0.5))*0", "min(x, 1)*0*y",
    # constant calls
    "min(1, 2)*x + abs(-0.5)", "x*max(0.1, 0.3) - min(abs(-3), 2, 8)",
    # the larger of two bounds, one all in its tail of 2**-1074 terms
    "min(x*2.004168360008973e-292, y*1.0020841800044864e-292)",
    "max(x*2.004168360008973e-292, y*1.0020841800044864e-292)*1e300",
    # a magnitude below the normal range, which a float holds with fewer
    # bits, scaled up later
    "y + (5e-324*0.3)*1e300*((1e150 + 1) - 1e150)",
    "max(y + y, y - 1e300)*((0 + 1e-200)*(0 + 1e-200))",
    "x*0 + 5e-324*5e-324/5e-324*1e308",
    # a constant below 2**-1138, the counts' resolution, scaled back up
    "x + 1e-300*1e-300", "(1e-300*1e-300)*1e300*1e300*x",
    "(x*1e-300*1e-300 + 1e-320)*1e300*1e300",
    "(x - x + 1e-300*1e-300)/1e-300/1e-300",
    "abs(x*1e-300*1e-300 - 1e-310*1e-310)*1e300*1e300*1e10",
])
@pytest.mark.parametrize("box", [((0.0, 1.0), (0.0, 1.0)),
                                 ((-1.0, 0.5), (0.0, 0.0)),
                                 *((axis, axis) for axis in EXTREME_AXES)])
def test_form_against_the_rational_reference(source, box):
    assert_matches_reference(parse_expression(source), dict(zip("xy", box)))


@st.composite
def formula_documents(draw):
    """A 1-D or 2-D box, each axis a point, of width 1/2, 1 or 3, or one of
    ``EXTREME_AXES``, with a formula of the whole grammar per axis."""
    dim = draw(st.sampled_from([1, 2]))
    axes = []
    for _ in range(dim):
        lo = draw(st.sampled_from([0.0, -1.0, 0.5, -0.25]))
        widths = [(lo, lo + w) for w in (0.0, 1.0, 0.5, 3.0)]
        axes.append(draw(st.sampled_from(widths + list(EXTREME_AXES))))
    sources = [draw(formula_sources(variable_names(dim))) for _ in range(dim)]
    lower, upper = zip(*axes)
    return BoxSpace(lower, upper), sources


@given(formula_documents())
@example((BoxSpace((0.0,), (1.0,)), ["x/3*3"]))
@example((BoxSpace((0.0,), (1.0,)), ["(x + 2*y)/3/3"]))
@example((BoxSpace((0.0, 0.0), (1.0, 1.0)), ["(0.1+0.2)*x1/3", "-(x2 - y1)/7 + 0.5"]))
@example((BoxSpace((0.0,), (0.0,)), ["x / (1.7976931348623157e308 - (0 + 0.5))"]))
@example((BoxSpace((0.0,), (1.0,)), ["max(0.5*x - 0.25*y + 0.5, abs(x - 0.5))"]))
@example((BoxSpace((0.0,), (1.0,)), ["min(x*2.004168360008973e-292, y*1.0020841800044864e-292)"]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_float_bound_against_the_rational_reference(case):
    space, sources = case
    try:
        cmap = expression_map(space, sources)
    except GrammarError:  # a denominator that evaluates to zero
        assume(False)
    bounds = box_bounds(space)
    if not all([assert_matches_reference(e, bounds) for e in cmap.components]):
        return
    got, ref = map_form(cmap), reference_map(cmap)
    assert got == ref  # the same closure decision, A and B
    if ref is not None:
        assert got.lambda_hat(space) == ref.lambda_hat(space)


def stack_postorder(root):
    """The nodes that the fold took in turn when it walked the tree
    on a stack of its own: each after its operands, a call after its
    arguments."""
    todo, done = [(root, False)], []
    while todo:
        n, ready = todo.pop()
        if ready or isinstance(n, (ast.Name, ast.Constant)):
            done.append(n)
        elif isinstance(n, ast.UnaryOp):
            todo += [(n, True), (n.operand, False)]
        elif isinstance(n, ast.BinOp):
            todo += [(n, True), (n.right, False), (n.left, False)]
        else:  # a min, max or abs call
            todo += [(n, True), *[(a, False) for a in reversed(n.args)]]
    return done


@given(formula_documents())
@example((BoxSpace((0.0,), (1.0,)), ["min(x, -(y*2)/3)"]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_post_order_gives_the_stack_walks_form(case):
    # each node is combined as before, so the form read from the parser's
    # post-order equals the one read in the stack walk's order
    space, sources = case
    bounds = box_bounds(space)
    for source in sources:
        try:
            expr = parse_expression(source, space.dim)
        except GrammarError:  # a denominator that is zero or NaN
            assume(False)
        stacked = CompiledExpression(expr.source, expr.code, expr.tree,
                                     stack_postorder(expr.tree))
        assert list(map(id, expr.postorder)) == list(map(id, stacked.postorder))
        assert component_form(expr, bounds) == component_form(stacked, bounds)


def box_document(formulas, step=0.25):
    return {
        "schema_version": 1,
        "space": {"kind": "box", "dimension": 2, "lower": [0, 0],
                  "upper": [1, 1], "grid_step": step},
        "map": {"kind": "expression", "formula": formulas},
        "seeds": {"x0": [0, 0], "y0": [1, 1]},
        "parameters": {"epsilon": 0.6, "lambda_claimed": 0.9,
                       "tolerance": 1e-10, "max_iterations": 80},
    }


BOX_DOCUMENTS = {
    "affine": box_document([
        "0.0731*x1 + 0.1045*x2 - 0.0567*y1 - 0.0988*y2 + 0.4125",
        "0.0212*x1 + 0.0874*x2 - 0.1093*y1 - 0.0305*y2 + 0.5518"]),
    "affine-div": box_document([
        "(0.31*x1 + 0.12*x2 - 0.2*y1 - 0.05*y2 + 1.1)/3",
        "-(0.07*y1 - 0.11*x1 - 0.05*x2 + 0.09*y2) + 0.1/0.3"]),
    "minmax": box_document([
        "max(0.1*x1 + 0.05*x2 - 0.1*y1 + 0.3, 0.08*x1 - 0.02*y2 + 0.35)",
        "min(0.1*x2 - 0.1*y2 + 0.5, 0.12*x1 + 0.04*x2 - 0.03*y1 + 0.45)"]),
}

# sha256 of stdout and the exit code of `check` and `solve` on each document,
# written as NAME.json and read by that relative path; taken from the program
# that bounded the affine rounding in exact rationals, except that
# pair-bounds, common-comparable and epsilon-chainable now hold on the whole
# box with mode "exact" where that program reported them sampled, so an
# affine map's solve lists nothing as uncertified
BOX_DIGESTS = {
    "l1-0.0625": (
        "a0dae55b1952d99966fe9ebb2cb6e497ea9df9df9a16e753a0415b8e835403db",
        "832ced6a6dc3c01ec2b7df1f8600f4f550f6ee85e945ca9909ba587cfa7a3b54"),
    "l1-0.25": (
        "058bbe615cce9d63765b639ec03ed57cf8416118f7518cd67f73f6cbb7ce78aa",
        "8d5b844be63445e0a32a7e5761c2b034dfa0f70d1e0aa19d54ee6dcf12a240cb"),
    "l2d-0.0625": (
        "17a7a120dc0e1fd5878632e3e96d2e0b7d34cdef6aaaa431323dcd1348de225b",
        "7770807df27cbd56923a951538a15be1d7e399fe94f525a3b56c6e688cf1bc0b"),
    "l2d-0.25": (
        "bd0aeaca53226f7112d059bae034b947c6c23ac413f816f708fa3c01bdbea485",
        "321f54276f064a0478eae7f58419b20bcf9d6180ea5b98b02f49d16d04128531"),
    "affine": (
        "54b55181cb2cfd095a01ab7967b5b4006bc771d896f9fa2949c2a72103dff0fb",
        "fd585d3b2e281d5f759d232d82be7865346c5b85d0445a88cc35318d7dce98c9"),
    "affine-div": (
        "552cefe5cbcfa5cf41d71edccb9f37515c9a24aaa43c22ad3d25cd16727d41ac",
        "9a8018e4ea66e21b230adfedd1a559b49e7ede3da7705be8646f6bbf722887d7"),
    # decided from bounds on its derivatives since they were taken: both map
    # checks hold, contraction with mode "bound", and nothing is uncertified
    "minmax": (
        "4bf0efeade10970c327bf3d97e2efb76ceb6d168b0011ad362493eebff6cda3e",
        "1cc1971d850edddc98055484c20fc9aa0ecffc4f09132613a8a0b34653ead2b1"),
}


@pytest.mark.parametrize("name", sorted(BOX_DIGESTS))
def test_box_check_and_solve_keep_their_bytes(
    name, instance_dir, capsysbinary, monkeypatch, tmp_path
):
    if name in BOX_DOCUMENTS:
        doc = BOX_DOCUMENTS[name]
    else:
        stem, step = name.split("-")
        doc = json.loads((instance_dir / f"{stem}.json").read_text())
        doc["space"]["grid_step"] = float(step)
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    digests = []
    for command in ("check", "solve"):
        assert run_cli([command, f"{name}.json"]) == 0
        digests.append(hashlib.sha256(capsysbinary.readouterr().out).hexdigest())
    assert tuple(digests) == BOX_DIGESTS[name]
