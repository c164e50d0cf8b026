"""min, max and abs box maps decided from their formula, against the scan.

``component_form`` folds a formula into exact intervals for its partial
derivatives and an exact enclosure of its range; ``MapForm`` proves mixed
monotonicity when every x-slope is at least 0 and every y-slope at most 0,
and bounds the contraction ratio by 2 max(column sums of max(|lo|, |hi|)).
The bound is a supremum only when every interval is a point (mode
``"exact"``); otherwise the report says ``"bound"``.

Wherever the fold calls a map check proven, the sampled scan of the same
values (``unread``, a product the fold does not read) must find no
violation, and the sampled ``lambda_hat`` may exceed the fold's only by the
rounding allowance ``rounding_allowance`` argues. Every float value of a
formula the fold reads lies in [``low``, ``high``].
"""

import json
import math
import random
import runpy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfix.affine import MapForm, component_form
from chainfix.cli import run_cli
from chainfix.errors import GrammarError
from chainfix.expressions import parse_expression, variable_names
from chainfix.hypotheses import (
    HOLDS,
    VIOLATED,
    check_mixed_monotone,
    estimate_contraction,
)
from chainfix.mappings import expression_map
from chainfix.spaces import BoxSpace

from formula_reference import (
    EXTREME_AXES,
    exact_range,
    formula_sources,
    rounding_allowance,
    unread,
)

UNIT_BOX = {"x": (0.0, 1.0), "y": (0.0, 1.0)}


def form(source, bounds=UNIT_BOX):
    return component_form(parse_expression(source), bounds)


class TestRules:
    def test_min_and_max_take_the_hull(self):
        f = form("min(0.5*x - 0.25*y + 0.5, 0.25*x + 0.25)")
        assert f.slopes == {"x": (Fraction(1, 4), Fraction(1, 2)),
                            "y": (Fraction(-1, 4), 0)}
        # the ranges [0.25, 1] and [0.25, 0.5], widened by the rounding bound
        assert exact_range(f) == (Fraction(1, 4), Fraction(1, 2))
        # min and max round nothing: the bound is the larger argument's
        assert f.error == form("0.5*x - 0.25*y + 0.5").error
        assert form("max(x, 1 - y)").slopes == {"x": (0, 1), "y": (-1, 0)}

    @pytest.mark.parametrize("source, slope, low, high", [
        ("abs(x + 1)", (1, 1), 1, 2),  # the range excludes 0: kept
        ("abs(x - 2)", (-1, -1), 1, 2),  # flipped
        ("abs(x)", (1, 1), 0, 1),  # touches 0 on one side: kept
        ("abs(x - 0.5)", (-1, 1), 0, Fraction(1, 2)),  # the hull of d and -d
    ])
    def test_abs_keeps_flips_or_hulls(self, source, slope, low, high):
        f = form(source)
        assert (f.slopes["x"], *exact_range(f)) == (slope, low, high)

    def test_constant_calls_are_read_exactly(self):
        f = form("min(1, 2)*x + abs(-0.5)")
        assert f.slopes == {"x": (1, 1)}
        assert exact_range(f) == (Fraction(1, 2), Fraction(3, 2))

    def test_a_call_reads_its_magnitude_from_its_own_range(self):
        # min(1e300, x) takes values in x's axis [5e-324, 1e-300] alone, and
        # its divisor carries no rounding error, so the quotient is at most
        # 1e-100 and adding 0.5 rounds within one ulp of 0.5
        tiny = {"x": EXTREME_AXES[0], "y": EXTREME_AXES[0]}
        f = form("min(1e300, x)/1e-200 + 0.5", tiny)
        assert f.slopes == {"x": (0, 1 / Fraction(1e-200))}
        assert 0.5 - math.ulp(0.5) < f.low < f.high < 0.5 + math.ulp(0.5)

    @pytest.mark.parametrize("source", ["x*y", "(x + 1)*(y - 1)", "min(x, y)*x",
                                        "abs(x)*abs(y)", "1e308*x*10",
                                        "1e308*max(x, 1)*10"])
    def test_unread(self, source):
        # a product of two factors that read a variable, or an overflow
        assert form(source) is None

    def test_scaling_a_hull(self):
        f = form("-2*max(x, 0.5)/4")
        assert f.slopes == {"x": (Fraction(-1, 2), 0)}
        assert exact_range(f) == (Fraction(-1, 2), Fraction(-1, 4))


class TestMapForm:
    def test_min_max_map_is_bounded_not_exact(self):
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "max(0.25*x - 0.125*y + 0.5, 0.125*x + 0.25)")
        q = Fraction(1, 8)
        assert cmap.form == MapForm(A=(((q, 2 * q),),), B=(((0, q),),))
        assert cmap.form.mixed_monotone and not cmap.form.exact
        rep = estimate_contraction(cmap, 0.3, 0.25)
        assert (rep.verdict, rep.lambda_hat, rep.mode, rep.pairs_tested) == (
            HOLDS, 0.5, "bound", 0)
        mono = check_mixed_monotone(cmap, 0.25)
        assert (mono.verdict, mono.details["mode"]) == (HOLDS, "exact")

    def test_equal_pieces_are_exact(self):
        # every interval is a point, so the map is affine and the bound is
        # attained
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "min((2*x - y + 3)/8, (2*x - y + 3)/8)")
        assert cmap.form.exact
        rep = estimate_contraction(cmap, 0.3, 0.25)
        assert (rep.lambda_hat, rep.mode) == (0.5, "exact")

    def test_range_past_a_face_is_scanned(self):
        # the range of 2*abs(x - y) is [0, 2], so closure is not proven and
        # the scan finds the violation
        box = BoxSpace((0.0,), (1.0,))
        cmap = expression_map(box, "min(1, 2*abs(x - y))")
        assert cmap.form is None
        rep = check_mixed_monotone(cmap, 0.5)
        assert rep.verdict == VIOLATED


@st.composite
def pieces(draw, names, signed):
    """An affine piece with values in [0.01, 0.99] on the unit box: each
    variable enters once, and y with a minus sign. Its coefficients are
    hundredths, of either sign or all nonnegative, whose magnitudes sum to
    at most 0.3, 0.6 or 0.96, so the map's bound falls on both sides of 1."""
    k = len(names) // 2
    cap = draw(st.sampled_from([30, 60, 96]))
    raw = [draw(st.integers(-96 if signed else 0, 96)) for _ in names]
    total = sum(map(abs, raw))
    if total > cap:
        raw = [int(r * cap / total) for r in raw]
    coefs = [r / 100 for r in raw]
    terms = [(c, v) if i < k else (-c, v) for i, (c, v) in enumerate(zip(coefs, names))]
    low = sum(min(c, 0) for c, _ in terms)
    high = sum(max(c, 0) for c, _ in terms)
    c = draw(st.integers(round(-low * 100) + 1, round((1 - high) * 100) - 1)) / 100
    return " + ".join(f"({c})*{v}" for c, v in terms) + f" + {c}"


@st.composite
def units(draw, names, signed, depth=3):
    """A formula with values in [0.01, 0.99] on the unit box: a piece, or
    min and max of such formulas, 1 minus one, 0.25 + abs(one - 0.5), or
    0.5 times one plus 0.25. Pieces meet only in min, max, abs and constant
    scalings and shifts, so no two terms of a variable cancel in a sum, and
    every operation is monotone in float64 as it is in exact arithmetic."""
    kind = draw(st.sampled_from(["piece", "min", "max", "flip", "abs", "scale"])
                if depth else st.just("piece"))
    if kind == "piece":
        return draw(pieces(names, signed))
    inner = [draw(units(names, signed, depth - 1))
             for _ in range(draw(st.integers(2, 3)) if kind in ("min", "max") else 1)]
    if kind in ("min", "max"):
        return f"{kind}({', '.join(inner)})"
    return {"flip": "1 - ({})", "abs": "0.25 + abs({} - 0.5)",
            "scale": "0.5*({}) + 0.25"}[kind].format(*inner)


@st.composite
def min_max_boxes(draw):
    dim = draw(st.sampled_from([1, 2]))
    names = list(variable_names(dim))
    signed = draw(st.booleans())
    formulas = [draw(units(names, signed)) for _ in range(dim)]
    step = draw(st.sampled_from([0.5, 1 / 3] if dim == 2 else [0.5, 0.25]))
    epsilon = draw(st.sampled_from([1e-9, 0.2, 0.6, 1.5]))
    return expression_map(BoxSpace((0.0,) * dim, (1.0,) * dim), formulas), step, epsilon


@given(min_max_boxes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fold_never_contradicts_the_scan(case):
    cmap, step, epsilon = case
    assert cmap.form is not None  # the 0.01 clearance covers rounding
    scanned = unread(cmap)
    mono, mono_scan = (check_mixed_monotone(m, step) for m in (cmap, scanned))
    if mono.details.get("mode") == "exact":
        assert mono.verdict == HOLDS and cmap.form.mixed_monotone
        assert mono_scan.verdict != VIOLATED
    else:
        assert mono == mono_scan
    rep, scan = (estimate_contraction(m, epsilon, step) for m in (cmap, scanned))
    if rep.mode in ("exact", "bound"):
        assert rep.verdict == HOLDS and rep.lambda_hat < 1.0
        assert rep.mode == ("exact" if cmap.form.exact else "bound")
        assert not scan.violated
        if not scan.vacuous:
            allowance = rounding_allowance(cmap, step, rep.lambda_hat)
            assert Fraction(scan.lambda_hat) <= Fraction(rep.lambda_hat) + allowance
    else:
        assert rep == scan


@st.composite
def line_formulas(draw):
    """An axis (a point, one of width 1 or 3/2, or one of ``EXTREME_AXES``)
    and a formula of the whole grammar in x and y that nests at most 4
    levels."""
    axis = draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.5), (0.25, 0.25), (0.0, 0.0),
                                 (-3.0, -3.0), *EXTREME_AXES]))
    return axis, draw(formula_sources(("x", "y")))


def axis_points(lo, hi, ts):
    # lo (1 - t) + hi t stays finite on the widest axis, where hi - lo does not
    return [min(max(lo * (1 - t) + hi * t, lo), hi) for t in ts]


@given(line_formulas())
@example(((5e-324, 1e-300), "min(1e300, x)/1e-200 + 0.5"))
@example(((0.0, 1.0), "abs(x - 0.5)*3 - max(y, 0.1)/0.3"))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_float_value_lies_in_the_range(case):
    # the property that lets the map checks skip the sample on a box map
    # whose form lies inside the box
    (lo, hi), source = case
    try:
        expr = parse_expression(source)
    except GrammarError:  # a denominator that evaluates to zero
        return
    f = component_form(expr, {"x": (lo, hi), "y": (lo, hi)})
    if f is None:
        return
    grid = axis_points(lo, hi, [i / 6 for i in range(7)])
    rng = random.Random(source)
    draws = zip(*(axis_points(lo, hi, [rng.random() for _ in range(16)])
                  for _ in "xy"))
    for x, y in [*((x, y) for x in grid for y in grid), *draws]:
        value = expr.evaluate({"x": x, "y": y})
        assert math.isfinite(value) and f.low <= Fraction(value) <= f.high, (x, y)


def min_max_documents(root, seeds=(5, 7, 11, 31)):
    """The min/max documents of the box benchmark at ``seeds``."""
    box_documents = runpy.run_path(str(root / "perfbench" / "workloads.py"))[
        "box_documents"]
    return {f"{stem}-{seed}": doc for seed in seeds
            for stem, doc in box_documents(seed, root).items() if "minmax" in stem}


def test_benchmark_min_max_documents_are_certified(instance_dir, capsys, monkeypatch,
                                                  tmp_path):
    # proven from their formulas, so each bound is certified, and at
    # --horizon 3000 a miss would exit 1
    docs = min_max_documents(instance_dir.parent)
    assert len(docs) == 16
    monkeypatch.chdir(tmp_path)
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["solve", str(path)]) == 0, name
        solved = json.loads(capsys.readouterr().out)
        assert solved["config"]["uncertified"] == [], name
        for check in ("mixed-monotone", "uniform-local-contraction"):
            assert solved["hypotheses"][check]["verdict"] == HOLDS, name
        assert solved["hypotheses"]["uniform-local-contraction"]["mode"] == "bound"
        assert run_cli(["verify-lemma", str(path), "--horizon", "3000"]) == 0, name
        lemma = json.loads(capsys.readouterr().out)
        assert (lemma["advisory"], lemma["all_below_bound"]) == (False, True), name
