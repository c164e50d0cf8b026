"""The tabulated scans against a direct reference.

The references below are the quadruple loops the scans replaced: they walk
points rather than indices and ask ``space.leq``, ``space.distance`` and
``cmap.apply`` about every pair. On generated box maps (affine, clamped
min/max/abs trees, and violators such as ``x*y`` or expansive maps) both
must give the same verdict, witness, bitwise ``lambda_hat``, quadruple count
and sample fields (an affine map is written as ``min(f, f)`` here, since
its plain form is decided from its coefficients without a scan); on
generated finite tables, the same mixed-monotonicity verdict and witness, and the same contraction report as the finite index
loop below. The box map's array tabulation is checked against ``apply`` by
``repr``, escapes included.
"""

import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix import hypotheses
from chainfix.errors import EscapeError
from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    SamplingPlan,
    check_mixed_monotone,
    estimate_contraction,
    sample_points,
)
from chainfix.mappings import TableMap, expression_map
from chainfix.spaces import BoxSpace, FiniteSpace, point_jsonable


def reference_mixed_monotone(cmap, plan):
    space = cmap.space
    pts = sample_points(space, plan)
    leq, f = space.leq, cmap.apply

    def found(branch, a1, a2, other, fa1, fa2):
        names = ("x1", "x2", "y", "F(x1,y)", "F(x2,y)")
        if branch == "second-argument":
            names = ("y1", "y2", "x", "F(x,y1)", "F(x,y2)")
        values = (a1, a2, other, fa1, fa2)
        witness = {k: point_jsonable(v) for k, v in zip(names, values)}
        return VIOLATED, {"branch": branch, **witness}

    result = (HOLDS if isinstance(space, FiniteSpace) else SAMPLED), None
    for x1 in pts:
        for x2 in pts:
            if x1 == x2 or not leq(x1, x2):
                continue
            for y in pts:
                if not leq(f(x1, y), f(x2, y)):
                    result = found("first-argument", x1, x2, y, f(x1, y), f(x2, y))
                    break
            else:
                continue
            break
        else:
            continue
        break
    if result[0] != VIOLATED:
        for x in pts:
            for y1 in pts:
                for y2 in pts:
                    if y1 == y2 or not leq(y1, y2):
                        continue
                    if not leq(f(x, y2), f(x, y1)):
                        result = found(
                            "second-argument", y1, y2, x, f(x, y1), f(x, y2)
                        )
                        break
                else:
                    continue
                break
            else:
                continue
            break
    verdict, witness = result
    return {"verdict": verdict, "witness": witness, "sample_size": len(pts),
            "sample_seed": plan.seed}


def reference_contraction(cmap, epsilon, plan):
    space = cmap.space
    pts = sample_points(space, plan)
    leq, dist, f = space.leq, space.distance, cmap.apply
    xu_pairs = [(x, u) for x in pts for u in pts if leq(u, x)]
    yv_pairs = [(y, v) for y in pts for v in pts if leq(y, v)]
    best = -1.0
    best_w = None
    tested = 0
    violated = False
    for x, u in xu_pairs:
        dxu = dist(x, u)
        for y, v in yv_pairs:
            s = dxu + dist(y, v)
            if s <= 0 or not s / 2.0 < epsilon:
                continue
            tested += 1
            r = 2.0 * dist(f(x, y), f(u, v)) / s
            if r >= 1.0:
                violated, best, best_w = True, None, (x, u, y, v)
                break
            if r > best:
                best = r
                best_w = (x, u, y, v)
        if violated:
            break
    if tested == 0:
        best = 0.0  # the vacuous report the pipeline has always printed
    return {"violated": violated, "lambda_hat": best, "witness": best_w,
            "pairs_tested": tested, "vacuous": tested == 0,
            "sample_size": len(pts), "sample_seed": plan.seed}


def reference_finite_contraction(cmap, epsilon):
    """The finite scan as an index loop over rows of Python numbers, read
    point by point through ``leq``, ``distance`` and ``apply``: (x, u) with
    u <= x row-major, then (y, v) with y <= v row-major."""
    space = cmap.space
    idx = range(space.size)
    L = [[space.leq(p, q) for q in idx] for p in idx]
    D = [[space.distance(p, q) for q in idx] for p in idx]
    T = [[cmap.apply(x, y) for y in idx] for x in idx]
    best, best_w, tested = -1.0, None, 0
    for x in idx:
        for u in idx:
            if not L[u][x]:
                continue
            for y in idx:
                for v in idx:
                    if not L[y][v]:
                        continue
                    s = D[x][u] + D[y][v]
                    if s <= 0 or not s / 2.0 < epsilon:
                        continue
                    tested += 1
                    r = 2.0 * D[T[x][y]][T[u][v]] / s
                    if r >= 1.0:
                        return VIOLATED, (x, u, y, v), None, tested, False
                    if r > best:
                        best, best_w = r, (x, u, y, v)
    return HOLDS, best_w, max(best, 0.0), tested, tested == 0


def coef(lo, hi):
    return st.integers(round(lo * 100), round(hi * 100)).map(lambda k: k / 100)


@st.composite
def affine(draw, xs, ys):
    # x-coefficients a >= 0, y-coefficients b >= 0, sum(a) + sum(b) <= 0.96
    # and c at least 0.01 inside [sum(b), 1 - sum(a)], so the map sends the
    # unit box into itself with room for rounding
    budget = 0.48 if len(xs) == 1 else 0.24
    a = [draw(coef(0, budget)) for _ in xs]
    b = [draw(coef(0, budget)) for _ in ys]
    c = draw(coef(sum(b) + 0.01, 1 - sum(a) - 0.01))
    terms = [f"{k}*{n}" for k, n in zip(a, xs)]
    terms += [f"-{k}*{n}" for k, n in zip(b, ys)]
    return " + ".join(terms + [str(c)]).replace("+ -", "- ")


def tree(xs, ys):
    leaves = st.sampled_from(xs + ys) | coef(0, 2).map(str)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
                lambda t: f"({t[1]} {t[0]} {t[2]})"
            ),
            st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
                lambda t: f"{t[0]}({t[1]}, {t[2]})"
            ),
            sub.map(lambda e: f"abs({e})"),
            st.tuples(coef(0, 3), sub).map(lambda t: f"{t[0]}*{t[1]}"),
        ),
        max_leaves=5,
    )


@st.composite
def box_maps(draw):
    dim = draw(st.sampled_from([1, 2]))
    xs = ["x"] if dim == 1 else ["x1", "x2"]
    ys = ["y"] if dim == 1 else ["y1", "y2"]
    violators = ["x*y", "y", "1 - x", "min(1, 2*abs(x - y))"] if dim == 1 else [
        "x1*y2", "y1", "min(1, max(0, 2*x2 - y1))", "1 - x1"]
    component = st.one_of(
        # min(f, f) has f's values but no affine form, so it is scanned
        affine(xs, ys).map(lambda e: f"min({e}, {e})"),
        tree(xs, ys).map(lambda e: f"min(1, max(0, {e}))"),
        st.sampled_from(violators),
    )
    formulas = [draw(component) for _ in range(dim)]
    space = BoxSpace((0.0,) * dim, (1.0,) * dim)
    step = draw(st.sampled_from([0.5, 1 / 3, 0.25] if dim == 1 else [0.5, 1 / 3]))
    plan = SamplingPlan(
        grid_step=step,
        random_count=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 5)),
    )
    epsilon = draw(st.sampled_from([0.2, 0.3, 0.6, 1.5]))
    return expression_map(space, formulas), plan, epsilon


@given(box_maps())
@settings(max_examples=150, deadline=None)
def test_tabulated_scans_match_reference(case):
    cmap, plan, epsilon = case
    mono = check_mixed_monotone(cmap, plan)
    assert {
        "verdict": mono.verdict, "witness": mono.witness,
        "sample_size": mono.sample_size, "sample_seed": mono.sample_seed,
    } == reference_mixed_monotone(cmap, plan)
    rep = estimate_contraction(cmap, epsilon, plan)
    ref = reference_contraction(cmap, epsilon, plan)
    assert rep.mode == "sampled"
    assert {
        "violated": rep.violated, "lambda_hat": rep.lambda_hat,
        "witness": rep.witness, "pairs_tested": rep.pairs_tested,
        "vacuous": rep.vacuous, "sample_size": rep.sample_size,
        "sample_seed": rep.sample_seed,
    } == ref
    if ref["lambda_hat"] is not None:  # == on floats is bitwise here
        assert rep.lambda_hat.hex() == ref["lambda_hat"].hex()


def test_box_scan_without_admissible_quadruple_is_vacuous():
    # grid gaps of 0.5 put every nonzero mean distance above epsilon = 0.2
    box = BoxSpace((0.0,), (1.0,))
    coarse = SamplingPlan(grid_step=0.5, seed=3)
    rep = estimate_contraction(expression_map(box, "x*y"), 0.2, coarse)
    assert (rep.vacuous, rep.pairs_tested, rep.lambda_hat, rep.witness) == (
        True, 0, 0.0, None)
    assert (rep.mode, rep.sample_size, rep.sample_seed) == ("sampled", 3, 3)


def images_by_apply(cmap, pts):
    try:
        return [[cmap.apply(x, y) for y in pts] for x in pts]
    except EscapeError as exc:
        return str(exc), exc.witness


def images_by_tabulate(cmap, pts):
    try:
        table = cmap.tabulate(pts, pts)
    except EscapeError as exc:
        return str(exc), exc.witness
    return [list(map(tuple, row)) for row in table.tolist()]


@st.composite
def signed_box_maps(draw):
    # on [-1, 1], 0*x is -0.0 for x < 0, so signed zeros meet in min and max;
    # the grid pairs equal coordinates, so ties meet too
    dim = draw(st.sampled_from([1, 2]))
    xs = ["x"] if dim == 1 else ["x1", "x2"]
    ys = ["y"] if dim == 1 else ["y1", "y2"]
    x, y = xs[-1], ys[0]
    edge_cases = [
        f"min(0*{x}, -(0*{y}))", f"max(-(0*{x}), 0*{y})",
        f"min({x}, {y})", f"max({y}, {x}, {y})", f"min(-{x}, -{y}, 0*{x})",
        f"1e308*{x}*10", f"{x} - {y}", "0.5",
    ]
    component = st.one_of(
        st.sampled_from(edge_cases),
        tree(xs, ys),
        tree(xs, ys).map(lambda e: f"min(1, max(-1, {e}))"),
    )
    formulas = [draw(component) for _ in range(dim)]
    space = BoxSpace((-1.0,) * dim, (1.0,) * dim)
    plan = SamplingPlan(grid_step=draw(st.sampled_from([0.5, 1.0])),
                        random_count=draw(st.integers(0, 3)),
                        seed=draw(st.integers(0, 5)))
    pts = [(-0.0,) * dim, *sample_points(space, plan)]
    return expression_map(space, formulas), pts


@given(signed_box_maps())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tabulate_matches_apply(case):
    cmap, pts = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tabulated = images_by_tabulate(cmap, pts)
    assert repr(tabulated) == repr(images_by_apply(cmap, pts))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_overflow_escapes_quietly(capfd):
    cmap = expression_map(BoxSpace((0.0,), (1.0,)), "1e308*x*10")
    pts = [(0.0,), (0.5,), (1.0,)]
    with pytest.raises(EscapeError) as info:
        cmap.tabulate(pts, pts)
    assert str(info.value) == (
        "map value (inf,) escapes the box at x=(0.5,), y=(0.0,)")
    assert info.value.witness == ((0.5,), (0.0,))
    assert "RuntimeWarning" not in capfd.readouterr().err


def finite_space(n, kind, rng, positions=None):
    # "chain" is the dense total order, "antichain" the identity and
    # "random" the transitive closure of i <= j for half the i < j; the
    # metric is |positions[i] - positions[j]|, or discrete without positions
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            leq[i][j] = kind == "chain" or (kind == "random" and rng.random() < 0.5)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    dist = [[float(i != j) for j in range(n)] for i in range(n)]
    if positions is not None:
        dist = [[abs(a - b) for b in positions] for a in positions]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, leq)


@st.composite
def finite_maps(draw):
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["random", "chain", "antichain"]))
    space = finite_space(n, kind, draw(st.randoms(use_true_random=False)))
    regime = draw(st.sampled_from(["late", "second", "random", "first", "constant"]))
    if regime == "random":
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    else:
        # F(x, y) = x passes both branches, F(x, y) = y fails only the
        # second one on any comparable pair; "late" edits one entry of the
        # last rows of a passing map
        c = draw(st.integers(0, n - 1))
        table = [[{"second": y, "constant": c}.get(regime, x) for y in range(n)]
                 for x in range(n)]
        if regime == "late":
            row = draw(st.integers(n // 2, n - 1))
            table[row][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return TableMap(space, tuple(map(tuple, table)))


@given(finite_maps(), st.integers(1, 40))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_whole_row_scan_matches_finite_reference(cmap, block):
    # small blocks put the first violation past the first block
    with mock.patch.object(hypotheses, "_BLOCK", block):
        rep = check_mixed_monotone(cmap)
    ref = reference_mixed_monotone(cmap, SamplingPlan())
    assert (rep.verdict, rep.witness) == (ref["verdict"], ref["witness"])
    assert (rep.sample_size, rep.sample_seed) == (None, None)


@st.composite
def finite_contraction_cases(draw):
    # points on a line at small integer positions, so equal distances and
    # tied ratios are common; a scale of 1 keeps integer distances, 0.5 and
    # 0.25 give exact floats
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["chain", "random", "chain", "random", "antichain"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1, 0.5, 0.25]))
    pos = sorted(draw(st.sets(st.integers(0, 9), min_size=n, max_size=n)))
    space = finite_space(n, kind, rng, [p * scale for p in pos])
    regime = draw(st.sampled_from(["late", "step", "random", "constant", "first"]))
    c = draw(st.integers(0, n - 1))
    # "constant" ties every ratio at 0; "late" breaks a constant map in one
    # of the last rows; "first" is F(x, y) = x
    table = [[x if regime == "first" else c for y in range(n)] for x in range(n)]
    if regime == "late":
        table[draw(st.integers(n - 2, n - 1))][draw(st.integers(0, n - 1))] = (
            draw(st.integers(0, n - 1)))
    elif regime == "step":
        # F jumps between the two closest points where x crosses the widest
        # gap, so every ratio is 2 * (closest gap) / s: it holds below 1 when
        # the widest gap is over twice the closest, with ties wherever y = v
        gaps = [b - a for a, b in zip(pos, pos[1:])]
        lo = gaps.index(min(gaps))
        k = gaps.index(max(gaps)) + 1
        table = [[lo + (x >= k)] * n for x in range(n)]
    elif regime == "random":
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    # 0.1 is below half of every nonzero distance: the scan is vacuous
    epsilon = draw(st.sampled_from([100.0, 2.5, 1.0, 0.1]))
    return TableMap(space, table), epsilon


@given(finite_contraction_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_finite_contraction_matches_index_loop(case):
    cmap, epsilon = case
    rep = estimate_contraction(cmap, epsilon)
    verdict, witness, lam, tested, vacuous = reference_finite_contraction(cmap, epsilon)
    assert (rep.verdict, rep.witness, repr(rep.lambda_hat), rep.pairs_tested,
            rep.vacuous) == (verdict, witness, repr(lam), tested, vacuous)
    assert rep.mode == "exhaustive"
