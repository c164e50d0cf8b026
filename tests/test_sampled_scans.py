"""The tabulated scans against a direct reference.

The references below are the quadruple loops the scans replaced: they walk
points rather than indices and ask ``space.leq``, ``space.distance`` and
``cmap.apply`` about every pair. On generated box maps (affine, clamped
min/max/abs trees, and violators such as ``x*y`` or expansive maps) both
must give the same verdict, witness, bitwise ``lambda_hat``, quadruple count
and sample fields (each component is multiplied by ``1 + x*x*0``, which
keeps its values: the fold of ``chainfix.affine`` would decide many of
these maps without a scan, and it does not read a product of two factors
that both read a variable); on
generated finite tables, the same mixed-monotonicity verdict and witness, and the same contraction report as the finite index
loop below. The box map's array tabulation is checked against ``apply`` by
``repr``, escapes included. ``eager_contraction`` is the contraction scan
as it stood before it converted its rows on first use; its reports must be
``repr``-equal to the scan's.

Mixed monotonicity is decided on covering pairs first, so cases whose first
violation lies on a non-covering pair pin that the full scan still reports
it. The chainability check takes whole arrays; ``reference_chainable`` is
the per-source breadth-first loop it replaced, and both must give the same
verdict, witness, ``max_n``, unreachable pairs and ``chain_n`` items in
order, on finite spaces (a box is decided from its shape, see
``tests/test_hypotheses.py``).
"""

import collections
import hashlib
import json
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix import hypotheses
from chainfix.cli import run_cli
from chainfix.errors import EscapeError
from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    check_epsilon_chainable,
    check_mixed_monotone,
    estimate_contraction,
    find_epsilon_chain,
    sample_points,
)
from chainfix.instances import generate_finite_instance
from chainfix.mappings import TableMap, expression_map
from chainfix.spaces import BoxSpace, FiniteSpace, point_jsonable
from formula_reference import unread


def reference_mixed_monotone(cmap, grid_step=None):
    space = cmap.space
    pts = sample_points(space, grid_step)
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
            "sample_seed": 0}


def reference_contraction(cmap, epsilon, grid_step):
    space = cmap.space
    pts = sample_points(space, grid_step)
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
            "sample_size": len(pts), "sample_seed": 0}


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


def eager_contraction(cmap, epsilon, grid_step=None):
    """``estimate_contraction``'s scan of a table map or a box sample as it
    was before it read its rows lazily: every distance row of a finite
    space and every (y, v) pair are converted before the first quadruple.
    The loop is the same, so both must give ``repr``-equal reports."""
    tab = hypotheses._map_tables(cmap, grid_step)
    images = tab.images
    if isinstance(cmap, TableMap):
        T = hypotheses._Rows(lambda i: images[i].tolist())
        DI = tab.D.tolist()
    else:
        T = hypotheses._Rows(lambda i: list(map(tuple, images[i].tolist())))
        DI = hypotheses._Rows(hypotheses._L1Row)

    def pairs(M):
        i, j = np.nonzero(M)
        return zip(i.tolist(), j.tolist(), tab.D[i, j].tolist())

    xu_pairs = pairs(tab.L.T)
    yv_pairs = list(pairs(tab.L))
    best = -1.0
    best_w = None
    tested = 0
    for x, u, dxu in xu_pairs:
        tx = T[x]
        tu = T[u]
        for y, v, dyv in yv_pairs:
            s = dxu + dyv
            if s <= 0 or not s / 2.0 < epsilon:
                continue
            tested += 1
            r = 2.0 * DI[tx[y]][tu[v]] / s
            if r >= 1.0:
                return hypotheses._contraction_report(
                    tab, epsilon, None, True, (x, u, y, v), tested
                )
            if r > best:
                best = r
                best_w = (x, u, y, v)
    return hypotheses._contraction_report(
        tab, epsilon, max(best, 0.0), False, best_w, tested)


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
        affine(xs, ys),
        tree(xs, ys).map(lambda e: f"min(1, max(0, {e}))"),
        st.sampled_from(violators),
    )
    # the same values as a product the fold does not read, so it is scanned
    formulas = [f"({draw(component)}) * (1 + {xs[0]}*{xs[0]}*0)" for _ in range(dim)]
    space = BoxSpace((0.0,) * dim, (1.0,) * dim)
    steps = [0.5, 1 / 3, 0.25, None] if dim == 1 else [0.5, 1 / 3, None]
    step = draw(st.sampled_from(steps))  # None: the 8 draws alone
    epsilon = draw(st.sampled_from([0.2, 0.3, 0.6, 1.5]))
    return expression_map(space, formulas), step, epsilon


@given(box_maps())
@settings(max_examples=150, deadline=None)
def test_tabulated_scans_match_reference(case):
    cmap, step, epsilon = case
    mono = check_mixed_monotone(cmap, step)
    assert {
        "verdict": mono.verdict, "witness": mono.witness,
        "sample_size": mono.sample_size, "sample_seed": mono.sample_seed,
    } == reference_mixed_monotone(cmap, step)
    rep = estimate_contraction(cmap, epsilon, step)
    ref = reference_contraction(cmap, epsilon, step)
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
    # no two of the 3 grid points and 8 draws lie within 2e-9 of each
    # other, so every nonzero mean distance is above epsilon = 1e-9
    box = BoxSpace((0.0,), (1.0,))
    cmap = expression_map(box, "x*y")
    rep = estimate_contraction(cmap, 1e-9, 0.5)
    assert (rep.vacuous, rep.pairs_tested, rep.lambda_hat, rep.witness) == (
        True, 0, 0.0, None)
    ref = reference_contraction(cmap, 1e-9, 0.5)
    assert (rep.mode, rep.sample_size, rep.sample_seed) == (
        "sampled", ref["sample_size"], ref["sample_seed"])


def images_by_apply(cmap, pts):
    try:
        return [[cmap.apply(x, y) for y in pts] for x in pts]
    except EscapeError as exc:
        return str(exc), exc.witness


def images_by_tabulate(cmap, pts):
    try:
        table = cmap._tabulate(pts, pts)
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
    pts = [(-0.0,) * dim, *sample_points(space, draw(st.sampled_from([0.5, 1.0, None])))]
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
        cmap._tabulate(pts, pts)
    assert str(info.value) == (
        "map value (inf,) escapes the box at x=(0.5,), y=(0.0,)")
    assert info.value.witness == ((0.5,), (0.0,))
    assert "RuntimeWarning" not in capfd.readouterr().err


def test_integer_coordinates_give_float_images():
    # a library caller may pass integer coordinates; an image that passes
    # one through is a float, as the tabulated image is
    cmap = expression_map(BoxSpace((0,), (2,)), ["min(x, y)"])
    pts = [(0,), (1,), (2,)]
    assert repr(images_by_apply(cmap, pts)) == repr(images_by_tabulate(cmap, pts))


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
    ref = reference_mixed_monotone(cmap)
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


@given(finite_contraction_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_lazy_rows_match_the_eager_loop_on_tables(case):
    cmap, epsilon = case
    assert repr(estimate_contraction(cmap, epsilon)) == repr(
        eager_contraction(cmap, epsilon))


@given(box_maps())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_lazy_rows_match_the_eager_loop_on_box_samples(case):
    cmap, step, epsilon = case
    assert repr(estimate_contraction(cmap, epsilon, step)) == repr(
        eager_contraction(cmap, epsilon, step))


def lazy_and_eager(cmap, epsilon, step=None):
    rep = estimate_contraction(cmap, epsilon, step)
    assert repr(rep) == repr(eager_contraction(cmap, epsilon, step))
    return rep


def test_lazy_rows_match_the_eager_loop_on_named_cases():
    unit = BoxSpace((0.0,), (1.0,))
    # ulp ties: rounding spreads the ratios of (x - y)/3 over a few ulps
    # around 2/3, and the largest of them is attained 8 times, so the first
    # attainment decides the witness
    rep = lazy_and_eager(unread(expression_map(unit, "(x - y)/3 + 0.5")), 0.6, 0.1)
    assert (rep.violated, rep.mode) == (False, "sampled")
    # zero distances between images: a constant map measures 0 everywhere
    rep = lazy_and_eager(unread(expression_map(unit, "0.5 + 0*x")), 0.6, 0.25)
    assert (rep.lambda_hat, rep.witness, rep.vacuous) == (
        0.0, ((0.0,), (0.0,), (0.0,), (0.25,)), False)
    # vacuous: no two sample points lie within 2e-9 of each other
    rep = lazy_and_eager(unread(expression_map(unit, "x*y")), 1e-9, 0.5)
    assert (rep.vacuous, rep.pairs_tested) == (True, 0)
    # a late violation: F is flat below x = 0.9 and steep above it, so only
    # the last grid rows break it
    rep = lazy_and_eager(
        unread(expression_map(unit, "0.25 + 0.1*x + 5*max(0, x - 0.9)")), 0.6, 0.05)
    assert rep.violated and rep.witness[0][0] > 0.9
    # finite: the 15 generated documents of one benchmark seed, each map
    # regime at n = 64, and a violation in the last row of a constant map
    for seed in range(420, 435):
        inst = generate_finite_instance(seed, 64)
        if seed % 3:  # the constant maps scan 3.6 million quadruples
            lazy_and_eager(inst.cmap, inst.params.epsilon)
    n = 9
    space = finite_space(n, "chain", random.Random(0), list(range(n)))
    table = [[0] * n for _ in range(n)]
    table[n - 1][n - 1] = n - 1
    rep = lazy_and_eager(TableMap(space, table), 100.0)
    assert rep.violated and rep.witness == (n - 1, 0, n - 1, n - 1)


@pytest.mark.parametrize("table", [
    # first branch: (0, 1) passes, (0, 2) fails before the covering pair (1, 2)
    [[1] * 3, [2] * 3, [0] * 3],
    # second branch: (y1, y2) = (0, 1) passes, (0, 2) fails first
    [[1, 0, 2]] * 3,
], ids=["first-argument", "second-argument"])
def test_first_violation_on_a_non_covering_pair(table):
    # on the chain 0 < 1 < 2 only (0, 1) and (1, 2) are covering pairs, so
    # the covering check finds (1, 2) and the full scan must report (0, 2)
    cmap = TableMap(finite_space(3, "chain", random.Random(0)), table)
    rep = check_mixed_monotone(cmap)
    ref = reference_mixed_monotone(cmap)
    assert (rep.verdict, rep.witness) == (ref["verdict"], ref["witness"])
    names = ("x1", "x2") if rep.witness["branch"] == "first-argument" else ("y1", "y2")
    assert [rep.witness[k] for k in names] == [0, 2]


def test_box_first_violation_on_a_non_covering_pair():
    # f(0) = 0.5, f(0.5) = 1, f(1) = 0 on the grid 0 < 0.5 < 1
    cmap = expression_map(BoxSpace((0.0,), (1.0,)),
                          "min(1, max(0, 0.5 + x - 3*max(0, x - 0.5)))")
    rep = check_mixed_monotone(cmap, 0.5)
    ref = reference_mixed_monotone(cmap, 0.5)
    assert {"verdict": rep.verdict, "witness": rep.witness,
            "sample_size": rep.sample_size, "sample_seed": rep.sample_seed} == ref
    assert (rep.witness["x1"], rep.witness["x2"]) == (0.0, 1.0)


def bfs(adj, src):
    """Hop counts from src over the adjacency lists ``adj`` (None where no
    path leads) and the node each one was first reached from: the search
    the finite chain routes ran before they walked the hop table."""
    hops = [None] * len(adj)
    parent = [None] * len(adj)
    hops[src] = 0
    queue = collections.deque([src])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if hops[j] is None:
                hops[j] = hops[i] + 1
                parent[j] = i
                queue.append(j)
    return hops, parent


def epsilon_adjacency(space, epsilon):
    edges = space.L & (space.D < epsilon)
    np.fill_diagonal(edges, False)
    return [row.nonzero()[0].tolist() for row in edges]


def reference_chainable(space, epsilon):
    """The chainability check as it was written before it took whole
    arrays: one breadth-first search per source point, then the comparable
    targets of that source in index order."""
    adj = epsilon_adjacency(space, epsilon)
    table, unreachable = {}, []
    for p in space.points():
        hops, _ = bfs(adj, p)
        for q in space.L[p].nonzero()[0].tolist():
            if hops[q] is None:
                unreachable.append((p, q))
            else:
                table[(p, q)] = hops[q]
    witness = list(unreachable[0]) if unreachable else None
    return (HOLDS if witness is None else VIOLATED, witness,
            max(table.values(), default=0), tuple(unreachable), list(table.items()))


@st.composite
def chainable_cases(draw):
    # points on a line at small integer positions; 0.1 lies below every
    # nonzero distance, so no two points are linked
    epsilon = draw(st.sampled_from([0.1, 0.6, 1.0, 2.5, 100.0]))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["chain", "random", "antichain"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1, 0.5, 0.25]))
    pos = sorted(draw(st.sets(st.integers(0, 14), min_size=n, max_size=n)))
    return finite_space(n, kind, rng, [p * scale for p in pos]), epsilon


@given(chainable_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_whole_array_chainability_matches_bfs_loop(case):
    space, epsilon = case
    rep = check_epsilon_chainable(space, epsilon)
    d = rep.details
    assert (rep.verdict, rep.witness, d["max_n"], d["unreachable"],
            list(d["chain_n"].items())) == reference_chainable(space, epsilon)


@st.composite
def chain_walk_cases(draw):
    # generated instances at their default size and at 8 to 64 points, at
    # their epsilon, half of it (where pairs fall apart) and three times it
    size = draw(st.sampled_from([None, 8, 20, 40, 64]))
    inst = generate_finite_instance(draw(st.integers(0, 10**6)), size)
    return inst.space, inst.params.epsilon * draw(st.sampled_from([1.0, 0.5, 3.0]))


@given(chain_walk_cases())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_finite_chain_is_the_breadth_first_path(case):
    # a breadth-first search that visits neighbours in ascending index
    # reaches b along the lexicographically smallest shortest path, and so
    # does the walk down the hop table
    space, epsilon = case
    adj = epsilon_adjacency(space, epsilon)
    for a in space.points():
        hops, parent = bfs(adj, a)
        for b in space.L[a].nonzero()[0].tolist():
            chain = find_epsilon_chain(space, a, b, epsilon)
            if hops[b] is None:
                assert chain is None
                continue
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            assert chain.points == tuple(reversed(path))


@pytest.mark.parametrize("n", [127, 128, 130])
def test_chainability_hop_counts_past_eight_bits(n):
    # a chain at unit spacing: with epsilon 1.5 the hops from i to j are
    # j - i, up to n - 1, so two of them add up past 255 from n = 128 on
    idx = range(n)
    space = FiniteSpace(
        tuple(f"p{i}" for i in idx),
        tuple(tuple(abs(i - j) for j in idx) for i in idx),
        np.triu(np.ones((n, n), dtype=bool)),
    )
    for epsilon in (1.5, 0.5):
        rep = check_epsilon_chainable(space, epsilon)
        d = rep.details
        assert (rep.verdict, rep.witness, d["max_n"], d["unreachable"],
                list(d["chain_n"].items())) == reference_chainable(space, epsilon)
    assert check_epsilon_chainable(space, 1.5).details["max_n"] == n - 1


def sampled_document(formula, grid_step=None):
    """A box document on [0, 1]^k that the fold leaves to the sample: seeds
    at the corners, epsilon 0.3, and a grid only where ``grid_step`` is set."""
    dim = 1 if isinstance(formula, str) else len(formula)
    corner = (lambda v: v) if dim == 1 else (lambda v: [v] * dim)
    space = {"kind": "box", "dimension": dim, "lower": [0] * dim, "upper": [1] * dim}
    if grid_step is not None:
        space["grid_step"] = grid_step
    return {"schema_version": 1, "space": space,
            "map": {"kind": "expression", "formula": formula},
            "seeds": {"x0": corner(0), "y0": corner(1)},
            "parameters": {"epsilon": 0.3}}


CLAMP = "min(1, max(0, 0.5 + x - y))"
PRODUCT = "0.5 + 0.25*x*y"
SAMPLED_DOCUMENTS = {
    "clamp-0.25": sampled_document(CLAMP, 0.25),
    "clamp": sampled_document(CLAMP),
    "product-0.25": sampled_document(PRODUCT, 0.25),
    "product": sampled_document(PRODUCT),
    "2d-0.5": sampled_document(
        ["0.4 + 0.2*x1*(1 - y2)", "0.3 + 0.1*x2 - 0.2*y1*y2"], 0.5),
}

# the exit code and the sha256 of stdout of `check`, `solve` and
# `verify-lemma` on each document, written as NAME.json and read by that
# relative path; the sample of a document is its grid (if any) and 8
# uniform draws at seed 0, and these verdicts mix undetermined-sampled and
# violated
SAMPLED_DIGESTS = {
    "2d-0.5": (
        (0, "c251ef0256811b19fed0362f5b4ef725be84634f1ecf10fae81617807454b98f"),
        (0, "94232ceb547abd55431fd6b99559563845203278f4867470402ac5388e4651b9"),
        (0, "fa7babf12bdf935558086b60221ca302ee08815f8c84f6066781883740a723ad"),
    ),
    "clamp": (
        (1, "58c42098feb95503f4e1498cf5280c428277769ea8f94f0e9fdea5b262e8787c"),
        (1, "1b8d6b7962f7a7d44c3ed9eea134bc584a977bef1bfce794badf14df0864fcfe"),
        (0, "72db5157614246e8fde56126c3a178c34b2d4d2ff6b847c8f24aab370dd7c5da"),
    ),
    "clamp-0.25": (
        (1, "75a554e78b00ce4a6689487c51c96df100702a8409ea6cbb47fb9adbbcae2233"),
        (1, "4c4d80903d6b5d4efa46d9a25d7f8384a76f852b99a326f0c27aa6e47a994367"),
        (0, "f80ebfa6ead1c21b693e16abbe674e8cc1abc0f238269b67cd5ba7cbdbdfd8f6"),
    ),
    "product": (
        (1, "6f046e52bb6ba1108baef53ce7d5c597e1f31f93a8b8afa1cef04a27df49a3a7"),
        (1, "ff36e8830d6932e34ec32d4efc42b90a315d12f9a8235701419c11b2f9298231"),
        (0, "db85c29d64c26aa06e5dd54ff615db60a23f0c35c58eb552feedf831cc54b587"),
    ),
    "product-0.25": (
        (1, "9297e31c46f87995ef014a28a7d1cbda7f63525ec90f2d504724703f8fe4353a"),
        (1, "3a48a8ede24744eaf69952f62cb8d6649b2ed5bcf0bc051a484e5c2acdee0dec"),
        (0, "8c9be4dca2d661eab5076c8f880a9783d5ebc311e742e94e151dd1028731c632"),
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_DOCUMENTS))
def test_sampled_route_keeps_its_bytes(name, capsysbinary, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(SAMPLED_DOCUMENTS[name]))
    results = []
    for command in ("check", "solve", "verify-lemma"):
        code = run_cli([command, f"{name}.json"])
        out, err = capsysbinary.readouterr()
        assert err == b""
        results.append((code, hashlib.sha256(out).hexdigest()))
    assert tuple(results) == SAMPLED_DIGESTS[name]
