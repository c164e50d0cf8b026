"""The tabulated box scans against a direct reference.

The reference below is the pair of sampled loops the scans replaced: they
walk sample points rather than indices and ask ``space.leq``,
``space.distance`` and ``cmap.apply`` about every pair. On generated box maps
(affine, clamped min/max/abs trees, and violators such as ``x*y`` or
expansive maps) both must give the same verdict, witness, bitwise
``lambda_hat``, quadruple count and sample fields.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.hypotheses import (
    SAMPLED,
    VIOLATED,
    SamplingPlan,
    check_mixed_monotone,
    estimate_contraction,
    sample_points,
)
from chainfix.mappings import expression_map
from chainfix.spaces import BoxSpace, point_jsonable


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

    result = SAMPLED, None
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
    if result[0] == SAMPLED:
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
