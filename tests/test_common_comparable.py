"""Common-comparability against the dense product-order reference.

The reference below is the check the factorised one replaced: it builds the
s^2 x s^2 comparability matrix of the product order over the candidates and
squares it, so two product points are linked when some product point is
comparable to both. That costs O(s^4) memory, so it only runs here, on small
inputs. On random posets (transitive closures of random DAGs with shuffled
labels) and on 1-D and 2-D box candidate lists, both must give the same
verdict, witness and sample size.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    SamplingPlan,
    check_common_comparable,
    sample_points,
)
from chainfix.spaces import BoxSpace, FiniteSpace, point_jsonable


def reference_common_comparable(space, candidates=None):
    exhaustive = candidates is None
    cand = list(space.points()) if exhaustive else list(dict.fromkeys(candidates))
    s = len(cand)
    M = np.array([[space.leq(p, q) for q in cand] for p in cand], dtype=bool)
    below = M[:, None, :, None] & M.T[None, :, None, :]
    above = M.T[:, None, :, None] & M[None, :, None, :]
    C = (below | above).reshape(s * s, s * s).astype(np.float32)
    linked = (C @ C) > 0
    bad = np.argwhere(~linked)
    witness = None
    if bad.size:
        pi, pj = divmod(int(bad[0][0]), s)
        qi, qj = divmod(int(bad[0][1]), s)
        witness = {
            "pair1": [point_jsonable(cand[pi]), point_jsonable(cand[pj])],
            "pair2": [point_jsonable(cand[qi]), point_jsonable(cand[qj])],
        }
    verdict = SAMPLED
    if exhaustive:
        verdict = HOLDS if witness is None else VIOLATED
    return verdict, witness, None if exhaustive else s


@st.composite
def random_posets(draw):
    """Closure of a random DAG on n points, labels shuffled; some get a top
    and a bottom, which makes the hypothesis hold."""
    n = draw(st.integers(1, 14))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    L = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            L[i, j] = rng.random() < density
    if draw(st.booleans()):
        L[0, :] = True
        L[:, n - 1] = True
    for k in range(n):
        L |= np.outer(L[:, k], L[k, :])
    perm = list(range(n))
    rng.shuffle(perm)
    order = [[bool(L[perm[i], perm[j]]) for j in range(n)] for i in range(n)]
    dist = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order), None


@st.composite
def box_candidates(draw):
    """A grid on a 1-D or 2-D box, or a subset of it plus seeded draws."""
    dim = draw(st.integers(1, 2))
    box = BoxSpace((0.0,) * dim, (1.0,) * dim)
    step = draw(st.sampled_from([0.5, 1 / 3, 0.25]))
    pts = sample_points(box, SamplingPlan(grid_step=step))
    if draw(st.booleans()):
        keep = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=10))
        pts = keep + box.uniform_points(draw(st.integers(0, 3)),
                                        draw(st.integers(0, 99)))
    return box, pts


def test_matches_matmul_reference():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_posets() | box_candidates())
    def check(case):
        space, cand = case
        rep = check_common_comparable(space, cand)
        verdict, witness, size = reference_common_comparable(space, cand)
        assert (rep.verdict, rep.witness, rep.sample_size) == (verdict, witness, size)
        verdicts.append(witness is None)

    check()
    holds = sum(verdicts) / len(verdicts)
    assert 0.1 <= holds <= 0.9, f"{holds:.0%} of {len(verdicts)} cases hold"


def test_large_candidate_list_stays_within_square_memory():
    # 401 grid points: the product-order matrix would need 401^4 float32
    # entries (over 100 GB); the factorised check needs s x s tables only
    box = BoxSpace((0.0,), (1.0,))
    cand = sample_points(box, SamplingPlan(grid_step=0.0025))
    assert len(cand) == 401
    rep = check_common_comparable(box, cand)
    assert rep.verdict == SAMPLED
    assert rep.witness is None
    assert rep.sample_size == 401
