"""Common-comparability against the dense product-order reference.

The reference below is the check the factorised one replaced: it builds the
s^2 x s^2 comparability matrix of the product order over the points and
squares it, so two product points are linked when some product point is
comparable to both. That costs O(s^4) memory, so it only runs here, on small
inputs. On random posets (transitive closures of random DAGs with shuffled
labels) both must give the same verdict and witness. A box is decided from
its shape (``tests/test_hypotheses.py``).
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.hypotheses import HOLDS, VIOLATED, check_common_comparable
from chainfix.spaces import FiniteSpace


def reference_common_comparable(space):
    cand = list(space.points())
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
        witness = {"pair1": [cand[pi], cand[pj]], "pair2": [cand[qi], cand[qj]]}
    return HOLDS if witness is None else VIOLATED, witness


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
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order)


def test_matches_matmul_reference():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_posets())
    def check(space):
        rep = check_common_comparable(space)
        verdict, witness = reference_common_comparable(space)
        assert (rep.verdict, rep.witness, rep.sample_size) == (verdict, witness, None)
        verdicts.append(witness is None)

    check()
    holds = sum(verdicts) / len(verdicts)
    assert 0.1 <= holds <= 0.9, f"{holds:.0%} of {len(verdicts)} cases hold"


def test_large_space_stays_within_square_memory():
    # a chain of 401 points: the product-order matrix would need 401^4
    # float32 entries (over 100 GB); the factorised check needs s x s tables
    n = 401
    space = FiniteSpace(
        tuple(f"p{i}" for i in range(n)),
        tuple(tuple(abs(i - j) for j in range(n)) for i in range(n)),
        np.triu(np.ones((n, n), dtype=bool)),
    )
    rep = check_common_comparable(space)
    assert (rep.verdict, rep.witness) == (HOLDS, None)
