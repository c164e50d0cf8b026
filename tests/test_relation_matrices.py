"""Whole-matrix axiom checks and order reduction against the loops they replaced.

``spaces._check_metric`` builds one boolean mask per axiom and reports its
first True entry in row-major order of the index tuple; ``spaces._check_order``
does so for reflexivity and antisymmetry, and finds the first transitivity
failure (i, j, k) from one float32 product of the order with itself;
``instances._covering_pairs`` is ``S & ~(S @ S)`` over the strict order;
``instances._closure`` squares the order until it stops changing; the
generator runs Floyd-Warshall one whole-matrix pass per k. The
entries of the distance matrix, the map table and the order pairs are
tested as whole lists (one pass over their types, then numpy or min/max
for ranges). The functions below are test-only copies of the Python loops
they replaced, and every check must give the same message text, witness
and field, the same covering pairs and the same generated distances as
those loops.

The one intended difference is exactness: the matrix checks compare float64
values, so an entry that is not a finite float, or is an integer beyond
2**52 (where the sum of two stops being exact), is rejected first, at its
row-major position, before any axiom is looked at.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import InvalidInstanceError
from chainfix.instances import (
    _closure,
    _covering_pairs,
    dump_instance,
    generate_finite_instance,
    parse_instance,
)
from chainfix.spaces import FiniteSpace, _check_metric, _check_order


def loop_check_metric(d):
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            raise InvalidInstanceError(
                f"metric identity fails: d[{i}][{i}] = {d[i][i]!r}", witness=(i, i)
            )
    for i in range(n):
        for j in range(n):
            if d[i][j] != d[j][i]:
                raise InvalidInstanceError(
                    f"metric symmetry fails: d[{i}][{j}] = {d[i][j]!r} "
                    f"but d[{j}][{i}] = {d[j][i]!r}",
                    witness=(i, j),
                )
            if i != j and d[i][j] <= 0:
                raise InvalidInstanceError(
                    f"metric positivity fails: d[{i}][{j}] = {d[i][j]!r}",
                    witness=(i, j),
                )
    for i in range(n):
        di = d[i]
        for k in range(n):
            dik = di[k]
            dk = d[k]
            for j in range(n):
                if di[j] > dik + dk[j]:
                    raise InvalidInstanceError(
                        f"triangle inequality fails: d[{i}][{j}] > "
                        f"d[{i}][{k}] + d[{k}][{j}]",
                        witness=(i, j, k),
                    )


def loop_check_order(leq):
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise InvalidInstanceError(
                f"order reflexivity fails at point {i}", witness=(i,)
            )
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise InvalidInstanceError(
                    f"order antisymmetry fails: {i} <= {j} and {j} <= {i}",
                    witness=(i, j),
                )
    for i in range(n):
        li = leq[i]
        for j in range(n):
            if not li[j]:
                continue
            lj = leq[j]
            for k in range(n):
                if lj[k] and not li[k]:
                    raise InvalidInstanceError(
                        f"order transitivity fails: {i} <= {j} <= {k} "
                        f"but not {i} <= {k}",
                        witness=(i, j, k),
                    )


def warshall_closure(n, pairs):
    """The reflexive-transitive closure as ``_closure`` took it before it
    squared the order: one whole-matrix pass per intermediate point k."""
    L = np.eye(n, dtype=bool)
    for i, j in pairs:
        L[i, j] = True
    for k in range(n):
        L |= L[:, k, None] & L[k]
    return L


def loop_covering_pairs(order):
    n = len(order)
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not order[i][j]:
                continue
            if any(
                k != i and k != j and order[i][k] and order[k][j] for k in range(n)
            ):
                continue
            covers.append([i, j])
    return covers


def loop_generated_distances(seed, size):
    """The generator's draws up to its distance matrix, with the old loop."""
    rng = random.Random(seed)
    n = size if size is not None else rng.randint(2, 16)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                adj[i][j] = True
    if seed % 4 == 0:
        for j in range(1, n):
            adj[0][j] = True
        for i in range(n - 1):
            adj[i][n - 1] = True
    if not any(adj[i][j] for i in range(n) for j in range(i + 1, n)):
        adj[0][n - 1] = True
    W = [[0.0 if i == j else float("inf") for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = float(rng.randint(1, 5))
            if adj[i][j]:
                W[i][j] = w
                W[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if W[i][k] + W[k][j] < W[i][j]:
                    W[i][j] = W[i][k] + W[k][j]
    finite = [W[i][j] for i in range(n) for j in range(n) if W[i][j] < float("inf")]
    cap = max(finite) if finite else 1.0
    cap = max(cap, 1.0)
    return [
        [W[i][j] if W[i][j] < float("inf") else cap for j in range(n)]
        for i in range(n)
    ]


def loop_exactness(d):
    for i, row in enumerate(d):
        for j, v in enumerate(row):
            exact = (
                isinstance(v, float) and v - v == 0.0
            ) or (
                type(v) is int and abs(v) <= 2**52
            )
            if not exact:
                raise InvalidInstanceError(
                    f"distance d[{i}][{j}] = {v!r} is not a finite float or "
                    f"an integer within 2**52",
                    witness=(i, j),
                )


def outcome(check, *args):
    try:
        check(*args)
    except InvalidInstanceError as exc:
        return str(exc), exc.witness
    return None


def reference_metric(d):
    loop_exactness(d)
    loop_check_metric(d)


SIZES = st.sampled_from([*range(1, 13), 64])


@st.composite
def distance_matrices(draw):
    """L1 distances of distinct random points (a metric, up to float
    rounding), then a few entries broken in the ways the axioms catch."""
    n = draw(SIZES)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["int", "float"]))
    dim = draw(st.integers(1, 3))
    points = set()
    while len(points) < n:
        points.add(tuple(rng.randint(0, 3 * n) for _ in range(dim)))
    points = sorted(points, key=lambda p: rng.random())
    scale = 1 if kind == "int" else draw(st.sampled_from([0.1, 0.37, 1.5]))
    d = [
        [sum(abs(a - b) for a, b in zip(p, q)) * scale for q in points]
        for p in points
    ]
    breaks = draw(st.lists(st.sampled_from([
        "nan-diagonal", "nan-off-diagonal", "diagonal", "asymmetric", "zero",
        "zero-one-side", "negative", "stretch", "shrink", "infinite",
        "huge-int", "bool",
    ]), max_size=3))
    for brk in breaks:
        i, j = rng.randrange(n), rng.randrange(n)
        if brk == "nan-diagonal":
            d[i][i] = float("nan")
        elif brk == "diagonal":
            d[i][i] = 1 if kind == "int" else 0.5
        elif brk == "bool":
            d[i][j] = True
        elif i == j:
            continue
        elif brk == "nan-off-diagonal":
            d[i][j] = float("nan")
        elif brk == "asymmetric":
            d[i][j] += 1
        elif brk == "zero":
            d[i][j] = d[j][i] = 0
        elif brk == "zero-one-side":
            d[i][j] = 0
        elif brk == "negative":
            d[i][j] = d[j][i] = -d[i][j]
        elif brk == "stretch":
            d[i][j] = d[j][i] = d[i][j] * 3 + 1
        elif brk == "shrink":
            d[i][j] = d[j][i] = max(d[i][j] // 3, 1)
        elif brk == "infinite":
            d[i][j] = d[j][i] = float("inf")
        elif brk == "huge-int":
            d[i][j] = d[j][i] = 2**53 + 1
    return d


@st.composite
def order_matrices(draw):
    """Closure of a random DAG (a partial order), sometimes broken: a point
    made irreflexive, a back edge, a comparability dropped, a cycle, or an
    arbitrary reflexive relation."""
    n = draw(SIZES)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [
        [perm[a], perm[b]]
        for a in range(n) for b in range(a + 1, n) if rng.random() < density
    ]
    L = _closure(n, pairs).tolist()
    brk = draw(st.sampled_from(
        [None, None, "irreflexive", "back-edge", "drop", "cycle", "arbitrary"]
    ))
    strict = [(i, j) for i in range(n) for j in range(n) if i != j and L[i][j]]
    if brk == "irreflexive":
        i = rng.randrange(n)
        L[i][i] = False
    elif brk == "back-edge" and strict:
        i, j = rng.choice(strict)
        L[j][i] = True
    elif brk == "drop" and strict:
        i, j = rng.choice(strict)
        L[i][j] = False
    elif brk == "cycle" and n >= 3:
        a, b, c = rng.sample(range(n), 3)
        L[a][b] = L[b][c] = L[c][a] = True
    elif brk == "arbitrary":
        L = [[i == j or rng.random() < density for j in range(n)] for i in range(n)]
    return brk, L


@settings(max_examples=400, deadline=None, derandomize=True)
@given(distance_matrices())
def test_metric_check_matches_loops(d):
    assert outcome(_check_metric, d) == outcome(reference_metric, d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(order_matrices())
def test_order_check_and_covering_pairs_match_loops(case):
    brk, L = case
    order = np.array(L, dtype=bool)
    assert outcome(_check_order, order) == outcome(loop_check_order, L)
    covers = _covering_pairs(order)
    assert covers == loop_covering_pairs(L)
    if brk is None:
        assert _closure(len(L), covers).tolist() == L


@pytest.mark.parametrize("size", [None, 2, 9, 64])
def test_generated_distances_match_loop(size):
    for seed in range(30):
        dist = generate_finite_instance(seed, size).space.dist
        expected = loop_generated_distances(seed, size)
        assert [list(map(repr, row)) for row in dist] == [
            list(map(repr, row)) for row in expected
        ]


def test_spaces_beyond_a_document_sweep_in_slabs():
    # at n = 100 the triangle sweep takes the rows in slabs of 26, and its
    # violation sits in the last slab; the transitivity failure sits in the
    # last rows of the order
    n = 100
    d = [[abs(i - j) for j in range(n)] for i in range(n)]
    d[90][95] = d[95][90] = 9  # > d[90][89] + d[89][95] = 7
    leq = [[i <= j for j in range(n)] for i in range(n)]
    leq[80][99] = False
    assert outcome(_check_metric, d) == outcome(reference_metric, d)
    assert outcome(_check_metric, d)[1] == (90, 95, 89)
    L = np.array(leq)
    assert outcome(_check_order, L) == outcome(loop_check_order, leq)
    assert outcome(_check_order, L)[1] == (80, 81, 99)


@st.composite
def pair_lists(draw):
    """Order pairs as a document may list them: forward pairs of a random
    DAG, with repeats, self-pairs and sometimes a back pair that closes a
    cycle."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 64]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [[perm[a], perm[b]] for a in range(n) for b in range(a + 1, n)
             if rng.random() < density]
    pairs += [rng.choice(pairs) for _ in range(draw(st.integers(0, 3)))] if pairs else []
    pairs += [[i, i] for i in rng.sample(range(n), min(n, draw(st.integers(0, 2))))]
    for _ in range(draw(st.integers(0, 2))):
        if pairs:
            i, j = rng.choice(pairs)
            pairs.append([j, i])
    rng.shuffle(pairs)
    return n, pairs


def chain_document(n, pairs):
    """A finite document on n points of a line with the given order pairs."""
    return {
        "schema_version": 1,
        "space": {"kind": "finite", "points": [f"p{i}" for i in range(n)],
                  "distance_matrix": [[abs(i - j) for j in range(n)] for i in range(n)],
                  "order_pairs": pairs},
        "map": {"kind": "table", "table": [[0] * n for _ in range(n)]},
        "seeds": {"x0": 0, "y0": 0},
        "parameters": {"epsilon": 1.5},
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair_lists())
def test_closure_matches_warshall(case):
    n, pairs = case
    L = _closure(n, pairs)
    assert L.dtype == bool and L.shape == (n, n)
    assert np.array_equal(L, warshall_closure(n, pairs))
    # a cyclic list fails antisymmetry at the parse, with the message and
    # witness the Warshall closure gives
    expected = outcome(loop_check_order, warshall_closure(n, pairs).tolist())
    assert outcome(_check_order, L) == expected
    got = parsed_outcome(chain_document(n, pairs))
    assert got == (None if expected is None else (*expected, "space.order_pairs"))


def test_closure_and_order_check_beyond_a_document():
    # a library space of 200 points, past the 64 a document may hold: the
    # closure of a long path and of a random DAG, then the order check on
    # the same relations broken in each way
    n = 200
    rng = random.Random(200)
    path = [[i, i + 1] for i in range(n - 1)]
    perm = list(range(n))
    rng.shuffle(perm)
    dag = [[perm[a], perm[b]] for a in range(n) for b in range(a + 1, n)
           if rng.random() < 0.02]
    d = [[abs(i - j) for j in range(n)] for i in range(n)]
    labels = [f"p{i}" for i in range(n)]
    for pairs in (path, dag):
        L = _closure(n, pairs)
        assert np.array_equal(L, warshall_closure(n, pairs))
        space = FiniteSpace.from_lists(labels, d, L.tolist())
        assert np.array_equal(space.L, L)
        covers = _covering_pairs(L)
        # a strict pair that is not a covering pair: dropping it breaks
        # transitivity
        strict = [p for p in np.argwhere(L & ~np.eye(n, dtype=bool)).tolist()
                  if p not in covers]
        for brk in ("drop", "back-edge", "irreflexive"):
            leq = L.tolist()
            i, j = strict[rng.randrange(len(strict))]
            if brk == "drop":
                leq[i][j] = False
            elif brk == "back-edge":
                leq[j][i] = True
            else:
                leq[i][i] = False
            expected = outcome(loop_check_order, leq)
            assert expected is not None
            assert outcome(_check_order, np.array(leq)) == expected
            assert outcome(FiniteSpace.from_lists, labels, d, leq) == expected


def two_point_doc(d01, d10):
    return {
        "schema_version": 1,
        "space": {
            "kind": "finite",
            "points": ["a", "b"],
            "distance_matrix": [[0, d01], [d10, 0]],
            "order_pairs": [[0, 1]],
        },
        "map": {"kind": "table", "table": [[0, 0], [0, 0]]},
        "seeds": {"x0": 0, "y0": 1},
        "parameters": {"epsilon": 1.5},
    }


class TestExactness:
    """float64 cannot tell 2**53 + 1 from 2**53; the loops could."""

    def test_unrepresentable_integer_rejected_by_space(self):
        with pytest.raises(InvalidInstanceError, match="within 2\\*\\*52") as exc:
            FiniteSpace.from_lists(
                ["a", "b"], [[0, 2**53 + 1], [2**53, 0]], [[True, True], [False, True]]
            )
        assert exc.value.witness == (0, 1)

    def test_unrepresentable_integer_rejected_by_parse_instance(self):
        with pytest.raises(InvalidInstanceError, match="within 2\\*\\*52") as exc:
            parse_instance(two_point_doc(2**53 + 1, float(2**53)))
        assert exc.value.witness == (0, 1)

    def test_integer_sums_must_be_exact_too(self):
        # 2**53 + 3 rounds to 2**53 + 4 in float64, which would hide this
        # triangle violation: d(0, 2) = 2**53 + 4 > d(0, 1) + d(1, 2)
        dist = [[0, 2**53, 2**53 + 4], [2**53, 0, 3], [2**53 + 4, 3, 0]]
        with pytest.raises(InvalidInstanceError, match="within 2\\*\\*52") as exc:
            _check_metric(dist)
        assert exc.value.witness == (0, 1)
        with pytest.raises(InvalidInstanceError, match="triangle"):
            loop_check_metric(dist)

    def test_largest_exact_integer_is_accepted(self):
        space = FiniteSpace.from_lists(
            ["a", "b"], [[0, 2**52], [2**52, 0]], [[True, True], [False, True]]
        )
        assert space.distance(0, 1) == 2**52

    @pytest.mark.parametrize("value", [True, "1", None, 1j])
    def test_non_number_rejected_with_witness(self, value):
        with pytest.raises(InvalidInstanceError) as exc:
            _check_metric([[0, value], [value, 0]])
        assert exc.value.witness == (0, 1)


def loop_table_entries(table, n):
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise InvalidInstanceError(
                    f"map table entry [{i}][{j}] = {v!r} is not a point index",
                    witness=(i, j),
                )


def loop_order_pairs(n, pairs):
    for pair in pairs:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
        ):
            raise InvalidInstanceError(
                f"entries must be [i, j] index pairs, got {pair!r}"
            )
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInstanceError(
                f"order pair {pair!r} is out of range for {n} points",
                witness=pair,
            )


def reference_entries(doc):
    """(message, witness, field) of the first bad entry, checked in
    parse_instance's order: order pairs, then distances, then the table."""
    space = doc["space"]
    n = len(space["points"])
    for field, check, args in (
        ("space.order_pairs", loop_order_pairs, (n, space["order_pairs"])),
        ("space.distance_matrix", reference_metric, (space["distance_matrix"],)),
        ("map.table", loop_table_entries, (doc["map"]["table"], n)),
    ):
        if found := outcome(check, *args):
            return (*found, field)
    return None


def parsed_outcome(doc):
    try:
        parse_instance(doc)
    except InvalidInstanceError as exc:
        return str(exc), exc.witness, exc.field
    return None


def mutations(n):
    return [True, False, 1.0, 0.5, n, -1, 2**52, 2**53 + 1, -(2**60), "1", None]


def entry_rows(doc, where):
    if where == "table":
        return doc["map"]["table"]
    if where == "distance":
        return doc["space"]["distance_matrix"]
    return doc["space"]["order_pairs"]


@st.composite
def mutated_documents(draw):
    """A generated finite document with a few table, distance or order-pair
    entries replaced by a bool, a float, an index out of range either way,
    an integer above 2**52 or a string."""
    size = draw(st.sampled_from([2, 3, 5, 9, 16, 64]))
    doc = json.loads(dump_instance(generate_finite_instance(
        draw(st.integers(0, 10_000)), size)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = len(doc["space"]["points"])
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from(mutations(n)))
        rows = entry_rows(doc, draw(st.sampled_from(["table", "distance", "pair"])))
        if rows:
            row = rows[rng.randrange(len(rows))]
            row[rng.randrange(len(row))] = value
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_documents())
def test_entry_checks_match_loops(doc):
    expected = reference_entries(doc)
    assert parsed_outcome(doc) == expected


@pytest.mark.parametrize("value", mutations(16), ids=repr)
@pytest.mark.parametrize("where", ["table", "distance", "pair"])
def test_each_entry_mutation_matches_loops(where, value):
    # one bad entry, the last in row-major order: the whole-array test
    # alone has to catch it
    doc = json.loads(dump_instance(generate_finite_instance(5, 16)))
    entry_rows(doc, where)[-1][-1] = value
    expected = reference_entries(doc)
    assert expected is not None
    assert parsed_outcome(doc) == expected
