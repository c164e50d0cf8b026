"""The document writer against the standard library call it replaces.

``instances.canonical_json`` lays lists of numbers out from one C-encoder
call; its output must be ``json.dumps(doc, indent=2, sort_keys=True,
allow_nan=False) + "\\n"`` byte for byte, on arbitrary documents and on
every document the command line prints. A 2-D integer ndarray, as the
oracle hands over its tables, is written as its ``.tolist()`` would be.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.cli import run_cli
from chainfix.errors import DomainError
from chainfix.instances import canonical_json


def reference(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


numbers = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2**63, 2**64 + 1,
                     -(2**63) - 1, 1e16, 0.1]),
)
strings = st.text(alphabet=',[]"\\ :{}\n\tabé€𝄞\x00', max_size=6)
scalars = numbers | strings


def sequences(elements, **kw):
    # json writes tuples as lists
    return st.lists(elements, **kw) | st.lists(elements, **kw).map(tuple)


# rows of numbers (the one-call layout), ragged rows, rows holding an empty
# list, and rows mixing numbers, strings and lists (the recursive layout)
rows = sequences(numbers, min_size=1, max_size=6)
tables = st.one_of(
    sequences(numbers, max_size=8),
    sequences(rows, max_size=6),
    sequences(rows | st.just([]) | st.just(()), max_size=6),
    sequences(scalars | rows, max_size=6),
)
documents = st.recursive(
    scalars | tables,
    lambda inner: sequences(inner, max_size=4)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents)
def test_writer_matches_stdlib(doc):
    assert canonical_json(doc) == reference(doc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(documents, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["row", "list", "value", "nested"]))
def test_non_finite_number_raises_domain_error(doc, bad, where):
    doc = {
        "row": lambda: [[1, 2], [3, bad]],
        "list": lambda: [0.5, bad, None],
        "value": lambda: {"a": doc, "b": bad},
        "nested": lambda: [doc, {"x": [[bad]]}],
    }[where]()
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(DomainError, match="non-finite"):
        canonical_json(doc)


def test_empty_containers_and_keys():
    doc = {"z": [], "a": {}, "m": [[], [1], ()], "k": [{}], "": [[1, 2], [3]]}
    assert canonical_json(doc) == reference(doc)
    for top in ([], {}, (), 0, -0.0, "x", None, [[]], [[1], []]):
        assert canonical_json(top) == reference(top)
    # keys that are not strings are written as their JSON text, sorted as
    # they are
    for keyed in ({10: [1], 2: {}, -1: 0}, {0.5: 1, -0.0: 2}, {None: 1}, {True: 1}):
        assert canonical_json(keyed) == reference(keyed)
    with pytest.raises(TypeError, match="keys must be str"):
        reference({(1, 2): 0})
    with pytest.raises(TypeError, match="keys must be str"):
        canonical_json({(1, 2): 0})


int_arrays = st.builds(
    lambda shape, dtype, seed: np.random.default_rng(seed)
    .integers(-(10**6), 10**6, size=shape, endpoint=True).astype(dtype),
    st.sampled_from([(0, 2), (0, 3), (1, 1), (2, 0)])
    | st.tuples(st.integers(1, 40), st.sampled_from([2, 3])),
    st.sampled_from([np.int32, np.int64, np.intp, np.uint8]),
    st.integers(0, 2**16),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_arrays, documents, st.sampled_from(["top", "value", "nested"]))
def test_integer_array_matches_its_list(a, doc, where):
    def place(x):
        return {"top": x, "value": {"a": doc, "t": x},
                "nested": [doc, {"x": [x, doc]}]}[where]

    assert canonical_json(place(a)) == reference(place(a.tolist()))


def test_integer_array_extremes_and_views():
    for a in (
        np.array([[-(2**63), 2**63 - 1]], dtype=np.int64),
        np.array([[2**64 - 1, 0, 7]], dtype=np.uint64),
        np.array([[-(2**31)], [2**31 - 1]], dtype=np.int32),
        np.arange(12, dtype=np.intp).reshape(4, 3)[::-2, ::2],  # not contiguous
        np.argwhere(np.eye(3, dtype=bool)),
    ):
        doc = {"rows": a}
        assert canonical_json(doc) == reference({"rows": a.tolist()})


@pytest.mark.parametrize("a", [
    np.ones((2, 2), dtype=bool),
    np.ones((2, 2), dtype=float),
    np.ones((2, 2), dtype=np.float32),
    np.arange(3),  # only 2-D integer arrays are laid out
    np.arange(8).reshape(2, 2, 2),
], ids=["bool", "float64", "float32", "1-d", "3-d"])
def test_other_arrays_never_print_as_integers(a):
    for doc in (a, {"t": a}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            reference(doc)
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(doc)


def cli_output(capsysbinary, *argv) -> bytes:
    run_cli(list(argv))
    return capsysbinary.readouterr().out


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    paths = [str(out / f"gen{size}.json") for size in (5, 16, 64)]
    for size, path in zip((5, 16, 64), paths):
        assert run_cli(["gen", "--seed", "1", "--size", str(size), "--out", path]) == 0
    return paths


def commands(shipped, generated):
    finite = [shipped("f1"), shipped("chain4"), shipped("antichain2"), *generated]
    for path in finite:
        for cmd in ("check", "solve", "oracle", "verify-lemma"):
            yield cmd, path
    for name in ("l1", "l2d"):
        for cmd in ("check", "solve", "verify-lemma"):
            yield cmd, shipped(name)
    yield "chain", shipped("f1"), "--from", "a", "--to", "d"
    yield "chain", shipped("antichain2"), "--from", "p", "--to", "p"
    yield "chain", shipped("l2d"), "--from", "0,0", "--to", "1,1"
    for size in ("5", "16", "64"):
        yield "gen", "--seed", "1", "--size", size


def test_every_command_prints_the_stdlib_layout(capsysbinary, instance_dir,
                                                generated):
    def shipped(name):
        return str(instance_dir / f"{name}.json")

    for argv in commands(shipped, generated):
        out = cli_output(capsysbinary, *argv)
        assert out, argv
        assert out == reference(json.loads(out)), argv
