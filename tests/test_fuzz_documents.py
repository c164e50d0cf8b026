"""Mutated documents never crash the command line.

Each case takes one of the five shipped documents and replaces or deletes
one field or list entry, or adds an unknown key of 300,000 characters to
one object: wrong types, huge, negative and tiny numbers, non-finite
numbers, empty and nested lists, and values at and past the document
limits (``MAX_POINTS``, ``GRID_CAP``, ``MAX_ITERATIONS``, the 16 MiB
budget of a box sample's tables and a formula's ``MAX_DEPTH``).
``check``, ``solve``, ``oracle`` and
``verify-lemma`` (also at ``--horizon 3000``) then run in process, and
every call must return exit code 0, 1 or 2 without an exception escaping
``run_cli``, within a time limit per case. Exit 0 or 1 prints strict JSON
and nothing on stderr; exit 2 prints nothing on stdout and one short
``error: `` line on stderr.
"""

import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.cli import run_cli
from chainfix.expressions import MAX_DEPTH
from chainfix.instances import MAX_ITERATIONS, MAX_POINTS
from chainfix.spaces import GRID_CAP

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
NAMES = ("antichain2", "chain4", "f1", "l1", "l2d")
DOCUMENTS = {name: json.loads((INSTANCES / f"{name}.json").read_text())
             for name in NAMES}
COMMANDS = (("check",), ("solve",), ("oracle",), ("verify-lemma",),
            ("verify-lemma", "--horizon", "3000"))
# generous: the slowest case, check, solve and verify-lemma at the table
# budget, takes about 3 s on a shared 2-vCPU machine, and a mutated field
# alone about 10 ms
CASE_SECONDS = 15.0
ERROR_BYTES = 500  # an error line repeats a huge value clipped, never whole
DELETE = object()

# a 1-D box sample is its grid plus 8 seeded draws, and a map check's tables
# take 17 bytes per pair of points: 993 points fit in 2**24 bytes, 994 do not
AT_BUDGET, PAST_BUDGET = 1 / 984, 1 / 985
# l1's map, affine, reads no sample; this one is mixed monotone but not
# affine, so the map checks tabulate it, and its contraction scan stops at
# the first quadruple
CLAMP = "min(1, max(0, 0.5 + x - y))"

SPECIAL = [
    None, True, False, "", "x", "y", "x*y", "max(x, y)", "1/0", "a",
    [], [[]], [[[0]]], [0], [0, 1], [[0, 1], [1, 0]], {}, {"x": 1},
    0, 1, -1, 2, 3, 0.5, -0.5, -0.0, 1e-300, 5e-324, 1e-12, 1e308, -1e308,
    2**52, 2**53 + 1, 10**400, -(10**400),
    float("nan"), float("inf"), -float("inf"),
    MAX_POINTS, MAX_POINTS + 1, GRID_CAP, GRID_CAP + 1,
    MAX_ITERATIONS, MAX_ITERATIONS + 1, 1 / (GRID_CAP - 1), 1 / GRID_CAP,
    PAST_BUDGET, [f"p{i}" for i in range(MAX_POINTS)],
    [f"p{i}" for i in range(MAX_POINTS + 1)], [0] * (MAX_POINTS + 1),
]
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.integers(-3, 70), max_size=4),
)


def paths(node, prefix=()):
    """Every dict key and list index in a document, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = [(name, path) for name in NAMES for path in paths(DOCUMENTS[name])]


def value_at(name, path):
    node = DOCUMENTS[name]
    for key in path:
        node = node[key]
    return node


# an unknown key of 300,000 characters, at the top level and in every object
LONG_KEY = "k" * 300_000
NEW_KEYS = [
    (name, prefix + (LONG_KEY,))
    for name in NAMES
    for prefix in [()] + list(paths(DOCUMENTS[name]))
    if isinstance(value_at(name, prefix), dict)
]


# a value from some shipped document keeps more mutants loadable, so that
# they reach the solver and the decay check
SHIPPED = st.sampled_from(PATHS).map(lambda target: value_at(*target))


def mutated(name, path, value):
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is not DELETE:
        parent[path[-1]] = value
    elif isinstance(parent, list) or path[-1] in parent:  # a new key stays out
        del parent[path[-1]]
    return doc


def clamped(step):
    """l1 with the map ``CLAMP`` on a grid of ``step``."""
    doc = mutated("l1", ("space", "grid_step"), step)
    doc["map"]["formula"] = CLAMP
    return doc


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite {constant} in output")
    return json.loads(text, parse_constant=reject)


def assert_every_command_exits_cleanly(capsys, path, doc, commands=COMMANDS):
    """Run each command on ``doc``; return their exit codes and stderr."""
    path.write_text(json.dumps(doc))  # NaN and Infinity are written as such
    results = []
    start = time.perf_counter()
    for command in commands:
        code = run_cli([command[0], str(path), *command[1:]])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), command
        if code == 2:
            assert out == "", command
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
            assert len(err) < ERROR_BYTES, (command, err[:ERROR_BYTES])
        else:
            strict_json(out)
            assert err == "", command
        results.append((code, err))
    assert time.perf_counter() - start < CASE_SECONDS
    return results


def points_document(n):
    """chain4's document on n points p0, ..., p(n-1) at distance |i - j|,
    ordered only by equality, so its scans stay small; F is constant."""
    doc = json.loads(json.dumps(DOCUMENTS["chain4"]))
    doc["space"].update(
        points=[f"p{i}" for i in range(n)],
        distance_matrix=[[abs(i - j) for j in range(n)] for i in range(n)],
        order_pairs=[],
    )
    doc["map"]["table"] = [[0] * n for _ in range(n)]
    doc["seeds"] = {"x0": "p0", "y0": f"p{n - 1}"}
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@given(st.sampled_from(PATHS + NEW_KEYS),
       st.one_of(st.just(DELETE), VALUES, SHIPPED))
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=["function_scoped_fixture"])
def test_one_mutated_field(capsys, doc_path, target, value):
    name, path = target
    assert_every_command_exits_cleanly(capsys, doc_path, mutated(name, path, value))


@pytest.mark.parametrize("doc, commands, check_exit, message", [
    (clamped(AT_BUDGET), [("check",)], 1, ""),
    (clamped(PAST_BUDGET), COMMANDS, 2,
     "a sample of 994 points needs 16796612 bytes"),
    (clamped(1 / (GRID_CAP - 1)), COMMANDS, 2, "a sample of 20008 points needs"),
    (mutated("l1", ("space", "grid_step"), 1 / GRID_CAP), COMMANDS, 2,
     f"grid of {GRID_CAP + 1} points exceeds the cap"),
    (mutated("f1", ("parameters", "max_iterations"), MAX_ITERATIONS),
     COMMANDS, 1, ""),
    (mutated("f1", ("parameters", "max_iterations"), MAX_ITERATIONS + 1),
     COMMANDS, 2, f"must lie in [1, {MAX_ITERATIONS}]"),
    (points_document(MAX_POINTS), COMMANDS, 1, ""),
    (points_document(MAX_POINTS + 1), COMMANDS, 2,
     f"{MAX_POINTS + 1} points exceeds the limit of {MAX_POINTS}"),
], ids=["table-budget", "past-table-budget", "grid-cap", "past-grid-cap",
        "iteration-cap", "past-iteration-cap", "point-cap", "past-point-cap"])
def test_values_at_and_past_the_limits(capsys, doc_path, doc, commands,
                                       check_exit, message):
    (code, err), *_ = assert_every_command_exits_cleanly(
        capsys, doc_path, doc, commands)
    assert code == check_exit
    assert message in err


@pytest.mark.parametrize("step", [AT_BUDGET, PAST_BUDGET], ids=["at", "past"])
def test_commands_agree_on_the_table_budget(capsys, doc_path, step):
    # check, solve and verify-lemma read the same sample, so at the budget
    # none of them refuses it, and one grid step past it all three refuse
    # it with the same line
    results = assert_every_command_exits_cleanly(
        capsys, doc_path, clamped(step), [("check",), ("solve",), ("verify-lemma",)])
    refused = [err for code, err in results if code == 2]
    assert refused == ([] if step == AT_BUDGET else [results[0][1]] * 3)


@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1, 50_000])
def test_formulas_at_and_past_the_depth_limit(capsys, doc_path, nested_formula,
                                              depth):
    # on [-1, 1] each construct maps the box into itself, so a formula at
    # the limit loads and gets a verdict, and a deeper one is refused
    doc = mutated("l1", ("map", "formula"), nested_formula(depth))
    doc["space"].update(lower=[-1], upper=[1])
    doc["seeds"] = {"x0": -1, "y0": 1}
    results = assert_every_command_exits_cleanly(
        capsys, doc_path, doc, [("check",), ("solve",), ("verify-lemma",)])
    for code, err in results:
        if depth == MAX_DEPTH:
            assert code in (0, 1)
        else:
            # 50,000 nested calls are already past the Python parser's own
            # limit on parentheses, which is reported on the same line
            assert code == 2
            assert err.startswith("error: map.formula: ") and "Traceback" not in err
            assert depth > MAX_DEPTH + 1 or "nests too deeply" in err
