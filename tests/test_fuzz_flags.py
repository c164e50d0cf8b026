"""Odd command-line flags never crash the command line.

Each case runs one command in process on a shipped document (or ``gen``)
with drawn flag values: ``verify-lemma --horizon``, ``gen --seed`` and
``--size``, and ``chain --from``, ``--to`` and ``--eps``. The values are
negative, huge, non-finite, of the wrong dimension, unknown labels or not
numbers at all, and valid ones are kept within the caps (a horizon of at
most 3000, an ``--eps`` of at least 1e-3 or far below the hop cap) so the
test stays a few seconds. Every call must return exit code 0, 1 or 2
without an exception escaping ``run_cli``. Exit 0 or 1 prints strict JSON
and nothing on stderr; exit 2 prints nothing on stdout and exactly one
error line, either chainfix's ``error: `` line or argparse's, after its
usage lines.
"""

import json
import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.cli import run_cli
from chainfix.instances import MAX_POINTS

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
NAMES = ("antichain2", "chain4", "f1", "l1", "l2d")
DOCUMENTS = {name: json.loads((INSTANCES / f"{name}.json").read_text())
             for name in NAMES}

ODD = ["", "x", "nan", "inf", "-inf", "1e3", "1e400", "-0", " 7", "9" * 23]
HORIZONS = st.one_of(
    st.integers(-3, 3000).map(str),
    st.sampled_from(ODD + ["1e9", str(10**9), "100001", "-1"]),
)
# valid values are drawn more often than odd ones, so that some runs get
# past the parser to the instance
SEEDS = st.one_of(st.integers(0, 100).map(str),
                  st.integers(-(2**80), 2**80).map(str), st.sampled_from(ODD))
SIZES = st.one_of(st.integers(2, MAX_POINTS).map(str),
                  st.integers(-3, MAX_POINTS + 3).map(str), st.sampled_from(ODD))
EPSILONS = st.one_of(
    st.floats(0.1, 2).map(repr),
    st.floats(1e-3, 1e308).map(repr),
    st.sampled_from(ODD + ["0", "-1", "1e308", "1e-9", "1e-300", "5e-324",
                           "-0.0"]),
)
UNIT = st.floats(0, 1).map(repr)
COORDINATES = st.one_of(UNIT, UNIT, UNIT, st.floats(-0.5, 1.5).map(repr),
                        st.sampled_from(ODD))


@st.composite
def points(draw, name):
    """Text for --from or --to: a label, an index or coordinates, valid or not."""
    space = DOCUMENTS[name]["space"]
    if space["kind"] == "finite":
        n = len(space["points"])
        labels = st.sampled_from(space["points"])
        return draw(st.one_of(labels, labels, st.integers(-2, n + 1).map(str),
                              st.sampled_from(ODD + ["zz"])))
    dim = draw(st.sampled_from([space["dimension"]] * 5 + [1, 2, 3]))
    return ",".join(draw(st.lists(COORDINATES, min_size=dim, max_size=dim)))


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(NAMES))
    path = str(INSTANCES / f"{name}.json")
    command = draw(st.sampled_from(["verify-lemma", "gen", "chain"]))
    if command == "verify-lemma":
        return ["verify-lemma", path, "--horizon", draw(HORIZONS)]
    if command == "gen":
        size = draw(st.one_of(st.just([]), SIZES.map(lambda s: ["--size", s])))
        return ["gen", "--seed", draw(SEEDS), *size]
    eps = draw(st.one_of(st.just([]), EPSILONS.map(lambda e: ["--eps", e])))
    return ["chain", path, "--from", draw(points(name)), "--to",
            draw(points(name)), *eps]


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite {constant} in output")
    return json.loads(text, parse_constant=reject)


ERROR_LINE = re.compile(r"(error: |chainfix [\w-]+: error: )")


@given(argvs())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=["function_scoped_fixture"])
def test_flags_exit_cleanly(capsys, argv):
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code != 2:
        strict_json(out)
        assert err == "", argv
        return
    assert out == "", argv
    lines = err.splitlines()
    errors = [line for line in lines if ERROR_LINE.match(line)]
    assert len(errors) == 1 and lines[-1] == errors[0], (argv, err)
    assert all(line.startswith(("usage: ", " ")) for line in lines[:-1]), (argv, err)
