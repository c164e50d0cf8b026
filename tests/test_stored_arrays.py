"""The arrays a finite space and a table map store, and what they must keep.

``FiniteSpace`` stores its distances as a read-only float64 ``D`` and its
order as a read-only boolean ``L``; ``TableMap`` stores a read-only intp
``T``. The hypothesis scans and the oracle read those arrays themselves, not
copies. The document's own values stay as they were read: an integer
distance is printed as an integer. The digests below are of the bytes the
program wrote before the arrays were stored.
"""

import hashlib
import json

import numpy as np
import pytest

from chainfix import hypotheses
from chainfix.cli import run_cli
from chainfix.errors import InvalidInstanceError
from chainfix.instances import dump_instance, load_instance, parse_instance
from chainfix.mappings import TableMap
from chainfix.oracle import (
    all_coupled_fixed_points,
    exhaustive_contraction_check,
    min_chain_table,
)
from chainfix.spaces import FiniteSpace

# distances 0 and 1 are integers, 2.5 and 1.5 floats
MIXED_DOC = {
    "schema_version": 1,
    "space": {"kind": "finite", "points": ["a", "b", "c"],
              "distance_matrix": [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]],
              "order_pairs": [[0, 1], [1, 2]]},
    "map": {"kind": "table", "table": [[0, 0, 0], [1, 0, 0], [2, 1, 0]]},
    "seeds": {"x0": 0, "y0": 2},
    "parameters": {"epsilon": 2.0, "tolerance": 1e-9, "max_iterations": 10},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solve_stdout(capsysbinary, path: str) -> bytes:
    assert run_cli(["solve", path]) == 1  # both violate a hypothesis
    return capsysbinary.readouterr().out


class TestDocumentValues:
    def test_f1_prints_integer_residual_and_gap(self, capsysbinary, monkeypatch,
                                                instance_dir):
        monkeypatch.chdir(instance_dir.parent)
        out = solve_stdout(capsysbinary, "instances/f1.json")
        assert b'\n  "residual": 0,\n' in out
        assert b'\n  "gap": 1,\n' in out
        assert sha256(out) == (
            "5ec1f9f35a40d724978fb955a4f096195c222e4f315325b9d37f0084e68a7110")

    def test_mixed_int_and_float_distances_keep_their_bytes(
        self, capsysbinary, monkeypatch, tmp_path
    ):
        inst = parse_instance(MIXED_DOC)
        dumped = dump_instance(inst)
        assert json.loads(dumped)["space"]["distance_matrix"] == (
            MIXED_DOC["space"]["distance_matrix"])
        assert b"        0,\n        1,\n        2.5\n" in dumped
        assert sha256(dumped) == (
            "3bfb2a041cad8db092d34cf201232eddc6d71edfd33be5cfb0559871617cd6bf")
        assert [type(inst.space.distance(0, j)) for j in range(3)] == [int, int, float]

        monkeypatch.chdir(tmp_path)
        (tmp_path / "mixed.json").write_text(json.dumps(MIXED_DOC))
        out = solve_stdout(capsysbinary, "mixed.json")
        assert b'\n  "residual": 0,\n' in out
        assert b'\n  "gap": 2.5,\n' in out
        assert sha256(out) == (
            "fe346799d707122021596aa81a95df00a8f07556ab4a43a54070bfbf43dcc87e")


# sha256 of stdout for `solve` and `oracle` on `gen --seed S --size 64`,
# written as genS.json and read by that relative path; taken from the program
# before the oracle's tables were handed to the writer as arrays, except that
# the epsilon-chainable report of `solve` no longer prints "candidates"
GENERATED_DIGESTS = {
    0: ("d227a247b832ed9c19f23c40a747f56b7d73c4a2deeb800b7b87d6244ff1dbbf",
        "b55f9108579df1576e6b3d7af2a61c8d4d993ca346732cb8f0924eaab69b5901"),
    1: ("b4b02a429ac84fd3b6f36bc6d608d3be54dfc8f36e0de4be453cb4aeb148c20f",
        "75f74f3a38718ead6955edd566387cf9254d7f40d4741dfe33cd4766334930e3"),
    2: ("68ded3274b0ebd34d7d2e5f6a9c76a2d33d10adf518dbab33af9421a7457c95d",
        "412e9cb041bc9f3bc4b30d4f4e99a763e656c3883f22cd3f8369afa39492b08a"),
}


@pytest.mark.parametrize("seed", sorted(GENERATED_DIGESTS))
def test_generated_solve_and_oracle_keep_their_bytes(
    seed, capsysbinary, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)
    path = f"gen{seed}.json"
    assert run_cli(["gen", "--seed", str(seed), "--size", "64", "--out", path]) == 0
    digests = []
    for command in ("solve", "oracle"):
        assert run_cli([command, path]) in (0, 1)
        digests.append(sha256(capsysbinary.readouterr().out))
    assert tuple(digests) == GENERATED_DIGESTS[seed]


def _listed(result):
    """Arrays in a result as nested lists, so two results compare with ==."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    if type(result) is tuple:
        return tuple(map(_listed, result))
    return result


@pytest.fixture
def f1(f1_path):
    return load_instance(f1_path)


class TestStoredArrays:
    def test_dtypes_and_values(self, f1):
        space, cmap = f1.space, f1.cmap
        assert (space.D.dtype, space.L.dtype, cmap.T.dtype) == (
            np.float64, np.bool_, np.intp)
        assert space.D.tolist() == [list(map(float, row)) for row in space.dist]
        assert space.L.tolist() == [[i <= j for j in range(4)] for i in range(4)]
        assert cmap.T.tolist() == [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0],
                                   [1, 1, 1, 0]]

    def test_stored_arrays_are_read_only(self, f1):
        for a in (f1.space.D, f1.space.L, f1.cmap.T):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[0, 1]

    def test_a_caller_array_is_copied_not_frozen(self, f1):
        L = np.array(f1.space.L)
        space = FiniteSpace(f1.space.labels, f1.space.dist, L)
        assert L.flags.writeable
        assert not np.shares_memory(space.L, L)
        assert space == f1.space
        assert TableMap(space, f1.cmap.T.tolist()) == f1.cmap

    def test_table_map_takes_an_integer_array(self, f1):
        space, cmap = f1.space, f1.cmap
        assert TableMap(space, cmap.T) == cmap
        assert TableMap(space=space, T=cmap.T) == cmap
        T = cmap.T.astype(np.int32)
        assert TableMap(space, T) == cmap
        assert T.flags.writeable and TableMap(space, T).T.dtype == np.intp

    @pytest.mark.parametrize("table, witness", [
        (np.full((4, 4), 4), (0, 0)),
        (np.array([[0, 0, 0, 0]] * 3 + [[0, 0, -1, 0]]), (3, 2)),
        (np.full((4, 4), 2**64 - 1, dtype=np.uint64), (0, 0)),
        (np.zeros((4, 4)), (0, 0)),
        (np.zeros((4, 4), dtype=bool), (0, 0)),
        (np.zeros((4, 4, 1), dtype=int), (0, 0)),
    ], ids=["too-large", "negative", "beyond-intp", "float", "bool", "3-d"])
    def test_table_map_names_the_first_bad_array_entry(self, f1, table, witness):
        with pytest.raises(InvalidInstanceError, match="not a point index") as exc:
            TableMap(f1.space, table)
        assert exc.value.witness == witness

    def test_scalar_reads_are_python_values(self, f1):
        assert type(f1.space.leq(0, 1)) is bool
        assert type(f1.cmap.apply(1, 0)) is int
        assert type(f1.space.distance(0, 1)) is int


class TestEquality:
    def test_round_trip_is_equal(self, f1):
        again = parse_instance(json.loads(dump_instance(f1)))
        assert again.space == f1.space
        assert again.cmap == f1.cmap

    @pytest.mark.parametrize("path, value", [
        (("space", "points", 0), "z"),
        (("space", "distance_matrix"),
         [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]),
        (("space", "order_pairs"), [[0, 1], [1, 2]]),
        (("map", "table", 0, 1), 1),
    ], ids=["label", "distance", "order", "table"])
    def test_a_changed_value_compares_unequal(self, f1, path, value):
        doc = json.loads(dump_instance(f1))
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
        changed = parse_instance(doc)
        assert changed.cmap != f1.cmap
        if path[0] == "space":
            assert changed.space != f1.space

    def test_other_types_compare_unequal(self, f1):
        assert f1.space != f1.space.labels
        assert f1.cmap != f1.cmap.T

    def test_hashing_is_refused(self, f1):
        for obj in (f1.space, f1.cmap):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)


class TestReadWithoutCopy:
    def test_suite_tables_are_the_stored_arrays(self, f1):
        space, cmap = f1.space, f1.cmap
        tab = hypotheses._map_tables(cmap, None)
        assert np.shares_memory(tab.L, space.L)
        assert np.shares_memory(tab.D, space.D)
        assert np.shares_memory(tab.images, cmap.T)

    @pytest.mark.parametrize("sweep, names", [
        (lambda cmap, eps: exhaustive_contraction_check(cmap, eps), "DLT"),
        (lambda cmap, eps: min_chain_table(cmap.space, eps), "DL"),
        (lambda cmap, eps: all_coupled_fixed_points(cmap), "T"),
    ], ids=["contraction", "chain-table", "fixed-points"])
    def test_oracle_reads_the_stored_arrays(self, f1, sweep, names):
        # swap each stored array for a view that notes the arrays it is
        # read through; the reads of a copy share no memory with it
        space, cmap = f1.space, f1.cmap
        expected = sweep(cmap, f1.params.epsilon)
        read = []

        class Noted(np.ndarray):
            def __getitem__(self, key):
                read.append(self)
                return self.view(np.ndarray)[key]

            def nonzero(self):
                read.append(self)
                return self.view(np.ndarray).nonzero()

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                read.extend(a for a in inputs if isinstance(a, Noted))
                inputs = [a.view(np.ndarray) if isinstance(a, Noted) else a
                          for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        owners = {"D": space, "L": space, "T": cmap}
        stored = {name: getattr(owner, name) for name, owner in owners.items()}
        for name, owner in owners.items():
            object.__setattr__(owner, name, stored[name].view(Noted))
        try:
            assert _listed(sweep(cmap, f1.params.epsilon)) == _listed(expected)
        finally:
            for name, owner in owners.items():
                object.__setattr__(owner, name, stored[name])
        for name in names:
            assert any(np.shares_memory(r, stored[name]) for r in read), name
