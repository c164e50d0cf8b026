"""Map evaluation against hand-derived values.

The affine map (2x - y + 3)/8 on [0, 1] is the workhorse: its iterates and
its fixed point come from an independent linear-algebra derivation, not from
running the code. Setting x = y = c in c = (2c - c + 3)/8 gives 8c = c + 3,
so c = 3/7. First iterates from (0, 1):

    x1 = (0 - 1 + 3)/8 = 0.25        y1 = (2 - 0 + 3)/8 = 0.625
    x2 = (0.5 - 0.625 + 3)/8 = 0.359375
    y2 = (1.25 - 0.25 + 3)/8 = 0.5

All four values are exact in binary floating point.
"""

import pytest

from chainfix.errors import EscapeError, InvalidInstanceError
from chainfix.mappings import TableMap, expression_map, iterate_m
from chainfix.spaces import BoxSpace, FiniteSpace


@pytest.fixture()
def affine():
    box = BoxSpace((0.0,), (1.0,))
    return expression_map(box, ["(2*x - y + 3)/8"])


def chain_space(n: int) -> FiniteSpace:
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    order = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order)


def test_affine_first_iterate(affine):
    assert affine.apply((0.0,), (1.0,)) == (0.25,)
    assert affine.apply((1.0,), (0.0,)) == (0.625,)


def test_affine_second_iterate_via_iterate_m(affine):
    pair = iterate_m(affine, (0.0,), (1.0,), 2)
    assert pair.forward == (0.359375,)
    assert pair.backward == (0.5,)


def test_affine_fixed_point_is_three_sevenths(affine):
    c = 3.0 / 7.0
    assert affine.apply((c,), (c,)) == (c,)


def test_iterate_zero_is_identity(affine):
    pair = iterate_m(affine, (0.0,), (1.0,), 0)
    assert pair.forward == (0.0,)
    assert pair.backward == (1.0,)


def test_iterate_updates_both_streams_simultaneously(affine):
    # second iterate must use (x1, y1), not a half-updated pair
    one = iterate_m(affine, (0.0,), (1.0,), 1)
    two = iterate_m(affine, (0.0,), (1.0,), 2)
    assert two.forward == affine.apply(one.forward, one.backward)
    assert two.backward == affine.apply(one.backward, one.forward)


def test_escape_raises():
    box = BoxSpace((0.0,), (1.0,))
    cmap = expression_map(box, ["x + y"])
    with pytest.raises(EscapeError):
        cmap.apply((0.75,), (0.75,))


def test_table_map_applies_by_index():
    sp = chain_space(3)
    cmap = TableMap(sp, ((0, 0, 0), (1, 1, 0), (2, 1, 1)))
    assert cmap.apply(2, 1) == 1
    assert cmap.apply(0, 2) == 0


def test_table_map_rejects_bad_shape():
    sp = chain_space(3)
    with pytest.raises(InvalidInstanceError):
        TableMap(sp, ((0, 0), (1, 1), (2, 2)))


def test_table_map_rejects_out_of_range_entry():
    sp = chain_space(2)
    with pytest.raises(InvalidInstanceError):
        TableMap(sp, ((0, 3), (1, 1)))


def test_table_map_rejects_bool_entry():
    # True == 1 as an int, but it is not a point index
    sp = chain_space(2)
    with pytest.raises(InvalidInstanceError) as exc:
        TableMap(sp, ((True, 0), (0, 0)))
    assert exc.value.field == "table"
    assert exc.value.witness == (0, 0)


def test_expression_map_component_count_checked():
    box = BoxSpace((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(InvalidInstanceError):
        expression_map(box, ["x1"])
