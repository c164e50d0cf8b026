import numpy as np
import pytest

from chainfix.errors import DomainError, InvalidInstanceError
from chainfix.spaces import BoxSpace, FiniteSpace, point_jsonable


def chain_space(n: int = 3) -> FiniteSpace:
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    order = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteSpace.from_lists([f"p{i}" for i in range(n)], dist, order)


class TestFiniteSpace:
    def test_basic_queries(self):
        sp = chain_space(3)
        assert sp.size == 3
        assert list(sp.points()) == [0, 1, 2]
        assert sp.distance(0, 2) == 2
        assert sp.leq(0, 2) and not sp.leq(2, 0)

    def test_rejects_asymmetric_metric(self):
        dist = [[0, 1], [2, 0]]
        order = [[True, True], [False, True]]
        with pytest.raises(InvalidInstanceError) as exc:
            FiniteSpace.from_lists(["a", "b"], dist, order)
        assert "symmetr" in str(exc.value)

    def test_rejects_zero_distance_between_distinct_points(self):
        dist = [[0, 0], [0, 0]]
        order = [[True, False], [False, True]]
        with pytest.raises(InvalidInstanceError):
            FiniteSpace.from_lists(["a", "b"], dist, order)

    def test_rejects_nonzero_diagonal(self):
        dist = [[1, 1], [1, 0]]
        order = [[True, False], [False, True]]
        with pytest.raises(InvalidInstanceError):
            FiniteSpace.from_lists(["a", "b"], dist, order)

    def test_rejects_triangle_violation_with_witness(self):
        # d(0,2)=5 > d(0,1)+d(1,2)=2
        dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        order = [[True] * 3] * 1 + [[False, True, False], [False, False, True]]
        order = [[i <= j for j in range(3)] for i in range(3)]
        with pytest.raises(InvalidInstanceError) as exc:
            FiniteSpace.from_lists(["a", "b", "c"], dist, order)
        assert "triangle" in str(exc.value)

    def test_rejects_nonreflexive_order(self):
        dist = [[0, 1], [1, 0]]
        order = [[False, False], [False, True]]
        with pytest.raises(InvalidInstanceError):
            FiniteSpace.from_lists(["a", "b"], dist, order)

    def test_rejects_antisymmetry_violation(self):
        dist = [[0, 1], [1, 0]]
        order = [[True, True], [True, True]]
        with pytest.raises(InvalidInstanceError) as exc:
            FiniteSpace.from_lists(["a", "b"], dist, order)
        assert "antisymmet" in str(exc.value)

    def test_rejects_transitivity_violation(self):
        dist = [[abs(i - j) for j in range(3)] for i in range(3)]
        order = [
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
        with pytest.raises(InvalidInstanceError) as exc:
            FiniteSpace.from_lists(["a", "b", "c"], dist, order)
        assert "transitiv" in str(exc.value)

    @pytest.mark.parametrize("order, bad", [
        # "False" is truthy, so it used to read as a <= b
        ([[1, "False"], [0, 1]], (0, 0)),
        ([[True, "False"], [False, True]], (0, 1)),
        ([[True, False], [None, True]], (1, 0)),
        ([[True, 1.0], [False, True]], (0, 1)),
    ])
    def test_rejects_non_boolean_order_entry(self, order, bad):
        with pytest.raises(InvalidInstanceError) as exc:
            FiniteSpace.from_lists(["a", "b"], [[0, 1], [1, 0]], order)
        assert exc.value.field == "order_pairs"
        assert exc.value.witness == bad
        i, j = bad
        assert str(exc.value) == (
            f"order entry [{i}][{j}] = {order[i][j]!r} is not a boolean")

    def test_boolean_array_and_numpy_booleans_are_accepted(self):
        L = np.array([[True, True], [False, True]])
        from_array = FiniteSpace.from_lists(["a", "b"], [[0, 1], [1, 0]], L)
        from_rows = FiniteSpace.from_lists(["a", "b"], [[0, 1], [1, 0]],
                                           [list(row) for row in L])
        assert from_array == from_rows
        assert from_array.leq(0, 1) and not from_array.leq(1, 0)

    @pytest.mark.parametrize("order", [
        [[True, False]],
        [[True, False], [False]],
    ], ids=["one-row", "short-row"])
    def test_rejects_order_that_is_not_n_by_n(self, order):
        with pytest.raises(InvalidInstanceError) as exc:
            FiniteSpace.from_lists(["a", "b"], [[0, 1], [1, 0]], order)
        assert (exc.value.field, str(exc.value)) == (
            "order_pairs", "order relation must be 2 x 2")

    def test_validate_point_range(self):
        sp = chain_space(2)
        with pytest.raises(DomainError):
            sp.validate_point(2)
        with pytest.raises(DomainError):
            sp.validate_point((0.5,))


class TestBoxSpace:
    def test_distance_is_coordinate_sum(self):
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        assert box.distance((0.0, 0.0), (1.0, 0.5)) == 1.5

    def test_order_is_componentwise(self):
        box = BoxSpace((0.0, 0.0), (1.0, 1.0))
        assert box.leq((0.1, 0.2), (0.3, 0.2))
        assert not box.leq((0.1, 0.5), (0.3, 0.2))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidInstanceError):
            BoxSpace((1.0,), (0.0,))

    def test_rejects_infinite_upper_bound(self):
        # an unbounded axis would give sample_points' grid no last point
        with pytest.raises(InvalidInstanceError, match="axis 1") as exc:
            BoxSpace((0.0, 0.0), (1.0, float("inf")))
        assert exc.value.witness == (1,)

    def test_rejects_infinite_lower_bound(self):
        with pytest.raises(InvalidInstanceError, match="axis 0") as exc:
            BoxSpace((float("-inf"),), (1.0,))
        assert exc.value.witness == (0,)

    def test_rejects_bound_that_is_not_a_number(self):
        with pytest.raises(InvalidInstanceError, match="axis 0"):
            BoxSpace(("0",), (1.0,))

    @pytest.mark.parametrize("lower, upper", [
        ((False,), (True,)),
        ((0,), (10**400,)),  # too large for a float: no OverflowError
    ], ids=["bool", "huge-int"])
    def test_rejects_bool_and_unconvertible_bounds(self, lower, upper):
        with pytest.raises(InvalidInstanceError, match="axis 0") as exc:
            BoxSpace(lower, upper)
        assert exc.value.witness == (0,)

    @pytest.mark.parametrize("lower, upper", [
        ((), ()),
        ((0.0,), (1.0, 1.0)),
    ], ids=["no-axes", "unequal-lengths"])
    def test_rejects_bounds_of_no_axes_or_unequal_lengths(self, lower, upper):
        with pytest.raises(InvalidInstanceError) as exc:
            BoxSpace(lower, upper)
        assert (exc.value.field, str(exc.value)) == (
            "lower", "box bounds must be nonempty and same length")

    def test_validate_point_outside(self):
        box = BoxSpace((0.0,), (1.0,))
        with pytest.raises(DomainError):
            box.validate_point((1.5,))
        with pytest.raises(DomainError):
            box.validate_point((0.5, 0.5))


def test_point_jsonable_shapes():
    assert point_jsonable(3) == 3
    assert point_jsonable((0.5,)) == 0.5
    assert point_jsonable((0.5, 0.25)) == [0.5, 0.25]
