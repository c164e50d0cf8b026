"""Schema validation, canonical serialization, deterministic generation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import GrammarError, InvalidInstanceError
from chainfix.instances import (
    MAX_ITERATIONS,
    dump_instance,
    generate_finite_instance,
    instance_document,
    load_instance,
    parse_instance,
)


def finite_doc():
    return {
        "schema_version": 1,
        "space": {
            "kind": "finite",
            "points": ["a", "b", "c"],
            "distance_matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
            "order_pairs": [[0, 1], [1, 2]],
        },
        "map": {"kind": "table", "table": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]},
        "seeds": {"x0": 0, "y0": 2},
        "parameters": {"epsilon": 1.5},
        "declared_flags": {"order_limit_closure": True},
    }


def box_doc():
    return {
        "schema_version": 1,
        "space": {
            "kind": "box",
            "dimension": 1,
            "lower": [0],
            "upper": [1],
            "grid_step": 0.25,
        },
        "map": {"kind": "expression", "formula": "(2*x - y + 3)/8"},
        "seeds": {"x0": 0, "y0": 1},
        "parameters": {"epsilon": 0.3, "lambda_claimed": 0.5},
        "declared_flags": {"order_limit_closure": True},
    }


class TestParsing:
    def test_finite_document_round_trips(self):
        inst = parse_instance(finite_doc())
        again = parse_instance(json.loads(dump_instance(inst)))
        assert again.space == inst.space
        assert again.cmap == inst.cmap
        assert (again.x0, again.y0) == (inst.x0, inst.y0)
        assert again.params == inst.params

    def test_box_document_round_trips(self):
        inst = parse_instance(box_doc())
        again = parse_instance(json.loads(dump_instance(inst)))
        assert again.space == inst.space
        assert again.cmap == inst.cmap
        assert again.params == inst.params
        assert again.grid_step == inst.grid_step

    def test_dump_is_canonical_and_stable(self):
        inst = parse_instance(finite_doc())
        raw = dump_instance(inst)
        assert raw == dump_instance(parse_instance(json.loads(raw)))
        assert raw.endswith(b"\n")

    def test_order_pairs_take_transitive_closure(self):
        inst = parse_instance(finite_doc())
        assert inst.space.leq(0, 2)  # no [0, 2] in the input

    def test_covering_pairs_recomputed_on_dump(self):
        doc = finite_doc()
        doc["space"]["order_pairs"] = [[0, 1], [1, 2], [0, 2]]  # redundant
        out = instance_document(parse_instance(doc))
        assert out["space"]["order_pairs"] == [[0, 1], [1, 2]]

    def test_labels_resolve_to_indices(self):
        doc = finite_doc()
        doc["seeds"] = {"x0": "a", "y0": "c"}
        inst = parse_instance(doc)
        assert (inst.x0, inst.y0) == (0, 2)

    def test_scalar_box_seed_becomes_tuple(self):
        inst = parse_instance(box_doc())
        assert inst.x0 == (0.0,)
        assert inst.y0 == (1.0,)


class TestRejections:
    def test_rejects_non_object(self):
        with pytest.raises(InvalidInstanceError):
            parse_instance([1, 2, 3])

    def test_rejects_unknown_top_level_field(self):
        doc = finite_doc()
        doc["surprise"] = 1
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert "surprise" in str(exc.value)

    def test_rejects_wrong_schema_version(self):
        doc = finite_doc()
        doc["schema_version"] = 2
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "schema_version"

    def test_rejects_missing_epsilon(self):
        doc = finite_doc()
        del doc["parameters"]["epsilon"]
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "parameters.epsilon"

    def test_rejects_order_cycle_via_antisymmetry(self):
        doc = finite_doc()
        doc["space"]["order_pairs"] = [[0, 1], [1, 0]]
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert "antisymmet" in str(exc.value)

    def test_rejects_asymmetric_distances(self):
        doc = finite_doc()
        doc["space"]["distance_matrix"][0][1] = 9
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc)

    def test_rejects_triangle_violation(self):
        doc = finite_doc()
        doc["space"]["distance_matrix"] = [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert "triangle" in str(exc.value)

    def test_rejects_out_of_range_table_entry(self):
        doc = finite_doc()
        doc["map"]["table"][0][0] = 7
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc)

    def test_rejects_boolean_table_entry(self):
        doc = finite_doc()
        doc["map"]["table"][0][0] = True
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "map.table"

    def test_rejects_out_of_range_order_pair_with_witness(self):
        doc = finite_doc()
        doc["space"]["order_pairs"].append([0, 9])
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.witness == [0, 9]

    def test_rejects_unknown_seed_label(self):
        doc = finite_doc()
        doc["seeds"]["x0"] = "zz"
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "seeds.x0"

    def test_rejects_seed_outside_box(self):
        doc = box_doc()
        doc["seeds"]["y0"] = 2.5
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "seeds.y0"

    def test_rejects_map_leaving_the_box(self):
        doc = box_doc()
        doc["map"]["formula"] = "x + y"
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        # affine, but its range [0, 2] proves nothing: the load sample finds
        # the first escape
        assert exc.value.field == "map.formula"
        assert exc.value.witness == [0.25, 1.0]

    def test_rejects_variable_denominator(self):
        doc = box_doc()
        doc["map"]["formula"] = "x/(y + 1)"
        with pytest.raises(GrammarError) as exc:
            parse_instance(doc)
        assert exc.value.field == "map.formula"

    def test_rejects_nonpositive_grid_step(self):
        doc = box_doc()
        doc["space"]["grid_step"] = 0
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc)

    @pytest.mark.parametrize("upper, step, message", [
        ([19999], 1, None),  # 20000 points: at the cap
        ([20000], 1, "grid of 20001 points exceeds the cap of 20000"),
        ([1, 1], 1 / 140, None),  # 141 x 141 = 19881 points
        ([1, 1], 1 / 200, "grid of 40401 points exceeds the cap of 20000"),
        ([1], 1e-5,
         "grid of over 20000 points on axis 0 alone exceeds the cap of 20000"),
    ])
    def test_grid_over_the_cap_names_grid_step(self, upper, step, message):
        doc = box_doc()
        doc["space"].update(dimension=len(upper), lower=[0] * len(upper),
                            upper=upper, grid_step=step)
        doc["map"]["formula"] = ["x1", "x2"] if len(upper) == 2 else "x"
        doc["seeds"] = {"x0": [0] * len(upper), "y0": upper}
        if message is None:
            inst = parse_instance(doc)
            assert inst.grid_step == step
            return
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "space.grid_step"
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, path, value, field", [
        (box_doc, ("parameters", "epsilon"), float("nan"), "parameters.epsilon"),
        (box_doc, ("parameters", "epsilon"), 10**400, "parameters.epsilon"),
        (box_doc, ("parameters", "tolerance"), float("inf"), "parameters.tolerance"),
        (box_doc, ("space", "lower"), [float("nan")], "space.lower"),
        (box_doc, ("space", "upper"), [float("inf")], "space.upper"),
        (box_doc, ("space", "grid_step"), float("nan"), "space.grid_step"),
        (box_doc, ("seeds", "x0"), float("nan"), "seeds.x0"),
        (box_doc, ("seeds", "y0"), [float("-inf")], "seeds.y0"),
        (finite_doc, ("space", "distance_matrix"),
         [[0, 1, float("inf")], [1, 0, 1], [float("inf"), 1, 0]],
         "space.distance_matrix"),
    ], ids=["epsilon-nan", "epsilon-huge-int", "tolerance-inf", "lower-nan",
            "upper-inf", "grid-step-nan", "seed-nan", "seed-list-inf",
            "distance-inf"])
    def test_rejects_non_finite_number_in_document(self, make, path, value, field):
        # a document built in Python bypasses the JSON loader's own check
        doc = make()
        doc[path[0]][path[1]] = value
        with pytest.raises(InvalidInstanceError, match="finite") as info:
            parse_instance(doc)
        assert info.value.field == field

    @pytest.mark.parametrize("make, path, value, field, witness", [
        (finite_doc, ("space", "distance_matrix", 0, 1), 9,
         "space.distance_matrix", (0, 1)),
        (finite_doc, ("space", "distance_matrix"),
         [[0, 1, 9], [1, 0, 1], [9, 1, 0]], "space.distance_matrix", (0, 2, 1)),
        (finite_doc, ("space", "distance_matrix"),
         [[0, 2**53 + 1, 2], [2**53 + 1, 0, 1], [2, 1, 0]],
         "space.distance_matrix", (0, 1)),
        (finite_doc, ("space", "order_pairs"), [[0, 1], [1, 0]],
         "space.order_pairs", (0, 1)),
        (finite_doc, ("map", "table"), [[0, 0, 0], [1, 0, 0]], "map.table", None),
        (finite_doc, ("map", "table", 0, 0), 7, "map.table", (0, 0)),
        (finite_doc, ("map", "table", 2), [1, 1], "map.table", None),
        (box_doc, ("space", "lower"), [2], "space.upper", (0,)),
        (box_doc, ("space", "lower"), [False], "space.lower", (0,)),
        (box_doc, ("map", "formula"), ["x", "y"], "map.formula", None),
    ], ids=["asymmetric", "triangle", "inexact-distance", "order-cycle",
            "table-2x3", "table-entry-7", "table-short-row", "inverted-box",
            "bool-bound", "formula-count"])
    def test_constructor_errors_name_the_field(self, make, path, value, field,
                                               witness):
        doc = make()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InvalidInstanceError) as info:
            parse_instance(doc)
        assert info.value.field == field
        assert info.value.witness == witness

    def test_unparseable_formula_gives_a_reason(self):
        # the parser gives up on this nesting without a message of its own
        doc = box_doc()
        doc["map"]["formula"] = "-" * 20000 + "x"
        with pytest.raises(InvalidInstanceError) as info:
            parse_instance(doc)
        assert info.value.field.startswith("map")
        assert str(info.value).rstrip() not in ("map:", "")

    def test_max_iterations_capped(self):
        doc = finite_doc()
        doc["parameters"]["max_iterations"] = MAX_ITERATIONS
        assert parse_instance(doc).params.max_iterations == MAX_ITERATIONS
        doc["parameters"]["max_iterations"] = MAX_ITERATIONS + 1
        with pytest.raises(InvalidInstanceError, match=str(MAX_ITERATIONS)) as info:
            parse_instance(doc)
        assert info.value.field == "parameters.max_iterations"

    def test_rejects_lambda_outside_open_interval(self):
        for bad in (0, 1, 1.5):
            doc = box_doc()
            doc["parameters"]["lambda_claimed"] = bad
            with pytest.raises(InvalidInstanceError):
                parse_instance(doc)

    def test_rejects_component_count_mismatch(self):
        doc = box_doc()
        doc["map"]["formula"] = ["x", "y"]
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc)

    def test_rejects_table_map_on_box(self):
        doc = box_doc()
        doc["map"] = {"kind": "table", "table": [[0]]}
        with pytest.raises(InvalidInstanceError) as exc:
            parse_instance(doc)
        assert exc.value.field == "map.kind"

    def test_rejects_oversized_space(self):
        n = 70
        doc = finite_doc()
        doc["space"]["points"] = [f"p{i}" for i in range(n)]
        doc["space"]["distance_matrix"] = [
            [abs(i - j) for j in range(n)] for i in range(n)
        ]
        doc["space"]["order_pairs"] = []
        doc["map"]["table"] = [[0] * n for _ in range(n)]
        doc["seeds"] = {"x0": 0, "y0": 0}
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc)

    def test_finite_forces_order_limit_closure(self):
        doc = finite_doc()
        doc["declared_flags"]["order_limit_closure"] = False
        assert parse_instance(doc).order_limit_closure is True

    def test_load_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(InvalidInstanceError) as exc:
            load_instance(path)
        assert "line 1" in str(exc.value)


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = dump_instance(generate_finite_instance(11))
        b = dump_instance(generate_finite_instance(11))
        assert a == b

    def test_different_seeds_differ(self):
        a = dump_instance(generate_finite_instance(1))
        b = dump_instance(generate_finite_instance(2))
        assert a != b

    def test_size_is_respected(self):
        for size in (2, 7, 16):
            inst = generate_finite_instance(5, size)
            assert inst.space.size == size

    def test_size_bounds_enforced(self):
        with pytest.raises(InvalidInstanceError):
            generate_finite_instance(0, 1)
        with pytest.raises(InvalidInstanceError):
            generate_finite_instance(0, 65)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_generated_documents_reparse(self, seed):
        inst = generate_finite_instance(seed)
        again = parse_instance(json.loads(dump_instance(inst)))
        assert again.space == inst.space
        assert again.cmap == inst.cmap

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_generator_is_pure(self, seed):
        one = generate_finite_instance(seed)
        two = generate_finite_instance(seed)
        assert dump_instance(one) == dump_instance(two)


def test_hand_instances_parse(instance_dir):
    names = sorted(p.name for p in instance_dir.glob("*.json"))
    assert names == [
        "antichain2.json",
        "chain4.json",
        "f1.json",
        "l1.json",
        "l2d.json",
    ]
    for name in names:
        inst = load_instance(instance_dir / name)
        assert inst.params.epsilon > 0


def test_parsed_values_detached_from_input_document():
    doc = finite_doc()
    inst = parse_instance(doc)
    doc["parameters"]["epsilon"] = 99.0
    doc["map"]["table"][0][0] = 2
    doc["space"]["distance_matrix"][0][1] = 5
    assert inst.params.epsilon == 1.5
    assert inst.cmap.T[0, 0] == 0
    assert inst.space.distance(0, 1) == 1 and inst.space.D[0, 1] == 1
