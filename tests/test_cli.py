"""Exit codes, JSON shapes, and byte determinism of the command line."""

import ast
import json
import os
import pathlib
import re
import resource
import subprocess
import sys

import pytest

import chainfix
from chainfix import pipeline, solver
from chainfix.cli import emit_trace, run_cli
from chainfix.errors import DomainError
from chainfix.instances import MAX_ITERATIONS, load_instance

SRC = os.path.dirname(os.path.dirname(chainfix.__file__))

# F jumps out of [0, 1] only within 0.001 of x = 0.45, which the grid and
# the seeded draws miss, so `check` passes; the seed x0 = 0 lands on 0.45
ESCAPE_DOC = {
    "schema_version": 1,
    "space": {"kind": "box", "dimension": 1, "lower": [0], "upper": [1],
              "grid_step": 0.5},
    "map": {"kind": "expression",
            "formula": "0.45 + 1000*max(0, 0.001 - abs(x - 0.45))"},
    "seeds": {"x0": 0, "y0": 1},
    "parameters": {"epsilon": 0.6},
}


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite {constant} in output")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def escape_path(tmp_path):
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(ESCAPE_DOC))
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_clean_instance(self, capsys, l1_path):
        code, out, _ = run(capsys, "check", l1_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["violated"] == []

    def test_check_violated_instance(self, capsys, f1_path):
        code, out, _ = run(capsys, "check", f1_path)
        assert code == 1
        doc = json.loads(out)
        assert doc["violated"] == ["uniform-local-contraction"]

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_invalid_json_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "line" in err

    def test_overlong_integer_literal_is_validation_error(self, capsys, tmp_path):
        # json refuses to convert an integer of more than 4300 digits
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1' + "0" * 5000 + "}")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: not readable as JSON: Exceeds the limit")
        assert "Traceback" not in err

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{}", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200000 + b"]" * 200000,
         "not readable as JSON: arrays or objects nested too deeply"),
    ], ids=["not-utf8", "nested-too-deeply"])
    def test_unreadable_document_is_validation_error(
        self, capsys, tmp_path, content, reason
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: {reason}")
        assert "Traceback" not in err

    def test_formula_nested_too_deeply_names_the_formula(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "space": {"kind": "box", "dimension": 1, "lower": [0], "upper": [1]},
            "map": {"kind": "expression", "formula": "x" + "+0" * 50000},
            "seeds": {"x0": 0, "y0": 1},
            "parameters": {"epsilon": 0.6},
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: map.formula: expression of 100001 characters nests too deeply "
            "(the limit is 200 levels)\n"
        )

    def test_nan_denominator_names_the_formula(self, capsys, tmp_path):
        # refused when parsed, not later as a map value that leaves the box
        formula = "x/((1e308*10)-(1e308*10))"
        doc = {
            "schema_version": 1,
            "space": {"kind": "box", "dimension": 1, "lower": [0], "upper": [1],
                      "grid_step": 0.5},
            "map": {"kind": "expression", "formula": formula},
            "seeds": {"x0": 0, "y0": 1},
            "parameters": {"epsilon": 0.6},
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: map.formula: division by NaN constant in {formula!r}\n"

    @pytest.mark.parametrize("formula", [
        "(" * 3000 + "x",
        "(" * 300000 + "x" + ")" * 300000,
    ], ids=["3001-characters", "300000-parentheses"])
    def test_oversized_formula_gets_one_short_line(self, capsys, tmp_path, formula):
        # the message repeats the start of the formula and its length, not
        # the whole formula
        doc = {
            "schema_version": 1,
            "space": {"kind": "box", "dimension": 1, "lower": [0], "upper": [1]},
            "map": {"kind": "expression", "formula": formula},
            "seeds": {"x0": 0, "y0": 1},
            "parameters": {"epsilon": 0.6},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert re.match(r"error: map\.formula: ", err)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode("utf-8")) < 300
        assert f"({len(repr(formula))} characters)" in err

    @pytest.mark.parametrize("formula, start", [
        ('x+"' + "a" * 300000 + '"', "non-numeric literal 'aaa"),
        ("x+b'" + "a" * 300000 + "'", "non-numeric literal b'aaa"),
        ("x+" + "v" * 300000, "unknown variable 'vvv"),
    ], ids=["string-literal", "bytes-literal", "name"])
    def test_oversized_literal_or_name_gets_one_short_line(
        self, capsys, tmp_path, formula, start
    ):
        # both the offending node and the formula are clipped
        doc = {
            "schema_version": 1,
            "space": {"kind": "box", "dimension": 1, "lower": [0], "upper": [1]},
            "map": {"kind": "expression", "formula": formula},
            "seeds": {"x0": 0, "y0": 1},
            "parameters": {"epsilon": 0.6},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: map.formula: {start}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode("utf-8")) < 300
        assert f"({len(repr(formula))} characters)" in err

    @pytest.mark.parametrize("name, x0, start, length", [
        # repr((0.0,) * 100000): "0.0, " per coordinate, less the last ", "
        ("l1", [0] * 100000, "invalid box point (0.0, 0.0, ", 500000),
        ("f1", 10**4000, "invalid finite point 1000", 4001),
    ], ids=["box-coordinates", "finite-index"])
    def test_oversized_seed_gets_one_short_line(
        self, capsys, tmp_path, instance_dir, name, x0, start, length
    ):
        doc = json.loads((instance_dir / f"{name}.json").read_text())
        doc["seeds"]["x0"] = x0
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: seeds.x0: {start}")
        assert err.count("\n") == 1 and len(err.encode("utf-8")) < 300
        assert f"({length} characters)" in err

    @pytest.mark.parametrize("edit, start", [
        (lambda d, v: d.update(schema_version=v),
         "error: schema_version: must be an integer, got "),
        (lambda d, v: d["seeds"].update(x0=v),
         "error: seeds.x0: unknown point label "),
        (lambda d, v: d["space"]["distance_matrix"][0].__setitem__(1, v),
         "error: space.distance_matrix: distance d[0][1] = "),
        (lambda d, v: d["map"]["table"][1].__setitem__(0, v),
         "error: map.table: map table entry [1][0] = "),
    ], ids=["schema-version", "label", "distance", "table-entry"])
    def test_oversized_value_gets_one_short_line(self, capsys, tmp_path, f1_path,
                                                 edit, start):
        doc = json.loads(open(f1_path).read())
        edit(doc, "v" * 100000)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(start + f"'{'v' * 79}... (100002 characters)")
        assert err.count("\n") == 1 and len(err) < 300

    @pytest.mark.parametrize("argv", [
        ("chain", "l1", "--from", "x" * 100000, "--to", "1"),
        ("chain", "f1", "--from", "a", "--to", "b", "--eps", "x" * 100000),
        ("chain", "f1", "--from", "a", "--to", "b", "--eps", "0" * 100000),
        ("verify-lemma", "f1", "--horizon", "9" * 100000),
    ], ids=["coordinates", "eps-not-a-number", "eps-zero", "horizon"])
    def test_oversized_argument_is_clipped(self, capsys, instance_dir, argv):
        command, name, *rest = argv
        code, out, err = run(capsys, command, str(instance_dir / f"{name}.json"),
                             *rest)
        assert (code, out) == (2, "")
        assert "(100002 characters)" in err
        assert len(err) < 1000  # argparse adds its usage line

    def test_schema_violation_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 99}')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0


    @pytest.mark.parametrize("command", ["check", "solve", "verify-lemma"])
    @pytest.mark.parametrize("formula, step, epsilon, seeds, line", [
        # F leaves [0, 1] only near y = 1, at the end of the sample's grid
        ("max(0, 100*y - 98.9)", 0.004, 0.01, (0, 0),
         "map value (1.0999999999999943,) escapes the box at x=(0.0,), y=(1.0,)"),
        # F leaves [0, 1] only within 0.001 of x = 0.3: no sample point lies
        # there, but the seed x0 does
        ("x*y + 2000*max(0, 0.001 - abs(x - 0.3))", 0.5, 0.6, (0.3, 0.7),
         "map value (2.21,) escapes the box at x=(0.3,), y=(0.7,)"),
        # F leaves [0, 1] only for x above 0.999; without a grid_step the
        # sample is 8 draws, none there, but the box's corner x = 1 is tried
        ("0.5 + (x - y)/4 + 1000*max(0, x - 0.999)", None, 0.6, (0.2, 0.8),
         "map value (1.7500000000000009,) escapes the box at x=(1.0,), y=(0.0,)"),
    ], ids=["on-the-sample", "at-the-seeds", "at-a-corner"])
    def test_map_escape_names_the_formula(self, capsys, tmp_path, command,
                                          formula, step, epsilon, seeds, line):
        space = {"kind": "box", "dimension": 1, "lower": [0], "upper": [1]}
        if step is not None:
            space["grid_step"] = step
        doc = {
            "schema_version": 1,
            "space": space,
            "map": {"kind": "expression", "formula": formula},
            "seeds": {"x0": seeds[0], "y0": seeds[1]},
            "parameters": {"epsilon": epsilon},
        }
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: map.formula: {line}\n"

    def test_chain_never_evaluates_the_map(self, capsys, tmp_path):
        # x + y leaves [0, 1], but chain reads only the box and epsilon, so
        # it prints what it prints for an affine map on the same box
        outs = []
        for formula in ["x + y", "(2*x - y + 3)/8"]:
            doc = dict(ESCAPE_DOC, map={"kind": "expression", "formula": formula})
            path = tmp_path / "chain.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "chain", str(path), "--from", "0",
                                 "--to", "1")
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("edit, line", [
        (lambda d: d["space"]["distance_matrix"][0].__setitem__(1, 5),
         "error: space.distance_matrix: metric symmetry fails: "
         "d[0][1] = 5 but d[1][0] = 1\n"),
        (lambda d: d["space"]["order_pairs"].append([1, 0]),
         "error: space.order_pairs: order antisymmetry fails: 0 <= 1 and 1 <= 0\n"),
        (lambda d: d["space"]["points"].__setitem__(1, "a"),
         "error: space.points: point labels must be distinct\n"),
        (lambda d: d["parameters"].pop("epsilon"),
         "error: parameters.epsilon: required field is missing\n"),
        (lambda d: d["seeds"].update(x0="z"),
         "error: seeds.x0: unknown point label 'z'\n"),
        (lambda d: d["space"].update(kind="torus"),
         "error: space.kind: must be 'finite' or 'box', got 'torus'\n"),
        (lambda d: d["parameters"].update(epsilon=-1),
         "error: parameters.epsilon: must be positive, got -1.0\n"),
    ], ids=["asymmetric", "order-cycle", "repeated-label", "missing",
            "unknown-label", "unknown-kind", "negative"])
    def test_error_names_the_field_once(self, capsys, tmp_path, f1_path,
                                        edit, line):
        doc = json.loads(open(f1_path).read())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == line

    @pytest.mark.parametrize("formula, reason", [
        (f"{10**200} * {10**200} * x", "map value (nan,) "),
        (f"x/{10**399}", "numeric literal outside float range"),
    ], ids=["huge-product", "huge-divisor"])
    def test_huge_literal_is_a_field_error(self, capsys, tmp_path, formula,
                                           reason):
        # literals are floats, so the product overflows to inf (an escape)
        # and the divisor is rejected, instead of an OverflowError
        doc = dict(ESCAPE_DOC, map={"kind": "expression", "formula": formula})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: map.formula: {reason}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_rejected(self, capsys, l1_path, tmp_path,
                                           constant):
        text = open(l1_path).read().replace('"epsilon": 0.3', f'"epsilon": {constant}')
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        value = repr(float(constant))
        assert err == f"error: parameters.epsilon: must be a finite number, got {value}\n"

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "NaN", "Infinity"])
    @pytest.mark.parametrize("doc, where, line", [
        ("f1", ("space", "distance_matrix", 0, 1),
         "space.distance_matrix: distance d[0][1] = {} is not a finite float "
         "or an integer within 2**52"),
        ("f1", ("parameters", "epsilon"),
         "parameters.epsilon: must be a finite number, got {}"),
        ("f1", ("parameters", "tolerance"),
         "parameters.tolerance: must be a finite number, got {}"),
        ("f1", ("parameters", "max_iterations"),
         "parameters.max_iterations: must be an integer, got {}"),
        ("f1", ("schema_version",), "schema_version: must be an integer, got {}"),
        ("f1", ("space", "points", 1),
         "space.points: point label [1] = {} is not a finite number"),
        ("f1", ("space", "order_pairs", 1, 0),
         "space.order_pairs: entries must be [i, j] index pairs, got [{}, 2]"),
        ("f1", ("map", "table", 0, 1),
         "map.table: map table entry [0][1] = {} is not a point index"),
        ("f1", ("seeds", "x0"), "seeds.x0: must be an index or label, got {}"),
        ("l1", ("space", "lower", 0),
         "space.lower: box bounds must be finite numbers on axis 0: [{}, 1]"),
        ("l1", ("space", "upper", 0),
         "space.upper: box bounds must be finite numbers on axis 0: [0, {}]"),
        ("l1", ("space", "dimension"), "space.dimension: must be an integer, got {}"),
        ("l1", ("space", "grid_step"),
         "space.grid_step: must be a finite number, got {}"),
        ("l1", ("seeds", "y0"),
         "seeds.y0: must be a finite coordinate or coordinate list, got {}"),
        ("l1", ("parameters", "lambda_claimed"),
         "parameters.lambda_claimed: must be a finite number, got {}"),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_non_finite_literal_names_its_field(self, capsys, tmp_path,
                                                instance_dir, literal, doc,
                                                where, line):
        # json reads these literals as floats; the field holding one
        # rejects it by name
        data = json.loads((instance_dir / f"{doc}.json").read_text())
        *path, last = where
        target = data
        for key in path:
            target = target[key]
        target[last] = "@literal@"
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(data).replace('"@literal@"', literal))
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {line.format(repr(float(literal)))}\n"


    def test_non_finite_result_exits_two_without_output(self, capsys, f1_path):
        code, out, err = run(capsys, "chain", f1_path, "--from", "a", "--to", "a",
                             "--eps", "nan")
        assert code == 2
        assert out == ""
        assert "non-finite" in err
        assert "argument --eps" in err

    @pytest.mark.parametrize("eps, reason", [
        ("inf", "non-finite"), ("-inf", "non-finite"),
        ("0", "must be positive"), ("-0.5", "must be positive"),
        ("abc", "not a number"),
    ])
    def test_chain_eps_is_checked_as_an_argument(self, capsys, f1_path, eps, reason):
        code, out, err = run(capsys, "chain", f1_path, "--from", "a", "--to", "b",
                             f"--eps={eps}")
        assert code == 2
        assert out == ""
        assert f"argument --eps: {reason}" in err


class TestSolve:
    def test_l1_summary(self, capsys, l1_path):
        code, out, _ = run(capsys, "solve", l1_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "converged"
        assert doc["iterations_used"] <= 60
        c = 3.0 / 7.0
        assert abs(doc["fixed_point"]["x"] - c) <= 1e-10
        assert abs(doc["fixed_point"]["y"] - c) <= 1e-10
        assert doc["gap"] <= 2e-10
        assert doc["config"]["lam"] == 0.5
        assert doc["config"]["chain_n"] == 4
        assert doc["config"]["uncertified"] == []
        assert doc["bound"]["advisory"] is False
        assert doc["bound"]["all_below"] is True
        assert doc["collapse"]["verdict"] == "holds"

    def test_chain4_certified_bound(self, capsys, chain4_path):
        code, out, _ = run(capsys, "solve", chain4_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["lambda_certified"] is True
        assert doc["bound"]["advisory"] is False
        assert doc["bound"]["all_below"] is True
        assert doc["fixed_point"] == {"x": 0, "y": 0}

    def test_f1_converges_but_flags_violation(self, capsys, f1_path):
        code, out, _ = run(capsys, "solve", f1_path)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "converged"
        assert doc["violated"] == ["uniform-local-contraction"]
        assert doc["collapse"]["verdict"] == "violated"  # stuck at gap 1

    def test_box_with_incomparable_seeds_checks_collapse(self, capsys, tmp_path):
        # (0, 1) and (1, 0) are incomparable, so collapse rests on pair
        # bounds, which a box has
        doc = {
            "schema_version": 1,
            "space": {"kind": "box", "dimension": 2, "lower": [0, 0],
                      "upper": [1, 1], "grid_step": 0.25},
            "map": {"kind": "expression",
                    "formula": ["(2*x1 - y1 + 3)/8", "(2*x2 - y2 + 3)/8"]},
            "seeds": {"x0": [0, 1], "y0": [1, 0]},
            "parameters": {"epsilon": 0.6},
        }
        path = tmp_path / "incomparable.json"
        path.write_text(json.dumps(doc))
        _, out, _ = run(capsys, "solve", str(path))
        doc = json.loads(out)
        assert doc["status"] == "converged"
        assert doc["hypotheses"]["pair-bounds"]["verdict"] == "holds"
        assert doc["collapse"]["mode"] == "pair-bounds"
        assert doc["collapse"]["verdict"] == "holds"

    def test_trace_jsonl_shape(self, capsys, l1_path, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, _, _ = run(
            capsys, "solve", l1_path, "--json", str(tmp_path / "s.json"),
            "--trace", str(trace),
        )
        assert code == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert rows[0] == {
            "bound": None, "eta_step": None, "m": 0,
            "residual": 0.625, "x": 0.0, "y": 1.0,
        }
        assert rows[1]["x"] == 0.25
        assert rows[1]["y"] == 0.625
        assert rows[1]["eta_step"] == 0.625  # equals row 0's residual
        assert rows[1]["bound"] == 2.4  # 2 * 4 * 0.5**0 * 0.3
        assert rows[2]["x"] == 0.359375
        assert rows[2]["y"] == 0.5

    def test_escape_is_a_verdict(self, capsys, escape_path, tmp_path):
        assert run(capsys, "check", escape_path)[0] == 0
        jsonl, csv = tmp_path / "t.jsonl", tmp_path / "t.csv"
        code, out, err = run(capsys, "solve", escape_path, "--trace", str(jsonl))
        assert (code, err) == (1, "")
        doc = strict_json(out)
        assert doc["status"] == "diverged-from-box"
        assert doc["fixed_point"] is None
        assert doc["iterations_used"] == 1
        assert doc["residual"] is None  # the step out of the box has no length
        rows = [strict_json(line) for line in jsonl.read_text().splitlines()]
        assert [r["residual"] for r in rows] == [1.0, None]
        run(capsys, "solve", escape_path, "--json", str(tmp_path / "s.json"),
            "--trace", str(csv), "--trace-format", "csv")
        assert csv.read_text().splitlines()[1:] == [
            "0,0.0,1.0,1.0,,", "1,0.45,0.45,,1.0,2.4",
        ]

    def test_trace_csv_header_and_first_rows(self, capsys, l1_path, tmp_path):
        trace = tmp_path / "t.csv"
        run(
            capsys, "solve", l1_path, "--json", str(tmp_path / "s.json"),
            "--trace", str(trace), "--trace-format", "csv",
        )
        lines = trace.read_text().splitlines()
        assert lines[0] == "m,x,y,residual,eta_step,bound"
        assert lines[1] == "0,0.0,1.0,0.625,,"
        assert lines[2] == "1,0.25,0.625,0.234375,0.625,2.4"


class TestDeterminism:
    def test_solve_output_is_byte_identical(self, capsys, l2d_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ta, tb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "solve", l2d_path, "--json", str(a), "--trace", str(ta))
        run(capsys, "solve", l2d_path, "--json", str(b), "--trace", str(tb))
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()

    def test_check_output_is_byte_identical(self, capsys, l1_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "check", l1_path, "--json", str(a))
        run(capsys, "check", l1_path, "--json", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--seed", "3", "--out", str(a))
        run(capsys, "gen", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # well-formed


class TestChainCommand:
    def test_finite_labels(self, capsys, f1_path):
        code, out, _ = run(capsys, "chain", f1_path, "--from", "a", "--to", "d")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["n"] == 3
        assert doc["points"] == [0, 1, 2, 3]

    def test_box_coordinates(self, capsys, l1_path):
        code, out, _ = run(
            capsys, "chain", l1_path, "--from", "0", "--to", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["points"] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_absent_chain_exits_one(self, capsys, f1_path):
        code, out, _ = run(
            capsys, "chain", f1_path, "--from", "a", "--to", "d",
            "--eps", "0.5",
        )
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_unordered_endpoints_rejected(self, capsys, f1_path):
        code, _, err = run(capsys, "chain", f1_path, "--from", "d", "--to", "a")
        assert code == 2


class TestOracleCommand:
    def test_f1_document(self, capsys, f1_path):
        code, out, _ = run(capsys, "oracle", f1_path)
        assert code == 1  # contraction violation
        doc = json.loads(out)
        assert doc["fixed_points"] == [[0, 0], [0, 1], [1, 0]]
        assert doc["contraction"]["witness"] == [1, 0, 0, 0]
        assert doc["chain"]["max_n"] == 3
        assert doc["chain"]["unreachable"] == []

    def test_chain4_document(self, capsys, chain4_path):
        code, out, _ = run(capsys, "oracle", chain4_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["fixed_points"] == [[0, 0]]
        assert doc["contraction"]["lambda_hat"] == pytest.approx(2 / 3, abs=0)

    def test_box_instance_rejected(self, capsys, l1_path):
        code, _, err = run(capsys, "oracle", l1_path)
        assert code == 2
        assert "finite" in err


class TestVerifyLemma:
    def test_chain4_certified_and_below(self, capsys, chain4_path):
        code, out, _ = run(capsys, "verify-lemma", chain4_path, "--horizon", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["advisory"] is False
        assert doc["all_below_bound"] is True
        assert doc["uncertified"] == []
        assert doc["rows"][0] == [0, 8, 20.0]

    def test_l1_certified(self, capsys, l1_path):
        # every hypothesis is proven from the coefficients and the box, so
        # the bound is certified and a miss would exit 1
        code, out, _ = run(capsys, "verify-lemma", l1_path, "--horizon", "10")
        assert code == 0
        doc = json.loads(out)
        assert (doc["advisory"], doc["uncertified"]) == (False, [])
        assert doc["chain_n"] == 2
        assert doc["all_below_bound"] is True
        assert doc["escaped_at"] is None

    def test_escape_stops_the_rows(self, capsys, escape_path):
        code, out, err = run(capsys, "verify-lemma", escape_path)
        assert (code, err) == (1, "")
        doc = strict_json(out)
        assert doc["escaped_at"] == 1
        assert doc["rows"] == [[0, 1.0, 1.2]]
        assert doc["final_observed"] == 1.0

    def test_zero_gap_stays_below_an_underflowed_bound(self, capsys, chain4_path):
        # the streams meet at the fixed point, and from m = 1838 the float
        # bound 2 n lam^m eps is 0.0; a gap of exactly 0 is still below it
        code, out, _ = run(capsys, "verify-lemma", chain4_path, "--horizon", "2000")
        assert code == 0
        doc = strict_json(out)
        assert (doc["advisory"], doc["uncertified"]) == (False, [])
        assert doc["all_below_bound"] is True
        assert doc["rows"][1838][1:] == [0.0, 0.0]
        assert doc["rows"][1837][2] > 0.0

    @pytest.mark.parametrize("horizon, reason", [
        ("-3", f"must lie in [0, {MAX_ITERATIONS}]"),
        (str(MAX_ITERATIONS + 1), f"must lie in [0, {MAX_ITERATIONS}]"),
        ("ten", "not an integer"),
    ])
    def test_horizon_is_checked_as_an_argument(self, capsys, f1_path, horizon,
                                               reason):
        code, out, err = run(capsys, "verify-lemma", f1_path,
                             f"--horizon={horizon}")
        assert code == 2
        assert out == ""
        assert f"argument --horizon: {reason}" in err
        assert "Traceback" not in err

    def test_horizon_zero_gives_one_row(self, capsys, chain4_path):
        code, out, _ = run(capsys, "verify-lemma", chain4_path, "--horizon", "0")
        assert code == 0
        assert json.loads(out)["rows"] == [[0, 8, 20.0]]


def test_gen_solve_pipeline(capsys, tmp_path):
    gen_path = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--seed", "0", "--size", "6",
                     "--out", str(gen_path))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(gen_path))
    doc = json.loads(out)
    assert doc["status"] == "converged"  # constant-map regime
    assert code == 0 if not doc["violated"] else 1


def test_certification_reasons_match_the_verdict(capsys, instance_dir, tmp_path):
    # one policy: advisory exactly when a reason is listed, in both commands
    paths = sorted(str(p) for p in instance_dir.glob("*.json"))
    for size in (5, 16):
        for seed in range(41):
            path = tmp_path / f"g{seed}_{size}.json"
            run(capsys, "gen", "--seed", str(seed), "--size", str(size),
                "--out", str(path))
            paths.append(str(path))
    advisory = 0
    for path in paths:
        lemma = json.loads(run(capsys, "verify-lemma", path, "--horizon", "5")[1])
        assert lemma["advisory"] == bool(lemma["uncertified"]), path
        config = json.loads(run(capsys, "solve", path)[1])["config"]
        assert config["lambda_certified"] == (config["uncertified"] == []), path
        assert config["uncertified"] == lemma["uncertified"], path
        advisory += lemma["advisory"]
    assert 0 < advisory < len(paths)


# what `python -m chainfix` runs, for a child that runs code of its own first
RUN_CHAINFIX = ("import runpy; "
                "runpy.run_module('chainfix', run_name='__main__', alter_sys=True)")


def run_fresh(*argv, probe=""):
    """A fresh `python -m chainfix` in a child held to 20 s and 512 MiB of
    address space, so that a runaway grid fails the test, not the machine;
    ``probe`` is code the child runs first."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", probe + RUN_CHAINFIX, *argv], env=env,
        preexec_fn=limit, capture_output=True, text=True, timeout=20,
    )


@pytest.mark.parametrize("dim, step", [(1, 1e-300), (2, 1e-5), (1, 1e-5)])
def test_grid_over_the_cap_exits_two_before_it_is_built(tmp_path, dim, step):
    doc = {
        "schema_version": 1,
        "space": {"kind": "box", "dimension": dim, "lower": [0] * dim,
                  "upper": [1] * dim, "grid_step": step},
        "map": {"kind": "expression",
                "formula": ["(x1 + y1)/2", "(x2 + y2)/2"] if dim == 2
                else "(x + y)/2"},
        "seeds": {"x0": [0] * dim, "y0": [1] * dim},
        "parameters": {"epsilon": 0.6},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    proc = run_fresh("check", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: space.grid_step: grid of ")
    assert "exceeds the cap of 20000" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["check", "solve", "verify-lemma"])
@pytest.mark.parametrize("formula, exit_code", [
    # decided from its coefficients and the box, so no table is built
    (["(2*x1 - y1 + 3)/8", "(x2 - y2 + 4)/8"], 0),
    (["min(x1, y1)", "max(x2, y2)"], 2),  # scanned on the sample
    # its contraction scan would stop at the first quadruple
    (["min(1, max(0, 0.5 + x1 - y1))", "min(1, max(0, 0.5 + x2 - y2))"], 2),
])
def test_sample_too_large_to_tabulate_exits_two(tmp_path, command, formula,
                                                exit_code):
    # a step of 0.01 puts 10,201 points on the grid, under its cap, but the
    # tables of the 10,209-point sample would need about 2.6 GB
    doc = {
        "schema_version": 1,
        "space": {"kind": "box", "dimension": 2, "lower": [0, 0],
                  "upper": [1, 1], "grid_step": 0.01},
        "map": {"kind": "expression", "formula": formula},
        "seeds": {"x0": [0, 0], "y0": [1, 1]},
        "parameters": {"epsilon": 0.6},
    }
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc))
    proc = run_fresh(command, str(path))
    if exit_code == 0:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)
        return
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith(
        "error: space.grid_step: a sample of 10209 points needs ")
    assert "bytes of tables, over the budget of 16777216" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["check", "solve", "verify-lemma"])
@pytest.mark.parametrize("name", ["f1", "l2d"])
def test_fresh_call_does_not_load_numpy_ma(instance_dir, command, name):
    # numpy.ma costs about 14 ms to import; np.unique and np.isin pull it in
    probe = ("import atexit, sys\n"
             "atexit.register(lambda: print(sorted(m for m in sys.modules "
             "if m == 'numpy.ma' or m.startswith('numpy.ma.')), "
             "file=sys.stderr))\n")
    proc = run_fresh(command, str(instance_dir / f"{name}.json"), probe=probe)
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)
    assert proc.stderr == "[]\n"


# prints, at exit, the numpy submodules the child has executed; the lazy
# `numpy` entry itself is in sys.modules before any numpy code runs
NUMPY_PROBE = ("import atexit, sys\n"
               "atexit.register(lambda: print(sorted(m for m in sys.modules "
               "if m.startswith('numpy.')), file=sys.stderr))\n")


MIN_MAX_DOCUMENT = {
    "schema_version": 1,
    "space": {"kind": "box", "dimension": 2, "lower": [0, 0], "upper": [1, 1],
              "grid_step": 0.25},
    "map": {"kind": "expression", "formula": [
        "max(0.1*x1 + 0.05*x2 - 0.1*y1 + 0.3, 0.08*x1 - 0.02*y2 + 0.35)",
        "min(0.1*x2 - 0.1*y2 + 0.5, abs(0.12*x1 + 0.04*x2 - 0.03*y1 + 0.45))"]},
    "seeds": {"x0": [0, 0], "y0": [1, 1]},
    "parameters": {"epsilon": 0.6},
}


@pytest.mark.parametrize("argv", [
    ("check",), ("solve",), ("solve", "--trace", "{tmp}/t.jsonl"),
    ("solve", "--trace", "{tmp}/t.csv", "--trace-format", "csv"),
    ("verify-lemma",), ("chain", "--from", "{low}", "--to", "{high}"),
], ids=["check", "solve", "solve-jsonl", "solve-csv", "verify-lemma", "chain"])
@pytest.mark.parametrize("name, low, high", [
    ("l1", "0", "1"), ("l2d", "0,0", "1,1"), ("minmax", "0,0", "1,1")])
def test_affine_box_call_loads_no_numpy(instance_dir, tmp_path, argv, name, low,
                                        high):
    # an affine map on a box is decided in exact rationals, and so is a
    # min/max map whose formula bounds its derivatives and its range, so
    # the call never reads from numpy and never executes it
    command, *rest = (a.format(tmp=tmp_path, low=low, high=high) for a in argv)
    path = instance_dir / f"{name}.json"
    if name == "minmax":
        path = tmp_path / "minmax.json"
        path.write_text(json.dumps(MIN_MAX_DOCUMENT))
    proc = run_fresh(command, str(path), *rest, probe=NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)
    assert proc.stderr == "[]\n"


def test_numpy_probe_sees_a_lazy_load(f1_path):
    # a finite space is stored as arrays, so check f1 executes numpy
    proc = run_fresh("check", f1_path, probe=NUMPY_PROBE)
    assert proc.returncode in (0, 1), proc.stderr
    loaded = ast.literal_eval(proc.stderr)
    assert {"numpy._core", "numpy.core"} & set(loaded), loaded


# prints, at exit, the chainfix modules the child has run; a module that is
# registered but never read from keeps its lazy subclass, and type() (unlike
# an attribute read) does not run it
MODULE_PROBE = ("import atexit, sys, types\n"
                "atexit.register(lambda: print(sorted(m[9:] for m, v in "
                "list(sys.modules.items()) if m.startswith('chainfix.') "
                "and type(v) is types.ModuleType), file=sys.stderr))\n")
STARTUP = {"_lazy", "cli", "errors"}  # what every call runs
LOADING = {"instances", "mappings", "spaces"}  # reading a finite document
BOX_LOADING = LOADING | {"expressions"}  # reading a box document
# past loading the document: check runs no solver, chain and oracle run no
# solver or pipeline, and only oracle runs the oracle; on a box, the map
# checks read the formula's bounds from affine, which chain never does
BOX_CHECKS = {"check", "solve", "verify-lemma"}
COMMAND_RUNS = {
    "check": {"hypotheses", "pipeline"},
    "solve": {"hypotheses", "pipeline", "solver"},
    "verify-lemma": {"hypotheses", "pipeline", "solver"},
    "chain": {"hypotheses"},
    "oracle": {"hypotheses", "oracle"},
}
CHAIN_ARGS = {"f1": ("--from", "a", "--to", "d"),
              "l2d": ("--from", "0,0", "--to", "1,1")}


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
@pytest.mark.parametrize("name", ["f1", "l2d"])
def test_each_command_runs_only_the_modules_it_uses(instance_dir, command, name):
    rest = CHAIN_ARGS[name] if command == "chain" else ()
    proc = run_fresh(command, str(instance_dir / f"{name}.json"), *rest,
                     probe=MODULE_PROBE)
    ran = set(ast.literal_eval(proc.stderr.splitlines()[-1]))
    if name == "l2d" and command == "oracle":
        # refused once the document is read, before the oracle runs
        assert proc.returncode == 2
        assert ran == STARTUP | BOX_LOADING
        return
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)
    # a finite document compiles neither expressions nor affine
    loading = LOADING if name == "f1" else BOX_LOADING
    if name == "l2d" and command in BOX_CHECKS:
        loading = loading | {"affine"}
    assert ran == STARTUP | loading | COMMAND_RUNS[command]


@pytest.mark.parametrize("argv, code, ran", [
    # gen runs no hypotheses, solver, pipeline or oracle code
    (("gen", "--seed", "3", "--size", "8"), 0, STARTUP | LOADING),
    (("--help",), 0, STARTUP),
    (("check",), 2, STARTUP),  # argparse errors
    (("solve", "x.json", "--trace-format", "xml"), 2, STARTUP),
], ids=["gen", "help", "missing-argument", "bad-choice"])
def test_gen_help_and_argument_errors_run_only_what_they_use(argv, code, ran):
    proc = run_fresh(*argv, probe=MODULE_PROBE)
    assert proc.returncode == code, proc.stderr
    assert set(ast.literal_eval(proc.stderr.splitlines()[-1])) == ran


# prints, at exit, which of dataclasses and inspect the child has imported;
# numpy imports inspect itself, so only a call that runs no numpy can miss it
INSPECT_PROBE = ("import atexit, sys\n"
                 "atexit.register(lambda: print(sorted({'dataclasses', 'inspect'} "
                 "& set(sys.modules)), file=sys.stderr))\n")


@pytest.mark.parametrize("argv, code", [
    (("check", "{l1}"), 0), (("solve", "{l2d}"), 0), (("verify-lemma", "{l1}"), 0),
    (("chain", "{l2d}", "--from", "0,0", "--to", "1,1"), 0),
    (("--help",), 0), (("check",), 2),
], ids=["check", "solve", "verify-lemma", "chain", "help", "missing-argument"])
def test_call_without_numpy_imports_no_dataclasses_or_inspect(instance_dir, argv,
                                                              code):
    # inspect, which dataclasses imports, takes 5-7 ms of such a call
    args = [a.format(l1=instance_dir / "l1.json", l2d=instance_dir / "l2d.json")
            for a in argv]
    proc = run_fresh(*args, probe=INSPECT_PROBE)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"


# an asymmetric distance matrix: d[0][1] = 5 but d[1][0] = 1
ASYMMETRIC_DOC = {
    "schema_version": 1,
    "space": {"kind": "finite", "points": ["a", "b"],
              "distance_matrix": [[0, 5], [1, 0]], "order_pairs": [[0, 1]]},
    "map": {"kind": "table", "table": [[0, 0], [1, 1]]},
    "seeds": {"x0": 0, "y0": 1}, "parameters": {"epsilon": 1.5},
}


@pytest.mark.parametrize("argv", [
    ("solve", "{l1}", "--json", "{out}/solve.json", "--trace", "{out}/t.jsonl"),
    ("solve", "{f1}", "--json", "{out}/solve.json", "--trace", "{out}/t.csv",
     "--trace-format", "csv"),
    ("oracle", "{f1}"),
    ("gen", "--seed", "3", "--size", "8", "--out", "{out}/gen.json"),
    ("check", "{bad}"),
], ids=["solve-jsonl", "solve-csv", "oracle", "gen", "bad-document"])
def test_fresh_call_prints_and_writes_what_run_cli_does(capsys, instance_dir,
                                                        tmp_path, argv):
    # a fresh call exits through cli.main, which turns the collector off and
    # freezes the heap before exit; nothing it prints or writes may change
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ASYMMETRIC_DOC))

    def call(fresh: bool):
        out = tmp_path / ("fresh" if fresh else "in-process")
        out.mkdir()
        args = [a.format(l1=instance_dir / "l1.json", f1=instance_dir / "f1.json",
                         bad=bad, out=out) for a in argv]
        if fresh:
            proc = run_fresh(*args)
            shown = proc.returncode, proc.stdout, proc.stderr
        else:
            shown = run(capsys, *args)
        return shown, {p.name: p.read_bytes() for p in out.iterdir()}

    fresh = call(True)
    assert fresh == call(False)
    (code, stdout, stderr), files = fresh
    if argv[0] == "check":
        assert code == 2 and stderr.startswith("error: space.distance_matrix: ")
    else:
        assert code in (0, 1) and stderr == "" and (stdout or files)


def test_numpy_loaded_mid_process_prints_the_same_bytes(capsys, tmp_path, l1_path,
                                                         f1_path):
    # a child solves l1 without numpy, then a min/max box map (tabulated with
    # numpy on its sample) and a finite document, loading numpy in between;
    # each prints what this process, which imported numpy first, prints
    doc = json.loads(pathlib.Path(l1_path).read_text())
    doc["map"]["formula"] = "min(1, max(0, 0.5 + x - y))"
    clamp = tmp_path / "clamp.json"
    clamp.write_text(json.dumps(doc))
    paths = [l1_path, str(clamp), f1_path]
    probe = ("import sys\n"
             "from chainfix.cli import run_cli\n"
             "def loaded():\n"
             "    return any(m.startswith('numpy.') for m in sys.modules)\n"
             f"for path in {paths[:2]!r}:\n"
             "    run_cli(['solve', path])\n"
             "    print(loaded(), file=sys.stderr)\n"
             "import atexit\n"
             "atexit.register(lambda: print(loaded(), file=sys.stderr))\n")
    proc = run_fresh("solve", f1_path, probe=probe)
    assert proc.stderr == "False\nTrue\nTrue\n"
    expected = "".join(run(capsys, "solve", path)[1] for path in paths)
    assert proc.stdout == expected


@pytest.mark.parametrize("where", [None, "space", "seeds"])
def test_long_unknown_key_is_clipped(capsys, tmp_path, l1_path, where):
    doc = json.loads(pathlib.Path(l1_path).read_text())
    (doc[where] if where else doc)["k" * 300_000] = 1
    path = tmp_path / "long-key.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    prefix = f"{where}." if where else ""
    assert err.startswith(f"error: {prefix}{'k' * 80}... (300000 characters): unknown ")
    assert err.count("\n") == 1 and len(err) < 300


@pytest.mark.parametrize("where, key", [
    ("space", "grid_stp"), ("parameters", "tolerence"), ("declared_flags", "closure"),
])
def test_misspelled_key_exits_two_naming_it(capsys, tmp_path, l1_path, where, key):
    doc = json.loads(pathlib.Path(l1_path).read_text())
    doc[where][key] = 1
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "solve", "verify-lemma"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {where}.{key}: unknown ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["f1", "l1"])
def test_order_limit_closure_false_exits_two(capsys, tmp_path, instance_dir, name):
    doc = json.loads((instance_dir / f"{name}.json").read_text())
    doc["declared_flags"]["order_limit_closure"] = False
    path = tmp_path / "not-closed.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "solve", "verify-lemma"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == ("error: declared_flags.order_limit_closure: must be true: "
                       "the order of every space kind is closed under limits\n")


@pytest.mark.parametrize("command", [
    ("chain", "--from", "0", "--to", "1", "--eps", "1e-9"), ("check",),
])
def test_hop_count_over_the_cap_exits_two(capsys, tmp_path, l1_path, command):
    # the float 1e-9 lies just above 10**-9, so [0, 1] needs 10**9 hops; no
    # waypoint is built
    doc = json.loads(pathlib.Path(l1_path).read_text())
    doc["parameters"]["epsilon"] = 1e-9
    path = tmp_path / "fine-epsilon.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == ("error: epsilon 1e-09 needs chains of 1000000000 hops, "
                   f"over the cap of {MAX_ITERATIONS}\n")


@pytest.mark.parametrize("name, edit, line", [
    ("l1", lambda d: d["space"].update(dimension=0),
     "space.dimension: must be at least 1, got 0"),
    ("f1", lambda d: d.update(map={"kind": "expression", "formula": "x"}),
     "map.kind: expression maps require a box space"),
    ("l1", lambda d: d["map"].update(formula=5),
     "map.formula: must be a string or a list of strings"),
    ("f1", lambda d: d["map"].update(kind="graph"),
     "map.kind: must be 'table' or 'expression', got 'graph'"),
    ("f1", lambda d: d.update(declared_flags=[]),
     "declared_flags: must be an object"),
    ("f1", lambda d: d["space"].update(points=[], distance_matrix=[],
                                       order_pairs=[]),
     "space.points: finite space needs at least one point"),
    ("l1", lambda d: d["space"].update(grid_step=0),
     "space.grid_step: must be positive, got 0.0"),
    ("l1", lambda d: d["parameters"].update(tolerance=-1),
     "parameters.tolerance: must be positive, got -1.0"),
    ("l1", lambda d: d["parameters"].update(max_iterations=MAX_ITERATIONS + 1),
     f"parameters.max_iterations: must lie in [1, {MAX_ITERATIONS}], "
     f"got {MAX_ITERATIONS + 1}"),
    ("l1", lambda d: d["parameters"].update(lambda_claimed=1),
     "parameters.lambda_claimed: must lie in (0, 1), got 1.0"),
], ids=["dimension-0", "expression-on-finite", "formula-5", "map-kind-graph",
        "flags-list", "no-points", "grid-step-0", "tolerance-negative",
        "iterations-over-cap", "lambda-1"])
def test_refusal_names_its_field(capsys, tmp_path, instance_dir, name, edit,
                                 line):
    doc = json.loads((instance_dir / f"{name}.json").read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_null_lambda_claim_is_no_claim(capsys, tmp_path, l1_path):
    doc = json.loads(pathlib.Path(l1_path).read_text())
    doc["parameters"]["lambda_claimed"] = None
    path = tmp_path / "null-claim.json"
    path.write_text(json.dumps(doc))
    assert load_instance(str(path)).params.lambda_claimed is None
    del doc["parameters"]["lambda_claimed"]
    path.write_text(json.dumps(doc))
    assert load_instance(str(path)).params.lambda_claimed is None


def test_emit_trace_refuses_an_unknown_format(l1_path):
    inst = load_instance(l1_path)
    cfg = pipeline.build_config(inst, pipeline.run_hypothesis_suite(inst))
    result = solver.picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
    with pytest.raises(DomainError) as exc:
        emit_trace(result, "xml")
    assert str(exc.value) == "unknown trace format 'xml'"


@pytest.mark.parametrize("edit, line", [
    (lambda d: d["space"]["distance_matrix"][0].__setitem__(1, 10**400),
     "space.distance_matrix: distance d[0][1] = 1" + "0" * 79
     + "... (401 characters) is not a finite float or an integer within 2**52"),
    (lambda d: d["map"]["table"][0].__setitem__(0, 2**70),
     "map.table: map table entry [0][0] = 1180591620717411303424 "
     "is not a point index"),
    (lambda d: d["map"]["table"][0].__setitem__(0, -2**63 - 1),
     "map.table: map table entry [0][0] = -9223372036854775809 "
     "is not a point index"),
], ids=["distance-10**400", "table-2**70", "table-below-int64"])
def test_unrepresentable_entry_exits_two_naming_it(capsys, tmp_path, f1_path, edit,
                                                   line):
    # integers no float64 or intp holds fail the whole-matrix read, and the
    # scan names the first of them
    doc = json.loads(pathlib.Path(f1_path).read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_verify_lemma_exits_one_on_a_certified_miss(capsys, monkeypatch,
                                                    chain4_path):
    # chain4 is certified and its first observed step is 8: a ceiling of 1
    # is missed, and a certified miss is a violation
    monkeypatch.setattr(solver, "decay_bound", lambda n, lam, eps, m: 1.0)
    code, out, _ = run(capsys, "verify-lemma", chain4_path, "--horizon", "3")
    doc = json.loads(out)
    assert code == 1
    assert (doc["advisory"], doc["all_below_bound"], doc["escaped_at"]) == (
        False, False, None)
    assert doc["rows"][0] == [0, 8, 1.0]


@pytest.mark.parametrize("command", ["solve", "verify-lemma"])
def test_certification_is_decided_once_per_call(capsys, monkeypatch, chain4_path,
                                                command):
    calls = []

    def spy(inst, suite, decide=pipeline.uncertified):
        calls.append(inst)
        return decide(inst, suite)

    monkeypatch.setattr(pipeline, "uncertified", spy)
    code, _, _ = run(capsys, command, chain4_path)
    assert (code, len(calls)) == (0, 1)
