"""Exit codes, JSON shapes, and byte determinism of the command line."""

import json

import pytest

from chainfix.cli import run_cli
from chainfix.instances import MAX_ITERATIONS

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


    def test_map_escaping_off_the_load_check_exits_two(self, capsys, tmp_path):
        # the load check tries only the first 200 grid points, so the escape
        # near y = 1 surfaces when the checks tabulate F over the sample
        doc = {
            "schema_version": 1,
            "space": {"kind": "box", "dimension": 1, "lower": [0],
                      "upper": [1], "grid_step": 0.004},
            "map": {"kind": "expression", "formula": "max(0, 100*y - 98.9)"},
            "seeds": {"x0": 0, "y0": 0},
            "parameters": {"epsilon": 0.01},
        }
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "escapes the box" in err
        assert "Traceback" not in err

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
        (f"{10**200} * {10**200} * x", "map leaves the box: map value (nan,) "),
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
        assert doc["bound"]["advisory"] is True
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

    def test_l1_advisory(self, capsys, l1_path):
        code, out, _ = run(capsys, "verify-lemma", l1_path, "--horizon", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["advisory"] is True
        assert doc["all_below_bound"] is True
        assert doc["escaped_at"] is None

    def test_escape_stops_the_rows(self, capsys, escape_path):
        code, out, err = run(capsys, "verify-lemma", escape_path)
        assert (code, err) == (1, "")
        doc = strict_json(out)
        assert doc["escaped_at"] == 1
        assert doc["rows"] == [[0, 1.0, 1.2]]
        assert doc["final_observed"] == 1.0


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
