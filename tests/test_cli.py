"""Exit codes, JSON shapes, and byte determinism of the command line."""

import json

import pytest

from chainfix.cli import run_cli


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

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_rejected(self, capsys, l1_path, tmp_path,
                                           constant):
        text = open(l1_path).read().replace('"epsilon": 0.3', f'"epsilon": {constant}')
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert f"non-finite number {constant} " in err


    def test_non_finite_result_exits_two_without_output(self, capsys, f1_path):
        # a NaN epsilon reaches the output document, which JSON cannot carry
        code, out, err = run(capsys, "chain", f1_path, "--from", "a", "--to", "a",
                             "--eps", "nan")
        assert code == 2
        assert out == ""
        assert "non-finite" in err


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


def test_gen_solve_pipeline(capsys, tmp_path):
    gen_path = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--seed", "0", "--size", "6",
                     "--out", str(gen_path))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(gen_path))
    doc = json.loads(out)
    assert doc["status"] == "converged"  # constant-map regime
    assert code == 0 if not doc["violated"] else 1
