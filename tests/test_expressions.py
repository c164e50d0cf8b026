import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfix.errors import GrammarError
from chainfix.expressions import MAX_DEPTH, parse_expression, variable_names


def test_variable_names_one_dim():
    assert variable_names(1) == ("x", "y")


def test_variable_names_multi_dim():
    assert variable_names(2) == ("x1", "x2", "y1", "y2")


def test_arithmetic_evaluation():
    expr = parse_expression("(2*x - y + 3)/8", dim=1)
    assert expr.evaluate({"x": 0.0, "y": 1.0}) == 0.25
    assert expr.evaluate({"x": 1.0, "y": 0.0}) == 0.625


def test_min_max_abs():
    expr = parse_expression("min(x, y) + max(x, y) - abs(x - y)", dim=1)
    # min+max-|diff| = 2*min
    assert expr.evaluate({"x": 0.75, "y": 0.25}) == 0.5


def test_unary_minus():
    expr = parse_expression("-x + 1", dim=1)
    assert expr.evaluate({"x": 0.25, "y": 0.0}) == 0.75


def test_rejects_power_operator():
    # grammar stops at +, -, *, constant division, abs/min/max
    with pytest.raises(GrammarError):
        parse_expression("x**2", dim=1)


def test_multi_dim_variables():
    expr = parse_expression("(x1 + y2)/2", dim=2)
    assert expr.evaluate({"x1": 1.0, "x2": 9.0, "y1": 9.0, "y2": 0.5}) == 0.75


def test_rejects_unknown_variable():
    with pytest.raises(GrammarError):
        parse_expression("x + z", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("x1 + y3", dim=2)


def test_rejects_calls_outside_whitelist():
    with pytest.raises(GrammarError):
        parse_expression("__import__('os')", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("exp(x)", dim=1)


def test_rejects_attribute_access_and_subscripts():
    with pytest.raises(GrammarError):
        parse_expression("x.real", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("x[0]", dim=1)


def test_rejects_statements_and_comparisons():
    with pytest.raises(GrammarError):
        parse_expression("x if y else 0", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("x < y", dim=1)


def test_division_requires_constant_denominator():
    parse_expression("x/4", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("x/y", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("1/(x + 1)", dim=1)


def test_division_rejects_zero_denominator():
    with pytest.raises(GrammarError):
        parse_expression("x/0", dim=1)
    with pytest.raises(GrammarError):
        parse_expression("x/(2 - 2)", dim=1)


def test_constant_denominator_may_be_composite():
    expr = parse_expression("x/(2*4)", dim=1)
    assert expr.evaluate({"x": 2.0, "y": 0.0}) == 0.25


def test_abs_arity_checked():
    with pytest.raises(GrammarError):
        parse_expression("abs(x, y)", dim=1)


def test_min_needs_two_arguments():
    with pytest.raises(GrammarError):
        parse_expression("min(x)", dim=1)


def test_literals_are_floats_within_float_range():
    # an integer literal past 2**53 is rounded once, not multiplied exactly
    expr = parse_expression(f"{2**53 + 1} * x - {2**53} * x", dim=1)
    assert expr.evaluate({"x": 1.0, "y": 0.0}) == 0.0
    for source in ("1e400*x", f"x/{10**400}", f"{10**309} + x"):
        with pytest.raises(GrammarError, match="outside float range"):
            parse_expression(source, dim=1)


@pytest.mark.parametrize("source", [
    "x" + "+0" * 50000,
    "-" * 50000 + "x",  # past the parser's own depth limit
    "x/(1" + "+0" * 50000 + ")",
], ids=["sum", "unary-minus", "denominator"])
def test_formula_nested_too_deeply_is_a_grammar_error(source):
    with pytest.raises(GrammarError, match="nests too deeply") as info:
        parse_expression(source, dim=1)
    assert info.value.field == "formula"


def _deeper(frames, fn):
    """fn() called from ``frames`` more frames down the stack."""
    return fn() if frames == 0 else _deeper(frames - 1, fn)


def _outcome(source):
    try:
        expr = parse_expression(source, dim=1)
    except GrammarError as exc:
        return "refused", str(exc)
    return "accepted", expr.evaluate({"x": 0.25, "y": 0.5})


# a formula of each depth: "x" after N "+0", or after N minus signs, has
# depth N + 1, each "-min(" adds two levels, and "x/(...)" one level above
# its constant denominator
@pytest.mark.parametrize("build", [
    lambda depth: "x" + "+0" * (depth - 1),
    lambda depth: "-" * (depth - 1) + "x",
    lambda depth: "-" * ((depth - 1) % 2) + "-min(" * ((depth - 1) // 2) + "x"
    + ", y)" * ((depth - 1) // 2),
    lambda depth: "x/(1" + "+0" * (depth - 2) + ")",
], ids=["sum", "unary-minus", "nested-min", "denominator"])
def test_depth_limit_is_the_same_from_any_caller(build):
    at_limit, past_limit = build(MAX_DEPTH), build(MAX_DEPTH + 1)
    for frames in (0, 500):
        assert _deeper(frames, lambda: _outcome(at_limit))[0] == "accepted"
        assert _deeper(frames, lambda: _outcome(past_limit)) == (
            "refused",
            f"expression of {len(past_limit)} characters nests too deeply "
            f"(the limit is {MAX_DEPTH} levels)",
        )


def _depth(node):
    return 1 + max(
        (_depth(c) for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)),
        default=0,
    )


formulas = st.recursive(
    st.sampled_from(["x", "y", "0", "1.5"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        inner.map(lambda a: "-" + a),
        inner.map(lambda a: f"({a})"),
        inner.map(lambda a: f"abs({a})"),
        inner.map(lambda a: f"{a}/2"),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]},{t[2]})"),
    ),
    max_leaves=40,
)


@given(formulas)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_tree_is_no_deeper_than_its_source_is_long(source):
    # why a source of at most MAX_DEPTH characters skips the depth walk
    assert _depth(ast.parse(source, mode="eval").body) <= len(source)
    parse_expression(source, dim=1)
