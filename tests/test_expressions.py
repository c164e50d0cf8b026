import pytest

from chainfix.errors import GrammarError
from chainfix.expressions import parse_expression, variable_names


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
