import ast
import math
import os
import struct
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfix import expressions
from chainfix.errors import GrammarError, clipped_repr
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


def test_one_point_is_evaluated_without_numpy():
    # min, max and abs at a float point settle a Python scalar, so a fresh
    # process evaluates them without executing numpy, with the builtins' tie
    # rule: min(0.0, -0.0) is 0.0 and max(-0.0, 0.0) is -0.0
    code = (
        "import sys\n"
        "from chainfix.expressions import parse_expression\n"
        "expr = parse_expression('min(x, y) + max(y, x) * abs(-x)', dim=1)\n"
        "values = [expr.evaluate({'x': 0.0, 'y': -0.0}),\n"
        "          parse_expression('min(x, y)').evaluate({'x': 0.0, 'y': -0.0}),\n"
        "          parse_expression('max(y, x)').evaluate({'x': 0.0, 'y': -0.0}),\n"
        "          parse_expression('2').evaluate({})]\n"
        "print(repr(values), [m for m in sys.modules if m.startswith('numpy.')])\n"
    )
    src = os.path.dirname(os.path.dirname(expressions.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=20)
    assert proc.stdout == "[0.0, 0.0, -0.0, 2.0] []\n", proc.stderr


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


def test_depth_limit_is_the_same_from_any_caller(nested_formula):
    at_limit, past_limit = nested_formula(MAX_DEPTH), nested_formula(MAX_DEPTH + 1)
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


def _formula_strategy(leaves, templates=()):
    def grow(inner):
        branches = [
            st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
            inner.map(lambda a: "-" + a),
            inner.map(lambda a: f"({a})"),
            inner.map(lambda a: f"abs({a})"),
            inner.map(lambda a: f"{a}/2"),
            st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
                lambda t: f"{t[0]}({t[1]},{t[2]})"),
        ]
        if templates:
            # one branch for every template: hypothesis checks a recursion
            # that holds many branches slowly
            branches.append(st.tuples(st.sampled_from(templates), inner, inner).map(
                lambda t: t[0].format(t[1], t[2])))
        return st.one_of(*branches)

    return st.recursive(st.sampled_from(leaves), grow, max_leaves=40)


formulas = _formula_strategy(["x", "y", "0", "1.5"])
# formulas with bad names and other faults, and denominators that may read a
# name, hold a call, or be zero or NaN
rough_formulas = _formula_strategy(
    ["x", "y", "0", "1.5", "1e308*10", "-0.0", "q", "x1", "min"],
    ["{0}/({1})", "{0}/({1}-{1})", "{0}/0", "{0}/abs(2)", "{0}/min({1},2)",
     "min({0})", "exp({0})", "{0}**2"],
)


@given(formulas)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_tree_is_no_deeper_than_its_source_is_long(source):
    # and the walk's depth is the tree's: the formula is accepted with the
    # limit at its depth, and nests too deeply with the limit one lower
    depth = _depth(ast.parse(source, mode="eval").body)
    assert depth <= len(source)
    with mock.patch.object(expressions, "MAX_DEPTH", depth):
        parse_expression(source, dim=1)
    with mock.patch.object(expressions, "MAX_DEPTH", depth - 1):
        with pytest.raises(GrammarError, match="nests too deeply"):
            parse_expression(source, dim=1)


# The check as it was before it became one walk, kept as the reference that
# one walk must reproduce: a depth walk a level at a time, then a recursive
# validation that collects each denominator's names and evaluates it again.


def _reference_too_deep(root, limit):
    level = [root]
    for _ in range(limit):
        level = [
            child
            for node in level
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        if not level:
            return False
    return True


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _const_value(node):
    expr = ast.fix_missing_locations(ast.Expression(body=node))
    return eval(compile(expr, "<denominator>", "eval"), {"__builtins__": {}}, {})


def _validate(node, allowed, shown):
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
    ):
        _validate(node.left, allowed, shown)
        _validate(node.right, allowed, shown)
        if isinstance(node.op, ast.Div):
            if _names(node.right):
                raise GrammarError(
                    f"division denominator must be a constant in {shown}"
                )
            value = _const_value(node.right)
            if value == 0:
                raise GrammarError(f"division by zero constant in {shown}")
            if value != value:  # the one change of outcome: NaN is refused
                raise GrammarError(f"division by NaN constant in {shown}")
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        _validate(node.operand, allowed, shown)
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in ("min", "max", "abs")
            or node.keywords
        ):
            raise GrammarError(
                f"only plain min/max/abs calls are allowed in {shown}"
            )
        if node.func.id == "abs" and len(node.args) != 1:
            raise GrammarError(f"abs takes exactly one argument in {shown}")
        if node.func.id in ("min", "max") and len(node.args) < 2:
            raise GrammarError(
                f"{node.func.id} needs at least two arguments in {shown}"
            )
        for arg in node.args:
            _validate(arg, allowed, shown)
    elif isinstance(node, ast.Name):
        if node.id not in allowed:
            raise GrammarError(
                f"unknown variable {node.id!r} in {shown}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise GrammarError(f"non-numeric literal {node.value!r} in {shown}")
        try:
            value = float(node.value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise GrammarError(
                f"numeric literal outside float range in {shown}"
            )
        node.value = value
    else:
        raise GrammarError(
            f"disallowed syntax ({type(node).__name__}) in {shown}"
        )


def _reference_code(source, limit, dim=1):
    # the reference's parse_expression, returning the compiled code
    shown = clipped_repr(source)
    too_deep = GrammarError(
        f"expression of {len(source)} characters nests too deeply "
        f"(the limit is {limit} levels)"
    )
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise GrammarError(f"unparseable expression {shown}: {exc.msg}") from exc
    if len(source) > limit and _reference_too_deep(tree.body, limit):
        raise too_deep
    _validate(tree.body, set(variable_names(dim)), shown)
    return compile(tree, "<coupled-map>", "eval")


POINT = {"x": 0.25, "y": 0.5}


def _bits(value):
    return struct.pack("<d", value)


@given(rough_formulas, st.sampled_from([MAX_DEPTH, 5]))
@example("x/((1e308*10)-(1e308*10))", MAX_DEPTH)
@example("x/((1e308*10)-(1e308*10))+q", MAX_DEPTH)
@example("q/(1e308*1e308-1e308*1e308)", 5)
@example("x/abs(-2)", MAX_DEPTH)
@example("x/(2/0)", MAX_DEPTH)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_one_walk_matches_the_reference(source, limit):
    try:
        code = _reference_code(source, limit)
    except GrammarError as exc:
        expected = ("refused", str(exc))
    else:
        expected = ("accepted", _bits(eval(code, expressions._SCOPE, dict(POINT))))
    with mock.patch.object(expressions, "MAX_DEPTH", limit):
        try:
            expr = parse_expression(source, dim=1)
        except GrammarError as exc:
            got = ("refused", str(exc))
        else:
            got = ("accepted", _bits(expr.evaluate(dict(POINT))))
    assert got == expected


@pytest.mark.parametrize("source, message", [
    ("x/abs(-2)", "division denominator must be a constant in 'x/abs(-2)'"),
    ("x/min(2,3)", "division denominator must be a constant in 'x/min(2,3)'"),
    ("x/(1e-320*1e-10)", "division by zero constant in 'x/(1e-320*1e-10)'"),
    ("x/-0.0", "division by zero constant in 'x/-0.0'"),
    ("x/(2/0)", "division by zero constant in 'x/(2/0)'"),  # the inner zero
    ("q/0", "unknown variable 'q' in 'q/0'; allowed: x, y"),
])
def test_denominator_outcomes(source, message):
    # a call's callee counts as a name, an underflow to zero or a negative
    # zero is a zero, an inner denominator is decided before the outer one,
    # and a fault left of a division comes before the division's own
    assert _outcome(source) == ("refused", message)


def test_nan_denominator_is_refused_when_parsed():
    source = "x/((1e308*10)-(1e308*10))"  # inf - inf
    assert _outcome(source) == (
        "refused", f"division by NaN constant in {source!r}")
    # an infinite denominator is a constant like any other
    assert _outcome("x/(1e308*10)") == ("accepted", 0.0)


def _nested_divisions(divisions, terms, tail=""):
    """``x/(1+1/(1+1/(...)))`` with ``divisions`` divisions nested over a
    balanced sum of ``terms`` ones, then ``tail``."""
    def balanced(n):
        return "1" if n == 1 else f"({balanced(n // 2)}+{balanced(n - n // 2)})"

    return "x" + "/(1+1" * divisions + "/" + balanced(terms) + ")" * divisions + tail


def test_parse_cost_is_linear_in_the_formula_length():
    # each division's denominator holds nearly the whole formula, so a
    # check that passes over each denominator again costs divisions times
    # length; one walk costs the same for 90 divisions as for one
    many, one = _nested_divisions(90, 4100), _nested_divisions(1, 4250)
    assert abs(len(many) - len(one)) < 0.02 * len(one)
    for source in (many, one):
        assert _depth(ast.parse(source, mode="eval").body) <= MAX_DEPTH

    def seconds(source):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            parse_expression(source, dim=1)
            best = min(best, time.perf_counter() - start)
        return best

    assert seconds(many) < 3 * seconds(one)
