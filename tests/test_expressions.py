import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbbh.expressions import (
    FUNCTIONS,
    MAX_DEPTH,
    Binary,
    Call,
    ExpressionDomainError,
    ExpressionSyntaxError,
    Negate,
    Number,
    Variable,
    as_function,
    eval_expression,
    format_expression,
    parse_expression,
)
from pqbbh.operators import _sample
from oracles import walk_expression


def ev(text, t=0.0):
    return eval_expression(parse_expression(text), t)


class TestParsing:
    def test_metric(self):
        assert ev("t/(1+t)", 1.0) == 0.5

    def test_exp(self):
        assert ev("exp(-t)", 0.0) == 1.0

    def test_constant(self):
        assert ev("3.5", 17.0) == 3.5

    def test_damped_sine_at_zero(self):
        assert ev("sin(t)/(1+t)", 0.0) == 0.0

    def test_whitespace(self):
        assert ev("  1 +  2 * t ", 3.0) == 7.0

    @pytest.mark.parametrize(
        "text,want",
        [("1e3", 1000.0), ("2.5e-1", 0.25), (".5", 0.5), ("4.", 4.0), ("1E+2", 100.0)],
    )
    def test_number_literals(self, text, want):
        assert ev(text) == want

    def test_structure(self):
        ast = parse_expression("2*t+1")
        assert ast == Binary("+", Binary("*", Number(2.0), Variable()), Number(1.0))


class TestPrecedence:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("2^3^2", 512.0),  # right associative
            ("(2^3)^2", 64.0),
            ("-2^2", -4.0),  # power binds tighter than unary minus
            ("2^-3", 0.125),
            ("2+3*4", 14.0),
            ("2*3+4", 10.0),
            ("8/4/2", 1.0),
            ("2*3^2", 18.0),
            ("-(1+2)", -3.0),
            ("2--1", 3.0),  # binary minus, then a unary-minus factor
            ("--2", None),  # a factor takes at most one leading minus
        ],
    )
    def test_cases(self, text, want):
        if want is None:
            with pytest.raises(ExpressionSyntaxError):
                parse_expression(text)
        else:
            assert ev(text, 0.0) == want

    def test_power_in_term(self):
        assert ev("(1+t)^2", 2.0) == 9.0

    def test_unary_factor_inside_product(self):
        # term := factor ("*" factor)* admits a leading minus per factor
        assert ev("2*-3") == -6.0


class TestSyntaxErrors:
    def test_offset_reported(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("2**3")
        assert err.value.offset == 2

    def test_expected_tokens(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("2+")
        assert "NUMBER" in err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier 'foo'"):
            parse_expression("foo(t)")

    def test_call_needs_parens(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("exp t")
        assert "(" in err.value.expected

    def test_unbalanced(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(1+t")

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError, match="trailing"):
            parse_expression("1 2")

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("1 + $")
        assert err.value.offset == 4

    @pytest.mark.parametrize(
        "text,literal,offset", [("1e400*t", "1e400", 0), ("t+2e308", "2e308", 2)]
    )
    def test_literal_beyond_the_doubles(self, text, literal, offset):
        # it would print as "inf", which does not parse again
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert str(err.value) == f"number {literal!r} is out of range at offset {offset}"
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text,literal,offset", [("1/1e-400", "1e-400", 2), ("0.0001e-320+t", "0.0001e-320", 0)]
    )
    def test_literal_below_the_doubles(self, text, literal, offset):
        # it would read as 0.0, a zero the user never typed
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert str(err.value) == f"number {literal!r} is out of range at offset {offset}"
        assert err.value.offset == offset

    @pytest.mark.parametrize("text,value", [("1e-320", 1e-320), ("0e5", 0.0), ("0.000e-400", 0.0)])
    def test_subnormal_and_zero_literals_parse(self, text, value):
        ast = parse_expression(text)
        assert ast == Number(value)
        assert parse_expression(format_expression(ast)) == ast

    def test_largest_double_literal_parses(self):
        ast = parse_expression("1.7976931348623157e308*t")
        assert parse_expression(format_expression(ast)) == ast

    def test_too_deeply_nested(self):
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
            parse_expression("(" * 2000 + "t" + ")" * 2000)

    def test_long_flat_sum_is_bounded(self):
        # parses iteratively, but evaluating and printing recurse once per term
        with pytest.raises(ExpressionSyntaxError, match=r"nested too deeply \(5000 levels"):
            parse_expression("+".join(["t"] * 5000))

    def test_long_power_tower_is_bounded(self):
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
            parse_expression("^".join(["1"] * (MAX_DEPTH + 1)))

    def test_sum_at_the_bound_evaluates_and_prints(self):
        ast = parse_expression("+".join(["t"] * MAX_DEPTH))
        assert eval_expression(ast, 0.5) == MAX_DEPTH * 0.5
        assert parse_expression(format_expression(ast)) == ast


class TestDomainErrors:
    def test_log_names_node_and_t(self):
        with pytest.raises(ExpressionDomainError, match=r"log\(t\).*t=0.0"):
            ev("log(t)", 0.0)

    def test_division_by_zero(self):
        with pytest.raises(ExpressionDomainError, match="division by zero"):
            ev("1/t", 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExpressionDomainError):
            ev("sqrt(t-1)", 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExpressionDomainError):
            ev("(t-2)^0.5", 0.0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(ExpressionDomainError):
            ev("exp(t)", 1000.0)

    def test_non_finite_t_rejected(self):
        with pytest.raises(ExpressionDomainError):
            ev("t", math.inf)


class TestCallerT:
    """t may be any finite real number; the arithmetic runs on float(t)."""

    @pytest.mark.parametrize("t", [2, np.float64(2.0)], ids=["int", "float64"])
    def test_refusal_shows_t_as_passed(self, t):
        f = as_function(parse_expression("log(t-3)"))
        want = f"log of -1.0 is undefined in 'log(t-3.0)' at t={t!r}"
        with pytest.raises(ExpressionDomainError) as at_t:
            f(t)
        assert str(at_t.value) == want
        with pytest.raises(ExpressionDomainError) as at_list:
            f.at_points([4.0, t])
        assert str(at_list.value) == want

    @pytest.mark.parametrize("t", [2, np.float64(2.0)], ids=["int", "float64"])
    @pytest.mark.parametrize("text", ["2*3", "t"])
    def test_one_t_gives_a_float(self, text, t):
        assert type(as_function(parse_expression(text))(t)) is float


def _random_ast(rng, depth):
    if depth == 0:
        return rng.choice([Number(round(rng.uniform(0, 9), 2)), Variable()])
    kind = rng.randrange(4)
    if kind == 0:
        return Negate(_random_ast(rng, depth - 1))
    if kind == 1:
        return Call(rng.choice(["exp", "sin", "cos", "abs"]), _random_ast(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return Binary(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "t/(1+t)",
            "2^3^2",
            "(2^3)^2",
            "-t^2",
            "(-t)^2",
            "1+-2",
            "t*-2",
            "exp(-t)*sin(t)/(1+t^2)",
            "sqrt(abs(t-3))",
            "1.5e-2*t",
        ],
    )
    def test_parsed_text_round_trips(self, text):
        ast = parse_expression(text)
        assert parse_expression(format_expression(ast)) == ast

    def test_random_asts_round_trip(self):
        rng = random.Random(2718)
        for _ in range(300):
            ast = _random_ast(rng, rng.randint(1, 5))
            assert parse_expression(format_expression(ast)) == ast

    def test_as_function(self):
        f = as_function(parse_expression("t^2+1"))
        assert f(3.0) == 10.0


# -- the compiled tree, at one t and over lists, against the tree walk ---------

literals = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -8.0, 710.0, 1e308, 5e-324]),
    st.floats(),
)


def expression_trees(depth):
    """ASTs at most ``depth`` + 1 levels deep over every operator and function."""
    leaf = st.one_of(st.builds(Number, literals), st.just(Variable()))
    if depth == 0:
        return leaf
    child = expression_trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Negate, child),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), child),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), child, child),
    )


def outcome(f, t):
    """("value", hex of the double) or (error type, message)."""
    try:
        value = f(t)
    except Exception as exc:  # noqa: BLE001 -- any error must match the walk's
        return type(exc), str(exc)
    return "value", type(value), float.hex(value)


def outcomes(f, ts):
    """("values", type and hex of each double) or (error type, message) of f(ts)."""
    try:
        values = f(ts)
    except Exception as exc:  # noqa: BLE001 -- any error must match the walk's
        return type(exc), str(exc)
    return "values", [(type(v), float.hex(v)) for v in values]


THIRD = Binary("/", Number(1.0), Number(3.0))
points = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -8.0, 1000.0]), st.floats())


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ast=expression_trees(7), t=points, others=st.lists(points, max_size=4))
@example(ast=Call("log", Negate(Variable())), t=1.0, others=[])
@example(ast=Call("sqrt", Binary("-", Variable(), Number(1.0))), t=0.0, others=[])
@example(ast=Binary("/", Number(1.0), Binary("-", Variable(), Variable())), t=2.0, others=[])
@example(ast=Binary("^", Number(-8.0), THIRD), t=0.0, others=[])
@example(ast=Binary("^", Variable(), THIRD), t=-8.0, others=[])
@example(ast=Call("exp", Variable()), t=1000.0, others=[])
@example(ast=Binary("*", Variable(), Number(1e308)), t=10.0, others=[])
@example(ast=Variable(), t=math.inf, others=[])
@example(ast=Variable(), t=-math.inf, others=[])
@example(ast=Variable(), t=math.nan, others=[])
# a list that fails at its middle point, after a point that passes
@example(ast=Call("log", Variable()), t=-1.0, others=[1.0, 2.0])
@example(ast=Binary("/", Number(1.0), Binary("-", Variable(), Number(2.0))), t=2.0,
         others=[1.0, 3.0])
@example(ast=Binary("+", Number(1.0), Call("exp", Variable())), t=710.0, others=[1.0, 2.0])
@example(ast=Binary("*", Number(2.0), Variable()), t=math.nan, others=[1.0, math.inf])
# finite values whose sum overflows, which the list keeps
@example(ast=Binary("*", Variable(), Number(1e308)), t=1.5, others=[1.0, 1.0])
# constants only, and a constant that fails at every point
@example(ast=Binary("*", Number(2.0), Number(3.0)), t=1.0, others=[2.0])
@example(ast=Call("exp", Number(1000.0)), t=1.0, others=[2.0])
def test_compiled_expressions_match_the_tree_walk(ast, t, others):
    want = outcome(lambda t: walk_expression(ast, t), t)
    f = as_function(ast)
    assert outcome(f, t) == want
    assert outcome(lambda t: eval_expression(ast, t), t) == want
    # at_points over a list with t in the middle: the values, or the walk's first
    # refusal in point order
    ts = others[: len(others) // 2] + [t] + others[len(others) // 2:]
    assert outcomes(f.at_points, ts) == outcomes(
        lambda ts: [walk_expression(ast, t) for t in ts], ts)


# -- the compiled tree on a float64 array, against the list of its points -----

def sampled(f, ts):
    """("values", hex of each double) or (error type, message) of operators._sample."""
    try:
        values = _sample(f, ts, "node")
    except Exception as exc:  # noqa: BLE001 -- the array must raise what the list raises
        return type(exc), str(exc)
    values = values.tolist() if isinstance(values, np.ndarray) else values
    return "values", list(map(float.hex, values))


finite_points = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 2.0, 3.0, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ast=expression_trees(7), ts=st.lists(finite_points, min_size=1, max_size=6))
@example(ast=Binary("^", Number(2.0), Number(3.0)), ts=[1.0, 2.0])
@example(ast=Binary("^", Variable(), Number(0.5)), ts=[1.0, -0.5, 2.0])  # invalid
@example(ast=Binary("^", Variable(), Number(-1.0)), ts=[1.0, 0.0, -0.0])  # divide
@example(ast=Binary("^", Variable(), Number(2.0)), ts=[1.0, 1e200, 1e-200])  # over and under
# (t/(1+t))^2 at 9.707462555075702: C's pow is one ulp below u*u, numpy's power gives u*u
@example(ast=Binary("^", Binary("/", Variable(), Binary("+", Number(1.0), Variable())),
                    Number(2.0)), ts=[9.707462555075702])
@example(ast=Negate(Variable()), ts=[0.0, -0.0, 1.0])
def test_array_form_matches_the_list(ast, ts):
    f = as_function(ast)
    array = np.array(ts)
    assert sampled(f, array) == sampled(f, ts)
    try:
        values = f.at_points(array)
    except Exception:  # noqa: BLE001 -- a raise leaves the refusal to the list
        return
    assert type(values) is np.ndarray and values.dtype == float and values.shape == array.shape
    assert values is not array


@pytest.mark.parametrize("text, ts", [
    ("1/(t*1e300*1e300)", [0.5, 1.0, 2.0]),  # t*1e300*1e300 is inf, 1/inf would read 0.0
    ("1/(1/(t-t))", [0.5, 1.0]),  # 1/(t-t) is inf, 1/inf would read 0.0
    ("1/(t-1)", [0.5, 1.0, 2.0]),
    ("log(t)", [1.0, 0.0, 2.0]),
    ("sqrt(t-3)", [4.0, 5.0, 2.0]),
    ("exp(1000*t)", [0.0, 0.5, 1.0]),
    ("(-2)^t", [1.0, 2.0, 0.5]),
    ("(t-3)^0.5", [4.0, 2.0]),
    ("(0*t)^-1", [0.5, 1.0]),
    ("(t*1e200)^2", [0.0, 1e-200, 1.0]),
], ids=["masked-overflow", "masked-division", "division-by-zero", "log-of-zero",
        "sqrt-of-negative", "exp-overflow", "negative-base", "negative-base-node",
        "zero-to-negative-power", "power-overflow"])
def test_array_refusal_is_the_lists(text, ts):
    f = as_function(parse_expression(text))
    want = sampled(f, ts)
    assert want[0] is ExpressionDomainError
    assert sampled(f, np.array(ts)) == want
    with pytest.raises((ArithmeticError, ValueError)) as info:  # it raises, not falls back
        f.at_points(np.array(ts))
    assert "float64" not in str(info.value)
