"""Tiny arithmetic expression language over the single variable t.

Grammar (EBNF):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-"? power
    power  := atom ("^" factor)?
    atom   := NUMBER | "t" | "(" expr ")" | IDENT "(" expr ")"
    IDENT  := "exp" | "log" | "sin" | "cos" | "sqrt" | "abs"

"^" is right associative and binds tighter than unary minus; NUMBER is a
decimal literal with an optional exponent that must round to a finite
double, and to a nonzero one unless its digits before the exponent are all
zero (so 0e5 and the subnormal 1e-320 parse, 1e-400 does not).  A parsed
tree may be at most MAX_DEPTH nodes deep (a sum of k terms is k deep), so
that compiling, evaluating and printing it, which recurse once per level,
stay far inside Python's recursion limit.
"""

from __future__ import annotations

import math
import operator
import re
from math import isfinite
from typing import Callable, Union

from ._record import Record, _set
from .functions import _pointwise
from .pq_core import DomainError

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
}


MAX_DEPTH = 200


class ExpressionError(ValueError):
    """Base for problems with user-supplied expressions."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{suffix}")


class ExpressionDomainError(DomainError):
    """Evaluation left the reals; names the offending node and the value of t."""


class Number(Record):
    __slots__ = _fields = ("value",)
    value: float

    def __init__(self, value: float) -> None:
        _set(self, "value", value)


class Variable(Record):
    __slots__ = ()


class Negate(Record):
    __slots__ = _fields = ("operand",)
    operand: ExprAst

    def __init__(self, operand: ExprAst) -> None:
        _set(self, "operand", operand)


class Binary(Record):
    __slots__ = _fields = ("op", "left", "right")
    op: str
    left: ExprAst
    right: ExprAst

    def __init__(self, op: str, left: ExprAst, right: ExprAst) -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(Record):
    __slots__ = _fields = ("func", "arg")
    func: str
    arg: ExprAst

    def __init__(self, func: str, arg: ExprAst) -> None:
        _set(self, "func", func)
        _set(self, "arg", arg)


ExprAst = Union[Number, Variable, Negate, Binary, Call]

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_NONZERO_MANTISSA = re.compile(r"[^eE]*[1-9]")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> str | None:
        """Takes the next token if it is one of the operator characters ops, returning it."""
        kind, text, _ = self.tokens[self.pos]
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept(op):
            _, text, offset = self.peek()
            raise ExpressionSyntaxError(f"unexpected {text or 'end of input'!r}", offset, (op,))

    def expr(self) -> ExprAst:
        node = self.term()
        while op := self.accept("+-"):
            node = Binary(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while op := self.accept("*/"):
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> ExprAst:
        if self.accept("-"):
            return Negate(self.power())
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        if self.accept("^"):
            return Binary("^", node, self.factor())
        return node

    def atom(self) -> ExprAst:
        if self.accept("("):
            node = self.expr()
            self.expect_op(")")
            return node
        kind, text, offset = self.take()
        if kind == "num":
            value = float(text)
            # inf would print as an identifier and fail only when evaluated;
            # a nonzero literal read as 0.0 would be a zero the user never typed
            if not isfinite(value) or (value == 0.0 and _NONZERO_MANTISSA.match(text)):
                raise ExpressionSyntaxError(f"number {text!r} is out of range", offset)
            return Number(value)
        if kind == "ident":
            if text == "t":
                return Variable()
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", offset)
        raise ExpressionSyntaxError(
            f"unexpected {text or 'end of input'!r}",
            offset,
            ("NUMBER", "t", "(", "function name"),
        )


def parse_expression(text: str) -> ExprAst:
    """Parse expression text into an AST.

    Raises:
        ExpressionSyntaxError: on malformed or too deeply nested input, or a
            number beyond the doubles, with the byte offset and the tokens
            that would have been accepted there.
    """
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0, ("NUMBER", "t", "(", "function name"))
    parser = _Parser(_tokenize(text))
    try:
        node = parser.expr()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", parser.peek()[2]) from None
    kind, trailing, offset = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing {trailing!r}", offset)
    depth = _depth(node)
    if depth > MAX_DEPTH:
        raise ExpressionSyntaxError(
            f"expression nested too deeply ({depth} levels, at most {MAX_DEPTH})", 0
        )
    return node


def _depth(ast: ExprAst) -> int:
    """Number of nodes on the longest root-to-leaf path, found without recursion."""
    deepest = 0
    stack = [(ast, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Binary):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, Negate):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, depth + 1))
    return deepest


def eval_expression(ast: ExprAst, t: float) -> float:
    """Evaluate the AST at t, raising where the arithmetic leaves the reals."""
    return as_function(ast)(t)


# Printer precedence levels; a child is parenthesized when its level is too
# low for the slot it appears in, which makes format -> parse structurally
# lossless.
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _level(node: ExprAst) -> int:
    if isinstance(node, Binary):
        if node.op in "+-":
            return _LEVEL_ADD
        if node.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Negate):
        return _LEVEL_NEG
    if isinstance(node, Number) and node.value < 0:
        # the grammar cannot produce negative literals; print them like a negation
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _render(node: ExprAst, min_level: int) -> str:
    level = _level(node)
    if isinstance(node, Number):
        text = repr(node.value)
    elif isinstance(node, Variable):
        text = "t"
    elif isinstance(node, Negate):
        text = "-" + _render(node.operand, _LEVEL_POW)
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, _LEVEL_ADD)})"
    else:
        if node.op == "^":
            # right associative: only atoms may stand unparenthesized on the left
            text = _render(node.left, _LEVEL_ATOM) + "^" + _render(node.right, _LEVEL_NEG)
        else:
            text = (
                _render(node.left, level)
                + node.op
                + _render(node.right, level + 1)
            )
    if level < min_level:
        return f"({text})"
    return text


def format_expression(ast: ExprAst) -> str:
    """Render the AST back to text; re-parsing yields a structurally equal tree."""
    return _render(ast, _LEVEL_ADD)


def as_function(ast: ExprAst) -> Callable[[float], float]:
    """Compile the AST into a plain callable of t, so that sampling never walks the tree.

    The callable takes the tree walk's float operations in its order, with
    its checks and messages: t must be finite, every intermediate value must
    be finite, a divisor must not be zero, and a function or power that
    leaves the reals names its node.  A message shows t as the caller
    passed it; the arithmetic runs on float(t).

    Its attribute ``at_points(ts)`` gives f at every point with the same
    bits.  On a float64 array it runs the compiled tree once over all of
    them (see _compile) and gives a new array of its shape; where any
    point's value at any node is not finite it raises instead, with no
    message to show: the list of the array's points names the refusal (see
    operators._sample).  On a list or tuple it gives [f(t) for t in ts],
    which raises the first refusal in point order.
    """
    body = _compile(ast)

    def f(t):
        if not isfinite(t):
            raise ExpressionDomainError(f"t must be finite, got {t!r}")
        try:
            return body(float(t))
        except _Refusal as refusal:
            node, why = refusal.args
            raise ExpressionDomainError(
                f"{why} in '{format_expression(node)}' at t={t!r}"
            ) from None

    def at_points(ts):
        if hasattr(ts, "ndim"):
            return _on_array(body, ts)
        return list(map(f, ts))

    f.at_points = at_points
    return f


def _on_array(body, ts):
    """body on the float64 array ts, as a new array; raises where a value is not finite.

    A node of + - * /, sqrt or ^ meets inf or nan only where numpy raises
    one of these flags, and a node that maps math raises itself.
    """
    import numpy as np

    ts = np.asarray(ts, dtype=float)
    if not np.isfinite(ts).all():
        raise ArithmeticError("t must be finite")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return np.full(ts.shape, body(ts))  # a copy also where body gives ts or one float


class _Refusal(Exception):
    """A node's value left the reals at one t; args are the node and the reason."""


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": math.pow}


def _compile(node: ExprAst) -> Callable:
    """One function per node, of a float t or a float64 array: children first.

    Each point gets the tree walk's operations, left child before right.  A
    subtree without t gives one float.  On one float, a call or binary node
    checks its result and raises _Refusal with its reason.

    On an array, numpy takes + - * /, negation, sqrt and abs, which it
    rounds as Python floats do, and ^ through np.float_power, whose float64
    loop calls the C library's pow as math.pow does (np.power need not).
    Each raises on a value that is not finite under _on_array's
    np.errstate: where math.pow raises ValueError, numpy raises under
    invalid or divide, and where it raises OverflowError, under over.
    exp, log, sin and cos map the math function over the points
    (functions._pointwise), which raises itself.
    """
    if isinstance(node, Number):
        value = float(node.value)  # so that type() tells one point from an array
        return lambda ts: value
    if isinstance(node, Variable):
        return lambda ts: ts
    if isinstance(node, Negate):
        operand = _compile(node.operand)
        return lambda ts: -operand(ts)
    if isinstance(node, Call):
        arg_of, func, name = _compile(node.arg), FUNCTIONS[node.func], node.func

        def call(ts):
            arg = arg_of(ts)
            if type(arg) is float:
                try:
                    value = func(arg)
                except (ValueError, OverflowError):
                    raise _Refusal(node, f"{name} of {arg!r} is undefined") from None
                if isfinite(value):
                    return value
                raise _Refusal(node, "non-finite result")
            if name == "sqrt":  # a float64 array from here on
                import numpy as np

                return np.sqrt(arg)
            return abs(arg) if func is abs else _pointwise(func, arg)

        return call
    left, right, combine = _compile(node.left), _compile(node.right), _BINARY[node.op]

    def binary(ts):
        a, b = left(ts), right(ts)
        if type(a) is float and type(b) is float:
            try:
                value = combine(a, b)
            except ZeroDivisionError:
                raise _Refusal(node, "division by zero") from None
            except (ValueError, OverflowError):  # only math.pow raises these on floats
                raise _Refusal(node, f"{a!r} ^ {b!r} is undefined") from None
            if isfinite(value):
                return value
            raise _Refusal(node, "non-finite result")
        if combine is not math.pow:  # one is a float64 array
            return combine(a, b)
        import numpy as np

        return np.float_power(a, b)

    return binary
