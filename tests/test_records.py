"""Value semantics of the package's frozen records.

Every public record, and every node of the expression tree, is an
immutable value: a repr that names each field, equality and hashing over
the field values within one class, no assignment or deletion, defaults and
validation messages of its own, and pickle and copy round-trips.
"""

import copy
import math
import pickle

import pytest

from pqbbh import (
    ConvergenceReport,
    ConvergenceRow,
    GridSpec,
    HarmonicSchedule,
    LipschitzClass,
    NodeTable,
    OperatorSpec,
    PointSet,
    PqParams,
    RatePoint,
    StancuBoundReport,
    StancuShift,
    WeightTable,
)
from pqbbh.expressions import Binary, Call, Negate, Number, Variable

ROW = dict(n=4, p=0.9375, q=0.875, disc0=0.1, disc1=0.2, disc2=0.3, sup_delta=0.4)
ROW_TEXT = "ConvergenceRow(n=4, p=0.9375, q=0.875, disc0=0.1, disc1=0.2, disc2=0.3, sup_delta=0.4)"

# id: (a factory of equal, distinct instances, the repr, the fields in order)
RECORDS = {
    "PqParams": (lambda: PqParams(0.9, 0.8), "PqParams(p=0.9, q=0.8)", dict(p=0.9, q=0.8)),
    "StancuShift": (lambda: StancuShift(0.5), "StancuShift(gamma=0.5, beta=0.0)",
                    dict(gamma=0.5, beta=0.0)),
    "OperatorSpec": (
        lambda: OperatorSpec(8, PqParams(0.9, 0.8)),
        "OperatorSpec(n=8, params=PqParams(p=0.9, q=0.8), stancu=None)",
        dict(n=8, params=PqParams(0.9, 0.8), stancu=None),
    ),
    "OperatorSpec stancu": (
        lambda: OperatorSpec(3, PqParams(1.0, 1.0), StancuShift(-0.5, 2.0)),
        "OperatorSpec(n=3, params=PqParams(p=1.0, q=1.0), "
        "stancu=StancuShift(gamma=-0.5, beta=2.0))",
        dict(n=3, params=PqParams(1.0, 1.0), stancu=StancuShift(-0.5, 2.0)),
    ),
    "NodeTable": (lambda: NodeTable((0.0, 1.5)), "NodeTable(values=(0.0, 1.5), negative=())",
                  dict(values=(0.0, 1.5), negative=())),
    "NodeTable negative": (lambda: NodeTable((-0.25, 1.0), (0,)),
                           "NodeTable(values=(-0.25, 1.0), negative=(0,))",
                           dict(values=(-0.25, 1.0), negative=(0,))),
    "WeightTable": (lambda: WeightTable(1.5, (0.25, 0.75)),
                    "WeightTable(x=1.5, weights=(0.25, 0.75))", dict(x=1.5, weights=(0.25, 0.75))),
    "Number": (lambda: Number(2.0), "Number(value=2.0)", dict(value=2.0)),
    "Variable": (Variable, "Variable()", dict()),
    "Negate": (lambda: Negate(Variable()), "Negate(operand=Variable())",
               dict(operand=Variable())),
    "Binary": (lambda: Binary("+", Number(1.0), Variable()),
               "Binary(op='+', left=Number(value=1.0), right=Variable())",
               dict(op="+", left=Number(1.0), right=Variable())),
    "Call": (lambda: Call("exp", Negate(Number(0.5))),
             "Call(func='exp', arg=Negate(operand=Number(value=0.5)))",
             dict(func="exp", arg=Negate(Number(0.5)))),
    "HarmonicSchedule": (lambda: HarmonicSchedule(0.25, 0.5), "HarmonicSchedule(a=0.25, b=0.5)",
                         dict(a=0.25, b=0.5)),
    "GridSpec": (lambda: GridSpec((0.0, 1.0, 2.5)), "GridSpec(xs=(0.0, 1.0, 2.5))",
                 dict(xs=(0.0, 1.0, 2.5))),
    "PointSet": (lambda: PointSet(((2.0, 3.0), (0.0, 1.0), (0.5, 1.5))),
                 "PointSet(intervals=((0.0, 1.5), (2.0, 3.0)))",
                 dict(intervals=((0.0, 1.5), (2.0, 3.0)))),
    "PointSet half line": (PointSet.nonneg_reals, "PointSet(intervals=((0.0, inf),))",
                           dict(intervals=((0.0, math.inf),))),
    "LipschitzClass": (lambda: LipschitzClass(1.0, 0.5, PointSet.points([1.0])),
                       "LipschitzClass(M=1.0, alpha=0.5, E=PointSet(intervals=((1.0, 1.0),)))",
                       dict(M=1.0, alpha=0.5, E=PointSet(((1.0, 1.0),)))),
    "RatePoint": (lambda: RatePoint(0.5, 0.125, 0.25, True),
                  "RatePoint(x=0.5, lhs=0.125, rhs=0.25, passed=True)",
                  dict(x=0.5, lhs=0.125, rhs=0.25, passed=True)),
    "ConvergenceRow": (lambda: ConvergenceRow(**ROW), ROW_TEXT, ROW),
    "ConvergenceReport": (lambda: ConvergenceReport((ConvergenceRow(**ROW),)),
                          f"ConvergenceReport(rows=({ROW_TEXT},))",
                          dict(rows=(ConvergenceRow(**ROW),))),
    "StancuBoundReport": (
        lambda: StancuBoundReport((0.5, 0.25, -0.125), 0.5, 3.0, False),
        "StancuBoundReport(terms=(0.5, 0.25, -0.125), max_term=0.5, bound=3.0, degenerate=False)",
        dict(terms=(0.5, 0.25, -0.125), max_term=0.5, bound=3.0, degenerate=False),
    ),
}
CASES = pytest.mark.parametrize("make, text, fields", list(RECORDS.values()), ids=list(RECORDS))


@CASES
def test_repr_names_every_field(make, text, fields):
    assert repr(make()) == text


@CASES
def test_equal_values_are_equal_and_hash_as_their_tuple(make, text, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1


@CASES
def test_equality_holds_only_within_one_class(make, text, fields):
    a = make()
    assert a != tuple(fields.values())
    for other_make, other_text, _ in RECORDS.values():
        if other_text != text:
            assert a != other_make() and other_make() != a
    assert type(a)(**fields) == a
    sub = type(f"Sub{type(a).__name__}", (type(a),), {})(**fields)
    assert sub != a and a != sub


@CASES
def test_assignment_and_deletion_raise(make, text, fields):
    a = make()
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert repr(a) == text


@CASES
def test_pickle_and_copy_round_trips(make, text, fields):
    a = make()
    clones = [pickle.loads(pickle.dumps(a, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(a), copy.deepcopy(a)]
    for clone in clones:
        assert type(clone) is type(a)
        assert clone == a
        assert repr(clone) == text


def test_defaults():
    assert StancuShift(0.5).beta == 0.0
    assert OperatorSpec(2, PqParams(1.0, 1.0)).stancu is None
    assert NodeTable((1.0,)).negative == ()
    assert StancuShift(gamma=0.5, beta=1.0) == StancuShift(0.5, 1.0)
    assert PqParams(q=0.5, p=0.75) == PqParams(0.75, 0.5)


def test_operator_spec_caches_its_integer_table():
    spec = OperatorSpec(4, PqParams(0.9, 0.8))
    ints = spec._ints
    assert spec._ints is ints and len(ints) == 6
    assert copy.copy(spec) == spec and copy.deepcopy(spec)._ints == ints
    assert pickle.loads(pickle.dumps(spec))._ints == ints


E = PointSet.nonneg_reals()
REFUSALS = [
    (lambda: PqParams(math.nan, 0.5), "p and q must be finite"),
    (lambda: PqParams(0.5, 0.9), "require 0 < q <= p <= 1, got p=0.5, q=0.9"),
    (lambda: StancuShift(math.inf), "gamma and beta must be finite"),
    (lambda: StancuShift(0.0, -1.0), "beta must be nonnegative, got -1.0"),
    (lambda: OperatorSpec(0, PqParams(1.0, 1.0)), "operator degree must be an integer >= 1, got 0"),
    (lambda: OperatorSpec(2.0, PqParams(1.0, 1.0)),
     "operator degree must be an integer >= 1, got 2.0"),
    (lambda: HarmonicSchedule(0.5, 0.25), "require 0 < a < b < 1, got a=0.5, b=0.25"),
    (lambda: GridSpec(()), "grid must be nonempty"),
    (lambda: GridSpec((-1.0,)), "grid points must be finite and >= 0, got -1.0"),
    (lambda: GridSpec((1.0, 0.0)), "grid points must be sorted ascending"),
    (lambda: PointSet(()), "point set must be nonempty"),
    (lambda: PointSet(((math.nan, 1.0),)), "interval endpoints must not be NaN"),
    (lambda: PointSet(((2.0, 1.0),)), "bad interval [2.0, 1.0]"),
    (lambda: LipschitzClass(0, 0.5, E), "M must be positive, got 0"),
    # lipschitz_bound at x = 0 was nan with this class
    (lambda: LipschitzClass(math.inf, 0.5, E), "M must be finite, got inf"),
    (lambda: LipschitzClass(1.0, 1.5, E), "alpha must lie in (0, 1], got 1.5"),
]


@pytest.mark.parametrize("build, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
