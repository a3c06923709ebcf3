"""Property tests: the operators against the oracles over the whole unit box,
and the CLI contract over generated invocations.

Every property is derandomized, so a run is as reproducible as the rest of
the suite; the example counts keep the whole file to a few seconds.
"""

import contextlib
import io
import json
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbbh import (
    DomainError,
    GridSpec,
    OperatorSpec,
    PqParams,
    StancuShift,
    delta_n,
    evaluate,
    moment_closed,
    nodes,
    rate_bound_check,
    stancu_nodes,
    weights,
)
from pqbbh.cli import main
from pqbbh.functions import REGISTRY
from oracles import (
    brute_operator,
    q_bbh_evaluate,
    q_bbh_moment,
    sequential_sum,
    sequential_weights,
)

NORMAL_MIN = sys.float_info.min

unit = st.floats(0.0, 1.0, exclude_min=True)
points = st.floats(0.0, 50.0)
registry = st.sampled_from(sorted(REGISTRY))


def property_settings(max_examples):
    return settings(max_examples=max_examples, derandomize=True, deadline=None)


def close(got, want, tol=1e-10):
    return abs(got - want) <= tol * (1.0 + abs(want))


def oracle_value(oracle, *args):
    """The oracle's value, or None where its own arithmetic leaves the doubles."""
    try:
        value = oracle(*args)
    except (ArithmeticError, ValueError):
        return None
    return value if math.isfinite(value) else None


@property_settings(300)
@given(n=st.integers(1, 30), p=unit, r=unit, x=points, name=registry)
def test_evaluate_matches_oracles_on_the_unit_box(n, p, r, x, name):
    q = p * r
    if q == 0.0:
        return
    f = REGISTRY[name]
    try:
        got = evaluate(OperatorSpec(n, PqParams(p, q)), f, x)
    except (DomainError, ArithmeticError):
        # only where the last node's denominator q^n is no normal double
        assert q ** n < NORMAL_MIN
        return
    # the base operator depends on p and q only through r = q/p
    want = oracle_value(q_bbh_evaluate, f, n, q / p, x)
    if want is not None:
        assert close(got, want)
    # the brute kernel's smallest coefficient q^(n(n-1)/2) must stay normal
    if q ** (n * (n - 1) // 2) >= NORMAL_MIN:
        want = oracle_value(brute_operator, f, n, p, q, x)
        if want is not None:
            assert close(got, want)


@property_settings(200)
@given(
    n=st.integers(1, 1500),
    p=st.floats(0.5, 1.0),
    r=unit,
    x=points,
    nu=st.sampled_from([1, 2]),
)
def test_large_degrees_agree_with_the_oracle_or_raise(n, p, r, x, nu):
    q = p * r
    if q == 0.0:
        return
    spec = OperatorSpec(n, PqParams(p, q))
    r = q / p
    u = x / (1.0 + x)
    want = q_bbh_moment(nu, n, r, x)
    want_delta = q_bbh_moment(2, n, r, x) - 2.0 * u * q_bbh_moment(1, n, r, x) + u * u
    checks = (
        (lambda: evaluate(spec, lambda t: (t / (1.0 + t)) ** nu, x), want),
        (lambda: moment_closed(spec, nu, x), want),
        (lambda: delta_n(spec, x), want_delta),
    )
    for compute, expected in checks:
        try:
            got = compute()
        except (DomainError, ArithmeticError):
            continue
        assert close(got, expected)


def test_closed_moment_oracle_matches_the_brute_q_operator():
    for n, r, x in ((1, 0.5, 2.0), (7, 0.3, 0.4), (30, 0.95, 9.0), (12, 1.0, 3.0)):
        for nu in (1, 2):
            brute = q_bbh_evaluate(lambda t: (t / (1.0 + t)) ** nu, n, r, x)
            assert close(q_bbh_moment(nu, n, r, x), brute, 1e-13)


# -- the kernel against its scalar loop, bit for bit --------------------------

# p and r = q/p over the whole box, and near 1 where long rows rescale many times
box_p = st.one_of(unit, st.floats(0.95, 1.0))
box_r = st.one_of(unit, st.floats(0.9, 1.0))
kernel_points = st.one_of(st.just(0.0), st.floats(0.0, 60.0))
DRIFT_SUFFIX = ": ratio denominator"


def outcome(compute):
    """(value, None) or (None, the DomainError or ArithmeticError raised)."""
    try:
        return compute(), None
    except (ValueError, ArithmeticError) as exc:
        return None, exc


def assert_same_outcome(got, want):
    """Same doubles by float.hex, or the same error type and message.

    A drift error may name its cause after the loop's message.
    """
    (value, error), (want_value, want_error) = got, want
    if want_error is None:
        assert error is None, error
        assert [float(v).hex() for v in value] == [v.hex() for v in want_value]
        return
    assert type(error) is type(want_error)
    message, want_message = str(error), str(want_error)
    if "drifted" in want_message:
        assert message == want_message or message.startswith(want_message + DRIFT_SUFFIX)
    else:
        assert message == want_message


def old_evaluate(spec, f, x):
    """evaluate's order (nodes, weights at x, f at the nodes) on the scalar loop."""
    table = stancu_nodes(spec) if spec.stancu is not None else nodes(spec)
    w = sequential_weights(spec.n, spec.params.p, spec.params.q, x)
    return sequential_sum(w, [float(f(t)) for t in table.values])


KERNEL_EXAMPLES = (
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024, 50.0),  # rescales in every segment
    (1110, 0.518, 0.513, 21.9),  # drift: p^1109 [1] is subnormal
    (1000, 0.3, 0.2, 1.0),  # zero ratio denominator
    (2, 0.9, 0.5, 1.7e308),  # term overflow
    (3, 0.9, 0.5, -1.0),  # invalid point
    (5, 0.7, 0.7, 3.0),  # diagonal q = p
)


def with_kernel_examples(test):
    for n, p, q, x in KERNEL_EXAMPLES:
        test = example(n=n, p=p, r=q / p, x=x)(test)
    return test


@property_settings(120)
@given(n=st.integers(1, 1500), p=box_p, r=box_r, x=kernel_points)
@with_kernel_examples
def test_weights_match_the_sequential_loop(n, p, r, x):
    q = p * r
    if q == 0.0:
        return
    spec = OperatorSpec(n, PqParams(p, q))
    assert_same_outcome(
        outcome(lambda: weights(spec, x).weights),
        outcome(lambda: sequential_weights(n, p, q, x)),
    )


@property_settings(80)
@given(
    n=st.integers(1, 1500),
    p=box_p,
    r=box_r,
    x=kernel_points,
    name=registry,
    shift=st.none() | st.builds(StancuShift, st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)
@example(n=1110, p=0.518, r=0.513 / 0.518, x=21.9, name="exp_neg", shift=None)
def test_evaluate_matches_the_sequential_reduction(n, p, r, x, name, shift):
    q = p * r
    if q == 0.0:
        return
    spec = OperatorSpec(n, PqParams(p, q), shift)
    f = REGISTRY[name]
    assert_same_outcome(
        outcome(lambda: (evaluate(spec, f, x),)),
        outcome(lambda: (old_evaluate(spec, f, x),)),
    )


@property_settings(12)
@given(
    n=st.integers(50, 400),
    p=st.floats(0.9, 1.0),
    r=st.floats(0.5, 1.0),
    xs=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6),
    name=registry,
)
def test_rate_lhs_matches_the_sequential_reduction(n, p, r, xs, name):
    spec = OperatorSpec(n, PqParams(p, p * r))
    f = REGISTRY[name]
    grid = GridSpec(tuple(sorted(xs)) + (60.0,))  # a fixed end keeps the modulus window small
    fvals = [f(t) for t in nodes(spec).values]
    for point in rate_bound_check(spec, f, grid):
        w = sequential_weights(n, spec.params.p, spec.params.q, point.x)
        want = abs(sequential_sum(w, fvals) - f(point.x))
        assert point.lhs.hex() == want.hex()


# -- CLI contract ------------------------------------------------------------

DEEP_SUM = "+".join(["t"] * 5000)


def real(lo, hi):
    return st.floats(lo, hi).map(repr)


expressions = st.sampled_from([
    "t", "t/(1+t)", "exp(-t)", "log(t)", "1/t", "exp(t)", "sqrt(t-1)", "t^-2",
    "sin(t", "2**t", DEEP_SUM, "+".join(["t"] * 200),
])
functions = st.one_of(
    expressions.map(lambda e: ["--fn", e]),
    st.sampled_from(sorted(REGISTRY)).map(lambda r: ["--registry", r]),
)
schedules = st.sampled_from(["harmonic:0.25,0.5", "harmonic:0.1,0.9", "harmonic:0.5,0.25"])
# one of these replaces a drawn flag value in some invocations
bad_values = st.sampled_from(["nan", "-inf", "1e400", "abc", "-1", "0", ""])


@st.composite
def invocations(draw):
    """A mostly well-formed invocation, sometimes with one value spoiled."""
    command = draw(st.sampled_from(
        ["eval", "moments", "converge", "rate", "represent", "stancu-bound"]))
    p = draw(st.floats(0.3, 1.0))
    operator = ["--n", str(draw(st.integers(1, 700))), "--p", repr(p),
                "--q", repr(p * draw(st.floats(0.05, 1.0)))]
    x = ["--x", draw(real(0.0, 60.0))]
    if command == "eval":
        argv = operator + draw(functions) + x
        if draw(st.booleans()):
            argv += ["--gamma", draw(real(-1.0, 3.0)), "--beta", draw(real(0.0, 3.0))]
    elif command == "moments":
        argv = operator + ["--nu", draw(st.sampled_from("012"))] + x
    elif command == "converge":
        n_list = draw(st.lists(st.integers(1, 300), min_size=1, max_size=3))
        argv = ["--schedule", draw(schedules), "--n-list", ",".join(map(str, n_list)),
                "--nu", draw(st.sampled_from("012")), "--x-max", draw(real(0.5, 80.0)),
                "--points", str(draw(st.integers(2, 40)))]
    elif command == "rate":
        argv = ["--schedule", draw(schedules), "--n", str(draw(st.integers(1, 6)))]
        argv += draw(functions)
    elif command == "represent":
        argv = operator + draw(functions) + x
    else:
        argv = operator + ["--gamma", draw(real(-1.0, 3.0)), "--beta", draw(real(0.0, 3.0)),
                           "--alpha", draw(real(0.05, 1.0)), "--m", draw(real(0.1, 5.0))]
    if draw(st.integers(0, 3)) == 0:
        argv[draw(st.sampled_from(range(1, len(argv), 2)))] = draw(bad_values)
    return [command] + argv + draw(st.sampled_from([[], ["--format", "csv"],
                                                    ["--format", "json"]]))


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@property_settings(150)
@given(argv=invocations())
@example(argv=["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", DEEP_SUM, "--x", "1"])
@example(argv=["moments", "--n", "610", "--p", "0.541", "--q", "0.499", "--nu", "2",
               "--x", "1", "--format", "json"])
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "json" in argv:
        json.loads(out.getvalue(), parse_constant=reject_constant)
    if code != 0:
        assert out.getvalue() == ""
