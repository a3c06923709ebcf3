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
    OperatorSpec,
    PqParams,
    delta_n,
    evaluate,
    moment_closed,
)
from pqbbh.cli import main
from pqbbh.functions import REGISTRY
from oracles import brute_operator, q_bbh_evaluate, q_bbh_moment

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
