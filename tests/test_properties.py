"""Property tests: the operators against the oracles over the whole unit box,
and the CLI contract over generated invocations.

Every property is derandomized, so a run is as reproducible as the rest of
the suite; the example counts keep the whole file to a few seconds.
"""

import contextlib
import csv
import io
import json
import math
import random
import re
import sys

import numpy as np
import pytest
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
    representation_rhs,
    stancu_nodes,
    weights,
)
import pqbbh.operators
from pqbbh.cli import main
from pqbbh.functions import REGISTRY
from pqbbh.operators import _Kernel, _weighted_sum
from oracles import (
    brute_operator,
    mp_closed_moment,
    mp_delta,
    mp_nodes,
    mp_rate_lhs,
    mp_representation,
    mp_weights,
    q_bbh_evaluate,
    q_bbh_moment,
    sequential_nodes,
    sequential_rhs,
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


UNDERFLOW = r"\[n\+1\]\^{nu} = .* underflows"


@property_settings(300)
@given(
    n=st.integers(1, 1500),
    p=unit,
    q=unit,
    x=st.one_of(points, st.floats(0.0, sys.float_info.max)),
)
@example(n=356, p=0.777048877899136, q=0.13826737061664626, x=99025083.52588241)
@example(n=536, p=0.7444024607996318, q=0.6471573367038083, x=sys.float_info.max)
def test_delta_is_finite_and_nonnegative(n, p, q, x):
    # the old cancelling form gave -8.9e-16 and -2.2e-16 at the two examples
    p, q = max(p, q), min(p, q)
    try:
        got = delta_n(OperatorSpec(n, PqParams(p, q)), x)
    except DomainError as err:
        assert re.match(UNDERFLOW.format(nu=2), str(err))
        return
    assert math.isfinite(got) and got >= 0.0


MP_TOL = 1e-13


@property_settings(150)
@given(
    n=st.integers(1, 1500),
    p=st.floats(0.3, 1.0),
    r=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    x=st.floats(1e-6, 1e6),
)
@example(n=586, p=0.92182, r=0.90267 / 0.92182, x=9.1e5)
def test_closed_forms_match_the_mpmath_oracles(n, p, r, x):
    # the cancelling delta_n form was off by 2.3e-3 relative at the example
    q = p * r
    spec = OperatorSpec(n, PqParams(p, q))
    checks = (
        (1, lambda: moment_closed(spec, 1, x), lambda: mp_closed_moment(1, n, p, q, x)),
        (2, lambda: moment_closed(spec, 2, x), lambda: mp_closed_moment(2, n, p, q, x)),
        (2, lambda: delta_n(spec, x), lambda: mp_delta(n, p, q, x)),
    )
    for nu, compute, oracle in checks:
        try:
            got = compute()
        except DomainError as err:
            assert re.match(UNDERFLOW.format(nu=nu), str(err))
            continue
        want = oracle()
        assert abs(got - want) <= MP_TOL * want


def test_mp_closed_moments_match_the_brute_operator():
    for n, p, q, x in ((1, 0.5, 0.25, 2.0), (7, 0.9, 0.3, 0.4), (12, 0.7, 0.7, 3.0)):
        for nu in (1, 2):
            brute = brute_operator(lambda t: (t / (1.0 + t)) ** nu, n, p, q, x)
            assert close(mp_closed_moment(nu, n, p, q, x), brute, 1e-13)


def test_mp_nodes_and_weights_match_the_classical_operator():
    # p = q = 1: nodes k/(n-k+1), weights C(n,k) x^k / (1+x)^n
    n, x = 9, 2.5
    assert mp_nodes(n, 1.0, 1.0) == tuple(k / (n - k + 1) for k in range(n + 1))
    want = [math.comb(n, k) * x**k / (1.0 + x) ** n for k in range(n + 1)]
    for got, w in zip(mp_weights(n, 1.0, 1.0, x), want):
        assert close(got, w, 1e-15)


# Where q^n is a normal double, so is every factor and product in the node
# and weight tables: [k], p^j, q^j and the products all stay above q^n.
# There the tables hold these relative errors against the 60-digit values;
# the worst measured over 2,700 such specs were 6.9e-15 for a node
# (n = 1335) and 1.6e-12 for a weight (n = 1314), and the bounds are three
# times those.  Below q^n the subnormal factors lose digits without an
# error (a node off by 12% at n = 369, q = 0.133).
MP_NODE_TOL = 2e-14
MP_WEIGHT_TOL = 5e-12


@property_settings(40)
@given(
    n=st.integers(1, 1500),
    depth=st.floats(0.0, 1.0, exclude_min=True),
    u=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    x=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    shift=st.none() | st.tuples(st.floats(0.0, 3.0), st.just(0.0) | st.floats(0.0, 3.0)),
)
def test_nodes_and_weights_match_the_mpmath_oracles(n, depth, u, x, shift):
    # q^n = NORMAL_MIN^depth spans the normal doubles; p = q^u runs from 1 to q
    q = NORMAL_MIN ** (depth / n)
    p = q**u
    spec = OperatorSpec(n, PqParams(p, q), None if shift is None else StancuShift(*shift))
    want = mp_nodes(n, p, q, shift)
    try:
        got = (nodes if shift is None else stancu_nodes)(spec).values
    except DomainError as err:
        # only a last node near p[n]/q^n may reach the end of the doubles
        assert "overflows" in str(err)
        assert max(want) >= (1.0 - MP_NODE_TOL) * sys.float_info.max
    else:
        for g, w in zip(got, want):
            assert abs(g - w) <= MP_NODE_TOL * w
    for g, w in zip(weights(spec, x).weights, mp_weights(n, p, q, x)):
        if w >= NORMAL_MIN:
            assert abs(g - w) <= MP_WEIGHT_TOL * w


# The rate lhs |sum_k f(t_k) w_k - f(x)| is a difference of doubles of size
# up to max(|f(x)|, max_k |f(t_k)|), so its error is absolute on that scale.
# |f(x)| belongs in it: at n = 12, p = 0.224, q = 4.0e-14 every node but
# t_0 = 0 is huge, max_k |f(t_k)| is 1.7e-13 and the lhs, 0.42, is f(x).
# Where q^n is a normal double (the domain above) the worst error measured
# over 5,500 specs (4,421 answered, x in [1e-6, 1e6]) was 6.1e-11 of the
# scale, at n = 26, p = 0.264, q = 6.2e-8, sin_damped, x = 4.4e5: a node
# rounded by a relative e moves sin(t)/(1+t) by about e |cos t|, which at
# large x is e x times the scale 1/x.  The bound is five times that worst.
MP_RATE_TOL = 3e-10


@property_settings(25)
@given(
    n=st.integers(1, 1500),
    depth=st.floats(0.0, 1.0, exclude_min=True),
    u=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    x=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    name=registry,
)
def test_rate_lhs_matches_the_mpmath_oracle(n, depth, u, x, name):
    q = NORMAL_MIN ** (depth / n)
    p = q**u
    spec = OperatorSpec(n, PqParams(p, q))
    f = REGISTRY[name]
    try:
        (point,) = rate_bound_check(spec, f, GridSpec((x,)))
    except DomainError as err:
        # [n+1]^2 >= q^(2n) leaves the normal doubles once q^n < 1.5e-154
        assert "[n+1]^2" in str(err) and "underflows" in str(err)
        return
    scale = max([abs(f(x))] + [abs(f(t)) for t in nodes(spec).values])
    assert abs(point.lhs - mp_rate_lhs(n, p, q, name, x)) <= MP_RATE_TOL * scale


# representation_rhs equals L_n f(x) - f(px/q), a difference of doubles of size
# up to scale = max(|f(px/q)|, max_k |f(t_k)|), so its error is measured on that
# scale; the difference itself may cancel far below it (for f = 1 it is 0).  Its
# divided differences divide by px/q - t_k, so the bound also grows as px/q nears
# a node, by 1/gap with gap = min(1, min_k |px/q - t_k| / (1 + t_k)), the
# distance the collision check refuses below 1e-9.  Over n <= 8 (the range the
# docstring validates), p in [0.05, 1], q/p in {1} or [0.01, 1] and x in
# [1e-6, 1e6] or px/q within 1e-9 to 1e-1 of a node (about 15,000 of 49,532
# answered specs), the worst error * gap / scale was 2.5e-13, at n = 3,
# p = 0.514, q = 0.0123, sin_damped, x = 2.6e4: px/q = 1.1e6 lies beyond every
# node, and its rounding by a relative e moves sin(t)/(1+t) by about e |cos t|,
# 1e6 e times f there.  The bound is five times that worst.
MP_REPRESENTATION_TOL = 1.3e-12


@property_settings(200)
@given(
    n=st.integers(1, 8),
    p=st.floats(0.05, 1.0),
    r=st.just(1.0) | st.floats(0.01, 1.0),
    x=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    name=registry,
)
def test_representation_matches_the_mpmath_oracle(n, p, r, x, name):
    q = p * r
    spec = OperatorSpec(n, PqParams(p, q))
    f = REGISTRY[name]
    try:
        got = representation_rhs(spec, f, x)
    except DomainError as err:
        assert "collides" in str(err)
        return
    pivot, ts = p * x / q, nodes(spec).values
    scale = max([abs(f(pivot))] + [abs(f(t)) for t in ts])
    gap = min([1.0] + [abs(pivot - t) / (1.0 + t) for t in ts])
    want = mp_representation(n, p, q, name, x)
    assert abs(got - want) <= MP_REPRESENTATION_TOL * scale / gap


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


NODE_EXAMPLES = (
    (1, 1.0, 5e-324, None),  # the last node overflows
    (1300, 0.541, 0.499, None),  # the denominator q [1300] underflows to 0
    (1152, 0.5239484487080236, 0.5239484487080236, None),  # not increasing
    (3, 0.9, 0.5, (-0.5, 0.0)),  # negative shifted nodes
    (2, 1.0, 1e-200, (-1.0, 0.0)),  # 0/0 at the last shifted node
)


def with_node_examples(test):
    for n, p, q, shift in NODE_EXAMPLES:
        test = example(n=n, p=p, r=q / p, shift=shift)(test)
    return test


@property_settings(150)
@given(
    n=st.integers(1, 1500),
    p=box_p,
    r=box_r,
    shift=st.none() | st.tuples(st.floats(-3.0, 3.0), st.just(0.0) | st.floats(0.0, 3.0)),
)
@with_node_examples
def test_nodes_match_the_sequential_loop(n, p, r, shift):
    q = p * r
    if q == 0.0:
        return
    spec = OperatorSpec(n, PqParams(p, q), None if shift is None else StancuShift(*shift))

    def build():
        table = _Kernel(spec).nodes()
        return table.values, table.negative

    (got, error), (want, want_error) = outcome(build), outcome(
        lambda: sequential_nodes(n, p, q, shift))
    if want_error is None:
        assert error is None, error
        assert [v.hex() for v in got[0]] == [v.hex() for v in want[0]]
        assert got[1] == want[1]
    else:
        assert (type(error), str(error)) == (type(want_error), str(want_error))


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


# -- the grid path against the per-row path, bit for bit ----------------------


@st.composite
def block_grids(draw):
    """Sorted grids of 150-400 points with 0.0, repeated points and x up to e^60."""
    rnd = draw(st.randoms(use_true_random=False))
    size = draw(st.integers(150, 400))
    xs = [rnd.uniform(0.0, 60.0) if rnd.random() < 0.5 else math.exp(rnd.uniform(-30.0, 60.0))
          for _ in range(size - 8)]
    xs += [0.0] * rnd.randint(1, 3)
    xs += rnd.choices(xs, k=size - len(xs))
    return tuple(sorted(xs))


def node_values(n, seed):
    """n+1 values of both signs, with +-0.0, 1.0 and +-1e-300 mixed in.

    Seed None gives n+1 copies of -0.0, whose weighted sum is -0.0 until the
    final 0.0 + makes it 0.0.
    """
    if seed is None:
        return np.full(n + 1, -0.0)
    rnd = random.Random(seed)
    pool = (-0.0, 0.0, 1.0, -1e-300, 1e-300)
    return np.array([rnd.choice(pool) if rnd.random() < 0.2 else rnd.uniform(-5.0, 5.0)
                     for _ in range(n + 1)])


RATE_GRID = GridSpec.default().xs
BLOCK_EXAMPLES = (
    (1000, 0.3, 0.2, (0.0, 1.0, 2.0)),  # zero ratio denominator
    (1110, 0.518, 0.513, (0.0, 0.5, 21.9, 60.0)),  # drift: p^1109 [1] is subnormal
    (2, 0.9, 0.5, (0.0, 1.0, 1.7e308)),  # term overflow
    # 150 good points fill the first block (100 wide at n = 1298); the drift
    # of the subnormal numerators q^k [n-k] fails the last point, in the second
    (1298, 0.5912, 0.1823, tuple(0.4 * i for i in range(150)) + (1.99e26,)),
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024, RATE_GRID),  # the rate command's grid
    # blocks of 127 points and of 1, a column numpy's sum would add pairwise
    (1024, 0.99, 0.98, tuple(0.05 * i for i in range(1, 129))),
    (2100, 0.999, 0.998, tuple(0.5 * i for i in range(70))),  # blocks of 62 and 7 points
    # the per-row path is the scalar one here; the terms rescale at 1e12 and 1e30
    (16, 0.7, 0.3, (0.0, 5e-324, 0.5, 21.9, 1e12, 1e30)),
)


def with_block_examples(test):
    for n, p, q, xs in BLOCK_EXAMPLES:
        test = example(n=n, p=p, r=q / p, xs=xs, seed=0)(test)
    return example(n=40, p=0.9, r=0.5, xs=(0.0, 1.0, 2.0), seed=None)(test)


@property_settings(8)
@given(
    n=st.integers(330, 1500) | st.integers(1, 1500),
    p=box_p,
    r=box_r,
    xs=block_grids(),
    seed=st.none() | st.integers(0, 2**32),
)
@with_block_examples
def test_grid_sums_match_the_per_row_path(n, p, r, xs, seed):
    # from n of about 330 up, a grid of 400 points spans more than one block
    q = p * r
    if q == 0.0:
        return
    kernel = _Kernel(OperatorSpec(n, PqParams(p, q)))
    fvals = node_values(n, seed)
    got, error = outcome(lambda: kernel.weighted_sums(xs, fvals))
    want, want_error = outcome(lambda: [_weighted_sum(kernel.row(x), fvals) for x in xs])
    if want_error is None:
        assert error is None, error
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        assert (type(error), str(error)) == (type(want_error), str(want_error))


def test_grid_sums_keep_one_row_a_block_where_a_row_passes_the_block(monkeypatch):
    # from n = 131072 up one row alone takes more than _BLOCK_BYTES
    monkeypatch.setattr(pqbbh.operators, "_BLOCK_BYTES", 8)
    kernel = _Kernel(OperatorSpec(300, PqParams(0.99, 0.98)))
    fvals = node_values(300, 0)
    xs = (0.0, 0.5, 0.5, 21.9, 3e5)
    want = [_weighted_sum(kernel.row(x), fvals).hex() for x in xs]
    assert [v.hex() for v in kernel.weighted_sums(xs, fvals)] == want


# -- the scalar path against the array path, bit for bit ---------------------


def path_outcomes(spec, x, fvals, scalar):
    """Nodes, the row at x and its weighted sum of fvals, each as hex or (error type, message).

    The kernel is built with the degree bound moved so that it takes the
    scalar path or the array path.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pqbbh.operators, "_SCALAR_DEGREE", spec.n if scalar else spec.n - 1)
        kernel = _Kernel(spec)
    assert kernel.scalar is scalar
    table, error = outcome(kernel.nodes)
    if error is None:
        nodes = [v.hex() for v in table.values], table.negative
    else:
        nodes = type(error), str(error)
    row, error = outcome(lambda: kernel.row(x))
    if error is not None:
        return nodes, (type(error), str(error))
    return nodes, [float(v).hex() for v in row], _weighted_sum(row, fvals).hex()


SCALAR_EXAMPLES = (
    (32, 1e-11, 1e-11, None, 1.0),  # zero ratio denominator: p^31 is 0.0
    (2, 0.9, 0.45, None, 1.7e308),  # term overflow
    (32, 6e-11, 3e-11, None, 1.0),  # drift: p^31 [1] is subnormal
    (32, 1.0, 1e-20, None, 3.0),  # node 16 overflows: q^16 [17] = 1e-320
    (8, 0.9, 0.5, (-1.5, 0.5), 0.0),  # negative shifted nodes
    (20, 0.7, 0.3, None, 5e-324),
    (20, 0.7, 0.3, (0.5, 0.25), 1e30),  # the terms rescale four times
)


def with_scalar_examples(test):
    for n, p, q, shift, x in SCALAR_EXAMPLES:
        test = example(n=n, p=p, r=q / p, shift=shift, x=x, seed=0)(test)
    return test


@property_settings(150)
@given(
    n=st.integers(1, 2 * pqbbh.operators._SCALAR_DEGREE) | st.integers(1, 400),
    p=box_p,
    r=box_r,
    shift=st.none() | st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
    x=kernel_points | st.sampled_from([5e-324, 1e30, 1.7e308]),
    seed=st.none() | st.integers(0, 2**32),
)
@with_scalar_examples
def test_scalar_path_matches_the_array_path(n, p, r, shift, x, seed):
    q = p * r
    if q == 0.0:
        return
    spec = OperatorSpec(n, PqParams(p, q), None if shift is None else StancuShift(*shift))
    fvals = node_values(n, seed).tolist()
    assert path_outcomes(spec, x, fvals, True) == path_outcomes(spec, x, fvals, False)


def negative_zero(t):
    return -0.0


@property_settings(200)
@given(
    n=st.integers(1, 40),
    p=st.floats(0.05, 1.0),
    r=st.just(1.0) | st.floats(0.01, 1.0),
    log_x=st.floats(-5.0, 5.0),
    f=st.sampled_from([REGISTRY[name] for name in sorted(REGISTRY)] + [negative_zero]),
)
def test_representation_matches_the_sequential_sum(n, p, r, log_x, f):
    q, x = p * r, math.exp(log_x)
    try:
        got = representation_rhs(OperatorSpec(n, PqParams(p, q)), f, x)
    except DomainError:
        return  # a node out of range or px/q at a node, refused before the sum
    assert got.hex() == sequential_rhs(f, n, p, q, x).hex()


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
# results that would print as inf or nan: a modulus beyond the doubles, a first
# term of inf, a bound of inf * 0, and a representation over a divisor of 1e-300
@example(argv=["rate", "--schedule", "harmonic:0.25,0.5", "--n", "4", "--fn", "1e308*sin(t)"])
@example(argv=["stancu-bound", "--n", "8", "--p", "0.5", "--q", "0.5", "--gamma", "1.7e308",
               "--beta", "1e300", "--alpha", "0.5", "--m", "0.9", "--format", "json"])
@example(argv=["stancu-bound", "--n", "700", "--p", "0.999999999", "--q", "1e-320",
               "--gamma", "0", "--beta", "0", "--alpha", "0.5", "--m", "1.7e308",
               "--format", "json"])
@example(argv=["represent", "--n", "8", "--p", "1e-3", "--q", "1e-3", "--fn", "1/(t+1e-300)",
               "--x", "1e-8", "--format", "json"])
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "json" in argv:
        json.loads(out.getvalue(), parse_constant=reject_constant)
    elif code == 0:
        for row in csv.reader(io.StringIO(out.getvalue())):
            assert not {cell.lower() for cell in row} & {"inf", "-inf", "nan"}, row
    if code != 0:
        assert out.getvalue() == ""
