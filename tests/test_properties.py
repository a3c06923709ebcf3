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
    euler_coefficients,
    evaluate,
    evaluate_stancu,
    log_pochhammer_ell,
    moment_closed,
    nodes,
    pochhammer_ell,
    pq_binomial,
    pq_factorial,
    pq_integers,
    rate_bound_check,
    representation_rhs,
    stancu_nodes,
    weights,
)
import pqbbh.operators
from pqbbh.cli import main
from pqbbh.functions import REGISTRY
from pqbbh.operators import _Kernel, _weighted_sum
import oracles
from oracles import (
    brute_operator,
    mp_binomial,
    mp_closed_moment,
    mp_delta,
    mp_euler_coefficients,
    mp_factorial,
    mp_nodes,
    mp_pochhammer_ell,
    mp_rate_lhs,
    mp_representation,
    mp_weights,
    q_bbh_evaluate,
    q_bbh_moment,
    sequential_integers,
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


# Doubles from 0.0 through the subnormals and the smallest normal to the largest.
EDGE_POINTS = [0.0, 5e-324, 2.2e-308, 1e-300, 1.0, 1e300, 1.7e308]


def with_edge_points(test):
    for name in sorted(REGISTRY):
        for ts in (EDGE_POINTS, [-t for t in EDGE_POINTS]):
            test = example(name=name, ts=ts)(test)
    return test


def assert_array_form_has_the_float_bits(f, ts):
    # a point where the float form raises gives a value that is not finite, or
    # makes the array form raise; every other point gets the float form's bits
    want = []
    for t in ts:
        try:
            want.append(float(f(t)).hex())
        except ArithmeticError:
            want.append(None)
    try:
        with np.errstate(all="ignore"):
            got = f(np.array(ts))
    except ArithmeticError:
        assert None in want
        return
    assert got.dtype == np.float64 and got.shape == (len(ts),)
    for g, w in zip(got.tolist(), want):
        assert not math.isfinite(g) if w is None else g.hex() == w


@property_settings(200)
@given(name=registry, ts=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=1, max_size=16))
@with_edge_points
def test_registry_array_form_has_the_float_bits(name, ts):
    assert_array_form_has_the_float_bits(REGISTRY[name], ts)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_array_form_has_the_float_bits_at_random_points(name):
    # numpy's own exp can differ from the C library's in the last bit: at about
    # 5% of such points with numpy 2.4 on x86-64
    rng = random.Random(2027)
    ts = [rng.uniform(-40.0, 720.0) for _ in range(2000)]
    ts += [math.copysign(math.exp(rng.uniform(-745.0, 709.0)), rng.random() - 0.5)
           for _ in range(2000)]
    assert_array_form_has_the_float_bits(REGISTRY[name], ts)


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
    got = delta_n(OperatorSpec(n, PqParams(p, q)), x)
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
@example(n=610, p=0.541, r=0.499 / 0.541, x=1.0)  # [n+1]^2 = 5e-324: taken at (1, q/p)
def test_closed_forms_match_the_mpmath_oracles(n, p, r, x):
    # the cancelling delta_n form was off by 2.3e-3 relative at the example;
    # where [n+1]^nu is not normal the forms are taken at (1, q/p), which
    # measured within 3.7e-15 of these oracles over item 17's box
    q = p * r
    spec = OperatorSpec(n, PqParams(p, q))
    checks = (
        (moment_closed(spec, 1, x), mp_closed_moment(1, n, p, q, x)),
        (moment_closed(spec, 2, x), mp_closed_moment(2, n, p, q, x)),
        (delta_n(spec, x), mp_delta(n, p, q, x)),
    )
    for got, want in checks:
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
# times those.  Below q^n the subnormal factors lost digits without an
# error (a node off by 12% at n = 369, q = 0.133), so where q^n is not
# normal the kernel is taken at (1, q/p) (OperatorSpec._kernel_spec), with
# the bounds of the routed domain below.
MP_NODE_TOL = 2e-14
MP_WEIGHT_TOL = 5e-12


def unrouted(spec):
    """Whether the spec's kernel is built at its own (p,q): q^n normal, or p = 1."""
    return spec._kernel_spec is spec


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
    # [n+1]^2 >= q^(2n) leaves the normal doubles once q^n < 1.5e-154, and
    # delta_n is then taken at (1, q/p)
    (point,) = rate_bound_check(spec, f, GridSpec((x,)))
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


# -- the routed domain: kernels at (1, q/p) -----------------------------------

# Where q^n is not a normal double the kernel runs at (1, r), r = q/p,
# and r rounds once.  Node k moves with r by up to n times r's relative
# error (its log-derivative in r is at most n), and weight k by up to
# k(k-1)/2 times it (the factor r^(k(k-1)/2)).  Over 800 routed specs of
# item 17's box (ROADMAP) the worst relative errors were 1.08e-16 n for a
# node and 2.3e-17 n^2 for a weight of at least 1e-300.  The routed bounds
# add three times those to the bounds of the kernel at (p,q).  t_369 at
# p = 0.727, q = 0.133 is off by 2.8e-14 there, over MP_NODE_TOL alone.
ROUTED_NODE_TOL = 3.3e-16  # times n
ROUTED_WEIGHT_TOL = 7e-17  # times n^2


def node_tol(spec):
    return MP_NODE_TOL + (0.0 if unrouted(spec) else ROUTED_NODE_TOL * spec.n)


def weight_tol(spec):
    return MP_WEIGHT_TOL + (0.0 if unrouted(spec) else ROUTED_WEIGHT_TOL * spec.n**2)


def assert_nodes_near_the_oracle(spec, got, want):
    for g, w in zip(got, want):
        assert abs(g - w) <= node_tol(spec) * abs(w)


def assert_weights_near_the_oracle(spec, got, want):
    for g, w in zip(got, want):
        if w >= NORMAL_MIN:
            assert abs(g - w) <= weight_tol(spec) * w


def assert_the_oracle_confirms(err, spec, want_nodes):
    """The refusal names a node that the 60-digit table puts where the message says."""
    message = str(err)
    found = re.search(r"node (\d+) overflows", message)
    if found:  # a node beyond the largest double
        top = sys.float_info.max
    else:  # a gap divisor below the normal doubles puts its node past 2^1022
        found = re.search(r"as node (\d+) lies past 2\^1022", message)
        assert found, message
        top = 2.0**1022
    assert want_nodes[int(found.group(1))] >= (1.0 - node_tol(spec)) * top, message


@property_settings(40)
@given(
    n=st.integers(2, 1500),
    depth=st.floats(1.0, 2.0, exclude_min=True),
    u=st.floats(0.01, 1.0),
    x=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    shift=st.none() | st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
)
def test_the_routed_domain_is_within_its_bounds(n, depth, u, x, shift):
    # q^n = NORMAL_MIN^depth is below the normal doubles and p = q^u < 1
    # (q <= 0.63 here), so every spec here is taken at (1, q/p); n >= 2
    # keeps q itself normal
    q = NORMAL_MIN ** (depth / n)
    p = q**u
    spec = OperatorSpec(n, PqParams(p, q), None if shift is None else StancuShift(*shift))
    assert not unrouted(spec)
    want = mp_nodes(n, p, q, shift)
    try:
        got = (nodes if shift is None else stancu_nodes)(spec).values
    except DomainError as err:
        assert_the_oracle_confirms(err, spec, want)
    else:
        assert_nodes_near_the_oracle(spec, got, want)
    assert_weights_near_the_oracle(spec, weights(spec, x).weights, mp_weights(n, p, q, x))


def test_the_node_that_was_off_by_twelve_percent():
    # t_369 read 1.9017e272 against 1.6927e272 before q^370 sent it to (1, q/p)
    p, q = 0.7269044790530272, 0.13303575954974067
    spec = OperatorSpec(369, PqParams(p, q))
    got, want = nodes(spec).values[369], mp_nodes(369, p, q)[369]
    assert abs(got - want) <= node_tol(spec) * want


# -- answer or refuse over the whole unit box (ROADMAP item 17) -----------------

# Item 17's box: n log-uniform in [2, 1500], p and q/p in [0.02, 1] and
# x = e^U(-6, 6).  Drawn from random.Random(20261020) as there, 4,000
# specs gave 19 silently wrong weight rows (relative errors up to 1.1) and
# 328 refusals before kernels went to (1, q/p) where q^n is not
# normal; the 19 are the examples.  Each draw checks one function against
# its 60-digit oracle, within the bound of its domain, or checks that the
# oracle confirms the refusal's cause.
BOX_CHECKS = ("nodes", "weights", "evaluate", "evaluate_stancu", "moment_closed", "delta_n",
              "representation_rhs")
WRONG_IN_THE_BOX = (
    (352, 0.14069534196573696, 0.018950768008205884, 142.11838133016468),
    (433, 0.19469529829444798, 0.06329681661596537, 23.993475080303234),
    (194, 0.023850052551618667, 0.006855482001569096, 0.9595682253802805),
    (530, 0.27227408793320584, 0.007162501186725975, 373.0714108629578),
    (1154, 0.5409584802970475, 0.3564470082253777, 0.07713577376569225),
    (379, 0.15323049625148683, 0.0752109420042819, 0.0029910873758183343),
    (640, 0.32306242163142956, 0.081126388048697, 9.160504276176024),
    (478, 0.22888226741828516, 0.10952306787067245, 322.6739657639432),
    (356, 0.1435281710559324, 0.06357195512240227, 374.94275547643895),
    (1280, 0.5850529341335267, 0.15519036300948885, 0.021347159044048405),
    (327, 0.11798657825704659, 0.029497650867915684, 185.6903762317555),
    (1084, 0.5134440603551825, 0.1290457541210436, 0.13954301974709843),
    (1412, 0.5999437800081158, 0.3252820122821801, 11.478715096547703),
    (1335, 0.5813929311778545, 0.05131620204421105, 0.007294860778001043),
    (938, 0.46908192093952855, 0.0883690933066124, 0.013383201801249214),
    (1469, 0.6187349792267811, 0.19974028009501402, 0.4731749534918756),
    (428, 0.1890484674843841, 0.12409790226636791, 0.009602829473606423),
    (981, 0.5033424133849779, 0.055275900764920595, 9.703555675651799),
    (474, 0.23101619167108076, 0.07817378319540184, 0.012556546655568296),
)
BOX_EXAMPLES = tuple((n, p, q, x, "weights", "one_") for n, p, q, x in WRONG_IN_THE_BOX) + (
    # every table entry normal, but the drift check refused the row
    (9798, 0.9369696199389296, 0.9337810803500551, 3.7259350267662246e175, "weights", "one_"),
    (1110, 0.518, 0.513, 21.9, "evaluate", "sin_damped"),  # the drift refusal at n = 1110
    (1000, 0.3, 0.2, 1.0, "weights", "one_"),  # p^999 = 0.0, a zero ratio denominator
    (1300, 0.541, 0.499, 1.0, "nodes", "one_"),  # [1300] = 5e-324 in q [1300]
    (1152, 0.5239484487080236, 0.5239484487080236, 1.0, "nodes", "one_"),  # not increasing
    (369, 0.7269044790530272, 0.13303575954974067, 1.0, "nodes", "one_"),  # t_369 off by 12%
    (610, 0.541, 0.499, 1.0, "moment_closed", "one_"),  # [n+1]^2 = 5e-324
    (610, 0.541, 0.499, 1.0, "delta_n", "one_"),
    (200, 0.1, 0.1, 0.7, "representation_rhs", "exp_neg"),  # gap divisor [200][201] q = 0.0
    (200, 0.5, 0.01, 1.0, "evaluate", "exp_neg"),  # node 182 beyond the doubles at (1, q/p)
    (1000, 0.1, 0.05, 1.0, "evaluate_stancu", "sin_damped"),  # gamma/p^1000 = 1e1000
)


def with_box_examples(test):
    for n, p, q, x, check, name in BOX_EXAMPLES:
        test = example(n=n, p=p, r=q / p, x=x, check=check, name=name, shift=(0.5, 1.5))(test)
    return test


def mp_evaluate(n, p, q, name, x, shift):
    """sum_k f(t_k) w_k(x) at MP_DIGITS digits from the oracles' unrounded nodes and weights."""
    mp = oracles._mp()
    f = oracles.MP_REGISTRY[name]
    with mp.workdps(oracles.MP_DIGITS):
        ts, ws = oracles._mp_nodes(n, p, q, shift), oracles._mp_weights(n, p, q, x)
        return float(mp.fsum(f(mp, t) * w for t, w in zip(ts, ws)))


@property_settings(40)
@given(
    n=st.floats(math.log(2.0), math.log(1500.0)).map(lambda v: round(math.exp(v))),
    p=st.floats(0.02, 1.0),
    r=st.floats(0.02, 1.0),
    x=st.floats(-6.0, 6.0).map(math.exp),
    check=st.sampled_from(BOX_CHECKS),
    name=registry,
    shift=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)
@with_box_examples
def test_the_whole_box_answers_or_refuses(n, p, r, x, check, name, shift):
    q = p * r
    shifted = check == "evaluate_stancu"
    spec = OperatorSpec(n, PqParams(p, q), StancuShift(*shift) if shifted else None)
    f = REGISTRY[name]
    if check in ("moment_closed", "delta_n"):
        # where [n+1]^nu is not normal these are taken at (1, q/p), within MP_TOL
        # of the oracle over the box (3.7e-15 the worst measured)
        checks = ((moment_closed(spec, 1, x), mp_closed_moment(1, n, p, q, x)),
                  (moment_closed(spec, 2, x), mp_closed_moment(2, n, p, q, x)))
        if check == "delta_n":
            checks = ((delta_n(spec, x), mp_delta(n, p, q, x)),)
        for got, want in checks:
            assert abs(got - want) <= MP_TOL * want
        return
    if check == "weights":
        assert_weights_near_the_oracle(spec, weights(spec, x).weights, mp_weights(n, p, q, x))
        return
    want_nodes = mp_nodes(n, p, q, shift if shifted else None)
    try:
        if check == "nodes":
            got = nodes(spec).values
        elif check == "representation_rhs":
            got = representation_rhs(spec, f, x)
        else:
            got = (evaluate_stancu if shifted else evaluate)(spec, f, x)
    except DomainError as err:
        if "collides" in str(err):  # px/q within 1e-9 of a node, as the oracle's nodes put it
            pivot = p * x / q
            assert min(abs(pivot - t) / (1.0 + t) for t in want_nodes) < 2e-9
        else:
            assert_the_oracle_confirms(err, spec, want_nodes)
        return
    if check == "nodes":
        assert_nodes_near_the_oracle(spec, got, want_nodes)
        return
    # both sums are differences of doubles of size up to the largest |f| at a node
    scale = max(abs(f(t)) for t in want_nodes if math.isfinite(t))
    if check == "representation_rhs":
        pivot = p * x / q
        scale = max(scale, abs(f(pivot)))
        gap = min([1.0] + [abs(pivot - t) / (1.0 + t) for t in want_nodes])
        want = mp_representation(n, p, q, name, x)
        assert abs(got - want) <= MP_REPRESENTATION_TOL * scale / gap
    else:
        want = mp_evaluate(n, p, q, name, x, shift if shifted else None)
        assert abs(got - want) <= MP_RATE_TOL * scale


def test_the_row_the_drift_check_refused_at_n_9798():
    # q^9799 is normal, so the row is at (p,q); the drift check refused it
    n, p, q, x = 9798, 0.9369696199389296, 0.9337810803500551, 3.7259350267662246e175
    got = weights(OperatorSpec(n, PqParams(p, q)), x).weights
    for g, w in zip(got, mp_weights(n, p, q, x)):
        if w > 1e-300:
            assert abs(g - w) <= 1e-13 * w


# -- the kernel's a-priori bound on the weights, up to n = 3e5 -----------------

U = 2.0**-53


def longdouble_weights(n, p, q, x):
    """w_0..w_n from the ratios [n-k]_r r^k x / [k+1]_r in numpy's longdouble, r = q/p.

    [i]_r is a cumsum of r^j and each term is the exp of a cumsum of log
    ratios, so the tables are the kernel's in exact arithmetic (the (1, r)
    form of _Kernel's) but share none of its roundings; on x86-64 the
    longdouble's 64-bit significand keeps them far inside the bound checked.
    """
    ld = np.longdouble
    r = ld(q) / ld(p)
    # [0]_r..[n+1]_r
    ints = np.concatenate(([ld(0.0)], np.cumsum(r ** np.arange(n + 1, dtype=ld))))
    k = np.arange(n, dtype=ld)
    log_ratio = k * np.log(r) + np.log(ints[n:0:-1]) + np.log(ld(x)) - np.log(ints[1:n + 1])
    log_terms = np.concatenate(([ld(0.0)], np.cumsum(log_ratio)))
    terms = np.exp(log_terms - log_terms.max())
    return terms / terms.sum()


def a_priori_bound(spec, x, want):
    """The bound of _Kernel's docstring on weights(spec, x), for the exact weights want."""
    kernel = _Kernel(spec)
    n = spec.n
    # from j0, the first k where num_k or num_k x is below the normal doubles,
    # a ratio is off by up to A, absolute
    num = np.float_power(kernel.q, np.arange(n)) * np.array(kernel.ints)[n:0:-1]
    tiny = (num < NORMAL_MIN) | (num * x < NORMAL_MIN)
    tail = float(want[int(tiny.argmax()):].max()) if tiny.any() else 0.0
    a = 2.0**-53 if (num >= NORMAL_MIN).all() else 2.0**-52
    return (6 * n + 40) * n * U * want + 2 * a * n * tail + 2.0**-1073


needs_longdouble = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                      reason="longdouble is no wider than a double")


@needs_longdouble
@property_settings(15)
@given(
    n=st.floats(0.0, math.log(3e5)).map(lambda v: round(math.exp(v))),
    depth=st.floats(0.0, 1.0),
    u=st.floats(0.0, 1.0),
    x=st.floats(-8.0, 8.0).map(math.exp),
)
@example(n=300_000, depth=0.0, u=0.0, x=1.0)  # p = q = 1
@example(n=300_000, depth=0.9789, u=0.0, x=1.0)  # p = q = 0.99769, as the drift check refused
@example(n=9798, depth=0.95, u=0.3, x=1e-3)  # num_k x below 2^-1022 from some k on
@example(n=300_000, depth=0.0, u=0.0, x=30.0)  # 4,432 rescales
def test_weights_are_within_the_a_priori_bound(n, depth, u, x):
    # q^(n+1) = NORMAL_MIN^depth is normal and p = q^u, so the kernel is at (p,q)
    q = NORMAL_MIN ** (depth / (n + 1))
    p = q**u
    spec = OperatorSpec(n, PqParams(p, q))
    got = np.array(weights(spec, x).weights)
    want = longdouble_weights(n, p, q, x)
    assert (np.abs(got - want) <= a_priori_bound(spec, x, want)).all()


@needs_longdouble
@pytest.mark.parametrize("n, p, q, x", [
    # at r = 0.02, r^k [n-k] is subnormal from k = 182 on while r^k [n-k] x
    # stays normal to k = 190: w_186 and w_190 are off by 1.1e-10 and 2.9e-4
    # relative, within the absolute part of the bound
    (200, 0.5, 0.01, 1e305),
    (200, 1.0, 0.02, 2.0**1022 / 201),  # p = 1 keeps its spec; the largest x of the bound
])
def test_routed_weights_at_large_x_are_within_the_a_priori_bound(n, p, q, x):
    spec = OperatorSpec(n, PqParams(p, q))
    got = np.array(weights(spec, x).weights)
    want = longdouble_weights(n, p, q, x)
    assert (np.abs(got - want) <= a_priori_bound(spec, x, want)).all()


# -- factorial-scale products: the left fold and the 60-digit values ---------

# p = NORMAL_MIN^(d/n^2) and q = p NORMAL_MIN^(e/n^2) put p^(n(n-1)/2), the
# scale of [n]! and of the Euler coefficients, anywhere from 1 to far below
# the doubles, on both sides of n = 150 (n^2 is taken as at least 6, so q > 0).
depths = st.floats(0.0, 3.0)


def scaled_params(n, d, e):
    p = NORMAL_MIN ** (d / max(n * n, 6))
    return p, p * NORMAL_MIN ** (e / max(n * n, 6))


def left_fold(values):
    """1.0 * v_0 * v_1 * ... in doubles, or None once a partial product is not normal."""
    out = 1.0
    for v in values:
        out *= v
        if not NORMAL_MIN <= out <= sys.float_info.max:
            return None
    return out


def ell_factors(n, x, p, q):
    """p^s + q^s x, s = 0..n-1, with p^s and q^s repeated products in doubles,
    or None once q^s (and so perhaps p^s) is not normal."""
    out, ppow, qpow = [], 1.0, 1.0
    for _ in range(n):
        if qpow < NORMAL_MIN:
            return None
        out.append(ppow + qpow * x)
        ppow *= p
        qpow *= q
    return out


@property_settings(150)
@given(
    n=st.integers(0, 400),
    d=depths,
    e=depths,
    k=st.floats(0.0, 1.0),
    x=st.just(0.0) | st.floats(-6.0, 6.0).map(lambda t: 10.0**t),
)
def test_products_match_the_left_fold(n, d, e, k, x):
    p, q = scaled_params(n, d, e)
    params = PqParams(p, q)
    ints = pq_integers(n, params)
    k = round(k * n)
    kk = min(k, n - k)
    num, den = left_fold(ints[n : n - kk : -1]), left_fold(ints[1 : kk + 1])
    factors = ell_factors(n, x, p, q)
    folds = (
        (lambda: pq_factorial(n, params), left_fold(ints[1:])),
        (lambda: pq_binomial(n, k, params), num and den and left_fold([num / den])),
        (lambda: pochhammer_ell(n, x, params),
         None if factors is None else left_fold(factors)),
        (lambda: log_pochhammer_ell(n, x, params),
         None if factors is None else math.fsum(map(math.log, factors))),
    )
    for compute, want in folds:
        if want is not None:
            assert compute().hex() == want.hex()


# Relative errors against the 60-digit values where those are normal
# doubles.  The worst measured, with n <= 2500 and these p and q, were
# 3.4e-13 for a factorial and 2.2e-12 for a binomial (3,000 specs; the
# deformed integers' own rounding dominates), and 4.8e-12 for an Euler
# coefficient (1,300 specs; its p^a and q^b come from a log2(p) once **
# leaves the normal doubles).  The bound is twice the worst.
MP_PRODUCT_TOL = 1e-11


def assert_near_the_oracle(got, want):
    """Relative error within MP_PRODUCT_TOL, and never 0.0 or inf where want is normal."""
    if NORMAL_MIN <= want <= sys.float_info.max:
        assert abs(got - want) <= MP_PRODUCT_TOL * want


@property_settings(60)
@given(n=st.integers(0, 2500), d=depths, e=depths, k=st.floats(0.0, 1.0))
@example(n=170, d=0.0, e=0.0, k=0.5)  # p = q = 1: 170! = 7.3e306, near the top
@example(n=2500, d=0.05, e=1e-3, k=0.3)
def test_factorial_and_binomial_match_the_mpmath_oracles(n, d, e, k):
    p, q = scaled_params(n, d, e)
    k = round(k * n)
    assert_near_the_oracle(pq_factorial(n, PqParams(p, q)), mp_factorial(n, p, q))
    assert_near_the_oracle(pq_binomial(n, k, PqParams(p, q)), mp_binomial(n, k, p, q))


@property_settings(16)
@given(n=st.integers(0, 2500), d=depths, e=depths)
@example(n=1100, d=0.0, e=0.0)  # p = q = 1: the classical binomials, the middle ones inf
def test_euler_coefficients_match_the_mpmath_oracle(n, d, e):
    p, q = scaled_params(n, d, e)
    for got, want in zip(euler_coefficients(n, PqParams(p, q)), mp_euler_coefficients(n, p, q)):
        assert_near_the_oracle(got, want)


# q = NORMAL_MIN^(c/n) and p = q^a put q^s, and with a near 1 also p^s, below
# the normal doubles from s = n/c, and x spans the doubles, so q^s x can be
# large where q^s is subnormal.  Measured over 400 specs with n <= 2500: a
# worst relative error of 2.1e-13 for the product (where it is a normal
# double) and 4.2e-14 for the log, relative to max(1, |log|).
MP_LOG_TOL = 1e-12


@property_settings(40)
@given(
    n=st.integers(0, 2500),
    c=st.floats(0.0, 3.0),
    a=st.floats(0.0, 1.0),
    x=st.just(0.0) | st.floats(-300.0, 300.0).map(lambda t: 10.0**t),
)
def test_rising_product_matches_the_mpmath_oracle(n, c, a, x):
    q = NORMAL_MIN ** (c / max(n, 1))
    p = q**a
    want, want_log = mp_pochhammer_ell(n, x, p, q)
    assert_near_the_oracle(pochhammer_ell(n, x, PqParams(p, q)), want)
    got_log = log_pochhammer_ell(n, x, PqParams(p, q))
    assert abs(got_log - want_log) <= MP_LOG_TOL * max(1.0, abs(want_log))


@pytest.mark.parametrize("q", [8.3e-4, 8.0e-4])
def test_rising_product_with_powers_below_the_doubles_matches_the_mpmath_oracle(q):
    # p^s and q^s are subnormal from s = 100 on, where q^s x is still about
    # 1e-148; repeated products in doubles gave 7.2486e26 and 3.70e-223
    # (log -512.17) here without an error
    want, want_log = mp_pochhammer_ell(106, 1e162, 8.3e-4, q)
    assert_near_the_oracle(pochhammer_ell(106, 1e162, PqParams(8.3e-4, q)), want)
    got_log = log_pochhammer_ell(106, 1e162, PqParams(8.3e-4, q))
    assert abs(got_log - want_log) <= MP_LOG_TOL * max(1.0, abs(want_log))


# -- the kernel against its scalar loop, bit for bit --------------------------
#
# Where q^n is a normal double the kernel is built at the caller's (p,q)
# and must give the loop's bits; elsewhere it is taken at (1, q/p), which the
# routed-domain and box properties above hold to the 60-digit oracles.

# p and r = q/p over the whole box, and near 1 where long rows rescale many times
box_p = st.one_of(unit, st.floats(0.95, 1.0))
box_r = st.one_of(unit, st.floats(0.9, 1.0))
kernel_points = st.one_of(st.just(0.0), st.floats(0.0, 60.0))


def outcome(compute):
    """(value, None) or (None, the DomainError or ArithmeticError raised)."""
    try:
        return compute(), None
    except (ValueError, ArithmeticError) as exc:
        return None, exc


def assert_same_outcome(got, want):
    """Same doubles by float.hex, or the same error type and message."""
    (value, error), (want_value, want_error) = got, want
    if want_error is None:
        assert error is None, error
        assert [float(v).hex() for v in value] == [v.hex() for v in want_value]
        return
    assert (type(error), str(error)) == (type(want_error), str(want_error))


def old_evaluate(spec, f, x):
    """evaluate's order (nodes, weights at x, f at the nodes) on the scalar loop."""
    table = stancu_nodes(spec) if spec.stancu is not None else nodes(spec)
    w = sequential_weights(spec.n, spec.params.p, spec.params.q, x)
    return sequential_sum(w, [float(f(t)) for t in table.values])


KERNEL_EXAMPLES = (
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024, 50.0),  # rescales in every segment
    (4096, 1.0, 1.0, 1e4),  # 160 rescales
    # the segment after the first rescale outruns row()'s window, and a rescale follows
    (1500, 1.0, 1.0, 0.5),
    (2, 0.9, 0.5, 1.7e308),  # term overflow
    (3, 0.9, 0.5, -1.0),  # invalid point
    (5, 0.7, 0.7, 3.0),  # diagonal q = p
)


def with_kernel_examples(test):
    for n, p, q, x in KERNEL_EXAMPLES:
        test = example(params=(n, p, q), x=x)(test)
    return test


@st.composite
def unrouted_params(draw, max_n):
    """(n, p, q) whose kernel is built at (p,q) itself, as q^n is normal by construction."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        # q^(n+1) = NORMAL_MIN^depth and p = q^u: p = 1 and q = p included
        q = NORMAL_MIN ** (draw(st.floats(0.0, 1.0)) / (n + 1))
        p = q ** draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    else:
        # p and r = q/p near 1, where long rows rescale many times; q >= 0.855,
        # so q^4097 is normal
        p = draw(st.floats(0.95, 1.0))
        q = p * draw(st.floats(0.9, 1.0))
    return n, p, q


# up to 1e4, where a row at n in the thousands rescales tens to hundreds of times
row_points = st.one_of(kernel_points, st.floats(0.0, math.log(1e4)).map(math.exp))


@property_settings(120)
@given(params=unrouted_params(4096), x=row_points)
@with_kernel_examples
def test_weights_match_the_sequential_loop(params, x):
    n, p, q = params
    spec = OperatorSpec(n, PqParams(p, q))
    assert unrouted(spec)
    assert_same_outcome(
        outcome(lambda: weights(spec, x).weights),
        outcome(lambda: sequential_weights(n, p, q, x)),
    )


NODE_EXAMPLES = (
    (1, 1.0, 5e-324, None),  # the last node overflows; p = 1 keeps the kernel at (p,q)
    (3, 0.9, 0.5, (-0.5, 0.0)),  # negative shifted nodes
    (2, 1.0, 1e-200, (-1.0, 0.0)),  # 0/0 at the last shifted node
)


def with_node_examples(test):
    for n, p, q, shift in NODE_EXAMPLES:
        test = example(params=(n, p, q), shift=shift)(test)
    return test


@property_settings(150)
@given(
    params=unrouted_params(1500),
    shift=st.none() | st.tuples(st.floats(-3.0, 3.0), st.just(0.0) | st.floats(0.0, 3.0)),
)
@with_node_examples
def test_nodes_match_the_sequential_loop(params, shift):
    n, p, q = params
    spec = OperatorSpec(n, PqParams(p, q), None if shift is None else StancuShift(*shift))
    assert unrouted(spec)

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
def test_evaluate_matches_the_sequential_reduction(n, p, r, x, name, shift):
    q = p * r
    if q == 0.0:
        return
    spec = OperatorSpec(n, PqParams(p, q), shift)
    if not unrouted(spec):
        return
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
# The sizes 201, 255 and 124 at n = 1298, 1024 and 2100 were the 2 MiB
# blocks of an earlier grid kernel; the grids keep them.  The first specs
# have a q^n that is not normal, so both paths run at (1, q/p).
BLOCK_EXAMPLES = (
    (1000, 0.3, 0.2, (0.0, 1.0, 2.0)),  # p^999 is 0.0, a zero ratio denominator at (p,q)
    (1110, 0.518, 0.513, (0.0, 0.5, 21.9, 60.0)),  # p^1109 [1] is subnormal at (p,q)
    (2, 0.9, 0.5, (0.0, 1.0, 1.7e308)),  # term overflow
    # q^k [n-k] is subnormal from k = 24 at (p,q); the last point rescales often
    (1298, 0.5912, 0.1823, tuple(0.4 * i for i in range(201 + 50)) + (1.99e26,)),
    (1298, 0.5912, 0.1823, (0.4, 0.0, 1.99e26, 0.8)),  # x = 0 between other points
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024, RATE_GRID),  # the rate command's grid
    (1024, 0.99, 0.98, tuple(0.05 * i for i in range(1, 255 + 2))),
    (2100, 0.999, 0.998, tuple(0.5 * i for i in range(124 + 8))),
    # the per-row path is the scalar one here; the terms rescale at 1e12 and 1e30
    (16, 0.7, 0.3, (0.0, 5e-324, 0.5, 21.9, 1e12, 1e30)),
    # unsorted: the three 40.0 points pass _RESCALE_AT at one k, not side by
    # side; a proven-quiet stretch ends just before
    (300, 0.99, 0.98, (40.0, 1.0, 40.0, 2.0, 40.0)),
    # the bound is exact for equal points: the stretch ends one row before the event
    (300, 0.99, 0.98, (40.0, 40.0)),
    # at (p,q) den_0 = p^619 [1] would be 0.0; at (1, q/p) num_0 x is 0.0 at 5e-324
    (620, 0.3, 0.25, (5e-324, 0.5, 5e-324)),
    # the rate command's grid at n = 2048, where 1,828 of the 2,001 points
    # rescale five times or more
    (2048, 1.0 - 0.25 / 2048, 1.0 - 0.5 / 2048, RATE_GRID),
    # at k = 299 the two outer points take their fourth rescale and the middle
    # one its fifth: one event whose points are not side by side
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024,
     (3.172933803617731, 6.921094010885347, 3.172933803617731)),
    # unsorted: the three 40.0 points rescale 15 times at the same rows, not
    # side by side, with 1.0 and 2.0 (two and four rescales) between them
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024, (40.0, 1.0, 40.0, 2.0, 40.0)),
    # every point rescales 13 times or more, its first and last included
    (1024, 1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024,
     tuple(50.0 - 0.1 * i for i in range(255 + 3))),
    # 1e15, 1e18 and 1e36 rescale 5, 7 and more times, at (1, q/p)
    (1024, 0.53, 0.34, (1e15, 1e18, 1e36)),
    # the larger points rescale 11 to 67 times, so their pending rescales
    # move up through the table's ranks many times over
    (4096, 1.0 - 0.25 / 4096, 1.0 - 0.5 / 4096, tuple(np.geomspace(0.01, 50.0, 12).tolist())),
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


def test_grid_sums_see_the_rows_that_rescales_made_tiny():
    # Node values 1 / w_k(40), at most 1e300, weigh the rows near x = 40
    # alike, so weights many rescales down move the sums as much as the
    # largest: replaying a point's rescales out of order changes their bits.
    # The 40.0 point rescales 15 times.
    kernel = _Kernel(OperatorSpec(1024, PqParams(1.0 - 0.25 / 1024, 1.0 - 0.5 / 1024)))
    fvals = np.array([1e300 if v < 1e-300 else 1.0 / v for v in kernel.row(40.0).tolist()])
    xs = tuple(40.0 * (1.0 + 1e-4 * i) for i in range(-20, 21))
    want = [_weighted_sum(kernel.row(x), fvals).hex() for x in xs]
    assert [v.hex() for v in kernel.weighted_sums(xs, fvals)] == want


def rescale_rows(n, p, q, x):
    """Each k at which the plain-float ratio loop rescales: term k+1 passed 1e100."""
    ints = sequential_integers(n, p, q)
    rows, term = [], 1.0
    for k in range(n):
        term *= q ** k * ints[n - k] * x / (p ** (n - 1 - k) * ints[k + 1])
        if term > 1e100:
            rows.append(k)
            term = 1.0
    return rows


@property_settings(40)
@given(
    n=st.integers(1, 4096),
    p=box_p,
    r=box_r,
    x=st.floats(0.0, 60.0) | st.floats(-5.0, 70.0).map(math.exp),
)
@example(n=1024, p=1.0 - 0.25 / 1024, r=(1.0 - 0.5 / 1024) / (1.0 - 0.25 / 1024), x=50.0)
@example(n=4096, p=1.0 - 0.25 / 4096, r=(1.0 - 0.5 / 4096) / (1.0 - 0.25 / 4096), x=50.0)
@example(n=2048, p=1.0 - 0.25 / 2048, r=(1.0 - 0.5 / 2048) / (1.0 - 0.25 / 2048), x=0.865)
@example(n=64, p=0.9, r=0.8 / 0.9, x=1e30)  # the scalar path, 16 rescales
@example(n=40, p=0.9, r=0.5 / 0.9, x=1e40)  # the scalar path, 12 rescales
def test_rows_at_or_below_the_fifth_last_rescale_are_zero(n, p, r, x):
    # Each term is at most 1e100 and each rescale divides it by more, so five
    # divisions leave 0.0: _step_sums keeps at most four pending rescales a
    # point and divides a row with five or more still to come by inf alone.
    q = p * r
    if q == 0.0 or not unrouted(OperatorSpec(n, PqParams(p, q))):
        return  # rescale_rows runs at (p,q)
    row, error = outcome(lambda: _Kernel(OperatorSpec(n, PqParams(p, q))).row(x))
    if error is not None:
        return
    rows = rescale_rows(n, p, q, x)
    if len(rows) >= pqbbh.operators._ZERO_AFTER:
        z = rows[-pqbbh.operators._ZERO_AFTER]
        assert [v for v in row[: z + 1] if v != 0.0] == []


def array_kernel(n, p, q):
    kernel = _Kernel(OperatorSpec(n, PqParams(p, q)))
    if kernel.scalar:
        kernel._build_arrays()  # as weighted_sums does
    return kernel


def test_ratio_maxima_match_the_full_table():
    # max over a row of fl(fl(num_k x) / den_k): bit for bit, inf for inf
    seen = set()
    for n, p, q, xs in BLOCK_EXAMPLES:
        kernel = array_kernel(n, p, q)
        x = np.array(xs)
        with np.errstate(all="ignore"):
            want = (np.multiply.outer(kernel.num, x) / kernel.den[:, None]).max(axis=1)
            got = kernel.num * x.max() / kernel.den  # as _step_totals takes it
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        seen.update(v.hex() for v in got.tolist() if not math.isfinite(v))
    # the term-overflow example reaches inf; no kernel has a zero den_k, so none is nan
    assert seen == {"inf"}


def test_an_overflowing_term_sends_the_grid_to_row(monkeypatch):
    kernel = array_kernel(2, 0.9, 0.5)
    xs = (0.0, 1.0, 1.7e308, 2.0)
    with np.errstate(all="ignore"):
        assert kernel._step_totals(np.array(xs)) is None
    rows = []
    row = _Kernel.row
    monkeypatch.setattr(_Kernel, "row", lambda self, x: rows.append(x) or row(self, x))
    with pytest.raises(DomainError, match="weight term 1 overflows"):
        kernel.weighted_sums(xs, np.ones(3))
    assert rows == [0.0, 1.0, 1.7e308]  # every point up to the refusal, in grid order


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
    (32, 1e-11, 1e-11, None, 1.0),  # at (p,q) p^31 is 0.0; at (1, q/p) = (1, 1)
    (2, 0.9, 0.45, None, 1.7e308),  # term overflow
    (32, 6e-11, 3e-11, None, 1.0),  # at (p,q) p^31 [1] is subnormal
    (32, 1.0, 1e-20, None, 3.0),  # node 16 overflows: q^16 [17] = 1e-320
    (64, 1e-5, 5e-6, (1.0, 0.5), 2.0),  # at (1, q/p) gamma/p^64 is beyond the doubles
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


@property_settings(60)
@given(
    n=st.integers(1, 2500),
    p=box_p,
    r=box_r | st.just(1.0),
)
@example(n=2500, p=1.0, r=1.0)  # p = q = 1: every power is 1.0
@example(n=400, p=0.93, r=1.0)  # the diagonal p = q
# (1, q/p) = (1, 0.02): r^j is subnormal from j = 182 and 0.0 from j = 191
@example(n=300, p=0.5, r=0.02)
@example(n=1, p=0.9, r=0.5)  # the smallest scalar degree
@example(n=64, p=0.93, r=0.7)  # the largest scalar degree
def test_array_tables_match_python_powers(n, p, r):
    q = p * r
    if q == 0.0:
        return
    kernel = _Kernel(OperatorSpec(n, PqParams(p, q)))
    if kernel.scalar:
        kernel._build_arrays()  # as weighted_sums builds them at a scalar degree
    params = kernel.spec.params  # (1, q/p) where q^n is not normal
    tables = ((params.p, kernel._ppow, kernel.ppow), (params.q, kernel._qpow, kernel.qpow))
    for base, table, floats in tables:
        want = [(base ** j).hex() for j in range(n + 2)]
        assert [v.hex() for v in table.tolist()] == want
        assert {type(v) for v in floats} == {float}  # refusal messages show plain floats
        assert [v.hex() for v in floats] == want
    want = [v.hex() for v in pq_integers(n + 1, params)]
    assert [v.hex() for v in kernel._ints.tolist()] == want


# -- np.float_power is the C library's pow, as math.pow takes it --------------
#
# The array path takes every power through np.float_power: the tables p^j and
# q^j, ^ on a node array and the moment power u^nu.  Its float64 loop calls
# pow at each element, where np.power may take a SIMD loop of its own (5% of
# table entries differ on AVX-512) and a fast square (u*u).  These pin the
# float_power of the installed numpy to math.pow on each of those domains:
# the bits of every value, and the flag by which _on_array's np.errstate
# refuses where math.pow raises.

POW_FLAGS = {ValueError: ("invalid", "divide"), OverflowError: ("over",)}


def assert_float_power_is_math_pow(a, b):
    xs, ys = (v.ravel().tolist() for v in np.broadcast_arrays(np.asarray(a, float), b))
    with np.errstate(all="ignore"):
        got = np.float_power(a, b).ravel().tolist()
    kept = []
    for x, y, g in zip(xs, ys, got):
        try:
            want = math.pow(x, y)
        except (ValueError, OverflowError) as exc:
            flags = dict.fromkeys(POW_FLAGS[type(exc)], "raise")
            with np.errstate(all="ignore", **flags), pytest.raises(FloatingPointError):
                np.float_power(np.array([x]), np.array([y]))
            continue
        assert g.hex() == want.hex(), (x, y)
        kept.append((x, y))
    # where math.pow gives a double, numpy raises none of _on_array's flags
    with np.errstate(all="ignore", over="raise", divide="raise", invalid="raise"):
        np.float_power(*np.array(kept).reshape(-1, 2).T)


@property_settings(40)
@given(base=unit)
@example(base=1.0)
@example(base=0.5)  # exact powers, subnormal from j = 1023 and 0.0 from j = 1075
@example(base=1e-160)  # subnormal at j = 2 and 0.0 after it
@example(base=0.01)
@example(base=1.0 - 2.0 ** -53)
def test_float_power_tables_are_math_pow(base):
    assert_float_power_is_math_pow(base, np.arange(5001.0))  # as _Kernel._build_arrays


@property_settings(150)
@given(
    us=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16),
    nu=st.sampled_from([0.0, 1.0, 2.0]),
)
# glibc's pow(u, 2.0) is one ulp below u*u at t = 9.707462555075702
@example(us=[9.707462555075702 / (1.0 + 9.707462555075702)], nu=2.0)
@example(us=[1e200, -1e200, 5e-324, -0.0], nu=2.0)  # overflow, and a square below the doubles
def test_float_power_moment_powers_are_math_pow(us, nu):
    assert_float_power_is_math_pow(np.array(us), nu)  # as cli._metric_power


finite = st.floats(allow_nan=False, allow_infinity=False)


@property_settings(300)
@given(pairs=st.lists(
    st.tuples(finite | st.sampled_from([0.0, -0.0, -1.0, -2.0, 5e-324, 1e300]),
              finite | st.integers(-4, 4).map(float) | st.sampled_from([0.5, -0.5, 1 / 3])),
    min_size=1, max_size=16))
@example(pairs=[(-8.0, 1 / 3), (0.0, -1.0), (-0.0, -3.0), (1e200, 2.0), (2.0, -1075.0)])
def test_float_power_pairs_are_math_pow(pairs):
    a, b = np.array(pairs).T
    assert_float_power_is_math_pow(a, b)  # as ^ on a node array
    assert_float_power_is_math_pow(a, b[0])  # an exponent without t


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
