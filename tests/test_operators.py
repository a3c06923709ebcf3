import math
import random

import pytest

from pqbbh import (
    DomainError,
    EvaluationError,
    OperatorSpec,
    PqParams,
    StancuShift,
    divided_difference,
    evaluate,
    evaluate_stancu,
    nodes,
    pq_integers,
    representation_rhs,
    stancu_nodes,
    weights,
)
from oracles import brute_operator, classical_bbh_evaluate, q_bbh_evaluate

CLASSICAL = PqParams(1.0, 1.0)
MIXED = PqParams(0.9, 0.5)


def random_params(rng, q_lo=0.05):
    q = rng.uniform(q_lo, 1.0)
    return PqParams(rng.uniform(q, 1.0), q)


class TestSpecValidation:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            OperatorSpec(0, CLASSICAL)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            StancuShift(0.0, -0.5)

    def test_rejects_non_finite_gamma(self):
        with pytest.raises(ValueError):
            StancuShift(math.inf, 0.0)


class TestNodes:
    def test_first_node_is_zero(self):
        for spec in (OperatorSpec(4, MIXED), OperatorSpec(7, CLASSICAL)):
            assert nodes(spec).values[0] == 0.0

    def test_classical_nodes(self):
        # reduces to k/(n-k+1)
        assert nodes(OperatorSpec(2, CLASSICAL)).values == (0.0, 0.5, 2.0)

    def test_frozen_example(self):
        # 0.9 * 1.4 / (1 * 0.25)
        assert nodes(OperatorSpec(2, MIXED)).values[2] == pytest.approx(5.04, abs=1e-12)

    def test_strictly_increasing(self):
        rng = random.Random(5)
        for _ in range(100):
            spec = OperatorSpec(rng.randint(1, 80), random_params(rng))
            vals = nodes(spec).values
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_max_node_metadata(self):
        spec = OperatorSpec(6, MIXED)
        table = nodes(spec)
        ints = pq_integers(6, MIXED)
        assert table.max_node == table.values[-1]
        assert table.max_node == pytest.approx(0.9 * ints[6] / 0.5 ** 6, rel=1e-13)

    def test_limit_mode_matches_classical(self):
        for p in (0.6, 0.9):
            vals = nodes(OperatorSpec(5, PqParams(p, p))).values
            for k, v in enumerate(vals):
                assert v == pytest.approx(k / (5 - k + 1), rel=1e-13)

    def test_rejects_stancu_spec(self):
        with pytest.raises(ValueError):
            nodes(OperatorSpec(2, MIXED, StancuShift(1.0)))

    def test_overflow_names_the_underflowed_factor(self):
        # q^1 is fine; [1300] sits at the smallest subnormal
        with pytest.raises(DomainError, match=r"q\^1 \[1300\] = 0\.499 \* 5e-324 is 0\.0"):
            nodes(OperatorSpec(1300, PqParams(0.541, 0.499)))

    def test_infinite_node_rejected(self):
        with pytest.raises(DomainError, match="node 1 overflows"):
            nodes(OperatorSpec(1, PqParams(1.0, 5e-324)))


class TestStancuNodes:
    def test_zero_shift_collapses_to_base(self):
        spec = OperatorSpec(5, MIXED, StancuShift(0.0, 0.0))
        base = nodes(OperatorSpec(5, MIXED))
        assert stancu_nodes(spec).values == base.values

    def test_frozen_example(self):
        spec = OperatorSpec(1, CLASSICAL, StancuShift(1.0, 1.0))
        assert stancu_nodes(spec).values == pytest.approx((1.0 / 3.0, 1.0))

    def test_shift_relation_example(self):
        # p^2 [1] + q [2] = 0.81 + 0.7 = [3]
        ints = pq_integers(3, MIXED)
        assert 0.9 ** 2 * ints[1] + 0.5 * ints[2] == pytest.approx(ints[3], abs=1e-14)

    def test_node_sum_identity(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 60)
            pp = random_params(rng, q_lo=0.2)
            for beta in (0.0, 0.5, 2.0):
                ints = pq_integers(n + 1, pp)
                for k in range(n + 1):
                    lhs = pp.p ** (n - k + 1) * ints[k] + (pp.q ** k * ints[n - k + 1] + beta)
                    assert abs(lhs - (ints[n + 1] + beta)) <= 1e-12

    def test_negative_nodes_flagged(self):
        spec = OperatorSpec(3, MIXED, StancuShift(-0.5, 0.0))
        table = stancu_nodes(spec)
        assert table.negative
        assert all(table.values[k] < 0 for k in table.negative)
        assert all(table.values[k] >= 0 for k in range(4) if k not in table.negative)

    def test_requires_shift(self):
        with pytest.raises(ValueError):
            stancu_nodes(OperatorSpec(2, MIXED))


class TestWeights:
    def test_all_mass_at_origin(self):
        table = weights(OperatorSpec(4, MIXED), 0.0)
        assert table.weights == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_classical_binomial_weights(self):
        table = weights(OperatorSpec(2, CLASSICAL), 1.0)
        assert table.weights == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_frozen_example(self):
        table = weights(OperatorSpec(2, MIXED), 1.0)
        want = (0.9 / 2.8, 1.4 / 2.8, 0.5 / 2.8)
        assert table.weights == pytest.approx(want, abs=1e-14)

    def test_partition_of_unity(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 120)
            spec = OperatorSpec(n, random_params(rng))
            x = rng.uniform(0.0, 100.0)
            w = weights(spec, x).weights
            assert len(w) == n + 1
            assert all(v >= 0.0 for v in w)
            assert abs(math.fsum(w) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [8, 200])
    def test_weights_are_python_floats_for_a_numpy_point(self, n):
        np = pytest.importorskip("numpy")
        w = weights(OperatorSpec(n, MIXED), np.float64(1.5)).weights
        assert {type(v) for v in w} == {float}

    def test_rejects_negative_point(self):
        with pytest.raises(DomainError):
            weights(OperatorSpec(2, MIXED), -1.0)

    def test_zero_ratio_denominator_raises(self):
        # p^999 underflows to 0
        with pytest.raises(DomainError, match="degree 1000 too large for p=0.3"):
            weights(OperatorSpec(1000, PqParams(0.3, 0.2)), 1.0)

    def test_term_overflow_raises(self):
        with pytest.raises(DomainError, match="weight term 1 overflows for n=2"):
            weights(OperatorSpec(2, MIXED), 1.7e308)

    def test_drift_names_the_subnormal_denominator(self):
        # p^1109 [1] = 0.518^1109 is already subnormal at k = 0
        with pytest.raises(
            ArithmeticError,
            match=r"drifted from the rising product at n=1110, x=21\.9: ratio denominator "
            r"p\^1109 \[1\] = .+ is subnormal at k=0 \(p=0\.518, q=0\.513\)",
        ):
            weights(OperatorSpec(1110, PqParams(0.518, 0.513)), 21.9)

    def test_drift_names_the_subnormal_numerator(self):
        # every p^(n-1-k) [k+1] is normal; q^24 [1274] is the first subnormal q^k [n-k]
        # (q^23 [1275] = 2.2e-308 is still normal)
        with pytest.raises(
            ArithmeticError,
            match=r"drifted from the rising product at n=1298, x=1\.99e\+26: ratio numerator "
            r"q\^24 \[1274\] = 6\.869432807773663e-309 is subnormal at k=24 "
            r"\(p=0\.5912, q=0\.1823\)",
        ):
            weights(OperatorSpec(1298, PqParams(0.5912, 0.1823)), 1.99e26)


class TestEvaluate:
    def test_constant_reproduced(self):
        rng = random.Random(37)
        for _ in range(40):
            spec = OperatorSpec(rng.randint(1, 60), random_params(rng, q_lo=0.2))
            x = rng.uniform(0.0, 40.0)
            assert evaluate(spec, lambda t: 1.0, x) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_example(self):
        got = evaluate(OperatorSpec(2, CLASSICAL), lambda t: t / (1 + t), 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_invalid_point_raised_before_f_is_sampled(self):
        with pytest.raises(DomainError, match="evaluation point must be finite and >= 0"):
            evaluate(OperatorSpec(4, MIXED), lambda t: math.nan, -1.0)

    def test_zero_sum_is_positive_zero(self):
        # as from an accumulator that starts at 0.0
        got = evaluate(OperatorSpec(6, MIXED), lambda t: -0.0, 2.0)
        assert math.copysign(1.0, got) == 1.0

    def test_origin_returns_f0(self):
        assert evaluate(OperatorSpec(5, MIXED), lambda t: math.cos(t), 0.0) == 1.0

    def test_matches_brute_oracle(self):
        rng = random.Random(41)
        f = lambda t: math.exp(-t) + t / (1 + t)
        for _ in range(60):
            n = rng.randint(1, 25)
            pp = random_params(rng, q_lo=0.25)
            x = rng.uniform(0.0, 12.0)
            got = evaluate(OperatorSpec(n, pp), f, x)
            want = brute_operator(f, n, pp.p, pp.q, x)
            assert got == pytest.approx(want, rel=1e-11)

    def test_linearity(self):
        rng = random.Random(59)
        f = lambda t: math.sin(t) / (1 + t)
        g = lambda t: t / (1 + t)
        for _ in range(30):
            spec = OperatorSpec(rng.randint(1, 40), random_params(rng, q_lo=0.2))
            x = rng.uniform(0.0, 20.0)
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            combo = evaluate(spec, lambda t: a * f(t) + b * g(t), x)
            parts = a * evaluate(spec, f, x) + b * evaluate(spec, g, x)
            assert combo == pytest.approx(parts, abs=1e-12 * (1 + abs(a) + abs(b)))

    def test_positivity(self):
        rng = random.Random(61)
        f = lambda t: (math.sin(3 * t) + 1.0) / (1 + t)
        for _ in range(40):
            spec = OperatorSpec(rng.randint(1, 40), random_params(rng, q_lo=0.2))
            assert evaluate(spec, f, rng.uniform(0.0, 30.0)) >= 0.0

    def test_non_finite_value_names_node(self):
        with pytest.raises(EvaluationError, match="node 0"):
            evaluate(OperatorSpec(2, MIXED), lambda t: math.nan, 1.0)

    def test_q_reduction(self):
        rng = random.Random(67)
        f = lambda t: t / (1 + t)
        g = lambda t: math.exp(-t)
        for _ in range(50):
            n = rng.randint(1, 30)
            q = rng.uniform(0.3, 0.99)
            x = rng.uniform(0.0, 10.0)
            spec = OperatorSpec(n, PqParams(1.0, q))
            for func in (f, g):
                got = evaluate(spec, func, x)
                want = q_bbh_evaluate(func, n, q, x)
                assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_classical_reduction(self):
        rng = random.Random(71)
        f = lambda t: math.exp(-t)
        for _ in range(50):
            n = rng.randint(1, 40)
            x = rng.uniform(0.0, 15.0)
            got = evaluate(OperatorSpec(n, CLASSICAL), f, x)
            want = classical_bbh_evaluate(f, n, x)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))


class TestEvaluateStancu:
    def test_requires_shift(self):
        with pytest.raises(ValueError):
            evaluate_stancu(OperatorSpec(2, MIXED), lambda t: t, 1.0)

    def test_frozen_example(self):
        spec = OperatorSpec(1, CLASSICAL, StancuShift(1.0, 1.0))
        got = evaluate_stancu(spec, lambda t: t, 1.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_zero_shift_equals_base(self):
        rng = random.Random(73)
        f = lambda t: t / (1 + t)
        for _ in range(30):
            n = rng.randint(1, 40)
            pp = random_params(rng, q_lo=0.2)
            x = rng.uniform(0.0, 20.0)
            base = evaluate(OperatorSpec(n, pp), f, x)
            shifted = evaluate_stancu(OperatorSpec(n, pp, StancuShift(0.0, 0.0)), f, x)
            assert abs(shifted - base) <= 1e-12 * (1 + abs(base))

    def test_constant_unchanged_by_shift(self):
        spec = OperatorSpec(6, MIXED, StancuShift(2.5, 1.5))
        assert evaluate_stancu(spec, lambda t: 1.0, 3.0) == pytest.approx(1.0, abs=1e-13)


class TestDividedDifference:
    def test_first_order_square(self):
        assert divided_difference([0.0, 1.0], lambda t: t * t) == 1.0

    def test_second_order_square(self):
        assert divided_difference([0.0, 1.0, 2.0], lambda t: t * t) == 1.0

    def test_reciprocal(self):
        assert divided_difference([1.0, 2.0], lambda t: 1.0 / t) == -0.5

    def test_symmetry(self):
        f = lambda t: math.exp(-t)
        a = divided_difference([0.5, 1.5, 4.0], f)
        b = divided_difference([4.0, 0.5, 1.5], f)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            divided_difference([1.0], lambda t: t)
        with pytest.raises(ValueError):
            divided_difference([1.0, 2.0, 3.0, 4.0], lambda t: t)

    def test_rejects_coincident_points(self):
        with pytest.raises(DomainError):
            divided_difference([1.0, 1.0 + 1e-12], lambda t: t)

    def test_samples_each_point_once(self):
        calls = []

        def f(t):
            calls.append(t)
            return t * t

        assert divided_difference([0.0, 1.0, 2.0], f) == 1.0
        assert calls == [0.0, 1.0, 2.0]

    def test_non_finite_value_names_the_point(self):
        with pytest.raises(EvaluationError, match=r"at point 1 \(t=2\.0\)"):
            divided_difference([1.0, 2.0], lambda t: math.inf if t == 2.0 else t)


class TestRepresentation:
    def test_hand_case(self):
        # L_1(t; 2) - f(2) = 2/3 - 2 = -4/3
        got = representation_rhs(OperatorSpec(1, CLASSICAL), lambda t: t, 2.0)
        assert got == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_constant_vanishes(self):
        got = representation_rhs(OperatorSpec(4, MIXED), lambda t: 7.5, 3.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_difference(self):
        rng = random.Random(83)
        for _ in range(60):
            n = rng.randint(1, 8)
            pp = random_params(rng, q_lo=0.4)
            x = rng.uniform(0.05, 10.0)
            coeffs = [rng.uniform(-2, 2) for _ in range(4)]
            f = lambda t, c=coeffs: sum(ci * t ** i for i, ci in enumerate(c))
            try:
                rhs = representation_rhs(OperatorSpec(n, pp), f, x)
            except DomainError:
                continue  # pivot fell on a node; resampling is the caller's job
            lhs = evaluate(OperatorSpec(n, pp), f, x) - f(pp.p * x / pp.q)
            assert abs(rhs - lhs) <= 1e-9 * (1 + abs(lhs))

    def test_node_gap_identity(self):
        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(1, 60)
            pp = random_params(rng, q_lo=0.3)
            vals = nodes(OperatorSpec(n, pp)).values
            ints = pq_integers(n + 1, pp)
            for k in range(n):
                gap = (
                    pp.p ** (n - k)
                    * ints[n + 1]
                    / (ints[n - k] * ints[n - k + 1] * pp.q ** (k + 1))
                )
                assert abs((vals[k + 1] - vals[k]) - gap) <= 1e-12 * (1 + vals[k + 1])

    def test_collision_rejected_with_node_name(self):
        # p = q = 1 and x = 1 puts the pivot exactly on node 1
        with pytest.raises(DomainError, match="node 1"):
            representation_rhs(OperatorSpec(1, CLASSICAL), lambda t: t, 1.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            representation_rhs(OperatorSpec(2, MIXED), lambda t: t, 0.0)

    def test_rejects_stancu_spec(self):
        with pytest.raises(ValueError):
            representation_rhs(OperatorSpec(2, MIXED, StancuShift(1.0)), lambda t: t, 2.0)

    def test_samples_pivot_and_nodes_once(self):
        calls = []

        def f(t):
            calls.append(t)
            return math.exp(-t)

        spec = OperatorSpec(8, MIXED)
        representation_rhs(spec, f, 1.7)
        assert calls == [MIXED.p * 1.7 / MIXED.q, *nodes(spec).values]

    def test_underflowing_gap_divisor_raises_before_calling_f(self):
        # [3][4] q underflows to 0: ZeroDivisionError after sampling f before the check
        calls = []
        spec = OperatorSpec(3, PqParams(1.0422776544377814e-100, 1.0422776544377814e-100))
        with pytest.raises(DomainError, match=r"gap divisor \[3\]\[4\] q\^1 = 0\.0 .* k=0"):
            representation_rhs(spec, lambda t: calls.append(t) or 0.0, 1293.2239477425098)
        assert calls == []

    def test_non_finite_at_pivot_is_named(self):
        pivot = MIXED.p * 1.7 / MIXED.q
        with pytest.raises(EvaluationError, match="at pivot 0"):
            representation_rhs(
                OperatorSpec(8, MIXED), lambda t: math.nan if t == pivot else t, 1.7
            )
