import math
import random
import sys

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
from pqbbh.expressions import ExpressionDomainError, as_function, parse_expression
from pqbbh.functions import REGISTRY
from pqbbh.operators import _sample
from oracles import (
    brute_operator,
    classical_bbh_evaluate,
    mp_nodes,
    mp_representation,
    mp_weights,
    q_bbh_evaluate,
)

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

    def test_a_spec_whose_q_power_is_not_normal_takes_its_nodes_at_the_ratio(self):
        # refused before, with [1300] at the smallest subnormal: q^1301 is 0.0,
        # so the nodes are those of (1, q/p), where t_1300 is about 1.7e46
        spec = OperatorSpec(1300, PqParams(0.541, 0.499))
        got = nodes(spec).values
        assert got == nodes(OperatorSpec(1300, PqParams(1.0, 0.499 / 0.541))).values
        for g, w in zip(got, mp_nodes(1300, 0.541, 0.499)):
            assert abs(g - w) <= 1e-12 * w

    def test_infinite_node_rejected(self):
        with pytest.raises(DomainError, match="node 1 overflows"):
            nodes(OperatorSpec(1, PqParams(1.0, 5e-324)))

    def test_a_node_beyond_the_doubles_at_the_ratio_is_named(self):
        # q^201 is 0.0, and at r = q/p = 0.02 node 182 = [182]_r / (r^182 [19]_r)
        # is about 1.7e309
        with pytest.raises(DomainError, match=r"node 182 overflows: its denominator r\^182 "
                           r"\[19\] = .* \(at r = q/p = 0\.02 for p=0\.5, q=0\.01\)"):
            nodes(OperatorSpec(200, PqParams(0.5, 0.01)))
        assert mp_nodes(200, 0.5, 0.01)[182] == math.inf

    @pytest.mark.parametrize("shift", [(1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (-1e-9, 1e-300)])
    def test_a_shift_beyond_the_doubles_at_the_ratio_keeps_its_nodes(self, shift):
        # q^1001 is 0.0, so the nodes are taken at (1, q/p), where the shift
        # would be divided by p^1000 = 1e-1000; both halves of each node are
        # divided by the larger part of the shift instead
        spec = OperatorSpec(1000, PqParams(0.1, 0.05), StancuShift(*shift))
        want = mp_nodes(1000, 0.1, 0.05, shift)
        if shift[1] == 0.0:  # then node k is about gamma 2^k 1e-999: beyond the doubles
            with pytest.raises(DomainError, match="node 0 overflows"):
                stancu_nodes(spec)
            assert want[0] == math.inf
            return
        for g, w in zip(stancu_nodes(spec).values, want):
            assert abs(g - w) <= 1e-14 * abs(w)

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

    @pytest.mark.parametrize("n, p, q, x", [(256, 0.26, 0.21, 30.0), (375, 0.7658, 0.3677, 1e-3)])
    def test_a_caller_raising_on_underflow_gets_the_same_row(self, n, p, q, x):
        # the rows hold subnormal weights, which the final division makes
        np = pytest.importorskip("numpy")
        spec = OperatorSpec(n, PqParams(p, q))
        want = weights(spec, x).weights
        with np.errstate(all="raise"):
            got = weights(spec, x).weights
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_zero_ratio_denominator_is_taken_at_the_ratio(self):
        # refused before, as p^999 underflows to 0; q^1001 is 0.0, so the
        # weights are those of (1, q/p), where every ratio denominator is >= 1
        got = weights(OperatorSpec(1000, PqParams(0.3, 0.2)), 1.0).weights
        assert got == weights(OperatorSpec(1000, PqParams(1.0, 0.2 / 0.3)), 1.0).weights
        tol = 5e-12 + 7e-17 * 1000**2  # the routed bound of tests/test_properties.py
        for g, w in zip(got, mp_weights(1000, 0.3, 0.2, 1.0)):
            if w >= 1e-300:
                assert abs(g - w) <= tol * w

    def test_term_overflow_raises(self):
        with pytest.raises(DomainError, match="weight term 1 overflows for n=2"):
            weights(OperatorSpec(2, MIXED), 1.7e308)

    @pytest.mark.parametrize("n, p, q, x", [
        (1110, 0.518, 0.513, 21.9),  # p^1109 [1] is subnormal
        (1298, 0.5912, 0.1823, 1.99e26),  # q^24 [1274] is the first subnormal q^k [n-k]
    ])
    def test_subnormal_ratio_halves_are_taken_at_the_ratio(self, n, p, q, x):
        # both raised the normalizer's drift ArithmeticError before; q^n is
        # not normal, so the weights are those of (1, q/p)
        got = weights(OperatorSpec(n, PqParams(p, q)), x).weights
        assert got == weights(OperatorSpec(n, PqParams(1.0, q / p)), x).weights
        tol = 5e-12 + 7e-17 * n * n  # the routed bound of tests/test_properties.py
        for g, w in zip(got, mp_weights(n, p, q, x)):
            if w >= 1e-300:
                assert abs(g - w) <= tol * w

    def test_a_row_whose_drift_check_refused_it_answers(self):
        # every table entry is normal, yet the log-space drift check refused
        # this row (and the one at x = 30): its rounding of log c_0 = -1.0e8
        # was one ulp, 1.5e-8
        spec = OperatorSpec(300_000, PqParams(0.9976926736789953, 0.9976926736789953))
        assert 0.9976926736789953 ** 300_001 >= sys.float_info.min
        got = weights(spec, 0.01).weights
        want = weights(OperatorSpec(300_000, PqParams(1.0, 1.0)), 0.01).weights
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13 * max(want)


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

    @pytest.mark.parametrize("points, name", [
        ([math.inf, math.inf], "inf"),
        ([1.0, math.nan], "nan"),
        ([0.0, 1.0, -math.inf], "-inf"),
    ])
    def test_rejects_a_non_finite_abscissa_before_calling_f(self, points, name):
        calls = []
        with pytest.raises(DomainError, match=rf"^abscissa {name} is not finite$"):
            divided_difference(points, calls.append)
        assert calls == []

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


class TestSample:
    TS = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    def recording(self, value):
        """A function of t that records each t it is called at and returns value(i, t)."""
        calls = []

        def f(t):
            calls.append(t)
            return value(len(calls) - 1, t)

        return f, calls

    def test_calls_f_once_per_point_in_order(self):
        f, calls = self.recording(lambda i, t: t * t)
        assert _sample(f, self.TS, "node") == [t * t for t in self.TS]
        assert calls == self.TS

    def test_values_become_floats(self):
        vals = _sample(lambda t: int(t), (1.0, 2.0), "node")
        assert vals == [1.0, 2.0] and all(type(v) is float for v in vals)

    def test_nan_names_its_index_and_point(self):
        f, calls = self.recording(lambda i, t: math.nan if i == 3 else t)
        with pytest.raises(EvaluationError) as info:
            _sample(f, self.TS, "node")
        assert str(info.value) == "function returned nan at node 3 (t=3.5)"
        assert calls == self.TS  # each point once, the ones after the nan too

    def test_nan_before_a_raise_is_refused_first(self):
        def f(t):
            if t == 3.5:
                return math.inf
            if t == 5.5:
                raise ZeroDivisionError("later")
            return t

        with pytest.raises(EvaluationError, match=r"^function returned inf at node 3 \(t=3\.5\)$"):
            _sample(f, self.TS, "node")

    def test_an_arithmetic_error_names_its_point(self):
        f, calls = self.recording(lambda i, t: 1.0 / (t - 2.5))
        with pytest.raises(EvaluationError) as info:
            _sample(f, self.TS, "node")
        assert str(info.value) == (
            "function raised ZeroDivisionError (float division by zero) at node 2 (t=2.5)")
        assert type(info.value.__cause__) is ZeroDivisionError
        assert calls == self.TS[:3]

    def test_a_value_error_names_its_point(self):
        with pytest.raises(EvaluationError, match=r"^function raised ValueError \(math domain "
                                                  r"error\) at point 1 \(t=-1\.0\)$"):
            _sample(math.sqrt, (4.0, -1.0, -2.0), "point")

    @pytest.mark.parametrize("error", [
        DomainError("refused"), ExpressionDomainError("refused"), MemoryError(), TypeError("no"),
    ])
    def test_other_exceptions_pass_unchanged(self, error):
        def f(t):
            if t == 2.5:
                raise error
            return t

        with pytest.raises(type(error)) as info:
            _sample(f, self.TS, "node")
        assert info.value is error

    @pytest.mark.parametrize("ts", [TS, tuple(TS)], ids=["list", "tuple"])
    def test_a_list_calls_f_at_each_point_and_never_at_points(self, ts):
        f, calls = self.recording(lambda i, t: t * t)
        f.at_points = lambda ts: pytest.fail("at_points called on a list")
        assert _sample(f, ts, "node") == [t * t for t in self.TS]
        assert calls == self.TS

    def test_overflowing_exp_at_a_stancu_node_names_it(self):
        # a large negative Stancu node: math.exp overflows on the list path at n = 64,
        # and at n = 200 once the array's values are not kept
        for n, k in ((64, 3), (200, 0)):
            spec = OperatorSpec(n, MIXED, StancuShift(-0.5, 0.0))
            t = stancu_nodes(spec).values[k]
            with pytest.raises(EvaluationError) as info:
                evaluate(spec, REGISTRY["exp_neg"], 1.0)
            assert str(info.value) == (
                f"function raised OverflowError (math range error) at node {k} (t={t!r})")

    def test_values_whose_sum_overflows_are_kept(self):
        assert _sample(lambda t: 1e308, [1.0, 2.0], "node") == [1e308, 1e308]

    def test_expression_gives_the_per_point_bits(self):
        f = as_function(parse_expression("cos(t)*exp(-t/4)+log(1+t)/(2+t)^2"))
        got = _sample(f, self.TS, "node")
        assert list(map(float.hex, got)) == [float.hex(f(t)) for t in self.TS]


class TestSampleArray:
    """_sample on a float64 array: the values and the first refusal of the same list."""

    TS = [0.0, 5e-324, 0.5, 1.0, 2.5, 30.0, 1e300]

    @staticmethod
    def outcome(f, ts):
        calls = []

        def traced(t):
            calls.append(t)
            return f(t)

        if hasattr(f, "at_points"):
            traced.at_points = f.at_points if f.at_points is not f else traced
        try:
            vals = _sample(traced, ts, "node")
        except Exception as exc:  # noqa: BLE001 -- the refusal is the outcome
            return type(exc), str(exc), calls
        vals = vals.tolist() if hasattr(vals, "tolist") else vals
        return list(map(float.hex, vals)), calls

    @pytest.fixture(autouse=True)
    def numpy(self):
        self.np = pytest.importorskip("numpy")

    def same_as_the_list(self, f, ts):
        on_list = self.outcome(f, ts)
        on_array = self.outcome(f, self.np.array(ts))
        assert on_array[:-1] == on_list[:-1]
        return on_array, on_list

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registry_function_gives_the_list_bits_in_one_call(self, name):
        (values, calls), _ = self.same_as_the_list(REGISTRY[name], self.TS)
        assert len(calls) == 1 and len(values) == len(self.TS)

    @pytest.mark.parametrize("name, ts, error", [
        ("bbh_metric", [0.5, -1.0, 2.0, -1.0], ZeroDivisionError),
        ("bbh_metric_sq", [0.5, 2.0, -1.0], ZeroDivisionError),
        ("sin_damped", [0.5, -1.0], ZeroDivisionError),
        ("exp_neg", [0.5, -800.0, -1e300], OverflowError),
    ])
    def test_registry_refusal_is_the_lists_first(self, name, ts, error):
        on_array, on_list = self.same_as_the_list(REGISTRY[name], ts)
        t = next(t for t in ts if t == -1.0 or t < -709)  # the first point where f raises
        assert on_array[0] is EvaluationError
        assert on_array[1].startswith(f"function raised {error.__name__} (")
        assert on_array[1].endswith(f"at node {ts.index(t)} (t={t!r})")
        assert on_array[2][-len(on_list[2]):] == on_list[2]  # the list's calls, after the array's

    def test_callable_without_array_support_sees_each_float_once(self):
        f = lambda t: 1.0 / (t - 2.5)  # noqa: E731
        on_array, on_list = self.same_as_the_list(f, self.TS)
        assert on_array[0] is EvaluationError
        assert on_array[2] == on_list[2] == self.TS[:5]
        assert all(type(t) is float for t in on_array[2])
        (values, calls), _ = self.same_as_the_list(lambda t: t * t, self.TS[:4])
        assert calls == self.TS[:4]

    def test_callable_returning_nan_is_named_as_on_the_list(self):
        f = lambda t: math.nan if t == 2.5 else t  # noqa: E731
        on_array, _ = self.same_as_the_list(f, self.TS)
        assert on_array[:2] == (EvaluationError, "function returned nan at node 4 (t=2.5)")

    def test_expression_refusal_is_the_lists_first(self):
        f = as_function(parse_expression("log(t-1)"))
        on_array, _ = self.same_as_the_list(f, self.TS)
        assert on_array[:2] == (
            ExpressionDomainError, "log of -1.0 is undefined in 'log(t-1.0)' at t=0.0")
        self.same_as_the_list(f, self.TS[5:])


# the expressions of the benchmark's point queries
POOL = ("t/(1+t)", "abs(sin(t))/(1+t)", "exp(-t)", "1/(1+t^2)", "sqrt(t)/(1+t)",
        "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2")


class TestArrayDegreeEvaluate:
    """Above _SCALAR_DEGREE evaluate samples f on the node array, with a plain callable's bits."""

    @staticmethod
    def outcome(spec, f, x):
        try:
            return float.hex(evaluate(spec, f, x))
        except Exception as exc:  # noqa: BLE001 -- the refusal is the outcome
            return type(exc), str(exc)

    def same_as_plain(self, spec, f, xs=(0.0, 0.7, 12.0)):
        plain = lambda t: f(t)  # noqa: E731 -- no at_points: one float at a time
        got = [self.outcome(spec, f, x) for x in xs]
        assert got == [self.outcome(spec, plain, x) for x in xs]
        return got

    @pytest.mark.parametrize("shift", [None, StancuShift(0.5, 1.5)], ids=["base", "stancu"])
    @pytest.mark.parametrize("n", [65, 150, 1024])
    @pytest.mark.parametrize("name", [*POOL, *(f"registry:{r}" for r in sorted(REGISTRY))])
    def test_same_bits_as_a_plain_callable(self, name, n, shift):
        f = (REGISTRY[name[9:]] if name.startswith("registry:")
             else as_function(parse_expression(name)))
        spec = OperatorSpec(n, PqParams(1.0 - 0.25 / n, 1.0 - 0.5 / n), shift)
        assert all(isinstance(v, str) for v in self.same_as_plain(spec, f))

    @pytest.mark.parametrize("n, kind", [(64, tuple), (65, "ndarray"), (1024, "ndarray")])
    def test_at_points_sees_the_nodes_once(self, n, kind):
        # at n <= 64 the nodes are a tuple: f at each node, and at_points never
        f, seen, calls = as_function(parse_expression("t/(1+t)")), [], []
        traced = lambda t: calls.append(t) or f(t)  # noqa: E731
        traced.at_points = lambda ts: seen.append(ts) or f.at_points(ts)
        spec = OperatorSpec(n, PqParams(1.0 - 0.25 / n, 1.0 - 0.5 / n))
        assert evaluate(spec, traced, 0.7) == evaluate(spec, f, 0.7)
        if kind is tuple:
            assert seen == [] and tuple(calls) == nodes(spec).values
            return
        assert len(seen) == 1 and type(seen[0]).__name__ == kind and calls == []
        assert tuple(seen[0]) == nodes(spec).values

    @pytest.mark.parametrize("n", [65, 150, 1024])
    @pytest.mark.parametrize("text", ["log(t)", "sqrt(t)"])
    def test_negative_stancu_node_is_refused_as_today(self, text, n):
        spec = OperatorSpec(n, PqParams(1.0 - 0.25 / n, 1.0 - 0.5 / n), StancuShift(-0.5, 0.0))
        got = self.same_as_plain(spec, as_function(parse_expression(text)))
        node = stancu_nodes(spec).values[0]  # gamma / (q^0 [n+1]), below zero
        name = text[:-3]
        assert got == [(ExpressionDomainError,
                        f"{name} of {node!r} is undefined in '{text}' at t={node!r}")] * 3


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

    def test_underflowing_gap_divisor_is_taken_at_the_ratio(self):
        # [3][4] q is 0.0: refused before, and ZeroDivisionError before that;
        # q^4 is 0.0 too, so the representation is the classical one at (1, 1)
        p = 1.0422776544377814e-100
        x = 1293.2239477425098
        f = REGISTRY["exp_neg"]
        got = representation_rhs(OperatorSpec(3, PqParams(p, p)), f, x)
        assert got == representation_rhs(OperatorSpec(3, CLASSICAL), f, x)
        assert got == pytest.approx(mp_representation(3, p, p, "exp_neg", x), rel=1e-13)

    def test_a_gap_divisor_that_is_not_normal_routes_the_representation(self):
        # q^201 = 1e-201 is normal, but [200][201] q is 0.0, so the
        # representation's own gate takes it at (1, q/p) = (1, 1)
        f = REGISTRY["exp_neg"]
        got = representation_rhs(OperatorSpec(200, PqParams(0.1, 0.1)), f, 0.7)
        assert got == representation_rhs(OperatorSpec(200, CLASSICAL), f, 0.7)
        assert got == pytest.approx(mp_representation(200, 1.0, 1.0, "exp_neg", 0.7), rel=1e-10)

    def test_non_finite_at_pivot_is_named(self):
        pivot = MIXED.p * 1.7 / MIXED.q
        with pytest.raises(EvaluationError, match="at pivot 0"):
            representation_rhs(
                OperatorSpec(8, MIXED), lambda t: math.nan if t == pivot else t, 1.7
            )
