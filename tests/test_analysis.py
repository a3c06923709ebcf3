import math
import random
import sys
import warnings

import pytest

import pqbbh.analysis
import pqbbh.cli
import pqbbh.operators
from pqbbh import (
    DomainError,
    EvaluationError,
    GridSpec,
    HarmonicSchedule,
    LipschitzClass,
    OperatorSpec,
    PointSet,
    PqParams,
    StancuShift,
    convergence_report,
    delta_n,
    distance_to_set,
    evaluate,
    evaluate_stancu,
    korovkin_discrepancy,
    lipschitz_bound,
    lipschitz_constant_estimate,
    modulus_estimate,
    moment_closed,
    nodes,
    param_schedule,
    pq_integers,
    rate_bound_check,
    representation_rhs,
    stancu_bound,
    stancu_bound_report,
    stancu_nodes,
    sup_delta,
)
from pqbbh.functions import REGISTRY, bbh_metric, bbh_metric_sq
from oracles import mp_closed_moment, mp_delta, mp_rate_lhs

CLASSICAL = PqParams(1.0, 1.0)


def random_params(rng, q_lo=0.05):
    q = rng.uniform(q_lo, 1.0)
    return PqParams(rng.uniform(q, 1.0), q)


BASE = OperatorSpec(2, CLASSICAL)
SHIFTED = OperatorSpec(2, CLASSICAL, StancuShift(1.0, 0.5))
GRID = GridSpec((0.0, 1.0))
EVERYWHERE = LipschitzClass(1.0, 1.0, PointSet.nonneg_reals())

# every entry point that serves one variant, called with a spec of the other
WRONG_VARIANT = {
    "nodes": lambda: nodes(SHIFTED),
    "stancu_nodes": lambda: stancu_nodes(BASE),
    "evaluate_stancu": lambda: evaluate_stancu(BASE, bbh_metric, 1.0),
    "representation_rhs": lambda: representation_rhs(SHIFTED, bbh_metric, 1.0),
    "moment_closed": lambda: moment_closed(SHIFTED, 1, 1.0),
    "korovkin_discrepancy": lambda: korovkin_discrepancy(SHIFTED, 1, GRID),
    "delta_n": lambda: delta_n(SHIFTED, 1.0),
    "sup_delta": lambda: sup_delta(SHIFTED, GRID),
    "rate_bound_check": lambda: rate_bound_check(SHIFTED, bbh_metric, GRID),
    "lipschitz_bound": lambda: lipschitz_bound(SHIFTED, EVERYWHERE, 1.0),
    "stancu_bound_report": lambda: stancu_bound_report(BASE, 1.0, 1.0),
    "stancu_bound": lambda: stancu_bound(BASE, 1.0, 1.0),
}


VARIANT_REFUSAL = r"^{}\(\) requires (a spec with a StancuShift|a base-variant spec)$"


@pytest.mark.parametrize("name", sorted(WRONG_VARIANT))
def test_wrong_variant_names_the_function_called(name):
    with pytest.raises(ValueError, match=VARIANT_REFUSAL.format(name)):
        WRONG_VARIANT[name]()


class TestSchedule:
    def test_frozen_example(self):
        pp = param_schedule(HarmonicSchedule(0.25, 0.5), 4)
        assert (pp.p, pp.q) == (0.9375, 0.875)

    @pytest.mark.parametrize("a,b", [(0.5, 0.25), (0.5, 0.5), (0.0, 0.5), (0.25, 1.0)])
    def test_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            HarmonicSchedule(a, b)

    def test_tends_to_one(self):
        sch = HarmonicSchedule(0.25, 0.5)
        pp = sch.params_for(100000)
        assert pp.p > 0.999996 and pp.q > 0.999994
        assert 0.0 < pp.q < pp.p <= 1.0

    def test_valid_from_degree_one(self):
        pp = HarmonicSchedule(0.25, 0.5).params_for(1)
        assert 0.0 < pp.q < pp.p <= 1.0


class TestGridSpec:
    def test_default_shape(self):
        grid = GridSpec.default()
        assert len(grid.xs) == 2001
        assert grid.xs[0] == 0.0
        assert grid.x_max == 50.0
        assert grid.u_max == pytest.approx(50.0 / 51.0)
        assert all(a <= b for a, b in zip(grid.xs, grid.xs[1:]))

    def test_small_x_max_is_uniform(self):
        grid = GridSpec.default(x_max=2.0, points=5)
        assert grid.xs == pytest.approx((0.0, 0.5, 1.0, 1.5, 2.0))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            GridSpec((1.0, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GridSpec((-1.0, 0.5))

    @pytest.mark.parametrize("xs, message", [
        ((), "grid must be nonempty"),
        ((0.0, 1.0, math.inf), "grid points must be finite and >= 0, got inf"),
        ((0.0, math.nan, 1.0), "grid points must be finite and >= 0, got nan"),
        ((0.5, -0.25, 1.0), "grid points must be finite and >= 0, got -0.25"),
        ((0.0, 2.0, 1.0, -1.0), "grid points must be sorted ascending"),  # the first bad point
        ((0.0, 1.0, 3.0, -1.0), "grid points must be finite and >= 0, got -1.0"),
    ])
    def test_refusal_names_the_first_bad_point(self, xs, message):
        with pytest.raises(ValueError) as info:
            GridSpec(xs)
        assert str(info.value) == message

    @pytest.mark.parametrize("xs", [(-0.0, 0.0, 1.0, 1.0), (0.0, 1e308, 1.7e308)],
                             ids=["ties-and-negative-zero", "sum-overflows"])
    def test_accepts_a_valid_grid(self, xs):
        assert GridSpec(xs).xs == xs

    def test_a_point_that_is_no_number_is_refused_where_the_loop_meets_it(self):
        with pytest.raises(ValueError, match="sorted"):
            GridSpec((1.0, 0.5, "x"))
        with pytest.raises(TypeError):
            GridSpec((0.5, "x", 0.25))


class TestMoments:
    def test_partition(self):
        assert moment_closed(OperatorSpec(7, PqParams(0.8, 0.6)), 0, 3.0) == 1.0

    def test_first_moment_example(self):
        got = moment_closed(OperatorSpec(2, CLASSICAL), 1, 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_second_moment_example(self):
        got = moment_closed(OperatorSpec(2, CLASSICAL), 2, 1.0)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_matches_operator(self):
        rng = random.Random(97)
        for _ in range(100):
            spec = OperatorSpec(rng.randint(1, 60), random_params(rng))
            x = rng.uniform(0.0, 20.0)
            for nu in (1, 2):
                closed = moment_closed(spec, nu, x)
                brute = evaluate(spec, lambda t, nu=nu: (t / (1 + t)) ** nu, x)
                assert abs(closed - brute) <= 1e-10 * (1 + abs(closed))

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            moment_closed(OperatorSpec(2, CLASSICAL), 3, 1.0)

    def test_rejects_stancu(self):
        with pytest.raises(ValueError):
            moment_closed(OperatorSpec(2, CLASSICAL, StancuShift(1.0)), 1, 1.0)


class TestDelta:
    def test_zero_at_origin(self):
        assert delta_n(OperatorSpec(9, PqParams(0.9, 0.7)), 0.0) == 0.0

    def test_frozen_value(self):
        got = delta_n(OperatorSpec(2, CLASSICAL), 1.0)
        assert abs(got - 1.0 / 12.0) <= 1e-14

    def test_centered_moment_consistency(self):
        rng = random.Random(103)
        for _ in range(200):
            spec = OperatorSpec(rng.randint(1, 60), random_params(rng))
            x = rng.uniform(0.0, 20.0)
            u = x / (1 + x)
            oracle = (
                moment_closed(spec, 2, x) - 2 * u * moment_closed(spec, 1, x) + u * u
            )
            d = delta_n(spec, x)
            assert abs(d - oracle) <= 1e-10
            assert d >= -1e-14

    def test_matches_operator_second_moment(self):
        rng = random.Random(107)
        for _ in range(50):
            spec = OperatorSpec(rng.randint(1, 40), random_params(rng, q_lo=0.2))
            x = rng.uniform(0.0, 15.0)
            u = x / (1 + x)
            brute = evaluate(spec, lambda t: (t / (1 + t) - u) ** 2, x)
            assert abs(delta_n(spec, x) - brute) <= 1e-12


class TestKorovkin:
    def test_nu_zero_exact(self):
        grid = GridSpec.default()
        assert korovkin_discrepancy(OperatorSpec(9, CLASSICAL), 0, grid) == 0.0

    def test_classical_value(self):
        # (1 - n/(n+1)) max x/(1+x) = 0.1 * 50/51
        grid = GridSpec.default()
        got = korovkin_discrepancy(OperatorSpec(9, CLASSICAL), 1, grid)
        assert got == pytest.approx(0.1 * 50.0 / 51.0, rel=1e-12)

    def test_decay_along_schedule(self):
        grid = GridSpec.default()
        sch = HarmonicSchedule(0.25, 0.5)
        small = korovkin_discrepancy(OperatorSpec(256, sch.params_for(256)), 1, grid)
        large = korovkin_discrepancy(OperatorSpec(16, sch.params_for(16)), 1, grid)
        assert small < large

    def test_report_rows(self):
        grid = GridSpec.default(x_max=10.0, points=101)
        sch = HarmonicSchedule(0.25, 0.5)
        rep = convergence_report(sch, [4, 16], grid)
        assert [r.n for r in rep.rows] == [4, 16]
        for row in rep.rows:
            spec = OperatorSpec(row.n, PqParams(row.p, row.q))
            assert row.disc1 == korovkin_discrepancy(spec, 1, grid)
            assert row.sup_delta == sup_delta(spec, grid)
            assert row.disc0 == 0.0


class TestModulus:
    def test_metric_is_identity(self):
        grid = GridSpec.default()
        for delta in (0.05, 0.25, 0.7):
            est = modulus_estimate(bbh_metric, delta, grid)
            assert est <= delta + 1e-12
            assert est >= delta - 2.0 * grid.u_max / 8000

    def test_constant_is_zero(self):
        assert modulus_estimate(lambda t: 4.2, 0.5, GridSpec.default()) == 0.0

    def test_metric_squared_analytic(self):
        grid = GridSpec.default(x_max=999.0)
        est = modulus_estimate(bbh_metric_sq, 0.1, grid, points=20001)
        want = (2.0 * grid.u_max - 0.1) * 0.1  # sup of |u^2 - v^2|, |u - v| <= 0.1
        assert est == pytest.approx(want, abs=1e-3)

    def test_monotone_in_delta(self):
        grid = GridSpec.default()
        f = REGISTRY["sin_damped"]
        deltas = (0.01, 0.05, 0.1, 0.3, 0.6, 0.95, 1.0, math.inf)
        values = [modulus_estimate(f, d, grid) for d in deltas]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == values[-2]  # both span the whole grid, u_max < 1

    def test_subadditive_on_grid(self):
        # exact on the uniform transformed grid when the deltas are grid multiples
        grid = GridSpec.default()
        points = 2001
        h = grid.u_max / (points - 1)
        f = REGISTRY["exp_neg"]
        for i, j in ((10, 25), (40, 40), (7, 93)):
            a = modulus_estimate(f, i * h, grid, points=points)
            b = modulus_estimate(f, j * h, grid, points=points)
            c = modulus_estimate(f, (i + j) * h, grid, points=points)
            assert c <= a + b + 1e-12

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            modulus_estimate(bbh_metric, 0.0, GridSpec.default())

    def test_non_finite_value_raises(self):
        def f(t):
            return math.nan if t > 1.0 else t

        with pytest.raises(EvaluationError, match="at modulus grid point"):
            modulus_estimate(f, 0.1, GridSpec.default())

    @pytest.mark.parametrize(
        "grid, delta",
        [(GridSpec((0.0,)), 0.1), (GridSpec((1e17,)), 1e-9), (GridSpec((0.0, 1e-320)), 0.1)],
    )
    def test_grid_end_outside_the_open_unit_interval_raises(self, grid, delta):
        # u_max = 0 leaves no grid step; 1e17/(1 + 1e17) rounds to u_max = 1;
        # the step 1e-320/8000 underflows to 0.0
        with pytest.raises(DomainError, match="transformed grid end"):
            modulus_estimate(math.sin, delta, grid)


def window_ranges_brute(g: list[float], w_top: int) -> list[float]:
    """max |g_i - g_j| over |i - j| <= w for w = 0..w_top, pair by pair in Python floats."""
    size = len(g)
    return [max(abs(g[j] - g[i]) for i in range(size) for j in range(i, min(i + w + 1, size)))
            for w in range(w_top + 1)]


class TestWindowRanges:
    """analysis._window_ranges against an O(N W) brute force, bit for bit."""

    @staticmethod
    def check(g: list[float], w_top: int) -> list[float]:
        import numpy as np

        got = pqbbh.analysis._window_ranges(np.array(g), w_top)
        assert list(map(float.hex, got)) == list(map(float.hex, window_ranges_brute(g, w_top)))
        return got

    def test_random_arrays(self):
        rng = random.Random(24)
        for _ in range(60):
            size = rng.randint(2, 40)
            scale = 10.0 ** rng.randint(-300, 300)
            g = [rng.gauss(0.0, 1.0) * scale for _ in range(size)]
            self.check(g, rng.randint(0, size - 1))

    @pytest.mark.parametrize("value", [0.0, -0.0, 3.5, -1e308])
    def test_constant_arrays(self, value):
        self.check([value] * 9, 8)

    @pytest.mark.parametrize("g", [
        [-3.0, -3.0, -1.5, 0.0, 0.0, 0.0, 2.25, 2.25, 7.0, 1e10],  # nondecreasing, plateaus
        [5e300, 1e300, 2.0, 0.5, 0.5, -1.0, -1e300],  # nonincreasing
        [-1.7e308, -1e308, 0.0, 1e308, 1.7e308],  # rising, differences overflow to inf
        [0.0, -0.0, 0.0],  # both nondecreasing and nonincreasing by comparison
        [0.0, 1.0, 9.0, 0.5, 1.0],  # one step back, the widest difference at w = 1
    ])
    def test_monotone_and_nearly_monotone_arrays(self, g):
        # the sign rule reads one side of a monotone g's differences
        self.check(g, len(g) - 1)

    @pytest.mark.parametrize("g", [[1.0, 2.5], [2.5, 1.0], [-1e-320, 1e-320], [0.0, -0.0]])
    def test_two_points(self, g):
        self.check(g, 1)

    def test_widest_window_is_the_whole_array(self):
        self.check([math.sin(i) * 1e3 for i in range(31)], 30)

    def test_differences_beyond_the_doubles_are_inf(self):
        big = 1.7e308
        g = [big, -big, 0.5 * big, -0.9 * big, big, 1.0, -big, big * 0.99]
        assert self.check(g, len(g) - 1)[1] == math.inf


class TestRateBound:
    @pytest.mark.parametrize("f", [REGISTRY["sin_damped"], REGISTRY["exp_neg"], bbh_metric])
    def test_records_are_the_columns(self, f):
        spec = OperatorSpec(96, HarmonicSchedule(0.25, 0.5).params_for(96))
        grid = GridSpec.default(x_max=30.0, points=301)
        points = rate_bound_check(spec, f, grid)
        columns = pqbbh.analysis._rate_columns(spec, f, grid)
        assert list(map(len, columns)) == [len(points)] * 4
        for pt, row in zip(points, zip(*columns)):
            assert list(map(type, row)) == [float, float, float, bool]
            assert list(map(float.hex, row[:3])) == [pt.x.hex(), pt.lhs.hex(), pt.rhs.hex()]
            assert pt.passed is row[3]

    def test_constant_is_flat(self):
        grid = GridSpec.default(x_max=8.0, points=101)
        spec = OperatorSpec(5, PqParams(0.95, 0.9))
        for pt in rate_bound_check(spec, lambda t: 3.0, grid):
            assert pt.lhs <= 1e-11  # weight-sum roundoff only
            assert pt.rhs == 0.0
            assert pt.passed

    def test_metric_closed_form(self):
        # lhs reduces to |p[n]/[n+1] - 1| x/(1+x), which 2 sqrt(delta_n) dominates
        sch = HarmonicSchedule(0.25, 0.5)
        spec = OperatorSpec(8, sch.params_for(8))
        grid = GridSpec.default()
        gap = abs(moment_closed(spec, 1, 1.0) / (0.5) - 1.0)
        for pt in rate_bound_check(spec, bbh_metric, grid):
            u = pt.x / (1 + pt.x)
            assert pt.lhs == pytest.approx(gap * u, abs=1e-12)
            assert pt.lhs <= 2.0 * math.sqrt(max(delta_n(spec, pt.x), 0.0)) + 1e-9
            assert pt.passed

    def test_registry_sample(self):
        sch = HarmonicSchedule(0.25, 0.5)
        spec = OperatorSpec(32, sch.params_for(32))
        grid = GridSpec.default()
        pts = rate_bound_check(spec, REGISTRY["sin_damped"], grid)
        assert len(pts) == 2001
        assert all(pt.passed for pt in pts)

    def test_non_finite_at_node_names_the_node(self):
        # finite on the modulus grid (t <= 2), infinite at the nodes beyond 10
        spec = OperatorSpec(8, PqParams(0.9, 0.5))
        k = next(i for i, t in enumerate(nodes(spec).values) if t > 10.0)

        def f(t):
            return 1.0 / (1.0 + t) if t <= 10.0 else math.inf

        with pytest.raises(EvaluationError, match=rf"at node {k} \(t="):
            rate_bound_check(spec, f, GridSpec((0.0, 1.0, 2.0)))

    def test_lhs_is_evaluate_minus_f(self):
        spec = OperatorSpec(6, PqParams(0.9, 0.7))
        f = REGISTRY["sin_damped"]
        for pt in rate_bound_check(spec, f, GridSpec((0.0, 0.3, 1.0, 2.5, 7.0))):
            assert pt.lhs == abs(evaluate(spec, f, pt.x) - f(pt.x))

    def test_non_finite_at_grid_point_names_the_grid_point(self):
        # NaN only at x = 1.3, which is neither a node nor on the modulus grid
        spec = OperatorSpec(8, PqParams(0.9, 0.5))
        assert 1.3 not in nodes(spec).values

        def f(t):
            return math.nan if t == 1.3 else 1.0 / (1.0 + t)

        with pytest.raises(EvaluationError, match=r"at grid point 2 \(t=1\.3\)"):
            rate_bound_check(spec, f, GridSpec((0.0, 1.0, 1.3, 2.0)))

    @pytest.mark.parametrize("n", [8, pqbbh.operators._SCALAR_DEGREE])
    def test_scalar_degree_points_hold_python_floats_and_bools(self, n):
        # a numpy scalar here would print the pass column as 1, not true
        spec = OperatorSpec(n, PqParams(0.9, 0.7))
        for pt in rate_bound_check(spec, REGISTRY["exp_neg"], GridSpec((0.0, 0.5, 3.0))):
            assert (type(pt.lhs), type(pt.rhs), type(pt.passed)) == (float, float, bool)

    def test_grid_of_the_origin_alone_raises(self):
        with pytest.raises(DomainError, match="transformed grid end"):
            rate_bound_check(OperatorSpec(4, PqParams(0.9, 0.7)), math.sin, GridSpec((0.0,)))

    def test_grid_whose_modulus_step_underflows_raises_before_f_is_called(self):
        def f(t):
            raise AssertionError(f"f called at {t!r}")

        with pytest.raises(DomainError, match="transformed grid end 1e-320"):
            rate_bound_check(OperatorSpec(4, PqParams(0.9, 0.7)), f, GridSpec((0.0, 1e-320)))

    def test_builds_the_integer_table_once(self, monkeypatch):
        # the kernel and the closed forms read the spec's [0]..[n+1]
        calls = []

        def counting(n, params):
            calls.append(n)
            return pq_integers(n, params)

        monkeypatch.setattr(pqbbh.operators, "pq_integers", counting)
        spec = OperatorSpec(16, PqParams(0.95, 0.9))
        rate_bound_check(spec, REGISTRY["sin_damped"], GridSpec((0.0, 1.0, 2.0)))
        assert calls == [17]


class TestPointSet:
    def test_membership_distance(self):
        e = PointSet(((0.0, 1.0),))
        assert distance_to_set(0.5, e) == 0.0
        assert distance_to_set(3.0, e) == 2.0

    def test_union_example(self):
        e = PointSet(((0.0, 1.0), (5.0, 6.0)))
        assert distance_to_set(3.2, e) == pytest.approx(1.8, abs=1e-15)

    def test_merges_overlaps(self):
        e = PointSet(((0.0, 2.0), (1.0, 3.0), (7.0, 8.0)))
        assert e.intervals == ((0.0, 3.0), (7.0, 8.0))

    def test_one_lipschitz(self):
        e = PointSet(((0.5, 1.0), (4.0, 4.0), (9.0, 12.0)))
        xs = [0.1 * i for i in range(150)]
        for a, b in zip(xs, xs[1:]):
            assert abs(distance_to_set(a, e) - distance_to_set(b, e)) <= (b - a) + 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(())

    def test_distance_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            distance_to_set(math.nan, PointSet.nonneg_reals())


class TestLipschitz:
    def test_halfline_reduces_to_delta_power(self):
        spec = OperatorSpec(2, CLASSICAL)
        cls = LipschitzClass(1.0, 1.0, PointSet.nonneg_reals())
        got = lipschitz_bound(spec, cls, 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-14)

    def test_point_set_with_zero_distance(self):
        spec = OperatorSpec(2, CLASSICAL)
        cls = LipschitzClass(1.0, 1.0, PointSet.points([1.0]))
        assert lipschitz_bound(spec, cls, 1.0) == pytest.approx(
            math.sqrt(1.0 / 12.0), abs=1e-14
        )

    def test_distance_term_enters(self):
        spec = OperatorSpec(2, CLASSICAL)
        cls = LipschitzClass(2.0, 0.5, PointSet.points([0.0]))
        got = lipschitz_bound(spec, cls, 1.0)
        want = 2.0 * ((1.0 / 12.0) ** 0.25 + 2.0 * 1.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_constant_estimate_metric(self):
        assert lipschitz_constant_estimate(bbh_metric, 1.0, GridSpec.default()) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_constant_estimate_constant(self):
        assert lipschitz_constant_estimate(lambda t: 2.0, 0.5, GridSpec.default()) == 0.0

    def test_constant_estimate_metric_squared(self):
        grid = GridSpec.default()
        got = lipschitz_constant_estimate(bbh_metric_sq, 1.0, grid)
        assert got < 2.0
        assert got == pytest.approx(2.0 * grid.u_max, abs=1e-3)

    def test_constant_estimate_overflowing_difference_is_inf(self):
        # finite samples 1e308 and -1e308 differ by more than the largest double
        def f(t):
            return 1e308 if t < 1.0 else -1e308

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lipschitz_constant_estimate(f, 1.0, GridSpec((0.0, 0.5, 2.0, 3.0)))
        assert got == math.inf

    def test_constant_estimate_non_finite_value_raises(self):
        def f(t):
            return math.nan if t == 2.0 else t

        with pytest.raises(EvaluationError, match=r"at grid point 2 \(t=2\.0\)"):
            lipschitz_constant_estimate(f, 1.0, GridSpec((0.0, 1.0, 2.0, 3.0)))


class TestStancuBound:
    def test_frozen_value(self):
        spec = OperatorSpec(2, CLASSICAL, StancuShift(1.0, 0.0))
        rep = stancu_bound_report(spec, 1.0, 1.0)
        assert rep.terms[0] == pytest.approx(0.25, abs=1e-15)
        assert rep.terms[1] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert rep.terms[2] == pytest.approx(-1.0 / 9.0, abs=1e-14)
        assert abs(rep.bound - 0.75) <= 1e-14
        assert not rep.degenerate

    def test_degenerate_zero_case(self):
        for gamma, alpha in ((0.0, 1.0), (-0.0, 1.0), (-0.0, 0.5)):
            spec = OperatorSpec(2, CLASSICAL, StancuShift(gamma, 0.0))
            rep = stancu_bound_report(spec, 1.0, alpha)
            # +0.0, not -0.0, for either sign of gamma
            assert math.copysign(1.0, rep.terms[0]) == math.copysign(1.0, rep.bound) == 1.0
            assert rep.bound == 0.0
            assert rep.degenerate

    @pytest.mark.parametrize("m_const, message", [
        (math.inf, "M must be finite, got inf"),  # the bound was nan at n = 2, p = q = 1
        (0.0, "M must be positive, got 0.0"),
        (math.nan, "M must be positive, got nan"),
    ])
    def test_refuses_m_not_positive_and_finite(self, m_const, message):
        spec = OperatorSpec(2, CLASSICAL, StancuShift(0.0, 0.0))
        for fn in (stancu_bound_report, stancu_bound):
            with pytest.raises(ValueError) as info:
                fn(spec, m_const, 0.5)
            assert str(info.value) == message

    def test_linear_in_m(self):
        spec = OperatorSpec(3, PqParams(0.9, 0.8), StancuShift(1.5, 0.5))
        one = stancu_bound(spec, 1.0, 0.75)
        assert stancu_bound(spec, 4.0, 0.75) == pytest.approx(4.0 * one, rel=1e-14)

    def test_rejects_nonpositive_shifted_normalizer(self):
        spec = OperatorSpec(2, CLASSICAL, StancuShift(-10.0, 0.0))
        with pytest.raises(DomainError):
            stancu_bound(spec, 1.0, 1.0)

    def test_negative_gamma_fractional_alpha_rejected(self):
        spec = OperatorSpec(2, CLASSICAL, StancuShift(-0.5, 0.0))
        with pytest.raises(DomainError, match="first max term"):
            stancu_bound(spec, 1.0, 0.5)

    def test_negative_gamma_alpha_one_allowed(self):
        spec = OperatorSpec(2, CLASSICAL, StancuShift(-0.5, 0.0))
        assert math.isfinite(stancu_bound(spec, 1.0, 1.0))

    def test_requires_shift(self):
        with pytest.raises(ValueError):
            stancu_bound(OperatorSpec(2, CLASSICAL), 1.0, 1.0)


class TestUnderflowingDivisor:
    """[n+1] shrinks like p^n; once [n+1]^nu leaves the normal doubles the
    closed forms over it have no correct digits left at (p,q), and are
    taken at (1, q/p), where M1 and delta_n are the same and [n+1]_r >= 1.
    Each case here raised DomainError before, naming [n+1]^nu."""

    SPEC = OperatorSpec(610, PqParams(0.541, 0.499))

    def test_second_moment_is_taken_at_the_ratio(self):
        got = moment_closed(self.SPEC, 2, 1.0)
        assert got == moment_closed(OperatorSpec(610, PqParams(1.0, 0.499 / 0.541)), 2, 1.0)
        assert got == pytest.approx(mp_closed_moment(2, 610, 0.541, 0.499, 1.0), rel=1e-13)

    def test_delta_is_taken_at_the_ratio(self):
        # returned -0.25 before the check that this replaces
        assert delta_n(self.SPEC, 1.0) == pytest.approx(mp_delta(610, 0.541, 0.499, 1.0),
                                                         rel=1e-12)

    def test_first_moment_still_served(self):
        got = moment_closed(self.SPEC, 1, 1.0)
        assert got == pytest.approx(evaluate(self.SPEC, bbh_metric, 1.0), abs=1e-12)

    def test_first_moment_once_its_divisor_underflows(self):
        got = moment_closed(OperatorSpec(1250, PqParams(0.541, 0.499)), 1, 1.0)
        assert got == pytest.approx(mp_closed_moment(1, 1250, 0.541, 0.499, 1.0), rel=1e-13)

    @pytest.mark.parametrize("n", [600, 604, 608])
    def test_second_moment_no_longer_drifts(self, n):
        # read 0.33278 at n = 600 and 0.4043 at n = 604; ZeroDivisionError from 608
        got = moment_closed(OperatorSpec(n, PqParams(0.54, 0.27)), 2, 1.0)
        assert got == pytest.approx(mp_closed_moment(2, n, 0.54, 0.27, 1.0), rel=1e-13)

    def test_second_moment_exact_while_divisor_is_normal(self):
        spec = OperatorSpec(575, PqParams(0.54, 0.27))
        assert moment_closed(spec, 2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_rate_takes_delta_at_the_ratio(self):
        # the kernel stays at (p,q), where q^611 is normal; delta_n goes to (1, q/p)
        (point,) = rate_bound_check(self.SPEC, REGISTRY["sin_damped"], GridSpec((1.0,)))
        assert point.lhs == pytest.approx(mp_rate_lhs(610, 0.541, 0.499, "sin_damped", 1.0),
                                          rel=1e-9)
        assert point.passed

    def test_stancu_bound_raises(self):
        spec = OperatorSpec(610, PqParams(0.541, 0.499), StancuShift(0.5, 0.5))
        with pytest.raises(DomainError, match="underflows"):
            stancu_bound_report(spec, 1.0, 0.5)

    def test_stancu_bound_unchanged_below_the_threshold(self):
        spec = OperatorSpec(570, PqParams(0.541, 0.499), StancuShift(0.5, 0.5))
        rep = stancu_bound_report(spec, 1.0, 0.5)
        assert rep.terms[2] == pytest.approx(2.15143787574, rel=1e-11)
        assert rep.bound == pytest.approx(6.45431362722, rel=1e-11)


@pytest.fixture
def table_builds(monkeypatch):
    """Sizes of the deformed-integer tables built, in every pqbbh namespace that calls one."""
    calls = []

    def counting(n, params):
        calls.append(n)
        return pq_integers(n, params)

    for name, module in list(sys.modules.items()):
        if name.startswith("pqbbh.") and getattr(module, "pq_integers", None) is pq_integers:
            monkeypatch.setattr(module, "pq_integers", counting)
    return calls


class TestIntegerTable:
    """A spec builds [0]..[n+1] on first use and every later call reads it.

    Each test builds its own specs: a spec kept across tests would hold its
    table already and count no build.
    """

    @pytest.mark.parametrize("nu", [1, 2])
    def test_moments_command_builds_one_table(self, nu, table_builds, capsys):
        # moment_closed and evaluate on one spec; two tables before the sharing
        argv = ["moments", "--n", "8", "--p", "0.9", "--q", "0.7", "--nu", str(nu), "--x", "1.5"]
        assert pqbbh.cli.main(argv) == 0
        capsys.readouterr()
        assert table_builds == [9]

    def test_convergence_report_builds_one_table_per_degree(self, table_builds):
        # disc1, disc2 and sup_delta each built one before the sharing
        convergence_report(HarmonicSchedule(0.25, 0.5), [4, 16, 64], GridSpec((0.0, 1.0, 2.0)))
        assert table_builds == [5, 17, 65]

    def test_stancu_bound_report_builds_one_table(self, table_builds):
        stancu_bound_report(OperatorSpec(12, PqParams(0.9, 0.8), StancuShift(0.5, 0.5)), 1.0, 0.5)
        assert table_builds == [13]

    def test_a_used_spec_compares_hashes_and_prints_as_a_fresh_one(self):
        used = OperatorSpec(6, PqParams(0.9, 0.6))
        moment_closed(used, 2, 1.0)
        evaluate(used, bbh_metric, 1.0)
        fresh = OperatorSpec(6, PqParams(0.9, 0.6))
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
