import math
import random

import pytest

from pqbbh import (
    DomainError,
    PqParams,
    euler_coefficients,
    log_pochhammer_ell,
    pochhammer_ell,
    pq_binomial,
    pq_factorial,
    pq_integer,
    pq_integers,
    pq_log_factorial,
)
from oracles import (
    convolved_coefficients,
    geometric_integer,
    pascal_binomial,
    product_factorial,
)

CLASSICAL = PqParams(1.0, 1.0)
MIXED = PqParams(0.9, 0.5)

# Spread of parameter sets used by the identity checks.  Absolute 1e-12
# residuals are only meaningful while the products [k][m] stay a few
# thousand at most; the near-diagonal sets below keep a 2x margin (the
# residual floor is the double ulp of those products).
PARAM_SETS = [
    PqParams(1.0, 1.0),
    PqParams(1.0, 0.98),
    PqParams(1.0, 0.9),
    PqParams(0.99, 0.97),
    PqParams(0.95, 0.8),
    PqParams(0.9, 0.9),
    PqParams(0.9, 0.5),
    PqParams(0.7, 0.55),
    PqParams(0.5, 0.3),
]


class TestPqParams:
    def test_limit_mode_flag(self):
        assert PqParams(0.8, 0.8).limit_mode
        assert CLASSICAL.limit_mode
        assert not MIXED.limit_mode

    @pytest.mark.parametrize(
        "p,q",
        [(0.5, 0.9), (1.2, 0.5), (0.5, 0.0), (0.5, -0.1), (math.nan, 0.5), (0.5, math.nan)],
    )
    def test_rejects_bad_pairs(self, p, q):
        with pytest.raises(ValueError):
            PqParams(p, q)


class TestPqInteger:
    def test_zero_is_empty_sum(self):
        assert pq_integer(0, MIXED) == 0.0
        assert pq_integer(0, CLASSICAL) == 0.0

    def test_frozen_example(self):
        # geometric-sum oracle: 0.81 + 0.45 + 0.25
        assert pq_integer(3, MIXED) == pytest.approx(1.51, abs=1e-12)

    def test_classical_limit(self):
        assert pq_integer(5, CLASSICAL) == 5.0

    def test_limit_mode_formula(self):
        pp = PqParams(0.8, 0.8)
        for n in range(1, 40):
            assert pq_integer(n, pp) == pytest.approx(n * 0.8 ** (n - 1), rel=1e-14)

    def test_matches_geometric_oracle(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(0, 150)
            q = rng.uniform(0.05, 1.0)
            p = rng.uniform(q, 1.0)
            got = pq_integer(n, PqParams(p, q))
            want = geometric_integer(n, p, q)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)

    def test_monotone_bound(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 200)
            q = rng.uniform(0.01, 1.0)
            p = rng.uniform(q, 1.0)
            v = pq_integer(n, PqParams(p, q))
            assert 0.0 <= v <= n

    def test_q_integer_reduction(self):
        for q in (0.2, 0.5, 0.9, 0.99):
            pp = PqParams(1.0, q)
            for n in range(0, 80):
                want = (1.0 - q ** n) / (1.0 - q)
                assert pq_integer(n, pp) == pytest.approx(want, rel=1e-14)

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            pq_integer(-1, MIXED)

    def test_prefix_list(self):
        ints = pq_integers(6, MIXED)
        assert len(ints) == 7
        assert ints[0] == 0.0
        for i in range(7):
            assert ints[i] == pytest.approx(pq_integer(i, MIXED), rel=1e-15)


class TestPqFactorial:
    def test_empty_product(self):
        assert pq_factorial(0, MIXED) == 1.0

    def test_ordinary_factorial(self):
        assert pq_factorial(3, CLASSICAL) == 6.0

    def test_frozen_example(self):
        # product oracle: 1 * 1.4 * 1.51
        assert pq_factorial(3, MIXED) == pytest.approx(2.114, abs=1e-12)

    def test_matches_product_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(0, 60)
            q = rng.uniform(0.2, 1.0)
            p = rng.uniform(q, 1.0)
            got = pq_factorial(n, PqParams(p, q))
            want = product_factorial(n, p, q)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_log_space_agrees_at_boundary(self):
        pp = PqParams(1.0, 0.95)
        direct = pq_factorial(150, pp)
        assert math.exp(pq_log_factorial(150, pp)) == pytest.approx(direct, rel=1e-9)

    def test_classical_overflow_is_inf(self):
        assert pq_factorial(200, CLASSICAL) == math.inf

    @pytest.mark.parametrize(
        "call, i",
        [
            (lambda: pq_log_factorial(65, PqParams(5e-324, 5e-324)), 3),  # [3] = 3 p^2
            (lambda: pq_binomial(200, 100, PqParams(1e-3, 1e-4)), 109),
        ],
        ids=["log_factorial", "binomial"],
    )
    def test_log_form_refuses_an_integer_that_underflows(self, call, i):
        with pytest.raises(DomainError, match=rf"\[{i}\] underflows to 0\.0"):
            call()

    @pytest.mark.parametrize("n", [150, 151, 200])
    def test_an_integer_that_underflows_gives_zero(self, n):
        # [109] is 0.0, so p^108 <= [109] is below the subnormals, and the
        # product, at most n! p^(n(n-1)/2), rounds to 0.0
        assert pq_factorial(n, PqParams(1e-3, 1e-4)) == 0.0


class TestPqBinomial:
    def test_k_zero(self):
        for pp in PARAM_SETS:
            assert pq_binomial(9, 0, pp) == 1.0

    @pytest.mark.parametrize("n", [150, 151])
    def test_k_zero_needs_no_integer(self, n):
        # [109] onwards underflow to 0.0, but k = 0 multiplies none of them
        assert pq_binomial(n, 0, PqParams(1e-3, 1e-4)) == 1.0

    def test_ordinary_binomial(self):
        assert pq_binomial(4, 2, CLASSICAL) == pytest.approx(6.0, rel=1e-15)

    def test_frozen_example(self):
        assert pq_binomial(2, 1, MIXED) == pytest.approx(1.4, abs=1e-13)

    def test_rejects_k_above_n(self):
        with pytest.raises(DomainError):
            pq_binomial(3, 4, MIXED)

    def test_positive_and_symmetric(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(0, 40)
            k = rng.randint(0, n)
            q = rng.uniform(0.1, 1.0)
            p = rng.uniform(q, 1.0)
            pp = PqParams(p, q)
            b = pq_binomial(n, k, pp)
            assert b > 0.0
            assert b == pytest.approx(pq_binomial(n, n - k, pp), rel=1e-12)

    def test_matches_pascal_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(0, 30)
            k = rng.randint(0, n)
            q = rng.uniform(0.2, 1.0)
            p = rng.uniform(q, 1.0)
            got = pq_binomial(n, k, PqParams(p, q))
            want = pascal_binomial(n, k, p, q)
            assert got == pytest.approx(want, rel=1e-12)

    def test_underflowing_products_take_the_log_form(self):
        # both products underflow to 0.0, and so does the coefficient
        assert pq_binomial(150, 75, PqParams(0.01, 0.005)) == 0.0
        # a subnormal numerator (2e-316) left the direct quotient off by 1.2e-8
        got = pq_binomial(36, 17, PqParams(0.2, 0.1))
        assert got == pytest.approx(pascal_binomial(36, 17, 0.2, 0.1), rel=1e-12)

    def test_log_space_path(self):
        pp = PqParams(0.95, 0.7)
        ints = pq_integers(200, pp)
        direct = ints[200] * ints[199] * ints[198] / (ints[1] * ints[2] * ints[3])
        assert pq_binomial(200, 3, pp) == pytest.approx(direct, rel=1e-12)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_ell(0, 3.0, MIXED) == 1.0

    def test_classical_power(self):
        assert pochhammer_ell(2, 1.0, CLASSICAL) == 4.0

    def test_frozen_example(self):
        # (1 + 2)(0.9 + 0.5 * 2)
        assert pochhammer_ell(2, 2.0, MIXED) == pytest.approx(5.7, abs=1e-12)

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            pochhammer_ell(2, -1.0, MIXED)

    def test_partial_products_beyond_the_doubles(self):
        # the first 50 factors multiply past the top of the doubles and the
        # rest bring the product back; 40-digit mpmath: 2.7324816968233779e49
        got = pochhammer_ell(100, 1e153, PqParams(8.3e-4, 8.3e-4))
        assert got == pytest.approx(2.7324816968233779e49, rel=1e-13)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pochhammer_ell(1994, 1e300, PqParams(0.5, 0.5)),  # about 1e21
            lambda: log_pochhammer_ell(1994, 1e300, PqParams(0.5, 0.5)),
            lambda: log_pochhammer_ell(2000, 0.0, PqParams(0.5, 0.5)),
        ],
        ids=["pochhammer", "log_pochhammer", "log_pochhammer_at_zero"],
    )
    def test_a_factor_that_underflows_is_refused(self, call):
        with pytest.raises(DomainError, match=r"p\^s \+ q\^s x at s = 1075 underflows to 0\.0"):
            call()

    def test_a_factor_that_underflows_at_zero_gives_zero(self):
        # every factor p^s is at most 1, so the product is below the zero one
        assert pochhammer_ell(2000, 0.0, PqParams(0.5, 0.5)) == 0.0

    def test_log_variant_consistent(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(0, 40)
            q = rng.uniform(0.2, 1.0)
            p = rng.uniform(q, 1.0)
            x = rng.uniform(0.0, 30.0)
            pp = PqParams(p, q)
            assert log_pochhammer_ell(n, x, pp) == pytest.approx(
                math.log(pochhammer_ell(n, x, pp)), abs=1e-11
            )


class TestEulerCoefficients:
    def test_degree_one(self):
        for pp in PARAM_SETS:
            assert euler_coefficients(1, pp) == [1.0, 1.0]

    def test_binomial_row(self):
        assert euler_coefficients(2, CLASSICAL) == [1.0, 2.0, 1.0]

    def test_frozen_example(self):
        # expand (1 + x)(0.9 + 0.5 x)
        cs = euler_coefficients(2, MIXED)
        assert cs == pytest.approx([0.9, 1.4, 0.5], abs=1e-14)

    def test_matches_convolution_oracle(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(0, 25)
            q = rng.uniform(0.2, 1.0)
            p = rng.uniform(q, 1.0)
            got = euler_coefficients(n, PqParams(p, q))
            want = convolved_coefficients(n, p, q)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("pp", PARAM_SETS)
    def test_expansion_identity(self, pp):
        # degree capped for small p so the rising product stays above underflow
        top = 50 if pp.p >= 0.7 else 40
        for n in (1, 2, 3, 5, 9, 17, 30, top):
            cs = euler_coefficients(n, pp)
            for x in (0.0, 0.3, 1.0, 2.5, 10.0):
                lhs = math.fsum(c * x ** k for k, c in enumerate(cs))
                rhs = pochhammer_ell(n, x, pp)
                assert abs(lhs - rhs) <= 1e-12 * rhs


class TestAlgebraicIdentities:
    @pytest.mark.parametrize("pp", PARAM_SETS)
    def test_shift_relation(self, pp):
        p, q = pp.p, pp.q
        for n in range(1, 121):
            ints = pq_integers(n + 1, pp)
            for k in range(n + 1):
                lhs = q ** k * ints[n - k + 1]
                rhs = ints[n + 1] - p ** (n - k + 1) * ints[k]
                assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("pp", PARAM_SETS)
    def test_split_identities(self, pp):
        p, q = pp.p, pp.q
        ints = pq_integers(121, pp)
        for k in range(1, 121):
            ik, ikm = ints[k], ints[k - 1]
            assert abs(ik - (p ** (k - 1) + q * ikm)) <= 1e-12
            assert abs(ik * ik - (q * ik * ikm + p ** (k - 1) * ik)) <= 1e-12

    @pytest.mark.parametrize("pp", PARAM_SETS)
    def test_cross_product_identity(self, pp):
        p, q = pp.p, pp.q
        for n in range(1, 121):
            ints = pq_integers(n + 1, pp)
            for k in range(n):
                lhs = ints[k + 1] * ints[n - k + 1] - p * q * ints[k] * ints[n - k]
                assert abs(lhs - ints[n + 1]) <= 1e-12

    def test_cross_product_scaled_near_diagonal(self):
        # Near (1, 1) the products reach ~2.6e3, whose double ulp already
        # exceeds 1e-12; the residual stays at a few ulps of the products.
        pp = PqParams(0.999, 0.995)
        p, q = pp.p, pp.q
        for n in range(1, 121):
            ints = pq_integers(n + 1, pp)
            for k in range(n):
                prod = ints[k + 1] * ints[n - k + 1]
                resid = abs(prod - p * q * ints[k] * ints[n - k] - ints[n + 1])
                assert resid <= 1e-15 * (1.0 + prod)
