"""Floating-point two-parameter (p,q) calculus kernel.

Deformed integers, factorials, binomial coefficients and the rising-product
expansion that the Bleimann-Butzer-Hahn operator family is built from.  All
values are plain doubles.  Factorial-scale products keep their partial
products as a mantissa and an exact power of two, so at any degree they are
inf or 0.0 only where the true value lies beyond the doubles.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import accumulate, repeat
from typing import Iterable

from ._record import Record, _set


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class PqParams(Record):
    """Validated parameter pair with 0 < q <= p <= 1.

    q == p is the degenerate diagonal where the defining quotient
    (p^n - q^n)/(p - q) is replaced by its analytic limit n p^(n-1); such
    params are marked ``limit_mode`` (the classical case p = q = 1 included).
    """

    __slots__ = _fields = ("p", "q")
    p: float
    q: float

    def __init__(self, p: float, q: float) -> None:
        _set(self, "p", p)
        _set(self, "q", q)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError("p and q must be finite")
        if not 0.0 < q <= p <= 1.0:
            raise ValueError(f"require 0 < q <= p <= 1, got p={p}, q={q}")

    @property
    def limit_mode(self) -> bool:
        return self.p == self.q


def _check_index(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"index must be a nonnegative integer, got {n!r}")


def pq_integers(n: int, params: PqParams) -> list[float]:
    """Prefix list [0], [1], ..., [n] of the deformed integers.

    Built by the recurrence [i] = p[i-1] + q^(i-1), which sums the positive
    geometric terms directly and stays accurate even when p - q is tiny
    (the textbook quotient (p^i - q^i)/(p - q) cancels catastrophically
    there).
    """
    _check_index(n)
    p, q = params.p, params.q
    out = [0.0] * (n + 1)
    if params.limit_mode:
        for i in range(1, n + 1):
            out[i] = i * p ** (i - 1)
    else:
        acc = 0.0
        qpow = 1.0
        for i in range(1, n + 1):
            acc = p * acc + qpow
            qpow *= q
            out[i] = acc
    return out


def pq_integer(n: int, params: PqParams) -> float:
    """The deformed integer [n] = (p^n - q^n)/(p - q), or n p^(n-1) on the diagonal.

    Always in [0, n] for parameters in the unit box.
    """
    return pq_integers(n, params)[n]


# Products of doubles are carried as pairs (m, e) worth m * 2**e, with
# 0.5 <= m < 1 or m = 0, the form math.frexp returns; _ONE is 1.0.  Scaling
# by a power of two is exact, so each step rounds as the unscaled step would
# wherever that one's result is a normal double, and the int exponent never
# leaves its range: only the final ldexp meets the ends of the doubles.
_ONE = (0.5, 1)
_LN2 = math.log(2.0)


def _mul(a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
    m, e = math.frexp(a[0] * b[0])
    return m, e + a[1] + b[1]


def _product(values: Iterable[float]) -> tuple[float, int]:
    """The left fold 1.0 * v_0 * v_1 * ... as a pair."""
    return reduce(_mul, map(math.frexp, values), _ONE)


def _binomials(ints: list[float], top: int) -> list[tuple[float, int]]:
    """[n over kk], kk = 0..top <= n/2, as pairs, for ints = [0]..[n].

    Each is the fold [n][n-1]...[n-kk+1] over the fold [1][2]...[kk].
    """
    n = len(ints) - 1
    nums = accumulate(map(math.frexp, ints[n : n - top : -1]), _mul, initial=_ONE)
    dens = accumulate(map(math.frexp, ints[1 : top + 1]), _mul, initial=_ONE)
    out = []
    for num, den in zip(nums, dens):
        m, e = math.frexp(num[0] / den[0])
        out.append((m, e + num[1] - den[1]))
    return out


def _to_float(pair: tuple[float, int]) -> float:
    """The pair rounded to a double: inf above the top exponent."""
    try:
        return math.ldexp(*pair)
    except OverflowError:
        return math.inf


def pq_factorial(n: int, params: PqParams) -> float:
    """Product [1][2]...[n] of deformed integers; 1 for n = 0.

    The partial products are scaled by exact powers of two, so the result is
    inf only where the true value exceeds the doubles (possible from n = 171
    in the classical corner; use pq_log_factorial there) and 0.0 only where
    it lies below them.  A deformed integer [i] that underflows to 0.0 gives
    0.0: p^(i-1) <= [i] is then below the subnormals, and so is the product,
    which is at most n! p^(n(n-1)/2).
    """
    _check_index(n)
    return _to_float(_product(pq_integers(n, params)[1:]))


def pq_log_factorial(n: int, params: PqParams) -> float:
    """log of pq_factorial, usable far beyond double overflow and underflow.

    Where some [i], i <= n, underflows to 0.0, it is n(n-1)/2 log p plus
    the sum of log [i]_r, r = q/p, since [i] = p^(i-1) [i]_r and [i]_r >= 1.
    """
    _check_index(n)
    ints = pq_integers(n, params)[1:]
    if 0.0 not in ints:
        return math.fsum(math.log(v) for v in ints)
    ratio_ints = pq_integers(n, PqParams(1.0, params.q / params.p))[1:]
    return math.fsum([n * (n - 1) // 2 * math.log(params.p), *map(math.log, ratio_ints)])


def pq_binomial(n: int, k: int, params: PqParams) -> float:
    """Deformed binomial coefficient [n]! / ([k]! [n-k]!).

    Positive, but not necessarily >= 1 away from the classical case.  It is
    [n][n-1]...[n-kk+1] over [1][2]...[kk], kk = min(k, n-k), each product
    scaled by exact powers of two as in pq_factorial, so it is 0.0 or inf
    only where the true value lies beyond the doubles.  Where one of those
    2 kk deformed integers underflows to 0.0, and with it [n], it is
    p^(k(n-k)) times the same quotient of the [i]_r, r = q/p, as a pair.

    Raises:
        DomainError: if k is outside 0..n.
    """
    _check_index(n)
    if not isinstance(k, int) or k < 0 or k > n:
        raise DomainError(f"binomial index k={k!r} outside 0..{n}")
    kk = min(k, n - k)
    ints = pq_integers(n, params)
    if kk and ints[n] == 0.0:  # once an entry rounds to 0.0 every later one does
        ratio_ints = pq_integers(n, PqParams(1.0, params.q / params.p))
        return _to_float(_mul(_power(params.p, k * (n - k)), _binomials(ratio_ints, kk)[kk]))
    return _to_float(_binomials(ints, kk)[kk])


def _ell_factors(n: int, x: float, params: PqParams) -> list[tuple[float, int]]:
    """The factors p^s + q^s x, s = 0..n-1, of the rising product, as pairs.

    p^s and q^s are left folds of pairs, so each has the bits of the repeated
    product in doubles while that is normal.  While q^s (and with it
    p^s >= q^s) is normal, a factor is the double p^s + q^s x; below that it
    is summed at p^s's scale, so a power that leaves the doubles loses no
    digits and no factor is 0.0.
    """
    _check_index(n)
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"argument must be finite and >= 0, got {x!r}")
    p_powers = accumulate(repeat(math.frexp(params.p)), _mul, initial=_ONE)
    q_powers = accumulate(repeat(math.frexp(params.q)), _mul, initial=_ONE)
    factors = []
    for _, (pm, pe), (qm, qe) in zip(range(n), p_powers, q_powers):
        if qe >= sys.float_info.min_exp:
            factors.append(math.frexp(math.ldexp(pm, pe) + math.ldexp(qm, qe) * x))
        else:
            m, e = math.frexp(pm + math.ldexp(qm * x, qe - pe))
            factors.append((m, e + pe))
    return factors


def _log(pair: tuple[float, int]) -> float:
    """log of a pair: of its double where that is normal, else log(m) + e log 2."""
    m, e = pair
    if e >= sys.float_info.min_exp:
        return math.log(math.ldexp(m, e))
    return math.log(m) + e * _LN2


def pochhammer_ell(n: int, x: float, params: PqParams) -> float:
    """Rising product prod_{s=0}^{n-1} (p^s + q^s x); 1 for n = 0.

    Strictly positive for x >= 0.  The factors and the partial products are
    scaled as in pq_factorial, so it is 0.0 or inf only where the true value
    lies beyond the doubles.
    """
    return _to_float(reduce(_mul, _ell_factors(n, x, params), _ONE))


def log_pochhammer_ell(n: int, x: float, params: PqParams) -> float:
    """log of pochhammer_ell, immune to under/overflow of the product and its factors."""
    return math.fsum(map(_log, _ell_factors(n, x, params)))


def _power(base: float, a: int) -> tuple[float, int]:
    """base^a as a pair, 0 < base <= 1, off by about a |log2 base| u / 250 past pow's ulp.

    Below the normal doubles it is (base^(a/K))^K, K the power of two putting
    a |log2 base| / K in (500, 1000]: a/K is exact, base^(a/K) = m 2^e is
    normal, and m^K (m >= 1/2) is taken the same way; a level adds < 2K u.
    """
    v = base**a
    if v >= sys.float_info.min:
        return math.frexp(v)
    k = 1 << math.ceil(math.log2(-a * math.log2(base) / 1000.0))
    m, e = math.frexp(base ** (a / k))
    mk, ek = _power(m, k)
    return mk, ek + e * k


def euler_coefficients(n: int, params: PqParams) -> list[float]:
    """Coefficients c_0..c_n with sum_k c_k x^k = pochhammer_ell(n, x).

    c_k = p^((n-k)(n-k-1)/2) q^(k(k-1)/2) [n over k]; each is positive.  The
    three factors are multiplied as pairs, as in pq_binomial, so c_k is 0.0
    only where its true value lies below the doubles.  Where [n] underflows
    to 0.0 every c_k does: p^(n-1) <= [n] is below the subnormals, and the
    c_k sum to prod (p^s + q^s) <= 2^n p^(n(n-1)/2).
    """
    _check_index(n)
    p, q = params.p, params.q
    ints = pq_integers(n, params)
    # once an entry of the table rounds to 0.0 every later one does, so
    # [n] = 0.0 is the only way a zero reaches the binomials' folds
    if n and ints[n] == 0.0:
        return [0.0] * (n + 1)
    binomials = _binomials(ints, n // 2)
    return [
        _to_float(
            _mul(
                _mul(_power(p, (n - k) * (n - k - 1) // 2), _power(q, k * (k - 1) // 2)),
                binomials[min(k, n - k)],
            )
        )
        for k in range(n + 1)
    ]
