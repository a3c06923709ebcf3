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
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Iterable


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


@dataclass(frozen=True)
class PqParams:
    """Validated parameter pair with 0 < q <= p <= 1.

    q == p is the degenerate diagonal where the defining quotient
    (p^n - q^n)/(p - q) is replaced by its analytic limit n p^(n-1); such
    params are marked ``limit_mode`` (the classical case p = q = 1 included).
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("p and q must be finite")
        if not 0.0 < self.q <= self.p <= 1.0:
            raise ValueError(f"require 0 < q <= p <= 1, got p={self.p}, q={self.q}")

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
    """log of pq_factorial, usable far beyond double overflow.

    Raises:
        DomainError: if some [i], i <= n, underflows to 0.0, which has no log.
    """
    _check_index(n)
    ints = pq_integers(n, params)[1:]
    if 0.0 in ints:
        raise DomainError(
            f"deformed integer [{ints.index(0.0) + 1}] underflows to 0.0, which has no log "
            f"(p={params.p}, q={params.q})"
        )
    return math.fsum(math.log(v) for v in ints)


def pq_binomial(n: int, k: int, params: PqParams) -> float:
    """Deformed binomial coefficient [n]! / ([k]! [n-k]!).

    Positive, but not necessarily >= 1 away from the classical case.  It is
    [n][n-1]...[n-kk+1] over [1][2]...[kk], kk = min(k, n-k), each product
    scaled by exact powers of two as in pq_factorial, so it is 0.0 or inf
    only where the true value lies beyond the doubles.

    Raises:
        DomainError: if k is outside 0..n, or one of those 2 kk deformed
            integers underflows to 0.0, which leaves the quotient undetermined.
    """
    _check_index(n)
    if not isinstance(k, int) or k < 0 or k > n:
        raise DomainError(f"binomial index k={k!r} outside 0..{n}")
    kk = min(k, n - k)
    ints = pq_integers(n, params)
    for i in (*range(1, kk + 1), *range(n - kk + 1, n + 1)):
        if ints[i] == 0.0:
            raise DomainError(
                f"deformed integer [{i}] underflows to 0.0, which leaves [{n} over {k}] "
                f"undetermined (p={params.p}, q={params.q})"
            )
    return _to_float(_binomials(ints, kk)[kk])


def _ell_factors(n: int, x: float, params: PqParams, why: str) -> list[float]:
    """The factors p^s + q^s x, s = 0..n-1, of the rising product.

    Raises:
        DomainError: if ``why`` is not empty and a factor underflows to 0.0.
    """
    _check_index(n)
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"argument must be finite and >= 0, got {x!r}")
    p, q = params.p, params.q
    factors = []
    ppow = 1.0
    qpow = 1.0
    for _ in range(n):
        factors.append(ppow + qpow * x)
        ppow *= p
        qpow *= q
    if why and 0.0 in factors:
        raise DomainError(
            f"factor p^s + q^s x at s = {factors.index(0.0)} underflows to 0.0, {why} "
            f"(p={p}, q={q}, x={x})"
        )
    return factors


def pochhammer_ell(n: int, x: float, params: PqParams) -> float:
    """Rising product prod_{s=0}^{n-1} (p^s + q^s x); 1 for n = 0.

    Strictly positive for x >= 0.  The partial products are scaled as in
    pq_factorial, so it is 0.0 or inf only where the true value lies beyond
    the doubles.  At x = 0 a factor p^s that underflows to 0.0 gives 0.0,
    since no factor exceeds 1.

    Raises:
        DomainError: if x > 0 and a factor underflows to 0.0, which leaves
            the product undetermined.
    """
    why = "which leaves the product undetermined" if x > 0 else ""
    return _to_float(_product(_ell_factors(n, x, params, why)))


def log_pochhammer_ell(n: int, x: float, params: PqParams) -> float:
    """log of pochhammer_ell, immune to under/overflow of the product.

    Raises:
        DomainError: if a factor underflows to 0.0, which has no log.
    """
    return math.fsum(map(math.log, _ell_factors(n, x, params, "which has no log")))


def _power(base: float, a: int) -> tuple[float, int]:
    """base^a as a pair, 0 < base <= 1; from a log2(base) where ** is not a normal double."""
    v = base**a
    if v >= sys.float_info.min:
        return math.frexp(v)
    t = a * math.log2(base)
    e = math.floor(t)
    m, me = math.frexp(2.0 ** (t - e))
    return m, me + e


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
