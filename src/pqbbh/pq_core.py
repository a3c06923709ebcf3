"""Floating-point two-parameter (p,q) calculus kernel.

Deformed integers, factorials, binomial coefficients and the rising-product
expansion that the Bleimann-Butzer-Hahn operator family is built from.  All
values are plain doubles; factorial-scale quantities switch to log space
above ``_DIRECT_LIMIT`` so degrees in the hundreds stay usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# n! overflows a double near n = 171; beyond this bound factorial-scale
# quantities are assembled in log space.
_DIRECT_LIMIT = 150


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


def _exp_or_inf(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def pq_factorial(n: int, params: PqParams) -> float:
    """Product [1][2]...[n] of deformed integers; 1 for n = 0.

    Returns inf when the true value exceeds double range (possible from
    n = 171 in the classical corner); use pq_log_factorial there.
    """
    _check_index(n)
    if n <= _DIRECT_LIMIT:
        out = 1.0
        for v in pq_integers(n, params)[1:]:
            out *= v
        return out
    return _exp_or_inf(pq_log_factorial(n, params))


def pq_log_factorial(n: int, params: PqParams) -> float:
    """log of pq_factorial, usable far beyond double overflow."""
    _check_index(n)
    return math.fsum(math.log(v) for v in pq_integers(n, params)[1:])


def pq_binomial(n: int, k: int, params: PqParams) -> float:
    """Deformed binomial coefficient [n]! / ([k]! [n-k]!).

    Strictly positive; not necessarily >= 1 away from the classical case.

    Raises:
        DomainError: if k is outside 0..n.
    """
    _check_index(n)
    if not isinstance(k, int) or k < 0 or k > n:
        raise DomainError(f"binomial index k={k!r} outside 0..{n}")
    kk = min(k, n - k)
    if n <= _DIRECT_LIMIT:
        ints = pq_integers(n, params)
        num = 1.0
        den = 1.0
        for i in range(kk):
            num *= ints[n - i]
            den *= ints[i + 1]
        return num / den
    return _exp_or_inf(
        pq_log_factorial(n, params)
        - pq_log_factorial(kk, params)
        - pq_log_factorial(n - kk, params)
    )


def _ell_factors(n: int, x: float, params: PqParams) -> list[float]:
    """The factors p^s + q^s x, s = 0..n-1, of the rising product."""
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
    return factors


def pochhammer_ell(n: int, x: float, params: PqParams) -> float:
    """Rising product prod_{s=0}^{n-1} (p^s + q^s x); 1 for n = 0.

    Strictly positive for x >= 0.  May underflow for large n with p < 1;
    use log_pochhammer_ell when only the magnitude is needed.
    """
    return math.prod(_ell_factors(n, x, params), start=1.0)


def log_pochhammer_ell(n: int, x: float, params: PqParams) -> float:
    """log of pochhammer_ell, immune to under/overflow of the product."""
    return math.fsum(map(math.log, _ell_factors(n, x, params)))


def euler_coefficients(n: int, params: PqParams) -> list[float]:
    """Coefficients c_0..c_n with sum_k c_k x^k = pochhammer_ell(n, x).

    c_k = p^((n-k)(n-k-1)/2) q^(k(k-1)/2) [n over k]; each is positive.
    The k-th coefficient can underflow for large n with small p, q, in
    which case the partition-of-unity machinery in the operator module
    (which works with term ratios) is the robust route.
    """
    _check_index(n)
    p, q = params.p, params.q
    return [
        p ** ((n - k) * (n - k - 1) // 2)
        * q ** (k * (k - 1) // 2)
        * pq_binomial(n, k, params)
        for k in range(n + 1)
    ]
