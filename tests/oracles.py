"""Independent brute-force oracles the library's closed forms are checked against.

Everything here is deliberately built from first principles (geometric sums,
Pascal recurrences, polynomial convolution, plain binomials) so it shares no
code path with the implementation under test.
"""

import math


def geometric_integer(n: int, p: float, q: float) -> float:
    """Defining geometric sum p^(n-1-i) q^i, i = 0..n-1 (valid for q = p too)."""
    return math.fsum(p ** (n - 1 - i) * q ** i for i in range(n))


def product_factorial(n: int, p: float, q: float) -> float:
    out = 1.0
    for i in range(1, n + 1):
        out *= geometric_integer(i, p, q)
    return out


def pascal_binomial(n: int, k: int, p: float, q: float) -> float:
    """Two-parameter Pascal recurrence [m,j] = p^(m-j) [m-1,j-1] + q^j [m-1,j]."""
    rows = [[1.0]]
    for m in range(1, n + 1):
        prev = rows[m - 1]
        row = [1.0]
        for j in range(1, m):
            row.append(p ** (m - j) * prev[j - 1] + q ** j * prev[j])
        row.append(1.0)
        rows.append(row)
    return rows[n][k]


def convolved_coefficients(n: int, p: float, q: float) -> list[float]:
    """Coefficients of prod_{s=0}^{n-1} (p^s + q^s x) by direct convolution."""
    coeffs = [1.0]
    for s in range(n):
        a, b = p ** s, q ** s
        out = [0.0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] += a * c
            out[i + 1] += b * c
        coeffs = out
    return coeffs


def brute_operator(f, n: int, p: float, q: float, x: float) -> float:
    """Direct kernel sum from convolved coefficients and geometric integers."""
    cs = convolved_coefficients(n, p, q)
    total = math.fsum(c * x ** k for k, c in enumerate(cs))
    acc = 0.0
    for k, c in enumerate(cs):
        node = 0.0
        if k:
            node = (
                p ** (n - k + 1)
                * geometric_integer(k, p, q)
                / (geometric_integer(n - k + 1, p, q) * q ** k)
            )
        acc += f(node) * c * x ** k
    return acc / total


def q_bbh_evaluate(f, n: int, q: float, x: float) -> float:
    """One-parameter operator from its own Pascal table and q-integers."""
    rows = [[1.0]]
    for m in range(1, n + 1):
        prev = rows[m - 1]
        row = [1.0]
        for j in range(1, m):
            row.append(prev[j - 1] + q ** j * prev[j])
        row.append(1.0)
        rows.append(row)

    def qint(m: int) -> float:
        return float(m) if q == 1.0 else (1.0 - q ** m) / (1.0 - q)

    ell = 1.0
    for s in range(n):
        ell *= 1.0 + q ** s * x
    acc = 0.0
    for k in range(n + 1):
        node = 0.0
        if k:
            node = qint(k) / (qint(n - k + 1) * q ** k)
        acc += f(node) * q ** (k * (k - 1) // 2) * rows[n][k] * x ** k
    return acc / ell


def classical_bbh_evaluate(f, n: int, x: float) -> float:
    """Plain binomial form of the classical operator."""
    acc = math.fsum(
        f(k / (n - k + 1)) * math.comb(n, k) * x ** k for k in range(n + 1)
    )
    return acc / (1.0 + x) ** n


def q_bbh_moment(nu: int, n: int, q: float, x: float) -> float:
    """Closed moments of the one-parameter operator on (t/(1+t))^nu, nu in {1, 2}.

    [n]/[n+1] u and q^2 [n][n-1]/[n+1]^2 u x/(1+qx) + [n]/[n+1]^2 u with
    u = x/(1+x) and the q-integers taken from their quotient form, so the
    moments stay cheap and in range for any degree.
    """

    def qint(m: int) -> float:
        return float(m) if q == 1.0 else (1.0 - q ** m) / (1.0 - q)

    u = x / (1.0 + x)
    if nu == 1:
        return qint(n) / qint(n + 1) * u
    return (
        q * q * qint(n) * qint(n - 1) / qint(n + 1) ** 2 * u * x / (1.0 + q * x)
        + qint(n) / qint(n + 1) ** 2 * u
    )
