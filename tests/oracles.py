"""Independent brute-force oracles the library's closed forms are checked against.

Everything here is deliberately built from first principles (geometric sums,
Pascal recurrences, polynomial convolution, plain binomials) so it shares no
code path with the implementation under test.  The exception is
``sequential_weights``: a frozen copy of the scalar kernel loop, kept so the
vectorized kernel can be held to it bit for bit.
"""

import math

from pqbbh import DomainError


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


def sequential_weights(n: int, p: float, q: float, x: float) -> tuple[float, ...]:
    """Kernel weights w_0..w_n at x by the scalar ratio recurrence, errors included.

    The loop the operator kernel ran before it was vectorized, copied with its
    integer table ([i] = p [i-1] + q^(i-1), or i p^(i-1) on the diagonal) and
    its normalizer check against the rising product built by repeated
    multiplication.  Products and sums are taken one by one in ascending k.
    """
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"evaluation point must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return (1.0,) + (0.0,) * n
    ints = [0.0] * (n + 1)
    if p == q:
        for i in range(1, n + 1):
            ints[i] = i * p ** (i - 1)
    else:
        acc = 0.0
        qpow = 1.0
        for i in range(1, n + 1):
            acc = p * acc + qpow
            qpow *= q
            ints[i] = acc
    terms = [1.0]  # c_k x^k relative to c_0, rescaled as needed
    total = 1.0
    log_scale = 0.0  # log of everything divided out so far
    for k in range(n):
        den = p ** (n - 1 - k) * ints[k + 1]
        if den == 0.0:
            raise DomainError(f"degree {n} too large for p={p}: term ratio overflows")
        t = terms[k] * (q ** k * ints[n - k] * x / den)
        if not math.isfinite(t):
            raise DomainError(f"weight term {k + 1} overflows for n={n}, x={x}")
        if t > 1e100:
            terms = [v / t for v in terms]
            total /= t
            log_scale += math.log(t)
            t = 1.0
        terms.append(t)
        total += t
    w = tuple(t / total for t in terms)
    log_c0 = 0.5 * n * (n - 1) * math.log(p)
    log_sum = math.log(total) + log_scale + log_c0
    factors = []
    ppow = 1.0
    qpow = 1.0
    for _ in range(n):
        factors.append(ppow + qpow * x)
        ppow *= p
        qpow *= q
    if abs(log_sum - math.fsum(map(math.log, factors))) > 1e-8:
        raise ArithmeticError(
            f"weight normalizer drifted from the rising product at n={n}, x={x}"
        )
    return w


def sequential_sum(weights, fvals) -> float:
    """sum_k f_k w_k accumulated from 0.0 in ascending k."""
    acc = 0.0
    for w, v in zip(weights, fvals):
        acc += v * w
    return acc
