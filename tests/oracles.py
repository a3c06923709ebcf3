"""Independent brute-force oracles the library's closed forms are checked against.

Everything here is deliberately built from first principles (geometric sums,
Pascal recurrences, polynomial convolution, plain binomials) so it shares no
code path with the implementation under test.  The exceptions are frozen
copies of code that was replaced by a faster form, kept so the new form can
be held to it bit for bit: ``sequential_weights`` and ``sequential_nodes``
(the scalar kernel loops), ``sequential_rhs`` (the representation's sum) and
``walk_expression`` (the expression tree walk).
The ``mp_*`` oracles take the factorials, the binomials, the Euler
coefficients, the closed forms, the nodes, the weights, the rate lhs and
the representation to 60 significant digits with mpmath, so
they pin the double-precision forms to an error bound.
"""

import functools
import math

from pqbbh import DomainError
from pqbbh.expressions import (
    FUNCTIONS,
    Call,
    ExpressionDomainError,
    Negate,
    Number,
    Variable,
    format_expression,
)


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


MP_DIGITS = 60


def _mp():
    # imported on first use: bench/child.py loads this module for its brute
    # oracles, and mpmath would add about 3 MB to the benchmark's peak RSS
    from mpmath import mp

    return mp


@functools.lru_cache(maxsize=4)
def mp_integers(m: int, p: float, q: float) -> tuple:
    """[0]..[m] as mpf from (p^k - q^k)/(p - q), or k p^(k-1) on the diagonal q = p.

    The entries carry MP_DIGITS digits; arithmetic on them keeps that only
    inside ``mp.workdps(MP_DIGITS)``.
    """
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        p, q = mp.mpf(p), mp.mpf(q)
        ints = [mp.zero]
        pk, qk = mp.one, mp.one  # p^(k-1), q^(k-1)
        for k in range(1, m + 1):
            ints.append(k * pk if p == q else (pk * p - qk * q) / (p - q))
            pk, qk = pk * p, qk * q
        return tuple(ints)


def mp_factorial(n: int, p: float, q: float) -> float:
    """[1][2]...[n] at MP_DIGITS digits, rounded once to a double (0.0 or inf beyond them)."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        return float(mp.fprod(mp_integers(n, p, q)[1:]))


def mp_binomial(n: int, k: int, p: float, q: float) -> float:
    """[n]! / ([k]! [n-k]!) at MP_DIGITS digits, rounded once to a double."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        ints = mp_integers(n, p, q)
        return float(mp.fprod(ints[n - k + 1 :]) / mp.fprod(ints[1 : k + 1]))


def mp_euler_coefficients(n: int, p: float, q: float) -> list[float]:
    """c_k = p^((n-k)(n-k-1)/2) q^(k(k-1)/2) [n over k], k = 0..n, at MP_DIGITS digits.

    The binomials come from [n over k+1] = [n over k] [n-k] / [k+1].
    """
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        ints = mp_integers(n, p, q)
        p, q = mp.mpf(p), mp.mpf(q)
        out = []
        binomial = mp.one
        for k in range(n + 1):
            out.append(float(p ** ((n - k) * (n - k - 1) // 2) * q ** (k * (k - 1) // 2) * binomial))
            if k < n:
                binomial = binomial * ints[n - k] / ints[k + 1]
        return out


def mp_closed_moment(nu: int, n: int, p: float, q: float, x: float) -> float:
    """The closed moments M1 = p[n]/[n+1] u and
    M2 = p^2 q^2 [n][n-1]/[n+1]^2 u x/(p + qx) + p^(n+1) [n]/[n+1]^2 u, u = x/(1+x),
    evaluated at MP_DIGITS digits and rounded once to a double."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        return float(_mp_moment(nu, n, p, q, x, mp_integers(n + 1, p, q)))


def mp_delta(n: int, p: float, q: float, x: float) -> float:
    """delta_n = M2 - 2u M1 + u^2 in the cancelling form, at MP_DIGITS digits."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        ints = mp_integers(n + 1, p, q)
        u = mp.mpf(x) / (1 + mp.mpf(x))
        m1 = _mp_moment(1, n, p, q, x, ints)
        m2 = _mp_moment(2, n, p, q, x, ints)
        return float(m2 - 2 * u * m1 + u * u)


def mp_nodes(n: int, p: float, q: float, shift=None) -> tuple[float, ...]:
    """Nodes (p^(n-k+1) [k] + gamma) / (q^k [n-k+1] + beta), k = 0..n, at MP_DIGITS digits.

    ``shift`` is (gamma, beta) for the shifted variant; None selects the base
    variant, gamma = beta = 0.
    """
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        return tuple(float(t) for t in _mp_nodes(n, p, q, shift))


def mp_weights(n: int, p: float, q: float, x: float) -> tuple[float, ...]:
    """Kernel weights w_0..w_n at x by the ratio recurrence at MP_DIGITS digits.

    term_{k+1} = term_k q^k [n-k] x / (p^(n-1-k) [k+1]) from term_0 = 1, each
    weight a term over their sum; mpf exponents never overflow, so no term
    is rescaled.
    """
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        return tuple(float(w) for w in _mp_weights(n, p, q, x))


# The registry functions of pqbbh.functions in mpmath, by name.
MP_REGISTRY = {
    "one_": lambda mp, t: mp.one,
    "bbh_metric": lambda mp, t: t / (1 + t),
    "bbh_metric_sq": lambda mp, t: (t / (1 + t)) ** 2,
    "exp_neg": lambda mp, t: mp.exp(-t),
    "sin_damped": lambda mp, t: mp.sin(t) / (1 + t),
}


def mp_rate_lhs(n: int, p: float, q: float, name: str, x: float) -> float:
    """|sum_k f(t_k) w_k(x) - f(x)| at MP_DIGITS digits, f the registry function ``name``.

    The base variant's nodes and weights as in ``mp_nodes`` and
    ``mp_weights``, left unrounded; the lhs of the rate check.
    """
    mp = _mp()
    f = MP_REGISTRY[name]
    with mp.workdps(MP_DIGITS):
        return float(abs(_mp_operator(n, p, q, f, x) - f(mp, mp.mpf(x))))


def mp_representation(n: int, p: float, q: float, name: str, x: float) -> float:
    """sum_k f(t_k) w_k(x) - f(px/q) at MP_DIGITS digits, f the registry function ``name``.

    The difference the representation's divided-difference sum equals, from
    the same unrounded nodes and weights as ``mp_rate_lhs``; px/q is exact.
    """
    mp = _mp()
    f = MP_REGISTRY[name]
    with mp.workdps(MP_DIGITS):
        return float(_mp_operator(n, p, q, f, x) - f(mp, mp.mpf(p) * x / q))


def _mp_operator(n, p, q, f, x):
    """sum_k f(t_k) w_k(x) from the base variant's mpf nodes and weights, in the workdps."""
    mp = _mp()
    ts, ws = _mp_nodes(n, p, q, None), _mp_weights(n, p, q, x)
    return mp.fsum(f(mp, t) * w for t, w in zip(ts, ws))


def _mp_nodes(n, p, q, shift):
    """mp_nodes as mpf, inside the caller's workdps."""
    mp = _mp()
    gamma, beta = shift if shift is not None else (0.0, 0.0)
    ints = mp_integers(n + 1, p, q)
    ppow, qpow = _mp_powers(p, n + 1), _mp_powers(q, n + 1)
    gamma, beta = mp.mpf(gamma), mp.mpf(beta)
    return [(ppow[n - k + 1] * ints[k] + gamma) / (qpow[k] * ints[n - k + 1] + beta)
            for k in range(n + 1)]


def _mp_weights(n, p, q, x):
    """mp_weights as mpf, inside the caller's workdps."""
    mp = _mp()
    ints = mp_integers(n + 1, p, q)
    ppow, qpow = _mp_powers(p, n), _mp_powers(q, n)
    x = mp.mpf(x)
    terms = [mp.one]
    for k in range(n):
        terms.append(terms[k] * qpow[k] * ints[n - k] * x / (ppow[n - 1 - k] * ints[k + 1]))
    total = mp.fsum(terms)
    return [t / total for t in terms]


def _mp_powers(base: float, m: int) -> list:
    """base^0..base^m as mpf by repeated multiplication, inside the caller's workdps."""
    mp = _mp()
    b = mp.mpf(base)
    out = [mp.one]
    for _ in range(m):
        out.append(out[-1] * b)
    return out


def _mp_moment(nu, n, p, q, x, ints):
    mp = _mp()
    p, q, x = mp.mpf(p), mp.mpf(q), mp.mpf(x)
    u = x / (1 + x)
    if nu == 1:
        return p * ints[n] / ints[n + 1] * u
    return (
        p**2 * q**2 * ints[n] * ints[n - 1] / ints[n + 1] ** 2 * u * x / (p + q * x)
        + p ** (n + 1) * ints[n] / ints[n + 1] ** 2 * u
    )


def sequential_integers(n: int, p: float, q: float) -> list[float]:
    """[0]..[n] by [i] = p [i-1] + q^(i-1), or i p^(i-1) on the diagonal q = p."""
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
    return ints


def sequential_nodes(n: int, p: float, q: float, shift=None):
    """(node values, indices of negative nodes) by the scalar node loop, errors included.

    The loop the operator kernel ran before its tables became array
    operations.  ``shift`` is (gamma, beta) for the shifted variant, whose
    nodes are not checked increasing; None selects the base variant.
    """
    gamma, beta = shift if shift is not None else (0.0, 0.0)
    ints = sequential_integers(n + 1, p, q)
    ppow = [p ** j for j in range(n + 2)]
    qpow = [q ** j for j in range(n + 2)]
    vals = []
    for k in range(n + 1):
        m = n - k + 1
        den = qpow[k] * ints[m] + beta
        v = (ppow[m] * ints[k] + gamma) / den if den else math.inf
        if not math.isfinite(v):
            raise DomainError(
                f"node {k} overflows: its denominator q^{k} [{m}] = "
                f"{qpow[k]!r} * {ints[m]!r} is {den!r} (p={p}, q={q})"
            )
        vals.append(v)
    if shift is not None:
        return tuple(vals), tuple(k for k, v in enumerate(vals) if v < 0)
    for k in range(n):
        if not vals[k] < vals[k + 1]:
            raise ArithmeticError(f"node table not increasing at k={k} (n={n}, q={q})")
    return tuple(vals), ()


def sequential_weights(n: int, p: float, q: float, x: float) -> tuple[float, ...]:
    """Kernel weights w_0..w_n at x by the scalar ratio recurrence, errors included.

    The loop the operator kernel ran before it was vectorized, copied with its
    integer table (``sequential_integers``) and its normalizer check against
    the rising product built by repeated multiplication.  Products and sums are taken one by one in ascending k.
    """
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"evaluation point must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return (1.0,) + (0.0,) * n
    ints = sequential_integers(n, p, q)
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


def sequential_rhs(f, n: int, p: float, q: float, x: float) -> float:
    """(px/q) (sum_k dd2_k gap_k w_k - dd1 w_n), accumulated from 0.0 in ascending k.

    The loop the representation's right-hand side was summed with before the
    sum went through the kernel's weighted sum, on the scalar node, weight
    and integer loops above; base variant, px/q clear of every node.
    """
    t, _ = sequential_nodes(n, p, q)
    w = sequential_weights(n, p, q, x)
    ints = sequential_integers(n + 1, p, q)
    pivot = p * x / q
    fp, ft = float(f(pivot)), [float(f(tk)) for tk in t]

    def dd1(a, b, fa, fb):
        return (fb - fa) / (b - a)

    acc = 0.0
    for k in range(n):
        gap = p ** (n - k) * ints[n + 1] / (ints[n - k] * ints[n - k + 1] * q ** (k + 1))
        dd2 = (dd1(t[k], t[k + 1], ft[k], ft[k + 1]) - dd1(pivot, t[k], fp, ft[k])) / (
            t[k + 1] - pivot)
        acc += dd2 * gap * w[k]
    acc -= dd1(pivot, t[n], fp, ft[n]) * w[n]
    return pivot * acc


def walk_expression(ast, t: float) -> float:
    """The expression at t by the recursive tree walk, errors included.

    The evaluator expressions were interpreted with before they were
    compiled, with its check that t is finite in front.  The one compiled
    evaluator is held to it both at one t and over a list of t.
    """
    if not math.isfinite(t):
        raise ExpressionDomainError(f"t must be finite, got {t!r}")
    return _walk(ast, t)


def _walk_fail(node, t, why):
    return ExpressionDomainError(f"{why} in '{format_expression(node)}' at t={t!r}")


def _walk(node, t):
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return float(t)
    if isinstance(node, Negate):
        return -_walk(node.operand, t)
    if isinstance(node, Call):
        arg = _walk(node.arg, t)
        try:
            value = float(FUNCTIONS[node.func](arg))
        except (ValueError, OverflowError):
            raise _walk_fail(node, t, f"{node.func} of {arg!r} is undefined") from None
        if not math.isfinite(value):
            raise _walk_fail(node, t, "non-finite result")
        return value
    lhs = _walk(node.left, t)
    rhs = _walk(node.right, t)
    if node.op == "+":
        value = lhs + rhs
    elif node.op == "-":
        value = lhs - rhs
    elif node.op == "*":
        value = lhs * rhs
    elif node.op == "/":
        if rhs == 0.0:
            raise _walk_fail(node, t, "division by zero")
        value = lhs / rhs
    else:
        try:
            value = math.pow(lhs, rhs)
        except (ValueError, OverflowError):
            raise _walk_fail(node, t, f"{lhs!r} ^ {rhs!r} is undefined") from None
    if not math.isfinite(value):
        raise _walk_fail(node, t, "non-finite result")
    return value
