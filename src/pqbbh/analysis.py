"""Convergence analysis for the operator family.

Closed-form moments of the test functions (t/(1+t))^nu, Korovkin-style
discrepancies under parameter schedules, the rate quantity delta_n, grid
estimates of the modulus of continuity in the half-line metric, and the
Lipschitz-type and shifted-variant bounds.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

from ._record import Record, _set

# weights is unused here; bench/test_spans.py::test_every_namespace_sees_the_wrapper_and_uninstall_restores_it reads it
from .operators import OperatorSpec, RealFunction, weights
from .operators import _Kernel, _sample, _variant
from .pq_core import DomainError, PqParams

if TYPE_CHECKING:
    import numpy as np


class ParamSchedule:
    """A rule n -> (p_n, q_n) with both parameters tending to 1."""

    __slots__ = ()

    def params_for(self, n: int) -> PqParams:
        raise NotImplementedError


class HarmonicSchedule(ParamSchedule, Record):
    """p_n = 1 - a/n, q_n = 1 - b/n with 0 < a < b < 1."""

    __slots__ = _fields = ("a", "b")
    a: float
    b: float

    def __init__(self, a: float, b: float) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        if not 0.0 < a < b < 1.0:
            raise ValueError(f"require 0 < a < b < 1, got a={a}, b={b}")

    def params_for(self, n: int) -> PqParams:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"schedule index must be an integer >= 1, got {n!r}")
        return PqParams(1.0 - self.a / n, 1.0 - self.b / n)


def param_schedule(schedule: ParamSchedule, n: int) -> PqParams:
    """Parameters the schedule assigns to degree n."""
    return schedule.params_for(n)


class GridSpec(Record):
    """Sorted nonnegative sample points standing in for the sup over the half line."""

    __slots__ = _fields = ("xs",)
    xs: tuple[float, ...]

    def __init__(self, xs: tuple[float, ...]) -> None:
        _set(self, "xs", xs)
        if not xs:
            raise ValueError("grid must be nonempty")
        # The same checks in C, about 4x faster than the loop at 2,001 points
        # (all(map(...)) over isfinite and pairwise <= was slower than the
        # loop on Python 3.11): a sum is finite only if every point is (one
        # that overflows only sends the grid to the loop), and a sorted grid
        # is >= 0 if its first point is.  The loop names the first bad point,
        # or raises at the first point whose type refuses the checks.
        try:
            if math.isfinite(sum(xs)) and xs[0] >= 0 and sorted(xs) == list(xs):
                return
        except TypeError:
            pass
        prev = -math.inf
        for x in xs:
            if not math.isfinite(x) or x < 0:
                raise ValueError(f"grid points must be finite and >= 0, got {x!r}")
            if x < prev:
                raise ValueError("grid points must be sorted ascending")
            prev = x

    @classmethod
    def default(cls, x_max: float = 50.0, points: int = 2001) -> "GridSpec":
        """Uniform points on [0, min(5, x_max)] joined with a geometric tail to x_max."""
        if not math.isfinite(x_max) or x_max <= 0:
            raise ValueError(f"x_max must be positive, got {x_max!r}")
        if points < 2:
            raise ValueError(f"need at least 2 grid points, got {points!r}")
        import numpy as np

        knee = min(5.0, x_max)
        if x_max <= 5.0:
            xs = np.linspace(0.0, x_max, points)
        else:
            n_uniform = (points + 1) // 2
            head = np.linspace(0.0, knee, n_uniform)
            tail = np.geomspace(knee, x_max, points - n_uniform + 1)[1:]
            xs = np.concatenate([head, tail])
        return cls(tuple(xs.tolist()))

    @property
    def x_max(self) -> float:
        return self.xs[-1]

    @property
    def u_max(self) -> float:
        """Upper end of the grid in the transformed variable u = x/(1+x)."""
        return self.x_max / (1.0 + self.x_max)


class PointSet(Record):
    """Finite union of closed intervals in [0, inf]; normalized on construction."""

    __slots__ = _fields = ("intervals",)
    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: tuple[tuple[float, float], ...]) -> None:
        if not intervals:
            raise ValueError("point set must be nonempty")
        cleaned = []
        for lo, hi in intervals:
            lo, hi = float(lo), float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            if lo < 0 or hi < lo:
                raise ValueError(f"bad interval [{lo}, {hi}]")
            cleaned.append((lo, hi))
        cleaned.sort()
        merged = [cleaned[0]]
        for lo, hi in cleaned[1:]:
            mlo, mhi = merged[-1]
            if lo <= mhi:
                merged[-1] = (mlo, max(mhi, hi))
            else:
                merged.append((lo, hi))
        _set(self, "intervals", tuple(merged))

    @classmethod
    def nonneg_reals(cls) -> "PointSet":
        return cls(((0.0, math.inf),))

    @classmethod
    def points(cls, values: Sequence[float]) -> "PointSet":
        return cls(tuple((float(v), float(v)) for v in values))


class LipschitzClass(Record):
    """Hoelder-type class in the half-line metric: constant M, exponent alpha, reference set E."""

    __slots__ = _fields = ("M", "alpha", "E")
    M: float
    alpha: float
    E: PointSet

    def __init__(self, M: float, alpha: float, E: PointSet) -> None:
        _set(self, "M", M)
        _set(self, "alpha", alpha)
        _set(self, "E", E)
        if not M > 0:
            raise ValueError(f"M must be positive, got {M!r}")
        if not math.isfinite(M):
            raise ValueError(f"M must be finite, got {M!r}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")


class RatePoint(Record):
    """One grid point of a rate-bound check: |L_n f - f| against 2 omega(f, sqrt(delta_n))."""

    __slots__ = _fields = ("x", "lhs", "rhs", "passed")
    x: float
    lhs: float
    rhs: float
    passed: bool

    def __init__(self, x: float, lhs: float, rhs: float, passed: bool) -> None:
        _set(self, "x", x)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "passed", passed)


class ConvergenceRow(Record):
    __slots__ = _fields = ("n", "p", "q", "disc0", "disc1", "disc2", "sup_delta")
    n: int
    p: float
    q: float
    disc0: float
    disc1: float
    disc2: float
    sup_delta: float

    def __init__(self, n: int, p: float, q: float, disc0: float, disc1: float, disc2: float,
                 sup_delta: float) -> None:
        _set(self, "n", n)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "disc0", disc0)
        _set(self, "disc1", disc1)
        _set(self, "disc2", disc2)
        _set(self, "sup_delta", sup_delta)


class ConvergenceReport(Record):
    """Per-degree Korovkin discrepancies and delta_n suprema along a schedule."""

    __slots__ = _fields = ("rows",)
    rows: tuple[ConvergenceRow, ...]

    def __init__(self, rows: tuple[ConvergenceRow, ...]) -> None:
        _set(self, "rows", rows)


class _ClosedForms:
    """x-free quantities of one spec's closed forms up to order nu (1 or 2).

    ints is the spec's [0]..[n+1] and den is [n+1]^nu, which shrinks like
    p^(n nu); where it is not normal the forms are taken at (1, q/p), the
    same M1 and delta_n with den >= 1 (OperatorSpec._at_ratio).  delta_n
    is the sum of two nonnegative terms, exact by [n+1] = p[n] + q^n and
    (p-q)[n-1] = p^(n-1) - q^(n-1):

        (u q^n/[n+1])^2 + u p^2 [n] (p^n + q^n x) / ([n+1]^2 (p + qx)(1 + x))
    """

    def __init__(self, spec: OperatorSpec, nu: int = 2) -> None:
        n = spec.n
        self.nu = nu
        ints = spec._ints
        if ints[n + 1] ** nu < sys.float_info.min:
            spec = spec._at_ratio
            ints = spec._ints
        self.p, self.q = p, q = spec.params.p, spec.params.q
        self.den = den = ints[n + 1] ** nu
        self.first = p * ints[n] / ints[n + 1]
        if nu == 2:
            self.second = p * p * q * q * ints[n] * ints[n - 1] / den
            self.tail = p ** (n + 1) * ints[n] / den
            self.pn, self.qn = p**n, q**n
            self.lead = self.qn / ints[n + 1]
            self.spread = p * p * ints[n] / den

    def moment(self, x: float) -> float:
        u = x / (1.0 + x)
        if self.nu == 1:
            return self.first * u
        return self.second * u * (x / (self.p + self.q * x)) + self.tail * u

    def delta(self, x: float) -> float:
        u = x / (1.0 + x)
        # (p^n + q^n x)/(p + qx) <= 1 first, so no product overflows for any finite x
        ratio = (self.pn + self.qn * x) / (self.p + self.q * x)
        a = u * self.lead
        return a * a + u * self.spread * ratio / (1.0 + x)


def _check_moment(spec: OperatorSpec, nu: int, what: str) -> None:
    _variant(spec, False, what)
    if nu not in (0, 1, 2):
        raise ValueError(f"nu must be 0, 1 or 2, got {nu!r}")


def moment_closed(spec: OperatorSpec, nu: int, x: float) -> float:
    """Closed form of the operator applied to (t/(1+t))^nu, nu in {0, 1, 2}.

    nu = 0 gives exactly 1 (partition of unity); nu = 1 gives
    p[n]/[n+1] x/(1+x); nu = 2 adds the two-term second-moment form.  Where
    [n+1]^nu is not a normal double, both are taken at (1, q/p).
    """
    _check_moment(spec, nu, "moment_closed")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    if nu == 0:
        return 1.0
    return _ClosedForms(spec, nu).moment(x)


def delta_n(spec: OperatorSpec, x: float) -> float:
    """Centered second kernel moment in the half-line metric (the rate quantity).

    Equals M2(x) - 2u M1(x) + u^2 with u = x/(1+x) and M_nu the closed
    moments; nonnegative: a sum of two nonnegative terms (see _ClosedForms).
    Where [n+1]^2 is not a normal double, it is taken at (1, q/p).
    """
    _variant(spec, False, "delta_n")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    return _ClosedForms(spec).delta(x)


def korovkin_discrepancy(spec: OperatorSpec, nu: int, grid: GridSpec) -> float:
    """Max over the grid of |closed moment - (x/(1+x))^nu|.

    A lower bound for the sup-norm distance that drives the Korovkin
    convergence statement; it saturates as the grid refines because the
    integrand factors through x/(1+x).
    """
    _check_moment(spec, nu, "korovkin_discrepancy")
    if nu == 0:
        return 0.0  # M_0 = 1 = u^0 at every x
    forms = _ClosedForms(spec, nu)
    return max(abs(forms.moment(x) - (x / (1.0 + x)) ** nu) for x in grid.xs)


def sup_delta(spec: OperatorSpec, grid: GridSpec) -> float:
    """Max of delta_n over the grid."""
    _variant(spec, False, "sup_delta")
    return max(map(_ClosedForms(spec).delta, grid.xs))


def convergence_report(
    schedule: ParamSchedule, n_list: Sequence[int], grid: GridSpec
) -> ConvergenceReport:
    """Tabulate discrepancies and sup delta_n for each degree along a schedule."""
    rows = []
    for n in n_list:
        params = param_schedule(schedule, n)
        spec = OperatorSpec(n, params)
        rows.append(
            ConvergenceRow(
                n=n,
                p=params.p,
                q=params.q,
                disc0=korovkin_discrepancy(spec, 0, grid),
                disc1=korovkin_discrepancy(spec, 1, grid),
                disc2=korovkin_discrepancy(spec, 2, grid),
                sup_delta=sup_delta(spec, grid),
            )
        )
    return ConvergenceReport(tuple(rows))


# Samples of the transformed grid behind every modulus estimate.
_MODULUS_POINTS = 8001


def _moduli(
    f: RealFunction, deltas: Sequence[float] | np.ndarray, u_max: float,
    points: int = _MODULUS_POINTS,
) -> list[float]:
    """Grid omega(f, delta) for each delta, from one sample of f and one table.

    f is sampled along t = u/(1-u) at ``points`` uniform u in [0, u_max], h
    apart; delta >= 0 spans floor(delta/h) steps, at most the whole grid, and
    ranges[w] = max |g_i - g_j| over |i - j| <= w is tabulated to the widest.
    """
    if not 0.0 < u_max < 1.0:
        raise DomainError(f"transformed grid end must lie in (0, 1), got {u_max!r}")
    h = u_max / (points - 1)
    if h == 0.0:
        raise DomainError(
            f"transformed grid end {u_max!r} leaves a modulus grid step of 0.0 "
            f"over {points - 1} steps"
        )
    import numpy as np

    # int(min(delta / h + 1e-12, points - 1)) for each delta, in one pass:
    # the quotients are >= 0, where astype truncates as int() does
    with np.errstate(over="ignore"):  # a quotient beyond the doubles is inf, as in float arithmetic
        widths = np.minimum(np.asarray(deltas) / h + 1e-12, points - 1).astype(int).tolist()
    w_top = max(widths)
    ranges = _window_ranges(_modulus_samples(f, u_max, points), w_top)
    return [ranges[w] for w in widths]


def _modulus_samples(f: RealFunction, u_max: float, points: int) -> np.ndarray:
    """g_i = f(u_i/(1-u_i)) at ``points`` uniform u_i in [0, u_max]."""
    import numpy as np

    us = np.linspace(0.0, u_max, points)
    return _sample(f, us / (1.0 - us), "modulus grid point")


def _window_ranges(g: np.ndarray, w_top: int) -> list[float]:
    """ranges[w] = max |g_i - g_j| over |i - j| <= w, for w = 0..w_top: one pass per width.

    ranges[w] is the larger of ranges[w-1] and the largest |g[i+w] - g[i]|,
    read as max(d) and -min(d) of d = g[w:] - g[:-w].  Rounding is monotone
    and fl(-x) = -fl(x), so this is the rounded largest exact difference,
    as a running max minus a running min gives it, inf on overflow included.
    """
    import numpy as np

    points = len(g)
    diff = np.empty(points)
    ranges = [0.0] * (w_top + 1)
    top = 0.0
    with np.errstate(over="ignore"):  # a range beyond the doubles is inf
        for w in range(1, w_top + 1):
            d = np.subtract(g[w:], g[:-w], out=diff[: points - w])
            top = max(top, float(d.max()), -float(d.min()))
            ranges[w] = top
    return ranges


def modulus_estimate(
    f: RealFunction, delta: float, grid: GridSpec, points: int = _MODULUS_POINTS
) -> float:
    """Grid estimate of the modulus of continuity in the metric |t/(1+t) - x/(1+x)|.

    The sup of |f(t) - f(x)| over pairs within delta is taken on a uniform
    grid of ``points`` samples in the transformed variable u = x/(1+x) up
    to grid.u_max.  A lower bound of the true modulus, nondecreasing in
    delta, converging from below as the grid refines.  DomainError if
    grid.u_max is not inside (0, 1), as for the grid (0.0,), or so small
    that the grid step underflows to 0.0, as for (0.0, 1e-320).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if points < 2:
        raise ValueError(f"need at least 2 modulus points, got {points!r}")
    return _moduli(f, [delta], grid.u_max, points)[0]


def rate_bound_check(
    spec: OperatorSpec,
    f: RealFunction,
    grid: GridSpec,
    slack: float = 1e-6,
) -> list[RatePoint]:
    """Check |L_n f - f(x)| <= 2 omega(f; sqrt(delta_n(x))) + slack per grid point.

    The modulus is tabulated once on the refined transformed grid and read
    off per point; the slack absorbs the grid estimate's downward bias.
    """
    return list(map(RatePoint, *_rate_columns(spec, f, grid, slack)))


def _rate_columns(
    spec: OperatorSpec, f: RealFunction, grid: GridSpec, slack: float = 1e-6
) -> tuple[list[float], list[float], list[float], list[bool]]:
    """rate_bound_check's x, lhs, rhs and passed, one list each, in grid order."""
    import numpy as np

    _variant(spec, False, "rate_bound_check")
    kernel = _Kernel(spec)
    forms = _ClosedForms(spec)
    xs = np.array(grid.xs)
    # the float formula on an array: the same + - * / element by element, and
    # np.sqrt rounds correctly as math.sqrt does
    with np.errstate(all="ignore"):
        sqrt_deltas = np.sqrt(forms.delta(xs))
    omegas = _moduli(f, sqrt_deltas, grid.u_max)
    fvals = _sample(f, np.array(kernel.nodes().values), "node")
    fxs = _sample(f, xs, "grid point")
    approx = kernel.weighted_sums(grid.xs, fvals)
    with np.errstate(all="ignore"):  # a difference beyond the doubles is inf, as in float arithmetic
        lhs = np.abs(np.array(approx) - fxs)
        rhs = 2.0 * np.array(omegas)
        passed = lhs <= rhs + slack
    return list(grid.xs), lhs.tolist(), rhs.tolist(), passed.tolist()


def distance_to_set(x: float, e: PointSet) -> float:
    """Exact distance from x to the union of intervals (0 when x is inside); x not NaN."""
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    best = math.inf
    for lo, hi in e.intervals:
        if x < lo:
            d = lo - x
        elif x > hi:
            d = x - hi
        else:
            return 0.0
        if d < best:
            best = d
    return best


def lipschitz_bound(spec: OperatorSpec, cls: LipschitzClass, x: float) -> float:
    """Pointwise bound M (delta_n^(alpha/2) + 2 d(x, E)^alpha) for the class.

    With E the whole half line the distance term vanishes and the bound
    reduces to M delta_n^(alpha/2).
    """
    _variant(spec, False, "lipschitz_bound")
    d = distance_to_set(x, cls.E)
    dn = delta_n(spec, x)
    return cls.M * (dn ** (0.5 * cls.alpha) + 2.0 * d ** cls.alpha)


def lipschitz_constant_estimate(
    f: RealFunction, alpha: float, grid: GridSpec
) -> float:
    """Smallest grid-certified M with |f(t) - f(y)| <= M |u(t) - u(y)|^alpha.

    An empirical membership certificate for the Hoelder-type class, taken
    over all pairs of grid points (pairs coincident in u are skipped).
    """
    import numpy as np

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if len(grid.xs) < 2:
        raise ValueError("need at least 2 grid points")
    xs = np.asarray(grid.xs)
    us = xs / (1.0 + xs)
    fv = _sample(f, xs, "grid point")
    best = 0.0
    with np.errstate(over="ignore"):  # a difference beyond the doubles is inf
        for i in range(len(xs) - 1):
            du = np.abs(us[i + 1 :] - us[i])
            df = np.abs(fv[i + 1 :] - fv[i])
            mask = du > 0.0
            if mask.any():
                ratio = df[mask] / du[mask] ** alpha
                m = float(ratio.max())
                if m > best:
                    best = m
    return best


class StancuBoundReport(Record):
    """The three max terms of the shifted-variant bound, evaluated verbatim.

    The third term can come out negative (e.g. p = q = 1, n = 2 gives
    -1/9), in which case the printed bound collapses; ``degenerate`` flags
    a nonpositive max term rather than silently patching it.
    """

    __slots__ = _fields = ("terms", "max_term", "bound", "degenerate")
    terms: tuple[float, float, float]
    max_term: float
    bound: float
    degenerate: bool

    def __init__(self, terms: tuple[float, float, float], max_term: float, bound: float,
                 degenerate: bool) -> None:
        _set(self, "terms", terms)
        _set(self, "max_term", max_term)
        _set(self, "bound", bound)
        _set(self, "degenerate", degenerate)


def stancu_bound_report(
    spec: OperatorSpec, m_const: float, alpha: float
) -> StancuBoundReport:
    """Verbatim three-term bound 3M max{...} for the shifted-node variant.

    Raises:
        DomainError: if [n+1]^2 underflows, c_n + gamma is nonpositive, or
            gamma < 0 makes the first term's fractional power undefined.
    """
    _variant(spec, True, "stancu_bound_report")
    if not m_const > 0:
        raise ValueError(f"M must be positive, got {m_const!r}")
    if not math.isfinite(m_const):
        raise ValueError(f"M must be finite, got {m_const!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    n = spec.n
    p, q = spec.params.p, spec.params.q
    gamma, beta = spec.stancu.gamma, spec.stancu.beta
    ints = spec._ints
    den2 = ints[n + 1] ** 2  # the paper's terms are (p,q) objects, not functions of q/p
    if den2 < sys.float_info.min:
        raise DomainError(f"[n+1]^2 = {den2!r} underflows below the smallest normal double "
                          f"at n={n}, p={p}, q={q}")
    c_n = ints[n + 1] + beta
    den = c_n + gamma
    if den <= 0:
        raise DomainError(f"c_n + gamma must be positive, got {den!r}")
    if gamma < 0 and alpha != 1.0:
        raise DomainError(
            "first max term (gamma/[n])^alpha is undefined for gamma < 0 "
            f"with non-integer alpha={alpha}"
        )
    # gamma + 0.0 reads gamma = -0.0 as 0.0, so either zero gives term1 = 0.0
    term1 = (ints[n] / den) ** alpha * ((gamma + 0.0) / ints[n]) ** alpha
    term2 = abs(1.0 - ints[n + 1] / den) ** alpha * (p * ints[n] / ints[n + 1]) ** alpha
    term3 = 1.0 - 2.0 * p * ints[n] / ints[n + 1] + q * ints[n] * ints[n - 1] / den2
    max_term = max(term1, term2, term3)
    return StancuBoundReport(
        terms=(term1, term2, term3),
        max_term=max_term,
        bound=3.0 * m_const * max_term,
        degenerate=max_term <= 0.0,
    )


def stancu_bound(spec: OperatorSpec, m_const: float, alpha: float) -> float:
    """The bound value alone; see stancu_bound_report for the term breakdown."""
    _variant(spec, True, "stancu_bound")
    return stancu_bound_report(spec, m_const, alpha).bound
