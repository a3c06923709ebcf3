"""Bleimann-Butzer-Hahn operator family on the nonnegative half line.

Node tables, overflow-safe weight tables, point evaluation for the base and
shifted-node (Stancu-type) variants, Newton divided differences, and the
divided-difference representation of L_n f - f(px/q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .pq_core import DomainError, PqParams, log_pochhammer_ell, pq_integers

RealFunction = Callable[[float], float]

# Divided differences amplify roundoff near coincident abscissae; pivot
# points closer than this (relative) to a node are rejected.
COLLISION_RTOL = 1e-9

# Weight-table terms are renormalized once they exceed this, long before a
# single ratio step (bounded by ~1e160 for parameters above ~1e-2) could
# push them over double overflow.
_RESCALE_AT = 1e100


class EvaluationError(DomainError):
    """A function returned a non-finite value at one of its sample points."""


@dataclass(frozen=True)
class StancuShift:
    """Node shift (gamma, beta) selecting the Stancu-type variant.

    gamma may be any finite real; beta must be nonnegative so that the
    shifted denominators q^k [n-k+1] + beta stay positive.
    """

    gamma: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("gamma and beta must be finite")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


@dataclass(frozen=True)
class OperatorSpec:
    """Degree, parameter pair and variant; fully determines one operator."""

    n: int
    params: PqParams
    stancu: StancuShift | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"operator degree must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class NodeTable:
    """Operator nodes t_{n,0}..t_{n,n} in ascending k order.

    ``negative`` lists indices of nodes below zero, which can occur only
    for the Stancu variant with gamma < 0; evaluation there leaves the
    half line the target function is guaranteed on.
    """

    values: tuple[float, ...]
    negative: tuple[int, ...] = ()

    @property
    def max_node(self) -> float:
        """Largest node, p[n]/q^n for the base variant; grows fast as q shrinks."""
        return max(self.values)


@dataclass(frozen=True)
class WeightTable:
    """Probability weights w_0..w_n of the operator kernel at a point x."""

    x: float
    weights: tuple[float, ...]


def _node_values(spec: OperatorSpec, gamma: float, beta: float) -> list[float]:
    # The base nodes are the shifted ones at gamma = beta = 0, bit for bit.
    n = spec.n
    p, q = spec.params.p, spec.params.q
    ints = pq_integers(n + 1, spec.params)
    vals = []
    for k in range(n + 1):
        m = n - k + 1
        den = q ** k * ints[m] + beta
        v = (p ** m * ints[k] + gamma) / den if den else math.inf
        if not math.isfinite(v):
            raise DomainError(
                f"node {k} overflows: its denominator q^{k} [{m}] = "
                f"{q ** k!r} * {ints[m]!r} is {den!r} (p={p}, q={q})"
            )
        vals.append(v)
    return vals


def nodes(spec: OperatorSpec) -> NodeTable:
    """Base-variant nodes t_{n,k} = p^(n-k+1) [k] / ([n-k+1] q^k).

    The table starts at 0 and is strictly increasing in k.
    """
    if spec.stancu is not None:
        raise ValueError("nodes() serves the base variant; use stancu_nodes()")
    vals = _node_values(spec, 0.0, 0.0)
    n, q = spec.n, spec.params.q
    for k in range(n):
        if not vals[k] < vals[k + 1]:
            raise ArithmeticError(f"node table not increasing at k={k} (n={n}, q={q})")
    return NodeTable(tuple(vals))


def stancu_nodes(spec: OperatorSpec) -> NodeTable:
    """Shifted nodes (p^(n-k+1) [k] + gamma) / (q^k [n-k+1] + beta).

    The shifted denominator b_{n,k} satisfies p^(n-k+1) [k] + b_{n,k}
    = [n+1] + beta for every k.  Nodes driven below zero by a negative
    gamma are reported through ``NodeTable.negative``.
    """
    if spec.stancu is None:
        raise ValueError("stancu_nodes() requires a spec with a StancuShift")
    vals = _node_values(spec, spec.stancu.gamma, spec.stancu.beta)
    return NodeTable(tuple(vals), tuple(k for k, v in enumerate(vals) if v < 0))


def weights(spec: OperatorSpec, x: float) -> WeightTable:
    """Kernel weights w_k(x) = c_k x^k / ell_n(x), nonnegative and summing to 1.

    Terms are built by the ratio recurrence
    term_{k+1}/term_k = q^k [n-k] x / (p^(n-k-1) [k+1]), rescaled before
    they can overflow, and normalized by the running sum.  The normalizer
    is cross-checked against the rising product (the expansion identity
    behind the partition of unity) in log space.
    """
    return _weight_table(spec, x, pq_integers(spec.n, spec.params))


def _weight_table(spec: OperatorSpec, x: float, ints: list[float]) -> WeightTable:
    # ints holds at least [0]..[n]; a longer table gives the same weights.
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"evaluation point must be finite and >= 0, got {x!r}")
    n = spec.n
    p, q = spec.params.p, spec.params.q
    if x == 0.0:
        return WeightTable(0.0, (1.0,) + (0.0,) * n)
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
        if t > _RESCALE_AT:
            terms = [v / t for v in terms]
            total /= t
            log_scale += math.log(t)
            t = 1.0
        terms.append(t)
        total += t
    w = tuple(t / total for t in terms)
    log_c0 = 0.5 * n * (n - 1) * math.log(p)
    log_sum = math.log(total) + log_scale + log_c0
    if abs(log_sum - log_pochhammer_ell(n, x, spec.params)) > 1e-8:
        raise ArithmeticError(
            f"weight normalizer drifted from the rising product at n={n}, x={x}"
        )
    return WeightTable(float(x), w)


def _sample(f: RealFunction, ts: Iterable[float], what: str) -> list[float]:
    """f(t) as a float for each t in order: the one place a user function is called."""
    vals = []
    for i, t in enumerate(ts):
        v = float(f(t))
        if not math.isfinite(v):
            raise EvaluationError(f"function returned {v!r} at {what} {i} (t={t!r})")
        vals.append(v)
    return vals


def _weighted_sum(weight_table: WeightTable, fvals: list[float]) -> float:
    # Fixed ascending-k sequential sum keeps results bit-deterministic.
    acc = 0.0
    for w, v in zip(weight_table.weights, fvals):
        acc += v * w
    return acc


def evaluate(spec: OperatorSpec, f: RealFunction, x: float) -> float:
    """Apply the operator: sum_k f(t_{n,k}) w_k(x), nodes chosen by the variant.

    The partition of unity makes constants reproduce themselves, and
    nonnegative node values give a nonnegative result exactly.

    Raises:
        EvaluationError: if f is non-finite at any node (the largest node,
            p[n]/q^n, grows rapidly for small q; see NodeTable.max_node).
    """
    table = stancu_nodes(spec) if spec.stancu is not None else nodes(spec)
    return _weighted_sum(weights(spec, x), _sample(f, table.values, "node"))


def evaluate_stancu(spec: OperatorSpec, f: RealFunction, x: float) -> float:
    """Stancu-variant evaluation, split out so both variants compare side by side."""
    if spec.stancu is None:
        raise ValueError("evaluate_stancu() requires a spec with a StancuShift")
    return evaluate(spec, f, x)


def _dd1(a: float, b: float, fa: float, fb: float) -> float:
    return (fb - fa) / (b - a)


def _dd2(a: float, b: float, c: float, fa: float, fb: float, fc: float) -> float:
    return (_dd1(b, c, fb, fc) - _dd1(a, b, fa, fb)) / (c - a)


def divided_difference(points: Sequence[float], f: RealFunction) -> float:
    """Newton divided difference of f over 2 or 3 pairwise distinct points.

    Raises:
        DomainError: if two abscissae coincide within the collision
            tolerance (relative 1e-9).
    """
    pts = [float(a) for a in points]
    if len(pts) not in (2, 3):
        raise ValueError("orders 1 and 2 only: pass 2 or 3 points")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < COLLISION_RTOL * (1.0 + abs(pts[j])):
                raise DomainError(f"abscissae {pts[i]!r} and {pts[j]!r} nearly coincide")
    fs = _sample(f, pts, "point")
    if len(pts) == 2:
        return _dd1(*pts, *fs)
    return _dd2(*pts, *fs)


def representation_rhs(spec: OperatorSpec, f: RealFunction, x: float) -> float:
    """Divided-difference form of evaluate(spec, f, x) - f(px/q), base variant.

    Evaluates

        - (x^(n+1)/ell_n(x)) [px/q; p[n]/q^n; f] p q^(n(n-1)/2 - 1)
        + (x/ell_n(x)) sum_k [px/q; t_k; t_{k+1}; f] gap_k
              p^((n-k)(n-k-1)/2 + 1) q^(k(k-1)/2 - 1) [n over k] x^k

    with gap_k = p^(n-k) [n+1] / ([n-k][n-k+1] q^(k+1)), the closed form of
    the node gap t_{k+1} - t_k.  The kernel factors are exactly the weight
    table entries scaled by ell_n(x), so the sum is accumulated as
    (px/q) (sum_k dd2_k gap_k w_k - dd1 w_n), which stays stable where the
    raw prefactors would over- or underflow.

    Intended for moderate degrees: second-order differences across the
    shrinking node gaps lose accuracy as n grows (validated to n = 8 in
    the test corpus).

    Raises:
        DomainError: if x <= 0, or px/q collides with a node within the
            relative tolerance 1e-9 (named in the message).
    """
    if spec.stancu is not None:
        raise ValueError("representation_rhs() serves the base variant only")
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"requires x > 0, got {x!r}")
    n = spec.n
    p, q = spec.params.p, spec.params.q
    pivot = p * x / q
    table = nodes(spec)
    for k, t in enumerate(table.values):
        if abs(pivot - t) < COLLISION_RTOL * (1.0 + abs(t)):
            raise DomainError(f"px/q = {pivot!r} collides with node {k} (t={t!r})")
    ints = pq_integers(n + 1, spec.params)
    w = _weight_table(spec, x, ints).weights
    t = table.values
    (fp,) = _sample(f, (pivot,), "pivot")
    ft = _sample(f, t, "node")
    acc = 0.0
    for k in range(n):
        gap = p ** (n - k) * ints[n + 1] / (ints[n - k] * ints[n - k + 1] * q ** (k + 1))
        acc += _dd2(pivot, t[k], t[k + 1], fp, ft[k], ft[k + 1]) * gap * w[k]
    acc -= _dd1(pivot, t[n], fp, ft[n]) * w[n]
    return (p * x / q) * acc
