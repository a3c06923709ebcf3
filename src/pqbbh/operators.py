"""Bleimann-Butzer-Hahn operator family on the nonnegative half line.

Node tables, overflow-safe weight tables, point evaluation for the base and
shifted-node (Stancu-type) variants, Newton divided differences, and the
divided-difference representation of L_n f - f(px/q).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .pq_core import DomainError, PqParams, pq_integers

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


class _Kernel:
    """x-free tables of one spec, built once and read by every node and weight row.

    ints holds [0]..[n+1] and ppow, qpow hold p^j, q^j for j = 0..n+1, taken
    with Python ``**`` (numpy's power differs from it in the last bit).  num
    and den are the x-free halves of the weight ratio
    q^k [n-k] x / (p^(n-1-k) [k+1]), k = 0..n-1.
    """

    def __init__(self, spec: OperatorSpec) -> None:
        self.spec = spec
        n = spec.n
        self.p, self.q = p, q = spec.params.p, spec.params.q
        self.ints = ints = pq_integers(n + 1, spec.params)
        self.ppow = ppow = [p ** j for j in range(n + 2)]
        self.qpow = qpow = [q ** j for j in range(n + 2)]
        self.num = np.array([qpow[k] * ints[n - k] for k in range(n)])
        self.den = np.array([ppow[n - 1 - k] * ints[k + 1] for k in range(n)])
        # p^s and q^s, s = 0..n-1: the factors p^s + q^s x of the rising product
        self.ell_p, self.ell_q = np.array(ppow[:n]), np.array(qpow[:n])
        self.log_c0 = 0.5 * n * (n - 1) * math.log(p)

    def nodes(self) -> NodeTable:
        """The spec's nodes: base ones checked increasing, shifted ones with negatives listed."""
        # The base nodes are the shifted ones at gamma = beta = 0, bit for bit.
        shift = self.spec.stancu
        gamma, beta = (shift.gamma, shift.beta) if shift is not None else (0.0, 0.0)
        n, p, q = self.spec.n, self.p, self.q
        ints, ppow, qpow = self.ints, self.ppow, self.qpow
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
            return NodeTable(tuple(vals), tuple(k for k, v in enumerate(vals) if v < 0))
        for k in range(n):
            if not vals[k] < vals[k + 1]:
                raise ArithmeticError(f"node table not increasing at k={k} (n={n}, q={q})")
        return NodeTable(tuple(vals))

    def row(self, x: float) -> np.ndarray:
        """Weights w_0..w_n at x, bit for bit those of the sequential ratio recurrence.

        term_{k+1} = term_k r_k with r_k = num_k x / den_k, as one cumprod per
        segment: a segment starts at a term equal to 1.0 and ends at the first
        term above _RESCALE_AT (all earlier terms are divided by it and the
        next segment starts) or not finite (an error).  The running total is
        a cumsum seeded with the total so far, so every product and sum is
        taken in the loop's order.
        """
        if not math.isfinite(x) or x < 0:
            raise DomainError(f"evaluation point must be finite and >= 0, got {x!r}")
        n = self.spec.n
        w = np.zeros(n + 1)
        w[0] = 1.0
        if x == 0.0:
            return w
        # cumprod runs on past a rescale point and may overflow there
        with np.errstate(all="ignore"):
            ratios = self.num * x / self.den
            total = 1.0
            log_scale = 0.0  # log of everything divided out so far
            s = 0  # w[s] == 1.0 starts the current segment
            while s < n:
                seg = ratios[s:].cumprod()
                stops = ~(seg <= _RESCALE_AT)
                stop = int(stops.argmax())
                if not stops[stop]:
                    stop = seg.size
                w[s + 1 : s + 1 + stop] = seg[:stop]
                if stop:
                    seg[0] += total
                    total = float(seg[:stop].cumsum()[-1])
                if stop == seg.size:
                    break
                k = s + stop
                t = float(seg[stop])
                if self.den[k] == 0.0:
                    raise DomainError(
                        f"degree {n} too large for p={self.p}: term ratio overflows"
                    )
                if not math.isfinite(t):
                    raise DomainError(f"weight term {k + 1} overflows for n={n}, x={x}")
                w[: k + 1] /= t
                total /= t
                log_scale += math.log(t)
                w[k + 1] = 1.0
                total += 1.0
                s = k + 1
            log_ell = float(np.log(self.ell_p + self.ell_q * x).sum())
        w /= total
        log_sum = math.log(total) + log_scale + self.log_c0
        if abs(log_sum - log_ell) > 1e-8:
            raise ArithmeticError(self._drift_message(x))
        return w

    def _drift_message(self, x: float) -> str:
        msg = f"weight normalizer drifted from the rising product at n={self.spec.n}, x={x}"
        tiny = np.flatnonzero(self.den < sys.float_info.min)
        if tiny.size:
            k = int(tiny[0])
            msg += (
                f": ratio denominator p^{self.spec.n - 1 - k} [{k + 1}] = "
                f"{float(self.den[k])!r} is subnormal at k={k} (p={self.p}, q={self.q})"
            )
        return msg


def nodes(spec: OperatorSpec) -> NodeTable:
    """Base-variant nodes t_{n,k} = p^(n-k+1) [k] / ([n-k+1] q^k).

    The table starts at 0 and is strictly increasing in k.
    """
    if spec.stancu is not None:
        raise ValueError("nodes() serves the base variant; use stancu_nodes()")
    return _Kernel(spec).nodes()


def stancu_nodes(spec: OperatorSpec) -> NodeTable:
    """Shifted nodes (p^(n-k+1) [k] + gamma) / (q^k [n-k+1] + beta).

    The shifted denominator b_{n,k} satisfies p^(n-k+1) [k] + b_{n,k}
    = [n+1] + beta for every k.  Nodes driven below zero by a negative
    gamma are reported through ``NodeTable.negative``.
    """
    if spec.stancu is None:
        raise ValueError("stancu_nodes() requires a spec with a StancuShift")
    return _Kernel(spec).nodes()


def weights(spec: OperatorSpec, x: float) -> WeightTable:
    """Kernel weights w_k(x) = c_k x^k / ell_n(x), nonnegative and summing to 1.

    Terms follow the ratio recurrence
    term_{k+1}/term_k = q^k [n-k] x / (p^(n-k-1) [k+1]) from term_0 = 1,
    taken in ascending k with every term divided out once one exceeds 1e100,
    and are normalized by their sequential sum; the result is the same
    double for double as that scalar loop.  At x = 0 all mass sits on k = 0.
    For x > 0 the normalizer is cross-checked in log space against the
    rising product ell_n(x) (the expansion identity behind the partition of
    unity).

    Raises:
        DomainError: if x is negative or not finite, a ratio denominator is
            zero, or a term overflows.
        ArithmeticError: if the normalizer drifts from the rising product by
            more than 1e-8 in log space; the message names the first
            subnormal ratio denominator, the usual cause.
    """
    row = _Kernel(spec).row(x)
    return WeightTable(float(x) if x else 0.0, tuple(row.tolist()))


def _sample(f: RealFunction, ts: Iterable[float], what: str) -> list[float]:
    """f(t) as a float for each t in order: the one place a user function is called."""
    vals = []
    for i, t in enumerate(ts):
        v = float(f(t))
        if not math.isfinite(v):
            raise EvaluationError(f"function returned {v!r} at {what} {i} (t={t!r})")
        vals.append(v)
    return vals


def _weighted_sum(w: np.ndarray, fvals: Sequence[float] | np.ndarray) -> float:
    # Sequential ascending-k sum: cumsum adds in the loop's order (np.sum
    # would not), and 0.0 + gives the sign of zero an accumulator from 0.0 gives.
    return float(0.0 + np.cumsum(np.asarray(fvals) * w)[-1])


def evaluate(spec: OperatorSpec, f: RealFunction, x: float) -> float:
    """Apply the operator: sum_k f(t_{n,k}) w_k(x), nodes chosen by the variant.

    The partition of unity makes constants reproduce themselves, and
    nonnegative node values give a nonnegative result exactly.

    Raises:
        EvaluationError: if f is non-finite at any node (the largest node,
            p[n]/q^n, grows rapidly for small q; see NodeTable.max_node).
    """
    kernel = _Kernel(spec)
    table = kernel.nodes()
    return _weighted_sum(kernel.row(x), _sample(f, table.values, "node"))


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
    _require_positive(x)
    kernel = _Kernel(spec)
    t = kernel.nodes().values
    pivot = _pivot(kernel, t, x)
    w = kernel.row(x)
    (fp,) = _sample(f, (pivot,), "pivot")
    return _rhs(kernel, pivot, t, w, fp, _sample(f, t, "node"))


def _representation(spec: OperatorSpec, f: RealFunction, x: float) -> tuple[float, float]:
    """(evaluate(spec, f, x) - f(px/q), representation_rhs(spec, f, x)), base variant.

    One kernel and one sample of f per point serve both sides.  Errors come
    in the order of evaluate followed by representation_rhs.
    """
    kernel = _Kernel(spec)
    t = kernel.nodes().values
    w = kernel.row(x)
    ft = _sample(f, t, "node")
    approx = _weighted_sum(w, ft)
    _require_positive(x)
    pivot = _pivot(kernel, t, x)
    (fp,) = _sample(f, (pivot,), "pivot")
    return approx - fp, _rhs(kernel, pivot, t, w, fp, ft)


def _require_positive(x: float) -> None:
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"requires x > 0, got {x!r}")


def _pivot(kernel: _Kernel, t: Sequence[float], x: float) -> float:
    """px/q, refused where it collides with a node."""
    pivot = kernel.p * x / kernel.q
    for k, tk in enumerate(t):
        if abs(pivot - tk) < COLLISION_RTOL * (1.0 + abs(tk)):
            raise DomainError(f"px/q = {pivot!r} collides with node {k} (t={tk!r})")
    return pivot


def _rhs(
    kernel: _Kernel,
    pivot: float,
    t: Sequence[float],
    w: np.ndarray,
    fp: float,
    ft: list[float],
) -> float:
    """(px/q) (sum_k dd2_k gap_k w_k - dd1 w_n) from the nodes t and the samples of f."""
    n = kernel.spec.n
    ints, ppow, qpow = kernel.ints, kernel.ppow, kernel.qpow
    w = w.tolist()
    acc = 0.0
    for k in range(n):
        gap = ppow[n - k] * ints[n + 1] / (ints[n - k] * ints[n - k + 1] * qpow[k + 1])
        acc += _dd2(pivot, t[k], t[k + 1], fp, ft[k], ft[k + 1]) * gap * w[k]
    acc -= _dd1(pivot, t[n], fp, ft[n]) * w[n]
    return pivot * acc
