"""Bleimann-Butzer-Hahn operator family on the nonnegative half line.

Node tables, overflow-safe weight tables, point evaluation for the base and
shifted-node (Stancu-type) variants, Newton divided differences, and the
divided-difference representation of L_n f - f(px/q).
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ._record import Record, _set
from .pq_core import DomainError, PqParams, _power, _to_float, pq_integers

if TYPE_CHECKING:
    import numpy as np

RealFunction = Callable[[float], float]

# Divided differences amplify roundoff near coincident abscissae; pivot
# points closer than this (relative) to a node are rejected.
COLLISION_RTOL = 1e-9

# Weight-table terms are renormalized once they exceed this, long before a
# single ratio step (bounded by ~1e160 for parameters above ~1e-2) could
# push them over double overflow.
_RESCALE_AT = 1e100

# A term is at most _RESCALE_AT and each rescale divides it by more, so a term
# divided this many times is exactly 0.0 (1e100 -> 1 -> ... -> 1e-300 -> 0):
# row() divides only the last this many segments, and _step_sums holds only
# a point's last this many less one rescale terms, dividing by inf first
# where this many or more are still to come.
_ZERO_AFTER = 5

# Largest degree whose kernel takes the scalar path: Python floats for the
# nodes and one weight row, so that a one-point query imports no numpy.
# Above it, and on every grid, the array path runs.  It was the largest power
# of two at which the scalar path was no slower in scripts/scalar_degree_sweep.py
# on a 2-vCPU host: the scalar/array time of kernel, nodes, row and sum read
# 0.88-0.95 at n = 64 and 1.16-1.21 at n = 128.  Since the array tables take
# their powers from np.float_power, it reads 1.19-1.21 at n = 64 and
# 1.67-1.70 at n = 128 (three runs), so the sweep picks 32; n = 64 stays on
# the scalar path, where a one-shot query saves numpy's import (about 130 ms)
# for about 7 µs in process.
_SCALAR_DEGREE = 64


class EvaluationError(DomainError):
    """A function returned a non-finite value at one of its sample points."""


class StancuShift(Record):
    """Node shift (gamma, beta) selecting the Stancu-type variant.

    gamma may be any finite real; beta must be nonnegative so that the
    shifted denominators q^k [n-k+1] + beta stay positive.
    """

    __slots__ = _fields = ("gamma", "beta")
    gamma: float
    beta: float

    def __init__(self, gamma: float, beta: float = 0.0) -> None:
        _set(self, "gamma", gamma)
        _set(self, "beta", beta)
        if not (math.isfinite(gamma) and math.isfinite(beta)):
            raise ValueError("gamma and beta must be finite")
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")


class OperatorSpec(Record):
    """Degree, parameter pair and variant; fully determines one operator."""

    _fields = ("n", "params", "stancu")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached _ints and the gate's specs
    n: int
    params: PqParams
    stancu: StancuShift | None

    def __init__(self, n: int, params: PqParams, stancu: StancuShift | None = None) -> None:
        _set(self, "n", n)
        _set(self, "params", params)
        _set(self, "stancu", stancu)
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"operator degree must be an integer >= 1, got {n!r}")

    @functools.cached_property
    def _ints(self) -> list[float]:
        """[0]..[n+1], built on first use and read by every later call on this spec."""
        return pq_integers(self.n + 1, self.params)

    @functools.cached_property
    def _kernel_spec(self) -> OperatorSpec:
        """The spec every kernel of this one is built from, the one place r = q/p enters it.

        self while q^n is a normal double: then every table entry a kernel
        reads is, as [k] >= q^(k-1), p^j >= q^j, a node's denominator q^k
        [n-k+1] is at least q^n, and the ratio's halves num_k = q^k [n-k]
        and den_k = p^(n-1-k) [k+1] are at least q^(n-1); p^(n+1) only
        multiplies [0] = 0.  Else _at_ratio.
        """
        if self.params.q ** self.n >= sys.float_info.min or self.params.p == 1.0:
            return self  # at p = 1 the route is the spec itself
        return self._at_ratio

    @functools.cached_property
    def _at_ratio(self) -> OperatorSpec:
        """The same base operator at (1, r), r = q/p, with the shift carried over as it is.

        With [k] = p^(k-1) [k]_r, the weights, M1, delta_n and the
        representation's nodes and gaps are those at (1, r) in exact
        arithmetic (_Kernel._shift divides a shift by p^n); r rounds once.
        """
        return OperatorSpec(self.n, PqParams(1.0, self.params.q / self.params.p), self.stancu)


class NodeTable(Record):
    """Operator nodes t_{n,0}..t_{n,n} in ascending k order.

    ``negative`` lists indices of nodes below zero, which can occur only
    for the Stancu variant with gamma < 0; evaluation there leaves the
    half line the target function is guaranteed on.
    """

    __slots__ = _fields = ("values", "negative")
    values: tuple[float, ...]
    negative: tuple[int, ...]

    def __init__(self, values: tuple[float, ...], negative: tuple[int, ...] = ()) -> None:
        _set(self, "values", values)
        _set(self, "negative", negative)

    @property
    def max_node(self) -> float:
        """Largest node, p[n]/q^n for the base variant; grows fast as q shrinks."""
        return max(self.values)


class WeightTable(Record):
    """Probability weights w_0..w_n of the operator kernel at a point x."""

    __slots__ = _fields = ("x", "weights")
    x: float
    weights: tuple[float, ...]

    def __init__(self, x: float, weights: tuple[float, ...]) -> None:
        _set(self, "x", x)
        _set(self, "weights", weights)


def _powers(base: float, exponents: Iterable[float]) -> Iterator[float]:
    """base^e for each e, from the C library's pow as Python ``**`` takes it.

    math.pow and ``**`` give the same doubles (0 differences over 200,000
    random (p, j), j < 5000, subnormal and 0.0 results included); numpy's
    power differs from them in the last bit on AVX-512.  It builds the
    scalar path's tables, which must not import numpy; the array path takes
    the same pow through np.float_power (_Kernel._build_arrays).
    """
    return map(math.pow, repeat(base), exponents)


class _Kernel:
    """x-free tables of one spec, built once and read by every node and weight row.

    The spec is the caller's _kernel_spec, (1, q/p) where q^n is not
    normal, or ``at``, which the representation's own gate picks.  ints is
    the spec's [0]..[n+1], shared with the closed forms; ppow, qpow hold
    p^j, q^j for j = 0..n+1, each from the C library's pow.  The weight
    ratio is q^k [n-k] x / (p^(n-1-k) [k+1]).

    Up to _SCALAR_DEGREE the tables are lists from _powers, and the nodes
    and rows are loops over them.  Above it, _build_arrays takes the
    powers as arrays from np.float_power, whose float64 loop calls pow at
    each element (np.power need not), and builds num and den, the x-free
    halves of the ratio.  There ppow and qpow are lists made from the
    arrays on first use, by the refusals and the gaps of the representation
    alone.  Both paths take each power, product, sum and quotient
    element-wise in the same order, so they give the same doubles.

    The weights' error, a priori.  With u = 2^-53: pow is within 1 ulp and
    [i], a recurrence of positive terms, within 2i u, so each ratio is r_k
    (1 + e_k) with |e_k| <= (2n + 10) u while num_k and num_k x are normal.
    From j0, the first k where either is not, a ratio is off by up to A,
    absolute, and below 1: A = 2^-53 while every num_k is normal, as at the
    caller's (p,q), where den_k >= q^(n-1) >= 2^-1022; else (p = 1) num_k =
    r^k [n-k] is off by at most (n+1) 2^-1074 and den_k >= 1, so A = 2^-52
    for x up to 2^1022/(n+1).  r_{k+1} < r_k ([n-k] > p [n-k-1], [k+2] > q
    [k+1]), so the terms rise and then fall, j0 is past the peak, and each
    such ratio adds at most A times a term to each later one.  Term k takes
    k ratios, k products and at most four rescales (a fifth leaves 0.0,
    where its exact weight is below 1e-400), and the total adds the terms
    in order.  So

        |w_k - exact w_k| <= E_n w_k + 2 A n max_{j >= j0} w_j + 2^-1073,

    E_n = (6n + 40) n u, and 2^-1073 for a weight that underflows.  E_n is
    6.7e-10 at n = 1000, where the mpmath oracles measured 1.6e-12 at most,
    and 6e-5 at n = 3e5 (tests/test_properties.py fuzzes it to there).  At
    (1, q/p) the exact weights are those at (1, fl(q/p)), which move from
    the caller's with r's rounding times up to k(k-1)/2.
    """

    def __init__(self, spec: OperatorSpec, at: OperatorSpec | None = None) -> None:
        self.given = spec
        self.spec = spec = at or spec._kernel_spec
        self.q_name = "q" if spec is self.given else "r"  # the kernel's q, as a refusal names it
        n = spec.n
        self.p, self.q = p, q = spec.params.p, spec.params.q
        self.ints = spec._ints
        self.scalar = n <= _SCALAR_DEGREE
        if self.scalar:
            exponents = list(map(float, range(n + 2)))  # 0.0..n+1, shared by p and q
            # a cached_property takes writes: these lists stand in for the arrays' copies
            self.ppow = list(_powers(p, exponents))
            self.qpow = list(_powers(q, exponents))
        else:
            self._build_arrays()

    def _build_arrays(self) -> None:
        """The tables of the array path and of every grid, as numpy arrays.

        np.float_power takes each power from the C library's pow, so the
        scalar path's lists (_powers) hold the same doubles.
        """
        import numpy as np

        n = self.spec.n
        exponents = np.arange(n + 2.0)  # 0.0..n+1, shared by p and q
        ia = np.fromiter(self.ints, float, n + 2)
        pa, qa = np.float_power(self.p, exponents), np.float_power(self.q, exponents)
        self._ints, self._ppow, self._qpow = ia, pa, qa
        self.num = qa[:n] * ia[n:0:-1]
        self.den = pa[n - 1::-1] * ia[1:n + 1]

    @functools.cached_property
    def ppow(self) -> list[float]:
        """p^0..p^(n+1) as Python floats; set in __init__ on the scalar path."""
        return self._ppow.tolist()

    @functools.cached_property
    def qpow(self) -> list[float]:
        """q^0..q^(n+1) as Python floats; set in __init__ on the scalar path."""
        return self._qpow.tolist()

    def nodes(self) -> NodeTable:
        """The spec's nodes: base ones checked increasing, shifted ones with negatives listed.

        Node k is (p^m [k] + gamma) / (q^k [m] + beta) with m = n-k+1; the
        base nodes are the shifted ones at gamma = beta = 0, bit for bit.
        """
        if self.scalar:
            return self._scalar_nodes(*self._shift())
        import numpy as np

        vals = self.node_array()
        negative = np.flatnonzero(vals < 0).tolist() if self.spec.stancu is not None else ()
        return NodeTable(tuple(vals.tolist()), tuple(negative))

    def node_array(self) -> np.ndarray:
        """The values of nodes() as a float64 array, above _SCALAR_DEGREE, with its refusals."""
        import numpy as np

        (gamma, beta, c), n = self._shift(), self.spec.n
        ia, pa, qa = self._ints, self._ppow, self._qpow
        with np.errstate(all="ignore"):  # a zero denominator makes a non-finite node
            den = qa[:n + 1] * ia[n + 1:0:-1] * c + beta
            vals = (pa[n + 1:0:-1] * ia[:n + 1] * c + gamma) / den
        shifted = self.spec.stancu is not None
        if not (np.isfinite(vals).all() and (shifted or (vals[:-1] < vals[1:]).all())):
            # the same nodes, so it raises the refusal
            return np.array(self._scalar_nodes(gamma, beta, c).values)
        return vals

    def _shift(self) -> tuple[float, float, float]:
        """(gamma, beta, c) with node k = (c p^m [k] + gamma) / (c q^k [m] + beta).

        c = 1.0 (x * 1.0 is exact) and the spec's shift, or (0.0, 0.0), at
        the caller's (p,q).  At (1, q/p) node k is ([k]_r + gamma/p^n) / (r^k
        [m]_r + beta/p^n), or, where a shift over p^n is beyond the doubles,
        both halves over M = max(|gamma|, beta): c = p^n/M < 2^-1023.
        """
        shift = self.spec.stancu
        if shift is None:
            return 0.0, 0.0, 1.0
        gamma, beta = shift.gamma, shift.beta
        if self.spec is self.given:
            return gamma, beta, 1.0
        pm, pe = _power(self.given.params.p, self.spec.n)
        scaled = [_to_float((m / pm, e - pe)) for m, e in map(math.frexp, (gamma, beta))]
        if all(map(math.isfinite, scaled)):
            return scaled[0], scaled[1], 1.0
        big = max(abs(gamma), beta)
        m, e = math.frexp(big)
        return gamma / big, beta / big, _to_float((pm / m, pe - e))

    def _scalar_nodes(self, gamma: float, beta: float, c: float) -> NodeTable:
        """nodes() on the lists, one node at a time, and every refusal of either path."""
        n, ints, ppow, qpow = self.spec.n, self.ints, self.ppow, self.qpow
        vals = []
        for k in range(n + 1):
            m = n - k + 1
            den = qpow[k] * ints[m] * c + beta
            # a zero denominator gives a non-finite node, as in the array path
            v = (ppow[m] * ints[k] * c + gamma) / den if den else math.inf
            if not math.isfinite(v):
                raise DomainError(
                    f"node {k} overflows: its denominator {self.q_name}^{k} [{m}] = "
                    f"{qpow[k]!r} * {ints[m]!r} is {den!r} {self._where()}"
                )
            vals.append(v)
        if self.spec.stancu is not None:
            return NodeTable(tuple(vals), tuple(k for k, v in enumerate(vals) if v < 0))
        for k in range(n):
            if not vals[k] < vals[k + 1]:
                raise ArithmeticError(f"node table not increasing at k={k} (n={n}, q={self.q})")
        return NodeTable(tuple(vals))

    def row(self, x: float) -> list[float] | np.ndarray:
        """Weights w_0..w_n at x, bit for bit those of the sequential ratio recurrence.

        A list on the scalar path, an array above _SCALAR_DEGREE.  On the
        array path term_{k+1} = term_k r_k with r_k = num_k x / den_k, as
        cumprods: a segment starts at a term equal to 1.0 and ends at the
        first term above _RESCALE_AT (earlier terms are divided by it and the
        next segment starts) or not finite (an error).  The first segment's
        products run over the whole row; each later one's over a window of
        twice the last segment, or the rest of the row where that is short.
        Where a window ends inside its segment, the next window, twice as
        long, continues from its last term.  A rescale divides only the last
        _ZERO_AFTER segments, since the earlier ones are exactly 0.0.  The
        running total is a cumsum seeded with the total so far, so every
        product and sum is taken in the loop's order, and the row is O(n).
        """
        if not math.isfinite(x) or x < 0:
            raise DomainError(f"evaluation point must be finite and >= 0, got {x!r}")
        if self.scalar:
            return self._scalar_row(x)
        import numpy as np

        n = self.spec.n
        w = np.zeros(n + 1)
        w[0] = 1.0
        if x == 0.0:
            return w
        # cumprod runs on past a rescale point and may overflow there
        with np.errstate(all="ignore"):
            ratios = self.num * x / self.den
            total = 1.0
            starts = [0] * _ZERO_AFTER  # the segments' first indices, padded in front with 0
            s, size = 0, n  # the next window is ratios[s:s + size]
            while s < n:
                end = min(s + size, n)
                ratios[s] *= w[s]  # 1.0 at a segment's start, else the term it continues
                seg = ratios[s:end].cumprod()
                stops = ~(seg <= _RESCALE_AT)
                stop = int(stops.argmax())
                if not stops[stop]:
                    stop = seg.size
                w[s + 1 : s + 1 + stop] = seg[:stop]
                if stop:
                    seg[0] += total
                    total = float(seg[:stop].cumsum()[-1])
                if stop == seg.size:
                    s, size = end, 2 * size
                    continue
                k = s + stop
                t = float(seg[stop])
                self._check_stop(k, t, x)
                w[starts[-_ZERO_AFTER] : k + 1] /= t
                total /= t
                w[k + 1] = 1.0
                total += 1.0
                size = 2 * (k + 1 - starts[-1])
                starts.append(k + 1)
                s = k + 1
            w /= total  # tiny weights underflow to subnormals or 0.0, as in float arithmetic
        return w

    def _scalar_row(self, x: float) -> list[float]:
        """row(x) on the lists: the same ratios, terms, restarts and total, one k at a time."""
        n, ints, ppow, qpow = self.spec.n, self.ints, self.ppow, self.qpow
        x = float(x)  # floats out for a numpy scalar x, as the array path's tolist() gives
        w = [1.0]
        if x == 0.0:
            return w + [0.0] * n
        total = 1.0
        for k in range(n):
            # den_k is normal, or at (1, q/p) at least 1 (see _Kernel)
            t = w[k] * (qpow[k] * ints[n - k] * x / (ppow[n - 1 - k] * ints[k + 1]))
            if not t <= _RESCALE_AT:
                self._check_stop(k, t, x)
                w = [v / t for v in w]
                total /= t
                t = 1.0
            w.append(t)
            total += t
        return [v / total for v in w]

    def weighted_sums(self, xs: Sequence[float], fvals: np.ndarray) -> list[float]:
        """[_weighted_sum(self.row(x), fvals) for x in xs], bit for bit, raising what that raises.

        A grid of two or more points steps all of them together, in two
        passes over the weight index k that hold one row of the grid's terms
        at a time.  _step_totals gives each point's running total and records
        its rescales; _step_sums steps the rows again and adds up each
        point's weighted terms.  A term that is not finite sends the whole
        grid to row(), so that the first refusal is row()'s, and a grid of
        one point takes row() alone.  At any degree the passes run on the
        array tables, which a scalar-path kernel builds here.

        xs must be finite and >= 0, as a GridSpec's points are.
        """
        import numpy as np

        fvals = np.asarray(fvals)
        if len(xs) < 2:
            return [_weighted_sum(self.row(x), fvals) for x in xs]
        if self.scalar:
            self._build_arrays()
        x = np.array(xs, dtype=float)
        with np.errstate(all="ignore"):  # a failing term gives inf or nan
            stepped = self._step_totals(x)
            if stepped is None:
                return [_weighted_sum(self.row(v), fvals) for v in xs]
            return self._step_sums(x, fvals, *stepped)

    def _step_totals(self, x: np.ndarray) -> tuple[np.ndarray, list, np.ndarray, np.ndarray] | None:
        """Pass 1: each point's running total and its rescales, or None at a term not finite.

        Row k+1 of the terms is the ratio row fl(fl(num_k x) / den_k) times
        row k, as in row(), and only the last row is kept.  One compare a
        row finds the points whose term passed _RESCALE_AT; those alone get
        row()'s rescale of the total, and their term restarts at 1.0.  The
        totals add the terms in row()'s order.  A term that is not finite
        shows once the rows are done: an inf passes _RESCALE_AT and is
        rescaled like any other, so it is one of the terms t, and a nan
        passes nothing, so it reaches its total.  Each event is (k, its
        points as an index array, their terms t).  Returns the totals, the
        events, and the point and term of every (event, point) pair, in
        event order.
        """
        import numpy as np

        n, b = self.spec.n, x.size
        num, den = self.num.tolist(), self.den.tolist()
        total = np.ones(b)
        prev, col = np.ones(b), np.empty(b)
        over = np.empty(b, dtype=bool)
        events: list[tuple[int, np.ndarray, np.ndarray]] = []
        for k in range(n):
            np.multiply(x, num[k], out=col)
            col /= den[k]
            col *= prev
            found = np.greater(col, _RESCALE_AT, out=over).nonzero()[0]
            if found.size:
                t = col[found]
                events.append((k, found, t))
                total[found] /= t  # then + 1.0 from the restarted term, as in row()
                col[found] = 1.0
            total += col
            prev, col = col, prev
        pts = np.concatenate([np.zeros(0, dtype=int), *(found for _, found, _ in events)])
        ts = np.concatenate([np.zeros(0), *(t for *_, t in events)])
        if not (np.isfinite(total).all() and np.isfinite(ts).all()):
            return None
        return total, events, pts, ts

    def _step_sums(
        self, x: np.ndarray, fvals: np.ndarray, total: np.ndarray, events: list,
        pts: np.ndarray, ts: np.ndarray,
    ) -> list[float]:
        """Pass 2: each point's weighted sum, from the same rows and restarts as _step_totals.

        Row j of a point is divided by the terms t of its rescales at k >= j,
        in event order, then by its total, and multiplied by f_j, as row()
        and _weighted_sum do.  The divisions come from a table of
        _ZERO_AFTER - 1 rows counted back from each point's last rescale:
        row s holds its (s+1)-th last term, or 1.0 where it has none (x /
        1.0 is exact), and the rows divide from the top one down, which is
        event order.  Where _ZERO_AFTER or more rescales are still to come,
        the top row holds inf: five divisions leave the point's row at
        exactly 0.0, and so does one by inf, without the five divisions'
        subnormal quotients (on a 2-vCPU host a division of 2001 subnormals
        took 27 µs against 2 µs, and this pass at n = 1024 on the rate grid
        27 ms with five divisions, 18 ms with inf).  Counted from the last,
        a point's terms keep their rows as the rows pass its events, so an
        event makes all its updates with one scatter into the flat table:
        a pair with r < _ZERO_AFTER - 1 rescales after it writes 1.0 into
        row r, one with _ZERO_AFTER - 1 writes its point's fourth-last term
        over the inf, and the rest write into a spare slot.  The sums add
        the rows in order from 0.0, so each ends as 0.0 + cumsum's last
        value.

        Each row skips what it knows: row s is divided only from the first
        point with more than s rescales to come (the rest hold 1.0 there),
        and the division by the total, the product by f_j and the sum stop
        after the last point with fewer than _ZERO_AFTER.  A point left out
        would add +0.0 or -0.0, which leaves a sum that starts at +0.0 as it
        is; a point before that one with _ZERO_AFTER or more meets the inf.
        The ratio rows stay whole, since a point's terms count again once it
        is fewer than _ZERO_AFTER rescales from the end.
        """
        import numpy as np

        n, b = self.spec.n, x.size
        num, den, f = self.num.tolist(), self.den.tolist(), fvals.tolist()
        ranks = _ZERO_AFTER - 1
        # by_point: the pairs' terms sorted by point, each point's in event
        # order, its pairs up to index end - 1; after: how many rescales each
        # pair's point has after it
        count = np.bincount(pts, minlength=b)
        # the points in the narrowest int type: numpy sorts 8- and 16-bit keys by radix
        order = np.argsort(pts.astype(np.min_scalar_type(b)), kind="stable")
        by_point = ts[order]
        end = np.cumsum(count)
        place = np.empty_like(pts)  # each pair's index in by_point
        place[order] = np.arange(pts.size)
        after = end[pts] - 1 - place
        divisors = np.ones(ranks * b + 1)  # the table, row by row, then the spare slot
        table = divisors[:-1].reshape(ranks, b)
        for s in range(ranks):
            has = count > s
            table[s, has] = by_point[end[has] - 1 - s]
        table[-1, count >= _ZERO_AFTER] = math.inf
        near = after < _ZERO_AFTER
        # each pair's slot in divisors and the value its event writes there
        slots = np.where(near, np.minimum(after, ranks - 1) * b + pts, ranks * b)
        values = np.ones(pts.size)
        refill = after == ranks
        values[refill] = by_point[place[refill] + 1]
        ks = np.repeat([e[0] for e in events], [e[1].size for e in events]).astype(int)
        # last[r, i]: the last row at which point i has more than r rescales
        # to come, or -1; hi[j]: one past the last point with fewer than
        # _ZERO_AFTER at row j; los[j][s]: the first point with more than s,
        # from the top row down
        last = np.full((_ZERO_AFTER, b), -1)
        last[after[near], pts[near]] = ks[near]
        rows = np.arange(n + 1)
        free = np.minimum.accumulate(last[ranks, ::-1] + 1)[::-1]
        hi = np.searchsorted(free, rows, "right").tolist()
        reach = np.maximum.accumulate(last[:ranks], axis=1)
        los = np.array([np.searchsorted(m, rows) for m in reach[::-1]]).T.tolist()
        top_down = list(table[::-1])  # views of its rows, which the events update in place
        marks = iter(events)
        mark = next(marks, None)
        start = 0  # mark's first pair
        acc = np.zeros(b)
        cur, nxt = np.ones(b), np.empty(b)
        for j in range(n + 1):
            if j < n:
                np.multiply(x, num[j], out=nxt)
                nxt /= den[j]
                nxt *= cur
            h = hi[j]
            for row, lo in zip(top_down, los[j]):
                if lo < h:
                    cur[lo:h] /= row[lo:h]
            if h == b:
                cur /= total
                cur *= f[j]
                acc += cur
            else:
                live = cur[:h]
                live /= total[:h]
                live *= f[j]
                acc[:h] += live
            if mark is not None and mark[0] == j:
                found = mark[1]
                nxt[found] = 1.0
                stop = start + found.size
                divisors[slots[start:stop]] = values[start:stop]
                start = stop
                mark = next(marks, None)
            cur, nxt = nxt, cur
        return acc.tolist()

    def _check_stop(self, k: int, t: float, x: float) -> None:
        """Raises row()'s refusal where term k+1 = t is past _RESCALE_AT and cannot be rescaled."""
        if not math.isfinite(t):
            raise DomainError(f"weight term {k + 1} overflows for n={self.spec.n}, x={x}")

    def _where(self) -> str:
        """The parameters a refusal names, with r = q/p where the spec was routed to (1, r)."""
        p, q = self.given.params.p, self.given.params.q
        if self.spec is self.given:
            return f"(p={p}, q={q})"
        return f"(at r = q/p = {self.q} for p={p}, q={q})"

def _variant(spec: OperatorSpec, shifted: bool, what: str) -> None:
    """Refuses a spec of the other variant, naming the public function called."""
    if (spec.stancu is not None) != shifted:
        need = "a spec with a StancuShift" if shifted else "a base-variant spec"
        raise ValueError(f"{what}() requires {need}")


def nodes(spec: OperatorSpec) -> NodeTable:
    """Base-variant nodes t_{n,k} = p^(n-k+1) [k] / ([n-k+1] q^k).

    The table starts at 0 and is strictly increasing in k.
    """
    _variant(spec, False, "nodes")
    return _Kernel(spec).nodes()


def stancu_nodes(spec: OperatorSpec) -> NodeTable:
    """Shifted nodes (p^(n-k+1) [k] + gamma) / (q^k [n-k+1] + beta).

    The shifted denominator b_{n,k} satisfies p^(n-k+1) [k] + b_{n,k}
    = [n+1] + beta for every k.  Nodes driven below zero by a negative
    gamma are reported through ``NodeTable.negative``.
    """
    _variant(spec, True, "stancu_nodes")
    return _Kernel(spec).nodes()


def weights(spec: OperatorSpec, x: float) -> WeightTable:
    """Kernel weights w_k(x) = c_k x^k / ell_n(x), nonnegative and summing to 1.

    Terms follow the ratio recurrence
    term_{k+1}/term_k = q^k [n-k] x / (p^(n-k-1) [k+1]) from term_0 = 1,
    taken in ascending k with every term divided out once one exceeds 1e100,
    and are normalized by their sequential sum; the result is the same
    double for double as that scalar loop.  At x = 0 all mass sits on k = 0.
    Where q^n is not a normal double, the loop runs at (1, q/p), the
    same weights in exact arithmetic; _Kernel bounds the error.

    Raises:
        DomainError: if x is negative or not finite, or a term overflows.
    """
    row = _Kernel(spec).row(x)
    values = row if isinstance(row, list) else row.tolist()
    return WeightTable(float(x) if x else 0.0, tuple(values))


def _sample(
    f: RealFunction, ts: Sequence[float] | np.ndarray, what: str
) -> list[float] | np.ndarray:
    """f(t) as a float for each t in order: the one place a user function is called.

    On a list or tuple, one pass calls f once per point, in order, and one
    more looks for a value that is not finite and names the first.  Where
    f raises, a value before that point that is not finite is refused
    instead, as a loop that stopped there would have done.  Otherwise an
    ArithmeticError or ValueError that f raises at one point, such as
    math.exp's overflow, becomes an EvaluationError that names the point.
    A DomainError (an expression's refusal) and any other exception pass
    unchanged.

    A float64 array gives an array.  An f with ``at_points`` (an
    expression, or a registry function, which is its own) runs it once on
    the whole array, and the result is kept if it is a float64 array of
    the same shape whose every value is finite; at_points gives each
    point's float bits.  Where at_points raises or its result is not kept,
    and for any other f, the list of the array's points takes the path
    above, so every refusal is the list's.
    """
    if not isinstance(ts, (list, tuple)):
        import numpy as np

        at_points = getattr(f, "at_points", None)
        if at_points is not None:
            try:
                with np.errstate(all="ignore"):  # inf and nan arise silently, then go to the list
                    vals = at_points(ts)
                if (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                        and vals.shape == ts.shape and np.isfinite(vals).all()):
                    return vals
            except Exception:  # noqa: BLE001 -- the list path raises the first refusal
                pass
        return np.array(_sample(f, ts.tolist(), what))
    vals: list[float] = []
    try:
        vals.extend(map(float, map(f, ts)))  # on a raise, vals keeps the values before it
    except (ArithmeticError, ValueError) as exc:
        if isinstance(exc, DomainError):
            raise
        i = len(vals)  # f raised at the point after the last value kept
        raise EvaluationError(f"function raised {type(exc).__name__} ({exc}) "
                              f"at {what} {i} (t={ts[i]!r})") from exc
    finally:
        # finite only if every value is: a running sum that meets inf or nan
        # stays inf or nan, with or without Python 3.12's compensation; the
        # sum is never used
        if not math.isfinite(sum(vals)):
            for i, (v, t) in enumerate(zip(vals, ts)):
                if not math.isfinite(v):
                    raise EvaluationError(f"function returned {v!r} at {what} {i} (t={t!r})")
    return vals


def _weighted_sum(w: list[float] | np.ndarray, fvals: Sequence[float] | np.ndarray) -> float:
    # Sequential ascending-k sum of a row from either path.  cumsum adds in
    # the loop's order (np.sum would not), and 0.0 + gives the sign of zero
    # that the scalar fold from 0.0 gives.  Neither uses builtin sum, which
    # Python 3.12 compensates.
    if isinstance(w, list):
        acc = 0.0
        for fk, wk in zip(fvals, w):
            acc += fk * wk
        return float(acc)  # fvals may be numpy scalars
    import numpy as np

    if not isinstance(fvals, np.ndarray):  # a list of floats, without np.asarray's type discovery
        fvals = np.fromiter(fvals, float, len(fvals))
    with np.errstate(all="ignore"):  # inf and nan arise silently, as in float arithmetic
        return float(0.0 + np.cumsum(fvals * w)[-1])


def evaluate(spec: OperatorSpec, f: RealFunction, x: float) -> float:
    """Apply the operator: sum_k f(t_{n,k}) w_k(x), nodes chosen by the variant.

    The partition of unity makes constants reproduce themselves, and
    nonnegative node values give a nonnegative result exactly.

    Raises:
        EvaluationError: if f is non-finite at any node (the largest node,
            p[n]/q^n, grows rapidly for small q; see NodeTable.max_node).
    """
    kernel = _Kernel(spec)
    ts = kernel.nodes().values if kernel.scalar else kernel.node_array()
    return _weighted_sum(kernel.row(x), _sample(f, ts, "node"))


def evaluate_stancu(spec: OperatorSpec, f: RealFunction, x: float) -> float:
    """Stancu-variant evaluation, split out so both variants compare side by side."""
    _variant(spec, True, "evaluate_stancu")
    return evaluate(spec, f, x)


def _dd1(a: float, b: float, fa: float, fb: float) -> float:
    return (fb - fa) / (b - a)


def _dd2(a: float, b: float, c: float, fa: float, fb: float, fc: float) -> float:
    return (_dd1(b, c, fb, fc) - _dd1(a, b, fa, fb)) / (c - a)


def divided_difference(points: Sequence[float], f: RealFunction) -> float:
    """Newton divided difference of f over 2 or 3 pairwise distinct points.

    Raises:
        DomainError: if an abscissa is not finite, or two coincide within
            the collision tolerance (relative 1e-9); f is not called then.
    """
    pts = [float(a) for a in points]
    if len(pts) not in (2, 3):
        raise ValueError("orders 1 and 2 only: pass 2 or 3 points")
    for a in pts:
        if not math.isfinite(a):
            raise DomainError(f"abscissa {a!r} is not finite")
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

    Where a gap divisor [n-k][n-k+1] q^(k+1) is not a normal double and
    p < 1, the whole representation is taken at (1, q/p) (_at_ratio).

    Raises:
        DomainError: if x <= 0, px/q collides with a node within the
            relative tolerance 1e-9 (named), a node overflows, or a gap
            divisor is below the normal doubles at p = 1 or (1, q/p), which
            puts node k+1 past 2^1022 (k and the factor named); before f is called.
    """
    return _representation(spec, f, x)[1]


def _representation(spec: OperatorSpec, f: RealFunction, x: float) -> tuple[float, float]:
    """(evaluate(spec, f, x) - f(px/q), representation_rhs(spec, f, x)), base variant.

    One kernel and one sample of f per point serve both sides.  Every check
    on spec and x comes before f is first called, at the pivot.
    """
    _variant(spec, False, "representation_rhs")
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"requires x > 0, got {x!r}")
    at = spec._kernel_spec
    divisors = _gap_divisors(at)
    if at is spec and spec.params.p != 1.0 and min(divisors) < sys.float_info.min:
        # the representation's own gate: a gap divisor that is not normal
        # sends the whole representation to (1, q/p)
        at = spec._at_ratio
        divisors = _gap_divisors(at)
    kernel = _Kernel(spec, at)
    t = kernel.nodes().values
    pivot = _pivot(kernel, t, x)
    w = kernel.row(x)
    gaps = _gaps(kernel, divisors)
    (fp,) = _sample(f, (pivot,), "pivot")
    ft = _sample(f, t, "node")
    return _weighted_sum(w, ft) - fp, _rhs(pivot, t, w, fp, ft, gaps)


def _pivot(kernel: _Kernel, t: Sequence[float], x: float) -> float:
    """px/q, refused where it collides with a node."""
    pivot = kernel.p * x / kernel.q
    for k, tk in enumerate(t):
        if abs(pivot - tk) < COLLISION_RTOL * (1.0 + abs(tk)):
            raise DomainError(f"px/q = {pivot!r} collides with node {k} (t={tk!r})")
    return pivot


def _gap_divisors(spec: OperatorSpec) -> list[float]:
    """[n-k][n-k+1] q^(k+1), k = 0..n-1, the node gaps' divisors, with the spec's kernel's bits."""
    n, ints = spec.n, spec._ints
    qpow = _powers(spec.params.q, map(float, range(1, n + 1)))  # the kernel's pow
    return [ints[n - k] * ints[n - k + 1] * qk for k, qk in enumerate(qpow)]


def _gaps(kernel: _Kernel, divisors: list[float]) -> list[float]:
    """gap_k = p^(n-k) [n+1] / ([n-k][n-k+1] q^(k+1)), k = 0..n-1.

    DomainError at the first divisor below the normal doubles, which only
    a kernel with p = 1 reaches, at (1, q/p) or at a caller's p = 1: the
    divisor is [k+1] [n-k+1] / t_(k+1) there.
    """
    n, ints, ppow = kernel.spec.n, kernel.ints, kernel.ppow
    for k, divisor in enumerate(divisors):
        if divisor < sys.float_info.min:
            raise DomainError(
                f"gap divisor [{n - k}][{n - k + 1}] {kernel.q_name}^{k + 1} = {divisor!r} "
                f"underflows below the smallest normal double at k={k}, as node {k + 1} "
                f"lies past 2^1022 {kernel._where()}"
            )
    return [ppow[n - k] * ints[n + 1] / divisor for k, divisor in enumerate(divisors)]


def _rhs(
    pivot: float,
    t: Sequence[float],
    w: list[float] | np.ndarray,
    fp: float,
    ft: list[float],
    gaps: list[float],
) -> float:
    """(px/q) (sum_k dd2_k gap_k w_k - dd1 w_n) from the nodes t, the gaps and the samples of f."""
    n = len(gaps)
    terms = [_dd2(pivot, t[k], t[k + 1], fp, ft[k], ft[k + 1]) * gaps[k] for k in range(n)]
    acc = _weighted_sum(w[:n], terms)
    return pivot * (acc - _dd1(pivot, t[n], fp, ft[n]) * float(w[n]))
