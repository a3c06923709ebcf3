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
from .pq_core import DomainError, PqParams, pq_integers

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

# Bytes of the float64 buffer in which _Kernel.weighted_sums screens the drift
# of a chunk of grid points: at most n logged groups a point (_log_ell), so a
# chunk holds _SCREEN_BYTES / (8 n) points (256 at n = 1024), and at least 1.
_SCREEN_BYTES = 1 << 21

# A term is at most _RESCALE_AT and each rescale divides it by more, so a term
# divided this many times is exactly 0.0 (1e100 -> 1 -> ... -> 1e-300 -> 0).
_ZERO_AFTER = 5

# Most factors p^s + q^s x of the rising product that the drift screen
# multiplies out before it takes a log (_Kernel._log_ell).
_GROUP = 16

# The unit roundoff of a double, in the drift screen's error bound.
_UNIT_ROUNDOFF = 2.0 ** -53

# Largest degree whose kernel takes the scalar path: Python floats for the
# nodes and one weight row, so that a one-point query imports no numpy.
# Above it, and on every grid, the array path runs.  It was the largest power
# of two at which the scalar path was no slower in scripts/scalar_degree_sweep.py
# on a 2-vCPU host: the scalar/array time of kernel, nodes, row and sum read
# 0.88-0.95 at n = 64 and 1.16-1.21 at n = 128.  Since the array tables take
# their powers without Python lists, it reads 1.01-1.08 at n = 64 and
# 1.25-1.37 at n = 128; n = 64 stays on the scalar path, where a one-shot
# query saves numpy's import for a few µs in process.
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
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached _ints
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
    power differs from them in the last bit on AVX-512.
    """
    return map(math.pow, repeat(base), exponents)


class _Kernel:
    """x-free tables of one spec, built once and read by every node and weight row.

    ints is the spec's [0]..[n+1], shared with the closed forms; ppow, qpow
    hold p^j, q^j for j = 0..n+1, all taken by _powers.  The weight ratio is
    q^k [n-k] x / (p^(n-1-k) [k+1]), k = 0..n-1.

    Up to _SCALAR_DEGREE the tables are lists, and the nodes and rows are
    loops over them.  Above it, _build_arrays takes the powers straight
    into arrays, and builds num and den, the x-free halves of the ratio,
    and the factors of the rising product.  There ppow and qpow are lists
    made from the arrays on first use, by the refusals and the gaps of
    the representation alone.  Both paths take each product, sum and
    quotient element-wise in the same order, so they give the same doubles.
    """

    def __init__(self, spec: OperatorSpec) -> None:
        self.spec = spec
        n = spec.n
        self.p, self.q = p, q = spec.params.p, spec.params.q
        self.ints = spec._ints
        self.log_c0 = 0.5 * n * (n - 1) * math.log(p)
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

        The powers go straight into their arrays on either path: the scalar
        path's lists hold the same doubles.
        """
        import numpy as np

        n = self.spec.n
        exponents = np.arange(n + 2.0).tolist()  # 0.0..n+1, shared by p and q
        ppow, qpow = _powers(self.p, exponents), _powers(self.q, exponents)
        ia, pa, qa = (np.fromiter(values, float, n + 2) for values in (self.ints, ppow, qpow))
        self._ints, self._ppow, self._qpow = ia, pa, qa
        self.num = qa[:n] * ia[n:0:-1]
        self.den = pa[n - 1::-1] * ia[1:n + 1]
        # p^s and q^s, s = 0..n-1: the factors p^s + q^s x of the rising product
        self.ell_p, self.ell_q = pa[:n], qa[:n]
        self._groups: dict[int, np.ndarray] = {}  # _group_coefficients by group size

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
        shift = self.spec.stancu
        gamma, beta = (shift.gamma, shift.beta) if shift is not None else (0.0, 0.0)
        if self.scalar:
            return self._scalar_nodes(gamma, beta)
        import numpy as np

        n = self.spec.n
        ia, pa, qa = self._ints, self._ppow, self._qpow
        with np.errstate(all="ignore"):  # a zero denominator makes a non-finite node
            den = qa[:n + 1] * ia[n + 1:0:-1] + beta
            vals = (pa[n + 1:0:-1] * ia[:n + 1] + gamma) / den
        if not (np.isfinite(vals).all() and (shift is not None or (vals[:-1] < vals[1:]).all())):
            return self._scalar_nodes(gamma, beta)  # the same nodes, so it raises the refusal
        negative = np.flatnonzero(vals < 0).tolist() if shift is not None else ()
        return NodeTable(tuple(vals.tolist()), tuple(negative))

    def _scalar_nodes(self, gamma: float, beta: float) -> NodeTable:
        """nodes() on the lists, one node at a time, and every refusal of either path."""
        n, ints, ppow, qpow = self.spec.n, self.ints, self.ppow, self.qpow
        vals = []
        for k in range(n + 1):
            m = n - k + 1
            den = qpow[k] * ints[m] + beta
            # a zero denominator gives a non-finite node, as in the array path
            v = (ppow[m] * ints[k] + gamma) / den if den else math.inf
            if not math.isfinite(v):
                raise DomainError(
                    f"node {k} overflows: its denominator q^{k} [{m}] = "
                    f"{qpow[k]!r} * {ints[m]!r} is {den!r} (p={self.p}, q={self.q})"
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
        array path term_{k+1} = term_k r_k with r_k = num_k x / den_k, as one
        cumprod per segment: a segment starts at a term equal to 1.0 and ends
        at the first term above _RESCALE_AT (all earlier terms are divided by
        it and the next segment starts) or not finite (an error).  The
        running total is a cumsum seeded with the total so far, so every
        product and sum is taken in the loop's order.
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
                self._check_stop(k, t, x)
                w[: k + 1] /= t
                total /= t
                log_scale += math.log(t)
                w[k + 1] = 1.0
                total += 1.0
                s = k + 1
            log_ell = float(np.log(self.ell_p + self.ell_q * x).sum())
            w /= total  # tiny weights underflow to subnormals or 0.0, as in float arithmetic
        if self._drifted(total, log_scale, log_ell):
            raise ArithmeticError(self._drift_message(x))
        return w

    def _scalar_row(self, x: float) -> list[float]:
        """row(x) on the lists: the same ratios, terms, restarts and total, one k at a time.

        Its drift reference is a left fold of math.log where the array path
        takes numpy's log and pairwise sum.  The two differed by at most
        6.5e-11 over 20,000 random specs (n <= 64, x up to e^709), so they
        can decide the 1e-8 drift check differently only that close to its
        threshold.
        """
        n, ints, ppow, qpow = self.spec.n, self.ints, self.ppow, self.qpow
        x = float(x)  # floats out for a numpy scalar x, as the array path's tolist() gives
        w = [1.0]
        if x == 0.0:
            return w + [0.0] * n
        total = 1.0
        log_scale = 0.0  # log of everything divided out so far
        for k in range(n):
            den = ppow[n - 1 - k] * ints[k + 1]
            # a zero denominator gives a term that is not finite, as in the array path
            t = w[k] * (qpow[k] * ints[n - k] * x / den if den else math.inf)
            if not t <= _RESCALE_AT:
                self._check_stop(k, t, x)
                w = [v / t for v in w]
                total /= t
                log_scale += math.log(t)
                t = 1.0
            w.append(t)
            total += t
        # every factor is at least p^s >= p^(n-1) = den_0, which is not 0 here
        log_ell = 0.0
        for s in range(n):
            log_ell += math.log(ppow[s] + qpow[s] * x)
        if self._drifted(total, log_scale, log_ell):
            raise ArithmeticError(self._drift_message(x))
        return [v / total for v in w]

    def weighted_sums(self, xs: Sequence[float], fvals: np.ndarray) -> list[float]:
        """[_weighted_sum(self.row(x), fvals) for x in xs], bit for bit, raising what that raises.

        A grid of two or more points steps all of them together, in two
        passes over the weight index k that hold one row of the grid's terms
        at a time.  _step_totals gives each point's running total and records
        its rescales.  row()'s drift check is then screened for every point,
        in chunks of _SCREEN_BYTES, with a margin E that bounds how far the
        screen's drift can be from row()'s (_drift_screen): a point within
        1e-8 - E passes in row() too.  _step_sums steps the rows again and
        adds up each point's weighted terms.  Each point the screen cannot
        pass is redone by row(), in grid order, so that the first refusal is
        row()'s, and a term that is not finite sends the whole grid to row():
        the output is row()'s either way.  A grid of one point takes row()
        alone.  At any degree the passes run on the array tables, which a
        scalar-path kernel builds here.

        xs must be finite and >= 0, as a GridSpec's points are.
        """
        import numpy as np

        fvals = np.asarray(fvals)
        if len(xs) < 2:
            return [_weighted_sum(self.row(x), fvals) for x in xs]
        if self.scalar:
            self._build_arrays()
        x = np.array(xs, dtype=float)
        with np.errstate(all="ignore"):  # a zero den_k or a failing term gives inf or nan
            stepped = self._step_totals(x)
            if stepped is None:
                return [_weighted_sum(self.row(v), fvals) for v in xs]
            total, events, pts, ts = stepped
            passed = self._screen(x, total, pts, ts)
            sums = self._step_sums(x, fvals, total, events, pts, ts)
        for i in np.flatnonzero(~passed).tolist():
            sums[i] = _weighted_sum(self.row(xs[i]), fvals)
        return sums

    def _step_totals(self, x: np.ndarray) -> tuple[np.ndarray, list, np.ndarray, np.ndarray] | None:
        """Pass 1: each point's running total and its rescales, or None at a term not finite.

        Row k+1 of the terms is the ratio row fl(fl(num_k x) / den_k) times
        row k, as in row(), and only the last row is kept.  A row that the
        product of its ratios' maxima cannot prove below _RESCALE_AT takes
        one max(), which finds the points whose term passed it; those alone
        get row()'s rescale of the total, and their term restarts at 1.0.
        The totals add the terms in row()'s order.  Each event is (k, the
        points as an index array, the same points as a slice where they sit
        side by side, as on a sorted grid, or as that array, and their
        terms t).  Returns the totals, the events, and the point and term of
        every (event, point) pair, in event order.
        """
        import numpy as np

        n, b = self.spec.n, x.size
        num, den, rmax = self.num.tolist(), self.den.tolist(), self._ratio_max(x).tolist()
        total = np.ones(b)
        prev, col = np.ones(b), np.empty(b)
        events: list[tuple[int, np.ndarray, slice | np.ndarray, np.ndarray]] = []
        row_max = np.maximum.reduce
        bound = 1.0  # no term of the row before exceeds it
        for k in range(n):
            np.multiply(x, num[k], out=col)
            col /= den[k]
            col *= prev
            # Terms and ratios are >= 0 and rounding is monotone, so no term
            # of this row exceeds the product; a nan or inf ratio makes it
            # fail the test.  Only then does the row take a max().
            bound *= rmax[k]
            if not bound <= _RESCALE_AT:
                bound = float(row_max(col))
            if not bound <= _RESCALE_AT:
                # bound is the row's max here, nan or inf if any term is
                if not bound < math.inf:
                    return None
                found = (col > _RESCALE_AT).nonzero()[0]
                first, last = int(found[0]), int(found[-1])
                at = slice(first, last + 1) if last - first + 1 == found.size else found
                t = col[at].copy()
                events.append((k, found, at, t))
                total[at] /= t  # then + 1.0 from the restarted term, as in row()
                col[at] = 1.0
                bound = _RESCALE_AT
            total += col
            prev, col = col, prev
        if not events:
            return total, events, np.zeros(0, dtype=int), np.zeros(0)
        pts = np.concatenate([found for _, found, _, _ in events])
        return total, events, pts, np.concatenate([t for *_, t in events])

    def _screen(
        self, x: np.ndarray, total: np.ndarray, pts: np.ndarray, ts: np.ndarray
    ) -> np.ndarray:
        """Whether _drift_screen passes each point: |drift| <= 1e-8 - E.

        log_scale is one bincount of the logs of the rescaled terms.  The
        points go in chunks of _SCREEN_BYTES / (8 n), the most that _log_ell's
        buffer holds at up to n groups a point.
        """
        import numpy as np

        n, b = self.spec.n, x.size
        log_scale = np.bincount(pts, np.log(ts), b)
        width = max(1, _SCREEN_BYTES // (8 * n))
        buf = np.empty(n * min(width, b))
        passed = np.empty(b, dtype=bool)
        for start in range(0, b, width):
            at = slice(start, start + width)
            drift, error = self._drift_screen(x[at], total[at], log_scale[at], buf)
            passed[at] = np.abs(drift) <= 1e-8 - error
        return passed

    def _step_sums(
        self, x: np.ndarray, fvals: np.ndarray, total: np.ndarray, events: list,
        pts: np.ndarray, ts: np.ndarray,
    ) -> list[float]:
        """Pass 2: each point's weighted sum, from the same rows and restarts as _step_totals.

        Row j of a point is divided by the terms t of its rescales at k >= j,
        in event order, then by its total, and multiplied by f_j, as row()
        and _weighted_sum do.  The divisions come from pending, a table of
        _ZERO_AFTER - 1 ranks: a point with fewer rescales to come has them
        there in order, 1.0 in the ranks left over (x / 1.0 is exact).  A
        point with _ZERO_AFTER or more has inf in rank 0 and 1.0 in the
        others: five divisions leave its row at exactly 0.0, and so does one
        by inf, without the five divisions' subnormal quotients (on a 2-vCPU
        host a division of 2001 subnormals took 27 µs against 2 µs, and this
        pass at n = 1024 on the rate grid 27 ms with five ranks, 18 ms with
        inf).  A point's column is replaced once the rows pass one of its
        events, and the ranks that no point needs any more are skipped.  The
        sums add the rows in order from 0.0, so each ends as 0.0 + cumsum's
        last value.
        """
        import numpy as np

        n, b = self.spec.n, x.size
        num, den, f = self.num.tolist(), self.den.tolist(), fvals.tolist()
        ranks = _ZERO_AFTER - 1
        # by_point: the pairs' terms sorted by point, each point's in event
        # order, its pairs from index first on, count of them; after: how
        # many rescales each pair's point has after it
        count = np.bincount(pts, minlength=b)
        order = np.argsort(pts, kind="stable")
        by_point = ts[order]
        first = np.cumsum(count) - count
        place = np.empty_like(pts)  # each pair's index in by_point
        place[order] = np.arange(pts.size)
        after = first[pts] + count[pts] - 1 - place

        def columns(start: np.ndarray, left: np.ndarray) -> np.ndarray:
            """pending's columns for points with left rescales to come, from by_point[start]."""
            c = np.ones((ranks, start.size))
            for r in range(ranks):
                has = (r < left) & (left < _ZERO_AFTER)
                c[r, has] = by_point[start[has] + r]
            c[0, left >= _ZERO_AFTER] = math.inf
            return c

        pending = columns(first, count)
        shifted = columns(place + 1, after)  # a pair's point's column once the rows pass it
        # needed[r]: the last row at which some point has more than r rescales to come
        ks = np.repeat([e[0] for e in events], [e[1].size for e in events]).astype(int)
        needed = np.full(ranks, -1)
        end = after < ranks
        np.maximum.at(needed, after[end], ks[end])
        needed = needed.tolist()
        depth = sum(r >= 0 for r in needed)
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
            while depth and needed[depth - 1] < j:
                depth -= 1
            for r in range(depth):
                cur /= pending[r]
            cur /= total
            cur *= f[j]
            acc += cur
            if mark is not None and mark[0] == j:
                _, found, at, _ = mark
                nxt[at] = 1.0
                pending[:, at] = shifted[:, start:start + found.size]
                start += found.size
                mark = next(marks, None)
            cur, nxt = nxt, cur
        return acc.tolist()

    def _ratio_max(self, x: np.ndarray) -> np.ndarray:
        """Each row's largest ratio num_k x / den_k over the points x, nan if any is nan.

        The rounded ratio fl(fl(num_k x) / den_k) is monotone in x >= 0, so
        the largest is the one at max(x), and a row holds a nan exactly where
        den_k is 0 and fl(num_k min(x)) is 0: two products of n, not n x B.
        """
        import numpy as np

        return np.maximum(self.num * x.max() / self.den, self.num * x.min() / self.den)

    def _drift_screen(
        self, x: np.ndarray, total: np.ndarray, log_scale: np.ndarray, buf: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each point's screened drift and E, a bound on its distance from the drift row() takes.

        row() refuses a point whose |log(total) + log_scale + log c_0 - log
        ell_n(x)| is over 1e-8.  The screen takes the same four terms for
        every point at once: numpy's log of the points' totals, a bincount
        of numpy's logs of the rescaled terms (log_scale), and _log_ell's
        log ell_n(x).  weighted_sums keeps the sum of a point with |drift|
        <= 1e-8 - E, which row() passes as well; any other point, and one
        with a drift that is not finite, goes to row().  With u =
        2^-53, A = log(total) >= 0, B = log_scale >= 0 and D = log ell_n(x),

            E = E_ell + u (22 A + (22 + B / 115) B + 6 |log c_0| + 6 |D|),

        where E_ell bounds the two log ell_n(x) apart (see _log_ell).  The
        rest is first order in u, its constants rounded up.  Each log is
        taken as within 4 ulp <= 8u|y| of its value y (numpy's and the C
        library's differed by at most 1 ulp over 6 million draws), so:

        - the two log(total) are at most 16 u A apart;
        - the two log_scale add the same k terms log t > log _RESCALE_AT =
          230.26, each pair 16 u log t apart, and each sum is within
          (k - 1) u B of the exact one: at most (16 + 2 B / 230) u B apart;
        - each side rounds three additions, each by at most u (A + B +
          |log c_0| + |D|).
        """
        import numpy as np

        log_ell, ell_error = self._log_ell(x, buf)
        log_total = np.log(total)
        drift = log_total + log_scale + self.log_c0 - log_ell
        error = ell_error + _UNIT_ROUNDOFF * (
            22.0 * log_total + (22.0 + log_scale / 115.0) * log_scale
            + 6.0 * abs(self.log_c0) + 6.0 * np.abs(log_ell)
        )
        return drift, error

    def _log_ell(self, x: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log ell_n at each point of x, and E_ell, a bound on its distance from row()'s.

        ell_n(x) is the product of the n factors p^s + q^s x.  Here they go
        in G groups of m, the last padded with factors 1 + 0 x.  Each
        group's product is a polynomial of degree m whose coefficients are
        built once per m (_group_coefficients).  One matmul of the powers
        x^0..x^m (a cumprod) with them gives every group's value at every
        point, in a (B, G) view of buf, and log ell_n(x) is the row sum of
        their logs: G = n/m logs a point instead of n.  _group_size picks
        the largest m up to _GROUP at which every power, coefficient and
        partial sum is a normal double.  At m = 1 the table is row()'s, and
        so is log ell_n(x), bit for bit.

        Let u = 2^-53, R the exact sum of the logs of the factors as row()
        rounds them, and S = n log(1 + x) + sum_s |log p^s|, which is at
        least sum_s |log factor_s| since each factor lies in [p^s, 1 + x].
        Each log is within 8u|y| of its value y, as in _drift_screen.

        - The array row() rounds each of its n logs at most 28 + log2 n times
          in numpy's pairwise sum, and _scalar_row n - 1 times in its left
          fold: row()'s log ell_n(x) is within (8 + P) u S of R, with P that
          count.
        - The screen's groups are products of exact factors.  row() rounds a
          normal factor by at most 3u, 3nu in all.  A group's coefficients
          take 2(m - 1) roundings, its powers m - 1 and the matmul's
          products and sums of positive terms 2(m + 1), underflow included
          since every group value is at least (q^(n-1))^m >= 2^-1022: at
          most 5m u a group, 10 n u in all.  Its G logs and pairwise sum add
          (36 + log2 n) u S.

        So E_ell = (44 + log2 n + P) u S + 13 n u.
        """
        import numpy as np

        n, b = self.spec.n, x.size
        m = self._group_size(x)
        if m == 1:
            g = buf[: b * n].reshape(b, n)
            np.multiply.outer(x, self.ell_q, out=g)
            g += self.ell_p
        else:
            c = self._group_coefficients(m)  # row i: the coefficient of x^i of each group
            powers = np.empty((b, m + 1))
            powers[:, 0] = 1.0
            np.cumprod(np.broadcast_to(x[:, None], (b, m)), axis=1, out=powers[:, 1:])
            g = buf[: b * c.shape[1]].reshape(b, -1)
            np.matmul(powers, c, out=g)
        np.log(g, out=g)
        rounds = n - 1.0 if self.scalar else 28.0 + math.log2(n)  # row()'s sum, as P above
        with np.errstate(divide="ignore"):  # a p^s of 0.0 makes S and the bound inf
            s = n * np.log1p(x) - np.log(self.ell_p).sum()
        return g.sum(axis=1), _UNIT_ROUNDOFF * ((44.0 + math.log2(n) + rounds) * s + 13.0 * n)

    def _group_size(self, x: np.ndarray) -> int:
        """The factors a group of _log_ell multiplies at the points x: at most _GROUP.

        The largest m with max(2, 1 + x)^m <= 2^1020 at every x, and with
        m-th powers of q^(n-1) and of every positive x of at least 2^-1022.
        Then the powers of x, the coefficients, the group values and the
        matmul's partial sums are normal and finite: none exceeds its
        group's value <= (1 + x)^m or the sum of its coefficients <= 2^m,
        and each coefficient but the padded zeros is a sum of products of m
        numbers p^s and q^s, none below q^(n-1).  1 where no m > 1 fits.
        """
        top = math.log2(max(2.0, 1.0 + float(x.max())))
        positive = x[x > 0.0]
        smallest = min(float(self.ell_q[-1]), float(positive.min()) if positive.size else 1.0)
        low = -math.log2(smallest) if smallest >= sys.float_info.min else math.inf
        m = min(_GROUP, self.spec.n)
        while m > 1 and not (m * top <= 1020.0 and m * low <= 1022.0):
            m -= 1
        return m

    def _group_coefficients(self, m: int) -> np.ndarray:
        """(m + 1, G) array, row i the coefficients of x^i in each group's product of m factors."""
        import numpy as np

        c = self._groups.get(m)
        if c is None:
            n = self.spec.n
            size = -(-n // m)
            ps, qs = np.ones(size * m), np.zeros(size * m)  # padded with 1 + 0 x
            ps[:n], qs[:n] = self.ell_p, self.ell_q
            ps, qs = ps.reshape(size, m).T, qs.reshape(size, m).T  # row j: each group's factor j
            c = np.zeros((m + 1, size))
            c[0], c[1] = ps[0], qs[0]
            for j in range(1, m):
                # times p^s + q^s x: c_i p^s + c_(i-1) q^s, every group at once
                c[1 : j + 2] = c[1 : j + 2] * ps[j] + c[: j + 1] * qs[j]
                c[0] *= ps[j]
            self._groups[m] = c
        return c

    def _check_stop(self, k: int, t: float, x: float) -> None:
        """Raises row()'s refusal where term k+1 = t is past _RESCALE_AT and cannot be rescaled."""
        if math.isfinite(t):  # rescaled: a zero den_k gives an inf or nan term, never a finite one
            return
        n = self.spec.n
        if self.ppow[n - 1 - k] * self.ints[k + 1] == 0.0:  # den_k
            raise DomainError(f"degree {n} too large for p={self.p}: term ratio overflows")
        raise DomainError(f"weight term {k + 1} overflows for n={n}, x={x}")

    def _drifted(self, total: float, log_scale: float, log_ell: float) -> bool:
        """Whether log(total) + log_scale + log c_0 misses log ell_n(x) by more than 1e-8."""
        return abs(math.log(total) + log_scale + self.log_c0 - log_ell) > 1e-8

    def _drift_message(self, x: float) -> str:
        """Names the first subnormal ratio denominator, else the first subnormal numerator."""
        n, ints, ppow, qpow = self.spec.n, self.ints, self.ppow, self.qpow
        msg = f"weight normalizer drifted from the rising product at n={n}, x={x}"
        den = [ppow[n - 1 - k] * ints[k + 1] for k in range(n)]
        num = [qpow[k] * ints[n - k] for k in range(n)]
        tiny_den = [k for k in range(n) if den[k] < sys.float_info.min]
        tiny_num = [k for k in range(n) if num[k] < sys.float_info.min]
        if tiny_den:
            k = tiny_den[0]
            cause = f"denominator p^{n - 1 - k} [{k + 1}] = {den[k]!r}"
        elif tiny_num:
            k = tiny_num[0]
            cause = f"numerator q^{k} [{n - k}] = {num[k]!r}"
        else:
            return msg
        return f"{msg}: ratio {cause} is subnormal at k={k} (p={self.p}, q={self.q})"


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
    values = row if isinstance(row, list) else row.tolist()
    return WeightTable(float(x) if x else 0.0, tuple(values))


def _sample(
    f: RealFunction, ts: Sequence[float] | np.ndarray, what: str
) -> list[float] | np.ndarray:
    """f(t) as a float for each t in order: the one place a user function is called.

    On a list or tuple, one pass calls f once per point, in order; an
    expression from as_function takes the whole list through its
    at_points.  One more pass looks for a value that is not finite and
    names the first.  Where f raises, a value before that point that is not
    finite is refused instead, as a loop that stopped there would have done.

    A float64 array gives an array.  A registry function, which is its own
    at_points, runs once on the whole array and gives each point's float
    bits; where it raises or a value is not finite, and for any other f,
    the list of the array's points takes the path above, so every refusal
    is the list's.
    """
    at_points = getattr(f, "at_points", None)
    if not isinstance(ts, (list, tuple)):
        import numpy as np

        if at_points is f:
            try:
                with np.errstate(all="ignore"):  # inf and nan arise silently, then go to the list
                    vals = f(ts)
                if np.isfinite(vals).all():
                    return vals
            except Exception:  # noqa: BLE001 -- the list path raises the first refusal
                pass
        return np.array(_sample(f, ts.tolist(), what))
    vals: list[float] = []
    try:
        if at_points is not None and at_points is not f:
            vals = at_points(ts)
        else:  # a plain callable, or a registry function on a list
            vals.extend(map(float, map(f, ts)))  # on a raise, vals keeps the values before it
    finally:
        # finite only if every value is: a running sum that meets inf or nan
        # stays inf or nan (see expressions._compile); the sum is never used
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
    table = kernel.nodes()
    return _weighted_sum(kernel.row(x), _sample(f, table.values, "node"))


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
        DomainError: if x <= 0, px/q collides with a node within the
            relative tolerance 1e-9 (named in the message), or a gap divisor
            [n-k][n-k+1] q^(k+1) is below the smallest normal double (k and
            the factor named); all before f is called.
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
    kernel = _Kernel(spec)
    t = kernel.nodes().values
    pivot = _pivot(kernel, t, x)
    w = kernel.row(x)
    gaps = _gaps(kernel)
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


def _gaps(kernel: _Kernel) -> list[float]:
    """gap_k = p^(n-k) [n+1] / ([n-k][n-k+1] q^(k+1)), k = 0..n-1.

    DomainError at the first k whose divisor is below the smallest normal
    double (0 included), where the quotient has lost its digits.
    """
    n, p, q = kernel.spec.n, kernel.p, kernel.q
    ints, ppow, qpow = kernel.ints, kernel.ppow, kernel.qpow
    gaps = []
    for k in range(n):
        divisor = ints[n - k] * ints[n - k + 1] * qpow[k + 1]
        if divisor < sys.float_info.min:
            raise DomainError(
                f"gap divisor [{n - k}][{n - k + 1}] q^{k + 1} = {divisor!r} underflows "
                f"below the smallest normal double at k={k} (p={p}, q={q})"
            )
        gaps.append(ppow[n - k] * ints[n + 1] / divisor)
    return gaps


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
