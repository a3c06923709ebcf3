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

# Bytes of the (n+1) x B float64 buffer in which _Kernel.weighted_sums steps
# B grid rows together (B = 1020 at n = 256, 255 at n = 1024, and at least 1).
# A wider block spreads each numpy call over more rows: on a 2-vCPU host the
# 2001-point rate grid at n = 1024 took 129 ms in 0.5 MiB blocks, 109 ms in
# 1 MiB, 83 ms in 2 MiB and 80 ms in 4 MiB (n = 256: 11-12 ms at each size).
# 2 MiB costs about 1 MB of peak RSS over 1 MiB, a small part of the
# benchmark's 10% bound.
_BLOCK_BYTES = 1 << 21

# A stored term is at most _RESCALE_AT and each rescale divides it by more, so
# a term divided this many times is exactly 0.0 (1e100 -> 1 -> ... -> 1e-300 -> 0).
_ZERO_AFTER = 5

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
        w /= total
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

        The points step together in blocks of B, in an (n+1) x B buffer
        (see _block_sums).  A rescale divides a point's earlier rows in one
        of two places: inside the stepping loop for its first four rescales,
        and after the loop for its later ones, which skip the rows that five
        divisions have made exactly 0.0.  A block that _block_sums cannot
        finish is redone by row() one point at a time, which gives its sums
        or raises the first refusal in grid order.  At any degree the
        lockstep runs on the array tables, which a scalar-path kernel builds
        here.

        xs must be finite and >= 0, as a GridSpec's points are.
        """
        import numpy as np

        if self.scalar:
            self._build_arrays()
        n = self.spec.n
        width = max(1, _BLOCK_BYTES // (8 * (n + 1)))
        fvals = np.asarray(fvals)
        buf = np.empty((n + 1) * min(width, len(xs)))
        out: list[float] = []
        for start in range(0, len(xs), width):
            block = xs[start:start + width]
            sums = self._block_sums(block, fvals, buf)
            if sums is None:
                sums = [_weighted_sum(self.row(x), fvals) for x in block]
            out += sums
        return out

    def _block_sums(
        self, xs: Sequence[float], fvals: np.ndarray, buf: np.ndarray
    ) -> list[float] | None:
        """weighted_sums over one block of two or more points, or None where row() must answer.

        Row k of the buffer holds the weights w_k of the block's points: row
        k+1 starts as the ratios num_k x / den_k and is multiplied in place
        by row k.  A row that the product of its ratios' maxima cannot prove
        below _RESCALE_AT takes one max(), which finds the points whose term
        passed it; those alone get row()'s rescale.  The running totals add
        the terms in row()'s order, the weighted sum adds the rows of the
        buffer in order, and the drift reference is a row-wise sum over a
        C-contiguous (B, n) view of the same buffer, which matches the array
        row()'s 1-D sum (see _scalar_row for the scalar one).  None for a
        block of one point, whose one column numpy would sum pairwise, for a
        term that is not finite and for a normalizer that drifts.

        The rescale's prefix division is the one step taken elsewhere.  A
        point's first _ZERO_AFTER - 1 rescales divide its rows 0..k in the
        loop (_divide_prefix); from its _ZERO_AFTER-th on the loop records
        (k, t), and _replay_rescales applies them after the loop.  The bits
        are row()'s: the stepping never reads a divided row, each element
        takes its in-loop divisions before its replayed ones, both in event
        order, and an element divided _ZERO_AFTER times is exactly 0.0.  So
        the rows at or below a point's fifth-last rescale end at 0.0, the
        replay divides only the rows above them, and the weighted sums skip
        the rows that are 0.0 in every column.  A block whose running sum of
        log(rmax) never reaches _ZERO_AFTER log(_RESCALE_AT) has no point
        that rescales that often, and keeps no record.  Points that pass
        _RESCALE_AT side by side, as on a sorted grid, are reached by a
        slice instead of an index array.
        """
        import numpy as np

        n, b = self.spec.n, len(xs)
        if b < 2:
            return None
        x = np.array(xs, dtype=float)
        w = buf[: (n + 1) * b].reshape(n + 1, b)
        total = np.ones(b)
        log_scale = [0.0] * b
        row_max = np.maximum.reduce
        log = math.log
        with np.errstate(all="ignore"):  # a zero den_k or a failing term gives inf or nan
            w[0] = 1.0
            np.multiply.outer(self.num, x, out=w[1:])
            w[1:] /= self.den[:, None]
            ratio_max = w[1:].max(axis=1)  # each row's largest ratio, nan if any is nan
            rmax = ratio_max.tolist()
            # Rescales split a point's rows into stretches whose ratios multiply
            # past _RESCALE_AT, so no point rescales _ZERO_AFTER times unless a
            # running sum of log(rmax) reaches that many log(_RESCALE_AT).  The
            # test only spares the record: every split gives the same bits.
            deep = not np.log(ratio_max).cumsum().max() < _ZERO_AFTER * math.log(_RESCALE_AT)
            rescales = [[] for _ in range(b)] if deep else None  # each point's (k, t)
            bound = 1.0  # no term of the row before exceeds it
            prev = w[0]
            for k, col in enumerate(w[1:]):
                col *= prev
                prev = col
                # Terms and ratios are >= 0 and rounding is monotone, so no
                # term of this row exceeds the product; a nan or inf ratio
                # makes it fail the test.  Only then does the row take a max().
                bound *= rmax[k]
                if not bound <= _RESCALE_AT:
                    bound = float(row_max(col))
                if bound <= _RESCALE_AT:
                    total += col
                    continue
                # row()'s rescale for the points whose term passed _RESCALE_AT;
                # bound is the row's max here, nan if any term is nan
                if bound != bound:
                    return None
                found = (col > _RESCALE_AT).nonzero()[0]
                js = found.tolist()
                # a run of side-by-side points takes slices, which cost less than an index array
                at = slice(js[0], js[-1] + 1) if js[-1] - js[0] == len(js) - 1 else found
                t = col[at]  # a view of col for a slice: col is reset last
                ts = t.tolist()
                if not all(map(math.isfinite, ts)):
                    return None
                if rescales is None:
                    for j, tj in zip(js, ts):
                        log_scale[j] += log(tj)
                    _divide_prefix(w, k, at, t)
                else:
                    for j, tj in zip(js, ts):
                        log_scale[j] += log(tj)
                        rescales[j].append((k, tj))
                    # a point's first rescales divide here, its later ones in _replay_rescales
                    now = [len(rescales[j]) < _ZERO_AFTER for j in js]
                    if all(now):
                        _divide_prefix(w, k, at, t)
                    elif any(now):
                        _divide_prefix(w, k, found[now], t[now])
                total[at] /= t  # then + 1.0 from the restarted term, as in row()
                col[at] = 1.0
                total += col
                bound = _RESCALE_AT
            # rows below low are 0.0 in every column, and add nothing but the
            # sign of a zero sum, which 0.0 + sets
            low = 0 if rescales is None else _replay_rescales(w, rescales)
            v = w[low:]
            v /= total
            v *= fvals[low:, None]
            # down axis 0 of two or more columns numpy adds one row at a time, in cumsum's order
            sums = (0.0 + np.add.reduce(v, axis=0)).tolist()
            ell = buf[: b * n].reshape(b, n)
            np.multiply.outer(x, self.ell_q, out=ell)
            ell += self.ell_p
            np.log(ell, out=ell)
            log_ell = ell.sum(axis=1).tolist()
        if any(map(self._drifted, total.tolist(), log_scale, log_ell)):
            return None
        return sums

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


def _divide_prefix(w: np.ndarray, k: int, cols: slice | np.ndarray, t: np.ndarray) -> None:
    """w[: k + 1, cols] /= t.

    A slice of columns is divided through its transposed view in C order,
    one point's rows at a time: fewer, longer inner loops than the
    row-major order an index array takes.  On the rate grid weighted_sums
    took 9.46 against 9.69 ms at n = 256 and 65.5 against 68.1 ms at
    n = 1024 (best of 40 on a 2-vCPU host).
    """
    import numpy as np

    if isinstance(cols, slice):
        v = w[: k + 1, cols].T
        np.divide(v, t[:, None], out=v, order="C")
    else:
        w[: k + 1, cols] /= t


def _replay_rescales(w: np.ndarray, rescales: list[list[tuple[int, float]]]) -> int:
    """Each point's rescales from its _ZERO_AFTER-th on, which the loop only recorded.

    Rows at or below the fifth-last rescale of such a point take that
    rescale and the four after it, so they end at 0.0; each recorded
    rescale above them divides the rows between them and its own k, in
    event order.  Returns low, the lowest such top row over all columns,
    plus one: rows below it end at 0.0 in every column and are left as they
    are, for the caller to skip; the other zero rows are set to 0.0.  The
    columns are divided in place: copying 32-64 of them into a contiguous
    scratch and back was no faster.
    """
    tops = [marks[-_ZERO_AFTER][0] if len(marks) >= _ZERO_AFTER else -1 for marks in rescales]
    low = min(tops) + 1
    for col, marks, top in zip(w.T, rescales, tops):
        if top < 0:
            continue
        col[low : top + 1] = 0.0
        for k, t in marks[max(_ZERO_AFTER - 1, len(marks) - _ZERO_AFTER + 1) :]:
            col[top + 1 : k + 1] /= t
    return low


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


def _sample(f: RealFunction, ts: Sequence[float], what: str) -> list[float]:
    """f(t) as a float for each t in order: the one place a user function is called.

    One pass calls f once per point, in order; an expression from
    as_function takes the whole list through its at_points.  One more pass
    looks for a value that is not finite and names the first.  Where f
    raises, a value before that point that is not finite is refused
    instead, as a loop that stopped there would have done.
    """
    at_points = getattr(f, "at_points", None)
    vals: list[float] = []
    try:
        if at_points is not None:
            vals = at_points(ts)
        else:
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
