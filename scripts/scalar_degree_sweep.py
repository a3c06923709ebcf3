"""Time one-point kernel work on the scalar and the array path, n = 8 to 1024.

For each degree, the kernel of a spec whose integer table is already
built, its nodes, one weight row and the weighted sum are timed with
``operators._SCALAR_DEGREE`` set so that the kernel takes each path in
turn.  The cases are harmonic-schedule (p, q), as the benchmark's point
queries use above n = 8, and x in [0.01, 50].  Each time is the best of
several repeats, and the two paths run back to back on each case so that a
slow phase of the host hits both.  Prints one JSON object: the
scalar/array ratio per degree and the largest power of two at which the
scalar path is no slower, the value ``_SCALAR_DEGREE`` takes.

    PYTHONPATH=src python3 scripts/scalar_degree_sweep.py
"""

from __future__ import annotations

import json
import random
import time

import pqbbh.operators as operators
from pqbbh import OperatorSpec, PqParams

DEGREES = (8, 16, 32, 64, 128, 256, 512, 1024)
CASES = 6  # (p, q, x) per degree
REPEATS = 7
CALLS = 200  # one-point queries per timing


def one_point(spec: OperatorSpec, x: float, fvals: list[float]) -> float:
    kernel = operators._Kernel(spec)
    kernel.nodes()
    return operators._weighted_sum(kernel.row(x), fvals)


def best_time(n: int, params: PqParams, x: float, bound: int) -> float:
    operators._SCALAR_DEGREE = bound
    spec = OperatorSpec(n, params)
    spec._ints  # the table both paths share, built before the clock starts
    fvals = [1.0 / (1.0 + k) for k in range(n + 1)]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            one_point(spec, x, fvals)
        best = min(best, (time.perf_counter() - start) / CALLS)
    return best


def main() -> None:
    rng = random.Random(0)
    saved = operators._SCALAR_DEGREE
    ratios = {}
    try:
        for n in DEGREES:
            scalar = array = 0.0
            for _ in range(CASES):
                a = rng.uniform(0.05, 0.85)
                b = rng.uniform(a + 0.02, 0.95)
                params = PqParams(1.0 - a / n, 1.0 - b / n)
                x = rng.uniform(0.01, 50.0)
                scalar += best_time(n, params, x, n)
                array += best_time(n, params, x, 0)
            ratios[n] = {"scalar_us": 1e6 * scalar / CASES, "array_us": 1e6 * array / CASES,
                         "ratio": scalar / array}
    finally:
        operators._SCALAR_DEGREE = saved
    bound = 0
    for n in DEGREES:
        if ratios[n]["ratio"] > 1.0:
            break
        bound = n
    print(json.dumps({"degrees": ratios, "scalar_degree": bound}, indent=1))


if __name__ == "__main__":
    main()
