"""Time one-point kernel work on the scalar and the array path, n = 8 to 1024.

For each degree, the kernel of a spec whose integer table is already
built, its nodes, one weight row and the weighted sum are timed with
``operators._SCALAR_DEGREE`` set so that the kernel takes each path in
turn.  The cases are harmonic-schedule (p, q), as the benchmark's point
queries use above n = 8, and x in [0.01, 50].  The degrees, cases and
paths take turns until the time budget is spent, the two paths back to
back on each case so that a slow phase of the host hits both, and each
time is the best seen.  Prints one JSON object: the scalar/array ratio
per degree and the largest power of two at which the scalar path is no
slower, the value ``_SCALAR_DEGREE`` takes.

    PYTHONPATH=src python3 scripts/scalar_degree_sweep.py [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time

import numpy  # noqa: F401 -- the array path's import, made before the clock starts

import pqbbh.operators as operators
from pqbbh import OperatorSpec, PqParams

DEGREES = (8, 16, 32, 64, 128, 256, 512, 1024)
CASES = 6  # (p, q, x) per degree
CALLS = 200  # one-point queries per timing
PATHS = ("scalar", "array")


def one_point(spec: OperatorSpec, x: float, fvals: list[float]) -> float:
    kernel = operators._Kernel(spec)
    kernel.nodes()
    return operators._weighted_sum(kernel.row(x), fvals)


def time_calls(spec: OperatorSpec, x: float, fvals: list[float], bound: int) -> float:
    """Mean seconds of CALLS one-point queries, with ``_SCALAR_DEGREE`` at bound."""
    operators._SCALAR_DEGREE = bound
    start = time.perf_counter()
    for _ in range(CALLS):
        one_point(spec, x, fvals)
    return (time.perf_counter() - start) / CALLS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget")
    budget = parser.parse_args().seconds
    rng = random.Random(0)
    cases = []  # (n, spec, x, fvals)
    for n in DEGREES:
        for _ in range(CASES):
            a = rng.uniform(0.05, 0.85)
            b = rng.uniform(a + 0.02, 0.95)
            spec = OperatorSpec(n, PqParams(1.0 - a / n, 1.0 - b / n))
            spec._ints  # the table both paths share, built before the clock starts
            x = rng.uniform(0.01, 50.0)
            cases.append((n, spec, x, [1.0 / (1.0 + k) for k in range(n + 1)]))
    best = [dict.fromkeys(PATHS, math.inf) for _ in cases]
    saved = operators._SCALAR_DEGREE
    rounds = 0
    end = time.perf_counter() + budget
    try:
        while rounds == 0 or time.perf_counter() < end:
            for (n, spec, x, fvals), times in zip(cases, best):
                for path, bound in zip(PATHS, (n, 0)):
                    times[path] = min(times[path], time_calls(spec, x, fvals, bound))
            rounds += 1
    finally:
        operators._SCALAR_DEGREE = saved
    ratios = {}
    for n in DEGREES:
        scalar, array = (sum(times[path] for (m, *_), times in zip(cases, best) if m == n)
                         for path in PATHS)
        ratios[n] = {"scalar_us": 1e6 * scalar / CASES, "array_us": 1e6 * array / CASES,
                     "ratio": scalar / array}
    bound = 0
    for n in DEGREES:
        if ratios[n]["ratio"] > 1.0:
            break
        bound = n
    print(json.dumps({"seconds": budget, "rounds": rounds, "degrees": ratios,
                      "scalar_degree": bound}, indent=1))


if __name__ == "__main__":
    main()
