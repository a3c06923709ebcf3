"""Time the benchmark's three rate calls and one at n = 2048 in process, layer by layer.

The first three calls have the shape of one ``rate_kernel`` pass: ``rate``
at n = 256 with CSV and with JSON output and at n = 1024 with JSON, on the
default 2001-point grid, here with the fixed schedule harmonic:0.25,0.5 and
``sin_damped``.  The fourth, n = 2048 with JSON, is one where 1,828 of the
2,001 points rescale five times or more, so that the kernel's second pass
divides 37% of its (row, point) terms by inf alone; at n = 256 no point
rescales five times.  Each call is timed whole (``cli.main``, stdout
captured) and by layer:

- ``kernel``: ``_Kernel`` built and ``weighted_sums`` over the grid;
- ``totals``: the kernel's first pass, ``_Kernel._step_totals`` (each
  point's running total and its rescales), and the screen of row()'s drift
  check, ``_Kernel._screen`` (log ell_n(x) from the grouped products, their
  coefficients rebuilt, the margin E and the one test, chunk by chunk);
- ``sums``: the kernel's second pass, ``_Kernel._step_sums``, on the
  totals and rescales the first one left;
- ``moduli_window``: the largest difference of those samples at each
  window width up to the widest sqrt(delta_n) needs, one pass per width
  (``analysis._window_ranges``);
- ``records``: the rest of ``analysis._rate_columns``, with the kernel's
  sums and the moduli already computed: delta_n on the grid, f at the
  nodes and the grid points, and the four columns built;
- ``emit``: ``cli._emit_columns`` of those columns, to the printed text.

The samplings of f in a call are timed apart, for each of the five registry
functions (``sample <name>``), each on its float64 array as
``operators._sample`` takes it: ``modulus``, the modulus grid's 8,001
points (``analysis._modulus_samples``); ``grid``, the 2,001 grid points;
and ``nodes``, the n + 1 nodes at n = 256.  A registry function runs once
on the whole array; exp and sin still take one C-library call a point.

The layers and calls take turns until the time budget is spent, so that a
slow phase of the host hits them all, and each figure is the best time
seen, in ms.  Prints one JSON object.

    PYTHONPATH=src python3 scripts/rate_layers.py [--seconds 20]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np

from pqbbh import GridSpec, HarmonicSchedule, OperatorSpec, nodes
from pqbbh import analysis, cli, operators
from pqbbh.functions import REGISTRY

SCHEDULE = "harmonic:0.25,0.5"
FUNCTION = "sin_damped"
CALLS = ((256, "csv"), (256, "json"), (1024, "json"), (2048, "json"))


def layers(n: int, fmt: str) -> dict:
    """The zero-argument callables to time for one call, by layer name."""
    argv = ["rate", "--schedule", SCHEDULE, "--n", str(n), "--registry", FUNCTION,
            "--format", fmt]
    args = cli._parse_args(argv)  # the flag-table namespace, as cli.main reads argv
    spec = OperatorSpec(n, HarmonicSchedule(0.25, 0.5).params_for(n))
    f = REGISTRY[FUNCTION]
    grid = GridSpec.default()
    fvals = np.array([f(t) for t in nodes(spec).values])
    deltas = np.sqrt(analysis._ClosedForms(spec).delta(np.array(grid.xs))).tolist()
    size = analysis._MODULUS_POINTS
    samples = analysis._modulus_samples(f, grid.u_max, size)
    h = grid.u_max / (size - 1)  # the widest window, as analysis._moduli takes it
    w_top = max(int(min(delta / h + 1e-12, size - 1)) for delta in deltas)
    kernel = operators._Kernel(spec)
    table, sums = kernel.nodes(), kernel.weighted_sums(grid.xs, fvals)
    x = np.array(grid.xs)
    with np.errstate(all="ignore"):
        stepped = kernel._step_totals(x)  # the totals, the events and their pairs

    def totals() -> None:
        kernel._groups.clear()  # coefficients are built once per kernel
        with np.errstate(all="ignore"):
            running, _, pts, ts = kernel._step_totals(x)
            assert kernel._screen(x, running, pts, ts).all()

    def second() -> None:
        with np.errstate(all="ignore"):
            assert kernel._step_sums(x, fvals, *stepped) == sums
    done = SimpleNamespace(nodes=lambda: table, weighted_sums=lambda xs, fvals: sums)
    omegas = analysis._moduli(f, deltas, grid.u_max)
    columns = analysis._rate_columns(spec, f, grid)

    def records() -> None:  # the kernel and the moduli replaced by their results
        with mock.patch.multiple(analysis, _Kernel=lambda spec: done,
                                 _moduli=lambda f, deltas, u_max: omegas):
            analysis._rate_columns(spec, f, grid)

    def total() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    return {
        "kernel": lambda: operators._Kernel(spec).weighted_sums(grid.xs, fvals),
        "totals": totals,
        "sums": second,
        "moduli_window": lambda: analysis._window_ranges(samples, w_top),
        "records": records,
        "emit": lambda: cli._emit_columns(args, ["x", "lhs", "rhs", "pass"], columns,
                                  fn=f"registry:{FUNCTION}"),
        "total": total,
    }


def samplings(name: str) -> dict:
    """The zero-argument callables sampling one registry function, by sampling."""
    f = REGISTRY[name]
    grid = GridSpec.default()
    xs = np.array(grid.xs)
    ts = np.array(nodes(OperatorSpec(256, HarmonicSchedule(0.25, 0.5).params_for(256))).values)
    return {
        "modulus": lambda: analysis._modulus_samples(f, grid.u_max, analysis._MODULUS_POINTS),
        "grid": lambda: operators._sample(f, xs, "grid point"),
        "nodes": lambda: operators._sample(f, ts, "node"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget")
    budget = parser.parse_args().seconds
    timed = {f"n={n} {fmt}": layers(n, fmt) for n, fmt in CALLS}
    timed.update({f"sample {name}": samplings(name) for name in REGISTRY})
    best = {call: dict.fromkeys(fns, math.inf) for call, fns in timed.items()}
    rounds = 0
    end = time.perf_counter() + budget
    while rounds == 0 or time.perf_counter() < end:
        for call, fns in timed.items():
            for layer, fn in fns.items():
                start = time.perf_counter()
                fn()
                best[call][layer] = min(best[call][layer], time.perf_counter() - start)
        rounds += 1
    print(json.dumps({
        "schedule": SCHEDULE, "function": FUNCTION, "seconds": budget, "rounds": rounds,
        "best_ms": {call: {layer: round(1e3 * s, 3) for layer, s in layer_s.items()}
                    for call, layer_s in best.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
