"""Time the benchmark's three rate calls and one at n = 2048 in process, layer by layer.

The first three calls have the shape of one ``rate_kernel`` pass: ``rate``
at n = 256 with CSV and with JSON output and at n = 1024 with JSON, on the
default 2001-point grid, here with the fixed schedule harmonic:0.25,0.5 and
``sin_damped``.  The fourth, n = 2048 with JSON, is one where most
(rescale, point) pairs of the kernel are replayed after the stepping
(``operators._replay_rescales``); at n = 256 none are.  Each call is timed
whole (``cli.main``, stdout captured) and by layer:

- ``kernel``: ``_Kernel`` built and ``weighted_sums`` over the grid;
- ``moduli_sample``: f at the modulus grid's 8,001 points
  (``analysis._modulus_samples``);
- ``moduli_window``: the largest difference of those samples at each
  window width up to the widest sqrt(delta_n) needs, one pass per width
  (``analysis._window_ranges``);
- ``records``: the rest of ``analysis._rate_columns``, with the kernel's
  sums and the moduli already computed: delta_n on the grid, f at the
  nodes and the grid points, and the four columns built;
- ``emit``: ``cli._emit_columns`` of those columns, to the printed text.

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
        "moduli_sample": lambda: analysis._modulus_samples(f, grid.u_max, size),
        "moduli_window": lambda: analysis._window_ranges(samples, w_top),
        "records": records,
        "emit": lambda: cli._emit_columns(args, ["x", "lhs", "rhs", "pass"], columns,
                                  fn=f"registry:{FUNCTION}"),
        "total": total,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget")
    budget = parser.parse_args().seconds
    timed = {f"n={n} {fmt}": layers(n, fmt) for n, fmt in CALLS}
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
