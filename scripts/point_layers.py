"""Time one-point eval and moments calls in process, layer by layer.

The calls have the shape of the benchmark's ``point_queries`` calls: evals
of one kernel row at n = 8, 150 and 1024, with the bare value, CSV and JSON
output, here with fixed parameters, the pool's longest expression and, at
n = 1024, also the registry's ``sin_damped`` on the Stancu variant; an eval
at n = 64, ``operators._SCALAR_DEGREE``, where sampling f at the node tuple
point by point costs most; and
``moments --nu 2`` at n = 1024, whose six calls per pass are about a fifth
of a pass.  Each call is timed whole (``cli.main``, stdout captured) and by
layer:

- ``parse``: ``cli._parse_args`` of the argv;
- ``ints``: a new ``OperatorSpec`` and its deformed integers [0]..[n+1];
- ``tables``: ``_Kernel`` of a spec whose integers are built: the powers
  and, above ``operators._SCALAR_DEGREE``, the arrays;
- ``nodes``: ``_Kernel.nodes``;
- ``closed`` (``moments`` only): ``moment_closed`` on a new spec, its
  deformed integers included;
- ``sample``: the function resolved (an expression parsed and compiled,
  or ``cli._metric_power``, the moment's (t/(1+t))^nu) and sampled at the
  nodes by ``operators._sample``, as ``evaluate`` passes them: the node
  tuple up to ``operators._SCALAR_DEGREE``, the node array above it;
- ``points`` (``--fn`` calls only): the compiled expression called once
  per node, ``list(map(f, values))``, the path a single ``f(t)`` takes;
- ``row_sum``: ``_Kernel.row`` at x and ``_weighted_sum``;
- ``emit``: the row formatted as the command prints it.

The layers and calls take turns until the time budget is spent, so that a
slow phase of the host hits them all, and each figure is the best time
seen, in microseconds.  Prints one JSON object.

    PYTHONPATH=src python3 scripts/point_layers.py [--seconds 20]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import time

from pqbbh import analysis, cli, operators

EXPRESSION = "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2"
CALLS = {
    "n=8 fn": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5", "--fn", EXPRESSION,
               "--x", "1.5"],
    "n=64 fn": ["eval", "--n", "64", "--p", "0.99", "--q", "0.95", "--fn", EXPRESSION,
                "--x", "0.7"],
    "n=150 fn csv": ["eval", "--n", "150", "--p", "0.998", "--q", "0.996", "--fn", EXPRESSION,
                     "--x", "2.5", "--format", "csv"],
    "n=1024 fn json": ["eval", "--n", "1024", "--p", "0.9997", "--q", "0.9995",
                       "--fn", EXPRESSION, "--x", "0.7", "--format", "json"],
    "n=1024 stancu registry": ["eval", "--n", "1024", "--p", "0.9997", "--q", "0.9995",
                               "--gamma", "0.5", "--beta", "1.5", "--registry", "sin_damped",
                               "--x", "12"],
    "n=1024 moments nu=2": ["moments", "--n", "1024", "--p", "0.9997", "--q", "0.9995",
                            "--nu", "2", "--x", "0.7", "--format", "json"],
}


def layers(argv: list[str]) -> dict:
    """The zero-argument callables to time for one call, by layer name."""
    args = cli._parse_args(argv)
    spec = cli._build_spec(args)
    kernel = operators._Kernel(spec)
    values = kernel.nodes().values
    ts = values if kernel.scalar else kernel.node_array()  # what evaluate samples
    moments = args.command == "moments"

    def resolve():
        if moments:  # the moment that cli._cmd_moments samples
            return cli._metric_power(args.nu)
        return cli._resolve_function(args)[0]

    f = resolve()
    fvals = operators._sample(f, ts, "node")
    value = operators._weighted_sum(kernel.row(args.x), fvals)
    if moments:
        closed = analysis.moment_closed(cli._build_spec(args), args.nu, args.x)
    else:
        fname = cli._resolve_function(args)[1]

    def emit() -> str:
        if moments:
            header = ["n", "p", "q", "nu", "x", "closed", "brute_force", "abs_diff"]
            rows = [[args.n, args.p, args.q, args.nu, args.x, closed, value,
                     abs(closed - value)]]
            return cli._emit(args, header, rows)
        if args.format is None:
            return cli._fmt(value) + "\n"
        header = ["n", "p", "q", "gamma", "beta", "fn", "x", "value"]
        rows = [[args.n, args.p, args.q, args.gamma, args.beta, fname, args.x, value]]
        return cli._emit(args, header, rows, fn=fname)

    def total() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    timed = {
        "parse": lambda: cli._parse_args(argv),
        "ints": lambda: cli._build_spec(args)._ints,
        "tables": lambda: operators._Kernel(spec),
        "nodes": kernel.nodes,
        "closed": lambda: analysis.moment_closed(cli._build_spec(args), args.nu, args.x),
        "sample": lambda: operators._sample(resolve(), ts, "node"),
        "points": lambda: list(map(f, values)),
        "row_sum": lambda: operators._weighted_sum(kernel.row(args.x), fvals),
        "emit": emit,
        "total": total,
    }
    if not moments:
        del timed["closed"]
    if moments or args.fn is None:
        del timed["points"]
    return timed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget")
    budget = parser.parse_args().seconds
    timed = {call: layers(argv) for call, argv in CALLS.items()}
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
        "expression": EXPRESSION, "seconds": budget, "rounds": rounds,
        "best_us": {call: {layer: round(1e6 * s, 1) for layer, s in layer_s.items()}
                    for call, layer_s in best.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
