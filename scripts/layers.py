"""Time the CLI calls behind ROADMAP's Baseline rows in process, layer by layer.

Each call runs whole through ``cli.main``, stdout captured: as it is, for
``total``, and with each internal in ``LAYERS`` wrapped by
``bench/spans.py``'s ``Tracer.wrap`` in every pqbbh namespace that holds it
(``operators._sample`` also in ``analysis``), for ``traced``.  A layer's
figure is its self time: its time less that of the wrapped layers it
calls, summed over the call.  So in one run the layers, ``cli.main``'s own
time among them, add up exactly to ``traced``; what no entry wraps, such
as a ``_cmd_*`` handler or f itself, is its caller's time.
``Tracer.install()`` is not used: it would sample f point by point.

The calls have the benchmark's shapes: one-point evals at n = 8, 64, 150
and 1024, ``moments --nu 2`` at n = 1024, ``rate`` with ``sin_damped`` at
n = 256 (CSV and JSON), 1024 and 2048, ``rate --n 256`` with each other
registry function, where ``operators._sample``'s cost per function shows,
and ``rate --n 1024`` with the monotone ``exp_neg``.
Rounds run until the time budget is spent, each but the first in a seeded
random order, and run each call in each form for TURN_S, at least once.
Each figure is the best seen, in µs.  For each ``rate`` call it also
gives the rescale events and (event, point) pairs of its grid, read from
one untimed ``_Kernel._step_totals``.  Prints one JSON object.

    PYTHONPATH=src python3 scripts/layers.py [--seconds 20]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from spans import FIELDS, Tracer  # noqa: E402

from pqbbh import cli, operators  # noqa: E402
from pqbbh.functions import REGISTRY  # noqa: E402

LAYERS = (
    "cli.main", "cli._parse_args", "cli._emit", "cli._emit_columns",
    "expressions.parse_expression", "expressions.as_function",
    "pq_core.pq_integers",
    "operators._Kernel.__init__", "operators._Kernel.nodes", "operators._Kernel.node_array",
    "operators._Kernel.row", "operators._Kernel.weighted_sums",
    "operators._Kernel._step_totals", "operators._Kernel._step_sums",
    "operators._sample", "operators._weighted_sum",
    "analysis.moment_closed", "analysis._rate_columns", "analysis._moduli",
    "analysis._window_ranges",
)
TURN_S = 0.01
EXPRESSION = "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2"
FN = ["--fn", EXPRESSION]
AT_1024 = ["--p", "0.9997", "--q", "0.9995"]
RATE = ["rate", "--schedule", "harmonic:0.25,0.5", "--n"]
CALLS = {
    "eval n=8 fn": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5", *FN, "--x", "1.5"],
    "eval n=64 fn": ["eval", "--n", "64", "--p", "0.99", "--q", "0.95", *FN, "--x", "0.7"],
    "eval n=150 fn csv": ["eval", "--n", "150", "--p", "0.998", "--q", "0.996", *FN,
                          "--x", "2.5", "--format", "csv"],
    "eval n=1024 fn json": ["eval", "--n", "1024", *AT_1024, *FN, "--x", "0.7",
                            "--format", "json"],
    "eval n=1024 stancu registry": ["eval", "--n", "1024", *AT_1024, "--gamma", "0.5",
                                    "--beta", "1.5", "--registry", "sin_damped", "--x", "12"],
    "moments n=1024 nu=2": ["moments", "--n", "1024", *AT_1024, "--nu", "2", "--x", "0.7",
                            "--format", "json"],
    **{f"rate n={n} {fmt}": RATE + [str(n), "--registry", "sin_damped", "--format", fmt]
       for n, fmt in ((256, "csv"), (256, "json"), (1024, "json"), (2048, "json"))},
    # a monotone f at a degree where pass 2 leaves points out
    "rate n=1024 exp_neg json": RATE + ["1024", "--registry", "exp_neg", "--format", "json"],
    **{f"rate n=256 {name}": RATE + ["256", "--registry", name]
       for name in REGISTRY if name != "sin_damped"},
}


def wrappers(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, original, wrapper) for each layer in each namespace that holds it."""
    for layer in LAYERS:  # loaded first, so that every namespace is seen
        importlib.import_module("pqbbh." + layer.split(".")[0])
    namespaces = [module for name, module in sys.modules.items()
                  if name == "pqbbh" or name.startswith("pqbbh.")]
    out = []
    for layer in LAYERS:
        module, *path, attr = layer.split(".")
        owner = sys.modules[f"pqbbh.{module}"]
        for part in path:  # a method: its class is its one holder
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(layer, original)
        holders = [owner] if path else [ns for ns in namespaces if vars(ns).get(attr) is original]
        out += [(holder, attr, original, wrapper) for holder in holders]
    return out


def run(argv: list[str], patches: list[tuple], traced: bool) -> int:
    """ns of one cli.main call, with the layers wrapped if ``traced``, else as they are."""
    for holder, attr, original, wrapper in patches:
        setattr(holder, attr, wrapper if traced else original)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter_ns()
        code = cli.main(argv)
        ns = time.perf_counter_ns() - start
    if code:
        raise SystemExit(f"pqbbh {' '.join(argv)} exited {code}")
    return ns


def layer_times(tracer: Tracer) -> dict[str, int]:
    """The recorded call's ``traced`` ns and each layer's self ns; clears the spans."""
    spans = tracer.spans
    out = {"traced": spans[2] - spans[1]}  # the root span, cli.main
    for i, own in enumerate(tracer.self_times()):
        name = tracer.names[spans[i * FIELDS]]
        out[name] = out.get(name, 0) + own
    del spans[:]
    return out


def rescales(argv: list[str]) -> dict[str, int]:
    """The rescale events and (event, point) pairs of one untimed run of a rate call's pass 1."""
    seen = {}
    step_totals = operators._Kernel._step_totals

    def record(kernel: operators._Kernel, x):
        stepped = step_totals(kernel, x)
        if stepped is not None:
            seen.update(events=len(stepped[1]), pairs=int(stepped[2].size))
        return stepped

    operators._Kernel._step_totals = record
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        operators._Kernel._step_totals = step_totals
    return seen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget")
    budget = parser.parse_args().seconds
    counts = {call: rescales(argv) for call, argv in CALLS.items() if argv[0] == "rate"}
    tracer = Tracer()
    patches = wrappers(tracer)
    best: dict[str, dict[str, int]] = {call: {} for call in CALLS}
    turns = [(call, traced) for call in CALLS for traced in (False, True)]
    shuffle = random.Random(0).shuffle
    rounds = 0
    end = time.perf_counter() + budget
    while rounds == 0 or time.perf_counter() < end:
        for call, traced in turns:
            stop = time.perf_counter() + TURN_S
            while True:
                ns = run(CALLS[call], patches, traced)
                seen = layer_times(tracer) if traced else {"total": ns}
                for layer, own in seen.items():
                    best[call][layer] = min(best[call].get(layer, own), own)
                if time.perf_counter() >= stop:
                    break
        shuffle(turns)
        rounds += 1
    order = ("total", "traced", *LAYERS)
    print(json.dumps({"seconds": budget, "rounds": rounds, "best_us": {
        call: {layer: round(seen[layer] / 1e3, 1) for layer in order if layer in seen}
        for call, seen in best.items()}, "rescales": counts}, indent=1))


if __name__ == "__main__":
    main()
