"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

Imports ``pqbbh.cli`` from the checkout's ``src``, generates the seeded
pass of one workload and calls ``pqbbh.cli.main`` in-process on each argv
list, one call after another (a closed loop with one client), timing each
call and checking each output.  After a warm-up call it repeats the pass
while another pass still fits in ``--seconds`` (at least ``MIN_PASSES``),
so a run ends within its time even when one pass takes seconds.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
give the per-layer metrics.

Each invocation's latency is the best of its repeats: on a shared host
the same call runs up to twice as slow in phases lasting from seconds to
minutes, and the median over a run moves with the share of slow phases
while the best of the repeats moves far less.  ``wall_s`` sums these latencies
over the pass and ``call_p50_ms`` is their median; ``call_tail_ms`` is
taken over every sample, slow phases included.  Set-up time is likewise
the best of several fresh interpreters started between passes.

Prints one JSON object on stdout.  With ``--record`` it instead runs one
pass and prints the stdout digests ``reference.json`` stores.

    python3 bench/child.py --workload point_queries --seed 0 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from check import CheckFailure, check, digest  # noqa: E402
from spans import Tracer, median_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
MIN_PASSES = 3  # each invocation's latency is its best of at least this many
TAIL_BEYOND = 10  # the tail percentile has this many samples beyond it
SETUP_PROBES = 12
PROBE = "import time, pqbbh.cli; print(time.monotonic_ns())"
MAX_REPORTED_FAILURES = 20


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(cli, argv) -> tuple[int | None, int, str, str]:
    """Run ``cli.main(argv)``; return exit code, latency in ns, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit):  # a user would see this traceback
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter_ns() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def tail(latencies_ns: list[int]) -> tuple[float, int]:
    """Highest whole percentile with TAIL_BEYOND samples above it: (value in ms, percentile).

    Nearest-rank percentiles; needs more than TAIL_BEYOND samples.
    """
    ordered = sorted(latencies_ns)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # samples at or below the percentile
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1] / 1e6, pct
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


class Run:
    """Invocations, their checks and the raw timings of one run."""

    def __init__(self, cli, oracles, invocations, references):
        self.cli = cli
        self.oracles = oracles
        self.invocations = invocations
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def verify(self, index: int, result) -> int:
        """Check one result, count it, and return its stdout size in bytes."""
        inv = self.invocations[index]
        code, _, stdout, stderr = result
        reference = self.references[index] if self.references is not None else None
        self.attempted += 1
        try:
            check(inv, code, stdout, stderr, reference, self.oracles)
        except CheckFailure as exc:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{' '.join(inv.argv)}: {exc}")
        return len(stdout.encode("utf-8"))

    def run_pass(self, tracer: Tracer | None = None) -> tuple[list[int], int]:
        """Time one pass, then check it: (latency of each invocation in ns, stdout bytes)."""
        results = []
        for inv in self.invocations:
            if tracer is None:
                results.append(call(self.cli, inv.argv))
            else:
                with tracer.invocation(inv.nu):
                    results.append(call(self.cli, inv.argv))
        bytes_out = sum(self.verify(i, r) for i, r in enumerate(results))
        return [r[1] for r in results], bytes_out


def best_latencies(passes: list[list[int]]) -> list[int]:
    """Each invocation's fastest latency over the passes.

    The passes repeat the same calls, so what varies between repeats is the
    host's interference; the best of them is the program's own cost.
    """
    return [min(column) for column in zip(*passes)]


def setup_probe(root: str) -> float:
    """Seconds from starting an interpreter until ``pqbbh.cli`` is imported."""
    start = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=root, capture_output=True,
                          text=True, timeout=60, check=True)
    return (int(done.stdout.split()[-1]) - start) / 1e9


def end_to_end(passes: list[list[int]], points_per_pass: int, probes: list[float]) -> dict:
    best = best_latencies(passes)
    wall_s = sum(best) / 1e9
    samples = [latency for latencies in passes for latency in latencies]
    tail_ms, tail_pct = tail(samples)
    return {
        "wall_s": wall_s,
        "points_per_s": points_per_pass / wall_s,
        "call_p50_ms": statistics.median(best) / 1e6,
        "setup_s": min(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "samples": len(samples),
        "passes": len(passes),
        "setup_probes_s": probes,
    }


def measure(run: Run, root: str, seconds: float, trace: bool, spans_path: str | None) -> dict:
    points = sum(inv.points for inv in run.invocations)
    run.verify(0, call(run.cli, run.invocations[0].argv))  # warm-up, untimed
    passes: list[list[int]] = []
    probes: list[float] = []
    traced_passes: list[list[int]] = []
    traced_metrics: list[dict] = []
    tracer = Tracer() if trace else None
    began = time.perf_counter()
    last_s = 0.0  # duration of the last loop step, to predict the next one
    while (len(passes) < MIN_PASSES or len(passes) * len(run.invocations) <= TAIL_BEYOND
           or time.perf_counter() - began + last_s <= seconds):
        step_began = time.perf_counter()
        # set-up probes go between passes, spread over the run, so that one
        # slow phase of the host cannot cover all of them
        due = len(probes) * seconds / SETUP_PROBES
        if not trace and len(probes) < SETUP_PROBES and step_began - began >= due:
            probes.append(setup_probe(root))
        passes.append(run.run_pass()[0])
        if tracer is not None:
            first = tracer.span_count()
            tracer.reset_counters()
            tracer.install()
            try:
                latencies, bytes_out = run.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_passes.append(latencies)
            metrics = tracer.pass_metrics(first, tracer.span_count())
            metrics["cli.bytes_out"] = bytes_out
            traced_metrics.append(metrics)
        last_s = time.perf_counter() - step_began
    if tracer is None:
        while len(probes) < SETUP_PROBES:  # the run ended before the last were due
            probes.append(setup_probe(root))
        return {"end_to_end": end_to_end(passes, points, probes)}
    per_layer = median_metrics(traced_metrics)
    per_layer["trace.overhead_s"] = (sum(best_latencies(traced_passes))
                                     - sum(best_latencies(passes))) / 1e9
    if spans_path is not None:
        tracer.write(spans_path)
    return {"per_layer": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    parser.add_argument("--record", action="store_true",
                        help="print the stdout digests of one pass instead of measuring")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import pqbbh.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"pqbbh imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2

    invocations = generate(args.workload, args.seed)
    references = None
    if args.seed == DEFAULT_SEED and not args.record:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            references = json.load(handle)["workloads"][args.workload]
        if len(references) != len(invocations):
            print("reference.json does not match the generated pass", file=sys.stderr)
            return 2
    run = Run(cli, load_oracles(root), invocations, references)

    if args.record:
        results = [call(cli, inv.argv) for inv in invocations]
        for i, result in enumerate(results):
            run.verify(i, result)
        result = {"digests": [digest(r[2]) for r in results]}
    else:
        result = measure(run, root, args.seconds, bool(args.trace), args.spans)
    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
