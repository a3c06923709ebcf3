"""Benchmark of the pqbbh command line, end to end and per layer.

Run from the root of a checkout.  Each run starts a fresh interpreter
(``child.py``) with one thread per numeric library, which calls
``pqbbh.cli.main`` in-process on the seeded argv lists of one workload,
times every call and checks every output.  Between its passes it starts
fresh interpreters that only import ``pqbbh.cli``, to measure set-up
time.  Workloads never run at the same time.

    python3 bench/run.py --workload rate_kernel --seed 3 --seconds 60 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced

``BENCHMARK.json`` gates ``rate_kernel`` and ``point_queries``.
``converge_closed`` (closed forms only, no weights) still runs by name and
in the run of every workload, but is not gated: on a shared 2-vCPU host its
runs spread as far as ``rate_kernel``'s, and the run time three gated
workloads would allow is too short to steady them.
    python3 bench/run.py --compare .bench_out/earlier.json
    python3 bench/run.py --write-reference

End-to-end metrics (untraced): ``wall_s``, the pass's time with each call
at its best of the run's repeats; ``points_per_s``, the (degree, x) pairs
of a pass over ``wall_s``; ``call_p50_ms``, the median of those best
latencies; ``setup_s``, the best time from a fresh interpreter to an
imported ``pqbbh.cli`` over 12 probes spread across the run; ``peak_rss_mb``,
the measuring process's peak resident set.  Printed beside them, not gated: ``call_tail_ms``, the
highest whole percentile of all call samples with 10 samples beyond it.
A run makes only 45 to 80 rate or converge calls, so that percentile
falls at the edge of a cost group or of a slow phase of the host, and
its spread across seeds comes close to the largest bound a gated metric
may have.  Per-layer metrics come from the
traced run (see ``spans.py``); ``failed_ratio`` counts invocations whose
output failed a check (see ``check.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``).  The lines before it print every
metric with its unit; the full result goes to ``.bench_out``.
``--write-reference`` records, from the code as it stands, the stdout
digests that runs with the default seed are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = ".bench_out"
REQUIRED = (os.path.join("src", "pqbbh", "cli.py"), os.path.join("tests", "oracles.py"))
RUN_LIMIT_S = 170.0  # one run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "call_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "pq_core.pq_integers.calls": ("count", "lower"),
    "pq_core.pq_integers.self_s": ("s", "lower"),
    "pq_core.pq_integers.reuse_ratio": ("ratio", "higher"),
    "pq_core.log_pochhammer_ell.calls": ("count", "lower"),
    "operators.weights.calls": ("count", "lower"),
    "operators.weights.terms": ("count", "lower"),
    "operators.nodes.calls": ("count", "lower"),
    "operators.stancu_nodes.calls": ("count", "lower"),
    "operators.evaluate.calls": ("count", "lower"),
    "operators.representation_rhs.calls": ("count", "lower"),
    "analysis.moment_closed.calls": ("count", "lower"),
    "analysis.moment_closed.requested_ratio": ("ratio", "higher"),
    "analysis.delta_n.calls": ("count", "lower"),
    "analysis.rate_bound_check.calls": ("count", "lower"),
    "analysis.GridSpec.default.calls": ("count", "lower"),
    "expressions.parse_expression.calls": ("count", "lower"),
    "expressions.eval_expression.calls": ("count", "lower"),
    "functions.registry.calls": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.build_parser.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    return "s" if name.endswith("_s") else "count"


def check_checkout(root: str) -> None:
    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(root, path))]
    if missing:
        raise BenchError(f"not a pqbbh checkout: missing {', '.join(missing)} in {root}")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def run_child(root: str, env: dict[str, str], args: list[str], deadline: float) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args]
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: run exceeded its time limit") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{' '.join(args)}: child exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One isolated run: a fresh measuring interpreter for one workload."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")]
    child = run_child(root, child_env(root), args, time.monotonic() + RUN_LIMIT_S)
    for failure in child["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"attempted": child["attempted"], "failed": child["failed"],
              "numpy": child["numpy"], "detail": {}}
    failed_ratio = child["failed"] / child["attempted"]
    if trace:
        result["per_layer"] = {**child["per_layer"], "failed_ratio": failed_ratio}
    else:
        e2e = child["end_to_end"]
        result["detail"] = {key: e2e.pop(key) for key in
                            ("call_tail_ms", "tail_percentile", "samples", "passes",
                             "setup_probes_s")}
        result["detail"]["failed_ratio"] = failed_ratio
        result["end_to_end"] = e2e
    return result


def environment(numpy_version: str) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0))}


def print_report(results: dict, env: dict, earlier: dict | None) -> None:
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}")
    rows = {w: r["end_to_end"] for w, r in results.items() if "end_to_end" in r}
    if rows:
        names = list(END_TO_END)
        print("end to end (" + ", ".join(
            f"{n} [{END_TO_END[n][0]}, {END_TO_END[n][1]} is better]" for n in names) + ")")
        print(f"{'workload':<16}" + "".join(f"{n:>14}" for n in names))
        for workload, metrics in rows.items():
            detail = results[workload]["detail"]
            print(f"{workload:<16}" + "".join(f"{metrics[n]:>14.6g}" for n in names)
                  + f"  call_tail_ms {detail['call_tail_ms']:.6g} [ms]"
                  f" at p{detail['tail_percentile']} of {detail['samples']} calls,"
                  f" {detail['passes']} passes, failed_ratio {detail['failed_ratio']:.6g}")
    for workload, result in results.items():
        per_layer = result.get("per_layer", {})
        if per_layer:
            print(f"per layer, {workload} (traced run; functions that ran)")
        for name in sorted(per_layer):
            if shown(per_layer, name):
                print(f"  {name:<48} {per_layer[name]:>16.6g} {unit_of(name)}")
    if earlier is None:
        return
    print("difference from the earlier result (old -> new, change as a share of old)")
    for workload, result in results.items():
        old = earlier.get("workloads", {}).get(workload, {})
        for section in ("end_to_end", "per_layer"):
            metrics = result.get(section, {})
            for name, value in metrics.items():
                before = old.get(section, {}).get(name)
                if before is None or not shown(metrics, name) or before == value == 0:
                    continue
                share = f"{(value - before) / before:+.1%}" if before else "n/a"
                print(f"  {workload:<16} {name:<48} {before:>12.6g} -> {value:<12.6g}"
                      f" {unit_of(name):<6} {share}")


def shown(metrics: dict, name: str) -> bool:
    """Listed metrics always; another function's metrics only where it ran."""
    return name in PER_LAYER or metrics.get(name.rsplit(".", 1)[0] + ".calls", 1) != 0


def contract_line(result: dict, trace: int) -> str:
    if trace:
        metrics = {n: {"value": result["per_layer"][n], "unit": u}
                   for n, (u, _) in PER_LAYER.items()}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u}
                   for n, (u, _) in END_TO_END.items()}
    return json.dumps({"correct": result["failed"] == 0 and result["attempted"] > 0,
                       "attempted": result["attempted"], "failed": result["failed"],
                       "metrics": metrics})


def write_reference(root: str) -> None:
    reference = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        child = run_child(root, child_env(root),
                          ["--workload", workload, "--seed", str(DEFAULT_SEED), "--record"],
                          time.monotonic() + RUN_LIMIT_S)
        if child["failed"]:
            raise BenchError(f"{workload}: {child['failures']}")
        reference["workloads"][workload] = child["digests"]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="PATH", help="earlier result file to diff against")
    parser.add_argument("--out", metavar="PATH", help="result file (default under .bench_out)")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        check_checkout(root)
        if args.write_reference:
            write_reference(root)
            return 0
        earlier = None
        if args.compare:
            with open(args.compare, encoding="utf-8") as handle:
                earlier = json.load(handle)
        os.makedirs(OUT_DIR, exist_ok=True)
        results: dict[str, dict] = {}
        if args.workload:
            plan = [(args.workload, args.trace)]
            out = args.out or os.path.join(
                OUT_DIR, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
        else:
            plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
            out = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
        for workload, trace in plan:
            result = run_workload(root, workload, args.seed, args.seconds, trace)
            merged = results.setdefault(workload, {"attempted": 0, "failed": 0, "detail": {}})
            for key in ("attempted", "failed"):
                merged[key] += result.pop(key)
            merged["detail"].update(result.pop("detail"))
            merged.update(result)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    env = environment(next(iter(results.values()))["numpy"])
    record = {**env, "seed": args.seed, "seconds": args.seconds, "workloads": results}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print_report(results, env, earlier)
    print(f"result written to {out}")
    if args.workload:
        print(contract_line(results[args.workload], args.trace))
    else:
        failed = sum(r["failed"] for r in results.values())
        print(json.dumps({"correct": failed == 0, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
