"""Seeded invocation generator for the three benchmark workloads.

``generate(workload, seed)`` returns one pass: the list of CLI invocations
the benchmark times as a unit and repeats for the run length.  Each
``Invocation`` carries the argv list (the only thing the program sees) and
benchmark-side metadata used to count points and check the output.

Every pass of a workload has the same shape for every seed (same
subcommands, degrees, grid sizes and output formats in the same slots);
the seed draws the continuous inputs (schedules, p, q, x, shifts) and the
functions.  That keeps the cost of a pass close to seed-independent, so
run-to-run spread measures the machine and the program, not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("rate_kernel", "converge_closed", "point_queries")
DEFAULT_SEED = 0

DEFAULT_GRID_POINTS = 2001
LARGE_GRID_POINTS = 3001
CONVERGE_DEGREES = (16, 64, 256, 1024)

# Test functions by registry name, with an independent Python definition
# the n = 8 oracle check evaluates.
REGISTRY_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "one_": lambda t: 1.0,
    "bbh_metric": lambda t: t / (1.0 + t),
    "bbh_metric_sq": lambda t: (t / (1.0 + t)) ** 2,
    "exp_neg": lambda t: math.exp(-t),
    "sin_damped": lambda t: math.sin(t) / (1.0 + t),
}

# Expressions finite on the whole half line, including the nodes near
# 1/q^8 that small q produces at n = 8.  Each degree of a point-query pass
# uses every one of them once, so the pass costs the same for every seed.
EXPRESSIONS: dict[str, Callable[[float], float]] = {
    "t/(1+t)": lambda t: t / (1.0 + t),
    "abs(sin(t))/(1+t)": lambda t: abs(math.sin(t)) / (1.0 + t),
    "exp(-t)": lambda t: math.exp(-t),
    "1/(1+t^2)": lambda t: 1.0 / (1.0 + t ** 2),
    "sqrt(t)/(1+t)": lambda t: math.sqrt(t) / (1.0 + t),
    "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2":
        lambda t: math.cos(t) * math.exp(-t / 4.0) + math.log(1.0 + t) / (2.0 + t) ** 2,
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` goes to the program, the rest stays with the benchmark."""

    argv: tuple[str, ...]
    command: str
    fmt: str | None  # None: bare value (eval only)
    points: int  # (degree, x) pairs the call answers
    expected_rows: int
    nu: int | None = None  # the --nu asked for, where the command has one
    # For n = 8 base-variant point queries: what the oracle check needs.
    oracle: dict = field(default_factory=dict, compare=False)


def _num(value: float) -> str:
    return repr(float(value))


def _draw_harmonic(rng: random.Random) -> tuple[float, float]:
    """0 < a < b < 1, rounded to 4 decimals as a user would type them."""
    while True:
        a = round(rng.uniform(0.05, 0.85), 4)
        b = round(rng.uniform(a + 0.02, 0.95), 4)
        if 0.0 < a < b < 1.0:
            return a, b


def _draw_unit_box(rng: random.Random) -> tuple[float, float]:
    """(p, q) over 0 < q <= p <= 1: the classical corner, the diagonal, or the interior."""
    kind = rng.random()
    if kind < 0.125:
        return 1.0, 1.0
    p = float(f"{1.0 - rng.random():.6g}")  # in (0, 1]
    if kind < 0.375:
        return p, p
    q = float(f"{p * (1.0 - rng.random()):.6g}")
    return p, min(q, p)


def _params_for(rng: random.Random, n: int) -> tuple[float, float]:
    if n == 8:
        return _draw_unit_box(rng)
    a, b = _draw_harmonic(rng)
    return 1.0 - a / n, 1.0 - b / n


def _stratified_x(rng: random.Random, count: int) -> list[float]:
    """``count`` points log-uniform on [0.01, 50], one per equal stratum, in random order.

    The weight recurrence rescales more often at large x, so stratifying
    keeps the cost of a pass nearly the same for every seed.
    """
    lo, hi = math.log(0.01), math.log(50.0)
    width = (hi - lo) / count
    xs = [float(f"{math.exp(rng.uniform(lo + i * width, lo + (i + 1) * width)):.6g}")
          for i in range(count)]
    rng.shuffle(xs)
    return xs


def _expressions(rng: random.Random, count: int) -> list[str]:
    """``count`` expressions covering the pool as evenly as possible, in random order."""
    pool = sorted(EXPRESSIONS)
    out = []
    while len(out) < count:
        out += rng.sample(pool, min(len(pool), count - len(out)))
    return out


def _format_args(fmt: str | None) -> list[str]:
    return [] if fmt is None else ["--format", fmt]


# A converge pass is mostly calls of one cost plus one slower call, so the
# median and the tail percentile (10 samples from the top) both fall inside
# the larger group.  A rate pass is kept to three calls: each call's latency
# is its best repeat, and a short pass repeats each call more often in a
# run, so that best is less often taken in one of the host's slow phases.
def _rate_pass(rng: random.Random) -> list[Invocation]:
    out = []
    for n, fmt in ((256, "csv"), (256, "json"), (1024, "json")):
        a, b = _draw_harmonic(rng)
        name = rng.choice(sorted(REGISTRY_FUNCTIONS))
        argv = ["rate", "--schedule", f"harmonic:{a},{b}", "--n", str(n),
                "--registry", name, *_format_args(fmt)]
        out.append(Invocation(tuple(argv), "rate", fmt, DEFAULT_GRID_POINTS,
                              DEFAULT_GRID_POINTS))
    return out


def _converge_pass(rng: random.Random) -> list[Invocation]:
    n_list = ",".join(str(n) for n in CONVERGE_DEGREES)
    out = []
    slots = [(0, "csv", None), (1, "json", None), (2, "csv", None),
             (0, "json", None), (1, "csv", None), (2, "json", None),
             (2, "csv", LARGE_GRID_POINTS)]
    for nu, fmt, points in slots:
        a, b = _draw_harmonic(rng)
        argv = ["converge", "--schedule", f"harmonic:{a},{b}", "--n-list", n_list,
                "--nu", str(nu), *_format_args(fmt)]
        grid = DEFAULT_GRID_POINTS
        if points is not None:
            x_max = round(rng.uniform(60.0, 200.0), 2)
            argv += ["--x-max", _num(x_max), "--points", str(points)]
            grid = points
        out.append(Invocation(tuple(argv), "converge", fmt,
                              grid * len(CONVERGE_DEGREES), len(CONVERGE_DEGREES), nu=nu))
    return out


def _point_pass(rng: random.Random) -> list[Invocation]:
    """Per degree: 12 eval, 6 moments and 2 stancu-bound calls; 8 represent calls at n = 8."""
    out = []
    for n in (8, 150, 1024):
        xs = _stratified_x(rng, 18)
        exprs = _expressions(rng, 6)
        for variant in ("base", "stancu"):
            for kind in ("expr", "registry"):
                for fmt in (None, "csv", "json"):
                    p, q = _params_for(rng, n)
                    x = xs.pop()
                    if kind == "expr":
                        fname = exprs.pop()
                        fn_args, f = ["--fn", fname], EXPRESSIONS[fname]
                    else:
                        fname = rng.choice(sorted(REGISTRY_FUNCTIONS))
                        fn_args, f = ["--registry", fname], REGISTRY_FUNCTIONS[fname]
                    argv = ["eval", "--n", str(n), "--p", _num(p), "--q", _num(q)]
                    if variant == "stancu":
                        argv += ["--gamma", _num(round(rng.uniform(0.0, 2.0), 4)),
                                 "--beta", _num(round(rng.uniform(0.0, 2.0), 4))]
                    argv += [*fn_args, "--x", _num(x), *_format_args(fmt)]
                    oracle = {}
                    if n == 8 and variant == "base":
                        oracle = {"f": f, "n": n, "p": p, "q": q, "x": x}
                    out.append(Invocation(tuple(argv), "eval", fmt, 1, 1, oracle=oracle))
        for nu in (0, 1, 2):
            for fmt in ("csv", "json"):
                p, q = _params_for(rng, n)
                x = xs.pop()
                argv = ["moments", "--n", str(n), "--p", _num(p), "--q", _num(q),
                        "--nu", str(nu), "--x", _num(x), "--format", fmt]
                oracle = {}
                if n == 8:
                    oracle = {"f": (lambda t, nu=nu: (t / (1.0 + t)) ** nu),
                              "n": n, "p": p, "q": q, "x": x}
                out.append(Invocation(tuple(argv), "moments", fmt, 1, 1, nu=nu,
                                      oracle=oracle))
        for fmt in ("csv", "json"):
            p, q = _params_for(rng, n)
            argv = ["stancu-bound", "--n", str(n), "--p", _num(p), "--q", _num(q),
                    "--gamma", _num(round(rng.uniform(0.0, 2.0), 4)),
                    "--beta", _num(round(rng.uniform(0.0, 2.0), 4)),
                    "--alpha", _num(round(rng.uniform(0.1, 1.0), 3)),
                    "--m", _num(round(rng.uniform(0.5, 5.0), 3)),
                    "--format", fmt]
            out.append(Invocation(tuple(argv), "stancu-bound", fmt, 1, 1))
    xs = _stratified_x(rng, 8)
    exprs = _expressions(rng, 4)
    for kind in ("expr", "registry"):
        for fmt in ("csv", "json"):
            for _ in range(2):
                p, q = _params_for(rng, 8)
                x = xs.pop()
                if kind == "expr":
                    fname = exprs.pop()
                    fn_args, f = ["--fn", fname], EXPRESSIONS[fname]
                else:
                    fname = rng.choice(sorted(REGISTRY_FUNCTIONS))
                    fn_args, f = ["--registry", fname], REGISTRY_FUNCTIONS[fname]
                argv = ["represent", "--n", "8", "--p", _num(p), "--q", _num(q),
                        *fn_args, "--x", _num(x), "--format", fmt]
                out.append(Invocation(tuple(argv), "represent", fmt, 1, 1,
                                      oracle={"f": f, "n": 8, "p": p, "q": q, "x": x}))
    rng.shuffle(out)
    return out


_PASSES = {
    "rate_kernel": _rate_pass,
    "converge_closed": _converge_pass,
    "point_queries": _point_pass,
}


def generate(workload: str, seed: int) -> list[Invocation]:
    """The pass of ``workload`` for ``seed``; equal seeds give equal lists."""
    try:
        make = _PASSES[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return make(random.Random(f"{workload}:{seed}"))
