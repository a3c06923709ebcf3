"""Command line front end.

Evaluates operators, tabulates convergence experiments and emits
deterministic CSV or JSON (see README for the column schemas).  Exit codes:
0 success, 2 usage error, 3 numeric domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Sequence

from .analysis import (
    GridSpec,
    HarmonicSchedule,
    convergence_report,
    moment_closed,
    rate_bound_check,
    stancu_bound_report,
)
from .expressions import as_function, parse_expression
from .functions import registry_function
from .operators import OperatorSpec, StancuShift, _representation, evaluate
from .pq_core import DomainError, PqParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def _fmt(value, column: str = "value") -> str:
    """12 significant digits; booleans and ints keep their natural form.

    Raises DomainError, naming the column, for a number that would print as inf or nan.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"{column} = {v!r} is not a finite number")
    if v == 0.0:
        v = 0.0  # normalize -0
    return f"{v:.12g}"


def _json_cell(value, column: str):
    if isinstance(value, (bool, int)) or value is None or isinstance(value, str):
        return value
    return float(_fmt(value, column))


def _emit(args, header: list[str], rows: list[list], **overrides) -> str:
    if args.format == "json":
        # "meta" echoes every flag in declaration order, --fn/--registry as "fn"
        meta = {k: v for k, v in vars(args).items() if k != "registry"}
        meta.update(overrides)
        cells = [[_json_cell(c, name) for c, name in zip(row, header)] for row in rows]
        return json.dumps({"meta": meta, "rows": cells}) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(c, name) for c, name in zip(row, header)])
    return buf.getvalue()


def _finite_float(text: str) -> float:
    """Type of every float flag: inf and nan are usage errors, like malformed numbers."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_output_args(parser: argparse.ArgumentParser, format_default: str | None = "csv") -> None:
    parser.add_argument("--format", choices=["csv", "json"], default=format_default)
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")


def _add_operator_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=_finite_float, required=True)
    parser.add_argument("--q", type=_finite_float, required=True)


def _add_function_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fn", help="expression in t, e.g. 't/(1+t)'")
    group.add_argument("--registry", help="named test function")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line on every call."""
    parser = argparse.ArgumentParser(
        prog="pqbbh",
        description="Two-parameter Bleimann-Butzer-Hahn operators and convergence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the operator at a point")
    _add_operator_args(p)
    p.add_argument("--gamma", type=_finite_float, default=None)
    p.add_argument("--beta", type=_finite_float, default=None)
    _add_function_args(p)
    p.add_argument("--x", type=_finite_float, required=True)
    _add_output_args(p, format_default=None)  # bare value unless a format is requested

    p = sub.add_parser("moments", help="closed-form and brute-force moments side by side")
    _add_operator_args(p)
    p.add_argument("--nu", type=int, choices=[0, 1, 2], required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    _add_output_args(p)

    p = sub.add_parser("converge", help="Korovkin discrepancies along a schedule")
    p.add_argument("--schedule", required=True, help="harmonic:A,B")
    p.add_argument("--n-list", required=True, help="comma-separated degrees")
    p.add_argument("--nu", type=int, choices=[0, 1, 2], required=True)
    p.add_argument("--x-max", type=_finite_float, default=50.0)
    p.add_argument("--points", type=int, default=2001)
    _add_output_args(p)

    p = sub.add_parser("rate", help="per-point rate-bound check on the default grid")
    p.add_argument("--schedule", required=True, help="harmonic:A,B")
    p.add_argument("--n", type=int, required=True)
    _add_function_args(p)
    _add_output_args(p)

    p = sub.add_parser("represent", help="divided-difference representation check")
    _add_operator_args(p)
    _add_function_args(p)
    p.add_argument("--x", type=_finite_float, required=True)
    _add_output_args(p)

    p = sub.add_parser("stancu-bound", help="verbatim three-term bound for the shifted variant")
    _add_operator_args(p)
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--m", type=_finite_float, required=True)
    _add_output_args(p)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser every main call shares, built on the first call, not at import.

    Parsing keeps no state on it: each parse_args starts a fresh namespace.
    """
    return build_parser()


def _build_spec(args) -> OperatorSpec:
    params = PqParams(args.p, args.q)
    shift = None
    gamma = getattr(args, "gamma", None)
    beta = getattr(args, "beta", None)
    if gamma is not None or beta is not None:
        shift = StancuShift(gamma if gamma is not None else 0.0,
                            beta if beta is not None else 0.0)
    return OperatorSpec(args.n, params, shift)


def _resolve_function(args):
    if args.fn is not None:
        ast = parse_expression(args.fn)
        return as_function(ast), args.fn
    return registry_function(args.registry), f"registry:{args.registry}"


def _parse_schedule(text: str) -> HarmonicSchedule:
    scheme, _, rest = text.partition(":")
    if scheme != "harmonic":
        raise ValueError(f"unknown schedule scheme {scheme!r} (supported: harmonic:A,B)")
    parts = rest.split(",")
    if len(parts) != 2:
        raise ValueError(f"schedule {text!r} needs exactly two parameters, harmonic:A,B")
    return HarmonicSchedule(float(parts[0]), float(parts[1]))


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad integer list {text!r}") from None
    if not values:
        raise ValueError("empty degree list")
    return values


def _cmd_eval(args) -> str:
    spec = _build_spec(args)
    f, fname = _resolve_function(args)
    value = evaluate(spec, f, args.x)
    if args.format is None:
        return _fmt(value) + "\n"
    gamma = spec.stancu.gamma if spec.stancu else None
    beta = spec.stancu.beta if spec.stancu else None
    header = ["n", "p", "q", "gamma", "beta", "fn", "x", "value"]
    rows = [[args.n, args.p, args.q, gamma, beta, fname, args.x, value]]
    return _emit(args, header, rows, fn=fname, gamma=gamma, beta=beta)


def _cmd_moments(args) -> str:
    spec = _build_spec(args)
    closed = moment_closed(spec, args.nu, args.x)

    def metric_power(t: float) -> float:
        return (t / (1.0 + t)) ** args.nu

    brute = evaluate(spec, metric_power, args.x)
    header = ["n", "p", "q", "nu", "x", "closed", "brute_force", "abs_diff"]
    rows = [[args.n, args.p, args.q, args.nu, args.x, closed, brute, abs(closed - brute)]]
    return _emit(args, header, rows)


def _cmd_converge(args) -> str:
    schedule = _parse_schedule(args.schedule)
    n_list = _parse_int_list(args.n_list)
    grid = GridSpec.default(args.x_max, args.points)
    report = convergence_report(schedule, n_list, grid)
    header = ["n", "p", "q", "nu", "discrepancy", "sup_delta"]
    rows = []
    for row in report.rows:
        disc = (row.disc0, row.disc1, row.disc2)[args.nu]
        rows.append([row.n, row.p, row.q, args.nu, disc, row.sup_delta])
    return _emit(args, header, rows, n_list=n_list)


def _cmd_rate(args) -> str:
    schedule = _parse_schedule(args.schedule)
    spec = OperatorSpec(args.n, schedule.params_for(args.n))
    f, fname = _resolve_function(args)
    points = rate_bound_check(spec, f, GridSpec.default())
    header = ["x", "lhs", "rhs", "pass"]
    rows = [[pt.x, pt.lhs, pt.rhs, pt.passed] for pt in points]
    return _emit(args, header, rows, fn=fname)


def _cmd_represent(args) -> str:
    spec = _build_spec(args)
    f, fname = _resolve_function(args)
    lhs, rhs = _representation(spec, f, args.x)
    header = ["n", "p", "q", "fn", "x", "lhs", "rhs", "abs_diff"]
    rows = [[args.n, args.p, args.q, fname, args.x, lhs, rhs, abs(lhs - rhs)]]
    return _emit(args, header, rows, fn=fname)


def _cmd_stancu_bound(args) -> str:
    spec = _build_spec(args)
    report = stancu_bound_report(spec, args.m, args.alpha)
    header = ["n", "p", "q", "gamma", "beta", "alpha", "m",
              "term1", "term2", "term3", "max_term", "bound", "degenerate"]
    t1, t2, t3 = report.terms
    rows = [[args.n, args.p, args.q, args.gamma, args.beta, args.alpha, args.m,
             t1, t2, t3, report.max_term, report.bound, report.degenerate]]
    return _emit(args, header, rows)


_COMMANDS = {
    "eval": _cmd_eval,
    "moments": _cmd_moments,
    "converge": _cmd_converge,
    "rate": _cmd_rate,
    "represent": _cmd_represent,
    "stancu-bound": _cmd_stancu_bound,
}


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        text = _COMMANDS[args.command](args)
    except (DomainError, ArithmeticError) as exc:
        print(f"pqbbh: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, TypeError) as exc:
        print(f"pqbbh: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # raised without a message of its own
        print("pqbbh: not enough memory: the degree or grid is too large", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write(args.output, text)
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. head); keep the
        # interpreter from complaining about the unflushable stdout
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return EXIT_IO
    except OSError as exc:
        print(f"pqbbh: cannot write {args.output!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
