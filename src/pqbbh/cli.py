"""Command line front end.

Evaluates operators, tabulates convergence experiments and emits
deterministic CSV or JSON (see README for the column schemas).  Exit codes:
0 success, 2 usage error, 3 numeric domain error, 4 I/O error.
"""

from __future__ import annotations

import functools
import io
import math
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .functions import registry_function
from .operators import OperatorSpec, StancuShift, _representation, evaluate
from .pq_core import DomainError, PqParams

if TYPE_CHECKING:
    import argparse

    from .analysis import HarmonicSchedule

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
    return f"{v + 0.0:.12g}"  # + 0.0 prints -0.0 as 0


def _float_texts(values) -> list[str]:
    """[_fmt(v) for v in values] for finite floats; the f-string must stay _fmt's."""
    return [f"{v + 0.0:.12g}" for v in values]


def _json_numbers(texts: list[str]) -> list[str]:
    """json.dumps(float(t)) for each text t of _float_texts, mostly without a float.

    A .12g text of a normal double has at most 12 significant digits, so it
    is the one decimal of at most 15 digits that rounds to its double, and
    float.__repr__, which json uses, prints the same digits.  Only the
    layout can differ: an integral text needs ".0"; .12g goes scientific
    from 1e12, repr only from 1e16; and repr shortens a subnormal.  So a
    text whose exponent starts e+1 (e+12..e+15) or e-3 (every subnormal)
    goes through repr, as a few others that need not do.
    """
    return [repr(float(t)) if "e+1" in t or "e-3" in t
            else t if "." in t or "e" in t else t + ".0"
            for t in texts]


def _json_cell(value, column: str):
    if isinstance(value, (bool, int)) or value is None or isinstance(value, str):
        return value
    return float(_fmt(value, column))


def _meta(args, overrides: dict) -> dict:
    """JSON "meta": every flag in declaration order, --fn/--registry as "fn", then overrides."""
    meta = {k: v for k, v in vars(args).items() if k != "registry"}
    meta.update(overrides)
    return meta


def _emit(args, header: list[str], rows: list[list], **overrides) -> str:
    """The table as the command prints it, through _fmt and csv or _json_cell and json.

    Cells go in row order, so a refusal names the first bad cell in row order.
    """
    if args.format == "json":
        cells = [[_json_cell(c, name) for c, name in zip(row, header)] for row in rows]
        return _module("json").dumps({"meta": _meta(args, overrides), "rows": cells}) + "\n"
    buf = io.StringIO()
    writer = _module("csv").writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(c, name) for c, name in zip(row, header)] for row in rows)
    return buf.getvalue()


def _column_texts(values: Sequence, json_out: bool) -> list[str] | None:
    """The printed text of each cell of a column of finite floats, bools or ints, else None."""
    types = set(map(type, values))
    if types == {float}:
        if not all(map(math.isfinite, values)):
            return None
        texts = _float_texts(values)
        return _json_numbers(texts) if json_out else texts
    if types == {bool}:  # as _fmt gives them, and json
        return [("false", "true")[v] for v in values]
    if types == {int}:
        return list(map(str, values))
    return None  # an empty column too


def _emit_columns(args, header: list[str], columns: list[Sequence], **overrides) -> str:
    """_emit of the rows these columns hold, one column per header name.

    Where _column_texts reads every column, the rows are joined from those
    texts; csv would quote none of them, and the header is plain names.
    Otherwise the rows go to _emit, so a refusal names the first bad cell
    in row order.
    """
    json_out = args.format == "json"
    texts = [_column_texts(col, json_out) for col in columns]
    if None in texts:
        return _emit(args, header, list(zip(*columns)), **overrides)
    if json_out:
        rows = "], [".join(map(", ".join, zip(*texts)))
        return f'{{"meta": {_module("json").dumps(_meta(args, overrides))}, "rows": [[{rows}]]}}\n'
    return "\n".join([",".join(header), *map(",".join, zip(*texts)), ""])


def _finite_float(text: str) -> float:
    """Type of every float flag: inf and nan are usage errors, like malformed numbers.

    argparse is imported only here, to refuse, and in build_parser: a
    well-formed command line never loads it.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        import argparse

        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Flag(NamedTuple):
    """One flag of a subcommand, as build_parser declares it and _table_args reads it."""

    name: str
    type: Callable[[str], object] | None = None
    choices: tuple | None = None
    default: object = None
    required: bool = False
    group: str | None = None  # a required exclusive group: exactly one of its flags is given
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


_OPERATOR_FLAGS = (
    _Flag("--n", int, required=True),
    _Flag("--p", _finite_float, required=True),
    _Flag("--q", _finite_float, required=True),
)
_FUNCTION_FLAGS = (
    _Flag("--fn", group="function", help="expression in t, e.g. 't/(1+t)'"),
    _Flag("--registry", group="function", help="named test function"),
)
_NU = _Flag("--nu", int, choices=(0, 1, 2), required=True)
_X = _Flag("--x", _finite_float, required=True)
_SCHEDULE = _Flag("--schedule", required=True, help="harmonic:A,B")


def _output_flags(format_default: str | None = "csv") -> tuple[_Flag, ...]:
    return (_Flag("--format", choices=("csv", "json"), default=format_default),
            _Flag("--output", default="-", help="output path, '-' for stdout"))


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line on every call, built from _SUBCOMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pqbbh",
        description="Two-parameter Bleimann-Butzer-Hahn operators and convergence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        groups = {}
        for flag in flags:
            target = p
            if flag.group is not None:
                if flag.group not in groups:
                    groups[flag.group] = p.add_mutually_exclusive_group(required=True)
                target = groups[flag.group]
            target.add_argument(flag.name, type=flag.type, choices=flag.choices,
                                default=flag.default, required=flag.required, help=flag.help)
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser every main call shares, built on the first call, not at import.

    Parsing keeps no state on it: each parse_args starts a fresh namespace.
    """
    return build_parser()


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv) for a well-formed argv, read from the flag table.

    Accepts only a known subcommand followed by exact ``--flag value``
    pairs: no flag twice, no value starting with "-", each value converted
    by the flag's type and within its choices, every required flag given
    and exactly one flag of each group.  The namespace then has "command"
    first and every flag's dest in declaration order: argparse's vars(),
    without importing argparse.  Anything else (-h, abbreviations,
    --flag=value, a negative value, a usage error) gives None, for
    argparse to parse or refuse.
    """
    flags = _FLAG_TABLE.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    texts = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(texts) != len(argv) - 1 or not texts.keys() <= flags.keys():
        return None  # a flag given twice, or a word that is not a flag of the subcommand
    args = SimpleNamespace(command=argv[0])
    given_in_group: dict[str, int] = {}
    for name, flag in flags.items():
        text = texts.get(name)
        if flag.group is not None:
            given_in_group[flag.group] = given_in_group.get(flag.group, 0) + (text is not None)
        if text is None:
            if flag.required:
                return None
            value = flag.default
        elif text.startswith("-"):
            return None
        else:
            value = text
            if flag.type is not None:
                try:
                    value = flag.type(text)
                # ValueError, or _finite_float's ArgumentTypeError, which cannot be
                # named without importing argparse; argparse converts the text again
                except Exception:
                    return None
            if flag.choices is not None and value not in flag.choices:
                return None
        setattr(args, flag.dest, value)
    if any(count != 1 for count in given_in_group.values()):
        return None
    return args


def _parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The namespace of argv: from the flag table where it reads argv, else from argparse.

    argparse prints --help and every usage error, and exits.
    """
    args = _table_args(argv)
    return args if args is not None else _main_parser().parse_args(argv)


@functools.cache
def _module(name: str):
    """Module ``name`` (relative to pqbbh if it starts with "."), imported on its first call.

    Every command loads cli, operators, pq_core, _record and functions;
    ".analysis", ".expressions", "json" and "csv" come through here, so a
    command loads only those it uses: eval and represent never load
    analysis, and a bare --registry query none of the four.  Callers read
    each function from the module on every call, so a wrapper set on the
    module is what they call.  A function-level ``from .analysis import
    ...`` would do the same, but costs about 1.7 µs a call against 0.05 µs
    here (Python 3.11, 2-vCPU host).
    """
    return import_module(name, __package__)


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
        expressions = _module(".expressions")
        return expressions.as_function(expressions.parse_expression(args.fn)), args.fn
    return registry_function(args.registry), f"registry:{args.registry}"


def _parse_schedule(text: str) -> HarmonicSchedule:
    scheme, _, rest = text.partition(":")
    if scheme != "harmonic":
        raise ValueError(f"unknown schedule scheme {scheme!r} (supported: harmonic:A,B)")
    parts = rest.split(",")
    if len(parts) != 2:
        raise ValueError(f"schedule {text!r} needs exactly two parameters, harmonic:A,B")
    return _module(".analysis").HarmonicSchedule(float(parts[0]), float(parts[1]))


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


def _metric_power(nu: int) -> Callable:
    """t -> (t/(1+t))^nu, the moment's test function, and its own ``at_points``.

    It takes a float, or a float64 array for its value at every point with
    the same bits, as the registry functions do: the C library's pow at
    each point, as u ** nu takes it, through np.float_power, since numpy's
    power (and u*u) need not round as pow does.  A division by zero raises
    on an array, where pow(-inf, 0) = 1.0 would hide it, so the list names it.
    """

    def metric_power(t):
        if not hasattr(t, "ndim"):
            return (t / (1.0 + t)) ** nu
        import numpy as np

        with np.errstate(divide="raise"):
            return np.float_power(t / (1.0 + t), float(nu))

    metric_power.at_points = metric_power
    return metric_power


def _cmd_moments(args) -> str:
    spec = _build_spec(args)
    nu = args.nu
    closed = _module(".analysis").moment_closed(spec, nu, args.x)
    brute = evaluate(spec, _metric_power(nu), args.x)
    header = ["n", "p", "q", "nu", "x", "closed", "brute_force", "abs_diff"]
    rows = [[args.n, args.p, args.q, nu, args.x, closed, brute, abs(closed - brute)]]
    return _emit(args, header, rows)


def _cmd_converge(args) -> str:
    analysis = _module(".analysis")
    schedule = _parse_schedule(args.schedule)
    n_list = _parse_int_list(args.n_list)
    grid = analysis.GridSpec.default(args.x_max, args.points)
    report = analysis.convergence_report(schedule, n_list, grid)
    header = ["n", "p", "q", "nu", "discrepancy", "sup_delta"]
    rows = [[r.n, r.p, r.q, args.nu, (r.disc0, r.disc1, r.disc2)[args.nu], r.sup_delta]
            for r in report.rows]  # one or more: n_list is never empty
    return _emit_columns(args, header, list(zip(*rows)), n_list=n_list)


def _cmd_rate(args) -> str:
    analysis = _module(".analysis")
    schedule = _parse_schedule(args.schedule)
    spec = OperatorSpec(args.n, schedule.params_for(args.n))
    f, fname = _resolve_function(args)
    columns = analysis._rate_columns(spec, f, analysis.GridSpec.default())
    return _emit_columns(args, ["x", "lhs", "rhs", "pass"], columns, fn=fname)


def _cmd_represent(args) -> str:
    spec = _build_spec(args)
    f, fname = _resolve_function(args)
    lhs, rhs = _representation(spec, f, args.x)
    header = ["n", "p", "q", "fn", "x", "lhs", "rhs", "abs_diff"]
    rows = [[args.n, args.p, args.q, fname, args.x, lhs, rhs, abs(lhs - rhs)]]
    return _emit(args, header, rows, fn=fname)


def _cmd_stancu_bound(args) -> str:
    spec = _build_spec(args)
    report = _module(".analysis").stancu_bound_report(spec, args.m, args.alpha)
    header = ["n", "p", "q", "gamma", "beta", "alpha", "m",
              "term1", "term2", "term3", "max_term", "bound", "degenerate"]
    t1, t2, t3 = report.terms
    rows = [[args.n, args.p, args.q, args.gamma, args.beta, args.alpha, args.m,
             t1, t2, t3, report.max_term, report.bound, report.degenerate]]
    return _emit(args, header, rows)


# Every subcommand's help, flags and handler, declared once.  The flags'
# order is their order in --help and in the JSON "meta" echo.
_SUBCOMMANDS: dict[str, tuple[str, tuple[_Flag, ...], Callable[..., str]]] = {
    "eval": ("evaluate the operator at a point", (
        *_OPERATOR_FLAGS,
        _Flag("--gamma", _finite_float),
        _Flag("--beta", _finite_float),
        *_FUNCTION_FLAGS,
        _X,
        *_output_flags(format_default=None),  # bare value unless a format is requested
    ), _cmd_eval),
    "moments": ("closed-form and brute-force moments side by side", (
        *_OPERATOR_FLAGS, _NU, _X, *_output_flags(),
    ), _cmd_moments),
    "converge": ("Korovkin discrepancies along a schedule", (
        _SCHEDULE,
        _Flag("--n-list", required=True, help="comma-separated degrees"),
        _NU,
        _Flag("--x-max", _finite_float, default=50.0),
        _Flag("--points", int, default=2001),
        *_output_flags(),
    ), _cmd_converge),
    "rate": ("per-point rate-bound check on the default grid", (
        _SCHEDULE, _Flag("--n", int, required=True), *_FUNCTION_FLAGS, *_output_flags(),
    ), _cmd_rate),
    "represent": ("divided-difference representation check", (
        *_OPERATOR_FLAGS, *_FUNCTION_FLAGS, _X, *_output_flags(),
    ), _cmd_represent),
    "stancu-bound": ("verbatim three-term bound for the shifted variant", (
        *_OPERATOR_FLAGS,
        *(_Flag(name, _finite_float, required=True)
          for name in ("--gamma", "--beta", "--alpha", "--m")),
        *_output_flags(),
    ), _cmd_stancu_bound),
}
# subcommand -> {flag name: flag}, in declaration order
_FLAG_TABLE = {command: {flag.name: flag for flag in flags}
               for command, (_, flags, _) in _SUBCOMMANDS.items()}


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
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        text = _SUBCOMMANDS[args.command][2](args)
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
