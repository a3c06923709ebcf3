"""Output checks for one CLI invocation.

An invocation fails when it exits non-zero or raises, when its CSV does not
follow the README schema, when its JSON does not parse (NaN and Infinity
rejected), when for the default seed its stdout differs from the recorded
reference, or when an n = 8 base-variant value disagrees with the
brute-force oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from workloads import Invocation

# Column schemas from the README's CSV table.
SCHEMAS = {
    "eval": ("n", "p", "q", "gamma", "beta", "fn", "x", "value"),
    "moments": ("n", "p", "q", "nu", "x", "closed", "brute_force", "abs_diff"),
    "converge": ("n", "p", "q", "nu", "discrepancy", "sup_delta"),
    "rate": ("x", "lhs", "rhs", "pass"),
    "represent": ("n", "p", "q", "fn", "x", "lhs", "rhs", "abs_diff"),
    "stancu-bound": ("n", "p", "q", "gamma", "beta", "alpha", "m",
                     "term1", "term2", "term3", "max_term", "bound", "degenerate"),
}
_TEXT_COLUMNS = {"fn"}
_BOOL_COLUMNS = {"pass", "degenerate"}
_OPTIONAL_COLUMNS = {"gamma", "beta"}  # blank for the base eval variant

# Printed values carry 12 significant digits; the oracles sum in another
# order.  Values checked are bounded by about 1, so this is absolute.
ORACLE_TOL = 1e-9


class CheckFailure(Exception):
    """The output of one invocation is wrong; the message says how."""


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _reject_constant(name: str):
    raise CheckFailure(f"JSON holds non-finite constant {name}")


def _cell_value(column: str, cell):
    """Validate one cell and return it as a float, bool, str or None."""
    if column in _TEXT_COLUMNS:
        if not isinstance(cell, str) or not cell:
            raise CheckFailure(f"column {column}: expected text, got {cell!r}")
        return cell
    if column in _BOOL_COLUMNS:
        if cell not in ("true", "false", True, False):
            raise CheckFailure(f"column {column}: expected true/false, got {cell!r}")
        return cell in ("true", True)
    if column in _OPTIONAL_COLUMNS and cell in ("", None):
        return None
    if isinstance(cell, bool) or cell is None or cell == "":
        raise CheckFailure(f"column {column}: expected a number, got {cell!r}")
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise CheckFailure(f"column {column}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise CheckFailure(f"column {column}: non-finite {cell!r}")
    return value


def parse_rows(inv: Invocation, stdout: str) -> list[dict]:
    """Schema-check the output and return its rows as dicts of checked values."""
    if not stdout.endswith("\n") or "\r" in stdout:
        raise CheckFailure("output must end in LF and hold no CR")
    schema = SCHEMAS[inv.command]
    if inv.fmt is None:
        lines = stdout.split("\n")
        if len(lines) != 2:
            raise CheckFailure(f"bare output must be one line, got {len(lines) - 1}")
        return [{"value": _cell_value("value", lines[0])}]
    if inv.fmt == "json":
        try:
            payload = json.loads(stdout, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise CheckFailure(f"invalid JSON: {exc}") from None
        if not isinstance(payload, dict) or set(payload) != {"meta", "rows"}:
            raise CheckFailure("JSON must be an object with keys meta and rows")
        meta, raw_rows = payload["meta"], payload["rows"]
        if not isinstance(meta, dict) or meta.get("command") != inv.command:
            raise CheckFailure(f"meta {meta!r} does not name the command {inv.command!r}")
        if not isinstance(raw_rows, list):
            raise CheckFailure("JSON rows must be an array")
    else:
        reader = csv.reader(io.StringIO(stdout, newline=""))
        header = next(reader, None)
        if header is None or tuple(header) != schema:
            raise CheckFailure(f"CSV header {header!r} differs from the schema")
        raw_rows = list(reader)
    if len(raw_rows) != inv.expected_rows:
        raise CheckFailure(f"expected {inv.expected_rows} rows, got {len(raw_rows)}")
    rows = []
    for raw in raw_rows:
        if not isinstance(raw, list) or len(raw) != len(schema):
            raise CheckFailure(f"row {raw!r} does not have {len(schema)} columns")
        rows.append({col: _cell_value(col, cell) for col, cell in zip(schema, raw)})
    return rows


def _near(label: str, got: float, want: float) -> None:
    if not abs(got - want) <= ORACLE_TOL * max(1.0, abs(want)):
        raise CheckFailure(f"{label} = {got!r} disagrees with the oracle {want!r}")


def check_oracle(inv: Invocation, row: dict, oracles) -> None:
    """Compare an n = 8 base-variant value with the independent brute-force sums."""
    o = inv.oracle
    f, n, p, q, x = o["f"], o["n"], o["p"], o["q"], o["x"]
    want = oracles.brute_operator(f, n, p, q, x)
    if inv.command == "eval":
        _near("value", row["value"], want)
        if p == q == 1.0:
            _near("value", row["value"], oracles.classical_bbh_evaluate(f, n, x))
    elif inv.command == "moments":
        _near("closed", row["closed"], want)
        _near("brute_force", row["brute_force"], want)
    elif inv.command == "represent":
        _near("lhs", row["lhs"], want - f(p * x / q))


def check(inv: Invocation, code: int, stdout: str, stderr: str,
          reference: str | None, oracles) -> None:
    """Raise CheckFailure if the invocation's result is wrong in any checked way."""
    if code != 0:
        raise CheckFailure(f"exit code {code}: {stderr.strip()[:200]}")
    if "Traceback" in stderr:
        raise CheckFailure("traceback on stderr")
    rows = parse_rows(inv, stdout)
    if reference is not None and digest(stdout) != reference:
        raise CheckFailure("stdout differs from the reference for the default seed")
    if inv.oracle:
        check_oracle(inv, rows[0], oracles)
