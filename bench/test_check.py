import json
import math
import os

import pytest

import run
from check import CheckFailure, check
from child import load_oracles
from workloads import Invocation

ORACLES = load_oracles(os.path.dirname(run.BENCH_DIR))
EVAL_CSV = Invocation(("eval",), "eval", "csv", 1, 1)
EVAL_JSON = Invocation(("eval",), "eval", "json", 1, 1)


def test_well_formed_csv_passes():
    check(EVAL_CSV, 0, "n,p,q,gamma,beta,fn,x,value\n2,1,1,,,t,1,0.5\n", "", None, ORACLES)


@pytest.mark.parametrize("code, stdout, stderr", [
    (3, "", "pqbbh: domain error\n"),
    (0, "n,p,q,fn,x,value\n2,1,1,t,1,0.5\n", ""),
    (0, "n,p,q,gamma,beta,fn,x,value\n2,1,1,,,t,1,nan\n", ""),
    (0, "n,p,q,gamma,beta,fn,x,value\r\n2,1,1,,,t,1,0.5\r\n", ""),
    (None, "", "Traceback (most recent call last):\n"),
])
def test_bad_csv_results_fail(code, stdout, stderr):
    with pytest.raises(CheckFailure):
        check(EVAL_CSV, code, stdout, stderr, None, ORACLES)


def test_json_rejects_non_finite_constants():
    payload = '{"meta": {"command": "eval"}, "rows": [[2, 1.0, 1.0, null, null, "t", 1.0, NaN]]}\n'
    with pytest.raises(CheckFailure):
        check(EVAL_JSON, 0, payload, "", None, ORACLES)


def test_reference_mismatch_fails():
    stdout = "n,p,q,gamma,beta,fn,x,value\n2,1,1,,,t,1,0.5\n"
    with pytest.raises(CheckFailure):
        check(EVAL_CSV, 0, stdout, "", "0" * 64, ORACLES)


def test_oracle_disagreement_fails():
    f = math.exp
    want = ORACLES.brute_operator(f, 8, 0.9, 0.5, 2.0)
    inv = Invocation(("eval",), "eval", None, 1, 1,
                     oracle={"f": f, "n": 8, "p": 0.9, "q": 0.5, "x": 2.0})
    check(inv, 0, f"{want:.12g}\n", "", None, ORACLES)
    with pytest.raises(CheckFailure):
        check(inv, 0, f"{want * (1 + 1e-6):.12g}\n", "", None, ORACLES)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    # converge_closed runs by name but is not gated (see run.py)
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "converge_closed"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
