import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqbbh.cli
from pqbbh.cli import build_parser, main
from pqbbh.functions import registry_function
from pqbbh.operators import EvaluationError, OperatorSpec, _sample, evaluate
from pqbbh.pq_core import DomainError, PqParams
from oracles import mp_closed_moment, mp_rate_lhs

GOLDEN_EVAL = "0.333333333333\n"

GOLDEN_CONVERGE = (
    "n,p,q,nu,discrepancy,sup_delta\n"
    "16,0.984375,0.96875,1,0.0505855693171,0.0147984530528\n"
    "64,0.99609375,0.9921875,1,0.0132647833279,0.00387647978977\n"
    "256,0.9990234375,0.998046875,1,0.00335704911674,0.000981259143397\n"
)

GOLDEN_EVAL_JSON = (
    '{"meta": {"command": "eval", "n": 2, "p": 1.0, "q": 1.0, "gamma": null, '
    '"beta": null, "fn": "t/(1+t)", "x": 1.0, "format": "json", "output": "-"}, '
    '"rows": [[2, 1.0, 1.0, null, null, "t/(1+t)", 1.0, 0.333333333333]]}\n'
)

GOLDEN_STANCU = (
    "n,p,q,gamma,beta,alpha,m,term1,term2,term3,max_term,bound,degenerate\n"
    "2,1,1,1,0,1,1,0.25,0.166666666667,-0.111111111111,0.25,0.75,false\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a child interpreter."""
    src = str(pathlib.Path(pqbbh.cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestGoldenOutputs:
    def test_eval_documented_invocation(self, capsys):
        code, out, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t/(1+t)", "--x", "1"],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_EVAL
        assert err == ""

    def test_converge_documented_invocation(self, capsys):
        code, out, err = run(
            ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "16,64,256",
             "--nu", "1", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_CONVERGE
        # strictly decreasing discrepancy column
        rows = list(csv.DictReader(io.StringIO(out)))
        discs = [float(r["discrepancy"]) for r in rows]
        assert discs[0] > discs[1] > discs[2]

    def test_eval_degree_zero_is_usage_error(self, capsys):
        code, out, err = run(
            ["eval", "--n", "0", "--p", "1", "--q", "1", "--fn", "t", "--x", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err != ""

    def test_eval_json(self, capsys):
        code, out, _ = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t/(1+t)", "--x", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_EVAL_JSON

    def test_stancu_bound_golden(self, capsys):
        code, out, _ = run(
            ["stancu-bound", "--n", "2", "--p", "1", "--q", "1", "--gamma", "1",
             "--beta", "0", "--alpha", "1", "--m", "1"],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_STANCU

    def test_byte_identical_across_runs(self, capsys):
        argv = ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "8,32",
                "--nu", "2", "--format", "json"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second


# sha256 of stdout, recorded once; never re-record these to absorb a change.
STDOUT_DIGESTS = [
    ("rate --schedule harmonic:0.25,0.5 --n 64 --registry sin_damped",
     "644481cb37bec9501196d407b40e783fefc9459e9351ed4f17ecf0c8e9101fab"),
    ("rate --schedule harmonic:0.3,0.7 --n 256 --fn exp(-t) --format json",
     "5f78ac6ec9c2e4b4bb0168a011627c76667fdf3fcbbb609179bdec2f714f66ea"),
    ("moments --n 40 --p 0.9 --q 0.6 --nu 2 --x 3.5",
     "533d07f82d5e2e0867ac316ba545296b30ac36525c9a89f07cb24e4bfb983126"),
    ("represent --n 8 --p 0.8 --q 0.55 --registry exp_neg --x 1.7",
     "dce329ab76f000355d18de19e9c9454e6ef7b88b4be1cc615b2ec999ccd0965e"),
    ("eval --n 12 --p 0.95 --q 0.7 --gamma 0.5 --beta 1.5 --fn t/(1+t) --x 2.5 --format csv",
     "09aca2e89a02c21c9ad4fe63982cf5288227f71ee2418df564f6fefaf78fad4f"),
    ("converge --schedule harmonic:0.25,0.5 --n-list 16,64,256,1024 --nu 2",
     "a32c29d35c1f1b582e0b2ea432395e324d96783cd50a3d8fede445f7d3e9caf7"),
    # JSON "meta" echoes: eval takes gamma/beta from the spec (beta reads 0.0),
    # converge echoes the parsed degree list
    ("eval --n 12 --p 0.95 --q 0.7 --gamma 0.5 --registry exp_neg --x 2.5 --format json",
     "3fd9c0dab3dc18753011779756153006f517d5b4c6dd7f69595347673cd80f88"),
    ("moments --n 40 --p 0.9 --q 0.6 --nu 1 --x 3.5 --format json",
     "a42838223bec4c158309c49cfafa87c94473eed3101b670be7692d47d1cd9d18"),
    ("converge --schedule harmonic:0.25,0.5 --n-list 16,,64 --nu 1 --points 101 --format json",
     "339bb4e1ca7db421d2a9f1de9208edc1a0c4a5117b84f501e66437caf69f82ba"),
    ("represent --n 8 --p 0.8 --q 0.55 --registry exp_neg --x 1.7 --format json",
     "7e3e9089c23e4c6a7595baa690fa987f17598881346978604fad7c0914121899"),
    ("stancu-bound --n 10 --p 0.9 --q 0.7 --gamma 0.5 --beta 1.0 --alpha 0.5 --m 2.0 "
     "--format json",
     "77feedf4dcc86b7458358e2c9f9238095b3e1f847176c9786644300fbce0bf46"),
    # the grid's points from x = 2.375 up rescale five times or more (16 times
    # at x = 50), so their weight rows hold rows that end at exactly 0.0
    ("rate --schedule harmonic:0.25,0.5 --n 1024 --registry sin_damped --format json",
     "ac0f2a156baa5ef9e4740babcf6a875f2ac67ca99a213262975831a6c62929bb"),
]


@pytest.mark.parametrize(
    "argv,digest",
    STDOUT_DIGESTS,
    ids=["rate_csv", "rate_json", "moments", "represent", "eval_stancu", "converge_nu2",
         "eval_json", "moments_json", "converge_json", "represent_json", "stancu_bound_json",
         "rate_n1024_json"],
)
def test_stdout_digest(argv, digest, capsys):
    code, out, err = run(argv.split(), capsys)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_represent_samples_each_point_once(capsys, monkeypatch):
    calls = []

    def counting(name):
        f = registry_function(name)
        return lambda t: calls.append(t) or f(t)

    monkeypatch.setattr(pqbbh.cli, "registry_function", counting)
    argv, digest = STDOUT_DIGESTS[3]
    code, out, _ = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert len(calls) == len(set(calls)) == 10  # the pivot and the 9 nodes


def test_rate_keeps_stderr_empty(capsys):
    # the grid reaches x = 50, where each row's cumprod overflows past a rescale
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(
            ["rate", "--schedule", "harmonic:0.25,0.5", "--n", "1024", "--registry",
             "sin_damped", "--format", "json"],
            capsys,
        )
    assert code == 0
    assert err == ""
    assert [str(w.message) for w in caught] == []  # outside pytest these go to stderr


class TestSchemas:
    def test_moments_columns(self, capsys):
        code, out, _ = run(
            ["moments", "--n", "3", "--p", "0.9", "--q", "0.6", "--nu", "2", "--x", "1.5"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "p", "q", "nu", "x", "closed", "brute_force", "abs_diff"]
        assert len(rows) == 2
        assert float(rows[1][7]) < 1e-12

    def test_moments_refuses_x_first(self, capsys):
        code, out, err = run(
            ["moments", "--n", "1110", "--p", "0.518", "--q", "0.513", "--nu", "1", "--x",
             "-21.9"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert "x must be finite and >= 0, got -21.9" in err

    @pytest.mark.parametrize("nu", ["0", "1"], ids=["drift", "underflow_before_drift"])
    def test_moments_at_the_ratio(self, nu, capsys):
        # exited 3 before: [n+1]^1 = 8.3e-316 underflowed, and the brute-force
        # sum's normalizer drifted; both sides are now taken at (1, q/p)
        code, out, err = run(
            ["moments", "--n", "1110", "--p", "0.518", "--q", "0.513", "--nu", nu, "--x", "21.9"],
            capsys,
        )
        assert (code, err) == (0, "")
        row = list(csv.reader(io.StringIO(out)))[1]
        want = 1.0 if nu == "0" else mp_closed_moment(1, 1110, 0.518, 0.513, 21.9)
        assert float(row[5]) == pytest.approx(want, rel=1e-11)
        assert float(row[6]) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [8, 64, 65, 150, 1024])
    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_moments_brute_force_keeps_the_float_bits(self, nu, n, capsys):
        # the array form above the scalar degree, and the float form up to it,
        # give the bits of the plain (t/(1+t))**nu at every node
        spec = OperatorSpec(n, PqParams(1.0 - 0.25 / n, 1.0 - 0.5 / n))
        plain = evaluate(spec, lambda t: (t / (1.0 + t)) ** nu, 0.7)
        assert float.hex(evaluate(spec, pqbbh.cli._metric_power(nu), 0.7)) == float.hex(plain)
        code, out, _ = run(["moments", "--n", str(n), "--p", repr(spec.params.p),
                            "--q", repr(spec.params.q), "--nu", str(nu), "--x", "0.7"], capsys)
        assert code == 0 and out.splitlines()[1].split(",")[6] == pqbbh.cli._fmt(plain)

    def test_moment_power_array_form(self):
        np = pytest.importorskip("numpy")
        power = pqbbh.cli._metric_power(0)  # pow(-inf, 0) is 1.0: the array must not hide t = -1
        ts = np.array([0.5, -1.0, 2.0])
        assert power.at_points is power
        with pytest.raises(FloatingPointError):
            power(ts)
        with pytest.raises(EvaluationError, match=r"^function raised ZeroDivisionError .* "
                                                  r"at node 1 \(t=-1\.0\)$"):
            _sample(power, ts, "node")
        # at 9.707462555075702, glibc's pow(u, 2.0) is one ulp below u*u, which numpy's power gives
        ts = (0.0, 0.5, 3.0, 9.707462555075702, 1e300)
        values = pqbbh.cli._metric_power(2)(np.array(ts))
        assert values.tolist() == [(t / (1.0 + t)) ** 2 for t in ts]

    def test_rate_columns_and_passes(self, capsys):
        code, out, _ = run(
            ["rate", "--schedule", "harmonic:0.25,0.5", "--n", "8",
             "--registry", "bbh_metric"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "lhs", "rhs", "pass"]
        assert len(rows) == 2002  # header + default grid
        assert all(r[3] == "true" for r in rows[1:])

    def test_represent_columns(self, capsys):
        code, out, _ = run(
            ["represent", "--n", "3", "--p", "0.9", "--q", "0.6",
             "--fn", "exp(-t)", "--x", "2"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "p", "q", "fn", "x", "lhs", "rhs", "abs_diff"]
        assert float(rows[1][7]) < 1e-10

    def test_eval_csv_echoes_inputs(self, capsys):
        code, out, _ = run(
            ["eval", "--n", "2", "--p", "0.9", "--q", "0.5", "--gamma", "0.5",
             "--beta", "1", "--registry", "exp_neg", "--x", "2", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "p", "q", "gamma", "beta", "fn", "x", "value"]
        assert rows[1][:5] == ["2", "0.9", "0.5", "0.5", "1"]
        assert rows[1][5] == "registry:exp_neg"

    def test_eval_csv_leaves_the_base_shift_blank(self, capsys):
        code, out, _ = run(
            ["eval", "--n", "2", "--p", "0.9", "--q", "0.5", "--fn", "t", "--x", "1",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][:6] == ["2", "0.9", "0.5", "", "", "t"]

    def test_registry_matches_expression(self, capsys):
        _, via_registry, _ = run(
            ["eval", "--n", "4", "--p", "0.95", "--q", "0.8", "--registry", "bbh_metric",
             "--x", "2.5"],
            capsys,
        )
        _, via_expr, _ = run(
            ["eval", "--n", "4", "--p", "0.95", "--q", "0.8", "--fn", "t/(1+t)",
             "--x", "2.5"],
            capsys,
        )
        assert via_registry == via_expr


class TestExitCodes:
    def test_domain_error_is_three(self, capsys):
        code, _, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "log(t)", "--x", "1"],
            capsys,
        )
        assert code == 3
        assert "log" in err

    def test_representation_collision_is_three(self, capsys):
        code, _, err = run(
            ["represent", "--n", "1", "--p", "1", "--q", "1", "--fn", "t", "--x", "1"],
            capsys,
        )
        assert code == 3
        assert "node" in err

    def test_syntax_error_is_two(self, capsys):
        code, _, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "2**3", "--x", "1"],
            capsys,
        )
        assert code == 2
        assert "offset" in err

    def test_bad_schedule_order_is_two(self, capsys):
        code, _, _ = run(
            ["converge", "--schedule", "harmonic:0.5,0.25", "--n-list", "4", "--nu", "1"],
            capsys,
        )
        assert code == 2

    def test_unknown_scheme_is_two(self, capsys):
        code, _, _ = run(
            ["converge", "--schedule", "geometric:0.5", "--n-list", "4", "--nu", "1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["converge", "--schedule", "harmonic:0.25", "--n-list", "4", "--nu", "1"],
             "needs exactly two parameters"),
            (["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "a", "--nu", "1"],
             "bad integer list 'a'"),
            (["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", ",", "--nu", "1"],
             "empty degree list"),
            (["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "4", "--nu", "1",
              "--points", "1"], "need at least 2 grid points"),
            (["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "4", "--nu", "1",
              "--x-max", "0"], "x_max must be positive"),
            (["stancu-bound", "--n", "2", "--p", "1", "--q", "1", "--gamma", "1",
              "--beta", "0", "--alpha", "1", "--m", "0"], "M must be positive"),
        ],
        ids=["one_schedule_parameter", "n_list_not_integers", "n_list_empty",
             "one_grid_point", "x_max_zero", "m_zero"],
    )
    def test_bad_flag_value_is_two(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["moments", "--n", "3", "--p", "0.9", "--q", "0.5", "--nu", "1", "--x", "-1"],
             "x must be finite and >= 0, got -1.0"),
            (["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "1e308/1e-10", "--x", "1"],
             "non-finite result in '1e+308/1e-10'"),
        ],
        ids=["negative_moment_point", "overflowing_expression"],
    )
    def test_refused_value_is_three(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert message in err

    # Each request asks for far more memory than any machine has (80 GB and
    # more), so the allocation fails at once instead of filling memory.
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "10000000000", "--p", "1", "--q", "1", "--fn", "t", "--x", "1"],
            ["stancu-bound", "--n", "10000000000", "--p", "1", "--q", "1", "--gamma", "1",
             "--beta", "0", "--alpha", "1", "--m", "1"],
            ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "10000000000",
             "--nu", "1"],
            ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "4", "--nu", "1",
             "--points", "100000000000"],
        ],
        ids=["eval_degree", "stancu_bound_degree", "converge_degree", "converge_points"],
    )
    def test_request_too_large_for_memory_is_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "pqbbh: not enough memory: the degree or grid is too large\n"

    def test_unknown_registry_is_two(self, capsys):
        code, _, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--registry", "nope", "--x", "1"],
            capsys,
        )
        assert code == 2
        assert "unknown registry" in err

    def test_invalid_params_is_two(self, capsys):
        code, _, _ = run(
            ["eval", "--n", "2", "--p", "0.5", "--q", "0.9", "--fn", "t", "--x", "1"],
            capsys,
        )
        assert code == 2

    def test_infinite_float_flag_is_two(self, capsys):
        code, out, err = run(
            ["stancu-bound", "--n", "2", "--p", "1", "--q", "1", "--gamma", "1",
             "--beta", "0", "--alpha", "1", "--m", "inf", "--format", "json"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--m" in err

    def test_nan_float_flag_is_two(self, capsys):
        code, out, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--x", "nan"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--x" in err

    def test_literal_beyond_the_doubles_is_two(self, capsys):
        # was exit 3, "function returned inf at node 0", once f was sampled
        code, out, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "1e400", "--x", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "pqbbh: number '1e400' is out of range at offset 0\n"

    @pytest.mark.parametrize("fn,offset", [("1/1e-400", 2), ("1e-400+t", 0)])
    def test_literal_below_the_doubles_is_two(self, capsys, fn, offset):
        # was exit 3, "division by zero in '1.0/0.0'", and 0.75 for 1e-400+t
        code, out, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", fn, "--x", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"pqbbh: number '1e-400' is out of range at offset {offset}\n"

    def test_long_flat_sum_is_two(self, capsys):
        code, out, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "+".join(["t"] * 5000),
             "--x", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_underflowing_shifted_bound_is_three(self, capsys):
        # printed bound 6 (true: 6.45) before the check; the paper's terms
        # are (p,q) objects, so this one is not taken at (1, q/p)
        code, out, err = run(
            ["stancu-bound", "--n", "610", "--p", "0.541", "--q", "0.499", "--gamma", "0.5",
             "--beta", "0.5", "--alpha", "0.5", "--m", "1"], capsys
        )
        assert code == 3
        assert out == ""
        assert "[n+1]^2 = 5e-324 underflows" in err

    def test_underflowing_closed_form_is_taken_at_the_ratio(self, capsys):
        # printed closed 0 (true: 0.26) before, then exited 3 naming [n+1]^2 = 5e-324
        code, out, err = run(
            ["moments", "--n", "610", "--p", "0.541", "--q", "0.499", "--nu", "2", "--x", "1"],
            capsys,
        )
        assert (code, err) == (0, "")
        row = list(csv.reader(io.StringIO(out)))[1]
        want = mp_closed_moment(2, 610, 0.541, 0.499, 1.0)
        assert float(row[5]) == pytest.approx(want, rel=1e-11)
        assert float(row[6]) == pytest.approx(want, rel=1e-11)

    def test_overflowing_node_is_three(self, capsys):
        # the last node 1/q is beyond the doubles
        code, out, err = run(
            ["eval", "--n", "1", "--p", "1", "--q", "5e-324", "--registry", "sin_damped",
             "--x", "1"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "node 1 overflows" in err

    @pytest.mark.parametrize("argv, err", [
        (["eval", "--n", "200", "--p", "0.5", "--q", "0.01", "--registry", "one_", "--x", "1"],
         "pqbbh: node 182 overflows: its denominator r^182 [19] = "
         "6.12998216346357e-310 * 1.020408163265306 is 6.25508384026894e-310 "
         "(at r = q/p = 0.02 for p=0.5, q=0.01)\n"),
        (["represent", "--n", "200", "--p", "0.9", "--q", "0.01", "--registry", "one_",
          "--x", "1"],
         "pqbbh: node 158 overflows: its denominator r^158 [43] = "
         "1.69700651093677e-309 * 1.0112359550561798 is 1.716073999823704e-309 "
         "(at r = q/p = 0.011111111111111112 for p=0.9, q=0.01)\n"),
    ], ids=["eval", "represent"])
    def test_array_degree_node_refusal_shows_plain_floats(self, argv, err, capsys):
        # above operators._SCALAR_DEGREE the powers are arrays; the message reads them as floats.
        # q^201 is 0.0 in both, so the nodes are taken at (1, q/p); the refused
        # node is the first whose true value lies beyond the doubles
        assert run(argv, capsys) == (3, "", err)

    @pytest.mark.parametrize("fn, err", [
        (["--gamma", "-0.5", "--beta", "0", "--fn", "t^0.5"],
         "-0.005177177792390644 ^ 0.5 is undefined in 't^0.5' at t=-0.005177177792390644"),
        (["--fn", "(0*t)^-1"], "0.0 ^ -1.0 is undefined in '(0.0*t)^-1.0' at t=0.0"),
        (["--fn", "(t*1e200)^2"], "7.727649989519025e+197 ^ 2.0 is undefined in "
                                  "'(t*1e+200)^2.0' at t=0.007727649989519025"),
    ], ids=["negative-node", "zero-to-negative", "overflow"])
    def test_array_degree_power_refusal_is_the_lists(self, fn, err, capsys, monkeypatch):
        # at n = 150 ^ runs on the node array, whose numpy flag hands the nodes to the list
        argv = ["eval", "--n", "150", "--p", "0.998", "--q", "0.996", *fn, "--x", "1"]
        assert run(argv, capsys) == (3, "", f"pqbbh: {err}\n")
        monkeypatch.setattr(pqbbh.operators, "_SCALAR_DEGREE", 150)  # nodes as floats: the list
        assert run(argv, capsys) == (3, "", f"pqbbh: {err}\n")

    @pytest.mark.parametrize("n, err", [
        ("64", "node 3 (t=-1094.3874324480862)"),  # the scalar path
        ("200", "node 0 (t=-314981899.9897447)"),  # the array's values are not kept: the list
    ])
    def test_overflowing_function_names_its_node(self, n, err, capsys):
        # exited 3 with a bare "math range error" before
        argv = ["eval", "--n", n, "--p", "0.9", "--q", "0.5", "--gamma", "-0.5", "--beta", "0",
                "--registry", "exp_neg", "--x", "1"]
        assert run(argv, capsys) == (
            3, "", f"pqbbh: function raised OverflowError (math range error) at {err}\n")

    @pytest.mark.parametrize("name", ["exp_neg", "sin_damped"])
    def test_subnormal_ratio_denominator_is_taken_at_the_ratio(self, name, capsys):
        # exited 3 before: the normalizer drifted, as p^1109 [1] is subnormal
        code, out, err = run(
            ["eval", "--n", "1110", "--p", "0.518", "--q", "0.513", "--registry", name,
             "--x", "21.9"],
            capsys,
        )
        assert (code, err) == (0, "")
        f = registry_function(name)
        at_ratio = evaluate(OperatorSpec(1110, PqParams(1.0, 0.513 / 0.518)), f, 21.9)
        assert out == f"{at_ratio:.12g}\n"
        # q_bbh_evaluate's x^k overflows here, so the 60-digit |L f - f(x)| checks it
        want = mp_rate_lhs(1110, 0.518, 0.513, name, 21.9)
        assert abs(float(out) - f(21.9)) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n, p, want", [
        # exited 3 with "gap divisor [3][4] q^1 = 0.0 underflows", and with a
        # bare "float division by zero" before that check
        ("3", "1.0422776544377814e-100", "0.050524458446"),
        # exited 3 with "gap divisor [200][201] q^1 = 0.0 underflows", though
        # q^201 = 1e-201 is normal: the representation's own gate
        ("200", "0.1", "0.00250333318419"),
    ])
    def test_underflowing_gap_divisor_is_taken_at_the_ratio(self, n, p, want, capsys):
        x = "1293.2239477425098" if n == "3" else "0.7"
        argv = ["represent", "--n", n, "--p", p, "--q", p, "--registry", "exp_neg", "--x", x]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        _, row = csv.reader(io.StringIO(out))
        assert row[5:7] == [want, want]  # lhs and rhs
        code, out, err = run(argv[:4] + ["1", "--q", "1"] + argv[7:], capsys)
        assert list(csv.reader(io.StringIO(out)))[1][5:] == row[5:]  # as at p = q = 1

    @pytest.mark.parametrize("x", ["0", "-1"])
    def test_represent_needs_positive_x_before_calling_f(self, x, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(pqbbh.cli, "registry_function", lambda name: calls.append)
        code, out, err = run(
            ["represent", "--n", "8", "--p", "0.8", "--q", "0.55", "--registry", "exp_neg",
             "--x", x],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert f"requires x > 0, got {float(x)!r}" in err
        assert calls == []

    def test_missing_function_is_two(self, capsys):
        code, _, _ = run(["eval", "--n", "2", "--p", "1", "--q", "1", "--x", "1"], capsys)
        assert code == 2

    def test_both_function_sources_is_two(self, capsys):
        code, _, _ = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t",
             "--registry", "one_", "--x", "1"],
            capsys,
        )
        assert code == 2

    def test_unwritable_output_is_four(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run(
            ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--x", "1",
             "--output", str(target)],
            capsys,
        )
        assert code == 4
        assert "cannot write" in err

    def test_broken_stdout_pipe_is_four(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader, so the first write fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pqbbh.cli", "eval", "--n", "2", "--p", "1",
                 "--q", "1", "--fn", "t", "--x", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=src_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert proc.stderr == b""


class TestWithoutNumpy:
    """One-point commands at a degree on the scalar path never import numpy."""

    # a child interpreter in which ``import numpy`` raises ImportError
    BLOCKED = "import sys; sys.modules['numpy'] = None; "
    ONE_POINT = {
        "eval": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5", "--fn", "t/(1+t)",
                 "--x", "1.5"],
        "eval_registry": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5",
                          "--registry", "bbh_metric", "--x", "1.5"],
        "eval_registry_scalar_degree": ["eval", "--n", "64", "--p", "0.99", "--q", "0.95",
                                        "--registry", "bbh_metric", "--x", "1.5"],
        "eval_stancu": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5", "--gamma", "0.5",
                        "--beta", "0.25", "--registry", "exp_neg", "--x", "2",
                        "--format", "json"],
        "moments": ["moments", "--n", "8", "--p", "0.95", "--q", "0.7", "--nu", "2",
                    "--x", "3"],
        # the scalar degree: the moment power's array form stays off this path
        "moments_scalar_degree": ["moments", "--n", "64", "--p", "0.99", "--q", "0.95",
                                  "--nu", "2", "--x", "3"],
        "represent": ["represent", "--n", "8", "--p", "0.9", "--q", "0.6",
                      "--registry", "sin_damped", "--x", "0.7"],
        "represent_scalar_degree": ["represent", "--n", "64", "--p", "0.99", "--q", "0.95",
                                    "--registry", "sin_damped", "--x", "0.7"],
        "stancu_bound": ["stancu-bound", "--n", "1024", "--p", "0.9998", "--q", "0.9995",
                         "--gamma", "0.5", "--beta", "1", "--alpha", "0.5", "--m", "2"],
        # the scalar degree: an expression sampled point by point stays off numpy
        "eval_fn_scalar_degree": ["eval", "--n", "64", "--p", "0.99", "--q", "0.95",
                                  "--fn", "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2", "--x", "0.7"],
        "represent_fn_scalar_degree": ["represent", "--n", "64", "--p", "0.99", "--q", "0.95",
                                       "--fn", "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2", "--x", "0.7"],
    }

    # forms the flag table hands to argparse: help, --flag=value, an abbreviation
    ARGPARSE = {
        "help": ["eval", "--help"],
        "equals": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5", "--registry", "bbh_metric",
                   "--x=1.5"],
        "abbreviation": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5",
                         "--registry", "bbh_metric", "--x", "1.5", "--form", "json"],
    }

    def child(self, code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=src_env(), timeout=60)

    def test_import_loads_no_numpy(self):
        proc = self.child("import sys, pqbbh.cli; sys.exit('numpy' in sys.modules)")
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("argv", ONE_POINT.values(), ids=ONE_POINT.keys())
    def test_one_point_command_runs_with_numpy_blocked(self, argv, capsys):
        want = run(argv, capsys)
        assert want[0] == 0
        proc = self.child(self.BLOCKED + "from pqbbh.cli import main; sys.exit(main())", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    @pytest.mark.parametrize("argv", ARGPARSE.values(), ids=ARGPARSE.keys())
    def test_argparse_form_runs_with_numpy_blocked_and_loads_no_analysis(
            self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
        want = run(argv, capsys)
        assert want[0] == 0
        proc = self.child(self.BLOCKED + "from pqbbh.cli import main; code = main(); "
                          "sys.exit(code or 'pqbbh.analysis' in sys.modules)", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    @pytest.mark.parametrize("argv", ONE_POINT.values(), ids=ONE_POINT.keys())
    def test_well_formed_command_runs_with_argparse_blocked(self, argv, capsys):
        # the flag table reads it; argparse is for --help and usage errors only
        want = run(argv, capsys)
        proc = self.child("import sys; sys.modules['argparse'] = None; "
                          "from pqbbh.cli import main; sys.exit(main())", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_array_degree_imports_numpy_and_answers(self, capsys):
        argv = ["eval", "--n", "1024", "--p", "0.9998", "--q", "0.9995", "--fn", "t/(1+t)",
                "--x", "4"]
        want = run(argv, capsys)
        assert want[0] == 0
        proc = self.child("import sys; from pqbbh.cli import main; code = main(); "
                          "sys.exit(code if code else 'numpy' not in sys.modules)", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want


class TestLazyImports:
    """The package loads a submodule on first use, and no command imports dataclasses."""

    child = TestWithoutNumpy.child
    ONE_POINT = TestWithoutNumpy.ONE_POINT

    @pytest.mark.parametrize("argv", ONE_POINT.values(), ids=ONE_POINT.keys())
    def test_one_point_command_runs_with_dataclasses_blocked(self, argv, capsys):
        want = run(argv, capsys)
        proc = self.child("import sys; sys.modules['dataclasses'] = None; "
                          "from pqbbh.cli import main; sys.exit(main())", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    def test_import_loads_no_submodule(self):
        proc = self.child("import sys, pqbbh; print(sorted(m for m in sys.modules "
                          "if m.startswith('pqbbh')))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['pqbbh']\n", "")

    @pytest.mark.parametrize("name", [name for name, argv in ONE_POINT.items()
                                      if argv[0] in ("eval", "represent")])
    def test_eval_and_represent_load_no_analysis(self, name, capsys):
        argv = self.ONE_POINT[name]
        want = run(argv, capsys)
        proc = self.child("import sys; from pqbbh.cli import main; code = main(); "
                          "sys.exit(code or 'pqbbh.analysis' in sys.modules)", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    # a child interpreter that runs main on argv and prints, on its last line of
    # stdout, the modules that importing pqbbh.cli and the command added
    ADDED = ("import sys; before = set(sys.modules); from pqbbh.cli import main; "
             "code = main(); print(*sorted(set(sys.modules) - before)); sys.exit(code)")
    WATCHED = {"pqbbh.expressions", "pqbbh.analysis", "json", "csv"}

    def test_import_loads_only_what_every_command_runs(self):
        proc = self.child("import sys; before = set(sys.modules); import pqbbh.cli; "
                          "print(*sorted(set(sys.modules) - before))")
        assert (proc.returncode, proc.stderr) == (0, "")
        added = set(proc.stdout.split())
        assert {m for m in added if m.startswith("pqbbh")} == {
            "pqbbh", "pqbbh.cli", "pqbbh.operators", "pqbbh.pq_core", "pqbbh._record",
            "pqbbh.functions"}
        assert not added & self.WATCHED

    @pytest.mark.parametrize("argv, loads", [
        (ONE_POINT["eval_registry"], set()),
        (ONE_POINT["eval_registry_scalar_degree"], set()),
        (ONE_POINT["eval"], {"pqbbh.expressions"}),  # --fn, bare
        (ONE_POINT["eval_stancu"], {"json"}),  # --registry, --format json
        (ONE_POINT["moments"], {"csv", "pqbbh.analysis"}),  # --format csv by default
        (ONE_POINT["eval"] + ["--format", "csv"], {"pqbbh.expressions", "csv"}),
    ], ids=["registry_bare", "registry_bare_scalar_degree", "fn_bare", "registry_json",
            "moments_csv", "fn_csv"])
    def test_a_command_loads_what_it_uses(self, argv, loads, capsys):
        want = run(argv, capsys)
        proc = self.child(self.ADDED, *argv)
        out, _, last = proc.stdout[:-1].rpartition("\n")
        assert (proc.returncode, out + "\n" if out else "", proc.stderr) == want
        assert set(last.split()) & self.WATCHED == loads

    def test_every_public_name_resolves_and_is_listed(self):
        # a fresh interpreter, where no submodule is loaded yet
        proc = self.child(
            "import pqbbh\n"
            "names = set(pqbbh.__all__)\n"
            "assert names <= set(dir(pqbbh))\n"
            "star = {}\n"
            "exec('from pqbbh import *', star)\n"
            "assert star.keys() - {'__builtins__'} == names\n"
            "assert all(star[name] is getattr(pqbbh, name) for name in names)\n"
            "assert not names & vars(pqbbh).keys(), 'a public name was copied into pqbbh'\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("module, name, argv", [
        ("analysis", "moment_closed", ONE_POINT["moments"]),
        ("expressions", "parse_expression", ONE_POINT["eval"]),
    ], ids=["analysis", "expressions"])
    def test_a_wrapper_set_on_a_submodule_is_what_callers_get(
            self, module, name, argv, capsys, monkeypatch):
        # the span tracer in bench/spans.py swaps module attributes this way
        module = importlib.import_module(f"pqbbh.{module}")
        calls = []
        original = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
        assert getattr(pqbbh, name) is counting
        assert run(argv, capsys)[0] == 0
        assert len(calls) == 1
        monkeypatch.undo()
        assert getattr(pqbbh, name) is original

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'pqbbh' has no attribute 'nope'"):
            pqbbh.nope
        with pytest.raises(ImportError):
            from pqbbh import nope  # noqa: F401


class TestParserReuse:
    PLAIN = ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t/(1+t)", "--x", "1"]
    CALLS = [
        ["--help"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--registry", "one_",
         "--x", "1"],
        ["eval", "--n", "2", "--p", "1", "--fn", "t", "--x", "1"],
        ["eval", "--n", "12", "--p", "0.95", "--q", "0.7", "--gamma", "0.5", "--beta", "1.5",
         "--fn", "t/(1+t)", "--x", "2.5", "--format", "json"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--registry", "one_",
         "--x", "1"],
        PLAIN,
        PLAIN + ["--format", "json"],
    ]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_main_reuses_one_parser(self):
        assert pqbbh.cli._main_parser() is pqbbh.cli._main_parser()

    def test_reused_parser_keeps_no_state(self, capsys, monkeypatch):
        reused = [run(argv, capsys) for argv in self.CALLS]
        monkeypatch.setattr(pqbbh.cli, "_main_parser", build_parser)
        fresh = [run(argv, capsys) for argv in self.CALLS]
        assert reused == fresh  # exit codes, stdout and stderr, byte for byte
        assert [code for code, _, _ in reused] == [0, 2, 2, 0, 2, 0, 0]
        assert reused[0][1].startswith("usage: pqbbh")
        assert "not allowed with argument --fn" in reused[1][2]
        assert reused[4] == reused[1]
        assert "the following arguments are required: --q" in reused[2][2]
        stancu_meta = json.loads(reused[3][1])["meta"]
        assert (stancu_meta["gamma"], stancu_meta["beta"]) == (0.5, 1.5)
        assert reused[5] == (0, GOLDEN_EVAL, "")
        meta = json.loads(reused[6][1])["meta"]
        assert meta["gamma"] is None and meta["beta"] is None
        assert reused[6] == (0, GOLDEN_EVAL_JSON, "")

    # id: (exit code, argv)
    DISPATCHED = {
        "eval json": (0, ["eval", "--n", "3", "--p", "0.9", "--q", "0.6", "--gamma", "0.5",
                          "--fn", "t/(1+t)", "--x", "2", "--format", "json"]),
        "moments json": (0, ["moments", "--n", "3", "--p", "0.9", "--q", "0.6", "--nu", "2",
                             "--x", "2", "--format", "json"]),
        "converge json": (0, ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "4,8",
                              "--nu", "1", "--points", "11", "--format", "json"]),
        "rate json": (0, ["rate", "--schedule", "harmonic:0.25,0.5", "--n", "4",
                          "--registry", "exp_neg", "--format", "json"]),
        "represent json": (0, ["represent", "--n", "3", "--p", "0.9", "--q", "0.6",
                               "--registry", "sin_damped", "--x", "0.7", "--format", "json"]),
        "stancu-bound json": (0, ["stancu-bound", "--n", "2", "--p", "1", "--q", "1",
                                  "--gamma", "1", "--beta", "0", "--alpha", "1", "--m", "1",
                                  "--format", "json"]),
        "help after a subcommand": (0, ["moments", "-h"]),
        "unknown flag": (2, ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t",
                             "--x", "1", "--bogus", "3"]),
        "unknown subcommand": (2, ["evaluate", "--n", "2"]),
        "empty argv": (2, []),
        "abbreviated flag": (0, ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t",
                                 "--x", "1", "--form", "json"]),
        "negative value": (3, ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t",
                               "--x", "-1"]),
        "negative value after =": (0, ["eval", "--n", "2", "--p", "1", "--q", "1",
                                       "--gamma=-0.5", "--fn", "t", "--x", "1",
                                       "--format", "json"]),
        "function sources in conflict": (2, ["represent", "--n", "2", "--p", "1", "--q", "1",
                                             "--fn", "t", "--registry", "one_", "--x", "1"]),
    }

    @pytest.mark.parametrize("want, argv", list(DISPATCHED.values()), ids=list(DISPATCHED))
    def test_dispatch_matches_the_top_level_parser(self, want, argv, capsys, monkeypatch):
        dispatched = run(argv, capsys)
        monkeypatch.setattr(pqbbh.cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
        assert dispatched == run(argv, capsys)  # exit codes, stdout and stderr, byte for byte
        code, out, err = dispatched
        assert code == want
        if out.startswith("{"):  # JSON: "meta" starts with the subcommand's name
            assert err == ""
            assert next(iter(json.loads(out)["meta"])) == "command"


def flag_text(flag):
    """Text that the flag's type and choices accept, never starting with "-"."""
    if flag.choices is not None:
        return st.sampled_from(flag.choices).map(str)
    if flag.type is int:
        return st.integers(0, 10**12).map(str)
    if flag.type is not None:  # the finite floats
        return st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(abs(v)))
    return st.text().filter(lambda text: not text.startswith("-"))


@st.composite
def well_formed_argv(draw, command):
    """The subcommand, then every required flag, one flag of each group and some others."""
    flags = pqbbh.cli._SUBCOMMANDS[command][1]
    groups = {}
    for flag in flags:
        if flag.group is not None:
            groups.setdefault(flag.group, []).append(flag)
    chosen = [flag for flag in flags
              if flag.required or (flag.group is None and draw(st.booleans()))]
    chosen += [draw(st.sampled_from(members)) for members in groups.values()]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv += [flag.name, draw(flag_text(flag))]
    return argv


@st.composite
def malformed_argv(draw, command):
    """A well-formed argv with one to three of the forms only argparse may read."""
    argv = draw(well_formed_argv(command))
    flags = pqbbh.cli._SUBCOMMANDS[command][1]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([
            "abbreviation", "equals", "dash value", "duplicate", "missing", "both sources",
            "bad number", "out of choice", "unknown flag", "help", "lone word",
        ]))
        # a word in a flag's place, while there is one
        i = draw(st.sampled_from(range(1, len(argv), 2))) if len(argv) > 1 else None
        if kind == "abbreviation" and i is not None:
            name = argv[i]
            argv[i] = name[: draw(st.integers(3, max(3, len(name) - 1)))]
        elif kind == "equals" and i is not None and i + 1 < len(argv):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif kind == "dash value" and i is not None and i + 1 < len(argv):
            argv[i + 1] = draw(st.sampled_from(["-", "-1", "-0.5", "--", "-x"])) + argv[i + 1]
        elif kind == "duplicate" and i is not None:
            argv += argv[i : i + 2]
        elif kind == "missing" and i is not None:
            del argv[i : i + 2]
        elif kind == "both sources" and "--fn" in pqbbh.cli._FLAG_TABLE[command]:
            argv += ["--fn", "t", "--registry", "exp_neg"]
        elif kind == "bad number":
            flag = draw(st.sampled_from([f for f in flags if f.type is not None]))
            bad = ["x", "1.5", "1e3", "", "0x10"] if flag.type is int else \
                ["inf", "nan", "1e999", "x", "", "1,5"]
            argv += [flag.name, draw(st.sampled_from(bad))]
        elif kind == "out of choice":
            flag = draw(st.sampled_from([f for f in flags if f.choices is not None]))
            argv += [flag.name, draw(st.sampled_from(["3", "xml", "JSON", "1.0", " 1"]))]
        elif kind == "unknown flag":
            argv += [draw(st.sampled_from(["--bogus", "--N", "--fn2", "-n"])), "3"]
        elif kind == "help":
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-h", "--help"])))
        elif kind == "lone word":
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["t", "--x"])))
    return argv


def table_namespace(argv):
    """cli._table_args(argv), after checking that it is None or argparse's namespace."""
    got = pqbbh.cli._table_args(argv)
    if got is not None:
        want = build_parser().parse_args(argv)
        assert list(vars(got).items()) == list(vars(want).items())
    return got


class TestFlagTable:
    """The flag table reads an argv exactly as argparse would, or leaves it to argparse."""

    COMMANDS = list(pqbbh.cli._SUBCOMMANDS)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_well_formed_argv_takes_the_table_path(self, data):
        argv = data.draw(well_formed_argv(data.draw(st.sampled_from(self.COMMANDS))))
        assert table_namespace(argv) is not None

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_malformed_argv_is_declined_or_read_as_argparse_reads_it(self, data):
        table_namespace(data.draw(malformed_argv(data.draw(st.sampled_from(self.COMMANDS)))))

    # one argv of each subcommand in the shape of the benchmark's passes
    BENCHMARK_SHAPED = {
        "eval": ["eval", "--n", "150", "--p", "0.998", "--q", "0.996", "--gamma", "0.5",
                 "--beta", "1.25", "--fn", "cos(t)*exp(-t/4)+log(1+t)/(2+t)^2",
                 "--x", "2.5", "--format", "csv"],
        "moments": ["moments", "--n", "1024", "--p", "0.9997", "--q", "0.9995", "--nu", "2",
                    "--x", "0.7", "--format", "json"],
        "converge": ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list",
                     "16,64,256,1024", "--nu", "2", "--format", "csv", "--x-max", "120.5",
                     "--points", "3001"],
        "rate": ["rate", "--schedule", "harmonic:0.25,0.5", "--n", "256",
                 "--registry", "sin_damped", "--format", "json"],
        "represent": ["represent", "--n", "8", "--p", "0.9", "--q", "0.6", "--fn", "exp(-t)",
                      "--x", "0.7", "--format", "csv"],
        "stancu-bound": ["stancu-bound", "--n", "8", "--p", "1.0", "--q", "1.0",
                         "--gamma", "0.5", "--beta", "1.0", "--alpha", "0.5", "--m", "2.0",
                         "--format", "json"],
    }

    @pytest.mark.parametrize("argv", BENCHMARK_SHAPED.values(), ids=BENCHMARK_SHAPED.keys())
    def test_benchmark_shaped_argv_takes_the_table_path(self, argv):
        args = table_namespace(argv)
        assert args is not None
        assert list(vars(args))[0] == "command"

    def test_every_subcommand_has_a_benchmark_shaped_argv(self):
        assert self.BENCHMARK_SHAPED.keys() == pqbbh.cli._SUBCOMMANDS.keys()

    @pytest.mark.parametrize("argv", BENCHMARK_SHAPED.values(), ids=BENCHMARK_SHAPED.keys())
    def test_benchmark_shaped_argv_runs(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("argv", [
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--x=1.5"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--x", "1", "--form", "json"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--x", "-1"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--x", "1", "--x", "1"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--fn", "t", "--registry", "one_",
         "--x", "1"],
        ["eval", "--n", "2", "--p", "1", "--q", "1", "--x", "1"],
        ["moments", "--n", "2", "--p", "1", "--q", "1", "--nu", "3", "--x", "1"],
        ["moments", "-h"],
        [],
    ], ids=["equals", "abbreviation", "negative", "repeated", "both sources", "no source",
            "out of choice", "help", "empty"])
    def test_argparse_forms_are_declined(self, argv):
        assert pqbbh.cli._table_args(argv) is None


class TestOutputFile:
    def test_file_matches_stdout_bytes(self, capsys, tmp_path):
        argv = ["moments", "--n", "3", "--p", "0.9", "--q", "0.6", "--nu", "1", "--x", "2"]
        _, out, _ = run(argv, capsys)
        target = tmp_path / "table.csv"
        code, piped, _ = run(argv + ["--output", str(target)], capsys)
        assert code == 0
        assert piped == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_json_meta_echoes_config(self, capsys):
        _, out, _ = run(
            ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "4,8",
             "--nu", "0", "--format", "json"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["meta"]["schedule"] == "harmonic:0.25,0.5"
        assert payload["meta"]["n_list"] == [4, 8]
        assert payload["meta"]["points"] == 2001
        assert len(payload["rows"]) == 2
        # nu = 0 discrepancies vanish identically
        assert all(row[4] == 0.0 for row in payload["rows"])


class TestTableCells:
    """A table of many rows is formatted column by column, with the bytes of the per-cell rule."""

    HEADER = ["floats", "mixed", "blank", "flag", "count", "name"]

    @staticmethod
    def rows():
        import numpy as np

        return [
            [-0.0, np.float64(0.1), None, True, 3, "a,b"],
            [5e-324, 2.5, None, False, -7, "c"],
            [1e-5, np.float64(-0.0), None, True, 0, ""],
            [123456789012.0, -0.0, None, False, 10**20, 'say "d"'],
            [1e16, 1.0, None, True, 1, "e"],
        ]

    @staticmethod
    def per_cell(fmt, header, rows):
        """_emit's output with every cell passed to _fmt (CSV) or _json_cell (JSON) in row order."""
        if fmt == "json":
            cells = [[pqbbh.cli._json_cell(c, name) for c, name in zip(row, header)]
                     for row in rows]
            return json.dumps({"meta": {"format": fmt}, "rows": cells}) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([pqbbh.cli._fmt(c, name) for c, name in zip(row, header)])
        return buf.getvalue()

    EXPECTED = {
        "csv": (
            "floats,mixed,blank,flag,count,name\n"
            '0,0.1,,true,3,"a,b"\n'
            "4.94065645841e-324,2.5,,false,-7,c\n"
            "1e-05,0,,true,0,\n"
            '123456789012,0,,false,100000000000000000000,"say ""d"""\n'
            "1e+16,1,,true,1,e\n"
        ),
        "json": (
            '{"meta": {"format": "json"}, "rows": [[0.0, 0.1, null, true, 3, "a,b"], '
            '[5e-324, 2.5, null, false, -7, "c"], [1e-05, 0.0, null, true, 0, ""], '
            '[123456789012.0, 0.0, null, false, 100000000000000000000, "say \\"d\\""], '
            '[1e+16, 1.0, null, true, 1, "e"]]}\n'
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_give_the_per_cell_bytes(self, fmt):
        args = argparse.Namespace(format=fmt)
        got = pqbbh.cli._emit_columns(args, self.HEADER, list(zip(*self.rows())))
        assert got == self.per_cell(fmt, self.HEADER, self.rows())
        assert got == self.EXPECTED[fmt]

    # an all-float table with an int column: every column reads as text, so the
    # rows are joined from column texts, not passed to csv or json
    NUMBERS_HEADER = ["big", "small", "count"]
    NUMBERS = [
        [1.5e13, 5e-324, 0],
        [123456789012.0, -0.0, -3],
        [1e16, 2.2250738585072014e-308, 10**20],
        [-0.0, 1e-05, 7],
        [999999999999.9, 4.94065645841e-320, 1],
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_and_int_columns_give_the_per_cell_bytes(self, fmt):
        columns = list(zip(*self.NUMBERS))
        assert None not in [pqbbh.cli._column_texts(col, fmt == "json") for col in columns]
        args = argparse.Namespace(format=fmt)
        got = pqbbh.cli._emit_columns(args, self.NUMBERS_HEADER, columns)
        assert got == self.per_cell(fmt, self.NUMBERS_HEADER, self.NUMBERS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_first_non_finite_cell_in_row_order_is_named(self, fmt):
        # column by column, "a" would be refused first
        rows = [[1.0, float("inf")], [float("nan"), 2.0]]
        args = argparse.Namespace(format=fmt)
        with pytest.raises(DomainError, match=r"^b = inf is not a finite number$"):
            pqbbh.cli._emit_columns(args, ["a", "b"], list(zip(*rows)))


def column_cell(value: float, json_out: bool) -> str:
    """The cell text a float column of many rows gives value."""
    texts = pqbbh.cli._column_texts([value, 0.5], json_out)
    assert texts is not None
    return texts[0]


def assert_number_texts(value: float) -> None:
    text = pqbbh.cli._fmt(value)
    assert column_cell(value, False) == text
    assert column_cell(value, True) == json.dumps(float(text))


class TestJsonNumberText:
    """A float column's JSON text, taken from the .12g text, is what json.dumps prints."""

    SMALLEST_NORMAL = 2.2250738585072014e-308

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-SMALLEST_NORMAL, max_value=SMALLEST_NORMAL),  # subnormals
        st.floats(min_value=SMALLEST_NORMAL / 16, max_value=SMALLEST_NORMAL * 16),
        st.floats(min_value=1e11, max_value=1e17),
        st.floats(min_value=-1e17, max_value=-1e11),
        st.integers(min_value=-(10**17), max_value=10**17).map(float),
    ))
    @example(5e-324)
    @example(-0.0)
    @example(999999999999.5)  # .12g rounds it up to 1e+12
    @example(9999999999999998.0)  # the largest double below 1e16
    @example(1e16)
    @example(SMALLEST_NORMAL)
    @example(math.nextafter(SMALLEST_NORMAL, 0.0))
    def test_property(self, value):
        assert_number_texts(value)

    def test_exponent_sweep(self):
        for exponent in range(-330, 331):
            for mantissa in ("1", "-1", "1.5", "9.99999999999", "-1.23456789012", "4.94065645841"):
                value = float(f"{mantissa}e{exponent}")
                if not math.isfinite(value):
                    continue
                for v in (value, math.nextafter(value, math.inf),
                          math.nextafter(value, -math.inf)):
                    if math.isfinite(v):
                        assert_number_texts(v)


class TestRateRefusal:
    """rate writes nothing and exits 3 where a cell is not finite, naming the first in row order."""

    ARGV = ["rate", "--schedule", "harmonic:0.25,0.5", "--n", "64", "--fn"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_function(self, fmt, capsys):
        # lhs overflows from grid point 1438 on, rhs from point 1: row order names rhs
        code, out, err = run(self.ARGV + ["1.7e308*sin(t)", "--format", fmt], capsys)
        assert (code, out, err) == (3, "", "pqbbh: rhs = inf is not a finite number\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cells, named", [
        ([("lhs", 700, math.inf)], "lhs = inf"),
        ([("lhs", 700, math.inf), ("rhs", 699, math.nan)], "rhs = nan"),
        ([("lhs", 5, math.nan), ("rhs", 5, math.inf)], "lhs = nan"),
    ])
    def test_poisoned_columns(self, fmt, cells, named, capsys, monkeypatch):
        analysis = pqbbh.cli._module(".analysis")
        real = analysis._rate_columns

        def poisoned(*args):
            columns = dict(zip(("x", "lhs", "rhs", "pass"), real(*args)))
            for name, i, value in cells:
                columns[name][i] = value
            return tuple(columns.values())

        monkeypatch.setattr(analysis, "_rate_columns", poisoned)
        code, out, err = run(self.ARGV + ["exp(-t)", "--format", fmt], capsys)
        assert (code, out, err) == (3, "", f"pqbbh: {named} is not a finite number\n")
