import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import pqbbh.cli
from pqbbh.cli import build_parser, main
from pqbbh.functions import registry_function

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
]


@pytest.mark.parametrize(
    "argv,digest",
    STDOUT_DIGESTS,
    ids=["rate_csv", "rate_json", "moments", "represent", "eval_stancu", "converge_nu2",
         "eval_json", "moments_json", "converge_json", "represent_json", "stancu_bound_json"],
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

    @pytest.mark.parametrize(
        "nu,x,message",
        [
            ("1", "-21.9", "x must be finite and >= 0, got -21.9"),
            ("1", "21.9", "[n+1]^1 = 8.3441864e-316 underflows"),
            ("0", "21.9", "weight normalizer drifted from the rising product at n=1110, x=21.9"),
        ],
        ids=["x_first", "underflow_before_drift", "drift"],
    )
    def test_moments_refuses_in_order(self, nu, x, message, capsys):
        # n = 1110, p = 0.518, q = 0.513 fails all three checks
        code, out, err = run(
            ["moments", "--n", "1110", "--p", "0.518", "--q", "0.513", "--nu", nu, "--x", x],
            capsys,
        )
        assert (code, out) == (3, "")
        assert message in err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--nu", "2", "--x", "1"],
            ["stancu-bound", "--gamma", "0.5", "--beta", "0.5", "--alpha", "0.5", "--m", "1"],
        ],
    )
    def test_underflowing_closed_form_is_three(self, argv, capsys):
        # printed closed 0 and bound 6 (true: 0.26 and 6.45) before the check
        code, out, err = run(
            argv[:1] + ["--n", "610", "--p", "0.541", "--q", "0.499"] + argv[1:], capsys
        )
        assert code == 3
        assert out == ""
        assert "[n+1]^2 = 5e-324 underflows" in err

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

    def test_normalizer_drift_names_the_subnormal_factor(self, capsys):
        code, out, err = run(
            ["eval", "--n", "1110", "--p", "0.518", "--q", "0.513", "--registry", "exp_neg",
             "--x", "21.9"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "ratio denominator p^1109 [1] = " in err
        assert "is subnormal at k=0 (p=0.518, q=0.513)" in err

    def test_underflowing_gap_divisor_is_three(self, capsys):
        # exited 3 with a bare "float division by zero" before the check
        code, out, err = run(
            ["represent", "--n", "3", "--p", "1.0422776544377814e-100",
             "--q", "1.0422776544377814e-100", "--registry", "exp_neg",
             "--x", "1293.2239477425098"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "gap divisor [3][4] q^1 = 0.0 underflows" in err
        assert "at k=0" in err

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
        "eval_stancu": ["eval", "--n", "8", "--p", "0.9", "--q", "0.5", "--gamma", "0.5",
                        "--beta", "0.25", "--registry", "exp_neg", "--x", "2",
                        "--format", "json"],
        "moments": ["moments", "--n", "8", "--p", "0.95", "--q", "0.7", "--nu", "2",
                    "--x", "3"],
        "represent": ["represent", "--n", "8", "--p", "0.9", "--q", "0.6",
                      "--registry", "sin_damped", "--x", "0.7"],
        "stancu_bound": ["stancu-bound", "--n", "1024", "--p", "0.9998", "--q", "0.9995",
                         "--gamma", "0.5", "--beta", "1", "--alpha", "0.5", "--m", "2"],
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

    def test_array_degree_imports_numpy_and_answers(self, capsys):
        argv = ["eval", "--n", "1024", "--p", "0.9998", "--q", "0.9995", "--fn", "t/(1+t)",
                "--x", "4"]
        want = run(argv, capsys)
        assert want[0] == 0
        proc = self.child("import sys; from pqbbh.cli import main; code = main(); "
                          "sys.exit(code if code else 'numpy' not in sys.modules)", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want


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
