import csv
import hashlib
import io
import json
import warnings

import pytest

import pqbbh.cli
from pqbbh.cli import main
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
]


@pytest.mark.parametrize(
    "argv,digest",
    STDOUT_DIGESTS,
    ids=["rate_csv", "rate_json", "moments", "represent", "eval_stancu", "converge_nu2"],
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
