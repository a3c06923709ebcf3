import csv
import gzip

import pqbbh.analysis
import pqbbh.cli
import pqbbh.operators

from child import call
from spans import ROOT, Tracer
from workloads import generate

CONVERGE = ["converge", "--schedule", "harmonic:0.25,0.5", "--n-list", "4,8",
            "--nu", "2", "--points", "21"]


def traced_calls(argvs):
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argvs:
            with tracer.invocation(requested_nu=2):
                code, *_ = call(pqbbh.cli, argv)
                assert code == 0
    finally:
        tracer.uninstall()
    return tracer


def test_self_times_sum_to_each_invocation_span(tmp_path):
    argvs = [CONVERGE] + [inv.argv for inv in generate("point_queries", 1)[:12]]
    tracer = traced_calls(argvs)
    tracer.write(tmp_path / "spans.tsv.gz")
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as handle:
        rows = list(csv.DictReader(handle, delimiter="\t"))
    own = tracer.self_times()
    assert len(rows) == len(own) == tracer.span_count()
    roots = {row["invocation"]: row for row in rows if row["name"] == ROOT}
    assert len(roots) == len(argvs)
    for inv, root in roots.items():
        total = sum(t for row, t in zip(rows, own) if row["invocation"] == inv)
        assert total == int(root["end_ns"]) - int(root["start_ns"])
    assert all(t >= 0 for t in own)


def test_every_namespace_sees_the_wrapper_and_uninstall_restores_it():
    weights = pqbbh.operators.weights
    tracer = Tracer()
    tracer.install()
    try:
        assert pqbbh.analysis.weights is pqbbh.operators.weights is not weights
        assert pqbbh.cli.evaluate is pqbbh.operators.evaluate
    finally:
        tracer.uninstall()
    assert pqbbh.analysis.weights is pqbbh.operators.weights is weights


def test_pass_metrics_count_calls_and_boundary_quantities():
    tracer = traced_calls([CONVERGE])
    metrics = tracer.pass_metrics(0, tracer.span_count())
    assert metrics["cli.main.calls"] == 1
    assert metrics["analysis.GridSpec.default.calls"] == 1
    # three closed forms per grid point, of which --nu 2 asked for one
    assert metrics["analysis.moment_closed.requested_ratio"] == 1 / 3
    assert metrics["pq_core.pq_integers.reuse_ratio"] == 2 / metrics["pq_core.pq_integers.calls"]
    assert metrics["operators.weights.calls"] == 0


def test_registry_callables_are_traced():
    argv = ["eval", "--n", "4", "--p", "1", "--q", "1", "--registry", "exp_neg", "--x", "1"]
    tracer = traced_calls([argv])
    metrics = tracer.pass_metrics(0, tracer.span_count())
    assert metrics["functions.registry.calls"] == 5  # one per node
