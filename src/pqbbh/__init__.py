"""Two-parameter Bleimann-Butzer-Hahn operators and their convergence apparatus.

The submodules load on first use: ``import pqbbh`` imports none of them,
and reading a public name imports the one that defines it.  The name is
looked up in that submodule on every read, never copied here, so a
wrapper set on the submodule's attribute is what ``pqbbh`` hands out.
"""

from importlib import import_module

# Each public name and the submodule that defines it, declared here only:
# __all__ is this table's keys.
_SUBMODULE_OF = {
    **dict.fromkeys((
        "ConvergenceReport",
        "ConvergenceRow",
        "GridSpec",
        "HarmonicSchedule",
        "LipschitzClass",
        "ParamSchedule",
        "PointSet",
        "RatePoint",
        "StancuBoundReport",
        "convergence_report",
        "delta_n",
        "distance_to_set",
        "korovkin_discrepancy",
        "lipschitz_bound",
        "lipschitz_constant_estimate",
        "modulus_estimate",
        "moment_closed",
        "param_schedule",
        "rate_bound_check",
        "stancu_bound",
        "stancu_bound_report",
        "sup_delta",
    ), "analysis"),
    **dict.fromkeys((
        "ExpressionDomainError",
        "ExpressionError",
        "ExpressionSyntaxError",
        "as_function",
        "eval_expression",
        "format_expression",
        "parse_expression",
    ), "expressions"),
    **dict.fromkeys(("REGISTRY", "registry_function"), "functions"),
    **dict.fromkeys((
        "EvaluationError",
        "NodeTable",
        "OperatorSpec",
        "RealFunction",
        "StancuShift",
        "WeightTable",
        "divided_difference",
        "evaluate",
        "evaluate_stancu",
        "nodes",
        "representation_rhs",
        "stancu_nodes",
        "weights",
    ), "operators"),
    **dict.fromkeys((
        "DomainError",
        "PqParams",
        "euler_coefficients",
        "log_pochhammer_ell",
        "pochhammer_ell",
        "pq_binomial",
        "pq_factorial",
        "pq_integer",
        "pq_integers",
        "pq_log_factorial",
    ), "pq_core"),
}
__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{submodule}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
