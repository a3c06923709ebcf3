"""Span tracer that wraps the public functions of the pqbbh modules from outside.

``Tracer.install()`` replaces every public function of each layer module
(and ``GridSpec.default``) with a wrapper that records a span, in every
pqbbh namespace that holds the function, so ``pqbbh.analysis.weights`` and
``pqbbh.operators.weights`` both report as ``operators.weights``.  The
callable ``registry_function`` returns is wrapped too, as
``functions.registry``.  ``uninstall()`` puts the originals back.

A span is the five integers ``name_id, start_ns, end_ns, parent,
invocation``, stored flat in one ``array`` so a pass of a quarter million
spans stays small; spans stay in memory until ``write()``.  Self time is
a span's duration minus the durations of its direct children, so the self
times of one invocation sum exactly to its root span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("pq_core", "operators", "analysis", "expressions", "functions", "cli")
ROOT = "invocation"
FIELDS = 5  # name_id, start_ns, end_ns, parent, invocation


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self._invocation = -1
        self._requested_nu: int | None = None
        self._installed: list[tuple[object, str, object]] = []
        self.reset_counters()

    # -- recording -------------------------------------------------------

    def reset_counters(self) -> None:
        """Counters of one pass, read by ``pass_metrics``."""
        self.tables: set[tuple] = set()
        self.weight_terms = 0
        self.requested_moments = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span named ``name``; ``hook`` sees the arguments."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            idx = len(spans)
            spans.extend((name_id, clock(), 0, stack[-1] if stack else -1, self._invocation))
            stack.append(idx // FIELDS)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx + 2] = clock()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def invocation(self, requested_nu: int | None = None):
        """Root span of one CLI invocation; spans inside it share its id."""
        self._invocation += 1
        self._requested_nu = requested_nu
        idx = len(self.spans)
        self.spans.extend((self._name_id(ROOT), time.perf_counter_ns(), 0, -1, self._invocation))
        self._stack.append(idx // FIELDS)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx + 2] = time.perf_counter_ns()

    # -- counters recorded at the layer boundaries -------------------------

    def _on_pq_integers(self, n, params):
        self.tables.add((n, params.p, params.q))

    def _on_weights(self, spec, x):
        self.weight_terms += spec.n + 1

    def _on_moment_closed(self, spec, nu, x):
        if nu == self._requested_nu:
            self.requested_moments += 1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer in every pqbbh namespace."""
        modules = {layer: importlib.import_module(f"pqbbh.{layer}") for layer in LAYERS}
        hooks = {
            "pq_core.pq_integers": self._on_pq_integers,
            "operators.weights": self._on_weights,
            "analysis.moment_closed": self._on_moment_closed,
        }
        self._name_id("functions.registry")  # reported even where no lookup happens
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "functions.registry_function":
                    wrapper = self.wrap(name, self._registry_function(obj))
                else:
                    wrapper = self.wrap(name, obj, hooks.get(name))
                wrappers[id(obj)] = (obj, wrapper)
        for namespace in (sys.modules["pqbbh"], *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._replace(namespace, attr, entry[1])
        grid_spec = modules["analysis"].GridSpec
        default = vars(grid_spec)["default"]
        self._replace(grid_spec, "default",
                      classmethod(self.wrap("analysis.GridSpec.default", default.__func__)))

    def _registry_function(self, registry_function):
        def lookup(name):
            return self.wrap("functions.registry", registry_function(name))
        return lookup

    def _replace(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def wrapped_names(self) -> list[str]:
        return [name for name in self.names if name != ROOT]

    # -- analysis --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans) // FIELDS

    def self_times(self, start: int = 0, end: int | None = None) -> list[int]:
        """Self time in ns of each span from ``start`` to ``end``.

        The range must begin at a root span so every parent lies inside it.
        """
        spans = self.spans
        end = self.span_count() if end is None else end
        out = [spans[i * FIELDS + 2] - spans[i * FIELDS + 1] for i in range(start, end)]
        for i in range(start, end):
            parent = spans[i * FIELDS + 3]
            if parent >= 0:
                out[parent - start] -= spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
        return out

    def pass_metrics(self, start: int, end: int) -> dict[str, float]:
        """Per-function calls and self time over spans ``start`` to ``end``, plus pass counters."""
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for i, own in enumerate(self.self_times(start, end), start):
            name = self.names[self.spans[i * FIELDS]]
            calls[name] += 1
            self_ns[name] += own
        out: dict[str, float] = {}
        for name in self.wrapped_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        pq_calls = calls["pq_core.pq_integers"]
        out["pq_core.pq_integers.reuse_ratio"] = len(self.tables) / pq_calls if pq_calls else 0.0
        out["operators.weights.terms"] = self.weight_terms
        mc_calls = calls["analysis.moment_closed"]
        out["analysis.moment_closed.requested_ratio"] = (
            self.requested_moments / mc_calls if mc_calls else 0.0)
        return out

    def write(self, path: str) -> None:
        """Spans as gzip TSV; times in ns from the first span, parent -1 for a root."""
        spans, names = self.spans, self.names
        origin = spans[1] if spans else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tinvocation\n")
            for i in range(self.span_count()):
                name_id, start, end, parent, inv = spans[i * FIELDS:(i + 1) * FIELDS]
                out.write(f"{i}\t{names[name_id]}\t{start - origin}\t{end - origin}"
                          f"\t{parent}\t{inv}\n")


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-pass metric (counts repeat exactly)."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
