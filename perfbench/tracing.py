"""Spans around the package's public functions, recorded from outside it.

`install` replaces each listed function with a wrapper in every `qortho`
module that holds it: `measures`, `identities`, `cli` and `__init__` import
kernel and families names into their own namespaces, so replacing only the
defining module would leave calls made inside the package uncounted.
Nothing under `src/` is changed.

A span is (name index, start, end, parent span, op id). Spans are kept in
memory and written out once the run ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

LAYERS = {
    "kernel": ("qpochhammer_inf", "qpochhammer", "basic_hypergeometric",
               "to_decimal"),
    "families": ("qinv_hermite_series", "qinv_hermite_table", "qinv_hermite",
                 "qinv_hermite_coeffs", "even_hermite_factor",
                 "discrete_ultra", "dual_ultra_series", "dual_ultra_table",
                 "dual_ultra", "dual_ultra_coeffs"),
    "measures": ("gram_matrix", "DiscreteMeasure.point", "expected_diagonal",
                 "lattice_normalization", "adjudicate_normalization"),
    "identities": ("check_even_connection", "check_odd_connection",
                   "check_recurrence_chains", "check_product_chain",
                   "check_inverted_parameter_recurrence",
                   "check_half_to_full_lattice", "run_suite"),
    "cli": ("main",),
}


DERIVED = ("measures.window_nodes", "measures.point_calls_per_node",
           "measures.products_per_gram")


def metric_names() -> list[str]:
    """Every per-layer metric, in LAYERS order; a method keeps only its own name."""
    spans = ["%s.%s" % (layer, name.rsplit(".", 1)[-1])
             for layer, names in LAYERS.items() for name in names]
    return [s + suffix for s in spans for suffix in (".calls", ".self_s")] + list(DERIVED)


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".calls", ".window_nodes")):
        return "count"
    return "ratio"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = True
        self.window_nodes = 0

    def wrap(self, name: str, fn, on_result=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, tracer.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_window(self, report) -> None:
        """Add one Gram report's window size to measures.window_nodes."""
        self.window_nodes += report.m_hi - report.m_lo + 1

    def layer_metrics(self) -> dict[str, float]:
        """F.calls and F.self_s for every wrapped F, plus the derived counts."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for name, own in zip((self.names[s[0]] for s in self.spans),
                             self_times(self.spans)):
            calls[name] += 1
            self_s[name] += own
        out: dict[str, float] = {}
        for name in self.names:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        grams = calls["measures.gram_matrix"]
        products = calls["kernel.qpochhammer_inf"] + calls["kernel.qpochhammer"]
        out["measures.window_nodes"] = self.window_nodes
        out["measures.point_calls_per_node"] = (
            calls["measures.point"] / self.window_nodes if self.window_nodes else 0.0)
        out["measures.products_per_gram"] = products / grams if grams else 0.0
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for index, start, end, parent, op in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (self.names[index], start, end, parent, op))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so the children of a span are disjoint
    intervals inside it and their sum is the part of it they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a loaded qortho module holds it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qortho" or name.startswith("qortho.")]
    for layer, names in LAYERS.items():
        home = importlib.import_module("qortho." + layer)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, tracer.wrap("%s.%s" % (layer, attr), vars(cls)[attr]))
                continue
            original = getattr(home, name)
            wrapped = tracer.wrap("%s.%s" % (layer, name), original,
                                  tracer.count_window if name == "gram_matrix" else None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
