"""Span tracing around the public functions of each gridlines layer.

`install()` wraps the functions listed in LAYERS.  harness, oracle and
bounds bind names such as `incidence_histogram` and `moments` with
`from` imports, so a wrapper replaces the original object under every
name, in every loaded gridlines module, that refers to it.

A span records (operation, id, parent id, name, start, end).  Spans stay
in memory and are written out by `Tracer.dump` once the run has ended.
A layer's self time is its span's duration minus the time its child
spans cover; counters are bumped at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


def _count_rows(counts, result, args, kwargs):
    rows = getattr(result, "rows", None)
    counts["harness.rows"] += len(rows) if rows is not None else 1


def _count_set(counts, result, args, kwargs):
    counts["fieldsets.sets"] += 1


def _count_histogram(counts, result, args, kwargs):
    from gridlines import incidence

    subset = args[0]
    p, n = subset.p, subset.n
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
    strategy = strategy or incidence.default_strategy(p, n)
    counts["incidence.histograms"] += 1
    counts["incidence.lines"] += p * p + p
    if strategy == "slope_direct":
        counts["incidence.direct_builds"] += 1
        counts["incidence.direct_keys"] += p * n * n
    elif strategy == "slope_fast":
        counts["incidence.fast_builds"] += 1


def _count_convolution(counts, result, args, kwargs):
    from gridlines import ntt

    counts["ntt.convolutions"] += 1
    counts["ntt.transform_points"] += ntt.conv_length(args[-1])


def _count_oracle(counts, result, args, kwargs):
    counts["oracle.calls"] += 1


def _count_table(counts, result, args, kwargs):
    counts["products.tables"] += 1
    counts["products.support_entries"] += result.support_size


# (module, attribute, span name, counter); a span name "x.y" reports its
# self time as the per-layer metric "x.y_s".
LAYERS = [
    ("harness", "run_sweep", "harness.self", _count_rows),
    ("harness", "run_moments", "harness.self", _count_rows),
    ("harness", "run_verify", "harness.self", _count_rows),
    ("harness", "run_support", "harness.self", _count_rows),
    ("fieldsets", "SetSpec.realize", "fieldsets.realize", _count_set),
    ("incidence", "incidence_histogram", "incidence.histogram", _count_histogram),
    ("incidence", "moments", "incidence.moments", None),
    ("ntt", "forward_padded", "ntt.convolve", None),
    ("ntt", "convolve_with_transform", "ntt.convolve", _count_convolution),
    ("ntt", "cyclic_convolve", "ntt.convolve", _count_convolution),
    ("bounds", "verify_histogram", "bounds.verify", None),
    ("bounds", "proposition_check", "bounds.proposition", None),
    ("bounds", "class_bound_check", "bounds.class_bound", None),
    ("bounds", "ratio_diagnostics", "bounds.ratio", None),
    ("oracle", "t_brute", "oracle.t_brute", _count_oracle),
    ("oracle", "q_brute", "oracle.q_brute", _count_oracle),
    ("oracle", "algebraic_triple_count", "oracle.algebraic", _count_oracle),
    ("products", "product_rep_table", "products.table", _count_table),
    ("products", "support_census", "products.census", None),
]

TIME_METRICS = sorted({name + "_s" for _, _, name, _ in LAYERS})
COUNT_METRICS = [
    "harness.rows", "fieldsets.sets",
    "incidence.histograms", "incidence.lines", "incidence.direct_builds",
    "incidence.fast_builds", "incidence.direct_keys",
    "ntt.convolutions", "ntt.transform_points",
    "oracle.calls",
    "products.tables", "products.support_entries",
]


class Tracer:
    """In-memory span store; recording happens only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.operation = 0
        self.spans = []
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []  # [span id, time covered by children]

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.self_time[name] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[span_id] = (self.operation, span_id, parent, name, start, end)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every listed function, under every name it is bound to."""
    import gridlines  # noqa: F401  (loads every submodule)

    modules = [m for key, m in sys.modules.items()
               if key == "gridlines" or key.startswith("gridlines.")]
    for module_name, attr, span_name, count in LAYERS:
        owner = sys.modules["gridlines." + module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), count))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
