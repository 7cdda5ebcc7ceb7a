"""Spans and counts at the boundaries between the benchmark and each layer.

In a traced round the benchmark replaces, in every ``wetmax`` module that
binds them, the public layer functions by wrappers that record a span
(name, start, end, parent) and the counts the function's arguments or
result carry.  Spans stay in memory until the run ends.  Untraced rounds
run with the original functions bound again, so they pay nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []     # (module, attribute, original)

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- installing the wrappers -------------------------------------------

    def install(self):
        """Bind a traced wrapper in place of each layer function, everywhere it is bound."""
        modules = [m for n, m in sys.modules.items() if n == "wetmax" or n.startswith("wetmax.")]
        for module_name, fn_name, name_of, count in _LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(original, name_of, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name_of, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self.counts, name, args, kwargs, out)
            return out
        return traced

    # -- aggregation -----------------------------------------------------------

    def totals(self):
        """Per span name: (inclusive seconds, self seconds), summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own = Counter(), Counter()
        for k, (name, start, end, _parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[k]
        return inclusive, own


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _fixed(name):
    return lambda args, kwargs: name


def _mle_name(args, kwargs):
    return "estimation.fit_mle_fixed" if _arg(args, kwargs, 2, "fix_r", False) else "estimation.fit_mle_free"


def _tag_name(args, kwargs):
    tag = _arg(args, kwargs, 1, "tag")
    return f"samplers.{getattr(tag, 'value', tag)}"


def _count_points(counts, name, args, kwargs, out):
    counts[name + ".points"] += int(np.size(out))


def _count_days(counts, name, args, kwargs, out):
    counts["pipeline.days"] += out.n


def _count_spells(counts, name, args, kwargs, out):
    counts["pipeline.spells"] += out.m
    counts["pipeline.split_warnings"] += len(out.warnings)


def _count_mle(counts, name, args, kwargs, out):
    counts["estimation.mle_iterations"] += int(out.iterations)
    counts["estimation.mle_converged"] += int(bool(out.converged))


# (home module, function, span name from the arguments, counter or None)
_LAYER_FUNCTIONS = [
    ("wetmax.pipeline", "ingest_csv", _fixed("pipeline.ingest_csv"), _count_days),
    ("wetmax.pipeline", "segment", _fixed("pipeline.segment"), _count_spells),
    ("wetmax.pipeline", "build_maxima", _fixed("pipeline.build_maxima"), None),
    ("wetmax.estimation", "fit_negbin", _fixed("estimation.fit_negbin"), None),
    ("wetmax.estimation", "fit_quantile", _fixed("estimation.fit_quantile"), None),
    ("wetmax.estimation", "fit_least_squares", _fixed("estimation.fit_least_squares"), None),
    ("wetmax.estimation", "fit_mle", _mle_name, _count_mle),
    ("wetmax.gof", "ks_model", _fixed("gof.ks_model"), None),
    ("wetmax.gof", "emit_plot_data", _fixed("gof.emit_plot_data"), None),
    ("wetmax.distributions", "limit_log_pdf", _fixed("distributions.limit_log_pdf"), _count_points),
    ("wetmax.distributions", "limit_cdf", _fixed("distributions.limit_cdf"), _count_points),
    ("wetmax.samplers", "sample_limit", _tag_name, _count_points),
    ("wetmax.samplers", "simulate_prelimit_max", _fixed("samplers.prelimit"), _count_points),
]
