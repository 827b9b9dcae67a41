"""In-memory span recorder for the traced benchmark run.

Wrappers replace the public layer functions at the module attributes their
callers look up at call time (``pmcpower.dataset.read_dataset``,
``pmcpower.search.bottom_up``, ``pmcpower.search.fit_ols``, ...), so the
program itself is not modified.  Each call records a span (name, start,
end, parent, trace id) plus the counts its boundary exposes (rows, bytes,
matched keys).  Spans stay in memory until the benchmark writes them out.

Every wrapped function is called from the main thread only: the search
thread pool runs private ``_CvEvaluator`` methods, which are not wrapped.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _read_counts(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _coverage_counts(args, result):
    pmc, pwr = args[0], args[1]
    return {
        "matched": result.matched,
        "unmatched": result.unmatched_pmc + result.unmatched_power,
        # the denominator of CoverageReport.match_fraction
        "keys": max(len(pmc), len(pwr)),
    }


def _sync_counts(args, result):
    return {"rows_out": len(result)}


# (module, attribute, counts from (args, result)); the span is named after
# the module that defines the function, so search.fit_ols records as
# regress.fit_ols
TARGETS = (
    ("dataset", "read_counter_trace", _read_counts),
    ("dataset", "read_power_trace", _read_counts),
    ("dataset", "read_dataset", _read_counts),
    ("dataset", "write_counter_trace", None),
    ("dataset", "write_power_trace", None),
    ("dataset", "write_dataset", None),
    ("dataset", "concat_datasets", None),
    ("sync", "coverage_report", _coverage_counts),
    ("sync", "synchronize", _sync_counts),
    ("regress", "read_model", None),
    ("regress", "write_model", None),
    ("regress", "validate", None),
    ("regress", "predict_dataset", None),
    ("regress", "write_prediction_trace", None),
    ("search", "fit_ols", None),
    ("search", "kfold_split", None),
    ("search", "bottom_up", None),
    ("search", "top_down", None),
    ("search", "exhaustive", None),
    ("search", "write_report", None),
    ("datagen", "generate", None),
)


class Tracer:
    """Records spans; wrappers are live only inside ``trace()``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace_id: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self._trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, counts):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec["counts"] = counts(args, result)
                return result

        return wrapper

    @contextmanager
    def trace(self, trace_id: str):
        """Install the wrappers and tag every span with ``trace_id``."""
        saved = []
        try:
            for mod_name, attr, counts in TARGETS:
                module = getattr(self.package, mod_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, counts))
            self._trace_id = trace_id
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._trace_id = None

    def layer_totals(self, trace_id: str) -> dict[str, float]:
        """Per span name: summed self time (duration minus direct children)
        and summed counts, over the spans of one trace."""
        spans = [s for s in self.spans if s["trace"] == trace_id]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"] + "_s"] += (s["end"] - s["start"]) - child[s["id"]]
            out[s["name"] + "_total_s"] += s["end"] - s["start"]
            for key, value in s["counts"].items():
                out[f"{s['name']}.{key}"] += value
        return out
