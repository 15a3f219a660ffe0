"""Out-of-program tracing: wrap each layer's public functions at the name the
caller looks them up by, record one span per call, restore afterwards.

A span is (id, parent id, layer, start, end, count).  ``count`` is an
optional work measure taken from the call (likelihood points, CSV bytes).
Spans stay in memory; ``summary`` folds them into per-layer statistics.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

# (layer name, module the caller looks it up in, attribute, class or None)
LAYERS = (
    ("cli.main", "cfolab.cli", "main", None),
    ("harness.run_mse_vs_snr", "cfolab.harness", "run_mse_vs_snr", None),
    ("harness.run_mse_vs_iota", "cfolab.harness", "run_mse_vs_iota", None),
    ("training.build_training", "cfolab.harness", "build_training", None),
    ("channel.draw_channel", "cfolab.harness", "draw_channel", None),
    ("channel.transmit_receive", "cfolab.harness", "transmit_receive", None),
    ("estimator.stack", "cfolab.estimator", "stack", None),
    ("estimator.estimate_simplified", "cfolab.estimator", "estimate_simplified", None),
    ("estimator.estimate_ml_grid", "cfolab.estimator", "estimate_ml_grid", None),
    ("estimator.likelihood", "cfolab.estimator", "likelihood", None),
    ("analysis.emcb", "cfolab.analysis", "emcb", None),
    ("analysis.predicted_mse", "cfolab.analysis", "predicted_mse", None),
    ("numerics.RandomSource.generator", "cfolab.numerics", "generator", "RandomSource"),
    ("harness.rows_to_csv", "cfolab.harness", "rows_to_csv", None),
    ("harness.write_csv", "cfolab.harness", "write_csv", None),
)


def _likelihood_points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["cfo"]))


def _csv_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


COUNTERS = {"estimator.likelihood": _likelihood_points,
            "harness.rows_to_csv": _csv_bytes}


@dataclass
class Span:
    span_id: int
    parent: int | None
    layer: str
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    """Install wrappers with ``install``; always call ``restore``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(len(tracer.spans), stack[-1].span_id if stack else None,
                        layer, 0.0)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every layer that exists; return the names of those missing."""
        missing = []
        for layer, module_name, attr, cls_name in LAYERS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            # a class attribute must be read from the class dict, so the
            # restored value is the plain function and not a bound method
            original = (vars(owner).get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None:
                missing.append(layer)
                continue
            setattr(owner, attr, self._wrap(layer, original))
            self._installed.append((owner, attr, original))
        return missing

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        ok = all((vars(owner).get(attr) if isinstance(owner, type)
                  else getattr(owner, attr)) is original
                 for owner, attr, original in self._installed)
        self._installed.clear()
        return ok


def summary(spans: list[Span]) -> dict[str, dict]:
    """Per layer: calls, busy_s, self_s, per-call median, summed count.

    busy_s sums the span durations; self_s subtracts the time covered by the
    span's direct children.  Children of one span never overlap, because a
    span's children run on its own thread between its start and end.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, dict] = {}
    per_call: dict[str, list[float]] = {}
    for s in spans:
        dur = s.end - s.start
        st = out.setdefault(s.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "count": 0, "min_self_s": float("inf")})
        own = dur - child_time.get(s.span_id, 0.0)
        st["calls"] += 1
        st["busy_s"] += dur
        st["self_s"] += own
        st["count"] += s.count
        st["min_self_s"] = min(st["min_self_s"], own)
        per_call.setdefault(s.layer, []).append(dur)
    for layer, st in out.items():
        st["median_s"] = statistics.median(per_call[layer])
    return out


def count_within(spans: list[Span], layer: str, parent: str) -> int:
    """Summed count of `layer` spans whose direct parent is a `parent` span."""
    parents = {s.span_id for s in spans if s.layer == parent}
    return sum(s.count for s in spans if s.layer == layer and s.parent in parents)
