"""Span tracing from outside the program: wrap each layer's public functions.

:class:`Tracer` replaces the functions listed in :func:`_layers` with thin
wrappers that record ``(id, name, start, end, parent, thread, attrs)`` per
call.  Parents come from a thread-local stack, so a span's self time is its
duration minus its children's.  Coroutine functions are recorded without a
parent (tasks interleave on the loop thread).  Spans stay in memory until
:meth:`Tracer.dump`.  The end-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _workload_ids(args, kwargs):
    workloads = args[1] if len(args) > 1 else kwargs.get("workloads", ())
    return [id(w) for w in workloads]


def _request_id(args, kwargs):
    return args[1].request_id


def _submit_attrs(args, kwargs):
    return (id(args[1].workload), args[1].request_id)


def _ctx_request_id(args, kwargs):
    return args[0].request_id


def _n_records(args, kwargs):
    return len(args[1])


def _layers():
    """``(span name, owner, attribute, attrs-of-call)`` for every traced function."""
    import repro.core.features as features
    import repro.serving.http.client as client_module
    import repro.serving.http.gateway as gateway_module
    import repro.serving.http.routes as routes_module
    import repro.serving.kernel as kernel_module
    from repro.core.model import LearnedWMP
    from repro.core.template_methods import PlanTemplates
    from repro.ml.linear import Ridge
    from repro.serving.aio import AsyncPredictionServer
    from repro.serving.http.client import GatewayClient
    from repro.serving.server import PredictionServer
    from repro.serving.telemetry import ServingTelemetry

    return [
        ("model.predict", LearnedWMP, "predict", _workload_ids),
        ("templates.assign", PlanTemplates, "assign", _n_records),
        ("features.featurize", features.MemoizedFeaturizer, "featurize_records", _n_records),
        ("features.fingerprint", features, "plan_fingerprint", None),
        ("regressor.predict", Ridge, "predict", None),
        ("cache.signature", kernel_module, "workload_signature", None),
        ("kernel.submit", kernel_module.PipelineKernel, "submit", None),
        ("kernel.batch_done", kernel_module.PipelineKernel, "batch_done", None),
        ("driver.submit", PredictionServer, "submit_request", _submit_attrs),
        ("driver.submit", AsyncPredictionServer, "submit_request", _submit_attrs),
        ("telemetry.record", ServingTelemetry, "record", None),
        ("wire.encode_request", client_module, "request_to_wire", None),
        ("wire.decode_result", client_module, "result_from_wire", None),
        ("wire.decode_request", routes_module, "request_from_wire", None),
        ("wire.encode_result", routes_module, "result_to_wire", None),
        ("client.roundtrip", GatewayClient, "predict", _request_id),
        ("gateway.handler", gateway_module, "request_id_middleware", _ctx_request_id),
    ]


class Tracer:
    """Records spans for the functions of :func:`_layers` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, attrs_of):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(ids)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    attrs = attrs_of(args, kwargs) if attrs_of else None
                    spans.append((span_id, name, start, clock(), 0, 0, attrs))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, kwargs) if attrs_of else None
                spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), attrs)
                )

        return traced

    def install(self) -> None:
        for name, owner, attribute, attrs_of in _layers():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
                owner, attribute
            )
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, attrs_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                span_id, name, start, end, parent, thread, attrs = span
                if name in ("model.predict", "driver.submit"):
                    attrs = len(attrs) if name == "model.predict" else attrs[1]
                handle.write(json.dumps([span_id, name, start, end, parent, thread, attrs]))
                handle.write("\n")


class SpanTable:
    """Per-name durations and self times of a window of spans."""

    def __init__(self, spans, start: float = float("-inf"), end: float = float("inf")) -> None:
        self.spans = [s for s in spans if start <= s[2] and s[3] <= end]
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[4]:
                child_time[s[4]] += s[3] - s[2]
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in self.spans:
            self.by_name[s[1]].append(s)
        self._child_time = child_time

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.by_name.get(name, ())], dtype=np.float64)

    def self_times(self, name: str) -> np.ndarray:
        return np.array(
            [s[3] - s[2] - self._child_time.get(s[0], 0.0) for s in self.by_name.get(name, ())],
            dtype=np.float64,
        )

    def mean_us(self, name: str) -> float:
        values = self.durations(name)
        return float(1e6 * values.mean()) if len(values) else 0.0

    def self_mean_us(self, name: str) -> float:
        values = self.self_times(name)
        return float(1e6 * values.mean()) if len(values) else 0.0

    def self_us_per(self, name: str) -> float:
        """Self time per unit of work (``attrs`` holds the unit count)."""
        spans = self.by_name.get(name, ())
        units = sum(s[6] for s in spans)
        return float(1e6 * self.self_times(name).sum() / units) if units else 0.0

    def busy_s(self, name: str) -> float:
        return float(self.durations(name).sum())


def covered_share(intervals, start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of ``intervals``."""
    if end <= start:
        return 1.0
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    covered, cursor = 0.0, start
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered / (end - start)
