"""Shared serving-front machinery: the protocol facade and the driver base.

Every serving front (thread, asyncio, sharded) exposes the same surface —
the typed :class:`repro.api.Predictor` protocol, the
``WorkloadMemoryPredictor`` ``predict_workload`` form, telemetry snapshots
and the context-manager lifecycle.  That facade used to be copied into each
front; :class:`ServingFrontBase` is the single copy.  A front only
implements the one submission primitive (``submit_request``) plus its stats
accessors, and inherits the rest.

:class:`KernelDriverBase` adds what the two single-backend drivers (thread
and asyncio) additionally share: registry resolution, construction of the
:class:`~repro.serving.kernel.PipelineKernel`, the batched model call, and
the kernel-backed stats accessors.  The sharded front routes to per-shard
servers instead of owning a kernel, so it extends only the facade.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Sequence

from repro.api import PredictionRequest, PredictionResult, predict_values
from repro.core.features import FeatureCacheStats
from repro.core.features import feature_cache_stats as _model_feature_cache_stats
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import DeadlineExceededError
from repro.registry import ModelRegistry
from repro.serving.cache import CacheStats
from repro.serving.kernel import BatcherStats, Complete, PipelineKernel, ServerConfig
from repro.serving.telemetry import ServingTelemetry, TelemetryReport

__all__ = [
    "DEFAULT_MODEL_NAME",
    "ServingFrontBase",
    "KernelDriverBase",
    "submission_deadline",
    "await_within_budget",
]

#: Name used when a server is built directly from a predictor object.
DEFAULT_MODEL_NAME = "default"


def submission_deadline(request: PredictionRequest) -> float | None:
    """The request's absolute expiry if submitted *now* (monotonic domain).

    Captured once per request at submission so batch loops consume the
    remaining budget from there — request *i* never borrows the time spent
    waiting on requests before it.  Shared by every serving front (thread,
    asyncio, sharded).
    """
    if request.deadline_s is None:
        return None
    return time.monotonic() + request.deadline_s


def await_within_budget(
    request: PredictionRequest,
    future: "Future[PredictionResult]",
    deadline_at: float | None,
) -> PredictionResult:
    """Wait for ``future``, bounded by the request's remaining budget.

    ``deadline_at`` is the absolute expiry captured at submission
    (:func:`submission_deadline`); ``None`` falls back to a fresh budget
    from now (the single-request path, where submission just happened).
    The future is *not* cancelled on expiry — the serving pipeline finishes
    (and accounts for) the request on its own; only the wait is abandoned.
    """
    if deadline_at is None and request.deadline_s is not None:
        deadline_at = time.monotonic() + request.deadline_s
    timeout = None if deadline_at is None else max(deadline_at - time.monotonic(), 0.0)
    try:
        return future.result(timeout=timeout)
    # concurrent.futures.TimeoutError only aliases the builtin from 3.11;
    # catch both so Python 3.10 deadline misses surface the same way.
    except (TimeoutError, FutureTimeoutError) as exc:
        raise DeadlineExceededError(
            f"request {request.request_id} missed its deadline "
            f"({request.deadline_s:.3f} s)"
        ) from exc


class ServingFrontBase:
    """The protocol facade every serving front shares.

    Subclasses provide ``submit_request(request, *, signature=None)``
    returning a ``Future[PredictionResult]``, a ``config``, a ``telemetry``
    accumulator, and ``feature_cache_stats()``; this base turns those into
    the full :class:`repro.api.Predictor` surface plus ``predict_workload``.
    """

    config: ServerConfig
    telemetry: ServingTelemetry

    # -- conversion helpers -----------------------------------------------------------

    @staticmethod
    def _as_workload(queries: Sequence[QueryRecord] | Workload) -> Workload:
        if isinstance(queries, Workload):
            return queries
        return Workload(queries=list(queries))

    # -- blocking surfaces ------------------------------------------------------------

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        """Blocking single prediction (WorkloadMemoryPredictor protocol)."""
        return self.predict(PredictionRequest.of(queries)).memory_mb

    def _await_result(
        self,
        request: PredictionRequest,
        future: "Future[PredictionResult]",
        *,
        deadline_at: float | None = None,
    ) -> PredictionResult:
        return await_within_budget(request, future, deadline_at)

    def predict_batch(self, requests: Sequence[PredictionRequest]) -> list[PredictionResult]:
        """Typed batch prediction (the :class:`repro.api.Predictor` protocol).

        All requests are submitted up front, so the micro-batcher can form
        full batches even though the caller is a single thread.  Each
        request's deadline clock starts at its submission, not when its turn
        comes in the await loop.
        """
        entries = [
            (request, submission_deadline(request), self.submit_request(request))
            for request in requests
        ]
        return [
            self._await_result(request, future, deadline_at=deadline_at)
            for request, deadline_at, future in entries
        ]

    def predict(self, request: PredictionRequest) -> PredictionResult:
        """Answer one typed request (the :class:`repro.api.Predictor` protocol)."""
        return self._await_result(request, self.submit_request(request))

    # -- telemetry --------------------------------------------------------------------

    def snapshot(self) -> TelemetryReport:
        """Current telemetry snapshot (latency percentiles, throughput, ...).

        When the served model carries a memoized featurizer, its
        plan-feature cache counters are folded into the report's
        ``feature_cache_*`` fields, so one snapshot covers both cache tiers:
        the prediction cache (repeated workloads) and the feature cache
        (repeated plans inside fresh workloads).
        """
        report = self.telemetry.snapshot()
        stats = self.feature_cache_stats()
        if stats is not None:
            report = dataclasses.replace(
                report,
                feature_cache_hits=stats.hits,
                feature_cache_misses=stats.misses,
                feature_cache_evictions=stats.evictions,
                feature_cache_hit_rate=stats.hit_rate,
            )
        return report

    # -- lifecycle --------------------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class KernelDriverBase(ServingFrontBase):
    """Common construction + kernel-backed accessors of the I/O drivers.

    Owns everything the thread and asyncio drivers share that is not I/O:
    registry resolution (a bare predictor is wrapped in a fresh single-entry
    registry), the :class:`~repro.serving.kernel.PipelineKernel`, the
    waiter table that turns the kernel's resolving actions into typed
    results, the batched model call, and the stats surface.  The driver
    subclass owns the clocks/locks/loops that feed the kernel events and
    perform its actions.
    """

    def __init__(
        self,
        source: ModelRegistry | Any,
        *,
        model_name: str = DEFAULT_MODEL_NAME,
        config: ServerConfig | None = None,
        telemetry: ServingTelemetry | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        if isinstance(source, ModelRegistry):
            self.registry = source
        else:
            self.registry = ModelRegistry()
            self.registry.register(model_name, source)
        self.model_name = model_name
        self.registry.get(model_name)  # fail fast on unknown names
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry()
        self._kernel = PipelineKernel(self.config)
        self._served_version: int | None = None
        self._feature_cache_active = False
        self._closed = False
        # rid → (caller's future, request, arrival, model version and
        # feature-cache flag at admission); the action resolving the rid
        # pops it and answers the caller.
        self._waiters: dict[int, tuple] = {}

    # -- waiters ----------------------------------------------------------------------

    @staticmethod
    def _owned_future() -> "Future[PredictionResult]":
        """A caller-facing future only :meth:`_complete` / :meth:`_fail` resolve.

        Marked running, so a caller (or an asyncio wrapper) can abandon it
        but never cancel it: resolving a cancelled future would raise inside
        the driver instead of touching only the one request.
        """
        future: "Future[PredictionResult]" = Future()
        future.set_running_or_notify_cancel()
        return future

    def _tenant_of(self, rid: int) -> str | None:
        waiter = self._waiters.get(rid)
        return None if waiter is None else waiter[1].tenant

    def _complete(self, action: Complete) -> None:
        waiter = self._waiters.pop(action.rid, None)
        if waiter is not None:
            future, request, arrival, version, feature_cache_active = waiter
            future.set_result(
                PredictionResult(
                    memory_mb=action.value,
                    request_id=request.request_id,
                    model_name=self.model_name,
                    model_version=version,
                    latency_s=time.monotonic() - arrival,
                    cache_hit=action.cache_hit,
                    feature_cache_active=feature_cache_active,
                )
            )

    def _fail(self, rid: int, error: BaseException) -> None:
        waiter = self._waiters.pop(rid, None)
        if waiter is not None:
            waiter[0].set_exception(error)

    # -- model call -------------------------------------------------------------------

    def _predict_batch(self, workloads: list[Workload]) -> Sequence[float]:
        # Prefer the vectorized workload-batch convention, fall back to the
        # predict_workload protocol when the model's predict doesn't follow
        # it — the shared logic lives in repro.api.predict_values.  The
        # model is resolved from the registry *per batch*, so a promotion
        # takes effect on the next batch without restarting the server.
        model = self.registry.active(self.model_name)
        return predict_values(model, workloads)

    def _feature_cache_flag(self) -> bool:
        # Cached per swap so the typed request path does not pay a registry
        # resolution + stats snapshot per request just to stamp a boolean
        # on each PredictionResult.
        return _model_feature_cache_stats(self.registry.active(self.model_name)) is not None

    # -- stats ------------------------------------------------------------------------

    def cache_stats(self) -> CacheStats | None:
        """Prediction-cache counters, or ``None`` when caching is disabled."""
        return self._kernel.cache_stats()

    def feature_cache_stats(self) -> FeatureCacheStats | None:
        """The active model's plan-feature cache counters, if it has any.

        The cache lives on the model (not the server), so the counters are
        shared with every other consumer of the same model instance —
        admission control, the scheduler, direct calls.
        """
        return _model_feature_cache_stats(self.registry.active(self.model_name))

    def batcher_stats(self) -> BatcherStats | None:
        """Micro-batcher counters, or ``None`` when batching is disabled."""
        if not self.config.enable_batching:
            return None
        return self._kernel.batcher_stats()

    @property
    def coalesced_requests(self) -> int:
        """Requests answered by attaching to an identical in-flight request."""
        return self._kernel.coalesced_requests
