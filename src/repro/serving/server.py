"""The thread-backed serving front: a condition-variable driver of the kernel.

:class:`PredictionServer` turns any registered ``WorkloadMemoryPredictor``
into an online service.  The request pipeline itself — prediction cache →
in-flight coalescing (singleflight) → micro-batcher → registry-resolved
model, with deadline shedding, EDF batch cuts and hot-swap invalidation —
lives in the pure :class:`~repro.serving.kernel.PipelineKernel`; this module
is only the I/O driver that feeds it events and performs its actions with
real clocks, locks and futures:

* callers submit under one lock, handing the kernel a ``Submit`` event and
  parking on a :class:`concurrent.futures.Future` the kernel's ``Complete``
  / ``Shed`` / ``Fail`` actions resolve;
* one worker thread waits on a condition variable, ticking the kernel at
  its requested wake-ups and executing ``FlushBatch`` actions (the batched
  model call) off-lock;
* with batching disabled the flush happens inline on the caller thread (the
  naive baseline) — the kernel still coalesces identical concurrent
  requests in flight.

The server's one submission primitive is ``submit_request``, answering a
typed :class:`~repro.api.PredictionRequest` with a future of
:class:`~repro.api.PredictionResult`; the shared
:class:`~repro.serving.front.ServingFrontBase` facade builds the
:class:`repro.api.Predictor` protocol (``predict`` / ``predict_batch``) and
``predict_workload`` on it.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import Future
from typing import Any, Sequence

from repro.api import CachePolicy, PredictionRequest, PredictionResult
from repro.exceptions import ServingError
from repro.serving.front import DEFAULT_MODEL_NAME, KernelDriverBase
from repro.serving.kernel import (
    Action,
    FlushBatch,
    ServerConfig,
    apply_actions,
    flush_priority,
    split_expired,
)

__all__ = ["ServerConfig", "PredictionServer"]


class PredictionServer(KernelDriverBase):
    """Online workload-memory prediction service over a model registry.

    Parameters
    ----------
    source:
        Either a :class:`~repro.registry.ModelRegistry` (the model named
        ``model_name`` is served, tracking promotions) or a bare predictor
        object, which is wrapped in a fresh single-entry registry.
    model_name:
        Registry name to serve.
    config:
        Serving policy; defaults enable caching and micro-batching.
    telemetry:
        Optional externally owned accumulator.  A
        :class:`~repro.serving.sharded.ShardedPredictionServer` hands the
        same instance to every per-shard server so one snapshot holds the
        exact latency distribution of the whole fleet.
    """

    def __init__(
        self,
        source: Any,
        *,
        model_name: str = DEFAULT_MODEL_NAME,
        config: ServerConfig | None = None,
        telemetry: Any = None,
    ) -> None:
        super().__init__(source, model_name=model_name, config=config, telemetry=telemetry)
        self._work = threading.Condition()
        self._ids = itertools.count(1)
        # Ready-to-execute flushes, ordered highest-priority-first (FIFO by
        # batch_id within a priority level) so a high-priority batch never
        # waits behind a backlog of low-priority ones at the worker.
        self._ready: list[tuple[int, int, FlushBatch]] = []
        self._worker: threading.Thread | None = None
        if self.config.enable_batching:
            self._worker = threading.Thread(
                target=self._run, name="serving-kernel-worker", daemon=True
            )
            self._worker.start()

    # -- action plumbing ----------------------------------------------------------------

    def _collect(
        self, actions: list[Action], inline: "list[FlushBatch] | None" = None
    ) -> list[Action]:
        """Route flush actions (under the lock), defer the rest for off-lock.

        ``FlushBatch`` goes to the worker's ready queue — or, with batching
        disabled, to ``inline`` for the caller thread to execute — and every
        other action is returned for :meth:`_dispatch` outside the lock, so
        future callbacks never run while the kernel lock is held.
        """
        deferred: list[Action] = []
        for action in actions:
            if isinstance(action, FlushBatch):
                if inline is not None:
                    inline.append(action)
                else:
                    heapq.heappush(
                        self._ready, (-flush_priority(action), action.batch_id, action)
                    )
            else:
                deferred.append(action)
        return deferred

    def _dispatch(self, deferred: list[Action]) -> None:
        if deferred:
            apply_actions(
                deferred,
                telemetry=self.telemetry,
                complete=self._complete,
                fail=self._fail,
                flush=self._unexpected_flush,
                tenant_of=self._tenant_of,
            )

    @staticmethod
    def _unexpected_flush(action: FlushBatch) -> None:
        raise ServingError("FlushBatch leaked past _collect")  # pragma: no cover

    # -- request path -------------------------------------------------------------------

    def _sync_version(self) -> None:
        """Poll the registry and feed the kernel a version event on change.

        Runs on the request path *before* admission, so a promoted model's
        answers are never shadowed by the previous model's cache entries;
        the kernel does the actual invalidation (cache + singleflight +
        generation bump).
        """
        version = self.registry.active_version(self.model_name)
        if version == self._served_version:
            return
        deferred: list[Action] = []
        with self._work:
            if version != self._served_version:
                deferred = self._collect(self._kernel.sync_version(version, time.monotonic()))
                self._served_version = version
                self._feature_cache_active = self._feature_cache_flag()
                self._work.notify_all()
        self._dispatch(deferred)

    def submit_request(
        self, request: PredictionRequest, *, signature: Any = None
    ) -> "Future[PredictionResult]":
        """Asynchronously answer one typed :class:`~repro.api.PredictionRequest`.

        Cache hits resolve immediately; misses are handed to the kernel's
        micro-batcher (or executed inline when batching is disabled).  All
        pipeline semantics (cache provenance, BYPASS write-through,
        admission/queue/execution shedding, priority/fair-share scheduling,
        singleflight leadership rules) are the kernel's; see
        :meth:`PipelineKernel.submit`.  ``signature`` is the routing front's
        precomputed workload signature, if any, so the hot path hashes once.

        The resolved :class:`~repro.api.PredictionResult` carries the served
        model's name and version (the version active when the request was
        admitted), the request's observed latency, and provenance flags:
        ``cache_hit`` when the prediction cache or in-flight coalescing
        answered it, ``feature_cache_active`` when the served model carries
        a plan-feature cache below the prediction tier.

        A request ``deadline_s`` starts counting *here*, at admission: once
        the budget expires the request is shed from the batch queue (the
        future fails with :class:`~repro.exceptions.DeadlineExceededError`)
        instead of executing on the model.
        """
        if self._closed:
            raise ServingError("cannot submit to a closed PredictionServer")
        arrival = time.monotonic()
        deadline_at = None if request.deadline_s is None else arrival + request.deadline_s
        self._sync_version()
        future = self._owned_future()
        inline: list[FlushBatch] = []
        with self._work:
            rid = next(self._ids)
            actions = self._kernel.submit(
                rid,
                request.workload,
                now=time.monotonic(),
                deadline_at=deadline_at,
                use_cache=request.cache_policy is not CachePolicy.BYPASS,
                signature=signature,
                tenant=request.tenant,
                priority=request.priority,
            )
            # Registered before the lock is released, so before any action
            # that resolves it is dispatched.
            self._waiters[rid] = (
                future, request, arrival, self._served_version, self._feature_cache_active
            )
            deferred = self._collect(
                actions, inline=inline if not self.config.enable_batching else None
            )
            self._work.notify_all()
        self._dispatch(deferred)
        for flush in inline:
            # Batching disabled: the caller thread is the model worker.  The
            # kernel has already registered any singleflight leadership, so
            # identical concurrent submits from other threads coalesce onto
            # this execution.
            self._execute(flush)
        return future

    # -- worker -------------------------------------------------------------------------

    def _run(self) -> None:
        """Worker loop: tick the kernel at its wake-ups, execute its flushes."""
        while True:
            deferred: list[Action] = []
            batch: FlushBatch | None = None
            with self._work:
                while True:
                    deferred = self._collect(self._kernel.tick(time.monotonic()))
                    if self._ready:
                        batch = heapq.heappop(self._ready)[2]
                        break
                    if deferred:
                        break
                    if self._closed and self._kernel.idle():
                        return
                    wake_at = self._kernel.next_wakeup()
                    timeout = (
                        None if wake_at is None else max(wake_at - time.monotonic(), 0.0)
                    )
                    self._work.wait(timeout)
            self._dispatch(deferred)
            if batch is not None:
                self._execute(batch)

    def _execute(self, flush: FlushBatch) -> None:
        """Run one flushed batch on the model, off-lock, and feed back the result."""
        started_at = time.monotonic()
        live, _expired = split_expired(flush.entries, started_at)
        values: Sequence[float] = []
        error: Exception | None = None
        if live:
            try:
                values = self._predict_batch([entry.workload for entry in live])
            except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
                error = exc
        with self._work:
            if error is None:
                actions = self._kernel.batch_done(
                    flush.batch_id, started_at, values, time.monotonic()
                )
            else:
                actions = self._kernel.batch_failed(
                    flush.batch_id, started_at, error, time.monotonic()
                )
            deferred = self._collect(actions)
            self._work.notify_all()
        self._dispatch(deferred)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight requests and stop the worker thread."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            deferred = self._collect(self._kernel.close(time.monotonic()))
            self._work.notify_all()
        self._dispatch(deferred)
        if self._worker is not None:
            self._worker.join()
            self._worker = None
