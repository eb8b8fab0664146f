"""Asyncio serving backend: the event-loop driver of the pipeline kernel.

The thread-backed :class:`~repro.serving.server.PredictionServer` parks one
worker thread in a condition-variable wait to drive the
:class:`~repro.serving.kernel.PipelineKernel` — fine for in-process callers,
but an awkward substrate for network transports, where the natural
concurrency primitive is an event loop with thousands of cheap awaiting
tasks.  :class:`AsyncPredictionServer` drives the *same* kernel from an
asyncio loop instead:

* every request is admitted by one callback on a private event loop; the
  kernel is loop-confined, so cache hits and coalesced attachments are
  handled there without any further handoff or lock;
* the kernel's requested wake-up becomes one ``call_later`` timer; its
  ``FlushBatch`` actions become tasks that run the batched model call
  (CPU-bound numpy work) on a single-worker executor, so the loop keeps
  admitting and coalescing requests while a batch executes;
* expiry is re-checked on the executor thread at actual execution start
  (:func:`~repro.serving.kernel.split_expired`) — batches queue behind the
  model worker, and expired work must never reach the model.

The event loop lives on a private daemon thread, which buys both call
conventions at once: coroutine-native callers use :meth:`predict_async` /
:meth:`predict_batch_async` from *their own* loop, while the synchronous
facade (``submit_request`` / ``predict`` / ``predict_batch`` /
``predict_workload``) satisfies the :class:`repro.api.Predictor` protocol
and the ``WorkloadMemoryPredictor`` surface — so admission control, the
scheduler, the benchmarks and the
:class:`~repro.serving.loadgen.LoadGenerator` drive an async server
completely unchanged.

See ``docs/SERVING.md`` for the request lifecycle of both backends side by
side and for tuning guidance.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Sequence

from repro.api import CachePolicy, PredictionRequest, PredictionResult
from repro.exceptions import DeadlineExceededError, ServingError
from repro.serving.front import DEFAULT_MODEL_NAME, KernelDriverBase, submission_deadline
from repro.serving.kernel import (
    Action,
    FlushBatch,
    ServerConfig,
    apply_actions,
    flush_priority,
    split_expired,
)

__all__ = ["AsyncPredictionServer"]

#: Bound on how long close() waits for in-flight batches to drain.
_CLOSE_TIMEOUT_S = 10.0


class AsyncPredictionServer(KernelDriverBase):
    """Asyncio-backed online prediction service over a model registry.

    Accepts the same constructor arguments as
    :class:`~repro.serving.server.PredictionServer` (a registry or a bare
    predictor, a model name, a :class:`~repro.serving.kernel.ServerConfig`)
    plus an optional shared ``telemetry`` accumulator, which is how a
    :class:`~repro.serving.sharded.ShardedPredictionServer` folds several
    backends into one exact latency distribution.

    Example::

        from repro.serving.aio import AsyncPredictionServer

        with AsyncPredictionServer(model) as server:
            value = server.predict_workload(workload)          # sync facade
            # ...or, from inside any asyncio event loop:
            # result = await server.predict_async(PredictionRequest.of(workload))
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
        # Loop-confined state (touched only from the loop thread): the
        # kernel itself, the waiter futures its actions resolve, the batch
        # tasks its flushes spawn, and the single wake-up timer.
        self._ids = itertools.count(1)
        self._batch_tasks: set["asyncio.Task[None]"] = set()
        # Ready-to-execute flushes, ordered highest-priority-first (FIFO by
        # batch_id within a level); one drainer task feeds them to the
        # executor so a high-priority batch overtakes a low-priority
        # backlog instead of queueing FIFO behind it.
        self._ready: list[tuple[int, int, FlushBatch]] = []
        self._drainer: "asyncio.Task[None] | None" = None
        self._timer: asyncio.TimerHandle | None = None

        # Model calls are CPU-bound numpy work; one executor worker serializes
        # them (like the thread backend's single worker) while the loop keeps
        # admitting, caching and coalescing the next wave of requests.
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aio-model")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="aio-serving-loop", daemon=True
        )
        self._thread.start()

    # -- kernel plumbing (loop thread only) -------------------------------------------

    def _sync_version(self) -> None:
        """Poll the registry and feed the kernel a version event on change.

        Runs on the loop thread only, so the check-and-invalidate is
        naturally serialized; the kernel does the actual cache/singleflight
        clearing and generation bump.
        """
        version = self.registry.active_version(self.model_name)
        if version != self._served_version:
            self._apply(self._kernel.sync_version(version, time.monotonic()))
            self._served_version = version
            self._feature_cache_active = self._feature_cache_flag()

    def _apply(self, actions: list[Action]) -> None:
        """Perform kernel actions on the loop thread, then refresh the timer."""
        apply_actions(
            actions,
            telemetry=self.telemetry,
            complete=self._complete,
            fail=self._fail,
            flush=self._spawn_batch,
            tenant_of=self._tenant_of,
        )
        self._reschedule()

    def _reschedule(self) -> None:
        """Keep exactly one ``call_later`` timer at the kernel's wake-up."""
        wake_at = self._kernel.next_wakeup()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if wake_at is not None:
            self._timer = self._loop.call_later(
                max(wake_at - time.monotonic(), 0.0), self._on_timer
            )

    def _on_timer(self) -> None:
        self._timer = None
        self._apply(self._kernel.tick(time.monotonic()))

    def _spawn_batch(self, flush: FlushBatch) -> None:
        heapq.heappush(self._ready, (-flush_priority(flush), flush.batch_id, flush))
        # ``done()`` (not membership in _batch_tasks) decides whether a new
        # drainer is needed: the discard callback runs a loop step later,
        # and a push landing in that gap must not strand the heap.
        if self._drainer is None or self._drainer.done():
            self._drainer = self._loop.create_task(self._drain_batches())
            self._batch_tasks.add(self._drainer)
            self._drainer.add_done_callback(self._batch_tasks.discard)

    async def _drain_batches(self) -> None:
        """Execute ready flushes best-first until the heap runs dry.

        One drainer exists at a time (it lives in ``_batch_tasks``), so
        batches still execute one after another exactly like the thread
        backend's single worker — only the *order* is scheduling-aware.
        """
        while self._ready:
            flush = heapq.heappop(self._ready)[2]
            await self._execute(flush)

    def _run_batch(
        self, flush: FlushBatch
    ) -> tuple[float, Sequence[float], Exception | None]:
        """Executor-side batch body: re-check expiry, then call the model.

        Runs on the executor thread at the moment the batch actually starts
        executing — batches queue behind the single model-call worker, so
        this is where "expired work never reaches the model" is enforced.
        The kernel recomputes the identical partition from ``started_at``.
        Exceptions are returned, not raised, so the loop side still feeds
        the kernel a proper :meth:`PipelineKernel.batch_failed` event.
        """
        started_at = time.monotonic()
        live, _expired = split_expired(flush.entries, started_at)
        if not live:
            return started_at, [], None
        try:
            return started_at, self._predict_batch([entry.workload for entry in live]), None
        except Exception as exc:  # noqa: BLE001 - forwarded to every awaiter
            return started_at, [], exc

    async def _execute(self, flush: FlushBatch) -> None:
        started_at, values, error = await self._loop.run_in_executor(
            self._executor, self._run_batch, flush
        )
        now = time.monotonic()
        if error is None:
            actions = self._kernel.batch_done(flush.batch_id, started_at, values, now)
        else:
            actions = self._kernel.batch_failed(flush.batch_id, started_at, error, now)
        self._apply(actions)

    def _admit(
        self, request: PredictionRequest, signature: Any, future: "Future[PredictionResult]"
    ) -> None:
        """Loop side of :meth:`submit_request`: hand the kernel one ``Submit``.

        All pipeline semantics are the kernel's; the resolving action builds
        the :class:`~repro.api.PredictionResult` (:meth:`_complete`) and
        feeds telemetry through :func:`~repro.serving.kernel.apply_actions`.
        """
        arrival = time.monotonic()
        try:
            if self._closed:
                raise ServingError("cannot submit to a closed AsyncPredictionServer")
            self._sync_version()
            rid = next(self._ids)
            actions = self._kernel.submit(
                rid,
                request.workload,
                now=time.monotonic(),
                deadline_at=None if request.deadline_s is None else arrival + request.deadline_s,
                use_cache=request.cache_policy is not CachePolicy.BYPASS,
                signature=signature,
                tenant=request.tenant,
                priority=request.priority,
            )
        except Exception as exc:  # noqa: BLE001 - delivered to the caller
            future.set_exception(exc)
            return
        self._waiters[rid] = (
            future, request, arrival, self._served_version, self._feature_cache_active
        )
        self._apply(actions)

    # -- native asyncio surface -------------------------------------------------------

    @staticmethod
    def _consume_abandoned(future: "asyncio.Future") -> None:
        """Mark an abandoned future's exception retrieved (no-op on success).

        An expired wait abandons its future rather than cancelling it (the
        pipeline must finish and account for the request on its own); the
        eventual ``DeadlineExceededError`` would otherwise be reported as a
        "Future exception was never retrieved" warning.
        """
        if not future.cancelled():
            future.exception()

    async def predict_async(self, request: PredictionRequest) -> PredictionResult:
        """Answer one typed request; awaitable from any event loop.

        The request runs on the server's private loop, so callers on other
        loops (or several tasks on the same one) compose freely; a request
        ``deadline_s`` is enforced end-to-end (shed from the batch queue
        once expired) and bounds this wait, raising
        :class:`~repro.exceptions.DeadlineExceededError` on expiry.
        """
        results = await self.predict_batch_async([request])
        return results[0]

    async def predict_batch_async(
        self, requests: Sequence[PredictionRequest]
    ) -> list[PredictionResult]:
        """Typed batch form; all requests are submitted before any is awaited.

        Each request's deadline clock starts at its submission, not when its
        turn comes in the await loop below.  An expired wait abandons the
        request instead of cancelling it: the pipeline keeps the request
        (its future cannot be cancelled), so the shed/miss is still
        executed-or-shed and counted exactly as on the thread backend.
        """
        entries = [
            (
                request,
                submission_deadline(request),
                asyncio.wrap_future(self.submit_request(request)),
            )
            for request in requests
        ]
        for _, _, future in entries:
            future.add_done_callback(self._consume_abandoned)
        results: list[PredictionResult] = []
        for request, deadline_at, future in entries:
            if deadline_at is None:
                results.append(await future)
                continue
            try:
                results.append(
                    await asyncio.wait_for(
                        asyncio.shield(future),
                        timeout=max(deadline_at - time.monotonic(), 0.0),
                    )
                )
            except (TimeoutError, asyncio.TimeoutError) as exc:
                raise DeadlineExceededError(
                    f"request {request.request_id} missed its deadline "
                    f"({request.deadline_s:.3f} s)"
                ) from exc
        return results

    # -- the submission primitive (the facade builds the sync surface on it) -----------

    def submit_request(
        self, request: PredictionRequest, *, signature: Any = None
    ) -> "Future[PredictionResult]":
        """Asynchronously answer one typed request (concurrent future).

        The request is handed to the loop thread, which admits it into the
        kernel; the future resolves there when the kernel completes, sheds
        or fails it.  ``signature`` is the routing front's precomputed
        workload signature, if any.
        """
        if self._closed:
            raise ServingError("cannot submit to a closed AsyncPredictionServer")
        future = self._owned_future()
        self._loop.call_soon_threadsafe(self._admit, request, signature, future)
        return future

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Flush pending batches, drain in-flight work, and stop the loop."""
        if self._closed:
            return
        self._closed = True

        async def _drain() -> None:
            self._apply(self._kernel.close(time.monotonic()))
            while self._batch_tasks:
                await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None

        asyncio.run_coroutine_threadsafe(_drain(), self._loop).result(timeout=_CLOSE_TIMEOUT_S)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=_CLOSE_TIMEOUT_S)
        self._executor.shutdown(wait=True)
        self._loop.close()
