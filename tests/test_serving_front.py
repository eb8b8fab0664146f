"""Unit coverage for :mod:`repro.serving.front` — the shared facade layer.

The serving fronts (thread, asyncio, sharded) were always exercised
end-to-end, which leaves the shared machinery they inherit — the
:class:`~repro.serving.front.ServingFrontBase` protocol facade, the
:class:`~repro.serving.front.KernelDriverBase` construction/stats layer,
and the deadline-budget helpers — covered only incidentally.  These tests
pin that layer directly, against a minimal synchronous front double, so a
facade regression is attributed to the facade rather than to whichever
driver happened to trip over it first.
"""

import threading
import time
from concurrent.futures import Future

import pytest
from oracle import LookupPredictor, make_lookup_pool

from repro.api import PredictionRequest, PredictionResult
from repro.core.features import FeatureCacheStats
from repro.core.workload import Workload
from repro.exceptions import DeadlineExceededError, UnknownModelError
from repro.registry import ModelRegistry
from repro.serving.front import (
    DEFAULT_MODEL_NAME,
    KernelDriverBase,
    ServingFrontBase,
    await_within_budget,
    submission_deadline,
)
from repro.serving.kernel import ServerConfig
from repro.serving.telemetry import ServingTelemetry

POOL = make_lookup_pool(6)


# -- deadline helpers ------------------------------------------------------------------


class TestSubmissionDeadline:
    def test_no_deadline_maps_to_none(self):
        assert submission_deadline(PredictionRequest.of(POOL[0])) is None

    def test_deadline_is_absolute_from_now(self):
        before = time.monotonic()
        deadline_at = submission_deadline(PredictionRequest.of(POOL[0], deadline_s=5.0))
        after = time.monotonic()
        assert before + 5.0 <= deadline_at <= after + 5.0


class TestAwaitWithinBudget:
    def test_resolved_future_returned_even_with_spent_budget(self):
        """An answer that is already paid for is delivered, never timed out."""
        request = PredictionRequest.of(POOL[0], deadline_s=5.0)
        future: "Future[PredictionResult]" = Future()
        result = PredictionResult(memory_mb=1.0, request_id=request.request_id)
        future.set_result(result)
        assert await_within_budget(request, future, time.monotonic() - 1.0) is result

    def test_unresolved_future_raises_typed_error_at_expiry(self):
        request = PredictionRequest.of(POOL[0], deadline_s=0.01)
        future: "Future[PredictionResult]" = Future()
        with pytest.raises(DeadlineExceededError, match=request.request_id):
            await_within_budget(request, future, time.monotonic() + 0.01)
        # Only the wait is abandoned: the pipeline still owns the future.
        assert not future.cancelled()

    def test_missing_deadline_at_falls_back_to_fresh_budget(self):
        request = PredictionRequest.of(POOL[0], deadline_s=0.01)
        with pytest.raises(DeadlineExceededError):
            await_within_budget(request, Future(), None)

    def test_no_deadline_waits_indefinitely(self):
        request = PredictionRequest.of(POOL[0])
        future: "Future[PredictionResult]" = Future()
        result = PredictionResult(memory_mb=2.0, request_id=request.request_id)
        timer = threading.Timer(0.02, future.set_result, args=(result,))
        timer.start()
        try:
            assert await_within_budget(request, future, None) is result
        finally:
            timer.cancel()


# -- the protocol facade ---------------------------------------------------------------


class SyncFront(ServingFrontBase):
    """A minimal front: the submission primitive answers synchronously."""

    def __init__(self) -> None:
        self.config = ServerConfig()
        self.telemetry = ServingTelemetry()
        self.model = LookupPredictor()
        self.closed = False

    def submit_request(self, request, *, signature=None) -> "Future[PredictionResult]":
        future: "Future[PredictionResult]" = Future()
        future.set_result(
            PredictionResult(
                memory_mb=self.model.predict_workload(request.workload),
                request_id=request.request_id,
            )
        )
        return future

    def feature_cache_stats(self):
        return None

    def close(self) -> None:
        self.closed = True


class TestServingFrontBase:
    def test_as_workload_passes_workloads_through_and_wraps_queries(self):
        assert SyncFront._as_workload(POOL[0]) is POOL[0]
        wrapped = SyncFront._as_workload(POOL[1].queries)
        assert isinstance(wrapped, Workload)
        assert wrapped.queries == list(POOL[1].queries)

    def test_predict_workload_blocks_on_submit(self):
        assert SyncFront().predict_workload(POOL[2]) == 30.0

    def test_predict_typed_form(self):
        request = PredictionRequest.of(POOL[3])
        result = SyncFront().predict(request)
        assert isinstance(result, PredictionResult)
        assert result.memory_mb == 40.0
        assert result.request_id == request.request_id

    def test_predict_batch_answers_in_request_order(self):
        requests = [PredictionRequest.of(w) for w in POOL[:3]]
        results = SyncFront().predict_batch(requests)
        assert [r.memory_mb for r in results] == [10.0, 20.0, 30.0]
        assert [r.request_id for r in results] == [r.request_id for r in requests]

    def test_snapshot_folds_feature_cache_counters(self):
        front = SyncFront()
        stats = FeatureCacheStats(hits=6, misses=2, evictions=1, size=4, max_entries=8)
        front.feature_cache_stats = lambda: stats
        report = front.snapshot()
        assert report.feature_cache_hits == 6
        assert report.feature_cache_misses == 2
        assert report.feature_cache_evictions == 1
        assert report.feature_cache_hit_rate == stats.hit_rate

    def test_snapshot_without_feature_cache_leaves_defaults(self):
        report = SyncFront().snapshot()
        assert report.feature_cache_hits == 0
        assert report.feature_cache_misses == 0

    def test_context_manager_closes_the_front(self):
        front = SyncFront()
        with front as entered:
            assert entered is front
            assert not front.closed
        assert front.closed


# -- the kernel-driver base ------------------------------------------------------------


class ConstantModel:
    def __init__(self, value: float) -> None:
        self.value = value

    def predict(self, workloads):
        return [self.value] * len(workloads)

    def predict_workload(self, workload):
        return self.value


class TestKernelDriverBase:
    def test_bare_predictor_is_wrapped_in_a_fresh_registry(self):
        driver = KernelDriverBase(ConstantModel(1.0))
        assert driver.model_name == DEFAULT_MODEL_NAME
        assert isinstance(driver.registry, ModelRegistry)
        assert driver.registry.active(DEFAULT_MODEL_NAME).value == 1.0

    def test_registry_source_is_used_as_is(self):
        registry = ModelRegistry()
        registry.register("wmp", ConstantModel(2.0))
        driver = KernelDriverBase(registry, model_name="wmp")
        assert driver.registry is registry

    def test_unknown_model_name_fails_fast_at_construction(self):
        registry = ModelRegistry()
        registry.register("wmp", ConstantModel(2.0))
        with pytest.raises(UnknownModelError):
            KernelDriverBase(registry, model_name="nope")

    def test_external_telemetry_instance_is_adopted(self):
        telemetry = ServingTelemetry()
        assert KernelDriverBase(ConstantModel(1.0), telemetry=telemetry).telemetry is telemetry
        assert isinstance(KernelDriverBase(ConstantModel(1.0)).telemetry, ServingTelemetry)

    def test_predict_batch_resolves_the_active_model_per_batch(self):
        """A promotion takes effect on the next batch, no restart needed."""
        registry = ModelRegistry()
        registry.register("default", ConstantModel(1.0))
        driver = KernelDriverBase(registry)
        assert driver._predict_batch(POOL[:2]) == [1.0, 1.0]
        registry.register("default", ConstantModel(9.0), promote=True)
        assert driver._predict_batch(POOL[:2]) == [9.0, 9.0]

    def test_stats_follow_the_config(self):
        on = KernelDriverBase(ConstantModel(1.0))
        assert on.cache_stats() is not None
        assert on.batcher_stats() is not None
        assert on.coalesced_requests == 0
        off = KernelDriverBase(
            ConstantModel(1.0),
            config=ServerConfig(enable_cache=False, enable_batching=False),
        )
        assert off.cache_stats() is None
        assert off.batcher_stats() is None

    def test_feature_cache_surfaces_follow_the_model(self):
        plain = KernelDriverBase(ConstantModel(1.0))
        assert plain.feature_cache_stats() is None
        assert plain._feature_cache_flag() is False
