"""Tests for the asyncio serving backend.

The async server must be a behavioral twin of the thread-backed
:class:`PredictionServer`: same cache/coalescing/batching semantics, same
typed provenance, same protocol surfaces — plus a coroutine-native API that
composes with a caller's own event loop.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from oracle import CountingPredictor, GatedLookupPredictor, make_lookup_pool

from repro.api import CachePolicy, PredictionRequest, Predictor
from repro.core.workload import make_workloads
from repro.exceptions import DeadlineExceededError, ServingError
from repro.integration.admission import AdmissionController
from repro.integration.predictors import ConstantMemoryPredictor
from repro.serving import (
    AsyncPredictionServer,
    LoadGenerator,
    ModelRegistry,
    ServerConfig,
    ServingTelemetry,
)


def typed(workloads):
    return [PredictionRequest.of(workload) for workload in workloads]


@pytest.fixture(scope="module")
def workload_pool(tpcds_small):
    return make_workloads(tpcds_small.test_records, 10, seed=3)


class TestSyncFacade:
    def test_single_prediction(self, workload_pool):
        with AsyncPredictionServer(ConstantMemoryPredictor(48.0)) as server:
            assert server.predict_workload(workload_pool[0]) == 48.0

    def test_satisfies_the_predictor_protocol(self):
        server = AsyncPredictionServer(ConstantMemoryPredictor(1.0))
        try:
            assert isinstance(server, Predictor)
        finally:
            server.close()

    def test_batch_prediction_matches_model(self, tpcds_small, workload_pool):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:300])
        expected = model.predict(workload_pool[:8])
        with AsyncPredictionServer(model) as server:
            served = [r.memory_mb for r in server.predict_batch(typed(workload_pool[:8]))]
        np.testing.assert_allclose(served, expected, rtol=1e-9)

    def test_predict_batch_preserves_order(self, workload_pool):
        predictor = CountingPredictor()
        with AsyncPredictionServer(predictor) as server:
            results = [r.memory_mb for r in server.predict_batch(typed(workload_pool[:12]))]
        assert results == [predictor.value] * 12

    def test_submit_after_close_raises(self, workload_pool):
        server = AsyncPredictionServer(ConstantMemoryPredictor(1.0))
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServingError):
            server.submit_request(PredictionRequest.of(workload_pool[0]))

    def test_typed_result_carries_provenance(self, workload_pool):
        registry = ModelRegistry()
        registry.register("m", ConstantMemoryPredictor(5.0))
        with AsyncPredictionServer(registry, model_name="m") as server:
            first = server.predict(PredictionRequest.of(workload_pool[0]))
            repeat = server.predict(PredictionRequest.of(workload_pool[0]))
        assert first.model_name == "m" and first.model_version == 1
        assert first.cache_hit is False
        assert repeat.cache_hit is True
        assert repeat.memory_mb == first.memory_mb == 5.0

    def test_bypass_policy_reaches_the_model(self, workload_pool):
        predictor = CountingPredictor()
        with AsyncPredictionServer(predictor) as server:
            server.predict(PredictionRequest.of(workload_pool[0]))
            calls = predictor.calls
            bypass = server.predict(
                PredictionRequest.of(workload_pool[0], cache_policy=CachePolicy.BYPASS)
            )
            assert predictor.calls == calls + 1
            assert bypass.cache_hit is False

    def test_deadline_miss_raises_serving_error(self, workload_pool):
        predictor = CountingPredictor(delay_s=0.3)
        config = ServerConfig(enable_cache=False, max_wait_s=0.0)
        with AsyncPredictionServer(predictor, config=config) as server:
            with pytest.raises(ServingError, match="deadline"):
                server.predict(PredictionRequest.of(workload_pool[0], deadline_s=0.01))


class TestCachingAndCoalescing:
    def test_repeated_workload_hits_cache(self, workload_pool):
        predictor = CountingPredictor()
        with AsyncPredictionServer(predictor, config=ServerConfig(max_wait_s=0.0)) as server:
            server.predict_workload(workload_pool[0])
            first_calls = predictor.calls
            for _ in range(5):
                server.predict_workload(workload_pool[0])
            assert predictor.calls == first_calls
            stats = server.cache_stats()
        assert stats.hits == 5

    def test_burst_of_identical_requests_coalesces(self, workload_pool):
        predictor = CountingPredictor()
        config = ServerConfig(max_batch_size=64, max_wait_s=0.05)
        with AsyncPredictionServer(predictor, config=config) as server:
            futures = [
                server.submit_request(PredictionRequest.of(workload_pool[0])) for _ in range(20)
            ]
            results = [f.result(timeout=5.0).memory_mb for f in futures]
            assert results == [predictor.value] * 20
            # One unique signature -> exactly one batched model call.
            assert sum(predictor.batch_sizes) == 1
            assert server.coalesced_requests == 19

    def test_micro_batching_coalesces_distinct_workloads(self, workload_pool):
        predictor = CountingPredictor()
        config = ServerConfig(max_batch_size=32, max_wait_s=0.05)
        with AsyncPredictionServer(predictor, config=config) as server:
            futures = [server.submit_request(r) for r in typed(workload_pool[:12])]
            for future in futures:
                future.result(timeout=5.0)
            stats = server.batcher_stats()
        assert stats.requests == 12
        assert stats.batches < 12
        assert stats.max_batch_size_seen > 1

    def test_cache_disabled_calls_model_every_time(self, workload_pool):
        predictor = CountingPredictor()
        config = ServerConfig(enable_cache=False, enable_batching=False)
        with AsyncPredictionServer(predictor, config=config) as server:
            for _ in range(3):
                server.predict_workload(workload_pool[0])
            assert server.cache_stats() is None
            assert server.batcher_stats() is None
        assert predictor.calls == 3

    def test_flush_on_size_splits_oversized_waves(self, workload_pool):
        predictor = CountingPredictor()
        config = ServerConfig(max_batch_size=4, max_wait_s=0.05)
        with AsyncPredictionServer(predictor, config=config) as server:
            futures = [server.submit_request(r) for r in typed(workload_pool[:10])]
            for future in futures:
                future.result(timeout=5.0)
            stats = server.batcher_stats()
        assert stats.max_batch_size_seen <= 4
        assert stats.size_flushes >= 1


class TestHotSwap:
    def test_promotion_changes_served_model_and_clears_cache(self, workload_pool):
        registry = ModelRegistry()
        registry.register("m", ConstantMemoryPredictor(10.0))
        with AsyncPredictionServer(registry, model_name="m") as server:
            assert server.predict_workload(workload_pool[0]) == 10.0
            registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
            assert server.predict_workload(workload_pool[0]) == 99.0

    def test_rollback_restores_old_answers(self, workload_pool):
        registry = ModelRegistry()
        registry.register("m", ConstantMemoryPredictor(10.0))
        registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
        with AsyncPredictionServer(registry, model_name="m") as server:
            assert server.predict_workload(workload_pool[0]) == 99.0
            registry.rollback("m")
            assert server.predict_workload(workload_pool[0]) == 10.0

    def test_unknown_model_name_fails_fast(self):
        with pytest.raises(ServingError):
            AsyncPredictionServer(ModelRegistry(), model_name="missing")

    def test_post_swap_request_does_not_coalesce_onto_pre_swap_computation(
        self, workload_pool
    ):
        """Regression: promotion cleared the cache but not the singleflight
        table, so a post-swap request could attach to a pre-swap computation
        and repopulate the fresh cache with the old model's value."""
        registry = ModelRegistry()
        registry.register("m", CountingPredictor(value=10.0, delay_s=0.3))
        config = ServerConfig(max_wait_s=0.0)
        with AsyncPredictionServer(registry, model_name="m", config=config) as server:
            # In flight on the old model.
            stale = server.submit_request(PredictionRequest.of(workload_pool[0]))
            time.sleep(0.05)
            registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
            fresh = server.submit_request(PredictionRequest.of(workload_pool[0]))
            assert fresh.result(timeout=5.0).memory_mb == 99.0
            assert stale.result(timeout=5.0).memory_mb == 10.0  # admitted pre-swap
            # The pre-swap computation must not have repopulated the fresh
            # cache: a repeat still sees the promoted model's answer.
            assert server.predict_workload(workload_pool[0]) == 99.0
            assert server.coalesced_requests == 0


class TestAsyncNativeSurface:
    def test_predict_async_from_a_caller_loop(self, workload_pool):
        async def drive():
            with AsyncPredictionServer(ConstantMemoryPredictor(42.0)) as server:
                result = await server.predict_async(PredictionRequest.of(workload_pool[0]))
                repeat = await server.predict_async(PredictionRequest.of(workload_pool[0]))
                return result, repeat

        result, repeat = asyncio.run(drive())
        assert result.memory_mb == 42.0 and result.cache_hit is False
        assert repeat.cache_hit is True

    def test_predict_batch_async_submits_before_awaiting(self, workload_pool):
        predictor = CountingPredictor()
        config = ServerConfig(max_batch_size=32, max_wait_s=0.05)

        async def drive():
            with AsyncPredictionServer(predictor, config=config) as server:
                requests = [PredictionRequest.of(w) for w in workload_pool[:8]]
                return await server.predict_batch_async(requests)

        results = asyncio.run(drive())
        assert [r.memory_mb for r in results] == [predictor.value] * 8
        # All eight were in flight together, so they formed real batches.
        assert max(predictor.batch_sizes) > 1

    def test_concurrent_tasks_share_the_server(self, workload_pool):
        async def drive():
            with AsyncPredictionServer(ConstantMemoryPredictor(7.0)) as server:
                tasks = [
                    asyncio.create_task(server.predict_async(PredictionRequest.of(w)))
                    for w in workload_pool[:10]
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(drive())
        assert [r.memory_mb for r in results] == [7.0] * 10

    def test_cancelled_deadline_request_leaves_no_stale_inflight(self, workload_pool):
        """A deadline-cancelled request must not pin its in-flight entry.

        Regression test: the cancelled owner used to leak its singleflight
        entry, so every later identical request attached to the stale future
        and kept getting the old model's value — surviving even a hot swap
        (promotion clears the cache, not the in-flight table).
        """
        slow = CountingPredictor(value=16.0, delay_s=0.2)
        registry = ModelRegistry()
        registry.register("m", slow)
        config = ServerConfig(max_wait_s=0.0)

        async def drive():
            with AsyncPredictionServer(registry, model_name="m", config=config) as server:
                with pytest.raises(ServingError, match="deadline"):
                    await server.predict_async(
                        PredictionRequest.of(workload_pool[0], deadline_s=0.01)
                    )
                await asyncio.sleep(0.5)  # let the orphaned batch finish
                registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
                result = await server.predict_async(PredictionRequest.of(workload_pool[0]))
                return result.memory_mb

        assert asyncio.run(drive()) == 99.0

    def test_async_deadline_miss_raises(self, workload_pool):
        predictor = CountingPredictor(delay_s=0.3)
        config = ServerConfig(enable_cache=False, max_wait_s=0.0)

        async def drive():
            with AsyncPredictionServer(predictor, config=config) as server:
                await server.predict_async(
                    PredictionRequest.of(workload_pool[0], deadline_s=0.01)
                )

        with pytest.raises(ServingError, match="deadline"):
            asyncio.run(drive())


class TestDeadlines:
    def test_expired_request_is_shed_before_the_model(self, workload_pool):
        predictor = CountingPredictor()
        with AsyncPredictionServer(predictor) as server:
            doomed = server.submit_request(
                PredictionRequest.of(
                    workload_pool[0], deadline_s=1e-9, cache_policy=CachePolicy.BYPASS
                )
            )
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5.0)
            report = server.snapshot()
        assert predictor.calls == 0  # never occupied a batch slot
        assert report.shed_requests == 1
        assert report.deadline_misses == 1
        assert report.n_errors == 0

    def test_queued_request_expiring_behind_a_slow_batch_is_shed(self, workload_pool):
        predictor = CountingPredictor(delay_s=0.3)
        config = ServerConfig(max_wait_s=0.0)
        with AsyncPredictionServer(predictor, config=config) as server:
            blocker = server.submit_request(PredictionRequest.of(workload_pool[0]))
            time.sleep(0.05)  # first batch occupies the single model worker
            doomed = server.submit_request(
                PredictionRequest.of(workload_pool[1], deadline_s=0.1)
            )
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0).memory_mb == predictor.value
            assert server.batcher_stats().shed_requests == 1
            report = server.snapshot()
        # Only the blocker's batch reached the model: the expired request
        # was shed at execution start, behind the executor queue.
        assert predictor.batch_sizes == [1]
        assert report.shed_requests == 1

    def test_predict_batch_deadline_clock_starts_at_submission(self, workload_pool):
        """Regression: request *i*'s budget must not grow by the time spent
        awaiting requests before it in the batch loop."""
        predictor = CountingPredictor(delay_s=0.25)
        config = ServerConfig(max_batch_size=1, max_wait_s=0.0, enable_cache=False)
        with AsyncPredictionServer(predictor, config=config) as server:
            requests = [
                PredictionRequest.of(workload_pool[i], deadline_s=0.4) for i in range(3)
            ]
            with pytest.raises(DeadlineExceededError):
                server.predict_batch(requests)

    def test_async_native_deadline_miss_is_counted_in_telemetry(self, workload_pool):
        """Regression: ``predict_async`` expiry used to cancel the handler
        coroutine, so the miss never reached the telemetry counters and the
        abandoned future warned 'exception was never retrieved'."""
        predictor = CountingPredictor(delay_s=0.3)
        config = ServerConfig(max_wait_s=0.0)

        async def drive(server):
            blocker = asyncio.wrap_future(
                server.submit_request(PredictionRequest.of(workload_pool[0]))
            )
            await asyncio.sleep(0.05)  # first batch occupies the model worker
            with pytest.raises(DeadlineExceededError):
                await server.predict_async(
                    PredictionRequest.of(workload_pool[1], deadline_s=0.1)
                )
            await blocker

        with AsyncPredictionServer(predictor, config=config) as server:
            asyncio.run(drive(server))
            # The abandoned request is still shed and accounted by the
            # pipeline, exactly as on the thread backend.
            deadline = time.monotonic() + 5.0
            while server.snapshot().shed_requests == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            report = server.snapshot()
        assert report.shed_requests == 1
        assert report.deadline_misses == 1
        assert report.n_errors == 0

    def test_predict_batch_async_deadline_clock_starts_at_submission(self, workload_pool):
        predictor = CountingPredictor(delay_s=0.25)
        config = ServerConfig(max_batch_size=1, max_wait_s=0.0, enable_cache=False)

        async def drive():
            with AsyncPredictionServer(predictor, config=config) as server:
                requests = [
                    PredictionRequest.of(workload_pool[i], deadline_s=0.4) for i in range(3)
                ]
                await server.predict_batch_async(requests)

        with pytest.raises(DeadlineExceededError):
            asyncio.run(drive())


class TestPriorityExecution:
    def test_ready_batches_execute_priority_first(self):
        """Same contract as the thread backend: the drainer picks the
        priority-1 batch over the older priority-0 backlog once the
        executor frees up."""
        model = GatedLookupPredictor()
        pool = make_lookup_pool(3)
        config = ServerConfig(max_batch_size=1, max_wait_s=0.0, enable_cache=False)
        with AsyncPredictionServer(model, config=config) as server:
            first = server.submit_request(PredictionRequest.of(pool[0]))
            assert model.started.wait(5.0)
            low = server.submit_request(PredictionRequest.of(pool[1]))
            high = server.submit_request(PredictionRequest.of(pool[2], priority=1))
            # Submission is asynchronous here (posted to the loop thread):
            # wait until both requests land in the kernel's pending queue
            # before letting the gated batch finish.  The kernel only cuts
            # batches while an execution slot is free, so the backlog waits
            # (priority-ordered) in _pending rather than the ready heap.
            deadline = time.monotonic() + 5.0
            while len(server._kernel._pending) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(server._kernel._pending) == 2
            model.release.set()
            for future in (first, low, high):
                future.result(timeout=5.0)
        assert model.order == [10.0, 30.0, 20.0]


class TestIntegrationAndTelemetry:
    def test_admission_controller_accepts_async_server(self, workload_pool):
        with AsyncPredictionServer(ConstantMemoryPredictor(40.0)) as server:
            controller = AdmissionController(server, memory_pool_mb=100.0)
            report = controller.run(workload_pool[:6])
        assert report.n_rounds == 3

    def test_load_generator_drives_async_server(self, workload_pool):
        from repro.workloads.replay import replay_requests_from_workloads

        requests = replay_requests_from_workloads(workload_pool, 60, repeat_fraction=0.6, seed=1)
        with AsyncPredictionServer(ConstantMemoryPredictor(8.0)) as server:
            report = LoadGenerator(server, requests, qps=600.0, benchmark="tpcds").run()
        assert report.n_requests == 60
        assert report.n_errors == 0
        assert report.achieved_qps > 0.0

    def test_snapshot_counts_and_errors(self, workload_pool):
        class FailingPredictor:
            def predict_workload(self, queries):
                raise RuntimeError("boom")

            def predict(self, workloads):
                raise RuntimeError("boom")

        with AsyncPredictionServer(ConstantMemoryPredictor(5.0)) as server:
            server.predict_batch(typed(workload_pool[:10]))
            report = server.snapshot()
        assert report.n_requests == 10
        assert report.latency_p50_ms <= report.latency_p99_ms

        config = ServerConfig(enable_cache=False, max_wait_s=0.0)
        with AsyncPredictionServer(FailingPredictor(), config=config) as server:
            with pytest.raises(RuntimeError):
                server.predict_workload(workload_pool[0])
            assert server.snapshot().n_errors == 1

    def test_shared_telemetry_accumulator(self, workload_pool):
        telemetry = ServingTelemetry()
        with AsyncPredictionServer(ConstantMemoryPredictor(1.0), telemetry=telemetry) as one:
            one.predict_batch(typed(workload_pool[:3]))
        with AsyncPredictionServer(ConstantMemoryPredictor(2.0), telemetry=telemetry) as two:
            two.predict_batch(typed(workload_pool[3:6]))
        assert telemetry.snapshot().n_requests == 6
