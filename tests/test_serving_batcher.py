"""The micro-batching contract (flush-on-size, flush-on-deadline, errors,
per-request deadlines: shedding, EDF ordering, wait clamping).

The policy lives in :class:`~repro.serving.kernel.PipelineKernel`; these
tests pin it end to end through the thread driver
(:class:`~repro.serving.server.PredictionServer`), with its real worker
thread and futures.  The prediction cache is off, so every request reaches
the batcher.
"""

import threading
import time

import pytest

from repro.api import PredictionRequest
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import DeadlineExceededError, InvalidParameterError, ServingError
from repro.serving import PredictionServer, ServerConfig


def make_workload(value: float) -> Workload:
    """A workload whose answer is ``value`` (distinct text: no coalescing)."""
    query = QueryRecord(
        sql=f"select {value!r}", plan=None, actual_memory_mb=value, optimizer_estimate_mb=0.0
    )
    return Workload(queries=[query], actual_memory_mb=value)


def serve(model, **config) -> PredictionServer:
    return PredictionServer(model, config=ServerConfig(enable_cache=False, **config))


def submit(server, value: float, deadline_s: float | None = None):
    return server.submit_request(PredictionRequest.of(make_workload(value), deadline_s=deadline_s))


def values(futures) -> list[float]:
    return [future.result(timeout=5.0).memory_mb for future in futures]


class RecordingPredictor:
    """Counts calls and batch sizes; returns each workload's label."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.batches: list[int] = []
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def predict(self, workloads):
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.batches.append(len(workloads))
        return [float(w.actual_memory_mb) for w in workloads]


class TestFlushOnSize:
    def test_full_batch_flushes_without_waiting(self):
        predictor = RecordingPredictor()
        # A wait long enough that only a size flush can explain fast results.
        with serve(predictor, max_batch_size=4, max_wait_s=30.0) as server:
            results = values([submit(server, i) for i in range(4)])
            stats = server.batcher_stats()
        assert results == [0.0, 1.0, 2.0, 3.0]
        assert predictor.batches == [4]
        assert stats.size_flushes == 1

    def test_oversubmission_splits_into_size_batches(self):
        predictor = RecordingPredictor(delay_s=0.02)
        with serve(predictor, max_batch_size=3, max_wait_s=30.0) as server:
            assert values([submit(server, i) for i in range(9)]) == [float(i) for i in range(9)]
        assert predictor.batches == [3, 3, 3]


class TestFlushOnDeadline:
    def test_single_request_flushes_at_deadline(self):
        predictor = RecordingPredictor()
        with serve(predictor, max_batch_size=1000, max_wait_s=0.01) as server:
            start = time.monotonic()
            result = values([submit(server, 7.0)])
            elapsed = time.monotonic() - start
            stats = server.batcher_stats()
        assert result == [7.0]
        assert elapsed < 2.0  # released by the window, not by batch size
        assert predictor.batches == [1]
        assert stats.deadline_flushes >= 1

    def test_zero_wait_serves_immediately(self):
        with serve(RecordingPredictor(), max_batch_size=1000, max_wait_s=0.0) as server:
            assert values([submit(server, 3.0)]) == [3.0]


class TestErrorsAndLifecycle:
    def test_failing_predictor_fails_every_future(self):
        class Exploding:
            def predict(self, workloads):
                raise RuntimeError("model fell over")

            def predict_workload(self, workload):
                raise RuntimeError("model fell over")

        with serve(Exploding(), max_batch_size=2, max_wait_s=0.005) as server:
            futures = [submit(server, i) for i in range(2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="model fell over"):
                    future.result(timeout=5.0)

    def test_wrong_prediction_count_raises_serving_error(self):
        with serve(RecordingPredictor(), max_batch_size=1, max_wait_s=0.0) as server:
            # The batched model call itself answers with too many values.
            server._predict_batch = lambda workloads: [1.0, 2.0, 3.0]
            with pytest.raises(ServingError):
                submit(server, 0.0).result(timeout=5.0)

    def test_close_drains_pending_requests(self):
        predictor = RecordingPredictor(delay_s=0.01)
        server = serve(predictor, max_batch_size=100, max_wait_s=30.0)
        futures = [submit(server, i) for i in range(5)]
        server.close()
        assert [f.result(timeout=1.0).memory_mb for f in futures] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_submit_after_close_raises(self):
        server = serve(RecordingPredictor())
        server.close()
        with pytest.raises(ServingError):
            submit(server, 0.0)

    def test_close_is_idempotent(self):
        server = serve(RecordingPredictor())
        server.close()
        server.close()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            serve(RecordingPredictor(), max_batch_size=0)
        with pytest.raises(InvalidParameterError):
            serve(RecordingPredictor(), max_wait_s=-1.0)

    def test_stats_accumulate(self):
        with serve(RecordingPredictor(), max_batch_size=2, max_wait_s=0.005) as server:
            values([submit(server, i) for i in range(4)])
            stats = server.batcher_stats()
        assert stats.requests == 4
        assert stats.batches >= 2
        assert stats.mean_batch_size <= 2.0
        assert stats.max_batch_size_seen <= 2


class BlockingPredictor:
    """Holds the worker inside a batch until released; records batch labels."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Event()
        self.batches: list[list[float]] = []
        self._lock = threading.Lock()

    def predict(self, workloads):
        self.started.set()
        assert self.release.wait(timeout=5.0)
        labels = [float(w.actual_memory_mb) for w in workloads]
        with self._lock:
            self.batches.append(labels)
        return labels


class TestDeadlines:
    def test_expired_item_is_shed_never_executed(self):
        predictor = BlockingPredictor()
        with serve(predictor, max_batch_size=1, max_wait_s=0.0) as server:
            blocker = submit(server, 1.0)
            assert predictor.started.wait(timeout=5.0)
            # Queued behind the executing batch; its budget runs out there.
            doomed = submit(server, 2.0, deadline_s=0.01)
            time.sleep(0.05)
            predictor.release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5.0)
            assert values([blocker]) == [1.0]
            stats = server.batcher_stats()
        assert stats.shed_requests == 1
        # The expired item never occupied a batch slot.
        assert all(2.0 not in batch for batch in predictor.batches)

    def test_near_expiring_items_are_taken_edf_first(self):
        predictor = BlockingPredictor()
        with serve(predictor, max_batch_size=2, max_wait_s=30.0) as server:
            # Two deadline-free items size-flush immediately and hold the
            # worker inside the model call.
            blockers = [submit(server, 0.0), submit(server, 0.5)]
            assert predictor.started.wait(timeout=5.0)
            loose = submit(server, 1.0, deadline_s=25.0)
            tight = submit(server, 2.0, deadline_s=10.0)
            medium = submit(server, 3.0, deadline_s=20.0)
            predictor.release.set()
            values([*blockers, loose, tight, medium])
        # The next batch after the blockers was cut earliest-deadline-first:
        # tight and medium ride it, loose takes the one after.
        assert predictor.batches == [[0.0, 0.5], [2.0, 3.0], [1.0]]

    def test_wait_clamped_to_tightest_member_deadline(self):
        predictor = RecordingPredictor()
        # The coalescing window alone would hold the request for 30 s; a
        # deadline inside the window must flush (not shed) it immediately.
        with serve(predictor, max_batch_size=1000, max_wait_s=30.0) as server:
            start = time.monotonic()
            assert values([submit(server, 7.0, deadline_s=5.0)]) == [7.0]
            assert time.monotonic() - start < 4.0
            stats = server.batcher_stats()
        assert stats.shed_requests == 0
        assert stats.deadline_flushes >= 1

    def test_deadline_free_items_are_unaffected(self):
        with serve(RecordingPredictor(), max_batch_size=4, max_wait_s=0.005) as server:
            assert values([submit(server, i) for i in range(4)]) == [0.0, 1.0, 2.0, 3.0]
            assert server.batcher_stats().shed_requests == 0
