"""Predictor protocol shared by the DBMS-integration components.

Every integration component (admission control, scheduling, capacity
planning, lifecycle management) only needs one capability from a memory
model: *given a workload, return its predicted working-memory demand in MB*.
:class:`~repro.core.model.LearnedWMP`, :class:`~repro.core.single_wmp.SingleWMP`
and :class:`~repro.core.single_wmp.SingleWMPDBMS` all expose that method, so
they satisfy the protocol without adapters.  Two reference predictors are
provided for experiments and tests:

* :class:`OracleMemoryPredictor` — returns the true collective memory (an
  upper bound on what any learned predictor can achieve),
* :class:`ConstantMemoryPredictor` — returns a fixed value (the "no model"
  straw man, useful as a lower bound and in unit tests).

Two serving-oriented helpers complete the module: :func:`batch_predict`
routes a list of workloads through a predictor's vectorized ``predict`` when
it has one (LearnedWMP, the baselines and
:class:`~repro.serving.server.PredictionServer` all do) and falls back to a
``predict_workload`` loop otherwise, and :class:`CachedPredictor` wraps any
predictor with the serving layer's LRU+TTL cache so integration components
that re-consult the model for the same workload (admission rounds, repeated
scheduling runs) skip redundant model calls.

This is the *legacy* (untyped) surface.  The components in this package now
consume the unified :class:`repro.api.Predictor` protocol — typed
:class:`~repro.api.PredictionRequest` in,
:class:`~repro.api.PredictionResult` out — and accept anything satisfying
either surface by coercing through :func:`repro.api.as_predictor`.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.api import predict_values
from repro.core.features import FeatureCacheStats
from repro.core.features import feature_cache_stats as _feature_cache_stats
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError
from repro.serving.cache import LRUTTLCache, workload_signature

__all__ = [
    "WorkloadMemoryPredictor",
    "OracleMemoryPredictor",
    "ConstantMemoryPredictor",
    "CachedPredictor",
    "batch_predict",
]


@runtime_checkable
class WorkloadMemoryPredictor(Protocol):
    """Anything that can predict the memory demand (MB) of a workload."""

    def predict_workload(
        self, queries: Sequence[QueryRecord] | Workload
    ) -> float:  # pragma: no cover - protocol definition
        ...


def _as_workload(queries: Sequence[QueryRecord] | Workload) -> Workload:
    if isinstance(queries, Workload):
        return queries
    return Workload(queries=list(queries))


class OracleMemoryPredictor:
    """Returns the actual collective memory of the workload.

    Only usable on workloads whose queries have already executed (the records
    carry ``actual_memory_mb``); it is the perfect-information reference the
    integration experiments compare learned predictors against.
    """

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        workload = _as_workload(queries)
        return float(workload.actual_memory_mb or 0.0)

    def predict(self, workloads: Sequence[Workload]) -> list[float]:
        """Convenience batch form matching the core models."""
        return [self.predict_workload(workload) for workload in workloads]


class ConstantMemoryPredictor:
    """Predicts the same fixed demand for every workload.

    A DBA rule of thumb ("every batch gets 64 MB") — the baseline a system has
    when it runs no model at all.
    """

    def __init__(self, memory_mb: float) -> None:
        if memory_mb < 0.0:
            raise InvalidParameterError("memory_mb must be >= 0")
        self.memory_mb = float(memory_mb)

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        return self.memory_mb

    def predict(self, workloads: Sequence[Workload]) -> list[float]:
        return [self.memory_mb for _ in workloads]


def batch_predict(
    predictor: WorkloadMemoryPredictor, workloads: Sequence[Workload]
) -> list[float]:
    """Predict every workload, batched when the predictor supports it.

    The core models and the reference predictors expose a vectorized
    ``predict(workloads)``; using it turns N model invocations into one
    (LearnedWMP assigns templates over the concatenated queries and calls the
    regressor once).  Predictors exposing only the protocol's
    ``predict_workload`` are handled with a plain loop — including objects
    whose ``predict`` turns out not to follow the workload-batch convention
    (e.g. an sklearn-style ``predict(X)``): a vectorized call that raises or
    returns the wrong number of values falls back to the loop, so satisfying
    the protocol alone remains sufficient.
    """
    return predict_values(predictor, list(workloads))


class CachedPredictor:
    """Memoizing adapter around any :class:`WorkloadMemoryPredictor`.

    Wraps the inner predictor with the serving layer's LRU+TTL cache, keyed
    on the workload's content signature.  Integration components that
    re-consult the model for the same workload — admission control re-costs
    every still-pending workload each round — hit the cache instead of
    re-running featurization and the regressor.

    This is the prediction-cache tier; it compounds with the inner model's
    own plan-feature cache (:class:`~repro.core.features.MemoizedFeaturizer`,
    on by default for the core models): a workload miss here still reuses
    cached feature rows for every plan the model has seen before, in any
    workload.  :meth:`feature_cache_stats` exposes that inner tier's
    counters alongside :meth:`cache_stats`.

    Parameters
    ----------
    predictor:
        The inner predictor.
    max_entries / ttl_s:
        Cache capacity and optional time-to-live (see
        :class:`~repro.serving.cache.LRUTTLCache`).
    """

    def __init__(
        self,
        predictor: WorkloadMemoryPredictor,
        *,
        max_entries: int = 2048,
        ttl_s: float | None = None,
    ) -> None:
        self.predictor = predictor
        self._cache = LRUTTLCache(max_entries, ttl_s=ttl_s)

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        key = workload_signature(queries)
        sentinel = object()
        cached = self._cache.get(key, sentinel)
        if cached is not sentinel:
            return float(cached)
        value = float(self.predictor.predict_workload(queries))
        self._cache.put(key, value)
        return value

    def predict(self, workloads: Sequence[Workload]) -> list[float]:
        """Batch prediction: only cache misses reach the inner predictor."""
        sentinel = object()
        results: list[float | None] = [None] * len(workloads)
        misses: list[int] = []
        for i, workload in enumerate(workloads):
            cached = self._cache.get(workload_signature(workload), sentinel)
            if cached is sentinel:
                misses.append(i)
            else:
                results[i] = float(cached)
        if misses:
            fresh = batch_predict(self.predictor, [workloads[i] for i in misses])
            for i, value in zip(misses, fresh):
                results[i] = value
                self._cache.put(workload_signature(workloads[i]), value)
        return [float(value) for value in results]  # type: ignore[arg-type]

    def is_cached(self, queries: Sequence[QueryRecord] | Workload) -> bool:
        """Whether the workload's prediction is currently cached (TTL-aware).

        A pure probe — counters and LRU order are untouched — used by
        :class:`repro.api.DirectPredictor` to stamp accurate ``cache_hit``
        provenance on typed :class:`~repro.api.PredictionResult` objects.
        """
        return self._cache.peek(workload_signature(queries))

    def predict_uncached(self, workloads: Sequence[Workload]) -> list[float]:
        """Batch prediction straight through to the inner predictor.

        The cache is neither read nor written: this is the
        :attr:`repro.api.CachePolicy.BYPASS` path of the typed API.
        """
        return batch_predict(self.predictor, workloads)

    def cache_stats(self):
        """Prediction-cache counters of this wrapper."""
        return self._cache.stats()

    def feature_cache_stats(self) -> FeatureCacheStats | None:
        """The inner model's plan-feature cache counters, if it has any."""
        return _feature_cache_stats(self.predictor)

    def clear_cache(self) -> None:
        """Drop every cached prediction (the inner feature cache is untouched)."""
        self._cache.clear()
