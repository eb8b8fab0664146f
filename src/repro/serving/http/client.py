"""Blocking HTTP client for the gateway, shaped like an in-process server.

:class:`GatewayClient` satisfies the :class:`~repro.api.Predictor` protocol
(``predict`` / ``predict_batch``) *and* the serving surface the load
generator drives (``submit_request`` returning futures,
``snapshot``, ``cache_stats`` / ``batcher_stats``), so everything written
against an in-process :class:`~repro.serving.server.PredictionServer` can
point at a remote gateway by swapping one constructor:

    client = GatewayClient("http://127.0.0.1:8080")
    result = client.predict(PredictionRequest.of(workload))

The transport is stdlib :mod:`http.client` with one persistent keep-alive
connection per calling thread; concurrency comes from the caller's threads
(or from the small executor behind ``submit_request``), not from
the client.  Error bodies are mapped back to the library's exception
hierarchy via their stable wire ``code`` — a 504 raises
:class:`~repro.exceptions.DeadlineExceededError` just as an in-process
deadline miss would, so retry/shed handling code works unchanged across
transports.
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Mapping, Sequence
from urllib.parse import urlsplit

from repro.api import PredictionRequest, PredictionResult
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError, ServingError
from repro.serving.http.schemas import (
    error_from_wire,
    request_to_wire,
    result_from_wire,
)
from repro.serving.telemetry import TelemetryReport

__all__ = ["GatewayClient"]


class GatewayClient:
    """Blocking client of one :class:`~repro.serving.http.gateway.HttpGateway`.

    Parameters
    ----------
    url:
        Gateway base URL (``http://host:port``; a bare ``host:port`` is
        accepted).  Only plain HTTP — the gateway is an intra-cluster
        service behind whatever terminates TLS.
    timeout_s:
        Socket timeout of each HTTP call.
    max_workers:
        Threads behind :meth:`submit_request` (the future-returning
        surface the load generator drives).
    headers:
        Extra headers sent with every call (e.g. an auth token for a
        gateway running a real authenticator).
    """

    def __init__(
        self,
        url: str,
        *,
        timeout_s: float = 30.0,
        max_workers: int = 8,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        if timeout_s <= 0.0:
            raise InvalidParameterError("timeout_s must be > 0")
        if max_workers < 1:
            raise InvalidParameterError("max_workers must be >= 1")
        split = urlsplit(url if "://" in url else f"http://{url}")
        if split.scheme != "http":
            raise InvalidParameterError(
                f"GatewayClient speaks plain http, got scheme {split.scheme!r}"
            )
        if not split.hostname:
            raise InvalidParameterError(f"gateway URL {url!r} carries no host")
        self.host = split.hostname
        self.port = split.port if split.port is not None else 80
        self.timeout_s = float(timeout_s)
        self._headers = {str(name): str(value) for name, value in (headers or {}).items()}
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._pool: list[http.client.HTTPConnection] = []
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="gateway-client"
        )
        self._closed = False

    # -- transport ----------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._local.connection = connection
            with self._pool_lock:
                self._pool.append(connection)
        return connection

    def _discard_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            with self._pool_lock:
                if connection in self._pool:
                    self._pool.remove(connection)
            try:
                connection.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def _request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        headers: Mapping[str, str] | None = None,
    ) -> Any:
        """One HTTP round-trip; 4xx/5xx answers raise their mapped exception.

        A send that fails on a stale keep-alive connection (the gateway idled
        it out between calls) is retried once on a fresh connection; a
        failure on the fresh connection surfaces as
        :class:`~repro.exceptions.ServingError`.
        """
        if self._closed:
            raise ServingError("GatewayClient is closed")
        body = (
            json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
            if payload is not None
            else None
        )
        merged = dict(self._headers)
        if headers:
            merged.update(headers)
        if body is not None:
            merged.setdefault("Content-Type", "application/json")
        raw = b""
        status = 0
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(method, path, body=body, headers=merged)
                response = connection.getresponse()
                status = response.status
                raw = response.read()
                if response.headers.get("Connection", "").lower() == "close":
                    self._discard_connection()
                break
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self._discard_connection()
                if attempt:
                    raise ServingError(
                        f"gateway at {self.host}:{self.port} unreachable: {exc}"
                    ) from exc
        try:
            parsed = json.loads(raw) if raw else None
        except json.JSONDecodeError as exc:
            raise ServingError(
                f"gateway answered HTTP {status} with a non-JSON body"
            ) from exc
        if status >= 400:
            raise error_from_wire(parsed, status)
        return parsed

    def _predict_headers(self, request: PredictionRequest) -> dict[str, str]:
        headers = {"X-Request-Id": request.request_id}
        if request.deadline_s is not None:
            # The header is the transport-level deadline channel; the body's
            # deadline_ms says the same thing to schema-level consumers.
            # Both anchor at the gateway's header-parse instant.
            headers["X-Deadline-Ms"] = f"{1e3 * request.deadline_s:.3f}"
        return headers

    # -- the Predictor protocol ---------------------------------------------------

    def predict(self, request: PredictionRequest) -> PredictionResult:
        """One typed request over the wire, one typed result back."""
        payload = self._request(
            "POST",
            "/v1/predict",
            request_to_wire(request),
            self._predict_headers(request),
        )
        return result_from_wire(payload)

    def predict_batch(
        self, requests: Sequence[PredictionRequest]
    ) -> list[PredictionResult]:
        """Batched form: one ``/v1/predict_batch`` call, one submit wave."""
        if not requests:
            return []
        payload = self._request(
            "POST",
            "/v1/predict_batch",
            {"requests": [request_to_wire(request) for request in requests]},
        )
        if not isinstance(payload, Mapping) or not isinstance(payload.get("results"), list):
            raise ServingError("gateway batch answer lacks a 'results' array")
        return [
            result_from_wire(entry, f"results[{index}]")
            for index, entry in enumerate(payload["results"])
        ]

    # -- the serving surface (load generator / in-process interop) ---------------

    def submit_request(self, request: PredictionRequest) -> "Future[PredictionResult]":
        """Async form: a future resolving to the result (or raising mapped errors)."""
        return self._executor.submit(self.predict, request)

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        """Single-workload form (blocking; the WorkloadMemoryPredictor protocol)."""
        return self.predict(PredictionRequest.of(queries)).memory_mb

    def cache_stats(self) -> None:
        """Always ``None``: cache counters live server-side, in the scrape."""
        return None

    def batcher_stats(self) -> None:
        """Always ``None``: batch counters live server-side, in the scrape."""
        return None

    def snapshot(self) -> TelemetryReport:
        """The backend's :class:`TelemetryReport`, scraped over HTTP."""
        return TelemetryReport.from_dict(self.telemetry())

    # -- admin / observability ----------------------------------------------------

    def telemetry(self) -> dict[str, Any]:
        """The raw ``/v1/telemetry`` scrape (report + gateway + model sections)."""
        payload = self._request("GET", "/v1/telemetry")
        if not isinstance(payload, dict):
            raise ServingError("gateway telemetry answer is not a JSON object")
        return payload

    def healthz(self) -> dict[str, Any]:
        """The liveness document (status, model, active version, backend)."""
        payload = self._request("GET", "/healthz")
        if not isinstance(payload, dict):
            raise ServingError("gateway health answer is not a JSON object")
        return payload

    def promote(self, model: str, version: int) -> int:
        """Hot-swap ``model`` to ``version``; returns the new active version."""
        payload = self._request(
            "POST", "/v1/admin/promote", {"model": model, "version": version}
        )
        return int(payload["active_version"])

    def rollback(self, model: str) -> int:
        """Re-activate the previously active version; returns it."""
        payload = self._request("POST", "/v1/admin/rollback", {"model": model})
        return int(payload["active_version"])

    def lineage(self, model: str) -> list[dict[str, Any]]:
        """The registry lineage of ``model`` (newest last, as served)."""
        from urllib.parse import quote

        payload = self._request("GET", f"/v1/admin/lineage?model={quote(model)}")
        entries = payload.get("lineage") if isinstance(payload, Mapping) else None
        if not isinstance(entries, list):
            raise ServingError("gateway lineage answer lacks a 'lineage' array")
        return entries

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut the submit executor down and close pooled connections."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GatewayClient(http://{self.host}:{self.port})"
