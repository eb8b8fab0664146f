"""Route table and endpoint handlers of the HTTP gateway.

The router is an exact-match table ``path -> method -> handler`` (the API is
small and flat; no pattern matching needed).  Unknown paths answer 404
``not_found``; known paths with the wrong method answer 405
``method_not_allowed`` with an ``Allow`` header — both *before* any body
parsing, so probing traffic never costs model work.

Endpoints (see ``docs/GATEWAY.md`` for the wire reference and curl examples):

=========  ======================  ==============================================
method     path                    purpose
=========  ======================  ==============================================
POST       ``/v1/predict``         one prediction request -> one result
POST       ``/v1/predict_batch``   request list -> result list (one submit wave)
POST       ``/v1/admin/promote``   hot-swap the active model version
POST       ``/v1/admin/rollback``  re-activate the previously active version
GET        ``/v1/admin/lineage``   version history of a model (``?model=name``)
GET        ``/v1/telemetry``       full TelemetryReport scrape + gateway counters
GET        ``/healthz``            liveness + active model/version
=========  ======================  ==============================================

Deadline semantics: the effective expiry of a predict call is the *tightest*
of the ``X-Deadline-Ms`` header (clock anchored at header parse by the
deadline middleware) and the body's ``deadline_ms`` (same anchor).  A
request that is already expired when its handler runs is shed with 504
before touching the backend, and the shed lands in the backend's
``deadline_misses`` / ``shed_requests`` telemetry — indistinguishable, by
design, from a request shed out of a micro-batch queue.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING, Any

from repro.api import PredictionRequest, PredictionResult
from repro.exceptions import DeadlineExceededError, RequestValidationError
from repro.serving.http.middleware import (
    Handler,
    RequestContext,
    Response,
    json_response,
)
from repro.serving.http.schemas import (
    GatewayHttpError,
    ParsedPredictionRequest,
    batch_request_from_wire,
    request_from_wire,
    result_to_wire,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.http.gateway import HttpGateway

__all__ = ["Router", "build_router"]


class Router:
    """Exact-match route table: ``path -> method -> handler``."""

    def __init__(self) -> None:
        self._routes: dict[str, dict[str, Handler]] = {}

    def add(self, method: str, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``method path``; duplicates are an error."""
        by_method = self._routes.setdefault(path, {})
        if method in by_method:
            raise ValueError(f"route {method} {path} registered twice")
        by_method[method] = handler

    def routes(self) -> list[tuple[str, str]]:
        """Every registered ``(method, path)`` pair, sorted."""
        return sorted(
            (method, path)
            for path, by_method in self._routes.items()
            for method in by_method
        )

    async def __call__(self, ctx: RequestContext) -> Response:
        """Dispatch one request; 404/405 for unroutable ones."""
        by_method = self._routes.get(ctx.path)
        if by_method is None:
            raise GatewayHttpError(
                f"no route for {ctx.path!r}; routes: "
                f"{sorted(set(self._routes))}",
                code="not_found",
                status=404,
            )
        handler = by_method.get(ctx.method)
        if handler is None:
            allowed = ", ".join(sorted(by_method))
            error = GatewayHttpError(
                f"{ctx.method} not allowed on {ctx.path!r}; allowed: {allowed}",
                code="method_not_allowed",
                status=405,
            )
            error.allow = allowed  # picked up by the gateway's error writer
            raise error
        return await handler(ctx)


def _parse_json_body(ctx: RequestContext) -> Any:
    """The request body as JSON; malformed bodies are 400 ``invalid_request``."""
    if not ctx.body:
        raise RequestValidationError("request body must be a JSON object, got nothing")
    try:
        return json.loads(ctx.body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestValidationError(f"request body is not valid JSON: {exc}") from exc


def build_router(gateway: "HttpGateway") -> Router:
    """Wire the endpoint handlers of one gateway instance into a router."""

    def _effective_deadline_at(
        ctx: RequestContext, parsed: ParsedPredictionRequest
    ) -> float | None:
        """Tightest of the header deadline and the body's ``deadline_ms``.

        Both budgets are anchored at ``ctx.received_at`` (header parse):
        the body is part of the same request transmission, so its duration
        starts when the server first saw the request, not when the body
        finished uploading.
        """
        deadline_at = ctx.deadline_at
        if parsed.deadline_ms is not None:
            body_deadline = ctx.received_at + parsed.deadline_ms / 1e3
            deadline_at = (
                body_deadline if deadline_at is None else min(deadline_at, body_deadline)
            )
        return deadline_at

    def _bind_or_shed(
        ctx: RequestContext, parsed: ParsedPredictionRequest
    ) -> tuple[PredictionRequest, float | None]:
        """The typed request with its remaining budget, or a 504 shed.

        The shed is recorded in the backend's telemetry (``shed=True``), so
        an expired-on-arrival HTTP request is visible in the same
        ``deadline_misses`` / ``shed_requests`` counters as one shed from a
        micro-batch queue.
        """
        if parsed.request_id is None:
            parsed.request_id = ctx.request_id or None
        deadline_at = _effective_deadline_at(ctx, parsed)
        if deadline_at is None:
            return parsed.bind(None), None
        remaining = deadline_at - time.monotonic()
        if remaining <= 0.0:
            gateway.telemetry.record_deadline_miss(shed=True)
            raise DeadlineExceededError(
                f"request {parsed.request_id or '<anonymous>'} shed at the gateway: "
                f"deadline expired {-remaining * 1e3:.1f} ms before the handler ran"
            )
        return parsed.bind(remaining), deadline_at

    async def _await_result(
        future: "asyncio.Future[PredictionResult]", deadline_at: float | None
    ) -> PredictionResult:
        """Await a backend future, bounded by the remaining budget.

        The backend sheds and accounts for expired work on its own; this
        bound only abandons the gateway-side wait (mirroring
        :func:`repro.serving.front.await_within_budget`).
        """
        if deadline_at is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=max(deadline_at - time.monotonic(), 0.0)
            )
        except (TimeoutError, asyncio.TimeoutError) as exc:
            future.add_done_callback(_consume_abandoned)
            raise DeadlineExceededError(
                "request missed its deadline while the gateway awaited the backend"
            ) from exc

    def _consume_abandoned(future: "asyncio.Future") -> None:
        if not future.cancelled():
            future.exception()

    # -- predict -----------------------------------------------------------------

    async def predict(ctx: RequestContext) -> Response:
        parsed = request_from_wire(_parse_json_body(ctx))
        request, deadline_at = _bind_or_shed(ctx, parsed)
        future = asyncio.wrap_future(gateway.server.submit_request(request))
        result = await _await_result(future, deadline_at)
        return json_response(result_to_wire(result))

    async def predict_batch(ctx: RequestContext) -> Response:
        parsed_requests = batch_request_from_wire(_parse_json_body(ctx))
        # Submit every live request before awaiting any, so the backend's
        # micro-batcher sees the whole wave — the in-process predict_batch
        # convention.  Expired-on-arrival members shed the whole call (the
        # in-process batch call also raises on its first expired member).
        bound = [_bind_or_shed(ctx, parsed) for parsed in parsed_requests]
        futures = [
            asyncio.wrap_future(gateway.server.submit_request(request))
            for request, _ in bound
        ]
        try:
            results = [
                await _await_result(future, deadline_at)
                for future, (_, deadline_at) in zip(futures, bound)
            ]
        finally:
            for future in futures:
                future.add_done_callback(_consume_abandoned)
        return json_response({"results": [result_to_wire(result) for result in results]})

    # -- admin -------------------------------------------------------------------

    _PROMOTE_REQUIRED = frozenset({"model", "version"})
    _ROLLBACK_REQUIRED = frozenset({"model"})

    def _admin_fields(ctx: RequestContext, required: frozenset[str]) -> dict[str, Any]:
        body = _parse_json_body(ctx)
        if not isinstance(body, dict):
            raise RequestValidationError("admin body must be a JSON object")
        unknown = sorted(set(body) - required)
        if unknown:
            raise RequestValidationError(
                f"admin body carries unknown field(s) {unknown}; allowed: {sorted(required)}"
            )
        missing = sorted(required - set(body))
        if missing:
            raise RequestValidationError(f"admin body is missing field(s) {missing}")
        if not isinstance(body["model"], str) or not body["model"]:
            raise RequestValidationError("admin body field 'model' must be a non-empty string")
        return body

    async def admin_promote(ctx: RequestContext) -> Response:
        body = _admin_fields(ctx, _PROMOTE_REQUIRED)
        version = body["version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise RequestValidationError("admin body field 'version' must be an integer")
        gateway.registry.promote(body["model"], version)
        return json_response(
            {
                "model": body["model"],
                "active_version": gateway.registry.active_version(body["model"]),
            }
        )

    async def admin_rollback(ctx: RequestContext) -> Response:
        body = _admin_fields(ctx, _ROLLBACK_REQUIRED)
        version = gateway.registry.rollback(body["model"])
        return json_response({"model": body["model"], "active_version": version})

    async def admin_lineage(ctx: RequestContext) -> Response:
        model = ctx.query.get("model", "")
        if not model:
            raise RequestValidationError(
                "lineage needs a model name: GET /v1/admin/lineage?model=<name>"
            )
        active = gateway.registry.active_version(model)  # 404s on unknown names
        lineage = [
            {
                "version": entry.version,
                "model_class": entry.model_class,
                "registered_at": entry.registered_at,
                "source_path": str(entry.source_path) if entry.source_path else None,
                "n_training_records": entry.n_training_records,
                "validation_mape": entry.validation_mape,
                "reason": entry.reason,
                "active": entry.version == active,
            }
            for entry in gateway.registry.history(model)
        ]
        return json_response(
            {"model": model, "active_version": active, "lineage": lineage}
        )

    # -- telemetry / health ------------------------------------------------------

    async def telemetry(ctx: RequestContext) -> Response:
        payload = gateway.server.snapshot().to_dict()
        payload["gateway"] = gateway.gateway_stats()
        payload["model"] = {
            "name": gateway.model_name,
            "active_version": gateway.registry.active_version(gateway.model_name),
        }
        return json_response(payload)

    async def healthz(ctx: RequestContext) -> Response:
        return json_response(
            {
                "status": "ok",
                "model": gateway.model_name,
                "active_version": gateway.registry.active_version(gateway.model_name),
                "backend": type(gateway.server).__name__,
            }
        )

    router = Router()
    router.add("POST", "/v1/predict", predict)
    router.add("POST", "/v1/predict_batch", predict_batch)
    router.add("POST", "/v1/admin/promote", admin_promote)
    router.add("POST", "/v1/admin/rollback", admin_rollback)
    router.add("GET", "/v1/admin/lineage", admin_lineage)
    router.add("GET", "/v1/telemetry", telemetry)
    router.add("GET", "/healthz", healthz)
    return router
