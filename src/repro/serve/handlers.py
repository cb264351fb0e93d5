"""HTTP request handling for the serve daemon.

Routes (see ``docs/serving.md`` for the full API reference):

========================  =====================================================
``POST /v1/check``        check one image (``{"image": {...}}``) or a batch
                          (``{"images": [...]}``) against the loaded model
``POST /v1/explain``      why did warnings fire on one attribute of one image
``POST /v1/suggest``      check plus remediation suggestions
``GET  /healthz``         process liveness (200 even under overload)
``GET  /readyz``          model loaded and serving; 503 "degraded" while a
                          page-severity alert incident is firing
``GET  /metrics``         Prometheus text exposition of the process registry
``GET  /statusz``         uptime, snapshot digest, admission state, SLOs
``GET  /alertz``          alert rules, firing/resolved incidents, timeline
``GET  /tracez``          tail-based trace exemplars (slowest + errored
                          requests, full span trees)
``GET  /flightz``         the always-on flight recorder's ring buffers
========================  =====================================================

Every request carries a trace id — ``X-Request-Id`` is propagated when
the client sends one, generated otherwise, and always echoed on the
response.  The request id **is** the trace id: model-serving POSTs build
a per-request :class:`~repro.obs.tracing.Tracer` rooted at
``TraceContext.root(request_id)``, so the admission wait, the replica
check, and any pool-worker shard spans (propagated through ENCB task
frames) render as one causally-linked trace.  Requests also run under a
*private* per-request metrics registry
(:func:`~repro.obs.metrics.use_registry`): all pipeline instrumentation
the check emits lands there, the handler adds the request's own
``serve.request.latency`` observation (labels ``route``/``status``) and
``serve.requests.total`` increment, and the registry is folded into the
process-wide one under the server's fold lock *before* the response goes
out.  After the root span closes the finished trace is offered to the
server's :class:`~repro.obs.tracing.TraceExemplars` (``GET /tracez``
keeps the slowest and errored ones in full).  One structured access-log
line and (for successful model-serving requests) one run-ledger entry
carry the same request id, so log ↔ metrics ↔ ledger ↔ trace join
trivially.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import Dict, List, Optional, Tuple

from repro.core.report import Report, warning_to_dict
from repro.obs import get_logger
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import TraceContext, Tracer, use_tracer
from repro.serve.server import (
    ApiError,
    POST_ROUTES,
    SERVE_LATENCY_BUCKETS,
    new_request_id,
)
from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import ImageCorruptError, image_from_dict

access_log = get_logger("serve.access")
log = get_logger("serve.handler")

#: Request bodies above this are rejected with 413 before being read.
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass
class RequestOutcome:
    """What a successful model-serving dispatch produced."""

    payload: Dict[str, object]
    command: str
    targets_checked: int = 0
    warning_counts: Dict[str, int] = field(default_factory=dict)


def _count_kinds(reports: List[Report]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for report in reports:
        for warning in report.warnings:
            out[warning.kind.value] = out.get(warning.kind.value, 0) + 1
    return out


def _parse_image(data: object, key: str = "image") -> SystemImage:
    if not isinstance(data, dict):
        raise ApiError(400, f"{key!r} must be a snapshot object")
    try:
        return image_from_dict(data)
    except ImageCorruptError as exc:
        raise ApiError(400, f"invalid {key!r} snapshot: {exc.reason}")


class ServeHandler(BaseHTTPRequestHandler):
    """One instance per connection; ``self.server`` is the DetectionServer."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Responses go out as a header write and a body write; with Nagle's
    # algorithm on, the body waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Silence the stdlib stderr log; the structured access log replaces it."""

    @property
    def route(self) -> str:
        return self.path.split("?", 1)[0]

    def _request_id(self) -> str:
        supplied = (self.headers.get("X-Request-Id") or "").strip()
        # Propagate the caller's id (truncated defensively), else mint one.
        return supplied[:64] if supplied else new_request_id()

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        request_id: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        blob = (json.dumps(payload, indent=1) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("X-Request-Id", request_id)
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        try:
            self.wfile.write(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the request still counted

    def _send_text(self, status: int, text: str, request_id: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        blob = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("X-Request-Id", request_id)
        self.end_headers()
        try:
            self.wfile.write(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _access_log(self, method: str, route: str, status: int,
                    started: float, request_id: str) -> None:
        access_log.info(
            "request",
            request_id=request_id,
            method=method,
            route=route,
            status=status,
            ms=round((time.monotonic() - started) * 1000.0, 3),
            remote=self.client_address[0],
        )

    def _count_get(self, route: str, status: int) -> None:
        server = self.server
        with server.metrics_lock:
            server.registry.counter(
                "serve.requests.total", route=route, status=str(status)
            ).inc()

    def _read_body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ApiError(400, "invalid Content-Length")
        if length <= 0:
            raise ApiError(400, "request body required")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            raise ApiError(400, "request body is not valid JSON")
        if not isinstance(data, dict):
            raise ApiError(400, "request body must be a JSON object")
        return data

    # -- GET: health / metrics / status ----------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        server = self.server
        route = self.route
        request_id = self._request_id()
        started = time.monotonic()
        if route == "/healthz":
            # Liveness only: must answer 200 while POSTs are being shed.
            status = 200
            self._send_json(status, {"status": "ok",
                                     "uptime_s": round(server.uptime_s(), 3)},
                            request_id)
        elif route == "/readyz":
            # Page-severity incidents degrade readiness: a load balancer
            # drains a replica whose SLO is burning, without killing it
            # (liveness stays 200 so the process is left to recover).
            degraded = server.degraded_incidents()
            ready = server.ready and not degraded
            status = 200 if ready else 503
            body: Dict[str, object] = {
                "status": ("ready" if ready
                           else "degraded" if server.ready else "loading"),
                "generation": server.pool.generation,
            }
            if degraded:
                body["incidents"] = [i.rule for i in degraded]
            self._send_json(status, body, request_id)
        elif route == "/alertz":
            status = 200
            self._send_json(status, server.alertz(), request_id)
        elif route == "/tracez":
            status = 200
            self._send_json(status, server.tracez(), request_id)
        elif route == "/flightz":
            status = 200
            self._send_json(status, server.flightz(), request_id)
        elif route == "/metrics":
            status = 200
            self._send_text(status, server.prometheus(), request_id,
                            content_type="text/plain; version=0.0.4")
        elif route == "/statusz":
            status = 200
            self._send_json(status, server.statusz(), request_id)
        else:
            status = 404
            self._send_json(status,
                            {"error": f"unknown route {route!r}",
                             "request_id": request_id},
                            request_id)
        self._count_get(route, status)
        self._access_log("GET", route, status, started, request_id)

    # -- POST: the model-serving routes ----------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        server = self.server
        route = self.route
        request_id = self._request_id()
        started = time.monotonic()
        if route not in POST_ROUTES:
            self._send_json(404,
                            {"error": f"unknown route {route!r}",
                             "request_id": request_id},
                            request_id)
            self._count_get(route, 404)
            self._access_log("POST", route, 404, started, request_id)
            return
        # The request id is the trace root: a caller-supplied
        # X-Request-Id makes the whole request — admission wait, replica
        # check, pool shard work — joinable across services under the
        # caller's own id.
        registry = MetricsRegistry()
        tracer = Tracer(context=TraceContext.root(request_id))
        extra_headers: Optional[Dict[str, str]] = None
        outcome: Optional[RequestOutcome] = None
        elapsed = 0.0
        with use_registry(registry), use_tracer(tracer):
            with tracer.span("serve.request", route=route) as root:
                with tracer.span("serve.admission.wait") as wait:
                    admitted = server.admission.try_acquire()
                    wait.annotate(admitted=admitted)
                try:
                    if admitted:
                        status, payload, outcome = self._run_model_request(
                            route, request_id
                        )
                    else:
                        server.count_shed(route)
                        status = 429
                        payload = {
                            "error":
                                "overloaded: request shed by admission control",
                            "request_id": request_id,
                        }
                        extra_headers = {"Retry-After": "1"}
                finally:
                    if admitted:
                        server.admission.release()
                elapsed = self._observe(registry, route, status, started)
                root.annotate(status=status)
        # Fold + ledger + exemplar before the response goes out, so a
        # caller that immediately scrapes /metrics, tails the ledger, or
        # reads /tracez sees its own request.
        server.fold_request_metrics(registry)
        if outcome is not None and status == 200:
            server.record_request_entry(
                command=outcome.command,
                request_id=request_id,
                route=route,
                status=status,
                seconds=elapsed,
                targets_checked=outcome.targets_checked,
                warning_counts=outcome.warning_counts,
                trace_id=tracer.trace_id,
            )
        server.exemplars.offer(
            tracer.snapshot(), seconds=elapsed, route=route,
            status=status, request_id=request_id,
        )
        self._send_json(status, payload, request_id,
                        extra_headers=extra_headers)
        self._access_log("POST", route, status, started, request_id)

    @staticmethod
    def _observe(registry: MetricsRegistry, route: str, status: int,
                 started: float) -> float:
        elapsed = time.monotonic() - started
        registry.histogram(
            "serve.request.latency",
            buckets=SERVE_LATENCY_BUCKETS,
            route=route, status=str(status),
        ).observe(elapsed)
        registry.counter(
            "serve.requests.total", route=route, status=str(status)
        ).inc()
        return elapsed

    def _run_model_request(
        self, route: str, request_id: str
    ) -> Tuple[int, Dict[str, object], Optional[RequestOutcome]]:
        """Parse + dispatch under the caller-installed registry/tracer."""
        outcome: Optional[RequestOutcome] = None
        status = 500
        payload: Dict[str, object] = {
            "error": "internal error", "request_id": request_id,
        }
        try:
            body = self._read_body()
            outcome = self._dispatch(route, body, request_id)
            status, payload = 200, outcome.payload
        except ApiError as exc:
            status = exc.status
            payload = {"error": str(exc), "request_id": request_id}
        except Exception as exc:  # the daemon never dies on one request
            log.error("request.failed", request_id=request_id, route=route,
                      error=type(exc).__name__, detail=str(exc))
            payload = {"error": f"internal error: {type(exc).__name__}",
                       "request_id": request_id}
        return status, payload, outcome

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, route: str, body: Dict[str, object],
                  request_id: str) -> RequestOutcome:
        if route == "/v1/check":
            return self._handle_check(body, request_id)
        if route == "/v1/explain":
            return self._handle_explain(body, request_id)
        return self._handle_suggest(body, request_id)

    def _handle_check(self, body: Dict[str, object],
                      request_id: str) -> RequestOutcome:
        server = self.server
        if "images" in body:
            raw = body["images"]
            if not isinstance(raw, list) or not raw:
                raise ApiError(400, "'images' must be a non-empty list")
            images = [_parse_image(item, key=f"images[{i}]")
                      for i, item in enumerate(raw)]
            with server.pool.lease() as encore:
                reports = encore.check_many(
                    images,
                    workers=server.config.batch_workers,
                    chunk_size=server.config.batch_chunk_size,
                )
            return RequestOutcome(
                payload={
                    "request_id": request_id,
                    "reports": [report.to_dict() for report in reports],
                },
                command="serve.check",
                targets_checked=len(reports),
                warning_counts=_count_kinds(reports),
            )
        if "image" not in body:
            raise ApiError(400, "body must contain 'image' or 'images'")
        image = _parse_image(body["image"])
        with server.pool.lease() as encore:
            report = encore.check(image)
        return RequestOutcome(
            # The ``report`` object is Report.to_dict() verbatim — the
            # same function behind ``repro check --json`` — which is
            # what pins HTTP/CLI byte-identity (tests/test_serve.py).
            payload={"request_id": request_id, "report": report.to_dict()},
            command="serve.check",
            targets_checked=1,
            warning_counts=_count_kinds([report]),
        )

    def _handle_explain(self, body: Dict[str, object],
                        request_id: str) -> RequestOutcome:
        server = self.server
        attribute = body.get("attribute")
        if not isinstance(attribute, str) or not attribute:
            raise ApiError(400, "'attribute' (non-empty string) is required")
        if "image" not in body:
            raise ApiError(400, "'image' is required")
        image = _parse_image(body["image"])
        with server.pool.lease() as encore:
            report = encore.check(image)
        matches = report.warnings_for_attribute(attribute)
        return RequestOutcome(
            payload={
                "request_id": request_id,
                "image_id": report.image_id,
                "attribute": attribute,
                "warning_count": len(report.warnings),
                "matches": [
                    warning_to_dict(warning, rank)
                    for rank, warning in matches
                ],
            },
            command="serve.explain",
            targets_checked=1,
            warning_counts=_count_kinds([report]),
        )

    def _handle_suggest(self, body: Dict[str, object],
                        request_id: str) -> RequestOutcome:
        from repro.core.repair import RepairAdvisor

        server = self.server
        if "image" not in body:
            raise ApiError(400, "'image' is required")
        limit = body.get("limit", 20)
        if not isinstance(limit, int) or limit < 1:
            raise ApiError(400, "'limit' must be a positive integer")
        image = _parse_image(body["image"])
        with server.pool.lease() as encore:
            report = encore.check(image)
            assert encore.model is not None
            advisor = RepairAdvisor(encore.model.dataset)
            target = encore.assembler.assemble(image)
            suggestions = advisor.suggest(report, target)[:limit]
        return RequestOutcome(
            payload={
                "request_id": request_id,
                "image_id": report.image_id,
                "report": report.to_dict(),
                "suggestions": [
                    {
                        "action": suggestion.action.value,
                        "attribute": suggestion.attribute,
                        "proposal": suggestion.proposal,
                        "confidence": round(suggestion.confidence, 4),
                        "rationale": suggestion.rationale,
                    }
                    for suggestion in suggestions
                ],
            },
            command="serve.suggest",
            targets_checked=1,
            warning_counts=_count_kinds([report]),
        )
