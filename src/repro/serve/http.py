"""Minimal stdlib HTTP/JSON front end for :class:`AuditService`.

No web framework: a :class:`http.server.ThreadingHTTPServer` serving
four routes, so ``repro serve`` carries zero new dependencies.

Routes
------
``GET /healthz``
    ``{"status": "ok", "fingerprint": ...}`` — liveness probe.
``GET /manifest``
    The bundle's serving metadata (column roles, audit knobs).
``POST /audit-one-row``
    Body ``{"row": {column: value, ...}}`` → one verdict object.
``POST /audit-batch``
    Body ``{"rows": [{...}, ...]}`` → ``{"results": [...]}``.

Malformed JSON, unknown routes, and :class:`AuditRequestError` map to
400/404 with a JSON ``{"error": ...}`` body; unexpected failures map
to 500.  A ``Content-Length`` that is not a non-negative integer gets
400 and one above :data:`MAX_BODY_BYTES` gets 413; both are answered
without reading the body, and the connection is then closed.  All
error paths count on the ``serve.errors`` counter, requests on
``serve.requests`` (via the service).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import obs
from .service import AuditRequestError, AuditService

__all__ = ["AuditHTTPServer", "MAX_BODY_BYTES", "serve_forever"]

log = logging.getLogger("repro.serve")

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Largest request body accepted (a 64-row batch is a few KiB)."""


class _BodyLengthError(Exception):
    """A ``Content-Length`` the server will not read a body for."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class AuditHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one :class:`AuditService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: AuditService,
                 max_requests: int | None = None):
        super().__init__(address, _Handler)
        self.service = service
        self.max_requests = max_requests
        self.requests_handled = 0
        self._lock = threading.Lock()

    def count_request(self) -> None:
        """Track handled requests; trigger shutdown past the cap.

        ``shutdown()`` must come from a thread other than the one
        running ``serve_forever`` — the handler threads qualify.
        """
        with self._lock:
            self.requests_handled += 1
            if (self.max_requests is not None
                    and self.requests_handled >= self.max_requests):
                threading.Thread(target=self.shutdown,
                                 daemon=True).start()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: AuditHTTPServer

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict,
                   close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection, so the handler stops reading.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.server.count_request()

    def _fail(self, status: int, message: str, close: bool = False) -> None:
        obs.add("serve.errors")
        self._send_json(status, {"error": message}, close=close)

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            raise _BodyLengthError(
                400, f"Content-Length must be a non-negative integer, "
                     f"got {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BodyLengthError(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw or b"null")
        except json.JSONDecodeError as exc:
            raise AuditRequestError(f"request body is not JSON: {exc}") \
                from None
        if not isinstance(payload, dict):
            raise AuditRequestError(
                "request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        if self.path == "/healthz":
            meta = self.server.service.components.meta
            self._send_json(200, {
                "status": "ok",
                "fingerprint": meta.get("fingerprint", ""),
                "dataset": meta.get("dataset", ""),
            })
        elif self.path == "/manifest":
            self._send_json(200, dict(self.server.service.components.meta))
        else:
            self._fail(404, f"unknown path {self.path!r}; routes: "
                            "/healthz /manifest /audit-one-row "
                            "/audit-batch")

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        service = self.server.service
        try:
            if self.path == "/audit-one-row":
                payload = self._read_body()
                if "row" not in payload:
                    raise AuditRequestError(
                        'audit-one-row body must be {"row": {...}}')
                with obs.span("serve.request", route="audit-one-row"):
                    result = service.audit_row(payload["row"])
                self._send_json(200, result)
            elif self.path == "/audit-batch":
                payload = self._read_body()
                if "rows" not in payload:
                    raise AuditRequestError(
                        'audit-batch body must be {"rows": [{...}, ...]}')
                with obs.span("serve.request", route="audit-batch"):
                    results = service.audit_batch(payload["rows"])
                self._send_json(200, {"results": results})
            else:
                self._fail(404, f"unknown path {self.path!r}")
        except _BodyLengthError as exc:
            # The body is left unread, so the stream can no longer be
            # framed into requests: answer, then drop the connection.
            self._fail(exc.status, str(exc), close=True)
        except AuditRequestError as exc:
            # Already counted on serve.errors when raised inside the
            # service; body/shape errors raised here are not, so count
            # uniformly through _fail only for the latter.
            if self.path in ("/audit-one-row", "/audit-batch") \
                    and _counted_by_service(exc):
                self._send_json(400, {"error": str(exc)})
            else:
                self._fail(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unhandled error serving %s", self.path)
            self._fail(500, f"internal error: {type(exc).__name__}: {exc}")


def _counted_by_service(exc: AuditRequestError) -> bool:
    """Whether the service already counted this error on serve.errors."""
    return getattr(exc, "_counted", False)


def serve_forever(service: AuditService, host: str = "127.0.0.1",
                  port: int = 0, max_requests: int | None = None,
                  ready: threading.Event | None = None) -> AuditHTTPServer:
    """Run the HTTP server until shutdown (or ``max_requests``).

    Blocks; returns the server object after the loop ends.  When
    launched on a helper thread with ``port=0``, pass ``ready``: the
    bound server is stashed on the event as ``ready.server`` before
    the event is set, so the launching thread can read the chosen
    address (and call ``shutdown()``) while the loop runs.
    """
    server = AuditHTTPServer((host, port), service,
                             max_requests=max_requests)
    if ready is not None:
        ready.server = server
        ready.set()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return server
