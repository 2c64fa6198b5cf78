"""The admin HTTP server: metrics, probes, traces.

A stdlib-only (:mod:`http.server`) control-plane transport mounted
*beside* a serving stack -- it never touches the request hot path, it
only reads the bookkeeping the stack already maintains:

================  ====================================================
``GET /``          endpoint index (JSON)
``GET /metrics``   Prometheus text exposition of the telemetry registry
``GET /stats``     full stats snapshot (JSON)
``GET /healthz``   liveness -- 200 for as long as the process serves
``GET /readyz``    readiness -- 200/503 plus the per-check report
``GET /traces``    newest sampled request traces (JSON; ``?n=``)
``GET /slow-queries``  worst-K traces by duration (JSON; ``?n=``)
================  ====================================================

``?n=`` must be a non-negative integer; anything else answers 400, and
any other path answers 404.  ``port=0`` binds an ephemeral port -- read
:attr:`AdminServer.port` after :meth:`start`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from ..config import DEFAULT_OPS_PARAMETERS, OpsParameters
from ..exceptions import OpsError
from .health import HealthMonitor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..frontend.frontend import ServingFrontend
    from ..telemetry.hub import Telemetry

#: text/plain content type Prometheus scrapers expect.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

_ENDPOINTS = (
    "/", "/metrics", "/stats", "/healthz", "/readyz",
    "/traces", "/slow-queries",
)


class AdminServer:
    """Mounts the ops endpoints over a serving stack on a background thread.

    Every component is optional: endpoints whose backing component is
    absent answer 404 with a JSON explanation, so a bare-telemetry
    deployment still gets ``/metrics`` and the probes.
    """

    def __init__(
        self,
        frontend: "ServingFrontend | None" = None,
        telemetry: "Telemetry | None" = None,
        health: HealthMonitor | None = None,
        parameters: OpsParameters | None = None,
    ) -> None:
        self.parameters = parameters or DEFAULT_OPS_PARAMETERS
        self.frontend = frontend
        if telemetry is None and frontend is not None:
            telemetry = frontend.telemetry
        self.telemetry = telemetry
        self.health = health or HealthMonitor(frontend=frontend)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._requests_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        if self.telemetry is not None:
            self.health.register_metrics(self.telemetry.registry)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "AdminServer":
        if self._httpd is not None:
            raise OpsError("admin server already started")
        handler = _build_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.parameters.host, self.parameters.port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="admin-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._httpd = None
        self._thread = None

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._httpd is None:
            raise OpsError("admin server is not started")
        return self._httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.parameters.host}:{self.port}{path}"

    def __enter__(self) -> "AdminServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def request_counts(self) -> dict[str, int]:
        """Requests served per endpoint path (admin traffic, not queries)."""
        with self._requests_lock:
            return dict(self._requests)

    def _count(self, path: str) -> None:
        with self._requests_lock:
            self._requests[path] = self._requests.get(path, 0) + 1

    # ------------------------------------------------------------------ #
    # Endpoint bodies (return (status, content_type, body bytes))
    # ------------------------------------------------------------------ #
    def _json(self, payload, status: int = 200) -> tuple[int, str, bytes]:
        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        return status, _JSON_CONTENT_TYPE, body

    def _handle(self, path: str, query: dict) -> tuple[int, str, bytes]:
        if path == "/":
            return self._json({
                "endpoints": list(_ENDPOINTS),
                "requests": self.request_counts(),
            })
        if path == "/metrics":
            if self.telemetry is None:
                return self._json({"error": "no telemetry attached"}, 404)
            text = self.telemetry.render_prometheus()
            return 200, _PROMETHEUS_CONTENT_TYPE, text.encode("utf-8")
        if path == "/stats":
            if self.frontend is not None:
                return self._json(self.frontend.stats_snapshot())
            if self.telemetry is not None:
                return self._json(self.telemetry.snapshot())
            return self._json({"error": "no front-end or telemetry attached"}, 404)
        if path == "/healthz":
            return self._json(self.health.liveness())
        if path == "/readyz":
            report = self.health.readiness()
            return self._json(report.to_dict(), 200 if report.ready else 503)
        if path in ("/traces", "/slow-queries"):
            if self.telemetry is None:
                return self._json({"error": "no telemetry attached"}, 404)
            try:
                n = _count_param(query)
            except ValueError as error:
                return self._json({"error": str(error)}, 400)
            if path == "/traces":
                return self._json({"traces": self.telemetry.recent_traces(n)})
            return self._json({"slow_queries": self.telemetry.slow_queries(n)})
        return self._json({"error": f"unknown path {path!r}"}, 404)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        where = self.url() if self.running else "stopped"
        return f"AdminServer({where})"


def _count_param(query: dict) -> int | None:
    """The ``?n=`` count, ``None`` when absent.

    Raises :class:`ValueError` unless it is a non-negative integer: a
    negative count would slice from the end, and ignoring a malformed one
    would return everything.
    """
    values = query.get("n")
    if not values:
        return None
    if not values[0].isdecimal():
        raise ValueError(f"n must be a non-negative integer, got {values[0]!r}")
    return int(values[0])


def _build_handler(server: AdminServer) -> type[BaseHTTPRequestHandler]:
    """A handler class bound to one :class:`AdminServer` via closure."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            split = urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            query = parse_qs(split.query)
            try:
                status, content_type, body = server._handle(path, query)
            except Exception as exc:  # endpoint bugs answer 500, not EOF
                status, content_type, body = server._json(
                    {"error": f"{type(exc).__name__}: {exc}"}, 500
                )
            server._count(path)
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # admin chatter stays out of stderr; request_counts() has totals

    return Handler
