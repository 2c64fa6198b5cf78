"""Operational control plane: admin HTTP transport, probes, SLOs.

This package turns the library + front-end into an *observable daemon*:

* :class:`AdminServer` -- a stdlib HTTP server beside the serving stack
  exposing ``/metrics`` (Prometheus), ``/stats``, ``/healthz``,
  ``/readyz``, ``/traces``, ``/slow-queries`` and ``/alerts``;
* :class:`HealthMonitor` -- liveness vs readiness over the front-end,
  service, and ingest pipeline;
* :class:`SLOEngine` with :class:`LatencySLO` / :class:`AvailabilitySLO`
  / :class:`StalenessSLO` -- declarative objectives evaluated over
  sliding windows, emitting multi-window burn-rate :class:`Alert` s to
  pluggable sinks.

Everything reads bookkeeping the stack already maintains; nothing here
adds work to the request hot path.
"""

from .health import CheckResult, HealthMonitor, ReadinessReport
from .server import AdminServer
from .slo import (
    Alert,
    AlertSink,
    AvailabilitySLO,
    CallbackAlertSink,
    JsonLinesAlertSink,
    LatencySLO,
    LogAlertSink,
    SLO,
    SLOEngine,
    StalenessSLO,
)

__all__ = [
    "AdminServer",
    "Alert",
    "AlertSink",
    "AvailabilitySLO",
    "CallbackAlertSink",
    "CheckResult",
    "HealthMonitor",
    "JsonLinesAlertSink",
    "LatencySLO",
    "LogAlertSink",
    "ReadinessReport",
    "SLO",
    "SLOEngine",
    "StalenessSLO",
]
