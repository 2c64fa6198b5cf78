"""Operational control plane: admin HTTP transport and probes.

This package turns the library + front-end into an *observable daemon*:

* :class:`AdminServer` -- a stdlib HTTP server beside the serving stack
  exposing ``/metrics`` (Prometheus), ``/stats``, ``/healthz``,
  ``/readyz``, ``/traces`` and ``/slow-queries``;
* :class:`HealthMonitor` -- liveness vs readiness over the front-end.

Everything reads bookkeeping the stack already maintains; nothing here
adds work to the request hot path.
"""

from .health import CheckResult, HealthMonitor, ReadinessReport
from .server import AdminServer

__all__ = [
    "AdminServer",
    "CheckResult",
    "HealthMonitor",
    "ReadinessReport",
]
