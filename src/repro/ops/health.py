"""Liveness and readiness probes over the serving stack.

The two probes answer different operational questions and must not be
conflated:

* **liveness** (``/healthz``) -- "is the process worth keeping?"  It is
  true from construction until the process dies; an orchestrator
  restarts on liveness failure, so it must *not* flap during overload
  or drains.
* **readiness** (``/readyz``) -- "should traffic be routed here right
  now?"  It composes cheap checks over the front-end: it is started and
  not draining, and every admission lane is below
  :data:`QUEUE_SATURATION_FRACTION` of its capacity.

Each check is evaluated independently and reported with its own detail,
so a failing probe says *why* -- the report is the JSON body of the
probe endpoint, not just its status code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..frontend.requests import LANES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..frontend.frontend import ServingFrontend

#: A front-end admission lane at or above this fraction of its capacity
#: marks the worker NOT ready (load balancers should stop sending it
#: traffic) while ``/healthz`` stays up (it must not be restarted).
QUEUE_SATURATION_FRACTION = 0.9


@dataclass(frozen=True)
class CheckResult:
    """One readiness check: its verdict plus the numbers behind it."""

    name: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": dict(self.detail)}


@dataclass(frozen=True)
class ReadinessReport:
    """The readiness verdict: every check's result, ANDed into ``ready``."""

    ready: bool
    checks: tuple[CheckResult, ...]

    def failing(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        return {
            "ready": self.ready,
            "checks": [check.to_dict() for check in self.checks],
        }


class HealthMonitor:
    """Evaluates liveness/readiness over a front-end.

    The front-end may be ``None`` -- its checks are simply skipped, so a
    bare-telemetry deployment is always ready.
    """

    def __init__(self, frontend: "ServingFrontend | None" = None) -> None:
        self.frontend = frontend
        self._born_at = time.perf_counter()

    @property
    def uptime_s(self) -> float:
        return time.perf_counter() - self._born_at

    # ------------------------------------------------------------------ #
    # Probes
    # ------------------------------------------------------------------ #
    def liveness(self) -> dict:
        """Always alive: the process answering at all is the signal."""
        return {"status": "ok", "uptime_s": round(self.uptime_s, 3)}

    def readiness(self) -> ReadinessReport:
        checks: list[CheckResult] = []
        if self.frontend is not None:
            checks.append(self._check_frontend_running())
            checks.append(self._check_not_draining())
            if self.frontend.running:
                checks.append(self._check_queue_headroom())
        return ReadinessReport(
            ready=all(check.ok for check in checks), checks=tuple(checks)
        )

    # ------------------------------------------------------------------ #
    # Individual checks
    # ------------------------------------------------------------------ #
    def _check_frontend_running(self) -> CheckResult:
        running = self.frontend.running
        return CheckResult("frontend_running", running, {"running": running})

    def _check_not_draining(self) -> CheckResult:
        draining = self.frontend.draining
        return CheckResult("not_draining", not draining, {"draining": draining})

    def _check_queue_headroom(self) -> CheckResult:
        capacity = self.frontend.parameters.queue_capacity
        limit = QUEUE_SATURATION_FRACTION * capacity
        depths = {lane: self.frontend.queue_depth(lane) for lane in LANES}
        worst = max(depths.values())
        return CheckResult(
            "queue_headroom",
            worst < limit,
            {
                "depths": depths,
                "capacity_per_lane": capacity,
                "saturation_at": limit,
            },
        )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def register_metrics(self, registry) -> None:
        """Expose the probe verdicts as callback-backed gauges."""
        registry.gauge(
            "repro_ops_up",
            "Liveness: 1 while the process is serving the admin endpoints",
            callback=lambda: 1.0,
        )
        registry.gauge(
            "repro_ops_ready",
            "Readiness: 1 when every readiness check passes",
            callback=lambda: 1.0 if self.readiness().ready else 0.0,
        )
        registry.gauge(
            "repro_ops_uptime_seconds",
            "Seconds since the health monitor was constructed",
            callback=lambda: self.uptime_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        report = self.readiness()
        return f"HealthMonitor(ready={report.ready}, checks={len(report.checks)})"
